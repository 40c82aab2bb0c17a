"""latflow: lattice max-flow streams, mixing constructions, the dyadic
vector-measure distance, and Monte Carlo rate-function estimation.

``import latflow`` loads no submodule: each name below is imported from its
module on first use (PEP 562), so a process compiles only what it runs."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "geometry": "DomainSpec EdgeId LatticeDomain Region boundary_edge_set cylinder_sets "
                "discretize_domain face_partition frac unit_box_domain unit_cube "
                "unit_square_domain",
    "capacities": "CapacityDistribution derive_seed sample_capacities",
    "stream": "Stream admissibility_region_report admissibility_report constant_stream "
              "divergence_at dump_stream face_flux flow_value load_stream vector_measure",
    "maxflow": "MaxFlowResult cylinder_flow_tau max_flow",
    "reconnect": "balance_faces decompose glue_adjacent mix mix2d mix_precise mix_sparse",
    "measure": "DistanceBracket DistanceOptions VectorMeasure distance restrict",
    "estimate": "RateEstimate estimate_flow_constant estimate_rate min_distance "
                "rate_upper_bound tail_probability wilson_interval",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
