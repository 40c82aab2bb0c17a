import dataclasses
import hashlib
import math
import random
import sys
from fractions import Fraction

import pytest

from latflow.capacities import CapacityDistribution, EdgeHasher, region_edges, sample_capacities, sample_numerators
from latflow.geometry import (
    Cylinder, DomainSpec, Region, box, discretize_domain, inner_edges, unit_box_domain,
    unit_square_domain,
)
from latflow.maxflow import (
    FlowNetwork, _cancel_cycles, _cylinder_network, cylinder_flow_tau, max_flow, tau_network,
)
from latflow.stream import Stream, admissibility_report, dump_stream, flow_value
from latflow.estimate import straight_base, straight_tau_sampler

import oracles


def test_unit_capacities_flow_equals_column_count():
    # phi = number of vertex-disjoint lattice columns for all-ones capacities
    L = discretize_domain(unit_square_domain(), 2)
    t = sample_capacities(L, CapacityDistribution.constant(1), seed=0)
    res = max_flow(L, t)
    assert res.value == 3  # rows y in {0, 1/2, 1}
    oracle, _ = oracles.min_cut_by_partitions(L.omega, L.active_edges, t, L.gamma1, L.gamma2)
    assert res.value == oracle


def test_zero_capacities():
    L = discretize_domain(unit_square_domain(), 2)
    t = sample_capacities(L, CapacityDistribution.constant(0), seed=0)
    res = max_flow(L, t)
    assert res.value == 0
    assert res.stream.values == {}
    assert res.cut_capacity(t) == 0
    assert admissibility_report(res.stream, t, L).admissible


def test_solver_matches_partition_oracle_on_random_instances():
    rng = random.Random(2024)
    spec = unit_square_domain()
    for trial in range(60):
        n = rng.choice([2, 3])
        L = discretize_domain(spec, n)
        dist = (
            CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
            if trial % 2
            else CapacityDistribution.uniform(0, 1)
        )
        t = sample_capacities(L, dist, seed=rng.getrandbits(32))
        res = max_flow(L, t)
        oracle, _ = oracles.min_cut_by_partitions(
            L.omega, L.active_edges, t, L.gamma1, L.gamma2
        )
        assert res.value == oracle
        assert res.cut_capacity(t) == res.value
        assert flow_value(res.stream, L) == res.value
        assert admissibility_report(res.stream, t, L).admissible


def test_edge_subset_oracle_agrees_on_tiny_instance():
    L = discretize_domain(unit_square_domain(), 2)
    rng = random.Random(5)
    for _ in range(5):
        t = sample_capacities(
            L, CapacityDistribution.uniform(0, 1), seed=rng.getrandbits(32)
        )
        res = max_flow(L, t)
        subset = oracles.min_cut_by_edge_subsets(
            L.omega, list(L.active_edges), t, L.gamma1, L.gamma2, max_size=4
        )
        assert subset is not None and res.value <= subset
        partition, _ = oracles.min_cut_by_partitions(
            L.omega, L.active_edges, t, L.gamma1, L.gamma2
        )
        assert res.value == partition


def test_cut_disconnects():
    rng = random.Random(7)
    L = discretize_domain(unit_square_domain(), 3)
    for _ in range(10):
        t = sample_capacities(
            L, CapacityDistribution.bernoulli(0, 1, Fraction(1, 2)), seed=rng.getrandbits(32)
        )
        res = max_flow(L, t)
        removed = set(res.cutset)
        assert not oracles._connected(L.omega, list(L.active_edges), removed, L.gamma1, L.gamma2)


def test_monotone_in_single_capacity():
    L = discretize_domain(unit_square_domain(), 2)
    t = sample_capacities(L, CapacityDistribution.uniform(0, 1), seed=99)
    base = max_flow(L, t).value
    for e in list(t)[:6]:
        bumped = dict(t)
        bumped[e] = bumped[e] + 1
        assert max_flow(L, bumped).value >= base


def cylinder_phi(base, h, t):
    """Phi(A, h): the maximal flow from T(A, h) to B(A, h) inside cyl(A, h),
    on the cylinder network of tau with the oracle's T and B as its
    terminals."""
    _, top, bottom, _, _ = oracles.cylinder_by_scan(base, h, 1)
    return _cylinder_network(Region(cylinder=Cylinder(base, h)), frozenset(top), frozenset(bottom)).solve(t)


def test_cylinder_phi_constant_capacities_column_count():
    d = 2
    for k, c in ((2, Fraction(1)), (3, Fraction(2, 3))):
        base = straight_base(d, k, d - 1)
        region = Region(cylinder=Cylinder(base, 2))
        t = sample_capacities(
            region_edges(region, 1), CapacityDistribution.constant(c), seed=0
        )
        res = cylinder_phi(base, 2, t)
        assert res.value == c * oracles.column_count(base, d - 1)


def test_cylinder_phi_unchanged_by_height():
    d, k = 2, 3
    base = straight_base(d, k, d - 1)
    vals = []
    for h in (1, 2, 4):
        region = Region(cylinder=Cylinder(base, h))
        t = sample_capacities(
            region_edges(region, 1), CapacityDistribution.constant(1), seed=0
        )
        vals.append(cylinder_phi(base, h, t).value)
    assert vals[0] == vals[1] == vals[2]


def test_cylinder_phi_bounded_by_any_flat_layer():
    d, k, h = 2, 3, 2
    base = straight_base(d, k, d - 1)
    region = Region(cylinder=Cylinder(base, h))
    rng = random.Random(13)
    for _ in range(10):
        t = sample_capacities(
            region_edges(region, 1), CapacityDistribution.uniform(0, 1),
            seed=rng.getrandbits(32),
        )
        res = cylinder_phi(base, h, t)
        verts = set(region.lattice_vertices(1))
        for level in range(-h, h):
            from latflow.geometry import EdgeId

            layer = [
                EdgeId(x, d - 1)
                for x in verts
                if x[d - 1] == level and tuple(list(x[:-1]) + [level + 1]) in verts
            ]
            cap = sum(t.get(e, 0) for e in layer)
            assert res.value <= cap


def test_tau_unit_capacities_ratio_one():
    d, k, h = 2, 4, 4
    base = straight_base(d, k, d - 1)
    region = Region(cylinder=Cylinder(base, h))
    t = sample_capacities(
        region_edges(region, 1), CapacityDistribution.constant(1), seed=0
    )
    res = cylinder_flow_tau(base, h, t)
    assert res.value == oracles.column_count(base, d - 1) == k


def test_tau_subadditive_over_adjacent_bases():
    # Gluing the two minimal cutsets cuts the union once the interface is
    # sealed: a union path avoiding both cuts must cross the mid-plane at an
    # interface vertex, so tau(A1 u A2) <= tau(A1) + tau(A2) + T(interface
    # edges at level 0).  The bare inequality without the interface term
    # fails on explicit instances (see the decisions ledger).
    from latflow.geometry import EdgeId

    d, h = 2, 3
    rng = random.Random(31)
    for _ in range(50):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        base_full = box((0, a + b), (0, 0))
        base_1 = box((0, a), (0, 0))
        base_2 = box((a, a + b), (0, 0))
        region = Region(cylinder=Cylinder(base_full, h))
        t = sample_capacities(
            region_edges(region, 1), CapacityDistribution.uniform(0, 1),
            seed=rng.getrandbits(32),
        )
        tau_full = cylinder_flow_tau(base_full, h, t).value
        tau_1 = cylinder_flow_tau(base_1, h, t).value
        tau_2 = cylinder_flow_tau(base_2, h, t).value
        interface = 0
        for x in ((a - 1, 0), (a, 0)):
            for e, _ in [(EdgeId(x, ax), 1) for ax in range(d)] + [
                (EdgeId((x[0] - 1, x[1]), 0), -1),
                (EdgeId((x[0], x[1] - 1), 1), -1),
            ]:
                interface += t.get(e, 0)
        assert tau_full <= tau_1 + tau_2 + interface


def test_tau_subadditivity_exact_for_constant_capacities():
    d, h = 2, 2
    for a, b in ((1, 2), (2, 2), (3, 1)):
        base_full = box((0, a + b), (0, 0))
        base_1 = box((0, a), (0, 0))
        base_2 = box((a, a + b), (0, 0))
        region = Region(cylinder=Cylinder(base_full, h))
        t = sample_capacities(
            region_edges(region, 1), CapacityDistribution.constant(1), seed=0
        )
        tau_full = cylinder_flow_tau(base_full, h, t).value
        tau_1 = cylinder_flow_tau(base_1, h, t).value
        tau_2 = cylinder_flow_tau(base_2, h, t).value
        assert tau_full == tau_1 + tau_2 == a + b


def test_solve_leaves_the_recursion_limit_alone():
    # pin the interpreter default, so that a raise made by an earlier solve
    # in this process cannot hide one made here
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        L = discretize_domain(unit_square_domain(), 48)
        t = sample_capacities(L, CapacityDistribution.uniform(0, 1), seed=1)
        res = max_flow(L, t)
        assert sys.getrecursionlimit() == 1000
        assert sum(t[e] for e in res.cutset) == res.value
    finally:
        sys.setrecursionlimit(old)


def _network(L):
    return FlowNetwork(L.d, L.n, L.omega, L.active_edges, L.gamma1, L.gamma2)


def test_a_float_capacity_raises():
    # scaled to ints and sent back as one, a float would come back
    # multiplied by D: 2 here, on the capacities 1/2
    L = discretize_domain(unit_square_domain(), 2)
    for t in ({e: 0.5 for e in L.active_edges},
              {e: 0.5 if k == 3 else Fraction(1, 2) for k, e in enumerate(L.active_edges)}):
        with pytest.raises(TypeError, match="a capacity must be an int or a Fraction, got 0.5"):
            max_flow(L, t)


def _random_box_domain(rng):
    d = rng.choice([2, 2, 3])
    axis = rng.randrange(d)
    top = 8 if d == 2 else 3
    hi = [Fraction(rng.randint(1, top), rng.randint(1, 3)) for _ in range(d)]
    bx = tuple((Fraction(0), h) for h in hi)
    src = tuple((Fraction(0), Fraction(0)) if j == axis else bx[j] for j in range(d))
    snk = tuple((hi[j], hi[j]) if j == axis else bx[j] for j in range(d))
    return DomainSpec(d=d, boxes=(bx,), source=(src,), sink=(snk,))


def test_value_matches_networkx_on_random_domains():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for _ in range(50):
        L = discretize_domain(_random_box_domain(rng), rng.randint(1, 3))
        dist = (
            CapacityDistribution.uniform(0, 1)
            if rng.random() < 0.5
            else CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
        )
        t = sample_capacities(L, dist, seed=rng.getrandbits(32))
        res = max_flow(L, t)
        G = nx.DiGraph()
        G.add_nodes_from(("s", "t"))
        for e in L.active_edges:
            G.add_edge(e.x, e.right(), capacity=t[e])
            G.add_edge(e.right(), e.x, capacity=t[e])
        # terminal arcs without a capacity attribute are unbounded
        G.add_edges_from(("s", v) for v in L.gamma1)
        G.add_edges_from((v, "t") for v in L.gamma2)
        ref = nx.maximum_flow_value(G, "s", "t")
        assert res.value == ref
        assert res.cut_capacity(t) == res.value


def _exact_golden_solves():
    """(name, result) of exact solves: straight tau cylinders, the unit
    square under three rational laws, a vertex in both terminal sets, and a
    d=3 box whose Dinic flow has a cycle to cancel.  With disjoint terminal
    sets a terminal arc always keeps more residual capacity than the first
    or last edge arc of its path; a vertex in both gives the path
    S -> v -> T, whose bottleneck is the terminal arc ``big``."""
    for side in (8, 16):
        base = straight_base(2, side, 1)
        region = Region(cylinder=Cylinder(base, side))
        t = sample_capacities(region_edges(region, 1), CapacityDistribution.uniform(0, 1), side)
        yield f"tau-n{side}", cylinder_flow_tau(base, side, t)
    L = discretize_domain(unit_square_domain(), 12)
    third = Fraction(1, 3)
    for name, dist in (
        ("uniform", CapacityDistribution.uniform(third, 2)),
        ("bernoulli", CapacityDistribution.bernoulli(0, 1, third)),
        ("discrete", CapacityDistribution.discrete([0, third, 2 * third, 5 * third], [Fraction(1, 4)] * 4)),
    ):
        yield name, max_flow(L, sample_capacities(L, dist, 12))
    L = discretize_domain(unit_square_domain(), 2)
    both = dataclasses.replace(L, gamma1=L.gamma1 | {(1, 1)}, gamma2=L.gamma2 | {(1, 1)})
    yield "terminal-bottleneck", max_flow(both, sample_capacities(both, CapacityDistribution.uniform(third, 2), 5))
    L = discretize_domain(unit_box_domain(3), 5)
    yield "d3-cycle", max_flow(L, sample_capacities(L, CapacityDistribution.uniform(0, 1), 0))


# SHA-256 of repr(value), dump_stream and repr(cutset) for the exact
# instances above, recorded with Dinic on Fraction capacities; "d3-cycle"
# was recorded with the integer Dinic and the restarted cycle search of
# ``oracles.cancel_cycles_by_restarts``.
GOLDEN_EXACT = {
    "tau-n8": "d358ba5c96bee4c82e38af0826fb4b4a1433e731b69c7c825cf45cac3d681f74",
    "tau-n16": "3fb90a34a309939a40b8cec92344f1a59a42f79039ec019e02bf4b9914039ad1",
    "uniform": "a2e7c055cca73126a8b91525dc68fe7483daca1a1c3756da02c2b7f5e175bec8",
    "bernoulli": "d29bcedb87dec4ecad5bbff67632b84656d6743107e77b3316dc42ba7df2f832",
    "discrete": "21d02b469bbfbefc685d9c6ccb65112724d836081241e099ba7329f12218a077",
    "terminal-bottleneck": "48fdf1a827f91113dc1e3377c80480543045b6d68bb0e5afd9bdf1613c3d334e",
    "d3-cycle": "cdd97f0e1d0e9c1ce5366ae168322df619a5f56ebd28ddc15659ba5a618c7f8c",
}


def test_exact_solve_is_bit_identical_to_recorded_values():
    digests = {}
    for name, res in _exact_golden_solves():
        text = "\n".join((repr(res.value), dump_stream(res.stream), repr(res.cutset)))
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GOLDEN_EXACT


CANCEL_NETWORKS = [("unit_square", unit_square_domain(), n) for n in (3, 4, 6, 8)] + [
    ("unit_box_d3", unit_box_domain(3), n) for n in (2, 3, 4)
]


def _divergence(net, flow):
    div = [0] * len(net.adj)
    for k, s in enumerate(flow):
        div[net.head[2 * k + 1]] += s
        div[net.head[2 * k]] -= s
    return div


def _acyclic(net, flow):
    """Whether the arcs of positive flow admit a topological order (Kahn)."""
    arcs = [(net.head[2 * k + 1], net.head[2 * k]) if s > 0 else (net.head[2 * k], net.head[2 * k + 1])
            for k, s in enumerate(flow) if s]
    indegree = [0] * len(net.adj)
    out = [[] for _ in net.adj]
    for u, v in arcs:
        out[u].append(v)
        indegree[v] += 1
    ready = [v for v, k in enumerate(indegree) if k == 0]
    ordered = 0
    while ready:
        ordered += 1
        for v in out[ready.pop()]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return ordered == len(net.adj)


@pytest.mark.parametrize("domain, spec, n", CANCEL_NETWORKS, ids=[f"{a}-n{n}" for a, _, n in CANCEL_NETWORKS])
def test_cancel_cycles_on_dense_random_flows(domain, spec, n):
    """Every edge of the network carries a random flow in [-1000, 1000], as
    an int or over 7: the cancelled flow is the restarted search's, values
    and dict order, keeps every divergence, shrinks each |s(e)| without
    flipping its sign, and leaves no directed cycle."""
    L = discretize_domain(spec, n)
    net = FlowNetwork(L.d, L.n, L.omega, L.active_edges, L.gamma1, L.gamma2)
    rng = random.Random(f"{domain}-{n}")
    cancelled = 0
    for trial in range(30):
        before = [rng.randint(-1000, 1000) for _ in net.edges]
        if trial % 2:
            before = [Fraction(x, 7) for x in before]
        ref = Stream(L.d, L.n, {e: s for e, s in zip(net.edges, before) if s})
        oracles.cancel_cycles_by_restarts(ref)
        flow = list(before)
        _cancel_cycles(net.adj, net.head, flow)
        assert list({e: s for e, s in zip(net.edges, flow) if s}.items()) == list(ref.values.items())
        assert _divergence(net, flow) == _divergence(net, before)
        assert all(s == 0 or (0 < s <= b if b > 0 else b <= s < 0) for s, b in zip(flow, before))
        assert _acyclic(net, flow)
        cancelled += flow != before
    assert cancelled  # the walk met cycles on this network


def _mixed_capacities(rng, edges):
    """Ints and Fractions of assorted denominators, with some edges left out."""
    t = {}
    for e in edges:
        r = rng.random()
        if r < 0.15:
            continue
        if r < 0.4:
            t[e] = rng.randint(0, 3)
        else:
            t[e] = Fraction(rng.randint(0, 40), rng.choice([1, 2, 3, 7, 12, 1 << 20]))
    return t


def test_integer_path_equals_the_fraction_run_on_random_instances():
    rng = random.Random(606)
    for _ in range(50):
        L = discretize_domain(_random_box_domain(rng), rng.randint(1, 3))
        if rng.random() < 0.2 and len(L.omega) > 2:
            # a vertex in both terminal sets: the terminal arc is a bottleneck
            v = rng.choice(sorted(L.omega))
            L = dataclasses.replace(L, gamma1=L.gamma1 | {v}, gamma2=L.gamma2 | {v})
        t = _mixed_capacities(rng, L.active_edges)
        res = max_flow(L, t)
        value, stream, cutset = oracles.fraction_max_flow(L, t)
        assert res.value == value
        assert res.stream.values == stream
        assert res.cutset == cutset
        if any(isinstance(c, Fraction) for c in t.values()):
            assert all(isinstance(s, Fraction) for s in res.stream.values.values())


THIRD = Fraction(1, 3)
EXACT_LAWS = (
    CapacityDistribution.uniform(0, 1),
    CapacityDistribution.uniform(THIRD, 2),
    CapacityDistribution.bernoulli(0, 1, Fraction(1, 2)),
    CapacityDistribution.discrete([0, THIRD, 2 * THIRD, 5 * THIRD], [Fraction(1, 4)] * 4),
)


def _assert_value_is_the_solve_value(network, t):
    """``sample_value`` of the capacities t, as ints over the lcm D of their
    denominators, equals ``solve(t).value``: the planar dual's or Dinic's
    value alone, against the full solve."""
    caps = [Fraction(t.get(e, 0)) for e in network.edges]
    D = math.lcm(*(c.denominator for c in caps))
    value, ref = network.sample_value([int(c * D) for c in caps], D), network.solve(t).value
    assert value == ref, (value, ref)


def test_planar_value_equals_solve_on_random_exact_cylinders():
    rng = random.Random(707)
    for side in range(2, 14):
        for h in (1, side, 2 * side):
            for axis in (0, 1):
                network = tau_network(straight_base(2, side, axis), h)
                assert network.dual is not None
                for _ in range(3):
                    law = rng.randrange(len(EXACT_LAWS) + 1)
                    if law == len(EXACT_LAWS):
                        # pure ints, some edges left out (capacity 0)
                        t = {e: rng.randint(0, 3) for e in network.edges if rng.random() < 0.9}
                    else:
                        t = sample_capacities(network.edges, EXACT_LAWS[law], rng.getrandbits(32))
                    _assert_value_is_the_solve_value(network, t)


def test_planar_value_equals_solve_on_random_box_domains():
    rng = random.Random(808)
    built = 0
    for _ in range(60):
        L = discretize_domain(_random_box_domain(rng), rng.randint(1, 3))
        network = FlowNetwork(L.d, L.n, L.omega, L.active_edges, L.gamma1, L.gamma2)
        built += network.dual is not None
        _assert_value_is_the_solve_value(network, _mixed_capacities(rng, L.active_edges))
    assert built >= 20


# every kind, with values whose floats round (thirds, sevenths) and uniform
# samples of 64 bits; constant(0) has no flow at all
SAMPLED_LAWS = EXACT_LAWS + (
    CapacityDistribution.constant(THIRD),
    CapacityDistribution.constant(0),
    CapacityDistribution.bernoulli(Fraction(1, 7), 2, Fraction(1, 2)),
)


def _sampled_networks():
    yield "tau-d2", tau_network(straight_base(2, 6, 1), 6)
    yield "square-n8", _network(discretize_domain(unit_square_domain(), 8))
    yield "tau-d3", tau_network(straight_base(3, 3, 2), 3)


@pytest.mark.parametrize("name", [name for name, _ in _sampled_networks()])
def test_sample_value_is_the_value_of_the_sampled_capacities(name):
    network = dict(_sampled_networks())[name]
    assert (network.dual is None) == (name == "tau-d3")
    hasher = EdgeHasher(network.edges)
    for law in SAMPLED_LAWS:
        for seed in range(3):
            got = network.sample_value(*sample_numerators(hasher, law, seed))
            want = network.solve(sample_capacities(network.edges, law, seed)).value
            assert got == want and type(got) is type(want), (law, seed, got, want)


@pytest.mark.parametrize("d", [2, 3])
def test_tau_sampler_value_is_the_value_of_the_sampled_capacities(d):
    network = tau_network(straight_base(d, 3, d - 1), 3)
    for law in SAMPLED_LAWS:
        tau = straight_tau_sampler(d, 3, 3, d - 1, law)
        for seed in range(2):
            got, want = tau(seed), network.solve(sample_capacities(network.edges, law, seed)).value
            assert got == want and type(got) is type(want), (law, seed, got, want)


@pytest.mark.parametrize("c", [-1, Fraction(-1, 3), -0.25])
def test_negative_capacity_raises(c):
    for _, network in _sampled_networks():
        t = {e: Fraction(1, 2) for e in network.edges}
        t[network.edges[len(t) // 2]] = c
        with pytest.raises(ValueError, match="negative capacity"):
            network.solve(t)


def _grid_network(sources, sinks, hole=()):
    """The network on the 4 x 4 vertex grid {0..3}^2 less ``hole``."""
    verts = {(x, y) for x in range(4) for y in range(4)} - set(hole)
    return FlowNetwork(2, 1, verts, inner_edges(verts), sources, sinks)


def _no_dual_networks():
    for axis in (0, 1):
        yield f"side-1-axis{axis}", tau_network(straight_base(2, 1, axis), 3)
    yield "d3", tau_network(straight_base(3, 3, 2), 3)
    L = discretize_domain(unit_square_domain(), 3)
    yield "both-terminals", FlowNetwork(2, 3, L.omega, L.active_edges, L.gamma1 | {(1, 1)}, L.gamma2 | {(1, 1)})
    left, right = {(0, y) for y in range(4)}, {(3, y) for y in range(4)}
    yield "interior-terminal", _grid_network(left | {(1, 1)}, right)
    yield "two-source-arcs", _grid_network({(0, 1), (3, 1)}, {(1, 0), (1, 3)})
    yield "no-sinks", _grid_network(left, set())
    yield "not-a-rectangle", _grid_network(left, right, hole=[(2, 3)])


@pytest.mark.parametrize("name", [name for name, _ in _no_dual_networks()])
def test_value_falls_back_to_dinic_without_a_planar_dual(name):
    network = dict(_no_dual_networks())[name]
    assert network.dual is None
    for seed in range(3):
        for law in EXACT_LAWS:
            _assert_value_is_the_solve_value(network, sample_capacities(network.edges, law, seed))


def test_sample_value_takes_the_dual_on_a_planar_network(monkeypatch):
    import latflow.maxflow

    network = tau_network(straight_base(2, 6, 1), 6)
    assert network.dual is not None
    law = CapacityDistribution.uniform(0, 1)
    values = [network.solve(sample_capacities(network.edges, law, seed)).value for seed in range(3)]
    samples = [sample_numerators(EdgeHasher(network.edges), law, seed) for seed in range(3)]
    monkeypatch.setattr(latflow.maxflow, "_dinic", None)  # a call would raise
    assert [network.sample_value(*sample) for sample in samples] == values


# SHA-256 of the repr of straight_tau_sampler values, h = side, seeds 0..3,
# both axes, under uniform[1/3, 2] and Bernoulli(0, 1, 1/2) (exact): recorded
# with Dinic on every capacity sample of the cylinder's region edges.
GOLDEN_TAU = {
    (2, (4, 8, 16)): "1470a8c68ef24af8aaa25aed46912f038175724f42735e16b151e1e49a52301e",
    (3, (3,)): "d9d681a619193bd01e30abaff81ce61a68f12d7679b3d3bdfb6fd55860413f7c",
}


@pytest.mark.parametrize("d, sides", sorted(GOLDEN_TAU))
def test_tau_sampler_is_bit_identical_to_recorded_values(d, sides):
    lines = []
    for side in sides:
        for axis in range(d):
            for dist in (EXACT_LAWS[1], EXACT_LAWS[2]):
                tau = straight_tau_sampler(d, side, side, axis, dist)
                lines.extend(repr(tau(seed)) for seed in range(4))
            # uniform(0, 1): the exact value of the same sample, rounded once
            tau = straight_tau_sampler(d, side, side, axis, EXACT_LAWS[0])
            network = tau_network(straight_base(d, side, axis), side)
            for seed in range(4):
                t = sample_capacities(network.edges, EXACT_LAWS[0], seed)
                assert float(tau(seed)) == float(network.solve(t).value)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_TAU[d, sides]


@pytest.mark.parametrize("d", [2, 3])
def test_tau_sampler_samples_the_network_edges_only(d, monkeypatch):
    import latflow.estimate

    sampled = []

    def recording(hasher, *args, **kwargs):
        nums, D = sample_numerators(hasher, *args, **kwargs)
        assert len(nums) == len(hasher.edges)
        sampled.append(set(hasher.edges))
        return nums, D

    monkeypatch.setattr(latflow.estimate, "sample_numerators", recording)
    side = 4
    straight_tau_sampler(d, side, side, d - 1, CapacityDistribution.uniform(0, 1))(5)
    assert sampled == [set(tau_network(straight_base(d, side, d - 1), side).edges)]
