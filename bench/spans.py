"""Span tracer for one traced ``latflow`` CLI run.

Run as ``python3 bench/spans.py OUT.json -- <latflow CLI arguments>`` with the
package importable; it wraps the public functions of each layer, runs
``latflow.cli.main`` and writes every span to OUT.json.  The CLI's exit code
is passed through.

Each wrapper is installed on the function's defining name and on every
attribute of a loaded ``latflow`` module that is the same object (a function
that ``cli`` imported by name is patched in ``latflow.cli`` as well).  A
defining name that no longer exists is reported as absent rather than
failing the run.  Spans are recorded under a lock with the thread id,
the thread's CPU time and the id of the span that caused them.
"""

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from contextlib import contextmanager

# (span name, defining name "module:attribute[.attribute]") of each wrapped
# function.  Every binding of the same object in a loaded latflow module is
# patched too, so a caller that imported the function by name is traced
# wherever the import sits.
LAYERS = (
    ("estimate.estimate_rate", "latflow.estimate:estimate_rate"),
    ("estimate.estimate_flow_constant", "latflow.estimate:estimate_flow_constant"),
    ("estimate.tail_probability", "latflow.estimate:tail_probability"),
    ("estimate.min_distance", "latflow.estimate:min_distance"),
    ("estimate.value_and_grad", "latflow.estimate:CubeDistanceTables.value_and_grad"),
    ("estimate.tables", "latflow.estimate:CubeDistanceTables.__init__"),
    ("capacities.sample_capacities", "latflow.capacities:sample_capacities"),
    ("capacities.region_edges", "latflow.capacities:region_edges"),
    ("maxflow.max_flow", "latflow.maxflow:max_flow"),
    ("maxflow.cylinder_flow_tau", "latflow.maxflow:cylinder_flow_tau"),
    ("geometry.cylinder_sets", "latflow.geometry:cylinder_sets"),
    ("geometry.discretize_domain", "latflow.geometry:discretize_domain"),
    ("measure.distance", "latflow.measure:distance"),
)
# the trial loop of the estimators: spans for the pool and for each trial
POOL = ("estimate.pool", "latflow.estimate:_run_trials")


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name, parent=None, **attrs):
        """Record a span; its parent is ``parent`` or the innermost open span
        of this thread.  Attributes set on the yielded dict are kept."""
        with self._lock:
            sid = next(self._ids)
        if parent is None:
            parent = self.current()
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(sid)
        rec = dict(attrs)
        cpu0 = time.thread_time()
        start = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu0
            stack.pop()
            rec.update(id=sid, parent=parent, name=name, tid=threading.get_ident(),
                       start=start, end=end, cpu=cpu)
            with self._lock:
                self.spans.append(rec)

    def wrap(self, name, fn, measure=None):
        """``fn`` recording one span per call; ``measure(result)`` returns
        extra attributes for the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if measure is not None:
                    rec.update(measure(result))
                return result

        return wrapper

    def wrap_pool(self, fn):
        """Wrap the trial loop ``fn(trial_fn, trials, threads)``: one span for
        the loop and one per trial, whose parent is the loop's span even
        when the trial runs on a worker thread."""

        @functools.wraps(fn)
        def wrapper(trial_fn, *args, **kwargs):
            threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
            with self.span("estimate.pool", threads=threads):
                caller = self.current()

                def traced_trial(*a, **kw):
                    with self.span("estimate.trial", parent=caller):
                        return trial_fn(*a, **kw)

                return fn(traced_trial, *args, **kwargs)

        return wrapper


def _resolve(binding):
    """(owner, attribute, value) for "module:a.b", or None if absent."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    # look through the class dict so a method is patched where it is defined
    value = owner.__dict__.get(attr, getattr(owner, attr))
    return owner, attr, value


def _loaded_modules(package="latflow"):
    """Every module of ``package``, imported if it was not yet."""
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def _edge_count(result):
    try:
        return {"edges": len(result)}
    except TypeError:
        return {}


def install(tracer, layers=LAYERS):
    """Patch each layer's defining name and every module attribute that is
    the same object.  Returns the span names whose defining name is absent
    and the (owner, attribute, original) triples that undo the patches."""
    measures = {"capacities.sample_capacities": _edge_count}
    modules = _loaded_modules()
    absent, undo = [], []
    for name, binding in tuple(layers) + (POOL,):
        resolved = _resolve(binding)
        if resolved is None:
            absent.append(name)
            continue
        owner, attr, original = resolved
        if (name, binding) == POOL:
            wrapper = tracer.wrap_pool(original)
        else:
            wrapper = tracer.wrap(name, original, measures.get(name))
        targets = [(owner, attr)] + [(m, a) for m in modules for a, v in vars(m).items()
                                     if v is original and (m, a) != (owner, attr)]
        for target, a in targets:
            undo.append((target, a, original))
            setattr(target, a, wrapper)
    return absent, undo


def run(out_path, argv):
    import latflow.cli

    tracer = Tracer()
    absent, _ = install(tracer)
    with tracer.span("cli.main"):
        rc = latflow.cli.main(argv)
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "absent": absent, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: spans.py OUT.json -- <latflow arguments>")
    sys.exit(run(sys.argv[1], sys.argv[3:]))
