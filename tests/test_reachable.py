"""Every definition in ``src/latflow/`` must be reached from what runs: the
CLI subcommands (``cmd_*`` and the module-level code of each module), the
acceptance criteria and the benchmark, whose span table binds functions by
name strings.  Reachability is a name-based fixpoint: a reached name makes
every name used in its definition reached.  A top-level definition, or a
method, that only its own unit tests call fails here; so does a parameter
with a default, or a keyword-only one, that no call in reached code passes."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALLOWED = {
    # companion bound of test_estimate_rate_respects_analytic_bound: a rate
    # estimate above it refutes the estimator
    "rate_upper_bound",
    # writes the `distance` input format that from_json reads; the format
    # lives in one module
    "to_json",
}

# (function or Class.method, parameter) kept although no reached call passes it
ALLOWED_PARAMETERS = {
    # ROADMAP item 1 pins test_min_distance_reports_the_evaluations_it_made
    # at iters=25
    ("min_distance", "iters"),
}


def _used(*nodes):
    """Names read in the nodes: identifiers and attribute names."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _span_names(tree):
    """Attribute names in the ``"module:attr.attr"`` strings of a module."""
    return {part for sub in ast.walk(tree)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and ":" in sub.value
            for part in sub.value.partition(":")[2].split(".")}


def _reach(root):
    """(defs, reached, code).  ``defs`` holds (module, owner, names, nodes)
    for each top-level def, class or assignment and each method, ``owner``
    being a method's class (else None) and ``nodes`` what its definition
    reads: a class without its methods, which are entries of their own.
    ``reached`` is the fixpoint's set of names, and ``code`` the nodes that
    run: the roots and every reached definition."""
    defs, reached, code = [], set(ALLOWED), []
    for path in sorted((root / "src" / "latflow").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef):
                defs.append((path.stem, None, {stmt.name}, [stmt]))
                if stmt.name.startswith("cmd_"):
                    reached.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, ast.FunctionDef)]
                rest = [s for s in stmt.body if s not in methods]
                defs.append((path.stem, None, {stmt.name}, [*stmt.bases, *stmt.decorator_list, *rest]))
                defs += [(path.stem, stmt.name, {m.name}, [m]) for m in methods]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defs.append((path.stem, None, _used(*targets), [stmt]))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                code.append(stmt)  # runs on import
    for path in [root / "tests" / "test_acceptance.py", *sorted((root / "bench").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        code.append(tree)
        reached |= _span_names(tree)
    reached |= _used(*code)
    done = set()
    while True:
        new = [k for k, (_, owner, names, _) in enumerate(defs) if k not in done and (
            names & reached or any(n.startswith("__") and owner in reached | {None} for n in names))]
        if not new:
            return defs, reached, code + [node for k in sorted(done) for node in defs[k][3]]
        for k in new:
            done.add(k)
            reached |= _used(*defs[k][3])


def unreached_definitions(root=ROOT):
    """(module, name) of each top-level def, class or assignment and each
    method (as ``Class.method``) in ``src/latflow/`` that neither a root nor
    an ALLOWED name reaches."""
    defs, reached, _ = _reach(root)
    return sorted((module, f"{owner}.{name}" if owner else name)
                  for module, owner, names, _ in defs for name in names
                  if name not in reached and not name.startswith("__"))


def _passes(call, position, name):
    """Does the call pass the parameter ``name``, which is positional
    argument ``position`` (None: keyword-only)?  A call with ``*args`` or
    ``**kwargs`` passes every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return any(k.arg == name for k in call.keywords) or (
        position is not None and position < len(call.args))


def unpassed_parameters(root=ROOT):
    """(module, function, parameter) of each parameter with a default, and
    each keyword-only parameter, of a def in ``src/latflow/`` (nested ones
    too; a method as ``Class.method``) that no call in reached code passes.
    A call names the function, or for ``__init__`` its class; a method's
    first positional argument follows ``self`` or ``cls``."""
    _, _, code = _reach(root)
    calls = {}
    for node in code:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                calls.setdefault(name, []).append(call)
    out = []
    for path in sorted((root / "src" / "latflow").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(m): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for m in cls.body if isinstance(m, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            static = any(getattr(dec, "id", None) == "staticmethod" for dec in fn.decorator_list)
            skip = 1 if cls and not static else 0
            called = cls if fn.name == "__init__" else fn.name
            args = fn.args.posonlyargs + fn.args.args
            optional = [(k - skip, a.arg) for k, a in enumerate(args)
                        if k >= len(args) - len(fn.args.defaults)]
            optional += [(None, a.arg) for a in fn.args.kwonlyargs]
            label = f"{cls}.{fn.name}" if cls else fn.name
            for position, name in optional:
                if (label, name) not in ALLOWED_PARAMETERS and not any(
                        _passes(call, position, name) for call in calls.get(called, [])):
                    out.append((path.stem, label, name))
    return sorted(out)


def test_every_library_definition_is_reached():
    assert unreached_definitions() == []


def test_every_optional_parameter_is_passed():
    assert unpassed_parameters() == []
