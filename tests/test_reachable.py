"""Every top-level definition in ``src/latflow/`` must be reached from what
runs: the CLI subcommands (``cmd_*`` and the module-level code of each
module), the acceptance criteria and the benchmark, whose span table binds
functions by name strings.  Reachability is a name-based fixpoint: a reached
name makes every name used in its definition reached.  A definition that only
its own unit tests call fails here."""

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


def _used(node):
    """Names read in ``node``: identifiers and attribute names."""
    names = set()
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


def unreached_definitions(root=ROOT):
    """(module, name) of each top-level def, class or assignment in
    ``src/latflow/`` that neither a root nor an ALLOWED name reaches."""
    defs, reached = [], set(ALLOWED)
    for path in sorted((root / "src" / "latflow").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.stem, {stmt.name}, stmt))
                if stmt.name.startswith("cmd_"):
                    reached |= _used(stmt) | {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defs.append((path.stem, set().union(*map(_used, targets)), stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                reached |= _used(stmt)  # runs on import
    for path in [root / "tests" / "test_acceptance.py", *sorted((root / "bench").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        reached |= _used(tree) | _span_names(tree)
    grown = True
    while grown:
        grown = False
        for _, names, stmt in defs:
            if names & reached or any(n.startswith("__") for n in names):
                new = _used(stmt) - reached
                reached |= new
                grown = grown or bool(new)
    return sorted((module, name) for module, names, _ in defs for name in names
                  if name not in reached and not name.startswith("__"))


def test_every_library_definition_is_reached():
    assert unreached_definitions() == []
