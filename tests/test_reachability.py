"""Every top-level definition of the library is reached by a run, a claim
or the benchmark, or is pending with the ROADMAP direction that will wire
it.

Reachability is a closure over names.  The roots are every file in
perfbench/, tests/test_acceptance.py, the module-level code of each source
module (outside its definitions and __all__) and cli.main, the kpz-tails
entry point.  A top-level function or class in src/kpztails/*.py is
reached when its name is referenced (as a name, an attribute or a string
constant) by a root or by a reached definition.  Imports and re-exports
are not references.  Code that only its own unit tests call, or that only
other unreached code calls, is therefore unreached: it either gets wired
into a check that can fail, or it is deleted together with its tests.  A
definition that only PENDING items reach is pending with them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kpztails"

# unreached definitions and the ROADMAP direction that wires each of them
PENDING = {
    "convolve_upsilon_with_f": "direction 4",
    "validate_hyp": "direction 4",
    "load_profile_csv": "direction 4",
    "markov_upper_tail": "direction 5",
    "paley_zygmund_lower": "direction 5",
    "boundary_bias_bound": "direction 2",
}

# cli.main, the kpz-tails entry point in pyproject.toml
ENTRY = "main"

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _references(nodes) -> set:
    """Names, attribute names and identifier-like string constants under nodes."""
    refs = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                refs.add(node.value)
    return refs


def _closure(names, definitions: dict) -> set:
    """The definitions that `names` reach, directly or through the bodies
    of definitions they reach."""
    reached = set()
    todo = set(names) & definitions.keys()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (_references([definitions[name]]) & definitions.keys()) - reached
    return reached


def reachability() -> tuple:
    """(unreached definitions, definitions that PENDING items reach)."""
    definitions, roots = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, _DEFINITION):
                definitions[node.name] = node
            elif not _is_all(node):
                roots.append(node)
    roots += [_parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    roots.append(_parse(ROOT / "tests" / "test_acceptance.py"))
    reached = _closure(_references(roots) | {ENTRY}, definitions)
    return set(definitions) - reached, _closure(PENDING, definitions)


def test_library_definitions_are_reached_or_pending():
    unreached, pending = reachability()
    assert not unreached - pending, (
        f"reached by nothing but unit tests: {sorted(unreached - pending)}; "
        "wire each into a check that can fail, or delete it with its tests")
    assert not set(PENDING) - unreached, (
        f"pending but now reached (or gone): {sorted(set(PENDING) - unreached)}; "
        "take them off PENDING")
