"""Every top-level definition of the library is reached by a run, a claim
or the benchmark, or is listed as pending with the ROADMAP direction that
will wire it.

A top-level function or class in src/kpztails/*.py counts as reached when
its name is referenced (as a name, an attribute or a string constant) in
another source module, in its own module outside its own body and
__all__, in perfbench/*.py, or in tests/test_acceptance.py.  Imports and
re-exports are not references.  Code that only its own unit tests call is
therefore unreached: it either gets wired into a check that can fail, or
it is deleted together with its tests.
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


def _definitions(tree: ast.Module) -> dict:
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def unreached() -> set:
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = [_parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    outside.append(_parse(ROOT / "tests" / "test_acceptance.py"))
    external = _references(outside)
    refs = {path: _references([tree]) for path, tree in modules.items()}
    missing = set()
    for path, tree in modules.items():
        others = set().union(*(r for p, r in refs.items() if p != path))
        for name, node in _definitions(tree).items():
            own = _references(n for n in tree.body
                              if n is not node and not _is_all(n))
            if name not in others | own | external:
                missing.add(name)
    return missing


def test_library_definitions_are_reached_or_pending():
    found = unreached()
    assert not found - set(PENDING), (
        f"reached by nothing but unit tests: {sorted(found - set(PENDING))}; "
        "wire each into a check that can fail, or delete it with its tests")
    assert not set(PENDING) - found, (
        f"pending but now reached (or gone): {sorted(set(PENDING) - found)}; "
        "take them off PENDING")
