"""Every top-level definition of the library, and every method and
property of its classes, is reached by a run, a claim or the benchmark, or
is pending with the ROADMAP direction that will wire it.

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

A method or property (any function in a class body other than a dunder)
of a reached class is reached when its own name is referenced as an
attribute or a string constant by a root or by a reached definition or
member; a bare name, such as a local variable, does not reach a member.
The rest of a class body counts with the class, and a class that is not
reached takes its members with it.

Blind spot: attributes are matched whatever object they are read from, so
a member passes as soon as reached code reads any attribute of the same
name.  Two members that only unit tests used stood for that reason until
they were deleted: ExperimentConfig.to_json (perfbench calls its Tracer's
to_json) and CellVerdict.passed (claims c09 and c12 read the passed of a
DominanceReport and an FKGReport).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kpztails"

# unreached definitions and the ROADMAP directions that wire each of them
PENDING = {
    "boundary_bias_bound": "directions 15 and 2",
}

# cli.main, the kpz-tails entry point in pyproject.toml
ENTRY = "main"

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITION = _FUNCTION + (ast.ClassDef,)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _references(nodes) -> tuple:
    """(names, attribute names and identifier-like string constants under
    nodes; the attribute names and string constants alone)."""
    names, attrs = set(), set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                attrs.add(node.value)
    return names | attrs, attrs


def _members(node) -> dict:
    """A class's methods and properties by name, dunders excluded."""
    if not isinstance(node, ast.ClassDef):
        return {}
    return {m.name: m for m in node.body
            if isinstance(m, _FUNCTION)
            and not (m.name.startswith("__") and m.name.endswith("__"))}


def _shell(node) -> list:
    """The parts of a definition that count with it: all of a function,
    and a class without its methods and properties."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    members = list(_members(node).values())
    return node.bases + node.decorator_list + [
        n for n in node.body if n not in members]


def _closure(names, attrs, definitions: dict) -> set:
    """The definitions, and the "Class.member" keys of their methods and
    properties, that `names` reach, directly or through the bodies of what
    they reach; a member only through `attrs`, the attribute names and
    string constants among them."""
    names, attrs, reached = set(names), set(attrs), set()
    grown = True
    while grown:
        grown = False
        for name in names & definitions.keys():
            node = definitions[name]
            units = [(name, _shell(node))] + [
                (f"{name}.{m}", [member])
                for m, member in _members(node).items() if m in attrs]
            for key, unit in units:
                if key not in reached:
                    reached.add(key)
                    more_names, more_attrs = _references(unit)
                    names |= more_names
                    attrs |= more_attrs
                    grown = True
    return reached


def reachability() -> tuple:
    """(unreached definitions and members, those that PENDING items reach)."""
    definitions, roots = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, _DEFINITION):
                definitions[node.name] = node
            elif not _is_all(node):
                roots.append(node)
    roots += [_parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    roots.append(_parse(ROOT / "tests" / "test_acceptance.py"))
    names, attrs = _references(roots)
    reached = _closure(names | {ENTRY}, attrs, definitions)
    # a class that is not reached is unreached or pending as a whole
    members = {f"{name}.{m}" for name in reached & definitions.keys()
               for m in _members(definitions[name])}
    return ((set(definitions) | members) - reached,
            _closure(PENDING, (), definitions))


def test_library_definitions_are_reached_or_pending():
    unreached, pending = reachability()
    assert not unreached - pending, (
        f"reached by nothing but unit tests: {sorted(unreached - pending)}; "
        "wire each into a check that can fail, or delete it with its tests")
    assert not set(PENDING) - unreached, (
        f"pending but now reached (or gone): {sorted(set(PENDING) - unreached)}; "
        "take them off PENDING")
