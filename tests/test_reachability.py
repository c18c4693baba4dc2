"""Every top-level definition of the library, every method, property and
field of its classes, and every parameter with a default of its functions
is reached by a run, a claim or the benchmark.  A new definition lands
together with the code that reaches it.

Reachability is a closure over names.  The roots are every file in
perfbench/, tests/test_acceptance.py, the module-level code of each source
module (outside its definitions and __all__) and cli.main, the kpz-tails
entry point.  A top-level function or class in src/kpztails/*.py is
reached when its name is referenced (as a name, an attribute or a string
constant) by a root or by a reached definition.  Imports and re-exports
are not references.  Code that only its own unit tests call, or that only
other unreached code calls, is therefore unreached: it either gets wired
into a check that can fail, or it is deleted together with its tests.

A method or property (any function in a class body other than a dunder)
or a field (an annotated name in a class body) of a reached class is
reached when its own name is referenced as an attribute or a string
constant by a root or by a reached definition, member or field; a bare
name, such as a local variable, does not reach a member or a field, and
neither does a keyword that sets a field when the class is built.  A
field's annotation and default count with the field.  The rest of a class
body counts with the class, and a class that is not reached takes its
members and fields with it.

A parameter with a default, of a reached function, method or property, is
reached when a call in a root or in reached code passes it: by keyword, by
position, or through *args or **kwargs.  A call is matched to a function
by the name it calls, as a name or an attribute; a method's positions
start after self.  One parameter is exempt: main's argv, the entry
point's test seam, which the kpz-tails script leaves at None.  The fields
of ExperimentConfig are the JSON surface of a run and are fields, not
parameters: they are reached by being read.

Blind spot: attributes are matched whatever object they are read from, so
a member or a field passes as soon as reached code reads any attribute of
the same name.  Two members that only unit tests used stood for that
reason until they were deleted: ExperimentConfig.to_json (perfbench calls
its Tracer's to_json) and CellVerdict.passed (claims c09 and c12 read the
passed of a DominanceReport and an FKGReport).  So did four fields that
nothing read, until they were deleted: the n of the Laplace estimate and
the grid and n of the dominance report (a verdict cell's n and a bridge
spec's grid are read), and the side of the association report (a query's
side is read).  Calls are matched the same way, so a parameter passes as
soon as any call of the same name passes its position or keyword.

Blind spot: a name counts as a reference wherever it stands, so a class
named only in an isinstance branch or in a field annotation of a reached
field is reached although nothing builds it.  A piecewise-linear profile
type, its admissibility parameters and the general initial data holding
both stood for that reason until they were deleted: make_unscaled_initial
tested for the general type, whose fields named the other two, yet only a
line trace of the runs showed that none of them was ever built.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kpztails"

# cli.main, the kpz-tails entry point in pyproject.toml
ENTRY = "main"
# parameters that stay although no run passes them
EXEMPT = {"main(argv)"}

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITION = _FUNCTION + (ast.ClassDef,)
_KINDS = ("definition", "member", "field", "parameter")


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


def _fields(node) -> dict:
    """A class's annotated names by name."""
    if not isinstance(node, ast.ClassDef):
        return {}
    return {f.target.id: f for f in node.body
            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}


def _shell(node) -> list:
    """The parts of a definition that count with it: all of a function,
    and a class without its methods, properties and fields."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    own = list(_members(node).values()) + list(_fields(node).values())
    return node.bases + node.decorator_list + [
        n for n in node.body if n not in own]


def _closure(names, attrs, definitions: dict) -> dict:
    """The definitions, and the "Class.name" keys of their methods,
    properties and fields, that `names` reach, directly or through the
    code of what they reach; a member or field only through `attrs`, the
    attribute names and string constants among them.  Maps each key to
    its code."""
    names, attrs, reached = set(names), set(attrs), {}
    grown = True
    while grown:
        grown = False
        for name in names & definitions.keys():
            node = definitions[name]
            own = {**_members(node), **_fields(node)}
            units = [(name, _shell(node))] + [
                (f"{name}.{m}", [part]) for m, part in own.items()
                if m in attrs]
            for key, unit in units:
                if key not in reached:
                    reached[key] = unit
                    more_names, more_attrs = _references(unit)
                    names |= more_names
                    attrs |= more_attrs
                    grown = True
    return reached


def _defaulted(fn) -> list:
    """(argument node, position) of each parameter of fn that has a
    default; the position is None for a keyword-only one."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(a, i) for i, a in enumerate(positional) if i >= first]
            + [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _passes(call: ast.Call, name: str, position, skip: int) -> bool:
    """Whether call passes the parameter `name` at `position` of a function
    whose first `skip` positions the call does not fill."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position - skip


def _calls(code) -> dict:
    """The calls under code by the name they call, as a name or an
    attribute."""
    calls = {}
    for top in code:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                called = (f.id if isinstance(f, ast.Name)
                          else f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(called, []).append(node)
    return calls


def reachability() -> dict:
    """What nothing reaches: key -> (kind, file, line).  A member's or
    field's key is "Class.name", a parameter's "function(parameter)"."""
    definitions, functions, roots = {}, {}, []
    # key -> (kind, file, line, the key whose reach it needs first)
    where = {}
    for path in sorted(SRC.glob("*.py")):
        rel = str(path.relative_to(ROOT))
        for node in _parse(path).body:
            if not isinstance(node, _DEFINITION):
                if not _is_all(node):
                    roots.append(node)
                continue
            name = node.name
            definitions[name] = node
            where[name] = ("definition", rel, node.lineno, None)
            for kind, parts in (("member", _members(node)),
                                ("field", _fields(node))):
                for m, part in parts.items():
                    where[f"{name}.{m}"] = (kind, rel, part.lineno, name)
            own = ({f"{name}.{m}": part for m, part in _members(node).items()}
                   if isinstance(node, ast.ClassDef) else {name: node})
            for key, fn in own.items():
                functions[key] = fn
                for a, _ in _defaulted(fn):
                    where[f"{key}({a.arg})"] = ("parameter", rel, a.lineno, key)
    roots += [_parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    roots.append(_parse(ROOT / "tests" / "test_acceptance.py"))
    names, attrs = _references(roots)
    reached = _closure(names | {ENTRY}, attrs, definitions)
    calls = _calls(roots + [n for unit in reached.values() for n in unit])
    for key, fn in functions.items():
        if key in reached:
            # a call of a method or property fills self from its object
            skip = 1 if "." in key else 0
            for a, position in _defaulted(fn):
                if any(_passes(c, a.arg, position, skip)
                       for c in calls.get(fn.name, ())):
                    reached[f"{key}({a.arg})"] = []
    # a class or function that is not reached is unreached as a whole
    return {key: (kind, rel, line)
            for key, (kind, rel, line, needs) in where.items()
            if key not in reached and key not in EXEMPT
            and (needs is None or needs in reached)}


def test_library_definitions_are_reached():
    unreached = reachability()
    if unreached:
        rows = sorted((_KINDS.index(kind), rel, line, key)
                      for key, (kind, rel, line) in unreached.items())
        pytest.fail(
            "reached by nothing but unit tests, by kind:\n"
            + "".join(f"  {_KINDS[k]}: {rel}:{line} {key}\n"
                      for k, rel, line, key in rows)
            + "wire each into a check that can fail, or delete it with its "
            "tests", pytrace=False)
