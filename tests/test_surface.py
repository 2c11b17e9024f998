"""The library holds only what the pipeline, the CLI and the benchmark run.

Reference oracles that only tests call live in tests/oracles.py; these
tests keep them, and options, fields and constants that only tests use,
from drifting back into src/dynmask.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "dynmask").glob("[!_]*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# purify's radius stays a test handle on an exact radius (a pair's
# distance or np.nextafter of it), which r_factor times the scene
# diagonal cannot express exactly
EXEMPT_PARAMETERS = {"purify(radius)"}


def _parse(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _uses(node):
    """Every name, attribute and string constant inside `node`.

    Strings count because the benchmark wraps functions by attribute name.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _bound_names(node):
    """The names a module-level assignment binds (none for other nodes)."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _public_functions(tree):
    """(def, bound) of each public function and public method of a public
    class; `bound` is 1 where a call through an instance supplies self."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    yield item, 0 if static else 1


def _defaulted(func, bound):
    """(name, index among a call's positional arguments or None) of each
    parameter with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, index):
    """Whether `call` passes the parameter: by keyword, by a positional
    argument that reaches it, or by a * or ** splat."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(a, ast.Starred) for a in call.args))


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _serialises_whole(node):
    """Whether the class passes itself to asdict or fields, which reads
    every field."""
    return any(isinstance(sub, ast.Call) and _callee(sub) in ("asdict", "fields")
               and sub.args and getattr(sub.args[0], "id", None) in ("self", "cls")
               for sub in ast.walk(node))


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, used = {}, set()
    # a re-export in __init__ is not a use
    for path, tree in zip(LIBRARY, _parse(LIBRARY)):
        for node in tree.body:
            name = getattr(node, "name", "_")
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not name.startswith("_")):
                defined[name] = path.name
            # a definition's own body does not count as its use
            used.update(u for u in _uses(node) if u != name)
    for tree in _parse(BENCHMARK):
        used.update(_uses(tree))
    test_only = sorted(f"{module}:{name}" for name, module in defined.items()
                       if name not in used)
    assert not test_only, ("called only by tests (move to tests/oracles.py): "
                           + ", ".join(test_only))


def test_every_module_constant_is_read_outside_the_tests():
    defined, used = [], set()
    for path, tree in zip(LIBRARY, _parse(LIBRARY)):
        for node in tree.body:
            own = _bound_names(node)
            defined += [f"{path.stem}.{name}" for name in sorted(own)]
            # the constant's own assignment does not count as its use
            used.update(u for u in _uses(node) if u not in own)
    for tree in _parse(BENCHMARK):
        used.update(_uses(tree))
    unread = [name for name in defined if name.split(".")[1] not in used]
    assert not unread, "read by no code (drop it): " + ", ".join(unread)


def test_every_parameter_with_a_default_is_passed_outside_the_tests():
    library = _parse(LIBRARY)
    calls = [node for tree in library + _parse(BENCHMARK)
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unpassed = []
    for tree in library:
        for func, bound in _public_functions(tree):
            # a call in the function's own body does not count
            inside = {id(node) for node in ast.walk(func)}
            callers = [c for c in calls
                       if _callee(c) == func.name and id(c) not in inside]
            unpassed += [f"{func.name}({name})"
                         for name, index in _defaulted(func, bound)
                         if not any(_passes(c, name, index) for c in callers)]
    assert EXEMPT_PARAMETERS <= set(unpassed), "stale exemption"
    unpassed = sorted(set(unpassed) - EXEMPT_PARAMETERS)
    assert not unpassed, ("passed only by tests (make it the behaviour): "
                          + ", ".join(unpassed))


def test_every_dataclass_field_is_read_outside_the_tests():
    library = _parse(LIBRARY)
    read = {node.attr for tree in library + _parse(BENCHMARK)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{node.name}.{stmt.target.id}"
              for tree in library for node in tree.body
              if isinstance(node, ast.ClassDef) and _is_dataclass(node)
              and not _serialises_whole(node)
              for stmt in node.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert not unread, "read only by tests (drop it): " + ", ".join(unread)
