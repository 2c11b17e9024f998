"""The library holds only what the pipeline, the CLI and the benchmark run.

Reference oracles that only tests call live in tests/oracles.py; this test
keeps them from drifting back into src/dynmask.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, used = {}, set()
    # a re-export in __init__ is not a use
    for path in sorted((ROOT / "src" / "dynmask").glob("[!_]*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(node, "name", "_")
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not name.startswith("_")):
                defined[name] = path.name
            # a definition's own body does not count as its use
            used.update(u for u in _uses(node) if u != name)
    for path in (ROOT / "perfbench").glob("*.py"):
        used.update(_uses(ast.parse(path.read_text(encoding="utf-8"))))
    test_only = sorted(f"{module}:{name}" for name, module in defined.items()
                       if name not in used)
    assert not test_only, ("called only by tests (move to tests/oracles.py): "
                           + ", ".join(test_only))
