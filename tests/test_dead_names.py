"""No code in the package that nothing in the package or its scripts calls.

The scan is by name: every function, class and method defined in
src/qtschur (dunders aside) must be loaded somewhere in src/qtschur or
scripts/, as a name, an attribute or an imported name.  Tests do not
count as callers; references the tests check the package against live
in tests/oracles.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# reached only from tests or tools, and kept on purpose
ALLOWED = {
    # perfbench traces the report serialization through it, and the
    # digest tests hash the report text it returns
    "to_json",
    # the zero-mode dictionary's relation table and battery, which
    # acceptance criterion 4 evaluates; no suite runs them
    "dictionary_instances",
    "dictionary_battery",
    # one-letter checks over hecke.apply_word: perfbench/tracing.py wraps
    # right_mul_X and right_mul_Y (its tests need both to resolve), and
    # the Hecke tests multiply by single Q, X and Y letters through them
    "right_mul_Q",
    "right_mul_X",
    "right_mul_Y",
}


def _scan():
    """({defined name: "file:line"} in src/qtschur, set of names loaded in src and scripts)."""
    package = sorted((ROOT / "src" / "qtschur").glob("*.py"))
    defined, loaded = {}, set()
    for path in package + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name.rsplit(".", 1)[-1])
            elif path in package and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, f"{path.name}:{node.lineno}")
    return defined, loaded


def test_every_definition_has_a_caller():
    defined, loaded = _scan()
    dead = sorted(
        f"{where} {name}"
        for name, where in defined.items()
        if name not in loaded and name not in ALLOWED
    )
    assert not dead, dead


def test_allow_list_is_current():
    # each exempt name still exists and still has no caller in the package
    defined, loaded = _scan()
    assert ALLOWED <= set(defined)
    assert not ALLOWED & loaded
