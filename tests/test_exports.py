"""Every public name has a caller outside its own tests."""

import ast
from pathlib import Path

import secquant

ROOT = Path(__file__).resolve().parents[1]

#: Exports that only tests reach, kept on purpose: the reference ranking
#: criterion 9 compares against.  This set only ever shrinks.
KEPT = {"quality_ratio"}


def referenced_names():
    """Every name the library (but its export list), the demos and the
    benchmark read, call or import; strings and docstrings do not count."""
    files = [
        *(p for p in (ROOT / "src" / "secquant").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
    ]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(filter(None, (node.name, node.asname)))
    return names


def test_every_export_has_a_caller_outside_the_tests():
    exported = set(secquant.__all__)
    assert KEPT <= exported
    unreached = exported - KEPT - referenced_names()
    assert not unreached, f"exported but never used outside tests: {sorted(unreached)}"


def test_every_kept_export_is_still_reached_only_by_the_tests():
    # a name that gains a caller outside the tests leaves KEPT
    stale = KEPT & referenced_names()
    assert not stale, f"kept as tests-only but used outside tests: {sorted(stale)}"
