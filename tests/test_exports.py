"""Every public name, and every public method and property of an exported
class, has a caller outside its own tests."""

import ast
import inspect
from pathlib import Path

import secquant

ROOT = Path(__file__).resolve().parents[1]

#: Exports that only tests reach, kept on purpose: the reference ranking
#: criterion 9 compares against.  This set only ever shrinks.
KEPT = {"quality_ratio"}

#: Methods and properties of exported classes that only tests reach, kept
#: on purpose: one model's operating point, which the README's library tour
#: names, and its LRT curve, which the planned interval designs cut Eve's
#: boundary to (ROADMAP item 14).  This set only ever shrinks.
KEPT_METHODS = {"GaussianSensorModel.operating_point", "GaussianSensorModel.lrt_curve"}


def parsed_nodes():
    """Every node of the library (but its export list), the demos and the
    benchmark."""
    files = [
        *(p for p in (ROOT / "src" / "secquant").glob("*.py") if p.name != "__init__.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
    ]
    for path in files:
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def referenced_names():
    """Every name those files read, call or import; strings and docstrings
    do not count."""
    names = set()
    for node in parsed_nodes():
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def referenced_attributes():
    """Every attribute those files read or call, as ``obj.name``."""
    return {node.attr for node in parsed_nodes() if isinstance(node, ast.Attribute)}


def exported_methods():
    """``Class.name`` of each public method and property of an exported class."""
    classes = [(name, getattr(secquant, name)) for name in secquant.__all__]
    return {
        f"{name}.{attr}"
        for name, cls in classes if inspect.isclass(cls)
        for attr, member in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(member)
             or isinstance(member, (property, staticmethod, classmethod)))
    }


def unreached_methods(methods):
    attributes = referenced_attributes()
    return sorted(m for m in methods if m.split(".")[1] not in attributes)


def test_every_export_has_a_caller_outside_the_tests():
    exported = set(secquant.__all__)
    assert KEPT <= exported
    unreached = exported - KEPT - referenced_names()
    assert not unreached, f"exported but never used outside tests: {sorted(unreached)}"


def test_every_kept_export_is_still_reached_only_by_the_tests():
    # a name that gains a caller outside the tests leaves KEPT
    stale = KEPT & referenced_names()
    assert not stale, f"kept as tests-only but used outside tests: {sorted(stale)}"


def test_every_exported_method_has_a_caller_outside_the_tests():
    methods = exported_methods()
    assert KEPT_METHODS <= methods
    unreached = unreached_methods(methods - KEPT_METHODS)
    assert not unreached, f"public but never used outside tests: {unreached}"


def test_every_kept_method_is_still_reached_only_by_the_tests():
    # a method that gains a caller outside the tests leaves KEPT_METHODS
    stale = sorted(KEPT_METHODS - set(unreached_methods(KEPT_METHODS)))
    assert not stale, f"kept as tests-only but used outside tests: {stale}"
