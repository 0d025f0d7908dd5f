"""Every public name of the package is reached by the package or the benchmark.

A public module-level function, class or method of src/resloc (any name
without a leading underscore) must be referenced by some module of
src/resloc other than __init__.py, or by bench/*.py, or stand in ALLOWED
with the test that pins it.  A reference is a Name, an Attribute, an
imported alias, or a part of a dotted string constant: bench/spans.py names
the functions it wraps as strings.  Names are matched without their class,
so a method shadowed by a name used elsewhere slips through.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "resloc"
TESTS = ROOT / "tests"
ENTRY_POINTS = {"__init__.py", "__main__.py"}

# name: (the test file that calls it, what that call pins)
ALLOWED = {
    "RingSpec.chern_degree": ("test_acceptance.py", "criterion 8"),
    "JFunction.check_shape": ("test_acceptance.py", "criterion 8"),
    "TwoPointTable.k_support": ("test_acceptance.py", "criterion 8"),
    "TwoPointTable.residual": ("test_acceptance.py", "criterion 8"),
    "TwoPointTable.invariant": ("test_acceptance.py", "criteria 6 and 8"),
    "CohClass.homogeneous_degree": ("test_acceptance.py", "criterion 8"),
    "schubert.closed_form_m2": ("test_acceptance.py", "criterion 3"),
    "QSeries.truncate": ("test_acceptance.py", "criterion 9"),
    "geometry.integrate": ("test_reconstruct.py",
                           "the reference for invariant_row in "
                           "test_invariant_reads_top_coefficient"),
}


def public_definitions(path):
    """module.function, module.Class and Class.method for each public name."""
    module = path.stem
    for node in ast.parse(path.read_text(), str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield "%s.%s" % (module, node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield "%s.%s" % (node.name, item.name)


def references(path):
    """Every name that one file refers to."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                found.update(parts)
    return found


def unreached():
    modules = [p for p in sorted(SRC.glob("*.py"))
               if p.name not in ENTRY_POINTS]
    used = set().union(*map(references, modules + [SRC / "__main__.py"]),
                       *map(references, sorted((ROOT / "bench").glob("*.py"))))
    return {name for path in modules for name in public_definitions(path)
            if name.rpartition(".")[2] not in used}


def test_every_public_name_is_reached_or_pinned():
    assert unreached() == set(ALLOWED)


def test_each_allowed_name_is_still_called_by_its_test():
    for name, (test_file, _) in ALLOWED.items():
        assert name.rpartition(".")[2] in references(TESTS / test_file), name


def test_the_walk_sees_definitions_and_string_targets():
    defined = set(public_definitions(SRC / "laurent.py"))
    assert {"laurent.laurent_invert", "LaurentClass.shift"} <= defined
    # bench/spans.py reaches SymPoly.evaluate only through a string
    assert "evaluate" in references(ROOT / "bench" / "spans.py")
