"""The sparse element classes share one operator protocol, ring.Sparse.

Each class defines +, unary -, *, truthiness, _coerce and _key; is_zero,
reflected +, -, ** and == come from Sparse alone.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloc.laurent import LaurentClass
from resloc.qseries import QSeries
from resloc.ring import CohClass, Ring
from resloc.sympoly import SymPoly, monomial_symmetric

SRC = Path(__file__).resolve().parent.parent / "src" / "resloc"
DERIVED = {"is_zero", "__radd__", "__sub__", "__rsub__", "__pow__", "__eq__",
           "_check_ring"}

R = Ring(("x", "y"), (3, 2))
SCALARS = st.one_of(st.integers(-4, 4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=3))
NONZERO = SCALARS.filter(bool)

coh = st.dictionaries(st.sampled_from(R.monomials()), NONZERO,
                      max_size=3).map(lambda c: CohClass(R, c))
laurent = st.dictionaries(st.integers(-1, 1), coh.filter(bool),
                          max_size=2).map(lambda t: LaurentClass(R, t))
qseries = st.dictionaries(st.sampled_from([(0,), (1,), (2,)]),
                          laurent.filter(bool),
                          max_size=2).map(lambda t: QSeries(R, 1, 2, t))
# sums of monomial symmetric orbits in two variables are symmetric
sympoly = st.dictionaries(
    st.sampled_from([(0,), (1,), (2,), (1, 1), (2, 1)]), NONZERO,
    max_size=3).map(lambda d: SymPoly(2, {
        e: c for lam, c in d.items() for e in monomial_symmetric(2, lam)}))
PAIRS = st.sampled_from([coh, laurent, qseries, sympoly]).flatmap(
    lambda kind: st.tuples(kind, kind))


@settings(max_examples=80, deadline=None)
@given(PAIRS, SCALARS)
def test_derived_operators_follow_from_add_neg_mul(pair, c):
    x, y = pair
    assert x - y == x + (-y)
    assert c - x == -(x - c)
    assert c + x == x + c
    assert x ** 0 == 1
    assert x ** 3 == x * x * x
    assert x.is_zero() is (not x)
    assert (x == "a") is False
    with pytest.raises(TypeError):
        x - "a"
    with pytest.raises(TypeError):
        "a" - x


def sparse_subclasses(tree):
    """{class name: ClassDef} of every class below Sparse, by base name."""
    classes = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    below = {"Sparse"}
    grew = True
    while grew:
        grew = False
        for name, node in classes.items():
            bases = {getattr(b, "id", getattr(b, "attr", None))
                     for b in node.bases}
            if name not in below and bases & below:
                below.add(name)
                grew = True
    return {name: classes[name] for name in below - {"Sparse"}}


def defined_names(node):
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif isinstance(item, ast.Assign):
            yield from (t.id for t in item.targets if isinstance(t, ast.Name))


def test_no_subclass_redefines_a_derived_operator():
    module = ast.Module(body=[], type_ignores=[])
    for path in sorted(SRC.glob("*.py")):
        module.body += ast.parse(path.read_text(), str(path)).body
    subclasses = sparse_subclasses(module)
    assert {"CohClass", "LaurentClass", "QSeries", "JFunction",
            "SymPoly"} <= set(subclasses)
    redefined = sorted("%s.%s" % (name, attr)
                       for name, node in subclasses.items()
                       for attr in defined_names(node) if attr in DERIVED)
    assert redefined == []
