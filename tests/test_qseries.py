from fractions import Fraction
from operator import add, eq, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloc.errors import NotExponentiable, RingMismatch
from resloc.jfun import i_function
from resloc.laurent import LaurentClass
from resloc.qseries import QSeries, degree_vectors, qs_compose, qs_exp
from resloc.ring import CohClass, Ring

R = Ring(("H",), (3,))
R2 = Ring(("x", "y"), (2, 3))


def scalar(ring, d, c, nvars=1, trunc=4):
    if isinstance(d, int):
        d = (d,)
    return QSeries(ring, nvars, trunc, {d: LaurentClass.t_power(ring, 0, c)})


def test_constant_one_zero():
    one = QSeries.one(R, 1, 3)
    zero = QSeries.zero(R, 1, 3)
    assert one.coefficient((0,)) == LaurentClass.one(R)
    assert zero.is_zero()
    assert (one * zero).is_zero()
    assert one + zero == one


def test_arithmetic_and_cutoff():
    q = scalar(R, 1, 1, trunc=3)
    s = QSeries.one(R, 1, 3) + q
    p = s * s
    assert p.coefficient((1,)) == LaurentClass.t_power(R, 0, 2)
    assert p.coefficient((2,)) == LaurentClass.one(R)
    assert p.coefficient((3,)).is_zero()
    cube = s * s * s
    assert cube.coefficient((2,)) == LaurentClass.t_power(R, 0, 3)
    assert cube.coefficient((3,)) == LaurentClass.one(R)
    # total-degree cutoff: q^4 would exceed trunc and is dropped
    assert (q * q * q * q).is_zero()


def test_shape_mismatch():
    a = QSeries.one(R, 1, 3)
    b = QSeries.one(R, 1, 4)
    with pytest.raises(ValueError):
        a + b
    other = Ring(("H",), (2,))
    with pytest.raises(RingMismatch):
        a + QSeries.one(other, 1, 3)


def test_laurent_class_of_another_ring_is_refused():
    q = QSeries(R, 1, 2, {(1,): LaurentClass.one(R)})
    x = LaurentClass.one(Ring(("x",), (2,)))
    for combine in (add, sub, mul, eq):
        for left, right in ((q, x), (x, q)):
            with pytest.raises(RingMismatch):
                combine(left, right)
    assert q + LaurentClass.one(R) == q + 1


def test_q_shift_and_truncate():
    s = QSeries.one(R, 1, 4) + scalar(R, 1, 5)
    shifted = s * scalar(R, 2, 1)
    assert shifted.coefficient((2,)) == LaurentClass.one(R)
    assert shifted.coefficient((3,)) == LaurentClass.t_power(R, 0, 5)
    assert (s * scalar(R, 4, 1)).degrees() == [(4,)]
    cut = s.truncate(0)
    assert cut.trunc == 0 and cut.coefficient((1,)).is_zero()
    with pytest.raises(ValueError):
        s.truncate(9)


def test_scalar_coefficients():
    s = scalar(R, 2, Fraction(7, 3))
    assert s.is_scalar()
    assert s.scalar_coefficients() == {(2,): Fraction(7, 3)}
    h = QSeries(R, 1, 4, {(1,): LaurentClass.from_coh(R.generator("H"))})
    assert not h.is_scalar()


def test_exp_hand_value():
    a = scalar(R, 1, 1, trunc=3)
    e = qs_exp(a)
    assert e.coefficient((0,)) == LaurentClass.one(R)
    assert e.coefficient((1,)) == LaurentClass.t_power(R, 0, 1)
    assert e.coefficient((2,)) == LaurentClass.t_power(R, 0, Fraction(1, 2))
    assert e.coefficient((3,)) == LaurentClass.t_power(R, 0, Fraction(1, 6))


def test_exp_rejects_scalar_constant_term():
    bad = QSeries.one(R, 1, 3) + scalar(R, 1, 1, trunc=3)
    with pytest.raises(NotExponentiable):
        qs_exp(bad)


def test_exp_nilpotent_constant_term_allowed():
    h = QSeries(R, 1, 3, {(0,): LaurentClass.from_coh(R.generator("H"))})
    e = qs_exp(h)
    got = e.coefficient((0,))
    assert got.coeff((0,), 0) == 1
    assert got.coeff((1,), 0) == 1
    assert got.coeff((2,), 0) == Fraction(1, 2)


def test_compose_identity_and_example():
    f = QSeries.one(R, 1, 3) + scalar(R, 1, 4, trunc=3)
    zero_sub = QSeries.zero(R, 1, 3)
    assert qs_compose(f, zero_sub) == f
    # f(q e^s) with f = q: coefficient of q^2 is s_1
    fq = scalar(R, 1, 1, trunc=3)
    s = scalar(R, 1, Fraction(5), trunc=3)
    composed = qs_compose(fq, s)
    assert composed.coefficient((1,)) == LaurentClass.t_power(R, 0, 1)
    assert composed.coefficient((2,)) == LaurentClass.t_power(R, 0, 5)


def test_compose_validates_input():
    f = QSeries.one(R, 1, 3)
    not_scalar = QSeries(R, 1, 3,
                         {(1,): LaurentClass.from_coh(R.generator("H"))})
    with pytest.raises(ValueError):
        qs_compose(f, not_scalar)
    const = QSeries.one(R, 1, 3)
    with pytest.raises(ValueError):
        qs_compose(f, const)


def scalar_series(trunc=3):
    frac = st.fractions(min_value=-12, max_value=12, max_denominator=4)
    return st.lists(frac, min_size=trunc, max_size=trunc).map(
        lambda cs: QSeries(R, 1, trunc,
                           {(d + 1,): LaurentClass.t_power(R, 0, c)
                            for d, c in enumerate(cs) if c}))


@settings(max_examples=40, deadline=None)
@given(scalar_series(), scalar_series())
def test_exp_additivity(a, b):
    assert qs_exp(a + b) == qs_exp(a) * qs_exp(b)


@settings(max_examples=40, deadline=None)
@given(scalar_series())
def test_exp_inverse(a):
    assert qs_exp(a) * qs_exp(QSeries.zero(R, 1, 3) - a) == QSeries.one(R, 1, 3)


@settings(max_examples=40, deadline=None)
@given(scalar_series(), scalar_series(), st.integers(0, 3))
def test_truncation_consistency(a, b, k):
    full = (a * b).truncate(k)
    cut = (a.truncate(k) * b.truncate(k))
    assert full == cut


@settings(max_examples=40, deadline=None)
@given(scalar_series(), scalar_series(), scalar_series())
def test_compose_is_multiplicative(f, g, s):
    one = QSeries.one(R, 1, 3)
    lhs = qs_compose((one + f) * (one + g), s)
    rhs = qs_compose(one + f, s) * qs_compose(one + g, s)
    assert lhs == rhs


def exp_by_sum(e):
    """sum_k e^k / k! by repeated series products, until a term is zero."""
    out = term = QSeries.one(e.ring, e.nvars, e.trunc)
    k = 0
    while not term.is_zero():
        k += 1
        term = term * e * Fraction(1, k)
        out = out + term
    return out


def compose_by_sum(f, s):
    """sum_d f_d * q^d * exp(s)^d from series products alone."""
    ring, trunc = f.ring, f.trunc
    growth = exp_by_sum(s)
    out = QSeries.zero(ring, 1, trunc)
    epow = QSeries.one(ring, 1, trunc)
    for d in range(trunc + 1):
        q_d = QSeries(ring, 1, trunc, {(d,): LaurentClass.one(ring)})
        out = out + epow * f.coefficient((d,)) * q_d
        epow = epow * growth
    return out


def laurent_classes(ring, nilpotent=False):
    """Laurent classes with t-exponents -2..1; nilpotent ones lack scalars."""
    exps = [e for e in ring.monomials() if any(e) or not nilpotent]
    frac = st.fractions(min_value=-6, max_value=6, max_denominator=3).filter(
        bool)
    coh = st.dictionaries(st.sampled_from(exps), frac, min_size=1, max_size=2)
    return st.dictionaries(st.integers(-2, 1), coh, min_size=1,
                           max_size=2).map(
        lambda terms: LaurentClass(ring, {j: CohClass(ring, c)
                                          for j, c in terms.items()}))


@st.composite
def laurent_series(draw, nvars=None, ring=R2, max_trunc=4):
    """Series in one or two q-variables over ring, D <= max_trunc.

    About half carry a nilpotent degree-zero term.
    """
    if nvars is None:
        nvars = draw(st.sampled_from((1, 2)))
    trunc = draw(st.integers(1, max_trunc))
    terms = draw(st.dictionaries(st.sampled_from(degree_vectors(nvars, trunc)),
                                 laurent_classes(ring), max_size=3))
    if draw(st.booleans()):
        terms[(0,) * nvars] = draw(laurent_classes(ring, nilpotent=True))
    return QSeries(ring, nvars, trunc, terms)


@settings(max_examples=40, deadline=None)
@given(laurent_series())
def test_exp_matches_defining_sum(e):
    assert qs_exp(e) == exp_by_sum(e)


@settings(max_examples=25, deadline=None)
@given(laurent_series(nvars=2))
def test_exp_inverse_two_variables(a):
    one = QSeries.one(a.ring, 2, a.trunc)
    assert qs_exp(a) * qs_exp(-a) == one


def scalar_substitutions(ring, trunc):
    frac = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    return st.lists(frac, min_size=trunc, max_size=trunc).map(
        lambda cs: QSeries(ring, 1, trunc,
                           {(d + 1,): LaurentClass.t_power(ring, 0, c)
                            for d, c in enumerate(cs) if c}))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_compose_matches_defining_sum(data):
    f = data.draw(laurent_series(nvars=1))
    s = data.draw(scalar_substitutions(f.ring, f.trunc))
    assert qs_compose(f, s) == compose_by_sum(f, s)


def test_compose_substitution_without_linear_term():
    # s starts at q^2, so exp(k*s) has zero coefficients below degree 2
    s = QSeries(R, 1, 4, {(2,): LaurentClass.t_power(R, 0, 1),
                          (3,): LaurentClass.t_power(R, 0, Fraction(2, 3))})
    h_over_t = LaurentClass(R, {-1: CohClass(R, {(1,): 2})})
    for f in (scalar(R, 1, 1), scalar(R, 1, 1) + scalar(R, 2, -3),
              QSeries(R, 1, 4, {(1,): h_over_t})):
        got = qs_compose(f, s)
        assert got == compose_by_sum(f, s)
        assert all(isinstance(c, (int, Fraction))
                   for cls in got.terms.values()
                   for j, coh in cls.terms.items() for c in coh.coeffs.values())


@settings(max_examples=10, deadline=None)
@given(scalar_substitutions(Ring(("H",), (4,)), 4))
def test_compose_quantum_lefschetz_series(s):
    # I-function coefficients are Laurent classes with H-dependence
    f = i_function(3, 2, 4)
    assert not f.is_scalar()
    assert qs_compose(f, s) == compose_by_sum(f, s)
