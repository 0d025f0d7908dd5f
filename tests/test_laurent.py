from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloc.errors import NotInvertible, RingMismatch
from resloc.laurent import (LaurentClass, invert_linear_power,
                            laurent_invert, neg_part)
from resloc.ring import CohClass, Ring
from resloc.schubert import pv_ring

R = Ring(("H",), (2,))
R2 = Ring(("h", "z"), (3, 3))
R5 = Ring(("h",), (5,))
RT = Ring(("z1", "z2"), (7, 7), total=5)  # the shape of zeta_ring
FRACS = st.fractions(min_value=-20, max_value=20, max_denominator=5)
INTS = st.integers(-20, 20)


def H(ring=R, name="H"):
    return LaurentClass.from_coh(ring.generator(name))


def t(k, c=1, ring=R):
    return LaurentClass.t_power(ring, k, c)


def test_construction_and_access():
    e = H() + t(1)
    assert e.coefficient(1) == R.one()
    assert e.coefficient(0) == R.generator("H")
    assert e.coefficient(5).is_zero()
    assert e.coeff((1,), 0) == 1
    assert e.coeff((0,), 1) == 1
    assert e.coeff((0,), 7) == 0
    with pytest.raises(RingMismatch):
        e.coeff((2,), 0)  # H^2 = 0 is not a valid monomial of this ring
    assert sorted(e.terms) == [0, 1]
    assert min(e.terms) == 0 and max(e.terms) == 1


def test_arithmetic():
    e = (H() + t(1)) * (H() - t(1))
    # H^2 = 0, so the product is -t^2
    assert e == t(2, -1)
    assert (H() + 1) - 1 == H()
    assert (t(1) ** 3) == t(3)
    assert (H() * 0).is_zero()
    f = H() + t(-2, Fraction(1, 2))
    assert (f * 2).coeff((0,), -2) == 1


def test_shift_flip_scale():
    e = H() + t(1)
    assert e.shift(3) == H().shift(3) + t(4)
    assert e.flip_t() == H() - t(1)
    assert (H() + t(2)).flip_t() == H() + t(2)
    assert (e * Fraction(1, 3)).coeff((0,), 1) == Fraction(1, 3)


def test_neg_pos_parts():
    e = t(-2) + H() + t(3)
    assert neg_part(e) == t(-2)
    assert e - neg_part(e) == H() + t(3)
    assert e.coeff((0,), -2) == 1


def test_invert_hand_value():
    # 1/(H+t)^2 = t^-2 - 2H t^-3 when H^2 = 0
    e = (H() + t(1)) ** 2
    inv = laurent_invert(e)
    assert inv == t(-2) + H().shift(-3) * (-2)
    assert inv * e == LaurentClass.one(R)


def test_invert_requires_single_scalar_monomial():
    with pytest.raises(NotInvertible):
        laurent_invert(H())  # no scalar part at all
    with pytest.raises(NotInvertible):
        laurent_invert(t(0) + t(1))  # two scalar monomials
    with pytest.raises(NotInvertible):
        laurent_invert(LaurentClass.zero(R))


def test_invert_off_center():
    e = t(-4, Fraction(2, 3)) + H().shift(-5)
    inv = laurent_invert(e)
    assert inv * e == LaurentClass.one(R)
    assert max(inv.terms) == 4


def laurents(ring, coeffs=FRACS):
    exps = st.sampled_from(ring.monomials())
    coh = st.dictionaries(exps, coeffs, max_size=3).map(
        lambda d: CohClass(ring, {e: c for e, c in d.items() if c}))
    return st.dictionaries(st.integers(-3, 3), coh, max_size=3).map(
        lambda d: LaurentClass(ring, {j: c for j, c in d.items()
                                      if not c.is_zero()}))


@settings(max_examples=60, deadline=None)
@given(laurents(R2), laurents(R2), laurents(R2))
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert all(j < 0 for j in neg_part(a).terms)
    assert all(j >= 0 for j in (a - neg_part(a)).terms)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([R2, RT]), st.sampled_from([FRACS, INTS]),
       st.integers(-2, 2))
def test_invert_round_trip(data, ring, coeffs, k):
    a = data.draw(laurents(ring, coeffs))
    c = data.draw(coeffs.filter(bool))
    gen = LaurentClass.from_coh(ring.generator(ring.gens[0]))
    e = t(k, c, ring) + a.shift(k - 1) * gen
    inv = laurent_invert(e)
    assert inv * e == LaurentClass.one(ring)
    assert laurent_invert(inv) == e
    if coeffs is INTS and c in (1, -1):
        assert all(type(v) is int
                   for coh in inv.terms.values() for v in coh.coeffs.values())


@pytest.mark.parametrize("n", [3, 7, 14])
def test_invert_euler_class_of_pv_ring_stays_integral(n):
    ring = pv_ring(n)
    e = (LaurentClass.from_coh(ring.generator("h")) + t(1, ring=ring)) ** n
    inv = laurent_invert(e)
    assert inv * e == LaurentClass.one(ring)
    assert inv == invert_linear_power(1, ring.generator("h"), n)
    assert {type(v) for coh in inv.terms.values()
            for v in coh.coeffs.values()} == {int}


def nilpotents(ring):
    exps = st.tuples(*[st.integers(0, tr - 1) for tr in ring.truncs]).filter(any)
    frac = st.fractions(min_value=-20, max_value=20, max_denominator=5)
    return st.dictionaries(exps, frac, max_size=4).map(
        lambda d: CohClass(ring, {e: c for e, c in d.items() if c}))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([R5, R2]).flatmap(nilpotents), st.integers(1, 6),
       st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool))
def test_invert_linear_power_round_trip(x, k, c):
    e = (t(1, c, x.ring) + LaurentClass.from_coh(x)) ** k
    inv = invert_linear_power(c, x, k)
    assert e * inv == LaurentClass.one(x.ring)
    assert inv == laurent_invert(e)


def test_invert_linear_power_hand_value():
    # 1/(-2t + H) = -1/2 t^-1 - 1/4 H t^-2 when H^2 = 0
    inv = invert_linear_power(-2, R.generator("H"), 1)
    assert inv == t(-1, Fraction(-1, 2)) + H().shift(-2) * Fraction(-1, 4)


def test_invert_linear_power_rejects_non_units():
    with pytest.raises(NotInvertible):
        invert_linear_power(0, R2.generator("h"), 2)
    with pytest.raises(NotInvertible):
        invert_linear_power(Fraction(0), R5.zero(), 1)
    with pytest.raises(NotInvertible):
        invert_linear_power(3, R2.generator("z") + 1, 2)  # scalar part


def test_map_coefficients():
    e = H() + t(1, 2)
    doubled = e.map_coefficients(lambda c: c * 2, R)
    assert doubled == e * 2
