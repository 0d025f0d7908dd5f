from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resloc.errors import RingMismatch
from resloc.laurent import LaurentClass, invert_linear_power, laurent_invert
from resloc.linalg import ExactSolver
from resloc.qseries import QSeries
from resloc.reconstruct import _splits
from resloc.ring import CohClass, Ring, as_fraction, poly_add, poly_mul
from resloc.schubert import flag_band, flag_fixed_locus_euler, zeta_ring
from resloc.sympoly import SymPoly

R1 = Ring(("H",), (3,))
R2 = Ring(("h", "z"), (4, 3))


def test_as_fraction():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_ring_basics():
    assert R1.zero_exp == (0,)
    assert R1.top_exp == (2,)
    assert R1.nilpotency_bound == 3
    assert R2.top_exp == (3, 2)
    assert R2.nilpotency_bound == 6
    assert R2.admits((3, 2))
    assert not R2.admits((4, 0))
    assert not R2.admits((0, 0, 0))
    assert R1 == Ring(("H",), (3,))
    assert R1 != R2
    assert hash(R1) == hash(Ring(("H",), (3,)))


def test_ring_immutable():
    with pytest.raises(AttributeError):
        R1.gens = ("X",)


def test_monomial_and_generator():
    h = R1.generator("H")
    assert h.coeffs == {(1,): Fraction(1)}
    assert R1.monomial((2,), Fraction(1, 3)).coeff((2,)) == Fraction(1, 3)
    # exponents at or past the truncation silently give the zero class
    assert R1.monomial((3,)).is_zero()
    with pytest.raises(ValueError):
        R1.monomial((-1,))
    with pytest.raises(ValueError):
        R1.monomial((0, 0))
    with pytest.raises(KeyError):
        R1.generator("X")


def test_truncation_in_products():
    h = R1.generator("H")
    assert (h * h * h).is_zero()
    assert (h * h).coeff((2,)) == 1
    z = R2.generator("z")
    assert (z ** 3).is_zero()
    assert not (z ** 2).is_zero()


def test_arithmetic_coercion():
    h = R1.generator("H")
    e = 2 * h + 1
    assert e.coeff((0,)) == 1
    assert e.coeff((1,)) == 2
    assert e == h * 2 + 1
    assert 1 - h == -(h - 1)
    assert (e - 1 - h * 2).is_zero()
    assert (e * Fraction(1, 2)).coeff((1,)) == 1
    assert (e / 2).coeff((1,)) == 1
    with pytest.raises(ZeroDivisionError):
        e / 0


def test_scalar_part_and_degree():
    h = R1.generator("H")
    assert (h + 2).scalar_part == 2
    assert h.scalar_part == 0
    assert h.homogeneous_degree() == 1
    assert (h * h).homogeneous_degree() == 2
    assert (h + 1).homogeneous_degree() is None
    assert R1.zero().homogeneous_degree() is None
    assert R1.one().homogeneous_degree() == 0


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        R1.generator("H") + R2.generator("h")
    with pytest.raises(RingMismatch):
        R1.generator("H") * R2.generator("h")


def test_pow():
    h = R2.generator("h")
    z = R2.generator("z")
    e = h + z
    assert e ** 0 == R2.one()
    assert e ** 1 == e
    assert (e ** 2).coeff((1, 1)) == 2
    with pytest.raises(ValueError):
        e ** -1


coeff_st = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def classes(ring):
    exps = st.tuples(*[st.integers(0, t - 1) for t in ring.truncs])
    return st.dictionaries(exps, coeff_st, max_size=4).map(
        lambda d: CohClass(ring, {e: c for e, c in d.items() if c}))


@settings(max_examples=60, deadline=None)
@given(classes(R2), classes(R2), classes(R2))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + R2.zero() == a
    assert a * R2.one() == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(classes(R2), classes(R2))
def test_quotient_consistency(a, b):
    # multiplying then reading a coefficient agrees with convolution by hand
    prod = a * b
    for exps in prod.coeffs:
        total = Fraction(0)
        for e1, c1 in a.coeffs.items():
            e2 = tuple(x - y for x, y in zip(exps, e1))
            if all(v >= 0 for v in e2):
                total += c1 * b.coeff(e2)
        assert prod.coeff(exps) == total


polys = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                        coeff_st.filter(bool), max_size=5)
bounds = st.one_of(st.none(), st.tuples(st.integers(1, 6), st.integers(1, 6)))
totals = st.one_of(st.none(), st.integers(0, 8))


def within(p, truncs, total):
    return {e: c for e, c in p.items()
            if (truncs is None or all(x < t for x, t in zip(e, truncs)))
            and (total is None or sum(e) <= total)}


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys, bounds, totals)
def test_poly_mul_truncation(a, b, c, truncs, total):
    full = poly_mul(a, b)
    assert poly_mul(a, b, truncs, total) == within(full, truncs, total)
    assert poly_mul(a, b, truncs, total) == poly_mul(b, a, truncs, total)
    left = poly_mul(poly_mul(a, b, truncs, total), c, truncs, total)
    right = poly_mul(a, poly_mul(b, c, truncs, total), truncs, total)
    assert left == right == within(poly_mul(full, c), truncs, total)


monos = st.tuples(st.integers(0, 5), st.integers(0, 5))


@settings(max_examples=80, deadline=None)
@given(monos, monos, coeff_st.filter(bool), coeff_st.filter(bool), bounds,
       totals)
def test_single_term_product(e1, e2, c1, c2, truncs, total):
    e = (e1[0] + e2[0], e1[1] + e2[1])
    assert (poly_mul({e1: c1}, {e2: c2}, truncs, total)
            == within({e: c1 * c2}, truncs, total))


def test_single_term_product_drops_a_zero_coefficient():
    # coefficients that are classes can multiply to zero: H^2 * H = 0
    h = R1.generator("H")
    assert poly_mul({(0,): h * h}, {(1,): h}) == {}
    assert poly_mul({(0,): h}, {(1,): h}) == {(1,): h * h}


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_poly_add_drops_zeros(a, b):
    s = poly_add(a, b)
    assert all(s.values())
    assert poly_add(s, {e: -v for e, v in b.items()}) == a
    assert poly_add(a, {e: -v for e, v in a.items()}) == {}


def test_total_degree_ring():
    r = Ring(("x", "y"), (4, 4), total=3)
    assert r.admits((3, 0)) and r.admits((1, 2))
    assert not r.admits((2, 2))
    assert r.monomial((2, 2)).is_zero()
    assert r.monomial((1, 2), 5).coeff((1, 2)) == 5
    # without the bound the top monomial x^3 y^3 survives
    assert Ring(("x", "y"), (4, 4)).nilpotency_bound == 7
    assert r.nilpotency_bound == 4
    u = r.generator("x") + r.generator("y")
    assert not (u ** 3).is_zero() and (u ** 4).is_zero()
    assert r == Ring(("x", "y"), (4, 4), total=3)
    assert hash(r) == hash(Ring(("x", "y"), (4, 4), total=3))
    assert r != Ring(("x", "y"), (4, 4))
    assert r != Ring(("x", "y"), (4, 4), total=4)
    assert "deg > 3" in repr(r)
    with pytest.raises(RingMismatch):
        r.generator("x") + Ring(("x", "y"), (4, 4)).generator("x")
    with pytest.raises(ValueError):
        Ring(("x",), (2,), total=-1)


def test_bool_is_nonzero():
    assert not R1.zero() and R1.one() and R1.generator("H")
    h = R1.generator("H")
    assert not (h * h * h)
    assert not LaurentClass.zero(R1)
    assert LaurentClass.one(R1)
    assert not LaurentClass.from_coh(h) - LaurentClass.from_coh(h)
    assert not QSeries.zero(R1, 1, 3) and QSeries.one(R1, 1, 3)
    assert not SymPoly(2, {}) and SymPoly.from_schur(2, (1,))


def test_embed_at_each_offset():
    wide = Ring(("a", "b", "c"), (3, 4, 5))
    one = Ring(("x",), (3,)).monomial((2,), Fraction(3, 4)) + 5
    two = (Ring(("x", "y"), (3, 4)).monomial((1, 2), -2)
           + Ring(("x", "y"), (3, 4)).monomial((2, 0), Fraction(7, 3)))
    for offset in range(3):
        exps = [0, 0, 0]
        exps[offset] = 2
        out = wide.embed(one, offset)
        assert out.ring == wide
        assert out.coeffs == {tuple(exps): Fraction(3, 4), (0, 0, 0): 5}
    assert wide.embed(two, 0).coeffs == {(1, 2, 0): -2,
                                         (2, 0, 0): Fraction(7, 3)}
    assert wide.embed(two, 1).coeffs == {(0, 1, 2): -2,
                                         (0, 2, 0): Fraction(7, 3)}
    full = wide.monomial((2, 3, 4), 9) + wide.generator("b")
    assert wide.embed(full, 0) == full


@pytest.mark.parametrize("gens,offset", [(1, 3), (2, 2), (3, 1), (1, -1),
                                         (4, 0)])
def test_embed_past_the_generators_raises(gens, offset):
    wide = Ring(("a", "b", "c"), (3, 4, 5))
    c = Ring(tuple("uvwx")[:gens], (2,) * gens).one()
    with pytest.raises(ValueError):
        wide.embed(c, offset)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_zeta_ring_total_bound_keeps_band(n):
    # inverting over the total-degree ring gives the per-generator ring's
    # inverse restricted to |A| <= band
    m = 3
    band = flag_band(m, n)
    ring = zeta_ring(m, n)
    assert ring.total == band
    wide = Ring(ring.gens, ring.truncs, ring.norm)
    for perm in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
        euler = flag_fixed_locus_euler(perm, (4, -1, 7), n)
        widened = euler.map_coefficients(
            lambda c: CohClass(wide, dict(c.coeffs)), wide)
        cut = {}
        for j, c in laurent_invert(widened).terms.items():
            kept = {a: v for a, v in c.coeffs.items() if sum(a) <= band}
            if kept:
                cut[j] = kept
        got = laurent_invert(euler)
        assert {j: c.coeffs for j, c in got.terms.items()} == cut


@pytest.mark.parametrize("truncs", [(1,), (5,), (2, 3), (4, 1, 3), (3, 3, 3)])
def test_monomials_without_bound(truncs):
    monos = Ring(["v%d" % i for i in range(len(truncs))], truncs).monomials()
    assert len(monos) == prod(truncs)


@pytest.mark.parametrize("truncs,total", [((6,), 5), ((4, 4), 3),
                                          ((8, 9, 7), 6), ((3, 3, 3, 3), 2),
                                          ((5, 2), 3), ((3, 4, 2), 4)])
def test_monomials_with_total_bound(truncs, total):
    ring = Ring(["v%d" % i for i in range(len(truncs))], truncs, total=total)
    monos = ring.monomials()
    if all(t > total for t in truncs):
        # compositions of at most total into len(truncs) parts
        assert len(monos) == comb(total + len(truncs), len(truncs))
    keys = [(sum(e), e) for e in monos]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
    assert all(ring.admits(e) for e in monos)
    assert len(monos) == sum(
        1 for e in Ring(ring.gens, truncs).monomials() if sum(e) <= total)


@pytest.mark.parametrize("d", [(1,), (4,), (1, 1), (2, 3), (3, 0), (1, 2, 2)])
def test_splits_count(d):
    splits = _splits(d)
    assert len(splits) == prod(v + 1 for v in d) - 2
    for d1, d2 in splits:
        assert any(d1) and any(d2)
        assert tuple(a + b for a, b in zip(d1, d2)) == d


RT = Ring(("z1", "z2"), (7, 7), total=5)
exact_st = st.one_of(st.integers(-9, 9),
                     st.fractions(min_value=-9, max_value=9,
                                  max_denominator=4))


def exact_classes(ring):
    return st.dictionaries(st.sampled_from(ring.monomials()), exact_st,
                           max_size=4).map(
        lambda d: CohClass(ring, {e: c for e, c in d.items() if c}))


def exact(values):
    return all(type(v) in (int, Fraction) for v in values)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([R1, R2, RT]))
def test_kernel_never_makes_a_float(data, ring):
    a, b = data.draw(exact_classes(ring)), data.draw(exact_classes(ring))
    s = data.draw(exact_st.filter(bool))
    solver = ExactSolver()
    solver.add_equation({0: s, 1: data.draw(exact_st)}, a)
    solver.add_equation({1: s}, data.draw(exact_st))
    solution = solver.solution([0, 1])
    x = a - a.scalar_part  # nilpotent
    unit = LaurentClass.t_power(ring, 1, s) + LaurentClass.from_coh(x)
    cohs = [a + b, a - b, a * b, a * s, s * b, a / s, a + s, s - b,
            ring.monomial(ring.zero_exp, s), solution[0]]
    laurents = [unit, unit * s, laurent_invert(unit),
                invert_linear_power(s, x, 2)]
    assert exact([solution[1]])
    for c in cohs:
        assert exact(c.coeffs.values())
        assert type(c.scalar_part) is Fraction
        assert all(type(c.coeff(e)) is Fraction for e in ring.monomials())
    for lc in laurents:
        assert all(exact(c.coeffs.values()) for c in lc.terms.values())
        assert all(type(lc.coeff(ring.zero_exp, j)) is Fraction
                   for j in range(-3, 3))
