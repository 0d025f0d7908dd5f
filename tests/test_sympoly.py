import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resloc.errors import NotSymmetric
from resloc.laurent import LaurentClass
from resloc.ring import Ring
from resloc.ring import poly_add, poly_mul
from resloc.sympoly import (SymPoly, monomial_symmetric, schur_expand,
                            schur_integral_oracle, schur_poly,
                            sym_power_top_chern)
from resloc.tau_parser import parse_tau


def complete_homogeneous(m, k):
    """h_k in m variables: every monomial of total degree k, once."""
    out = {}
    for bars in itertools.combinations_with_replacement(range(m), k):
        e = [0] * m
        for i in bars:
            e[i] += 1
        out[tuple(e)] = 1
    return out


def jacobi_trudi(m, lam):
    """s_lam = det(h_(lam_i - i + j)), expanded as r! products."""
    r = len(lam)
    out = {}
    for sigma in itertools.permutations(range(r)):
        sign = (-1) ** sum(sigma[i] > sigma[j]
                           for i, j in itertools.combinations(range(r), 2))
        prod = {(0,) * m: sign}
        for i in range(r):
            k = lam[i] - i + sigma[i]
            prod = poly_mul(prod, complete_homogeneous(m, k)) if k >= 0 else {}
        out = poly_add(out, prod)
    return out


def test_complete_homogeneous():
    # the one-row Schur polynomial is h_k
    assert schur_poly(2, (2,)) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    for m, k in ((1, 3), (3, 0), (3, 4), (4, 3)):
        assert schur_poly(m, (k,) if k else ()) == complete_homogeneous(m, k)


def test_branching_rule_matches_jacobi_trudi():
    for m in range(1, 6):
        for lam in itertools.product(range(4), repeat=3):
            if list(lam) == sorted(lam, reverse=True):
                lam = tuple(x for x in lam if x)
                assert schur_poly(m, lam) == jacobi_trudi(m, lam), (m, lam)


def test_schur_hand_values():
    assert schur_poly(2, (1,)) == {(1, 0): 1, (0, 1): 1}
    assert schur_poly(2, (1, 1)) == {(1, 1): 1}
    # s_(2,1) in 2 vars: q1 q2 (q1 + q2)
    assert schur_poly(2, (2, 1)) == {(2, 1): 1, (1, 2): 1}
    # more rows than variables gives zero
    assert schur_poly(2, (1, 1, 1)) == {}
    with pytest.raises(ValueError):
        schur_poly(2, (1, 2))
    with pytest.raises(ValueError):
        schur_poly(2, (-1,))


def test_monomial_symmetric():
    assert monomial_symmetric(2, (2,)) == {(2, 0): 1, (0, 2): 1}
    assert monomial_symmetric(2, (1, 1)) == {(1, 1): 1}
    assert monomial_symmetric(3, (2, 1)) == {
        (2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1,
        (0, 2, 1): 1, (1, 0, 2): 1, (0, 1, 2): 1}
    with pytest.raises(ValueError):
        monomial_symmetric(1, (1, 1))


def test_sympoly_validation():
    with pytest.raises(NotSymmetric) as exc:
        SymPoly(2, {(2, 0): Fraction(1)})
    assert exc.value.witness == (1, 2)
    p = SymPoly.from_schur(2, (2, 1))
    assert p.degree() == 3
    mixed = SymPoly(2, {(0, 0): 1, (1, 1): 1})
    assert mixed.degree() == 2


def test_sympoly_arithmetic():
    e1 = SymPoly.from_schur(2, (1,))
    e2 = SymPoly.from_schur(2, (1, 1))
    prod = e1 * e2
    # Pieri: s1 * s11 = s21 + s111 = s21 in two variables
    assert prod == SymPoly.from_schur(2, (2, 1))
    assert (e1 + e1) == e1 * 2
    assert (e1 - e1).is_zero()


def test_from_monomial_orbit():
    p = SymPoly.from_monomial_orbit(2, (3, 1))
    assert p.coeffs == {(3, 1): 1, (1, 3): 1}


def test_sym_power_top_chern():
    # l = 1: c_top of the dual bundle itself, q1 q2
    assert sym_power_top_chern(1) == SymPoly(2, {(1, 1): 1})
    # l = 3 expands to 9 q1 q2 (2q1^2 + 5 q1q2 + 2q2^2)
    got = sym_power_top_chern(3)
    assert got == SymPoly(2, {(3, 1): 18, (2, 2): 45, (1, 3): 18})
    with pytest.raises(ValueError):
        sym_power_top_chern(0)


def test_schur_expand():
    coeffs = schur_expand(sym_power_top_chern(3))
    assert coeffs == {(3, 1): Fraction(18), (2, 2): Fraction(27)}
    # round trip: rebuild from the expansion
    rebuilt = SymPoly(2, {})
    for lam, c in coeffs.items():
        rebuilt = rebuilt + SymPoly.from_schur(2, lam) * c
    assert rebuilt == sym_power_top_chern(3)


def test_schur_expand_fractional_coefficients():
    p = SymPoly(2, {(1, 0): Fraction(1, 3), (0, 1): Fraction(1, 3)})
    assert schur_expand(p) == {(1,): Fraction(1, 3)}


def test_schur_integral_oracle():
    s2 = SymPoly.from_schur(2, (2,))
    assert schur_integral_oracle(2, 4, s2 * s2) == 1
    s11 = SymPoly.from_schur(2, (1, 1))
    assert schur_integral_oracle(2, 4, s11 * s11) == 1
    s1 = SymPoly.from_schur(2, (1,))
    assert schur_integral_oracle(2, 4, s1 * s1 * s1 * s1) == 2
    # degree mismatch integrates to zero
    assert schur_integral_oracle(2, 4, s1) == 0
    with pytest.raises(ValueError):
        schur_integral_oracle(2, 2, s1)
    with pytest.raises(ValueError):
        schur_integral_oracle(3, 4, s1)


def test_evaluate():
    ring = Ring(("h", "z"), (4, 4))
    h = LaurentClass.from_coh(ring.generator("h"))
    z = LaurentClass.from_coh(ring.generator("z"))
    t1 = LaurentClass.t_power(ring, 1, 1)
    p = SymPoly.from_schur(2, (1,))
    assert p.evaluate([h, h + z]) == h * 2 + z
    q = SymPoly(2, {(1, 1): 1})
    assert q.evaluate([h + t1, h - t1]) == (h + t1) * (h - t1)
    with pytest.raises(ValueError):
        p.evaluate([h])


@st.composite
def pairs_of_partitions(draw):
    a = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    return tuple(sorted(a, reverse=True))


@settings(max_examples=30, deadline=None)
@given(pairs_of_partitions(), pairs_of_partitions())
def test_schur_products_expand_integrally(lam, mu):
    p = SymPoly.from_schur(2, lam) * SymPoly.from_schur(2, mu)
    coeffs = schur_expand(p)
    # Littlewood-Richardson coefficients are nonnegative integers
    for c in coeffs.values():
        assert c.denominator == 1
        assert c >= 0


def test_raw_builders_keep_int_coefficients():
    for m, lam in ((1, (3,)), (3, (4,)), (2, (2, 1)), (3, (3, 1, 1)),
                   (4, (2, 2))):
        assert all(type(c) is int for c in schur_poly(m, lam).values())
    # SymPoly keeps its coefficients as given and rejects any other type
    tau = parse_tau("sigma(2,1)*sigma(1)^2 + 3*q1*q2*q3", 3)
    assert tau.coeffs
    assert all(type(c) is int for c in tau.coeffs.values())
    halves = SymPoly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
    assert all(type(c) is Fraction for c in halves.coeffs.values())
    with pytest.raises(TypeError):
        SymPoly(2, {(1, 1): 0.5})
    # the oracle reads the same value from int and Fraction coefficients;
    # sigma(1)^dim integrates to the hook-length count of the box; on G(3, 6)
    # sigma(2)*sigma(1)^7 = f^(3,3,1) = 21 and sigma(3)^3 = 1 by Pieri
    for m, n, text, want in ((3, 5, "sigma(2,1)^2", 1),
                             (3, 6, "sigma(1)^9", 42),
                             (4, 6, "sigma(1)^8", 14),
                             (4, 7, "sigma(1)^12", 462),
                             (3, 6, "sigma(2)*sigma(1)^7 - 2*sigma(3)^3", 19)):
        tau = parse_tau(text, m)
        as_fractions = SymPoly(m, {e: Fraction(c)
                                   for e, c in tau.coeffs.items()})
        value = schur_integral_oracle(m, n, tau)
        assert value == schur_integral_oracle(m, n, as_fractions) == want


def _schur_expand_reference(tau):
    """Every monomial of tau times every term of the alternant a_delta."""
    m = tau.m
    delta = tuple(range(m - 1, -1, -1))
    out = {}
    for sigma in itertools.permutations(range(m)):
        sign = (-1) ** sum(1 for i, j in itertools.combinations(range(m), 2)
                           if sigma[i] > sigma[j])
        d = tuple(delta[s] for s in sigma)
        for e, c in tau.coeffs.items():
            mu = tuple(x + y for x, y in zip(e, d))
            if all(mu[i] > mu[i + 1] for i in range(m - 1)):
                lam = tuple(x - y for x, y in zip(mu, delta) if x > y)
                out[lam] = out.get(lam, 0) + c * sign
    return {lam: c for lam, c in out.items() if c}


@st.composite
def symmetric_polys(draw):
    """Fraction combinations of monomial orbits of mixed degrees, or zero."""
    m = draw(st.integers(1, 4))
    orbits = draw(st.lists(
        st.tuples(st.lists(st.integers(0, 4), min_size=m, max_size=m),
                  st.fractions(min_value=-5, max_value=5,
                               max_denominator=6)),
        max_size=4))
    tau = SymPoly(m, {})
    for exps, c in orbits:
        tau = tau + SymPoly.from_monomial_orbit(
            m, sorted(exps, reverse=True)) * c
    return tau


@settings(max_examples=150, deadline=None)
@given(symmetric_polys(), st.integers(1, 4))
@example(SymPoly(4, {}), 1)
def test_schur_expand_matches_reference(tau, extra):
    expansion = schur_expand(tau)
    assert expansion == _schur_expand_reference(tau)
    n = tau.m + extra
    box = (n - tau.m,) * tau.m
    assert schur_integral_oracle(tau.m, n, tau) == expansion.get(box, 0)

