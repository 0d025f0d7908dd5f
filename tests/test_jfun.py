"""J-function, I-function and mirror transformation tests.

Hand values for small projective spaces are computed from the defining
inverse products; hypersurface constants were frozen from an independent
run of the order-by-order solve and cross-checked against the closed forms
they should satisfy (vanishing below the Fano boundary, factorial values
on it).
"""

from fractions import Fraction
from math import factorial

import pytest

from resloc.errors import DegenerateSystem, NormalizationFailed, NotDivisible
from resloc.geometry import RingSpec
from resloc.jfun import (IFunction, JFunction, _apply_mirror, i_function,
                         j_product, j_projective, mirror_normalize,
                         pull_to_hypersurface)
from resloc.laurent import LaurentClass
from resloc.qseries import QSeries


def scalar_at(series, d):
    return series.coefficient(d).coeff((0,), 0)


def test_j_p1_hand_values():
    j = j_projective(1, 2)
    assert j.coefficient(0) == LaurentClass.one(j.ring_spec.ring)
    f1 = j.coefficient(1)
    assert f1.coeff((0,), -2) == 1
    assert f1.coeff((1,), -3) == -2
    assert sorted(f1.terms) == [-3, -2]
    f2 = j.coefficient(2)
    assert f2.coeff((0,), -4) == Fraction(1, 4)
    assert f2.coeff((1,), -5) == Fraction(-3, 4)
    assert sorted(f2.terms) == [-5, -4]


def test_j_p2_hand_values():
    # (H + t)^(-3) = t^-3 - 3H t^-4 + 6H^2 t^-5 over Q[H]/(H^3)
    f1 = j_projective(2, 1).coefficient(1)
    assert f1.coeff((0,), -3) == 1
    assert f1.coeff((1,), -4) == -3
    assert f1.coeff((2,), -5) == 6


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_j_projective_inverts_repeated_products(n):
    # F_d * prod_(k<=d) (H + kt)^(n+1) = 1, the product built factor by
    # factor in LaurentClass arithmetic
    j = j_projective(n, 4)
    ring = j.ring_spec.ring
    h = LaurentClass.from_coh(ring.generator("H"))
    denom = LaurentClass.one(ring)
    for d in range(1, 5):
        for _ in range(n + 1):
            denom = denom * (h + LaurentClass.t_power(ring, 1, d))
        assert j.coefficient(d) * denom == LaurentClass.one(ring), d


def test_j_projective_validation():
    with pytest.raises(ValueError):
        j_projective(0, 2)
    with pytest.raises(ValueError):
        j_projective(2, -1)


def test_check_shape():
    j = j_projective(2, 2)
    assert j.check_shape()
    ring = j.ring_spec.ring
    # wrong F_0
    bad0 = JFunction(j.ring_spec, 1, {(0,): LaurentClass.t_power(ring, 0, 2),
                                      (1,): j.coefficient(1)})
    assert not bad0.check_shape()
    # a t^-1 term in positive degree
    bad1 = JFunction(j.ring_spec, 1, {(0,): LaurentClass.one(ring),
                                      (1,): LaurentClass.t_power(ring, -1, 1)})
    assert not bad1.check_shape()
    assert bad1.check_shape(expected_f0=LaurentClass.one(ring)) is False


def test_truncate():
    j = j_projective(1, 3)
    assert j.truncate(1) == j_projective(1, 1)
    assert j.truncate(3) == j
    with pytest.raises(ValueError):
        j.truncate(4)


def test_series_view():
    j = j_projective(1, 2)
    assert isinstance(j, QSeries) and j.nvars == 1
    assert j.coefficient((1,)) == j.coefficient(1)
    assert j.coefficient((3,)).is_zero()
    i = i_function(4, 5, 2)
    assert isinstance(i, JFunction) and i.l == 5


def test_i_function_quintic_degree_one():
    i = i_function(4, 5, 1)
    ring = i.ring_spec.ring
    assert i.coefficient(0) == LaurentClass.from_coh(5 * ring.generator("H"))
    f1 = i.coefficient(1)
    assert f1.coeff((1,), 0) == 600
    assert f1.coeff((2,), -1) == 3850
    assert f1.coeff((3,), -2) == 2875
    assert f1.coeff((4,), -3) == -5750
    assert sorted(f1.terms) == [-3, -2, -1, 0]


def test_i_function_divisible_by_h():
    for (n, l) in [(2, 1), (3, 2), (4, 5), (3, 4)]:
        i = i_function(n, l, 2)
        for d in [0, 1, 2]:
            for coh in i.coefficient(d).terms.values():
                zero_exp = (0,) * 1
                assert coh.coeff(zero_exp) == 0


def test_i_function_validation():
    with pytest.raises(ValueError):
        i_function(0, 1, 2)
    with pytest.raises(ValueError):
        i_function(3, 0, 2)
    with pytest.raises(ValueError):
        i_function(3, 5, 2)
    with pytest.raises(ValueError):
        i_function(3, 2, -1)


def test_mirror_trivial_below_fano_boundary():
    # l < n: the I-function is already a pushed J-function
    for (n, l) in [(2, 1), (3, 2), (4, 2), (4, 3)]:
        i = i_function(n, l, 2)
        md = mirror_normalize(i)
        assert md.a.is_zero() and md.b.is_zero() and md.c.is_zero()
        for d in [0, 1, 2]:
            assert md.pushed.coefficient(d) == i.coefficient(d)


def test_mirror_fano_boundary_constants():
    # l = n: only c is nonzero and c_1 = -l!
    for (l, expected) in [(2, -2), (3, -6), (4, -24)]:
        md = mirror_normalize(i_function(l, l, 2))
        assert md.a.is_zero() and md.b.is_zero()
        assert scalar_at(md.c, (1,)) == expected
        assert scalar_at(md.c, (2,)) == 0


def test_mirror_quintic_constants():
    md = mirror_normalize(i_function(4, 5, 3))
    assert scalar_at(md.a, (1,)) == -770
    assert scalar_at(md.b, (1,)) == -120
    assert scalar_at(md.a, (2,)) == -124925
    assert scalar_at(md.a, (3,)) == Fraction(-305179250, 3)
    assert md.c.is_zero()
    ring = md.pushed.ring_spec.ring
    lh = LaurentClass.from_coh(5 * ring.generator("H"))
    assert md.pushed.check_shape(expected_f0=lh)
    f1 = md.pushed.coefficient(1)
    assert f1.coeff((3,), -2) == 2875
    assert f1.coeff((4,), -3) == -5750


def test_mirror_idempotent():
    md = mirror_normalize(i_function(4, 5, 2))
    pushed = md.pushed
    again = mirror_normalize(IFunction(pushed.ring_spec, 5, pushed.trunc,
                                       pushed.terms))
    assert again.a.is_zero() and again.b.is_zero() and again.c.is_zero()
    for d in [0, 1, 2]:
        assert again.pushed.coefficient(d) == md.pushed.coefficient(d)


def test_mirror_degenerate_response():
    base = i_function(4, 5, 1)
    broken = IFunction(base.ring_spec, 0, 1, dict(base.terms))
    with pytest.raises(DegenerateSystem):
        mirror_normalize(broken)


def test_mirror_failure_wrong_leading_term():
    base = i_function(4, 5, 1)
    ring = base.ring_spec.ring
    coeffs = dict(base.terms)
    coeffs[(0,)] = LaurentClass.from_coh(ring.generator("H"))
    with pytest.raises(NormalizationFailed):
        mirror_normalize(IFunction(base.ring_spec, 5, 1, coeffs))


def test_mirror_failure_uncorrectable_term():
    # corrections only touch H t^0, H t^-1 and H^2 t^-1; an extra H^3 t^0
    # term survives and the final residual check must report it: the online
    # pass runs in Q[H]/(H^3) and cannot see it, so the full rebuild must
    base = i_function(4, 5, 1)
    ring = base.ring_spec.ring
    coeffs = dict(base.terms)
    coeffs[(1,)] = coeffs[(1,)] + LaurentClass.from_coh(ring.monomial((3,)))
    with pytest.raises(NormalizationFailed,
                       match="degree 1 retains t-exponent 0"):
        mirror_normalize(IFunction(base.ring_spec, 5, 1, coeffs))


def test_pull_to_hypersurface_quintic():
    md = mirror_normalize(i_function(4, 5, 2))
    x = pull_to_hypersurface(md.pushed, 5)
    assert x.ring_spec == RingSpec.hypersurface(4, 5)
    f1 = x.coefficient(1)
    assert f1.coeff((2,), -2) == 575
    assert f1.coeff((3,), -3) == -1150
    assert sorted(f1.terms) == [-3, -2]


def test_pull_rejects_scalar_terms():
    # F_0 = 1 has no uniform H factor
    with pytest.raises(NotDivisible):
        pull_to_hypersurface(j_projective(2, 1), 2)


def test_j_product_p1_p1():
    j1 = j_projective(1, 2)
    jj = j_product(j1, j1)
    assert jj.ring_spec.kind == "product"
    assert jj.nvars == 2
    f10 = jj.coefficient((1, 0))
    assert f10.coeff((1, 0), -3) == -2
    assert f10.coeff((0, 1), -3) == 0
    f11 = jj.coefficient((1, 1))
    assert f11.coeff((0, 0), -4) == 1
    assert f11.coeff((1, 1), -6) == 4
    # total degree cutoff at the shared truncation
    assert (2, 1) not in jj.terms
    assert jj.check_shape()


def test_j_product_flattens_and_validates():
    j1 = j_projective(1, 1)
    triple = j_product(j_product(j1, j1), j1)
    assert len(triple.ring_spec.components) == 3
    assert triple.nvars == 3
    with pytest.raises(ValueError):
        j_product(j_projective(1, 1), j_projective(1, 2))


def test_json_round_trips():
    # F_1 of P^1 is t^-2 - 2H t^-3
    assert j_projective(1, 1).to_json() == {
        "ring": {"kind": "projective", "n": 1}, "D": 1,
        "coefficients": {"0": {"0": {"0": "1"}},
                         "1": {"-2": {"0": "1"}, "-3": {"1": "-2"}}}}
    # I_0 = lH carries l
    i = i_function(3, 3, 2)
    assert i.to_json()["coefficients"]["0"] == {"0": {"1": "3"}}
    md = mirror_normalize(i)
    data = md.to_json()
    assert set(data) == {"a", "b", "c", "normalized"}
    assert data["c"] == {"1": "-6"}
    assert data["normalized"] == md.pushed.to_json()


def _mirror_by_full_apply(i_fun):
    # the per-order solve that rebuilds all of Jhat at every q-order: a
    # reference for the online pass of mirror_normalize
    ring = i_fun.ring_spec.ring
    trunc = i_fun.trunc
    a = QSeries.zero(ring, 1, trunc)
    b = QSeries.zero(ring, 1, trunc)
    c = QSeries.zero(ring, 1, trunc)
    for d in range(1, trunc + 1):
        fd = _apply_mirror(i_fun, a, b, c).coefficient((d,))
        for series, exps, j in ((b, (1,), 0), (c, (1,), -1), (a, (2,), -1)):
            if not ring.admits(exps):
                continue                # no H^2 on P^1: a stays 0
            v = fd.coeff(exps, j) / i_fun.l
            if v:
                series.terms[(d,)] = LaurentClass.t_power(ring, 0, -v)
    return a, b, c, _apply_mirror(i_fun, a, b, c)


@pytest.mark.parametrize("n,l", [(3, 2), (4, 3), (3, 3), (4, 4), (3, 4),
                                 (4, 5), (1, 1), (1, 2), (2, 1), (2, 3),
                                 (5, 6)])
def test_online_mirror_matches_full_apply(n, l):
    # l < n, l = n and l = n + 1 at D <= 5; the online pass runs in
    # Q[H]/(H^min(3, n+1)), so P^1 and P^2, where that is the full ring
    # with two and three H-powers, are its edge cases
    trunc = 5 if n == 3 else 4
    i = i_function(n, l, trunc)
    a, b, c, jhat = _mirror_by_full_apply(i)
    md = mirror_normalize(i)
    assert (md.a, md.b, md.c) == (a, b, c)
    assert jhat == md.pushed


def _mul(f, g):
    return [sum(f[k] * g[m - k] for k in range(m + 1)) for m in range(len(f))]


def _exp(f):
    # f_0 = 0; m P_m = sum_k k f_k P_(m-k)
    out = [Fraction(1)]
    for m in range(1, len(f)):
        out.append(sum(k * f[k] * out[m - k] for k in range(1, m + 1)) / m)
    return out


def _log(f):
    # f_0 = 1; m f_m = sum_k k L_k f_(m-k)
    out = [Fraction(0)]
    for m in range(1, len(f)):
        out.append(f[m] - sum((k * out[k] * f[m - k] for k in range(1, m)),
                              Fraction(0)) / m)
    return out


def _inverse(f):
    # f_0 = 1
    out = [Fraction(1)]
    for m in range(1, len(f)):
        out.append(-sum(f[k] * out[m - k] for k in range(1, m + 1)))
    return out


def _substitute(f, a):
    # f(q * exp(a(q)))
    growth = _exp(a)
    out = [Fraction(0)] * len(f)
    power = [Fraction(1)] + [Fraction(0)] * (len(f) - 1)
    for d in range(len(f)):
        for m in range(len(f) - d):
            out[d + m] += f[d] * power[m]
        power = _mul(power, growth)
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_calabi_yau_mirror_map_closed_form(n):
    # l = n + 1: I/(lH) = F(q) + (H/t) G(q) + O(H^2) with
    # F_d = (ld)!/(d!)^l and G_d = F_d * l * (h_ld - h_d), h_m harmonic,
    # so the mirror map is a = -(G/F)(q e^a), b = -log F(q e^a), c = 0
    l, trunc = n + 1, 12
    f = [Fraction(factorial(l * d), factorial(d) ** l) for d in range(trunc + 1)]
    harmonic = [sum(Fraction(1, k) for k in range(1, m + 1))
                for m in range(l * trunc + 1)]
    g = [f[d] * l * (harmonic[l * d] - harmonic[d]) for d in range(trunc + 1)]
    ratio = [-v for v in _mul(g, _inverse(f))]
    a = [Fraction(0)] * (trunc + 1)
    for _ in range(trunc):
        a = _substitute(ratio, a)
    b = [-v for v in _log(_substitute(f, a))]
    md = mirror_normalize(i_function(n, l, trunc))
    assert md.c.is_zero()
    for d in range(1, trunc + 1):
        assert scalar_at(md.a, (d,)) == a[d], d
        assert scalar_at(md.b, (d,)) == b[d], d
