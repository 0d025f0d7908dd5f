import pytest

from resloc.geometry import RingSpec, integrate
from resloc.jfun import j_product, j_projective
from resloc.laurent import LaurentClass


def test_projective_spec():
    spec = RingSpec.projective(3)
    assert spec.dim == 3
    assert spec.nvars == 1
    assert spec.ring.truncs == (4,)
    assert spec.c1_degrees == (4,)
    assert spec.chern_degree((2,)) == 8
    with pytest.raises(ValueError):
        RingSpec.projective(-1)


def test_point_target_allowed():
    pt = RingSpec.projective(0)
    assert pt.dim == 0
    assert integrate(pt.ring.one()) == 1


def test_hypersurface_spec():
    spec = RingSpec.hypersurface(4, 5)
    assert spec.dim == 3
    assert spec.ring.truncs == (4,)
    assert spec.ring.norm == 5
    assert spec.c1_degrees == (0,)
    cubic = RingSpec.hypersurface(3, 3)
    assert cubic.c1_degrees == (1,)
    with pytest.raises(ValueError):
        RingSpec.hypersurface(1, 1)
    with pytest.raises(ValueError):
        RingSpec.hypersurface(3, 5)


def test_product_spec():
    spec = RingSpec.product([RingSpec.projective(1), RingSpec.projective(2)])
    assert spec.dim == 3
    assert spec.nvars == 2
    assert spec.ring.gens == ("H1", "H2")
    assert spec.ring.truncs == (2, 3)
    assert spec.c1_degrees == (2, 3)
    assert spec.chern_degree((1, 1)) == 5
    with pytest.raises(ValueError):
        RingSpec.product([spec, RingSpec.projective(1)])


def test_integrate():
    spec = RingSpec.projective(2)
    h = spec.ring.generator("H")
    assert integrate(h * h) == 1
    assert integrate(h) == 0
    x = RingSpec.hypersurface(4, 5)
    hx = x.ring.generator("H")
    assert integrate(hx ** 3) == 5


def test_monomials_order():
    spec = RingSpec.product([RingSpec.projective(1), RingSpec.projective(1)])
    assert spec.monomials() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert RingSpec.projective(2).monomials() == [(0,), (1,), (2,)]


@pytest.mark.parametrize("n", range(2, 9))
def test_projection_formula(n):
    # integral over X of x * (restriction of H^b) equals the ambient integral
    # of push(x) * H^b, for every basis monomial pair; the inclusion pushes
    # H^a forward to l * H^(a+1)
    for l in range(1, n + 2):
        x = RingSpec.hypersurface(n, l)
        amb = RingSpec.projective(n)
        for a in range(n):
            xa = x.ring.monomial((a,), 1)
            for b in range(n + 1):
                lhs = integrate(xa * x.ring.monomial((b,), 1))
                hb = amb.ring.monomial((b,), 1)
                rhs = integrate(amb.ring.monomial((a + 1,), l) * hb)
                assert lhs == rhs, (n, l, a, b)


def test_embed_product():
    # j_product places each factor's classes at its generator offset:
    # F_1 of P^1 is t^-2 - 2H t^-3, F_1 of P^2 is t^-3 - 3H t^-4 + 6H^2 t^-5
    jj = j_product(j_projective(1, 1), j_projective(2, 1))
    ring = jj.ring_spec.ring
    assert jj.coefficient((1, 0)) == LaurentClass(ring, {
        -2: ring.one(), -3: ring.monomial((1, 0), -2)})
    assert jj.coefficient((0, 1)) == LaurentClass(ring, {
        -3: ring.one(), -4: ring.monomial((0, 1), -3),
        -5: ring.monomial((0, 2), 6)})


def test_json_round_trip():
    assert RingSpec.projective(4).to_json() == {"kind": "projective", "n": 4}
    assert RingSpec.hypersurface(4, 5).to_json() == {
        "kind": "hypersurface", "n": 4, "l": 5}
    product = RingSpec.product([RingSpec.projective(1),
                                RingSpec.projective(2)])
    assert product.to_json() == {"kind": "product", "components": [
        {"kind": "projective", "n": 1}, {"kind": "projective", "n": 2}]}
    assert product == RingSpec.product([RingSpec.projective(1),
                                        RingSpec.projective(2)])
    assert RingSpec.hypersurface(3, 1) != RingSpec.projective(2)
