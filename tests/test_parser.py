"""Symmetric polynomial expression parser tests."""

import pytest

from resloc.errors import NotSymmetric, TauSyntaxError
from resloc.sympoly import SymPoly, schur_poly, sym_power_top_chern
from resloc.tau_parser import parse_tau


def test_constant():
    p = parse_tau("7", 2)
    assert p.coeffs == {(0, 0): 7}


def test_elementary_expressions():
    assert parse_tau("q1 + q2", 2) == SymPoly(2, schur_poly(2, (1,)))
    assert parse_tau("q1*q2", 2) == SymPoly(2, schur_poly(2, (1, 1)))
    s1_sq = SymPoly(2, schur_poly(2, (2,))) + SymPoly(2, schur_poly(2, (1, 1)))
    assert parse_tau("(q1+q2)^2", 2) == s1_sq


def test_precedence():
    # ^ over * over +; whitespace is ignored
    assert parse_tau("q1^2 + 2*q1*q2 + q2^2", 2) == parse_tau("(q1+q2)^2", 2)
    assert parse_tau("  q1 * q2  ", 2) == parse_tau("q1*q2", 2)
    assert parse_tau("q1^2*q2^2", 2) == parse_tau("(q1*q2)^2", 2)


def test_unary_minus():
    p = parse_tau("-q1*q2 + 2*q1*q2", 2)
    assert p == parse_tau("q1*q2", 2)
    # the leading minus negates the whole first term
    assert parse_tau("-q1*q2", 2) == parse_tau("0 - q1*q2", 2)


def test_repeated_exponent():
    assert parse_tau("(q1*q2)^2^2", 2) == parse_tau("(q1*q2)^4", 2)


def test_sigma():
    assert parse_tau("sigma(2,1)", 3) == SymPoly(3, schur_poly(3, (2, 1)))
    assert parse_tau("sigma(1)", 2) == parse_tau("q1+q2", 2)
    # more rows than variables collapses to zero
    assert parse_tau("sigma(1,1,1)", 2).is_zero()


def test_sigma_invalid_partition():
    with pytest.raises(TauSyntaxError) as exc:
        parse_tau("sigma(1,2)", 2)
    assert exc.value.position == 0


def test_c_top_sym():
    assert parse_tau("c_top_sym(3)", 2) == sym_power_top_chern(3)
    with pytest.raises(TauSyntaxError):
        parse_tau("c_top_sym(3)", 3)
    with pytest.raises(TauSyntaxError):
        parse_tau("c_top_sym(1,2)", 2)
    with pytest.raises(TauSyntaxError):
        parse_tau("c_top_sym(0)", 2)


def test_error_positions():
    cases = [
        ("q1 + ", 5, "expected a value"),
        ("q3", 0, "out of range"),
        ("(q1+q2", 6, "closing parenthesis"),
        ("q1 $ q2", 3, "unexpected character"),
        ("q1 q2", 3, "trailing input"),
        ("q1^x", 3, "integer exponent"),
        ("foo(1)", 0, "unknown name"),
    ]
    for text, pos, fragment in cases:
        with pytest.raises(TauSyntaxError) as exc:
            parse_tau(text, 2)
        assert exc.value.position == pos, text
        assert fragment in str(exc.value), text
        assert "(at position %d)" % pos in str(exc.value), text


def test_deep_nesting_is_a_syntax_error():
    deep = "(" * 200 + "q1+q2" + ")" * 200
    assert parse_tau(deep, 2) == parse_tau("q1+q2", 2)
    with pytest.raises(TauSyntaxError) as exc:
        parse_tau("(" * 1000 + "q1" + ")" * 1000, 2)
    assert "nested too deeply" in str(exc.value)


def test_oversized_sigma_part_is_a_syntax_error():
    with pytest.raises(TauSyntaxError) as exc:
        parse_tau("q1 + sigma(99999999999999999999)", 2)
    assert exc.value.position == 5
    assert "too large" in str(exc.value)


@pytest.mark.parametrize("text,position", [
    ("q1\u00b2*q2\u00b2", 0),         # superscript two is not an exponent
    ("q1 + \u00b2", 5),
    ("\u0661 + q1 + q2", 0),           # Arabic-Indic one is no literal
])
def test_non_ascii_digits_are_syntax_errors(text, position):
    with pytest.raises(TauSyntaxError) as exc:
        parse_tau(text, 2)
    assert exc.value.position == position


@pytest.mark.parametrize("text,position", [
    ("1" * 5000, 0),
    ("q1 + " + "7" * 5000, 5),
    ("q" + "1" * 5000, 1),
], ids=["literal", "second-literal", "variable-index"])
def test_overlong_literal_is_a_syntax_error(text, position):
    with pytest.raises(TauSyntaxError) as exc:
        parse_tau(text, 2)
    assert exc.value.position == position
    assert "too long" in str(exc.value)


def test_not_symmetric_witness():
    with pytest.raises(NotSymmetric) as exc:
        parse_tau("q1", 2)
    assert exc.value.witness == (1, 2)
    with pytest.raises(NotSymmetric):
        parse_tau("q1 + 2*q2", 2)
    # a single variable is trivially symmetric
    assert parse_tau("q1", 1).coeffs == {(1,): 1}


def test_m_validation():
    with pytest.raises(ValueError):
        parse_tau("1", 0)


def test_evaluate_round_trip():
    from resloc.laurent import LaurentClass
    from resloc.ring import Ring
    ring = Ring(("h",), (1,))
    p = parse_tau("q1*q2 + q1 + q2", 2)
    args = (LaurentClass.t_power(ring, 0, 2), LaurentClass.t_power(ring, 0, 3))
    assert p.evaluate(args) == LaurentClass.t_power(ring, 0, 11)
