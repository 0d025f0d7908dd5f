"""Canonical text encoding round-trips."""

from fractions import Fraction

from resloc.fmt import (fmt_fraction, fmt_tuple, laurent_to_json, parse_tuple,
                        scalar_series_to_json)
from resloc.laurent import LaurentClass
from resloc.qseries import QSeries
from resloc.ring import Ring


def test_fraction_round_trip():
    for x in [Fraction(0), Fraction(3), Fraction(-5, 7), Fraction(22, 4)]:
        s = fmt_fraction(x)
        assert "/" not in s or x.denominator != 1
        assert Fraction(s) == x
    assert fmt_fraction(Fraction(22, 4)) == "11/2"
    assert fmt_fraction(5) == "5"


def test_tuple_round_trip():
    for t in [(), (0,), (1, 2), (3, 0, 4)]:
        assert parse_tuple(fmt_tuple(t)) == t
    assert fmt_tuple((1, 2)) == "1,2"
    assert parse_tuple(" 1,2 ") == (1, 2)


def test_laurent_json():
    ring = Ring(("H",), (3,))
    h = LaurentClass.from_coh(ring.generator("H"))
    lc = h.shift(-2) * Fraction(3, 2) + LaurentClass.t_power(ring, 1, -4)
    data = laurent_to_json(lc)
    assert data == {"-2": {"1": "3/2"}, "1": {"0": "-4"}}


def test_scalar_series_json():
    ring = Ring(("H",), (2,))
    qs = QSeries(ring, 1, 3, {
        (1,): LaurentClass.t_power(ring, 0, Fraction(-1, 2)),
        (3,): LaurentClass.t_power(ring, 0, 7),
    })
    assert scalar_series_to_json(qs) == {"1": "-1/2", "3": "7"}
