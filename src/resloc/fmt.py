"""Canonical text encoding of exact values for reports and JSON payloads.

Rationals always print as "p/q" (or "p" when the denominator is 1), never as
decimals.  Exponent and degree tuples join with commas so multi-variable keys
stay readable JSON strings.
"""

from fractions import Fraction


def fmt_fraction(x):
    return str(Fraction(x))


def fmt_tuple(t):
    return ",".join(str(int(x)) for x in t)


def parse_tuple(s):
    s = s.strip()
    if not s:
        return ()
    return tuple(int(p) for p in s.split(","))


def laurent_to_json(lc):
    """{"t_exp": {"exps": "p/q"}} with keys in sorted numeric order."""
    out = {}
    for j in sorted(lc.terms):
        coh = lc.terms[j]
        out[str(j)] = {fmt_tuple(e): fmt_fraction(coh.coeffs[e])
                       for e in sorted(coh.coeffs)}
    return out


def scalar_series_to_json(qs):
    """Scalar q-series as {"d" or "d1,d2": "p/q"} in sorted degree order."""
    coeffs = qs.scalar_coefficients()
    return {fmt_tuple(d): fmt_fraction(v) for d in sorted(coeffs)
            for v in [coeffs[d]] if v}
