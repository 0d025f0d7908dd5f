"""Command-line surface: parse requests, run pipelines, emit tables.

Every report is deterministic: stable key ordering, canonical "p/q" rational
printing, no timestamps.  Exit status 0 on success, 2 on usage problems
(including malformed or asymmetric tau input), 3 on mathematical failures
raised by the engine.
"""

import argparse
import csv
import functools
import itertools
import json
import os
import sys
from math import gcd

from .errors import (NotSymmetric, RepeatedWeight, ReslocError,
                     TauSyntaxError)
from .fmt import fmt_fraction, fmt_tuple, parse_tuple
from .jfun import (i_function, j_product, j_projective, mirror_normalize,
                   pull_to_hypersurface)
from .reconstruct import qh_relation, quantum_mult_matrix, reconstruct_two_point
from .schubert import (default_weight_samples, fiberdim, flag_band,
                       flag_pushforward_extract, grassmann_integral_residue,
                       suggested_sample_count, verify_grassmann_pushforward)
from .sympoly import schur_integral_oracle
from .tau_parser import parse_tau

DEFAULT_MAX_ORDER = 5


class UsageError(Exception):
    pass


def _default_order():
    raw = os.environ.get("RESLOC_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise UsageError("RESLOC_MAX_ORDER must be an integer, got %r" % raw)
    if value < 0:
        raise UsageError("RESLOC_MAX_ORDER must be >= 0")
    return value


@functools.cache
def _build_parser():
    # built on the first run and reused: parse_args keeps no state between
    # calls, and building all six subparsers costs more than a small query
    parser = argparse.ArgumentParser(
        prog="resloc",
        description="Exact Schubert calculus and genus-0 Gromov-Witten "
                    "computations via residue formulas.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table", help="output format")

    p = sub.add_parser("schubert", help="integrate a symmetric polynomial "
                                        "over the Grassmannian G(m, n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True,
                   help="symmetric polynomial in q1..qm")
    add_format(p)

    p = sub.add_parser("flag-table", help="extract the flag pushforward "
                                          "table pi(zeta^A)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    weights = p.add_mutually_exclusive_group()
    weights.add_argument("--weights", action="append", default=None,
                         metavar="W0,W1,...",
                         help="weight sample (repeatable); default: "
                              "generated; write a sample that starts with a "
                              "minus sign as --weights=-5,7")
    weights.add_argument("--samples", type=int, default=None,
                         help="number of generated weight samples")
    p.add_argument("--verify-tau", default=None, metavar="EXPR",
                   help="also check the table at a held-out weight and this "
                        "class's integral against the Schur oracle")
    p.add_argument("--experimental", action="store_true",
                   help="accepted and ignored: --verify-tau works "
                        "at every m")
    add_format(p)

    p = sub.add_parser("jfun", help="J-function coefficients of P^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    add_format(p)

    p = sub.add_parser("lefschetz", help="mirror transformation for a "
                                         "degree-l hypersurface in P^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    add_format(p)

    p = sub.add_parser("invariants", help="2-point Gromov-Witten invariants")
    p.add_argument("--target", choices=("Pn", "hypersurface", "P1xP1"),
                   required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    add_format(p)

    p = sub.add_parser("qh", help="small quantum cohomology ring relation")
    p.add_argument("--target", choices=("Pn", "hypersurface", "P1xP1"),
                   required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--divisor", type=int, default=None,
                   help="generator index (default: all generators)")
    add_format(p)

    return parser


def _emit(fmt, header, rows, payload, table_rows=None):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in (table_rows if table_rows is not None
                     else [" ".join(header)] + [" ".join(r) for r in rows]):
            print(line)


def _max_degree(args):
    d = args.max_degree if args.max_degree is not None else _default_order()
    if d < 0:
        raise UsageError("--max-degree must be >= 0")
    return d


def _run_schubert(args):
    if args.m < 1 or args.n <= args.m:
        raise UsageError("need 1 <= m < n")
    tau = parse_tau(args.tau, args.m)
    if args.m == 2:
        value = grassmann_integral_residue(args.n, tau)
    else:
        value = schur_integral_oracle(args.m, args.n, tau)
    rows = [[fmt_fraction(value)]]
    payload = {"m": args.m, "n": args.n, "tau": args.tau,
               "value": fmt_fraction(value)}
    _emit(args.format, ["value"], rows, payload)


def _parse_weight_samples(args):
    if args.weights is None:
        return None
    samples = []
    for raw in args.weights:
        try:
            w = parse_tuple(raw)
        except ValueError:
            raise UsageError("bad weight sample %r" % raw)
        if len(w) != args.m:
            raise UsageError("weight sample %r has %d entries, expected %d"
                             % (raw, len(w), args.m))
        samples.append(w)
    return samples


def _weight_shape(w):
    """Sorted gaps of w over their gcd, up to reversal: the localization
    identity at w is unchanged by a shift, a nonzero scale or a reordering."""
    gaps = [b - a for a, b in itertools.pairwise(sorted(w))]
    g = gcd(*gaps)
    return min(tuple(d // g for d in gaps), tuple(d // g for d in gaps[::-1]))


def _held_out_weight(m, used):
    """The first default sample whose shape no used sample has; the default
    samples' shapes differ, so one of len(used) + 1 is free."""
    # every m = 2 weight has the shape (1,) and adds no equation: there,
    # take the first default sample not used
    key = _weight_shape if m > 2 else tuple
    shapes = set(map(key, used))
    return next(w for w in default_weight_samples(m, len(used) + 1)
                if key(w) not in shapes)


def _run_flag_table(args):
    if args.m < 2 or args.n <= args.m:
        raise UsageError("need 2 <= m < n")
    samples = _parse_weight_samples(args)
    if args.samples is not None:
        if args.samples < 1:
            raise UsageError("--samples must be >= 1")
        samples = default_weight_samples(args.m, args.samples)
    if args.verify_tau is not None:
        tau = parse_tau(args.verify_tau, args.m)
    ztable = flag_pushforward_extract(args.m, args.n, samples)
    verified = None
    if args.verify_tau is not None:
        # the identity holds by construction at the samples: hold one out
        used = samples or default_weight_samples(
            args.m, suggested_sample_count(args.m, args.n))
        w = _held_out_weight(args.m, used)
        verified = verify_grassmann_pushforward(args.m, args.n, tau, w, ztable)
    rows = []
    entries_json = {}
    for a_exps in sorted(ztable.entries):
        coh = ztable.entries[a_exps]
        key = fmt_tuple(a_exps)
        body = {}
        for (b,) in sorted(coh.coeffs):
            v = coh.coeffs[(b,)]
            rows.append([key, str(b), fmt_fraction(v)])
            body[str(b)] = fmt_fraction(v)
        entries_json[key] = body
    payload = {"m": args.m, "n": args.n, "fiberdim": fiberdim(args.m, args.n),
               "band": flag_band(args.m, args.n), "entries": entries_json}
    table_rows = [" ".join(["zeta", "h", "value"])]
    table_rows += [" ".join(r) for r in rows]
    if verified is not None:
        payload["verified"] = verified
        table_rows.append("verified %s" % ("true" if verified else "false"))
        rows.append(["verified", "", "true" if verified else "false"])
    _emit(args.format, ["zeta", "h", "value"], rows, payload, table_rows)


def _jfun_rows(jf, series_label=None):
    rows = []
    for d in jf.degrees():
        lc = jf.coefficient(d)
        for j in sorted(lc.terms):
            coh = lc.terms[j]
            for e in sorted(coh.coeffs):
                row = [fmt_tuple(d), str(j), fmt_tuple(e),
                       fmt_fraction(coh.coeffs[e])]
                if series_label is not None:
                    row.insert(0, series_label)
                rows.append(row)
    return rows


def _run_jfun(args):
    if args.n < 1:
        raise UsageError("need n >= 1")
    jf = j_projective(args.n, _max_degree(args))
    _emit(args.format, ["d", "t", "H", "value"], _jfun_rows(jf), jf.to_json())


def _run_lefschetz(args):
    if args.n < 2:
        raise UsageError("need n >= 2")
    if not 1 <= args.l <= args.n + 1:
        raise UsageError("need 1 <= l <= n + 1")
    md = mirror_normalize(i_function(args.n, args.l, _max_degree(args)))
    rows = []
    for label, series in (("a", md.a), ("b", md.b), ("c", md.c)):
        coeffs = series.scalar_coefficients()
        for d in sorted(coeffs):
            if coeffs[d]:
                rows.append([label, fmt_tuple(d), "0", "0",
                             fmt_fraction(coeffs[d])])
    rows.extend(_jfun_rows(md.pushed, "J"))
    _emit(args.format, ["series", "d", "t", "H", "value"], rows, md.to_json())


def _build_table(args):
    d_max = _max_degree(args)
    if args.target == "Pn":
        if args.n is None or args.n < 1:
            raise UsageError("--target Pn needs --n >= 1")
        jf = j_projective(args.n, d_max)
    elif args.target == "hypersurface":
        if args.n is None or args.n < 2:
            raise UsageError("--target hypersurface needs --n >= 2")
        if args.l is None:
            raise UsageError("--target hypersurface needs --l")
        if not 1 <= args.l <= args.n + 1:
            raise UsageError("need 1 <= l <= n + 1")
        md = mirror_normalize(i_function(args.n, args.l, d_max))
        jf = pull_to_hypersurface(md.pushed, args.l)
    else:
        jf = j_product(j_projective(1, d_max), j_projective(1, d_max))
    return reconstruct_two_point(jf)


def _run_invariants(args):
    table = _build_table(args)
    spec = table.ring_spec
    monos = spec.monomials()
    rows = []
    nested = {}
    for d in table.degrees():
        for a in monos:
            for b, v in zip(monos, table.invariant_row(d, a, monos)):
                if not v:
                    continue
                rows.append([fmt_tuple(d), fmt_tuple(a), fmt_tuple(b),
                             fmt_fraction(v)])
                nested.setdefault(fmt_tuple(d), {}) \
                      .setdefault(fmt_tuple(a), {})[fmt_tuple(b)] = \
                    fmt_fraction(v)
    payload = {"ring": spec.to_json(), "D": table.trunc, "invariants": nested}
    _emit(args.format, ["d", "a", "b", "value"], rows, payload)


def _run_qh(args):
    table = _build_table(args)
    spec = table.ring_spec
    ngens = len(spec.ring.gens)
    if args.divisor is None:
        indices = range(ngens)
    else:
        if not 0 <= args.divisor < ngens:
            raise UsageError("--divisor out of range (ring has %d generators)"
                             % ngens)
        indices = [args.divisor]
    rows = []
    relations = []
    for i in indices:
        rel = qh_relation(quantum_mult_matrix(table, i))
        rows.append([spec.ring.gens[i], str(rel)])
        entry = rel.to_json()
        entry["divisor"] = spec.ring.gens[i]
        relations.append(entry)
    payload = {"ring": spec.to_json(), "D": table.trunc,
               "relations": relations}
    table_rows = [r for _, r in rows]
    _emit(args.format, ["divisor", "relation"], rows, payload, table_rows)


_RUNNERS = {
    "schubert": _run_schubert,
    "flag-table": _run_flag_table,
    "jfun": _run_jfun,
    "lefschetz": _run_lefschetz,
    "invariants": _run_invariants,
    "qh": _run_qh,
}


def run(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _RUNNERS[args.command](args)
    except (UsageError, TauSyntaxError, NotSymmetric, RepeatedWeight,
            ValueError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    except ReslocError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
