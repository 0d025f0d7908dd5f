"""Spans around the public functions of each resloc layer.

The tracer wraps functions and methods from outside the package: it finds
every binding of a target (module globals that imported it by name, class
attributes that alias it) and replaces each with one wrapper.  A wrapper
records a span per call, tagged with the id of the job that is running, and
the span's self time is its duration minus the time of its child spans.
Spans are aggregated in memory per (job, span name) and read out at the end.

Names bound outside the package namespaces would escape the patch, so
``install`` then walks every resloc module, class and container attribute
and fails if any still holds an unwrapped target.
"""

import sys
import time
from fractions import Fraction

PACKAGE = "resloc"


def _ring_mul_pairs(args, state, result):
    """Term pairs of CohClass * x: one Fraction multiply-add each."""
    a, b = args[0], args[1]
    if isinstance(b, (int, Fraction)):
        return len(a.coeffs)
    if type(b) is type(a):
        return len(a.coeffs) * len(b.coeffs)
    return 0


def _p_mul_pairs(args, state, result):
    return len(args[0]) * len(args[1])


def _ring_monomials(args, state, result):
    count = 1
    for t in args[0].ring.truncs:
        count *= t
    return count


def _pivots_before(args):
    return len(args[0].pivots)


def _new_pivots(args, state, result):
    return len(args[0].pivots) - state


# (span name, module, attribute, work counter, counter's pre-call probe)
TARGETS = (
    ("cli.run", "cli", "run", None, None),
    ("tau_parser.parse", "tau_parser", "parse_tau", None, None),
    ("sympoly.p_mul", "sympoly", "p_mul", _p_mul_pairs, None),
    ("sympoly.schur_expand", "sympoly", "schur_expand", None, None),
    ("sympoly.oracle", "sympoly", "schur_integral_oracle", None, None),
    ("sympoly.evaluate", "sympoly", "SymPoly.evaluate", None, None),
    ("schubert.euler", "schubert", "flag_fixed_locus_euler", None, None),
    ("schubert.euler", "schubert", "projective_fixed_locus_euler", None, None),
    ("schubert.residue", "schubert", "grassmann_integral_residue", None, None),
    ("schubert.flag_extract", "schubert", "flag_pushforward_extract",
     None, None),
    ("schubert.verify", "schubert", "verify_grassmann_pushforward",
     None, None),
    ("schubert.verify", "schubert", "verify_euler_pushforward_identity",
     None, None),
    ("linalg.add_equation", "linalg", "ExactSolver.add_equation",
     _new_pivots, _pivots_before),
    ("laurent.invert", "laurent", "laurent_invert", _ring_monomials, None),
    ("laurent.mul", "laurent", "LaurentClass.__mul__", None, None),
    ("laurent.add", "laurent", "LaurentClass.__add__", None, None),
    ("ring.mul", "ring", "CohClass.__mul__", _ring_mul_pairs, None),
    ("ring.add", "ring", "CohClass.__add__", None, None),
    ("qseries.mul", "qseries", "QSeries.__mul__", None, None),
    ("qseries.exp", "qseries", "qs_exp", None, None),
    ("qseries.compose", "qseries", "qs_compose", None, None),
    ("jfun.i_function", "jfun", "i_function", None, None),
    ("jfun.j_projective", "jfun", "j_projective", None, None),
    ("jfun.j_product", "jfun", "j_product", None, None),
    ("jfun.mirror_normalize", "jfun", "mirror_normalize", None, None),
    ("jfun.pull_to_hypersurface", "jfun", "pull_to_hypersurface",
     None, None),
    ("reconstruct.two_point", "reconstruct", "reconstruct_two_point",
     None, None),
    ("reconstruct.quantum_mult_matrix", "reconstruct", "quantum_mult_matrix",
     None, None),
    ("reconstruct.qh_relation", "reconstruct", "qh_relation", None, None),
)


class MissedBinding(RuntimeError):
    pass


class Tracer:
    """Aggregated spans per (job id, span name).

    Each record is [calls, total_s, self_s, work, returned]: ``total_s``
    counts only the outermost span of a name, so a function that reaches
    itself again is not timed twice; ``self_s`` sums over all spans;
    ``work`` is the target's counter and ``returned`` the calls that did
    not raise.
    """

    def __init__(self):
        self.job = None
        self.spans = {}
        self._stack = []
        self._depth = {}
        self._patched = []

    def reset(self):
        self.spans = {}

    def _wrap(self, name, fn, work, probe):
        stack = self._stack
        depth = self._depth
        depth[name] = 0
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            state = probe(args) if probe is not None else None
            depth[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                depth[name] -= 1
                key = (tracer.job, name)
                rec = tracer.spans.get(key)
                if rec is None:
                    rec = tracer.spans[key] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[2] += elapsed - child
                if not depth[name]:
                    rec[1] += elapsed
            rec[4] += 1
            if work is not None:
                rec[3] += work(args, state, result)
            return result

        return wrapper

    def _modules(self):
        return [mod for key, mod in sorted(sys.modules.items())
                if mod is not None
                and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def install(self):
        modules = self._modules()
        originals = {}
        for name, mod_name, attr, work, probe in TARGETS:
            mod = sys.modules["%s.%s" % (PACKAGE, mod_name)]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                fn = owner.__dict__[meth]
                wrapped = self._wrap(name, fn, work, probe)
                # aliases such as __rmul__ = __mul__ share the wrapper
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        self._patch(owner, key, fn, wrapped)
            else:
                fn = getattr(mod, attr)
                wrapped = self._wrap(name, fn, work, probe)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, fn, wrapped)
            originals[id(fn)] = "%s.%s" % (mod_name, attr)
        self._check_bindings(modules, originals)

    def _patch(self, owner, key, fn, wrapped):
        setattr(owner, key, wrapped)
        self._patched.append((owner, key, fn))

    def _check_bindings(self, modules, originals):
        """Fail if any reachable resloc binding still holds an original."""
        seen = []
        for m in modules:
            for key, value in vars(m).items():
                seen.append(("%s.%s" % (m.__name__, key), value))
                if isinstance(value, type) and value.__module__.startswith(
                        PACKAGE):
                    for k, v in vars(value).items():
                        seen.append(("%s.%s.%s" % (m.__name__, key, k), v))
        for where, value in list(seen):
            if isinstance(value, dict):
                seen.extend((where, v) for v in value.values())
            elif isinstance(value, (list, tuple, set, frozenset)):
                seen.extend((where, v) for v in value)
        missed = sorted({"%s -> %s" % (where, originals[id(v)])
                         for where, v in seen if id(v) in originals})
        if missed:
            self.restore()
            raise MissedBinding("unwrapped bindings: %s" % ", ".join(missed))

    def restore(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def totals(self):
        """{span name: record} summed over jobs."""
        out = {}
        for (_, name), rec in self.spans.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for i, v in enumerate(rec):
                acc[i] += v
        return out

    def span_rows(self):
        return [dict(zip(("job", "span", "calls", "total_s", "self_s",
                          "work", "returned"), key + tuple(rec)))
                for key, rec in sorted(self.spans.items())]
