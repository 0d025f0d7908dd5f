"""Parser for symmetric polynomial input over the Chern roots q1..qm.

Grammar: integer literals in ASCII digits, variables q1..qm, the operators
+ - * ^ with parentheses, and the builtins sigma(partition) (Schur class) and
c_top_sym(l) (two-variable only).  The parsed polynomial is validated for
symmetry, so a lopsided expression fails with a witness transposition.
"""

from .errors import TauSyntaxError
from .ring import poly_add
from .sympoly import (SymPoly, p_const, p_mul, p_neg, p_pow, p_sub, p_var,
                      schur_poly, sym_power_top_chern)

_OPS = "+-*^(),"
_DIGITS = "0123456789"


def _literal(digits, at):
    """int of an ASCII digit string, or TauSyntaxError at its position."""
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter converts
        raise TauSyntaxError("integer literal too long", at)


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", _literal(text[i:j], i), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise TauSyntaxError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, m):
        self.tokens = tokens
        self.pos = 0
        self.m = m

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise TauSyntaxError("expected %s" % what, tok[2])
        return tok

    def parse_expr(self):
        if self.peek()[0] == "-":
            self.advance()
            out = p_neg(self.parse_term())
        else:
            out = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            out = poly_add(out, rhs) if op == "+" else p_sub(out, rhs)
        return out

    def parse_term(self):
        out = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            out = p_mul(out, self.parse_factor())
        return out

    def parse_factor(self):
        out = self.parse_atom()
        while self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int", "a nonnegative integer exponent")
            out = p_pow(out, tok[1], self.m)
        return out

    def parse_atom(self):
        tok = self.advance()
        kind, value, at = tok
        if kind == "int":
            return p_const(self.m, value)
        if kind == "(":
            out = self.parse_expr()
            self.expect(")", "a closing parenthesis")
            return out
        if kind == "name":
            return self.parse_name(value, at)
        raise TauSyntaxError("expected a value", at)

    def parse_name(self, name, at):
        if len(name) > 1 and name[0] == "q" and not name[1:].strip(_DIGITS):
            k = _literal(name[1:], at + 1)
            if not 1 <= k <= self.m:
                raise TauSyntaxError(
                    "variable %s out of range for m = %d" % (name, self.m), at)
            return p_var(self.m, k - 1)
        if name == "sigma":
            parts = self.parse_int_args()
            try:
                return schur_poly(self.m, parts)
            except ValueError as exc:
                raise TauSyntaxError(str(exc), at)
            except OverflowError:
                raise TauSyntaxError("sigma part too large", at)
        if name == "c_top_sym":
            if self.m != 2:
                raise TauSyntaxError("c_top_sym needs m = 2, got m = %d"
                                     % self.m, at)
            args = self.parse_int_args()
            if len(args) != 1:
                raise TauSyntaxError("c_top_sym takes one argument", at)
            try:
                return sym_power_top_chern(args[0]).coeffs
            except ValueError as exc:
                raise TauSyntaxError(str(exc), at)
        raise TauSyntaxError("unknown name %r" % name, at)

    def parse_int_args(self):
        self.expect("(", "an argument list")
        args = [self.expect("int", "an integer argument")[1]]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expect("int", "an integer argument")[1])
        self.expect(")", "a closing parenthesis")
        return args

    def expect_end(self):
        tok = self.peek()
        if tok[0] != "end":
            raise TauSyntaxError("unexpected trailing input", tok[2])


def parse_tau(expr, m):
    """Parse a symmetric polynomial expression in m variables.

    Raises TauSyntaxError with a position for malformed, too deeply nested or
    oversized input and NotSymmetric with a witness for asymmetric input.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    parser = _Parser(_tokenize(expr), m)
    try:
        raw = parser.parse_expr()
    except RecursionError:
        raise TauSyntaxError("expression nested too deeply", parser.peek()[2])
    parser.expect_end()
    return SymPoly(m, raw)
