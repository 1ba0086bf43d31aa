"""Recursive-descent parser for field elements and ternary forms.

Grammar (whitespace insensitive)::

    expr   := term ('+' term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' INT)?
    atom   := INT | 't' | 'g' | 'x' | 'y' | 'z' | '(' expr ')'

There is no minus sign: the coefficient rings have characteristic 2.
Integer literals reduce mod 2; `g` denotes the residue class of the
modulus variable of GF(2^m) (the class the printer expands in), and `t`
the transcendental of K = F_q(t).  Division is only defined when the
divisor subexpression is scalar (free of x, y, z).

A product, quotient or power whose degree in t, or in x, y and z, could
exceed ``MAX_DEGREE`` is refused with a `ParseError` at its operator
before it is computed, so that a short input such as ``t^1000000000001``
cannot ask for a polynomial that fills the memory.
"""

from __future__ import annotations

from operator import add

from .errors import DivisionByZero, ParseError
from .finitefield import FieldSpec, GFElem
from .mpoly import FORM_VARS, MPoly
from .scalars import KDomain, ScalarK

_SYMBOLS = "+*/^()"

# The package's forms are quartics with parameters of small degree in t;
# 64 leaves room for any such input and keeps every intermediate small.
MAX_DEGREE = 64


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("INT", int(text[i:j]), i))
            i = j
        elif ch in "tgxyz":
            toks.append(("NAME", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("END", None, n))
    return toks


class _Parser:
    """One-shot parser; values are ('s', scalar) or ('p', MPoly) pairs."""

    def __init__(self, text: str, domain, allow_vars: bool, allow_t: bool):
        self.toks = _tokenize(text)
        self.pos = 0
        self.domain = domain
        self.over_k = isinstance(domain, KDomain)
        self.allow_vars = allow_vars
        self.allow_t = allow_t

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # scalar constructors for the active coefficient domain -------------

    def s_int(self, n):
        if self.over_k:
            return ScalarK.const(self.domain.gf, n & 1)
        return self.domain.elem(n & 1)

    def s_gen(self):
        gf = self.domain.gf if self.over_k else self.domain
        if self.over_k:
            return ScalarK.const(gf, gf.algebra_gen())
        return GFElem(gf, gf.algebra_gen())

    # grammar ------------------------------------------------------------

    def expr(self):
        v = self.term()
        while self.peek()[0] == "+":
            self.next()
            v = self._add(v, self.term())
        return v

    def term(self):
        v = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.factor()
            self._bound(pos, *map(add, self._degrees(v), self._degrees(rhs)))
            v = self._mul(v, rhs) if op == "*" else self._div(v, rhs, pos)
        return v

    def factor(self):
        v = self.atom()
        if self.peek()[0] == "^":
            pos = self.next()[2]
            e = self.expect("INT")[1]
            self._bound(pos, *(e * d for d in self._degrees(v)))
            if v[0] == "s":
                return ("s", v[1] ** e)
            return ("p", v[1].pow(e))
        return v

    def atom(self):
        kind, val, pos = self.next()
        if kind == "INT":
            return ("s", self.s_int(val))
        if kind == "NAME":
            if val == "t":
                if not (self.over_k and self.allow_t):
                    raise ParseError("t is not an element of this coefficient field", pos)
                return ("s", ScalarK.t(self.domain.gf))
            if val == "g":
                return ("s", self.s_gen())
            if not self.allow_vars:
                raise ParseError(f"variable {val!r} in a scalar context", pos)
            return ("p", MPoly.var(FORM_VARS, self.domain, val))
        if kind == "(":
            v = self.expr()
            self.expect(")")
            return v
        raise ParseError(f"unexpected token {val!r}", pos)

    # value algebra --------------------------------------------------------

    def _degrees(self, v) -> tuple:
        """The degrees of a value in t and in x, y, z (0 when zero)."""
        f = self._promote(v)
        cs = f.terms.values() if self.over_k else ()
        return (max((max(c.num.deg(), c.den.deg()) for c in cs), default=0),
                max(f.total_degree(), 0))

    def _bound(self, pos, *degrees):
        """Refuse a product or power whose degrees could exceed
        ``MAX_DEGREE``, before it is computed."""
        if max(degrees) > MAX_DEGREE:
            raise ParseError(f"a product above degree {MAX_DEGREE}", pos)

    def _promote(self, v) -> MPoly:
        if v[0] == "p":
            return v[1]
        return MPoly.const(FORM_VARS, self.domain, v[1])

    def _add(self, a, b):
        if a[0] == "s" and b[0] == "s":
            return ("s", a[1] + b[1])
        return ("p", self._promote(a) + self._promote(b))

    def _mul(self, a, b):
        if a[0] == "s" and b[0] == "s":
            return ("s", a[1] * b[1])
        if a[0] == "s":
            return ("p", b[1].scale(a[1]))
        if b[0] == "s":
            return ("p", a[1].scale(b[1]))
        return ("p", a[1] * b[1])

    def _div(self, a, b, pos):
        if b[0] != "s":
            raise ParseError("division by a non-scalar subexpression", pos)
        if not b[1]:
            raise DivisionByZero(f"division by zero at position {pos}")
        if a[0] == "s":
            return ("s", a[1] / b[1])
        if self.over_k:
            return ("p", a[1].scale(b[1].inverse()))
        return ("p", a[1].scale(self.domain.one_elem() / b[1]))

    def run(self):
        v = self.expr()
        kind, val, pos = self.peek()
        if kind != "END":
            raise ParseError(f"trailing input {val!r}", pos)
        return v


def parse_element(text: str, spec: FieldSpec) -> ScalarK:
    """Parse an element of K = F_q(t); the variables x, y, z are rejected."""
    dom = KDomain.get(spec.field())
    v = _Parser(text, dom, allow_vars=False, allow_t=True).run()
    return v[1]


def parse_form(text: str, spec: FieldSpec, over: str = "K") -> MPoly:
    """Parse a ternary polynomial in x, y, z.

    ``over="K"`` gives coefficients in F_q(t); ``over="GF"`` gives plain
    finite-field coefficients (then `t` is rejected).
    """
    if over == "K":
        dom = KDomain.get(spec.field())
        p = _Parser(text, dom, allow_vars=True, allow_t=True)
    elif over == "GF":
        dom = spec.field()
        p = _Parser(text, dom, allow_vars=True, allow_t=False)
    else:
        raise ValueError(f"unknown coefficient domain {over!r}")
    v = p.run()
    return v[1] if v[0] == "p" else MPoly.const(FORM_VARS, dom, v[1])
