"""Sparse multivariate polynomials over an exact coefficient domain.

Coefficients are either `GFElem` or `ScalarK`; both expose the same ring
dunders, so one engine serves ternary forms over finite fields, quartic
models over K = F_q(t), and the tower's breve relations alike.  Term
order is graded reverse lexicographic with earlier entries of `vars`
taking precedence (x > y > z for ternary forms).

Substitution is one loop on plain {exponent: coefficient} dicts,
`substitute_terms`, which takes the coefficient arithmetic as functions:
`MPoly.substitute` passes the ring dunders, and the witness replay of
`isomorphisms` passes the packed GF(q)[t] kernel of `upoly`, so its
coefficients never become objects.
"""

from __future__ import annotations

import operator

from .errors import ZeroDivisor


def grevlex_key(e: tuple[int, ...]):
    return (sum(e), tuple(-e[i] for i in range(len(e) - 1, -1, -1)))


class MPoly:
    __slots__ = ("vars", "domain", "terms")

    def __init__(self, vars: tuple[str, ...], domain, terms: dict):
        self.vars = vars
        self.domain = domain
        self.terms = terms  # exponent tuple -> nonzero coefficient

    # ----- constructors --------------------------------------------------

    @classmethod
    def zero(cls, vars, domain) -> "MPoly":
        return cls(vars, domain, {})

    @classmethod
    def const(cls, vars, domain, c) -> "MPoly":
        if not c:
            return cls.zero(vars, domain)
        return cls(vars, domain, {(0,) * len(vars): c})

    @classmethod
    def var(cls, vars, domain, name: str) -> "MPoly":
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, domain, {tuple(e): domain.one_elem()})

    @classmethod
    def from_terms(cls, vars, domain, items) -> "MPoly":
        terms = {}
        for e, c in items:
            if not c:
                continue
            e = tuple(e)
            if e in terms:
                c = terms[e] + c
                if c:
                    terms[e] = c
                else:
                    del terms[e]
            else:
                terms[e] = c
        return cls(vars, domain, terms)

    # ----- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coeff(self, e: tuple[int, ...]):
        return self.terms.get(tuple(e), self.domain.zero_elem())

    def lead(self) -> tuple[tuple[int, ...], object]:
        e = max(self.terms, key=grevlex_key)
        return e, self.terms[e]

    # ----- arithmetic ----------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = terms[e] + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
            else:
                terms[e] = c
        return MPoly(self.vars, self.domain, terms)

    __sub__ = __add__  # char 2

    def __mul__(self, other: "MPoly") -> "MPoly":
        return MPoly(self.vars, self.domain, _product(
            self.terms, other.terms, operator.mul, operator.add))

    def scale(self, c) -> "MPoly":
        if not c:
            return MPoly.zero(self.vars, self.domain)
        return MPoly(self.vars, self.domain,
                     {e: c * v for e, v in self.terms.items()})

    def mul_monomial(self, e0: tuple[int, ...], c) -> "MPoly":
        if not c:
            return MPoly.zero(self.vars, self.domain)
        return MPoly(self.vars, self.domain,
                     {tuple(a + b for a, b in zip(e, e0)): c * v
                      for e, v in self.terms.items()})

    def square(self) -> "MPoly":
        """Char 2 has no cross terms: square each coefficient at doubled
        exponents."""
        return MPoly(self.vars, self.domain,
                     _square(self.terms, operator.methodcaller("square")))

    def pow(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        r = MPoly.const(self.vars, self.domain, self.domain.one_elem())
        b = self
        while n:
            if n & 1:
                r = r * b
            n >>= 1
            if n:
                b = b.square()
        return r

    # ----- calculus / substitution ------------------------------------------------

    def partial(self, name: str) -> "MPoly":
        """Formal partial derivative; char 2 kills even exponents."""
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] & 1:
                e2 = list(e)
                e2[i] -= 1
                terms[tuple(e2)] = c
        return MPoly(self.vars, self.domain, terms)

    def substitute(self, mapping: dict[str, "MPoly"]) -> "MPoly":
        """Plug polynomials in for variables (unmentioned variables persist)."""
        vars, dom = self.vars, self.domain
        images = [(mapping[name] if name in mapping
                   else MPoly.var(vars, dom, name)).terms for name in vars]
        return MPoly(vars, dom, substitute_terms(
            self.terms, images, operator.mul, operator.add,
            operator.methodcaller("square")))

    def eval_point(self, values: dict, lift=None):
        """Evaluate at a point given as {var: coefficient-like value}.

        `lift` maps a coefficient into the value ring (identity by default).
        """
        vals = [values[name] for name in self.vars]
        acc = None
        for e, c in self.terms.items():
            v = lift(c) if lift else c
            for i, k in enumerate(e):
                for _ in range(k):
                    v = v * vals[i]
            acc = v if acc is None else acc + v
        if acc is None:
            zero = self.domain.zero_elem()
            return lift(zero) if lift else zero
        return acc

    def dehomogenize(self, name: str) -> "MPoly":
        """Set one variable to 1 (chart restriction); keeps the var slot."""
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i] = 0
            e2 = tuple(e2)
            if e2 in terms:
                s = terms[e2] + c
                if s:
                    terms[e2] = s
                else:
                    del terms[e2]
            else:
                terms[e2] = c
        return MPoly(self.vars, self.domain, terms)

    # ----- division ---------------------------------------------------------------

    def divide(self, d: "MPoly") -> "MPoly | None":
        """Exact quotient under grevlex, or None when d does not divide self."""
        if d.is_zero():
            raise ZeroDivisor("division of a form by zero")
        r = MPoly(self.vars, self.domain, dict(self.terms))
        q: dict = {}
        de, dc = d.lead()
        while r.terms:
            e, c = r.lead()
            if any(a < b for a, b in zip(e, de)):
                return None  # single-divisor early abort is sound for exactness
            qe = tuple(a - b for a, b in zip(e, de))
            qc = c / dc
            q[qe] = qc
            r = r + d.mul_monomial(qe, qc)
        return MPoly(self.vars, self.domain, q)

    # ----- equality / printing -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                (name if k == 1 else f"{name}^{k}")
                for name, k in zip(self.vars, e) if k)
            cs = str(c)
            if not mono:
                parts.append(f"({cs})" if needs_parens(cs, "+") else cs)
            elif cs == "1":
                parts.append(mono)
            else:
                if needs_parens(cs):
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        return "+".join(parts)

    def __repr__(self):
        return f"MPoly({self})"


def _product(f: dict, g: dict, mul, add) -> dict:
    """The product of two {exponent: coefficient} polynomials over an
    integral domain (a product of nonzero coefficients is nonzero)."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            p = mul(c1, c2)
            e = tuple(map(operator.add, e1, e2))
            if e in out:
                s = add(out[e], p)
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = p
    return out


def _square(f: dict, square) -> dict:
    """The square of an {exponent: coefficient} polynomial: char 2 has no
    cross terms, so each coefficient is squared at doubled exponents
    (distinct exponents stay distinct, squares stay nonzero)."""
    return {tuple(2 * k for k in e): square(c) for e, c in f.items()}


def substitute_terms(terms: dict, images: list, mul, add, square) -> dict:
    """The one substitution loop: the sum over the terms c v^e of `terms`
    of c prod_i images[i]^e_i, on {exponent tuple: nonzero coefficient}
    dicts over an integral domain.  `mul`, `add` and `square` act on
    coefficients: the ring dunders for `MPoly.substitute`, the packed
    GF(q)[t] kernel of `upoly` with xor for `isomorphisms.verify_iso`.
    The powers of each image are built on first use: a square at even k
    (term by term in char 2), else one more factor."""
    pows = [[None, f] for f in images]
    out = {}
    for e, c in terms.items():
        term = None
        for p, k in zip(pows, e):
            if not k:
                continue
            while len(p) <= k:
                n = len(p)
                p.append(_square(p[n >> 1], square) if n % 2 == 0
                         else _product(p[-1], p[1], mul, add))
            term = ({x: mul(c, v) for x, v in p[k].items()} if term is None
                    else _product(term, p[k], mul, add))
        if term is None:
            term = {(0,) * len(e): c}
        for x, v in term.items():
            if x in out:
                s = add(out[x], v)
                if s:
                    out[x] = s
                else:
                    del out[x]
            else:
                out[x] = v
    return out


def needs_parens(s: str, ops: str = "+/") -> bool:
    """Whether a coefficient string needs parentheses as a factor of a
    product: it has one of `ops` outside parentheses.  Every "/" of a
    `ScalarK` string is outside them."""
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in ops and depth == 0:
            return True
    return False


FORM_VARS = ("x", "y", "z")


def triform(domain, items) -> MPoly:
    """Ternary form builder: items is an iterable of ((i,j,k), coeff)."""
    return MPoly.from_terms(FORM_VARS, domain, items)
