"""Sparse multivariate polynomials over an exact coefficient domain.

Coefficients are either `GFElem` or `ScalarK`; both expose the same ring
dunders, so one engine serves ternary forms over finite fields, quartic
models over K = F_q(t), and the four-variable tower relations alike.  Term
order is graded reverse lexicographic with earlier entries of `vars`
taking precedence (x > y > z for ternary forms).
"""

from __future__ import annotations

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

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=-1)

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
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                p = c1 * c2
                if not p:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                if e in terms:
                    s = terms[e] + p
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
                else:
                    terms[e] = p
        return MPoly(self.vars, self.domain, terms)

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
                b = b * b
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
        vars = self.vars
        # pows[i][k] is the k-th power of the polynomial put in for vars[i],
        # each built from the one below it on first use
        pows = [[None, mapping[name] if name in mapping
                 else MPoly.var(vars, self.domain, name)] for name in vars]

        def terms():
            for e, c in self.terms.items():
                term = MPoly.const(vars, self.domain, c)
                for p, k in zip(pows, e):
                    if k:
                        while len(p) <= k:
                            p.append(p[-1] * p[1])
                        term = term * p[k]
                yield from term.terms.items()
        return MPoly.from_terms(vars, self.domain, terms())

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

    # ----- division / roots -------------------------------------------------------

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

    def square_root(self) -> "MPoly | None":
        """Term-wise char-2 square root, or None when not a perfect square."""
        from .errors import NotASquare
        terms = {}
        for e, c in self.terms.items():
            if any(k & 1 for k in e):
                return None
            try:
                rc = c.sqrt()
            except NotASquare:
                return None
            terms[tuple(k >> 1 for k in e)] = rc
        root = MPoly(self.vars, self.domain, terms)
        if (root * root) + self:
            return None  # pragma: no cover - term-wise root is exact in char 2
        return root

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
                parts.append(f"({cs})" if _top_level_plus(cs) else cs)
            elif cs == "1":
                parts.append(mono)
            else:
                if _top_level_plus(cs) or "/" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        return "+".join(parts)

    def __repr__(self):
        return f"MPoly({self})"


def _top_level_plus(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            return True
    return False


FORM_VARS = ("x", "y", "z")


def triform(domain, items) -> MPoly:
    """Ternary form builder: items is an iterable of ((i,j,k), coeff)."""
    return MPoly.from_terms(FORM_VARS, domain, items)
