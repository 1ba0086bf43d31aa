"""The rational function field K = F_q(t): reduced fractions of UPoly.

Every ScalarK is kept in canonical form (gcd(num, den) = 1, den monic,
zero as 0/1), so equality and hashing are structural.  Arithmetic uses the
classical cross-gcd trick: products of canonical fractions only ever need
gcds between a numerator and the *other* denominator.
"""

from __future__ import annotations

from .errors import DivisionByZero, NotASquare
from .finitefield import GF
from .upoly import UPoly


class ScalarK:
    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly, _canonical: bool = False):
        if _canonical:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise DivisionByZero("zero denominator in K")
        if num.is_zero():
            self.num = num
            self.den = UPoly.one(num.gf)
            return
        g = num.gcd(den)
        if g.deg() > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lc = den.lc()
        if lc != 1:
            inv = den.gf.inv(lc)
            num = num.scalar_mul(inv)
            den = den.scalar_mul(inv)
        self.num = num
        self.den = den

    # ----- constructors --------------------------------------------------

    @classmethod
    def zero(cls, gf: GF) -> "ScalarK":
        return cls(UPoly.zero(gf), UPoly.one(gf), _canonical=True)

    @classmethod
    def one(cls, gf: GF) -> "ScalarK":
        return cls(UPoly.one(gf), UPoly.one(gf), _canonical=True)

    @classmethod
    def t(cls, gf: GF) -> "ScalarK":
        return cls(UPoly.t(gf), UPoly.one(gf), _canonical=True)

    @classmethod
    def const(cls, gf: GF, c: int) -> "ScalarK":
        return cls(UPoly.const(gf, c), UPoly.one(gf), _canonical=True)

    # ----- structure ------------------------------------------------------

    @property
    def gf(self) -> GF:
        return self.num.gf

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    # ----- arithmetic ------------------------------------------------------

    def __add__(self, other: "ScalarK") -> "ScalarK":
        if not self:
            return other
        if not other:
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g = d1.gcd(d2)
        if g.deg() > 0:
            d1g = d1.exact_div(g)
            d2g = d2.exact_div(g)
            num = n1 * d2g + n2 * d1g
            den = d1 * d2g
            # only a divisor of g can still be shared
            h = num.gcd(g)
            if h.deg() > 0:
                num = num.exact_div(h)
                den = den.exact_div(h)
            return ScalarK(num, den)
        return ScalarK(n1 * d2 + n2 * d1, d1 * d2)

    __sub__ = __add__  # char 2

    def __mul__(self, other: "ScalarK") -> "ScalarK":
        if not self or not other:
            return ScalarK.zero(self.gf)
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        g1 = n1.gcd(d2)
        if g1.deg() > 0:
            n1 = n1.exact_div(g1)
            d2 = d2.exact_div(g1)
        g2 = n2.gcd(d1)
        if g2.deg() > 0:
            n2 = n2.exact_div(g2)
            d1 = d1.exact_div(g2)
        num = n1 * n2
        den = d1 * d2
        lc = den.lc()
        if lc != 1:
            inv = den.gf.inv(lc)
            num = num.scalar_mul(inv)
            den = den.scalar_mul(inv)
        return ScalarK(num, den, _canonical=True)

    def inverse(self) -> "ScalarK":
        if not self:
            raise DivisionByZero("inverse of 0 in K")
        num, den = self.den, self.num
        lc = den.lc()
        if lc != 1:
            inv = den.gf.inv(lc)
            num = num.scalar_mul(inv)
            den = den.scalar_mul(inv)
        return ScalarK(num, den, _canonical=True)

    def __truediv__(self, other: "ScalarK") -> "ScalarK":
        return self * other.inverse()

    def square(self) -> "ScalarK":
        return ScalarK(self.num.square(), self.den.square(), _canonical=True)

    def __pow__(self, e: int) -> "ScalarK":
        base = self
        if e < 0:
            base = self.inverse()
            e = -e
        r = ScalarK.one(self.gf)
        while e:
            if e & 1:
                r = r * base
            base = base.square()
            e >>= 1
        return r

    # ----- char-2 squares ----------------------------------------------------

    def is_square(self) -> bool:
        """x in K^2 iff num and den both have even support (canonical form)."""
        return self.num.is_square() and self.den.is_square()

    def sqrt(self) -> "ScalarK":
        if not self.is_square():
            raise NotASquare(f"{self} is not a square in K")
        return ScalarK(self.num.sqrt(), self.den.sqrt(), _canonical=True)

    # ----- equality / printing -------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, ScalarK) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        ns = str(self.num)
        if self.den.is_constant():
            return ns
        ds = str(self.den)
        if "+" in ns or "*" in ns:
            ns = f"({ns})"
        if "+" in ds or "*" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"ScalarK({self})"


class KDomain:
    """Coefficient-domain adapter for sparse forms over K (mirrors GF's hooks)."""

    __slots__ = ("gf",)

    _cache: dict[int, "KDomain"] = {}

    def __init__(self, gf: GF):
        self.gf = gf

    @classmethod
    def get(cls, gf: GF) -> "KDomain":
        d = cls._cache.get(id(gf))
        if d is None:
            d = cls(gf)
            cls._cache[id(gf)] = d
        return d

    def zero_elem(self) -> ScalarK:
        return ScalarK.zero(self.gf)

    def one_elem(self) -> ScalarK:
        return ScalarK.one(self.gf)

    def __repr__(self):
        return f"KDomain(F_{self.gf.q}(t))"
