"""Univariate polynomials over GF(2^m): the one univariate type.

A polynomial is one Python int.  Coefficient k (a field element, m bits)
sits in bits [k*s, k*s + m) with slot width s = 2m - 1 (`GF.slot`), room
for a product of two field elements; for m = 1 this is the `gf2x` packing
of GF(2)[t].  Addition is xor.  A product is one carry-less `gf2x.mul` of
the packed ints (Kronecker substitution), after which every slot is reduced
modulo the field's modulus at once.  The module functions `mul`, `square`
and `pow` are that one product kernel, on packed ints; the `UPoly` methods
of the same names delegate to them.  Division runs schoolbook on the
packed int, one shift-xor per quotient term against the divisor scaled to
cancel the leading coefficient; the divisor is scaled once per distinct
leading coefficient met, and a gcd makes only its result monic.  Over
GF(2), division and gcd are `gf2x`'s own.  The fractions of `scalars` and
the plane-curve univariates of `plane` (root finding, gcds of
restrictions) use this type; the witness computation of `isomorphisms`
calls the kernel on packed ints and wraps a `UPoly` only where it divides.
"""

from __future__ import annotations

from functools import cache

from . import gf2x
from .finitefield import GF


@cache
def _ones(width: int, n: int) -> int:
    """One bit at the base of each of n width-bit slots."""
    return ((1 << (n * width)) - 1) // ((1 << width) - 1)


def _reduce(gf: GF, p: int) -> int:
    """Reduce every slot of a carry-less product modulo the modulus."""
    m = gf.m
    if m == 1:  # GF(2) needs no slot reduction
        return p
    ones = _ones(gf.slot, p.bit_length() // gf.slot + 1)
    for k in range(2 * m - 2, m - 1, -1):
        # one bit at the base of each slot with bit k set, times the
        # modulus: copies that do not overlap, so the product is a xor
        p ^= ((p >> k) & ones) * (gf.modulus << (k - m))
    return p


def mul(gf: GF, a: int, b: int) -> int:
    """Product of two packed polynomials."""
    return _reduce(gf, gf2x.mul(a, b))


def square(gf: GF, a: int) -> int:
    """Square of a packed polynomial (char 2: the coefficients squared at
    doubled degrees)."""
    return _reduce(gf, gf2x.square(a))


def pow(gf: GF, a: int, e: int) -> int:
    """a^e of a packed polynomial, by squaring (e >= 0)."""
    if e < 0:
        raise ValueError("negative power of a UPoly")
    r = None
    while e:
        if e & 1:
            r = a if r is None else mul(gf, r, a)
        e >>= 1
        if e:
            a = square(gf, a)
    return 1 if r is None else r


def _lc(gf: GF, c: int) -> int:
    """Leading coefficient of a nonzero packed polynomial."""
    s = gf.slot
    return c >> ((c.bit_length() - 1) // s * s)


def _divmod(gf: GF, a: int, b: int) -> tuple[int, int]:
    """Schoolbook division by a nonzero b: quotient and remainder.  The
    divisor is scaled once per distinct leading coefficient x met, to the
    multiple (x / lc(b)) b whose leading coefficient cancels x."""
    s, mask = gf.slot, gf.q - 1
    top = (b.bit_length() - 1) // s * s
    lc = b >> top
    inv = gf.inv(lc)
    scaled = {lc: (1, b)}
    q = 0
    while a.bit_length() > top:
        lead = (a.bit_length() - 1) // s * s
        x = (a >> lead) & mask
        hit = scaled.get(x)
        if hit is None:
            y = gf.mul(x, inv)
            hit = scaled[x] = (y, mul(gf, b, y))
        y, bx = hit
        sh = lead - top
        q |= y << sh
        a ^= bx << sh
    return q, a


class UPoly:
    __slots__ = ("gf", "c")

    def __init__(self, gf: GF, c: int):
        self.gf = gf
        self.c = c      # packed coefficients, see the module docstring

    # ----- constructors ------------------------------------------------

    @classmethod
    def zero(cls, gf: GF) -> "UPoly":
        return cls(gf, 0)

    @classmethod
    def one(cls, gf: GF) -> "UPoly":
        return cls(gf, 1)

    @classmethod
    def t(cls, gf: GF) -> "UPoly":
        return cls(gf, 1 << gf.slot)

    @classmethod
    def const(cls, gf: GF, c: int) -> "UPoly":
        return cls.from_coeffs(gf, (c,))

    @classmethod
    def from_coeffs(cls, gf: GF, coeffs) -> "UPoly":
        """Build from field elements (ints) listed by ascending degree."""
        s, mask = gf.slot, gf.q - 1
        c = 0
        for x in reversed(coeffs):
            c = c << s | x & mask
        return cls(gf, c)

    # ----- structure ---------------------------------------------------

    def deg(self) -> int:
        return (self.c.bit_length() - 1) // self.gf.slot

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def coeff(self, k: int) -> int:
        return (self.c >> (k * self.gf.slot)) & (self.gf.q - 1)

    def lc(self) -> int:
        return _lc(self.gf, self.c) if self.c else 0

    def to_coeffs(self) -> list[int]:
        c, s, mask = self.c, self.gf.slot, self.gf.q - 1
        return [(c >> (k * s)) & mask for k in range(self.deg() + 1)]

    def is_constant(self) -> bool:
        return self.deg() <= 0

    # ----- arithmetic ----------------------------------------------------

    def __add__(self, other: "UPoly") -> "UPoly":
        return UPoly(self.gf, self.c ^ other.c)

    __sub__ = __add__  # char 2

    def __mul__(self, other: "UPoly") -> "UPoly":
        return UPoly(self.gf, mul(self.gf, self.c, other.c))

    def scalar_mul(self, c: int) -> "UPoly":
        """Multiply by a field element."""
        if c == 1:
            return self
        return UPoly(self.gf, mul(self.gf, self.c, c))

    def square(self) -> "UPoly":
        return UPoly(self.gf, square(self.gf, self.c))

    def divmod(self, b: "UPoly") -> tuple["UPoly", "UPoly"]:
        gf = self.gf
        if not b.c:
            raise ZeroDivisionError("UPoly division by zero")
        if gf.m == 1:
            q, r = gf2x.divmod_(self.c, b.c)
        else:
            q, r = _divmod(gf, self.c, b.c)
        return UPoly(gf, q), UPoly(gf, r)

    def mod(self, b: "UPoly") -> "UPoly":
        return self.divmod(b)[1]

    def exact_div(self, b: "UPoly") -> "UPoly":
        q, r = self.divmod(b)
        if r:
            raise ValueError("inexact UPoly division")
        return q

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic gcd; 1 at once when an operand is a nonzero constant."""
        gf = self.gf
        a, b, s = self.c, other.c, gf.slot
        if (a and not a >> s) or (b and not b >> s):
            return UPoly.one(gf)
        if gf.m == 1:
            return UPoly(gf, gf2x.gcd(a, b))
        while b:
            a, b = b, _divmod(gf, a, b)[1]
        g = UPoly(gf, a)
        return g.scalar_mul(gf.inv(_lc(gf, a))) if a else g

    def pow(self, e: int) -> "UPoly":
        return UPoly(self.gf, pow(self.gf, self.c, e))

    # ----- char-2 squares -----------------------------------------------

    def is_square(self) -> bool:
        """Even-support test: over a perfect coefficient field this is exact.
        The mask covers the odd slots (bits 1, 3, 5, ... at m = 1)."""
        gf = self.gf
        w = 2 * gf.slot
        odd = _ones(w, self.c.bit_length() // w + 1) * ((gf.q - 1) << gf.slot)
        return not self.c & odd

    def sqrt(self) -> "UPoly":
        if not self.is_square():
            raise ValueError("not a square in GF(2^m)[t]")
        gf = self.gf
        return UPoly.from_coeffs(
            gf, [gf.sqrt(x) for x in self.to_coeffs()[::2]])

    # ----- equality / printing -------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, UPoly) and self.gf is other.gf
                and self.c == other.c)

    def __hash__(self):
        return hash((id(self.gf), self.c))

    def __str__(self):
        if self.is_zero():
            return "0"
        gf = self.gf
        parts = []
        for k in range(self.deg(), -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            if k == 0:
                parts.append(gf.elem_str(c))
                continue
            tk = "t" if k == 1 else f"t^{k}"
            if c == 1:
                parts.append(tk)
            else:
                cs = gf.elem_str(c)
                parts.append(f"({cs})*{tk}" if "+" in cs else f"{cs}*{tk}")
        return "+".join(parts)

    def __repr__(self):
        return f"UPoly({self})"

