"""Univariate polynomials over GF(2^m): the one univariate type.

For m = 1 a polynomial is a single int in the `gf2x` packing (bit k holds
the coefficient of t^k), so arithmetic is shift/xor on Python big ints;
this is the hot case for the rational function field F2(t).  For m > 1 it
is the sequence of its coefficients, ascending, with no trailing zeros.  A
product packs both sequences into byte-aligned slots of one integer each
(Kronecker substitution), makes one carry-less `gf2x.mul` and reduces
every slot modulo the field's modulus at once; division and gcds run
schoolbook loops through the field's log tables.  Both the fractions of
`scalars` and the plane-curve univariates of `plane` (root finding, gcds
of restrictions) use this type.
"""

from __future__ import annotations

import struct

from . import gf2x
from .finitefield import GF


def _pack(gf: GF, cs):
    """Coefficients as bytes while each fits in one (m <= 8), else as a
    tuple.  Bytes keep long polynomials within Python's small-object
    allocator; long tuples go to the system allocator, whose heap then
    fragments: resident memory grew with every witness replay over F_4(t).
    """
    return bytes(cs) if gf.m <= 8 else tuple(cs)


def _trim(gf: GF, cs):
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return _pack(gf, cs[:n])


def _slot_bytes(m: int) -> int:
    """Bytes per slot of a packed coefficient sequence: a power of two
    with room for a product of two elements of GF(2^m), 2m-1 bits."""
    w = 1
    while 8 * w < 2 * m - 1:
        w *= 2
    return w


_SLOT_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}
_SLOT_ONE = {w: (1).to_bytes(w, "little") for w in _SLOT_FORMAT}


def _to_int(cs, w: int) -> int:
    """Coefficient k in the w-byte slot k of one integer."""
    if w == 1:  # m <= 4: cs is already bytes
        return int.from_bytes(cs, "little")
    return int.from_bytes(struct.pack(f"<{len(cs)}{_SLOT_FORMAT[w]}", *cs),
                          "little")


def _from_int(p: int, n: int, w: int, m: int):
    """The n reduced slots of p back in the storage `_pack` chooses."""
    raw = p.to_bytes(n * w, "little")
    if m <= 8:
        return raw[::w]
    return struct.unpack(f"<{n}{_SLOT_FORMAT[w]}", raw)


def _divmod(gf: GF, a, b) -> tuple[list, list]:
    """Schoolbook division of coefficient sequences over GF(2^m), m > 1,
    with b trimmed and nonzero: the quotient and the trimmed remainder."""
    db = len(b) - 1
    log, exp, n = gf.log, gf.exp, gf.q - 1
    linv = -log[b[-1]]
    lb = [(j, log[y]) for j, y in enumerate(b[:-1]) if y]
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        x = r[k + db]
        if x:
            lq = (log[x] + linv) % n
            q[k] = exp[lq]
            for j, ly in lb:
                r[k + j] ^= exp[(lq + ly) % n]
    del r[db:]
    while r and not r[-1]:
        r.pop()
    return q, r


class UPoly:
    __slots__ = ("gf", "c")

    def __init__(self, gf: GF, c):
        self.gf = gf
        self.c = c      # gf2x int when gf.m == 1, else trimmed (see _pack)

    # ----- constructors ------------------------------------------------

    @classmethod
    def zero(cls, gf: GF) -> "UPoly":
        return cls(gf, 0) if gf.m == 1 else cls(gf, _pack(gf, ()))

    @classmethod
    def one(cls, gf: GF) -> "UPoly":
        return cls(gf, 1) if gf.m == 1 else cls(gf, _pack(gf, (1,)))

    @classmethod
    def t(cls, gf: GF) -> "UPoly":
        return cls(gf, 2) if gf.m == 1 else cls(gf, _pack(gf, (0, 1)))

    @classmethod
    def const(cls, gf: GF, c: int) -> "UPoly":
        return cls.from_coeffs(gf, (c,))

    @classmethod
    def from_coeffs(cls, gf: GF, coeffs) -> "UPoly":
        """Build from field elements (ints) listed by ascending degree."""
        if gf.m == 1:
            return cls(gf, sum(1 << k for k, c in enumerate(coeffs) if c & 1))
        return cls(gf, _trim(gf, tuple(coeffs)))

    # ----- structure ---------------------------------------------------

    def deg(self) -> int:
        if self.gf.m == 1:
            return self.c.bit_length() - 1
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def coeff(self, k: int) -> int:
        if self.gf.m == 1:
            return (self.c >> k) & 1
        return self.c[k] if k < len(self.c) else 0

    def lc(self) -> int:
        return self.coeff(self.deg()) if self.c else 0

    def to_coeffs(self) -> list[int]:
        if self.gf.m == 1:
            return [self.coeff(k) for k in range(self.deg() + 1)]
        return list(self.c)

    def is_constant(self) -> bool:
        return self.deg() <= 0

    # ----- arithmetic ----------------------------------------------------

    def __add__(self, other: "UPoly") -> "UPoly":
        a, b = self.c, other.c
        if self.gf.m == 1:
            return UPoly(self.gf, a ^ b)
        if len(a) < len(b):
            a, b = b, a
        s = [x ^ y for x, y in zip(a, b)]
        if len(a) > len(b):
            return UPoly(self.gf, _pack(self.gf, s + list(a[len(b):])))
        return UPoly(self.gf, _trim(self.gf, s))

    __sub__ = __add__  # char 2

    def __mul__(self, other: "UPoly") -> "UPoly":
        gf = self.gf
        if gf.m == 1:
            return UPoly(gf, gf2x.mul(self.c, other.c))
        a, b = self.c, other.c
        if not a or not b:
            return UPoly.zero(gf)
        # Kronecker substitution: one carry-less product of the packed
        # sequences, each slot then holding a product of degree <= 2m-2
        m, w = gf.m, _slot_bytes(gf.m)
        n = len(a) + len(b) - 1
        p = gf2x.mul(_to_int(a, w), _to_int(b, w))
        ones = int.from_bytes(_SLOT_ONE[w] * n, "little")
        for k in range(2 * m - 2, m - 1, -1):
            # one bit at the base of each slot with bit k set, times the
            # modulus: copies that do not overlap, so the product is a xor
            p ^= ((p >> k) & ones) * (gf.modulus << (k - m))
        # the product of the leading coefficients is nonzero
        return UPoly(gf, _from_int(p, n, w, m))

    def scalar_mul(self, c: int) -> "UPoly":
        """Multiply by a field element."""
        gf = self.gf
        if c == 0:
            return UPoly.zero(gf)
        if c == 1:
            return self
        return UPoly(gf, _pack(gf, [gf.mul(c, x) for x in self.c]))

    def square(self) -> "UPoly":
        gf = self.gf
        if gf.m == 1:
            return UPoly(gf, gf2x.square(self.c))
        out = [0] * (2 * len(self.c) - 1) if self.c else []
        for k, x in enumerate(self.c):
            out[2 * k] = gf.mul(x, x)
        return UPoly(gf, _pack(gf, out))

    def divmod(self, b: "UPoly") -> tuple["UPoly", "UPoly"]:
        gf = self.gf
        if not b.c:
            raise ZeroDivisionError("UPoly division by zero")
        if gf.m == 1:
            q, r = gf2x.divmod_(self.c, b.c)
            return UPoly(gf, q), UPoly(gf, r)
        # the quotient's leading coefficient is lc(self) / lc(b), nonzero
        q, r = _divmod(gf, self.c, b.c)
        return UPoly(gf, _pack(gf, q)), UPoly(gf, _pack(gf, r))

    def mod(self, b: "UPoly") -> "UPoly":
        return self.divmod(b)[1]

    def exact_div(self, b: "UPoly") -> "UPoly":
        q, r = self.divmod(b)
        if r:
            raise ValueError("inexact UPoly division")
        return q

    def gcd(self, other: "UPoly") -> "UPoly":
        """Monic gcd."""
        gf = self.gf
        if gf.m == 1:
            return UPoly(gf, gf2x.gcd(self.c, other.c))
        a, b = self.c, other.c
        while b:
            a, b = b, _divmod(gf, a, b)[1]
        if a and a[-1] != 1:
            inv = gf.inv(a[-1])
            a = [gf.mul(inv, x) for x in a]
        return UPoly(gf, _pack(gf, a))

    def pow(self, e: int) -> "UPoly":
        if e < 0:
            raise ValueError("negative power of a UPoly")
        r = UPoly.one(self.gf)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b.square()
            e >>= 1
        return r

    def eval(self, x: int) -> int:
        """Horner evaluation at a field element."""
        gf = self.gf
        acc = 0
        for c in reversed(self.to_coeffs()):
            acc = gf.mul(acc, x) ^ c
        return acc

    # ----- char-2 squares -----------------------------------------------

    def is_square(self) -> bool:
        """Even-support test: over a perfect coefficient field this is exact."""
        if self.gf.m == 1:
            return gf2x.is_square(self.c)
        return not any(self.c[1::2])

    def sqrt(self) -> "UPoly":
        gf = self.gf
        if gf.m == 1:
            return UPoly(gf, gf2x.sqrt(self.c))
        if not self.is_square():
            raise ValueError("not a square in GF(2^m)[t]")
        return UPoly(gf, _pack(gf, [gf.sqrt(x) for x in self.c[::2]]))

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


class UPolyDomain:
    """Coefficient-domain adapter for sparse forms over GF(2^m)[t]
    (mirrors `scalars.KDomain`)."""

    __slots__ = ("gf",)

    def __init__(self, gf: GF):
        self.gf = gf

    def zero_elem(self) -> UPoly:
        return UPoly.zero(self.gf)

    def one_elem(self) -> UPoly:
        return UPoly.one(self.gf)
