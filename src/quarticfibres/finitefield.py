"""Finite fields GF(2^m) with exp/log tables, plus a thin element wrapper.

Field elements travel as plain ints (the coordinate vector of the residue
class in the power basis of the modulus); `GF` owns the arithmetic.  The
`GFElem` wrapper exists so that sparse forms (`MPoly`) can treat
finite-field coefficients and rational-function coefficients uniformly
through operator overloading.  The plane scans, the local equations of
`plane` (charts, blow-ups, tangent cones), the root searches and the
delta invariant and tangent contact of `fibres` run on raw ints and the
tables; `GFElem` is left to forms (`MPoly`, whose divisions confirm the
lines of line peeling) and to the points and components that are
reported.
"""

from __future__ import annotations

from . import gf2x
from .errors import QuarticError


TABLE_LIMIT = 16    # the largest m whose exp/log tables are built


class FieldError(QuarticError, ValueError):
    pass


class GF:
    """The field GF(2^m) = F2[u]/(modulus), elements encoded as ints < 2^m."""

    __slots__ = ("m", "q", "slot", "modulus", "exp", "log", "generator",
                 "_embeddings", "_artin_schreier")

    _cache: dict[tuple[int, int | None], "GF"] = {}

    def __init__(self, m: int, modulus: int | None = None):
        if m < 1:
            raise FieldError("field degree must be >= 1")
        if m > TABLE_LIMIT:  # the exp/log tables hold 2^m entries each
            raise FieldError(f"field degree {m} is above {TABLE_LIMIT}, the"
                             f" largest with exp/log tables")
        if modulus is None:
            modulus = gf2x.first_irreducible(m)
        if gf2x.deg(modulus) != m or not gf2x.is_irreducible(modulus):
            raise FieldError(f"modulus of degree {gf2x.deg(modulus)} is not"
                             f" irreducible of degree {m}")
        self.m = m
        self.q = 1 << m
        self.slot = 2 * m - 1   # bits per coefficient of a packed UPoly
        self.modulus = modulus
        self._build_tables()
        self._embeddings = {}
        self._artin_schreier = None

    @classmethod
    def get(cls, m: int, modulus: int | None = None) -> "GF":
        """The cached field; the default modulus and the same modulus given
        explicitly yield one instance, since elements compare fields by
        identity."""
        f = cls._cache.get((m, modulus))
        if f is None:
            f = cls(m, modulus)
            f = cls._cache.setdefault((m, f.modulus), f)
            cls._cache[(m, modulus)] = f
        return f

    def _build_tables(self):
        q = self.q
        if q == 2:
            self.generator = 1
            self.exp = [1]
            self.log = [0, 0]  # log[0] unused
            return
        for cand in range(2, q):
            seen = 1
            x = cand
            while x != 1:
                x = gf2x.mod(gf2x.mul(x, cand), self.modulus)
                seen += 1
                if seen > q:  # pragma: no cover - defensive
                    raise FieldError("modulus is not irreducible")
            if seen == q - 1:
                self.generator = cand
                break
        else:  # pragma: no cover - every finite field has a generator
            raise FieldError("no multiplicative generator found")
        exp = [1] * (q - 1)
        log = [0] * q
        x = 1
        for k in range(q - 1):
            exp[k] = x
            log[x] = k
            x = gf2x.mod(gf2x.mul(x, self.generator), self.modulus)
        self.exp = exp
        self.log = log

    # ----- arithmetic on raw ints ------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by 0 in GF")
        if a == 0:
            return 0
        return self.exp[(self.log[a] - self.log[b]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def sqrt(self, a: int) -> int:
        """Unique square root: the inverse of the Frobenius bijection."""
        if a == 0:
            return 0
        return self.exp[(self.log[a] << (self.m - 1)) % (self.q - 1)]

    def fourth_root(self, a: int) -> int:
        return self.sqrt(self.sqrt(a))

    def artin_schreier(self) -> list:
        """Entry b is the root y of Y^2 + Y = b with bit 0 clear (the
        other root is y ^ 1), or None when there is none, i.e. when b has
        trace 1.  Built on first use, once per field."""
        table = self._artin_schreier
        if table is None:
            table = self._artin_schreier = [None] * self.q
            for y in range(0, self.q, 2):
                table[self.mul(y, y) ^ y] = y
        return table

    def reduce(self, a: int) -> int:
        return gf2x.mod(a, self.modulus)

    # ----- embeddings -------------------------------------------------

    def embedding_into(self, big: "GF") -> list[int]:
        """Image table of the field embedding GF(2^m) -> GF(2^M), m | M."""
        if big.m % self.m:
            raise FieldError(f"GF(2^{self.m}) does not embed into GF(2^{big.m})")
        cached = self._embeddings.get((big.m, big.modulus))
        if cached is not None:
            return cached
        root = None
        for e in range(big.q):
            acc = 0
            for k in range(gf2x.deg(self.modulus), -1, -1):
                acc = big.mul(acc, e) ^ ((self.modulus >> k) & 1)
            if acc == 0:
                root = e
                break
        if root is None:  # pragma: no cover - subfields always embed
            raise FieldError("no root of modulus in extension")
        pows = [1]
        for _ in range(self.m - 1):
            pows.append(big.mul(pows[-1], root))
        table = []
        for a in range(self.q):
            img = 0
            for k in range(self.m):
                if (a >> k) & 1:
                    img ^= pows[k]
            table.append(img)
        self._embeddings[(big.m, big.modulus)] = table
        return table

    # ----- printing ---------------------------------------------------

    def elem_str(self, a: int) -> str:
        """Print as a polynomial in the generator symbol g (e.g. "g^2+g+1")."""
        if a == 0:
            return "0"
        parts = []
        for k in range(a.bit_length() - 1, -1, -1):
            if (a >> k) & 1:
                parts.append("1" if k == 0 else ("g" if k == 1 else f"g^{k}"))
        return "+".join(parts)

    def __repr__(self):
        return f"GF(2^{self.m})"

    def __reduce__(self):  # keep the cache canonical across pickling
        return (GF.get, (self.m, self.modulus))

    # coefficient-domain hooks shared with the K domain (see scalars.KDomain)
    def zero_elem(self) -> "GFElem":
        return GFElem(self, 0)

    def one_elem(self) -> "GFElem":
        return GFElem(self, 1)

    def elem(self, v: int) -> "GFElem":
        return GFElem(self, self.reduce(v))

    def algebra_gen(self) -> int:
        """Value of the symbol g: the residue class of the modulus variable.

        Printing expands elements in the power basis of this class, so the
        parser must use the same element (not the multiplicative generator,
        which differs for non-primitive moduli).
        """
        return self.reduce(2) if self.m > 1 else 1


class GFElem:
    """A GF(2^m) element carrying its field, for generic ring code."""

    __slots__ = ("gf", "v")

    def __init__(self, gf: GF, v: int):
        self.gf = gf
        self.v = v

    def __bool__(self):
        return self.v != 0

    def __add__(self, other):
        return GFElem(self.gf, self.v ^ other.v)

    __sub__ = __add__  # char 2

    def __mul__(self, other):
        return GFElem(self.gf, self.gf.mul(self.v, other.v))

    def __truediv__(self, other):
        return GFElem(self.gf, self.gf.div(self.v, other.v))

    def __pow__(self, e: int):
        return GFElem(self.gf, self.gf.pow(self.v, e))

    def square(self) -> "GFElem":
        return GFElem(self.gf, self.gf.mul(self.v, self.v))

    def __eq__(self, other):
        return isinstance(other, GFElem) and self.v == other.v and self.gf is other.gf

    def __hash__(self):
        return hash((id(self.gf), self.v))

    def is_square(self) -> bool:
        return True  # Frobenius is onto in a finite field

    def sqrt(self) -> "GFElem":
        return GFElem(self.gf, self.gf.sqrt(self.v))

    def fourth_root(self) -> "GFElem":
        return GFElem(self.gf, self.gf.fourth_root(self.v))

    def __str__(self):
        return self.gf.elem_str(self.v)

    def __repr__(self):
        return f"GFElem({self.gf!r}, {self})"


class FieldSpec:
    """Choice of coefficient field GF(2^m), with an optional modulus.

    The modulus is a bit-packed polynomial over F2 (bit k = coefficient of
    u^k).  When omitted, the lexicographically smallest irreducible of the
    right degree is used, so ``FieldSpec(1)`` is plain F2.
    """

    __slots__ = ("m", "modulus")

    def __init__(self, m: int = 1, modulus: int | None = None):
        self.m = m
        self.modulus = modulus

    def field(self) -> GF:
        return GF.get(self.m, self.modulus)

    def describe(self) -> dict:
        gf = self.field()
        return {"m": self.m, "q": gf.q,
                "modulus": _modulus_str(gf.modulus)}

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and self.field() is other.field())

    def __hash__(self):
        return hash(id(self.field()))

    def __repr__(self):
        return f"FieldSpec(m={self.m}, modulus={_modulus_str(self.field().modulus)!r})"


def _modulus_str(p: int) -> str:
    parts = []
    for k in range(p.bit_length() - 1, -1, -1):
        if (p >> k) & 1:
            parts.append("1" if k == 0 else ("u" if k == 1 else f"u^{k}"))
    return "+".join(parts) if parts else "0"
