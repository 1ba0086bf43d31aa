"""The degree-4 purely inseparable extension of K = F_q(t).

In characteristic 2 the field K(t^(1/4)) is F_q(s) with s = t^(1/4): a
rational function field over the same F_q, so an element is one reduced
`ScalarK` whose polynomials are read in s, and all arithmetic is
`ScalarK`'s.  The Frobenius gives the maps between the two fields: K sits
inside as the polynomials in s^4, and the fourth root of a polynomial in
t takes the fourth root of each coefficient and keeps the exponents.
Every fourth root that exists over the algebraic closure of K already
lives here, which is what makes singular points of the quartic models
computable without any factorization.  Only printing goes back to the
K-coordinates in the basis 1, s, s^2, s^3.
"""

from __future__ import annotations

from .mpoly import needs_parens
from .scalars import ScalarK
from .upoly import UPoly


def _stretch(p: UPoly) -> UPoly:
    """p(t) read as p(s^4)."""
    coeffs = [0] * (4 * p.deg() + 1)
    coeffs[::4] = p.to_coeffs()
    return UPoly.from_coeffs(p.gf, coeffs)


def _shrink(p: UPoly) -> UPoly:
    """The polynomial in t whose coefficient k is p's coefficient of s^(4k)."""
    return UPoly.from_coeffs(p.gf, p.to_coeffs()[::4])


def _root4(p: UPoly) -> UPoly:
    """The polynomial in s whose fourth power is p(s^4)."""
    gf = p.gf
    return UPoly.from_coeffs(gf, [gf.fourth_root(c) for c in p.to_coeffs()])


class InsepElem:
    """An element of K(t^(1/4)) = F_q(s), stored as one ScalarK in s."""

    __slots__ = ("x",)

    def __init__(self, x: ScalarK):
        self.x = x

    # ----- constructors ---------------------------------------------------

    @classmethod
    def from_scalar(cls, a: ScalarK) -> "InsepElem":
        # t -> s^4 is an injective ring map, so a reduced a stays reduced
        return cls(ScalarK(_stretch(a.num), _stretch(a.den), _canonical=True))

    # ----- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.x)

    # ----- arithmetic ----------------------------------------------------------

    def __add__(self, other: "InsepElem") -> "InsepElem":
        return InsepElem(self.x + other.x)

    def __mul__(self, other: "InsepElem") -> "InsepElem":
        return InsepElem(self.x * other.x)

    def __eq__(self, other):
        return isinstance(other, InsepElem) and self.x == other.x

    def __hash__(self):
        return hash(self.x)

    # ----- printing ----------------------------------------------------------------

    _POWERS = ("", "t^(1/4)", "t^(1/2)", "t^(3/4)")

    def __str__(self):
        # n/d = n d^3 / d^4 with d^4 in K; the monomial c s^(4r+i) of n d^3
        # is c t^r in coordinate i
        n, d = self.x.num, self.x.den
        e = (n * d.pow(3)).to_coeffs()
        den = _shrink(d.pow(4))
        parts = []
        for i in range(4):
            c = ScalarK(UPoly.from_coeffs(n.gf, e[i::4]), den)
            if not c:
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(self._POWERS[i])
            else:
                if needs_parens(cs):
                    cs = f"({cs})"
                parts.append(f"{cs}*{self._POWERS[i]}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"InsepElem({self})"


def fourth_root(x: ScalarK) -> InsepElem:
    """The fourth root of an element of K, inside K(t^(1/4)).

    With x = n/d reduced and d monic, the fourth root is n'/d' where n' and
    d' take the fourth root of every coefficient and keep the exponents:
    again reduced, with d' monic.
    """
    return InsepElem(ScalarK(_root4(x.num), _root4(x.den), _canonical=True))


def sqrt_in_quarter(x: ScalarK) -> InsepElem:
    """The square root of an element of K, as an element of K(t^(1/4))."""
    return fourth_root(x.square())
