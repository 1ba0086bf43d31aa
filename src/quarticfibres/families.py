"""The five families of plane quartic normal forms over K = F_q(t).

Every regular non-hyperelliptic geometrically rational curve of arithmetic
genus 3 in characteristic 2 lands in exactly one of the families I-V.  A
family is a quartic form in x, y, z whose coefficients are polynomial
expressions in up to four parameters a, b, c, d of K, subject to a
non-square/non-zero constraint list.  The table is written once, here:
the parameter rules (`FAMILY_PARAMS`), the forms (`family_terms`) and the
singular points (`singular_radicands`); the last two are ring-generic, so
``fibres`` reads them over GF(2^m).  This module builds the forms,
validates the constraints, locates the singular point in the inseparable
closure, and computes the residue-degree profile of the chain of primes
sitting over the singularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (ConstraintViolation, InternalCheckFailed, NoSuchRow,
                     NotHomogeneous, UnsupportedFamily)
from .insep import InsepElem, fourth_root, sqrt_in_quarter, subalgebra_dimension
from .mpoly import MPoly, triform
from .scalars import KDomain, ScalarK


class FamilyTag(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class FamilyParams:
    tag: FamilyTag
    a: ScalarK
    b: ScalarK
    c: ScalarK
    d: ScalarK

    @property
    def gf(self):
        return self.a.gf


def make_params(tag: FamilyTag, gf, a=None, b=None, c=None, d=None) -> FamilyParams:
    z = ScalarK.zero(gf)
    return FamilyParams(tag, a if a is not None else z,
                        b if b is not None else z,
                        c if c is not None else z,
                        d if d is not None else z)


@dataclass(frozen=True)
class QuarticModel:
    params: FamilyParams
    form: MPoly

    @property
    def tag(self) -> FamilyTag:
        return self.params.tag


@dataclass(frozen=True)
class SingularPointSpec:
    coords: tuple[InsepElem, InsepElem, InsepElem]

    def __str__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class ResidueProfile:
    deg_p: int
    deg_p1: int
    deg_p2: int
    deg_p3: int | None
    e: int
    e1: int


# The rule each listed parameter obeys ("nonsquare": not in K^2); a
# parameter a family does not list must be zero.  Listed in a, b, c, d order.
FAMILY_PARAMS = {
    FamilyTag.I: {"a": "free", "b": "free", "c": "nonsquare"},
    FamilyTag.II: {"a": "nonsquare", "b": "nonzero", "c": "free",
                   "d": "free"},
    FamilyTag.III: {"a": "nonsquare", "b": "nonzero", "c": "nonzero",
                    "d": "free"},
    FamilyTag.IV: {"a": "free", "b": "nonsquare", "c": "free"},
    FamilyTag.V: {"a": "nonsquare", "b": "nonsquare", "c": "free",
                  "d": "nonzero"},
}


def family_terms(tag: FamilyTag, one, a, b, c, d) -> list:
    """The normal form of a family as ((i, j, k), coefficient) pairs of
    x^i y^j z^k.  Ring-generic: the parameters lie in K for the families
    and in GF(2^m) for the fibrations pi3, pi4, pi5."""
    if tag is FamilyTag.I:
        return [((0, 4, 0), one), ((0, 0, 4), a), ((1, 0, 3), one),
                ((2, 0, 2), b), ((4, 0, 0), c)]
    if tag is FamilyTag.II:
        return [((0, 4, 0), one), ((0, 0, 4), a), ((2, 2, 0), b),
                ((2, 0, 2), c), ((3, 0, 1), b), ((4, 0, 0), d)]
    if tag is FamilyTag.III:
        bc3 = b * c * c.square()
        return [((0, 4, 0), b), ((0, 0, 4), d), ((0, 2, 2), one),
                ((1, 0, 3), one), ((2, 0, 2), b + b * bc3),
                ((2, 2, 0), a), ((3, 0, 1), a),
                ((4, 0, 0), a * b * bc3 + a.square() * d)]
    if tag is FamilyTag.IV:
        return [((0, 4, 0), one), ((0, 0, 4), a), ((1, 0, 3), one),
                ((3, 0, 1), b), ((4, 0, 0), c)]
    bd = b * d
    return [((0, 4, 0), one), ((0, 2, 2), d), ((0, 0, 4), c + a),
            ((1, 0, 3), d), ((2, 2, 0), bd), ((2, 0, 2), one),
            ((3, 0, 1), bd), ((4, 0, 0), b.square() * c)]


def singular_radicands(tag: FamilyTag, zero, one, a, b, c) -> tuple:
    """(x, Y, Z) with the singular point at (x : Y^(1/4) : Z^(1/2)).

    The curves are strange (no y in the partials), so the singular locus
    is cut out by F = F_x = F_z = 0; for each family the system collapses
    to roots of these parameter expressions.  Ring-generic like
    `family_terms`."""
    if tag is FamilyTag.I:
        # F_x = z^3 and F_z = x z^2 force z = 0, leaving y^4 = c x^4.
        return one, c, zero
    if tag is FamilyTag.II:
        # F_x = b x^2 z, F_z = b x^3 with b != 0 force x = 0: y^4 = a z^4.
        return zero, a, one
    if tag is FamilyTag.III:
        return one, a, a
    if tag is FamilyTag.IV:
        return one, a * b.square() + c, b
    return one, a * b.square() + b, b


def build_family(params: FamilyParams) -> QuarticModel:
    """Validate the parameter constraints and emit the quartic form."""
    tag = params.tag
    rules = FAMILY_PARAMS[tag]
    for n in ("a", "b", "c", "d"):
        v, rule = getattr(params, n), rules.get(n)
        if rule is None and v:
            raise ConstraintViolation(f"family {tag} does not use {n}")
        if rule == "nonsquare" and v.is_square():
            raise ConstraintViolation(f"{n} ∈ K² for family {tag}")
        if rule == "nonzero" and not v:
            raise ConstraintViolation(f"{n} = 0 for family {tag}")
    terms = family_terms(tag, ScalarK.one(params.gf),
                         params.a, params.b, params.c, params.d)
    return QuarticModel(params, triform(KDomain.get(params.gf), terms))


def singular_point(m: QuarticModel) -> SingularPointSpec:
    """The unique singular point, with coordinates in K(t^(1/4))."""
    p = m.params
    x, y4, z2 = singular_radicands(p.tag, ScalarK.zero(p.gf),
                                   ScalarK.one(p.gf), p.a, p.b, p.c)
    coords = (InsepElem.from_scalar(x), fourth_root(y4), sqrt_in_quarter(z2))
    point = {"x": coords[0], "y": coords[1], "z": coords[2]}
    for f in (m.form, m.form.partial("x"), m.form.partial("y"), m.form.partial("z")):
        v = f.eval_point(point, lift=InsepElem.from_scalar)
        if v:
            raise InternalCheckFailed(
                f"claimed singular point of family {p.tag} does not verify")
    return SingularPointSpec(coords)


def residue_profile(m: QuarticModel) -> ResidueProfile:
    """Residue degrees of the singular prime and its Frobenius pushdowns."""
    p = m.params
    a, b = p.a, p.b
    # the singular point is (1 : u^(1/4) : b^(1/2)) for IV and V
    _, u, _ = singular_radicands(p.tag, ScalarK.zero(p.gf), ScalarK.one(p.gf),
                                 a, b, p.c)
    if p.tag is FamilyTag.III:
        deg_p = subalgebra_dimension([fourth_root(a)])
        deg_p1 = subalgebra_dimension([sqrt_in_quarter(a)])
        return ResidueProfile(deg_p, deg_p1, 1, None, 1, 1)
    if p.tag is FamilyTag.IV:
        rb = sqrt_in_quarter(b)
        deg_p = subalgebra_dimension([rb, fourth_root(u)])
        deg_p1 = subalgebra_dimension([rb, sqrt_in_quarter(u)])
        deg_p2 = subalgebra_dimension([rb])
    elif p.tag is FamilyTag.V:
        ra = sqrt_in_quarter(a)
        rb = sqrt_in_quarter(b)
        deg_p = subalgebra_dimension([ra, rb, fourth_root(u)])
        deg_p1 = subalgebra_dimension([ra, rb])
        deg_p2 = subalgebra_dimension([ra])
    else:
        raise UnsupportedFamily(
            f"no residue profile for family {p.tag} (singular prime is canonical)")
    e1 = 4 // deg_p1
    e = 8 // (deg_p * e1)
    return ResidueProfile(deg_p, deg_p1, deg_p2, 1, e, e1)


def invariant(m: QuarticModel) -> ScalarK | None:
    """Isomorphism invariant of the family, where one exists."""
    p = m.params
    a, b, c, d = p.a, p.b, p.c, p.d
    if p.tag is FamilyTag.II:
        return a * b.square() + c.square() + ScalarK.one(p.gf)
    if p.tag is FamilyTag.III:
        return b * c ** 3
    if p.tag is FamilyTag.V:
        return a * b.square() * d.square()
    return None


_TABLE = {
    (True, True, True): FamilyTag.I,
    (False, True, False): FamilyTag.II,
    (True, False, False): FamilyTag.III,
    (False, False, True): FamilyTag.IV,
    (False, False, False): FamilyTag.V,
}


def classify_by_table(p2_rational: bool, p_canonical: bool,
                      E_equals_F2: bool) -> FamilyTag:
    """Recover the family from the three intrinsic yes/no properties."""
    key = (bool(p2_rational), bool(p_canonical), bool(E_equals_F2))
    tag = _TABLE.get(key)
    if tag is None:
        raise NoSuchRow(f"no family with (p2 rational, p canonical, E=F2) = {key}")
    return tag


def is_strange(f: MPoly) -> bool:
    """All tangent lines through one point: equivalent to dF/dy = 0."""
    if not f.is_homogeneous():
        raise NotHomogeneous("strangeness is defined for homogeneous forms")
    return f.partial("y").is_zero()
