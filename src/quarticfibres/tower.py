"""Normal-form presentations of the Frobenius tower F ⊃ F₁ ⊃ F₂ ⊃ F₃.

A genus-3 geometrically rational function field over K with a singular,
non-canonical prime is generated by at most four functions x, w, z, y
subject to one of four shapes of defining relations (kinds A-D).  Kinds
A, B, C are non-hyperelliptic (possibly conditionally) and map onto the
quartic families III, IV, V; kind D is always hyperelliptic and only
validates.  The module also derives the plane quartic relation between
the two distinguished degree-4 generators ("breve" functions) and checks
it coefficient-by-coefficient against the closed form, which is the
mechanical content of the classification proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (ConstraintViolation, Hyperelliptic, UnsupportedFamily,
                     UnsupportedKind)
from .families import FamilyParams, FamilyTag, build_family, make_params
from .mpoly import MPoly
from .scalars import KDomain, ScalarK

BREVE_VARS = ("zb", "yb")


class TowerKind(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"

    def __str__(self):
        return self.value


CONST_NAMES = {
    TowerKind.A: ("c0", "c1", "A2", "B0", "B1"),
    TowerKind.B: ("a2", "b0", "b2"),
    TowerKind.C: ("a0", "a2", "b1", "c3", "c4"),
    TowerKind.D: ("a0", "a2", "c0", "c2"),
}


@dataclass(frozen=True)
class TowerPresentation:
    kind: TowerKind
    consts: tuple[ScalarK, ...]

    def __post_init__(self):
        names = CONST_NAMES[self.kind]
        if len(self.consts) != len(names):
            raise ValueError(
                f"kind {self.kind} takes constants {names}, got {len(self.consts)}")

    @property
    def gf(self):
        return self.consts[0].gf

    def const(self, name: str) -> ScalarK:
        return self.consts[CONST_NAMES[self.kind].index(name)]

    def as_dict(self) -> dict:
        d = {"kind": self.kind.value}
        for name, v in zip(CONST_NAMES[self.kind], self.consts):
            d[name] = str(v)
        return d


def make_tower(kind: TowerKind, gf, **by_name) -> TowerPresentation:
    z = ScalarK.zero(gf)
    return TowerPresentation(
        kind, tuple(by_name.get(n, z) for n in CONST_NAMES[kind]))


def _dom(gf):
    return KDomain.get(gf)


def _require(cond: bool, message: str):
    if not cond:
        raise ConstraintViolation(message)


def validate_presentation(p: TowerPresentation) -> None:
    """Check the constraint clauses of the presentation's kind; raise
    `ConstraintViolation` at the first that fails."""
    c = p.const
    if p.kind is TowerKind.A:
        _require(bool(c("c1")), "c1 = 0 for kind A")
        _require(not c("A2").is_square(), "A2 ∈ K² for kind A")
    elif p.kind is TowerKind.B:
        _require(not c("a2").is_square(), "a2 ∈ K² for kind B")
    elif p.kind is TowerKind.C:
        _require(not c("a2").is_square(), "a2 ∈ K² for kind C")
        _require(not c("b1").is_square(), "b1 ∈ K² for kind C")
    elif p.kind is TowerKind.D:
        _require(not c("a2").is_square(), "a2 ∈ K² for kind D")
        _require((c("c2") / c("a2")).is_square(), "c2 ∉ K²·a2 for kind D")
    else:  # pragma: no cover
        raise UnsupportedKind(f"unknown kind {p.kind}")


def is_nonhyperelliptic(p: TowerPresentation) -> bool:
    if p.kind is TowerKind.A:
        return bool(p.const("B1"))
    if p.kind is TowerKind.B:
        return True
    if p.kind is TowerKind.C:
        return bool(p.const("c4"))
    return False


def normalize_presentation(p: TowerPresentation) -> TowerPresentation:
    """Shift x to kill the free constant: B0 (kind A) or c3 (kind C).

    The shift x ↦ x + B0/B1 (resp. x + c3/c4) fixes every other constant
    except c0 (resp. a0), which absorbs the substitution.
    """
    if p.kind is TowerKind.A:
        c0, c1, A2, B0, B1 = p.consts
        if not B0:
            return p
        if not B1:
            raise Hyperelliptic("cannot normalize B0 with B1 = 0")
        s = B0 / B1
        return TowerPresentation(
            TowerKind.A, (c0 + c1 * s + s.square(), c1, A2, ScalarK.zero(p.gf), B1))
    if p.kind is TowerKind.C:
        a0, a2, b1, c3, c4 = p.consts
        if not c3:
            return p
        if not c4:
            raise Hyperelliptic("cannot normalize c3 with c4 = 0")
        s = c3 / c4
        return TowerPresentation(
            TowerKind.C, (a0 + s + a2 * s.square(), a2, b1, ScalarK.zero(p.gf), c4))
    return p


def to_quartic_model(p: TowerPresentation) -> FamilyParams:
    """Derive the plane quartic model parameters; validated on the way out."""
    if not is_nonhyperelliptic(p):
        raise Hyperelliptic(f"kind {p.kind} presentation has no quartic model")
    gf = p.gf
    q = normalize_presentation(p)
    if q.kind is TowerKind.A:
        c0, c1, A2, _, B1 = q.consts
        params = make_params(FamilyTag.III, gf,
                             a=A2,
                             b=(c1.square() * B1).inverse(),
                             c=c1 * B1,
                             d=B1 * c0)
    elif q.kind is TowerKind.B:
        a2, b0, b2 = q.consts
        params = make_params(FamilyTag.IV, gf,
                             a=b0, b=a2, c=b2 + b0 * a2.square())
    else:
        a0, a2, b1, _, c4 = q.consts
        c42 = c4.square()
        params = make_params(FamilyTag.V, gf,
                             a=c42 / (a2 * b1.square()),
                             b=b1,
                             c=(a0 + b1.square().inverse()) * c42 / a2,
                             d=c4 / a2)
    build_family(params)  # the derived parameters must define a valid model
    return params


def invert_model_map(params: FamilyParams) -> TowerPresentation:
    """Inverse of to_quartic_model on family III (bijective constant change)."""
    if params.tag is not FamilyTag.III:
        raise UnsupportedFamily(
            f"model inversion is defined for family III, not {params.tag}")
    a, b, c, d = params.a, params.b, params.c, params.d
    bc2 = b * c.square()
    p = make_tower(TowerKind.A, params.gf,
                   c0=d / bc2, c1=(b * c).inverse(), A2=a, B1=bc2)
    validate_presentation(p)
    return p


# --- the quartic relation between the breve generators ---------------------


def _bvar(gf, name: str) -> MPoly:
    return MPoly.var(BREVE_VARS, _dom(gf), name)


def _bconst(gf, c: ScalarK) -> MPoly:
    return MPoly.const(BREVE_VARS, _dom(gf), c)


def printed_breve_relation(p: TowerPresentation) -> MPoly:
    """The closed-form quartic satisfied by the breve generators.

    Variables: zb is the degree-4 generator (z/c(x) for kind A, w/x for
    kind B, z/w for kind C) and yb the companion y-generator.  The
    presentation is normalized (B0 = 0 / c3 = 0) before reading constants.
    """
    if not is_nonhyperelliptic(p):
        raise Hyperelliptic(f"kind {p.kind} has no plane quartic relation")
    q = normalize_presentation(p)
    gf = q.gf
    one = ScalarK.one(gf)
    if q.kind is TowerKind.A:
        c0, c1, A2, _, B1 = q.consts
        ic1 = c1.inverse()
        ib = B1.inverse()
        ibc = (B1 * c1).inverse().square()
        terms = {(0, 4): ibc, (4, 0): c0, (2, 2): ib, (3, 0): ib,
                 (2, 0): ic1 + ibc, (0, 2): ib * A2, (1, 0): ib * A2,
                 (0, 0): ic1 * A2 + c0 * A2.square()}
    elif q.kind is TowerKind.B:
        a2, b0, b2 = q.consts
        terms = {(0, 4): one, (0, 0): b2 + b0 * a2.square(), (1, 0): a2,
                 (3, 0): one, (4, 0): b0}
    else:
        a0, a2, b1, _, c4 = q.consts
        c42 = c4.square()
        terms = {(0, 4): a2, (2, 2): c4, (4, 0): c42 * a0, (3, 0): c4,
                 (0, 2): c4 * b1, (2, 0): a2, (1, 0): c4 * b1,
                 (0, 0): c42 * (b1.square() * a0 + one)}
    return MPoly.from_terms(BREVE_VARS, _dom(gf), terms.items())


def eliminate_to_breve(p: TowerPresentation) -> MPoly:
    """Eliminate x (and w) from the tower relations, independently of the
    closed form: express x through the breve generators, substitute into
    the remaining relation and clear denominators."""
    if not is_nonhyperelliptic(p):
        raise Hyperelliptic(f"kind {p.kind} has no plane quartic relation")
    q = normalize_presentation(p)
    gf = q.gf
    zb, yb = _bvar(gf, "zb"), _bvar(gf, "yb")
    k = lambda c: _bconst(gf, c)
    s = yb * yb + zb
    if q.kind is TowerKind.A:
        # zb = z/c(x), yb = y/c(x);  c(x) = 1/(c1 (A2+zb^2)) and
        # x = (yb^2+zb) / (c1 B1 (A2+zb^2));  plug into x^2+c1 x+c0 = c(x)
        # and multiply through by c1^2 B1^2 (A2+zb^2)^2.
        c0, c1, A2, _, B1 = q.consts
        tt = k(A2) + zb * zb
        return (s * s + (s * tt).scale(c1.square() * B1)
                + (tt * tt).scale(c0 * (c1 * B1).square())
                + tt.scale(c1 * B1.square()))
    if q.kind is TowerKind.B:
        # zb = w/x, yb = y/x;  x = 1/(a2+zb^2), z = x yb^2; the z-relation
        # times x^2 gives yb^4 = b0 (a2+zb^2)^2 + b2 + zb (a2+zb^2).
        a2, b0, b2 = q.consts
        tt = k(a2) + zb * zb
        return yb.pow(4) + (tt * tt).scale(b0) + k(b2) + zb * tt
    # kind C: zb = z/w, yb = y/w;  w = 1/(b1+zb^2),
    # x = (yb^2+zb) / (c4 (b1+zb^2));  plug into w^2 = a0 + x + a2 x^2
    # and multiply through by c4^2 (b1+zb^2)^2.
    a0, a2, b1, _, c4 = q.consts
    tt = k(b1) + zb * zb
    return (s.pow(2).scale(a2) + (s * tt).scale(c4)
            + (tt * tt).scale(a0 * c4.square()) + k(c4.square()))


def verify_breve_relation(p: TowerPresentation,
                          printed: MPoly | None = None) -> bool:
    """Check the eliminated quartic against the closed form.

    For kind A the elimination is denominator-cleared, so the closed form
    matches after scaling by (c1 B1)^2; kinds B and C match on the nose.
    A deliberately corrupted `printed` override returns False.
    """
    q = normalize_presentation(p)
    lhs = eliminate_to_breve(q)
    rhs = printed if printed is not None else printed_breve_relation(q)
    if q.kind is TowerKind.A:
        c1, B1 = q.const("c1"), q.const("B1")
        rhs = rhs.scale((c1 * B1).square())
    return lhs == rhs
