"""Geometric fibres of the quartic fibrations over finite fields of char 2.

Four fibrations are exposed by name.  Three, pi3, pi4 and pi5, are the
families III, IV and V with their parameters in GF(2^m): their forms
(``family_terms``), parameter names (``FAMILY_PARAMS``) and closed-form
singular points (``singular_radicands``) are read from ``families``.  The
fourth is the quartic pencil; the cubic pencil, whose members are not
quartics, is left to ``resolution``.

A fibre is a `PlaneCurveFq` over GF(2^m): its terms as ((i, j, k), raw
int) pairs and, for a strange quartic, its `NormalForm`, the frozen
record of F = a y^4 + C y^2 + D as nine raw ints a, c0..c2 and d0..d4,
which derives the square roots of L and S below once.
``specialize_fibre`` reads a fibration's terms straight into it;
``PlaneCurveFq(form, spec)`` reads any form into it in one pass, the one
strangeness test here.  The classification reads the record at every
step: F is a square iff c1 = d1 = d3 = 0, the locus and the biconic
split (C / a and D / a by raw products) read its coefficients, the lines
through (0:1:0) are read off C and D, and the tangent off C; the plane
pass and the charts read the raw terms.  `PlaneCurveFq.form`, the
`MPoly`, is built on first use: for printed components, for line
peeling's divisions and for the oracles.  The routines here measure a
fibre:

* ``singular_locus`` reads the locus off the normal form: F_x = z L^2
  and F_z = x L^2 for a line L whose coefficients are square roots of
  three coefficients of F, so the singular points are the roots of a
  binary quadratic on L, with (0:1:0) when F has no y^4 term.  It scans
  nothing, and builds GF(q^2) only for a conjugate pair;
* the curve's one bit-sliced pass over P^2(GF(q)) evaluates F alone
  (`PlaneCurveFq.zeros`): line peeling reads the zero set,
  ``smooth_points`` is that set less the rational locus, and the
  classification asks only whether it holds more points than the
  locus.  ``kernels`` bounds the pass, so these raise `SearchCapped`
  beyond its cap;
* ``multiplicity_at``, ``delta_invariant`` and ``tangent_contact_type``
  check the point and read it as raw ints of its field, then work in the
  ``plane.chart_at`` of the curve's raw terms there, a dict of raw ints,
  with no `MPoly`: the first reads off the lowest
  total degree; the second iterates ``plane.blow_up`` at the directions
  of ``plane.tangent_cone``, summing m(m-1)/2 over the infinitely near
  points; the third restricts the chart to the tangent line, its linear
  part, by a coefficient map, and serves as the independent check of the
  tangent that the classification reads off the normal form;
* ``classify_fibre`` runs the cascade double-conic / linear-split /
  biconic / integral and returns a `FibreClass`; the linear split reads
  its rational candidate lines off the zero set and confirms each by
  division, which is where an `MPoly` is first needed, and reads the
  other lines off the record's C and D; an integral answer's tangent kind
  comes from C, with no chart and no root search.

Charts, blow-ups, line peeling and root finding come from ``plane``;
none of the above makes a polynomial substitution, and `GFElem` values
are made only for what is reported: points and `FibreClass.sing_point`.
The one search bound outside ``kernels`` is the root lift of
``_lift_roots``, which the blow-up directions, the lines through (0:1:0)
and a conjugate pair of singular points share, and which stops at the
field tables.

``classify_fibre`` and ``singular_locus`` take strange quartics in the
normal form dF/dy = 0, whose strange point is (0:1:0), and refuse any
other form: only for those does "no line and no conic pair" mean an
integral curve, and such a curve always has a singular point (Samuel
1966; Hefez and Kleiman 1985), on L or at (0:1:0).  The fibrations'
fibres are all of this form, and their lines and singular point are
rational.  A general strange quartic can have a conjugate pair of
singular points, the roots of the quadratic on L when they lie over
GF(q^2).  Its lines need no search beyond the base field.  Write F =
a y^4 + C y^2 + D with C and D in x and z.  A line y + l not through
(0:1:0) divides F only as (y + l)^2, and then l is rational unless F is
the square of a conjugate pair of such lines.  So without a y^4 term every
line left after base-field peeling passes through (0:1:0), and these
lines are the linear factors of gcd(C, D), split over GF(q^r) with
r <= 4.  A conic pair y^4 + A y^2 + B = (y^2+v)(y^2+w), the square of a
conjugate pair of lines y + l included (v = l^2), splits over GF(q) or
GF(q^2), which is a question about T^2 + A T + B over GF(q), so the
biconic split searches GF(q) alone for every m.
"""

from dataclasses import dataclass
from functools import cached_property, partial
from operator import xor

from . import kernels
from .errors import (ConstraintViolation, InternalCheckFailed, NotSingular,
                     NotSmoothPoint, NotHomogeneous, PointNotOnCurve,
                     UnsupportedFamily, ZeroForm)
from .families import (FAMILY_PARAMS, FamilyTag, family_terms,
                       singular_radicands)
from .finitefield import GF, GFElem, FieldSpec, TABLE_LIMIT
from .mpoly import MPoly
from .plane import (blow_up, chart_at, embed_form, full_lines,
                    is_smooth_conic, line_form, mult_origin, peel_lines,
                    raw_form, raw_terms, roots, tangent_cone)
from .upoly import UPoly


@dataclass(frozen=True)
class NormalForm:
    """A strange quartic F = a y^4 + C y^2 + D in the normal form dF/dy =
    0, whose strange point is (0:1:0), as raw ints of its field gf: C =
    c0 x^2 + c1 x z + c2 z^2 and D = d0 x^4 + d1 x^3 z + ... + d4 z^4,
    c[k] and d[k] the coefficients at z^k.  Each step of the
    classification reads these nine ints; F is a square iff c1 = d1 = d3
    = 0."""

    gf: GF
    a: int
    c: tuple
    d: tuple

    @classmethod
    def read(cls, gf: GF, terms) -> "NormalForm | None":
        """The record of the quartic of ((i, j, k), raw int) pairs over gf,
        or None when some j is odd: one pass, and the one strangeness test
        of this module."""
        slots = [[0], [0] * 3, [0] * 5]         # y^4, y^2, y^0; by k
        for (_, j, k), v in terms:
            if j & 1:
                return None
            slots[2 - j // 2][k] ^= v
        (a,), c, d = slots
        return cls(gf, a, tuple(c), tuple(d))

    @cached_property
    def square_roots(self) -> list:
        """The coefficients of L = sqrt(d1) x + sqrt(c1) y + sqrt(d3) z and
        of S at y^2, x y, y z, x^2, x z and z^2, the square roots of a, c0,
        c2, d0, d2 and d4, derived once: F = S^2 + x z L^2, S^2 the terms
        of F with every exponent even (see ``singular_locus``)."""
        a, (c0, c1, c2), (d0, d1, d2, d3, d4) = self.a, self.c, self.d
        return [*map(self.gf.sqrt, (d1, c1, d3, a, c0, c2, d0, d2, d4))]


class PlaneCurveFq:
    """A nonzero homogeneous ternary cubic or quartic over GF(2^m).

    `terms` is the form as ((i, j, k), raw int) pairs, which the plane
    pass and the charts read, and `normal` its `NormalForm` when it is a
    strange quartic (None otherwise), which the classification reads.
    `form`, the `MPoly`, is built from `terms` on first use when the
    curve comes from its terms (``from_terms``): only printed components,
    line peeling's divisions and the oracles read it."""

    def __init__(self, form: MPoly, field: FieldSpec):
        if form.is_zero():
            raise ZeroForm("the zero form does not cut out a curve")
        if not form.is_homogeneous():
            raise NotHomogeneous("fibres are cut out by homogeneous forms")
        d = form.total_degree()
        if d not in (3, 4):
            raise ConstraintViolation(
                f"expected a cubic or quartic, got degree {d}")
        self.form, self.field, self.gf, self._degree = (
            form, field, field.field(), d)
        self.terms = raw_terms(form)
        self.normal = NormalForm.read(self.gf, self.terms) if d == 4 else None

    @classmethod
    def from_terms(cls, terms: list, field: FieldSpec) -> "PlaneCurveFq":
        """The quartic of nonzero ((i, j, k), raw int) pairs over field,
        with its `NormalForm` and no `MPoly`."""
        curve = cls.__new__(cls)
        curve.field, curve.gf, curve._degree = field, field.field(), 4
        curve.terms, curve.normal = terms, NormalForm.read(curve.gf, terms)
        return curve

    @cached_property
    def form(self) -> MPoly:
        return raw_form(self.gf, self.terms)

    def degree(self) -> int:
        return self._degree

    @cached_property
    def zeros(self) -> list:
        """The zero set over P^2(GF(q)), raw triples in scan order, from
        the curve's one plane pass (``kernels.scan_zero_points``)."""
        return kernels.scan_zero_points(self.terms, self.gf)


@dataclass(frozen=True)
class TangentType:
    """Contact profile of the tangent line with the curve.

    `profile` lists the intersection multiplicities of the distinct
    geometric contact points (conjugates listed separately), summing to
    the curve degree.  On a strange quartic F = a y^4 + C y^2 + D the
    tangent at a smooth point P is the line P + s (0:1:0), along which F
    is a Y^2 + C(P) Y with Y = s^2: a hyperflex where C(P) = 0 and a
    bitangent elsewhere, so a general point's tangent is read from C
    alone.
    """

    kind: str          # "Hyperflex4" | "Bitangent22" | "Other"
    profile: tuple


@dataclass(frozen=True)
class FibreClass:
    kind: str          # "IntegralQuartic" | "ConicPlusDoubleLine" |
                       # "DoubleConic" | "LinePlusTripleLine" | "Other"
    sing_point: tuple | None = None
    ext: int = 1
    multiplicity: int | None = None
    delta: int | None = None
    # at a general point, read from C: a hyperflex iff C = 0; None when
    # the curve has no rational smooth point
    tangent: TangentType | None = None
    components: tuple = ()


# ----- fibration catalogue ------------------------------------------------


# pi3, pi4 and pi5 are the families III, IV and V over GF(2^m)
_FAMILY_OF = {"pi3": FamilyTag.III, "pi4": FamilyTag.IV, "pi5": FamilyTag.V}


def _family_args(tag, coords, zero) -> list:
    """a, b, c, d from a point listing the family's own parameters."""
    given = dict(zip(FAMILY_PARAMS[tag], coords))
    return [given.get(n, zero) for n in ("a", "b", "c", "d")]


def _family_terms(tag, gf, *coords):
    args = _family_args(tag, coords, gf.zero_elem())
    return family_terms(tag, gf.one_elem(), *args)


def _pencil_quartic(gf, t0, t1):
    return [((0, 4, 0), t0), ((1, 0, 3), t0), ((3, 0, 1), t1)]


# name -> (parameter names, function making the fibre's terms)
FIBRATIONS = {
    **{name: (tuple(FAMILY_PARAMS[tag]), partial(_family_terms, tag))
       for name, tag in _FAMILY_OF.items()},
    "pencil-quartic": (("t0", "t1"), _pencil_quartic),
}


def _point_coords(fibration: str, point, gf) -> list:
    """The parameter point as GFElems of gf, once the fibration checks out
    and ``_raw_values`` finds as many coordinates as it has parameters,
    all in gf."""
    if fibration not in FIBRATIONS:
        raise UnsupportedFamily(
            f"unknown fibration {fibration!r}; "
            f"choose from {sorted(FIBRATIONS)}")
    raw, field = _raw_values(point, len(FIBRATIONS[fibration][0]), gf)
    if field is not gf:
        raise ConstraintViolation(f"{point!r} does not lie in GF({gf.q})")
    return [GFElem(gf, v) for v in raw]


def specialize_fibre(fibration: str, point, spec: FieldSpec) -> PlaneCurveFq:
    """The fibre of a named fibration over a parameter point, read from
    its terms straight into its `NormalForm`, with no `MPoly` built."""
    gf = spec.field()
    coords = _point_coords(fibration, point, gf)
    terms = [(e, c.v) for e, c in FIBRATIONS[fibration][1](gf, *coords) if c]
    if not terms:
        raise ZeroForm(f"fibre of {fibration} at this point is the zero form")
    return PlaneCurveFq.from_terms(terms, spec)


def predicted_singular_point(fibration: str, point, spec: FieldSpec):
    """Closed-form singular point of the generic integral fibres."""
    gf = spec.field()
    coords = _point_coords(fibration, point, gf)
    zero, one = gf.zero_elem(), gf.one_elem()
    if fibration in _FAMILY_OF:
        tag = _FAMILY_OF[fibration]
        a, b, c, _ = _family_args(tag, coords, zero)
        x, y4, z2 = singular_radicands(tag, zero, one, a, b, c)
        return (x, y4.fourth_root(), z2.sqrt())
    if fibration == "pencil-quartic":
        t0, t1 = coords
        if not t0:
            raise ConstraintViolation("the (0:1) member is not integral")
        return (one, zero, (t1 / t0).sqrt())
    raise UnsupportedFamily(f"no closed-form location for {fibration!r}")


# ----- points and charts --------------------------------------------------


def _raw_values(values, n: int, gf: GF) -> tuple[list, GF]:
    """n coordinates in one field, each a GFElem or a raw int in range(q),
    which is read in gf, as raw ints and their field: the rule for points
    of the plane and parameter points alike.  Anything else raises
    ConstraintViolation."""
    if len(values) != n or not all(
            isinstance(c, GFElem) or (isinstance(c, int) and 0 <= c < gf.q)
            for c in values):
        raise ConstraintViolation(
            f"{values!r} is not {n} coordinates over GF({gf.q}): field"
            f" elements, or raw ints in range({gf.q})")
    fields = {c.gf if isinstance(c, GFElem) else gf for c in values}
    if len(fields) > 1:
        raise ConstraintViolation("the coordinates lie in different fields")
    return [c.v if isinstance(c, GFElem) else c for c in values], fields.pop()


def _coerce_point(curve: "PlaneCurveFq", point) -> tuple[list, GF]:
    """A point of the plane by ``_raw_values``, read in the curve's field."""
    return _raw_values(point, 3, curve.gf)


def multiplicity_at(curve: PlaneCurveFq, point) -> int:
    """Multiplicity of the curve at a projective point (1 = smooth)."""
    local = chart_at(curve.terms, curve.gf, *_coerce_point(curve, point))
    if mult_origin(local) == 0:
        raise PointNotOnCurve("the point does not lie on the curve")
    return mult_origin(local)


# ----- singular locus -----------------------------------------------------


def singular_locus(curve: PlaneCurveFq) -> list:
    """The singular points of a reduced strange quartic in normal form, as
    (point, r) pairs, each point a GFElem triple over GF(q^r): the
    rational points in scan order, then a conjugate pair over GF(q^2) in
    the scan order there.

    Lemma: write F = a y^4 + C y^2 + D, with c1, d1 and d3 the
    coefficients of x y^2 z, x^3 z and x z^3, and L = sqrt(d1) x +
    sqrt(c1) y + sqrt(d3) z.  Then F = S^2 + x z L^2, where S^2 holds
    the six terms with every exponent even, and Sing F is F meets L,
    with N = (0:1:0) added when a = 0.  Proof: in char 2 the derivatives
    of S^2 and of L^2 vanish, so F_y = 0, F_x = z L^2 and F_z = x L^2.
    These vanish together where L = 0 or at x = z = 0, that is N, where
    F is a.  On L, F = S^2, so the points are the roots of the binary
    quadratic Q = S restricted to L, rational or a conjugate pair over
    GF(q^2).

    Q is read at two points p0, p1 spanning L (p1 = N when L passes
    through N), Q(s, t) = S(p0) s^2 + B s t + S(p1) t^2 with B = S(p0 +
    p1) + S(p0) + S(p1); ``plane.roots`` solves it at t = 1, p0 is the
    root t = 0 when S(p0) = 0, and ``_lift_roots`` lifts a conjugate
    pair, so nothing is scanned and GF(q^2) is built only for that pair.
    L = 0 (F is a square) or Q = 0 (L^2 divides F) makes the locus a
    curve, and that and any form that is not a strange quartic raise
    `ConstraintViolation`.
    """
    gf, mul = curve.gf, curve.gf.mul
    if curve.normal is None:
        raise ConstraintViolation("the locus is read off a strange quartic")
    l0, l1, l2, sa, sxy, syz, sxx, sxz, szz = curve.normal.square_roots

    def s_at(x, y, z):
        return (mul(y, mul(sa, y) ^ mul(sxy, x) ^ mul(syz, z))
                ^ mul(x, mul(sxx, x) ^ mul(sxz, z)) ^ mul(szz, mul(z, z)))
    p0, p1 = ((l1, l0, 0), (0, l2, l1)) if l1 else ((l2, 0, l0), (0, 1, 0))
    q2, q0 = s_at(*p0), s_at(*p1)
    q1 = s_at(*map(xor, p0, p1)) ^ q2 ^ q0
    if not (any(p0) and (q0 or q1 or q2)):     # L = 0, or L^2 divides F
        raise ConstraintViolation("the singular locus is a curve")
    found, rest = roots(UPoly.from_coeffs(gf, (q0, q1, q2)))
    split, big, table = _lift_roots(rest, gf)
    pts = [(gf, p) for p, on in ((p0, not q2), ((0, 1, 0), not sa)) if on]
    pts += [(gf, [mul(s, u) ^ v for u, v in zip(p0, p1)]) for s, _ in found]
    pts += [(big, [big.mul(s, table[u]) ^ table[v] for u, v in zip(p0, p1)])
            for s, _ in split]
    return _in_scan_order(gf, pts)


def _in_scan_order(gf: GF, points) -> list:
    """(field, raw triple) pairs as (GFElem triple, r) pairs over GF(q^r)
    = field, each point scaled so that its first nonzero coordinate is 1,
    without repeats, in the order of r and then of
    ``kernels.plane_points`` over the point's field."""
    out = {}
    for f, p in points:
        lead = next(v for v in p if v)
        p = tuple(f.div(v, lead) for v in p)
        # plane_points order: (1:y:z), then (0:1:z), then (0:0:1)
        out[f.m, -p[0], -(p[0] or p[1]), p] = _elems(f, p), f.m // gf.m
    return [out[k] for k in sorted(out)]


def smooth_points(curve: PlaneCurveFq, limit: int | None = None) -> list:
    """The first `limit` (default all) points of the curve with
    multiplicity 1, rational over the base field, in scan order: the zero
    set less the rational points of ``singular_locus``."""
    zeros, locus = curve.zeros, singular_locus(curve)
    return [p for p in (_elems(curve.gf, raw) for raw in zeros)
            if (p, 1) not in locus][:limit]


def _elems(gf: GF, raw) -> tuple:
    return tuple(GFElem(gf, v) for v in raw)


# ----- tangent contact ----------------------------------------------------


def tangent_contact_type(curve: PlaneCurveFq, point) -> TangentType:
    """Restrict the curve to its tangent line at a smooth point and read
    off the contact profile.

    In the chart at the point, the constant term is the value there and
    the linear part a u + b v is the tangent line (zero at a singular
    point).  Along the line (u, v) = (b s, a s) a term c u^i v^j becomes
    c b^i a^j s^(i+j); the point is the root s = 0 of this restriction
    h, and d - deg h is the contact at the line's point at infinity."""
    raw, gf = _coerce_point(curve, point)
    local = chart_at(curve.terms, curve.gf, raw, gf)
    if (0, 0) in local:
        raise PointNotOnCurve("the point does not lie on the curve")
    a, b = local.get((1, 0), 0), local.get((0, 1), 0)
    if not (a or b):
        raise NotSmoothPoint("tangent contact is measured at smooth points")
    d = curve.degree()
    log, exp, n = gf.log, gf.exp, gf.q - 1
    la, lb = log[a], log[b]
    cs = [0] * (d + 1)
    for (i, j), c in local.items():
        if (i and not b) or (j and not a):
            continue        # a zero factor b^i a^j
        cs[i + j] ^= exp[(log[c] + i * lb + j * la) % n]
    h = UPoly.from_coeffs(gf, cs)
    if not h:
        raise ConstraintViolation("the tangent line is a component")
    found, rest = roots(h)
    # s^2 divides h and d <= 4, so the root-free rest is 1 or an irreducible
    # quadratic, whose two conjugate roots are simple
    profile = [k for _, k in found] + [1] * rest.deg()
    if h.deg() < d:
        profile.append(d - h.deg())
    profile = tuple(sorted(profile, reverse=True))
    kind = {(4,): "Hyperflex4", (2, 2): "Bitangent22"}.get(profile, "Other")
    return TangentType(kind, profile)


# ----- delta invariant ----------------------------------------------------


def _lift_roots(h: UPoly, gf: GF) -> tuple[list, GF, list | None]:
    """The roots of a polynomial of degree at most 4 with no root in gf,
    as (root, multiplicity) pairs over its splitting field GF(q^r),
    ascending, that field (gf when h is constant) and the embedding table
    of gf into it (None when h is constant).

    h has no linear factor, so a quadratic splits over GF(q^2) and a
    cubic, which is irreducible, over GF(q^3).  A quartic is a product
    of two quadratics (or the square of one), split over GF(q^2), iff it
    shares a factor with T^(q^2) - T, and irreducible, split over
    GF(q^4), otherwise.  So r is known before a field is built, and only
    GF(q^r) is built and searched.  This lift is the one place that
    builds an extension for a root search, and a GF(q^r) beyond the
    field tables raises `SearchCapped`."""
    r = h.deg()
    if r <= 0:
        return [], gf, None
    if r == 4:
        t = frob = UPoly.t(gf)
        for _ in range(2 * gf.m):
            frob = frob.square().mod(h)
        r = 2 if (frob + t).gcd(h).deg() > 0 else 4
    kernels.check_cap(gf.m * r, "the root lift", TABLE_LIMIT)
    big = GF.get(gf.m * r)
    table = gf.embedding_into(big)
    return roots(UPoly.from_coeffs(
        big, [table[c] for c in h.to_coeffs()]))[0], big, table


def _directions(f: dict, gf: GF, m: int):
    """The finite blow-up directions of a point of multiplicity m on a
    local equation over gf, each a (field, raw int) pair over the smallest
    GF(q^r) that holds it, in ascending (r, eta) order, and the
    multiplicity of the direction u = 0.

    The roots over GF(q) are divided out first, and ``_lift_roots``
    splits the cofactor, of degree at most 4: no root is found twice."""
    h, vertical = tangent_cone(f, gf, m)
    found, rest = roots(h)
    split, big, _ = _lift_roots(rest, gf)
    return ([(gf, alpha) for alpha, _ in found]
            + [(big, alpha) for alpha, _ in split]), vertical


def delta_invariant(curve: PlaneCurveFq, point) -> tuple[int, tuple]:
    """Delta invariant at a singular point and the multiplicity sequence
    of the infinitely near points (depth-first when branches split).

    A reduced plane curve of degree d has delta at most d(d-1)/2 at a
    point (d concurrent lines); along a multiple component the blow-ups
    never end, so a running delta beyond that raises ConstraintViolation.
    """
    d = curve.degree()
    raw, gf = _coerce_point(curve, point)
    local = chart_at(curve.terms, curve.gf, raw, gf)
    if mult_origin(local) < 2:
        raise NotSingular("the delta invariant needs a singular point")
    delta = 0
    seq = []
    stack = [(local, gf)]
    while stack:
        f, gf = stack.pop()
        m = mult_origin(f)
        seq.append(m)
        if m < 2:
            continue
        delta += m * (m - 1) // 2
        if delta > d * (d - 1) // 2:
            raise ConstraintViolation("curve is not reduced at this point")
        etas, vertical = _directions(f, gf, m)
        nxt = [(blow_up(f, gf, m, None), gf)] if vertical else []
        nxt += [(blow_up(f, gf, m, eta, big), big) for big, eta in etas]
        stack.extend(reversed(nxt))
    return delta, tuple(seq)


# ----- classification -----------------------------------------------------


def _lines_through_n(factors: dict, rem, curve: PlaneCurveFq):
    """Add the lines through the strange point (0:1:0) over extensions of
    gf to the rational lines `factors` that base-field peeling took out
    of a strange quartic without a y^4 term, and return both and the
    cofactor over the field of the new lines (gf when there is none); rem
    is the cofactor of the peeling, None when it took no line.

    With a = 0, F = C y^2 + D with C and D in x and z.  A line through
    (0:1:0) other than the rational z is x + b z, which divides F iff it
    divides C and D, so the lines are the linear factors of gcd(C, D), to
    their multiplicities there, read off the normal form at z = 1 as one
    `UPoly.gcd`.  Its rational roots are lines that peeling took, and
    ``_lift_roots`` splits what is left."""
    gf, nf = curve.gf, curve.normal
    c, d = (UPoly.from_coeffs(gf, v[::-1]) for v in (nf.c, nf.d))
    found, big, table = _lift_roots(roots(c.gcd(d))[1], gf)
    if not found:
        return factors, rem, gf
    factors = {tuple(table[v] for v in t): n for t, n in factors.items()}
    rem = embed_form(curve.form if rem is None else rem, gf, big)
    for b, n in found:
        factors[1, 0, b] = n
        rem = rem.divide(line_form(big, (1, 0, b)).pow(n))
    return factors, rem, big


def _biconic_split(nf: NormalForm):
    """Try to write a strange quartic F = a y^4 + C y^2 + D with a != 0 as
    a product (y^2+v)(y^2+w) of distinct strange conics, over the base
    field or its quadratic extension (conjugate pairs), and return its
    components and their field.  For such quartics this is the only
    factorization shape left once squares of smooth conics and linear
    factors are ruled out: an odd-y conic factor would force its cofactor
    to share the odd part, making the product a square.

    F / a = y^4 + A y^2 + B, with A = C / a and B = D / a read off the
    normal form by raw products.  The pair has v + w = A and v w = B, so
    v is a root of T^2 + A T + B, and A = 0 leaves only squares.  A conjugate
    pair over GF(q^2) = GF(q)(theta), theta^2 + theta = tau with
    Tr(tau) = 1, is v = v0 + theta A, w = v + A, where v0 over GF(q) is a
    root of T^2 + A T + B + tau A^2: both rounds search GF(q) alone, and
    tau and theta are read off the fields' tables of Y^2 + Y = b.  A
    square v = l^2, which a conjugate pair of lines y + l not through
    (0:1:0) gives, is the double line y + l."""
    gf, mul, inv = nf.gf, nf.gf.mul, nf.gf.inv(nf.a)
    a2, a1, a0 = acs = [mul(inv, v) for v in nf.c]
    if not any(acs):
        return None
    b4, b3, b2, b1, b0 = (mul(inv, v) for v in nf.d)

    def quad_roots(c0, c1):
        """Roots of X^2 + c1 X + c0 in gf."""
        return [x for x, _ in roots(UPoly.from_coeffs(gf, (c0, c1, 1)))[0]]

    for r in (1, 2):
        # round 2 takes a tau of trace 1: Y^2 + Y = tau has no root in gf
        tau = 0 if r == 1 else gf.artin_schreier().index(None)
        c4, c2, c0 = (b ^ mul(tau, mul(a, a))
                      for b, a in ((b4, a2), (b2, a1), (b0, a0)))
        for p in quad_roots(c4, a2):
            for s in quad_roots(c0, a0):
                for q in quad_roots(c2 ^ mul(p, a0) ^ mul(s, a2), a1):
                    if ((mul(p, a1) ^ mul(q, a2)) != b3
                            or (mul(q, a0) ^ mul(s, a1)) != b1):
                        continue
                    big = gf if r == 1 else GF.get(2 * gf.m)
                    table = gf.embedding_into(big)
                    theta = big.artin_schreier()[table[tau]]
                    v = [table[c] ^ big.mul(theta, table[a])
                         for c, a in zip((p, q, s), acs)]
                    w = [c ^ table[a] for c, a in zip(v, acs)]
                    return tuple(sorted(_strange_conic(big, t)
                                        for t in (v, w))), big
    return None


def _strange_conic(big: GF, v: list):
    """The component y^2 + v0 x^2 + v1 x z + v2 z^2 with its multiplicity:
    for v1 = 0 it is the double line y + sqrt(v0) x + sqrt(v2) z."""
    v0, v1, v2 = v
    if v1:
        return str(raw_form(big, [((0, 2, 0), 1), *(
            ((2 - i, 0, i), c) for i, c in enumerate(v))])), 1
    s0, s2 = big.sqrt(v0), big.sqrt(v2)
    line = (1, big.inv(s0), big.div(s2, s0)) if s0 else (0, 1, s2)
    return str(line_form(big, line)), 2


def classify_fibre(curve: PlaneCurveFq) -> FibreClass:
    """Coarse classification used for the degenerate-fibre tables.

    The form must be a strange quartic in normal form (dF/dy = 0);
    anything else raises `ConstraintViolation`.  The cascade tries the
    square of a smooth conic; linear factors, the rational ones by
    ``plane.peel_lines`` and, without a y^4 term, the lines through
    (0:1:0) by ``_lines_through_n``; a pair of strange conics over GF(q)
    or GF(q^2), found by two searches of GF(q), which also finds the
    square of a conjugate pair of lines not through (0:1:0); and
    otherwise measures an integral quartic at the first point of
    ``singular_locus``, and reads its tangent at a general point off the
    normal form: a hyperflex when C = 0, a bitangent otherwise, and none
    when the zero set holds no point off the locus, i.e. without a
    rational smooth point (see `TangentType`).  A pass beyond
    ``kernels.LOCUS_CAP``, or a line or conjugate singular point beyond
    the field tables, raises `SearchCapped`; a delta above 3 at the
    singular point raises `InternalCheckFailed`.
    """
    if curve.degree() != 4:
        raise ConstraintViolation("the classification taxonomy is quartic")
    gf, nf = curve.gf, curve.normal
    if nf is None:
        raise ConstraintViolation("not a strange quartic: dF/dy != 0")
    if not (nf.c[1] or nf.d[1] or nf.d[3]):        # F = S^2
        root = raw_form(gf, zip(((0, 2, 0), (1, 1, 0), (0, 1, 1), (2, 0, 0),
                                 (1, 0, 1), (0, 0, 2)), nf.square_roots[3:]))
        if is_smooth_conic(root):
            return FibreClass(kind="DoubleConic",
                              components=((str(root), 2),))
    lines = full_lines(curve.zeros, gf)
    factors, rem = peel_lines(curve.form, gf, lines) if lines else ({}, None)
    cur = gf
    if not nf.a:
        factors, rem, cur = _lines_through_n(factors, rem, curve)
    if factors:
        ext = cur.m // gf.m
        comps = tuple(sorted((str(line_form(cur, t)), mult)
                             for t, mult in factors.items()))
        if rem.total_degree() == 0:
            mults = sorted(m for _, m in comps)
            kind = "LinePlusTripleLine" if mults == [1, 3] else "Other"
            return FibreClass(kind=kind, ext=ext, components=comps)
        kind = "Other"
        if list(factors.values()) == [2] and is_smooth_conic(rem):
            kind = "ConicPlusDoubleLine"
        return FibreClass(kind=kind, ext=ext,
                          components=comps + ((str(rem), 1),))
    if nf.a:
        split = _biconic_split(nf)
        if split is not None:
            comps, sgf = split
            return FibreClass(kind="Other", ext=sgf.m // gf.m,
                              components=comps)
    point, ext = (sing := singular_locus(curve))[0]
    delta, seq = delta_invariant(curve, point)
    if delta > 3:       # an integral quartic has arithmetic genus 3
        raise InternalCheckFailed(f"an integral quartic with delta {delta}")
    tangent = None
    if len(curve.zeros) > sum(r == 1 for _, r in sing):
        tangent = (TangentType("Bitangent22", (2, 2)) if any(nf.c)
                   else TangentType("Hyperflex4", (4,)))
    return FibreClass(kind="IntegralQuartic",
                      sing_point=point, ext=ext, multiplicity=seq[0],
                      delta=delta, tangent=tangent)
