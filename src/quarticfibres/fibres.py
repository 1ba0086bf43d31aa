"""Geometric fibres of the quartic fibrations over finite fields of char 2.

Five fibrations are exposed by name.  Three, pi3, pi4 and pi5, are the
families III, IV and V with their parameters in GF(2^m): their forms
(``family_terms``), parameter names (``FAMILY_PARAMS``) and closed-form
singular points (``singular_radicands``) are read from ``families``.  Two
are pencils of plane curves.  A fibre is a ternary form over GF(2^m),
wrapped in `PlaneCurveFq`, and the routines here measure it:

* ``singular_locus`` brute-forces the projective plane over the base
  field and its small extensions (the scans run through ``kernels``);
* ``multiplicity_at`` translates the point into an affine chart and
  reads off the lowest total degree;
* ``delta_invariant`` iterates blowups, summing m(m-1)/2 over the
  infinitely near points;
* ``tangent_contact_type`` restricts the quartic to the tangent line at
  a smooth point and factors the resulting binary quartic;
* ``classify_fibre`` runs the cascade square-root / linear-split /
  biconic / integral and returns a `FibreClass`; the linear split reads
  its candidate lines off the zero set and confirms each by division.

Charts, line peeling and univariate root finding come from ``plane``.
Extension scans are capped: no enumeration touches a field beyond
2^12 elements, and locus searches stop at ``m * ext <= 8``.
"""

from dataclasses import dataclass
from functools import partial

from . import kernels
from .errors import (ConstraintViolation, NotSingular, NotSmoothPoint,
                     NotHomogeneous, PointNotOnCurve, UnsupportedFamily,
                     ZeroForm)
from .families import (FAMILY_PARAMS, FamilyTag, family_terms,
                       singular_radicands)
from .finitefield import GF, GFElem, FieldSpec
from .mpoly import FORM_VARS, MPoly, triform
from .plane import (LOCUS_CAP, chart_at, embed_form, is_smooth_conic,
                    line_form, mult_origin, normalize_point, peel_lines,
                    roots, shift_out)
from .upoly import UPoly

_CAP_BITS = 12      # largest enumerated field: GF(2^12)


@dataclass(frozen=True)
class PlaneCurveFq:
    """A nonzero homogeneous ternary cubic or quartic over GF(2^m)."""

    form: MPoly
    field: FieldSpec

    def __post_init__(self):
        if self.form.is_zero():
            raise ZeroForm("the zero form does not cut out a curve")
        if not self.form.is_homogeneous():
            raise NotHomogeneous("fibres are cut out by homogeneous forms")
        if self.form.total_degree() not in (3, 4):
            raise ConstraintViolation(
                f"expected a cubic or quartic, got degree "
                f"{self.form.total_degree()}")

    @property
    def gf(self) -> GF:
        return self.field.field()

    def degree(self) -> int:
        return self.form.total_degree()


@dataclass(frozen=True)
class TangentType:
    """Contact profile of the tangent line with the curve.

    `profile` lists the intersection multiplicities of the distinct
    geometric contact points (conjugates listed separately), summing to
    the curve degree.
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
    tangent: TangentType | None = None
    components: tuple = ()


# ----- fibration catalogue ------------------------------------------------


# pi3, pi4 and pi5 are the families III, IV and V over GF(2^m)
_FAMILY_OF = {"pi3": FamilyTag.III, "pi4": FamilyTag.IV, "pi5": FamilyTag.V}


def _family_args(tag, coords, zero) -> list:
    """a, b, c, d from a point listing the family's own parameters."""
    given = dict(zip(FAMILY_PARAMS[tag], coords))
    return [given.get(n, zero) for n in ("a", "b", "c", "d")]


def _family_form(tag, gf, *coords):
    args = _family_args(tag, coords, gf.zero_elem())
    return triform(gf, family_terms(tag, gf.one_elem(), *args))


def _pencil_quartic(gf, t0, t1):
    return triform(gf, [((0, 4, 0), t0), ((1, 0, 3), t0), ((3, 0, 1), t1)])


def _pencil_cubic(gf, t0, t1):
    # the cubic pencil's coordinates (u, v, w) are written (x, y, z) here
    return triform(gf, [((1, 2, 0), t0), ((0, 0, 3), t0), ((2, 0, 1), t1)])


# name -> (parameter names, function making the fibre form)
FIBRATIONS = {
    **{name: (tuple(FAMILY_PARAMS[tag]), partial(_family_form, tag))
       for name, tag in _FAMILY_OF.items()},
    "pencil-quartic": (("t0", "t1"), _pencil_quartic),
    "pencil-cubic": (("t0", "t1"), _pencil_cubic),
}


def _point_coords(fibration: str, point, gf) -> list:
    """The parameter point in GF, once the fibration and arity check out."""
    if fibration not in FIBRATIONS:
        raise UnsupportedFamily(
            f"unknown fibration {fibration!r}; "
            f"choose from {sorted(FIBRATIONS)}")
    names, _ = FIBRATIONS[fibration]
    if len(point) != len(names):
        raise ConstraintViolation(
            f"{fibration} takes {len(names)} parameters, got {len(point)}")
    return [c if isinstance(c, GFElem) else gf.elem(c) for c in point]


def specialize_fibre(fibration: str, point, spec: FieldSpec) -> PlaneCurveFq:
    """The fibre of a named fibration over a parameter point."""
    gf = spec.field()
    coords = _point_coords(fibration, point, gf)
    form = FIBRATIONS[fibration][1](gf, *coords)
    if form.is_zero():
        raise ZeroForm(f"fibre of {fibration} at this point is the zero form")
    return PlaneCurveFq(form, spec)


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


def _coerce_point(curve: "PlaneCurveFq", point):
    """Raw-int coordinates are read in the curve's base field."""
    return tuple(c if isinstance(c, GFElem) else GFElem(curve.gf, c)
                 for c in point)


def _check_max_ext(max_ext: int):
    if max_ext < 1:
        raise ConstraintViolation(
            f"max_ext must be at least 1 (the base field), got {max_ext}")


def multiplicity_at(curve: PlaneCurveFq, point) -> int:
    """Multiplicity of the curve at a projective point (1 = smooth)."""
    local, _ = chart_at(curve.form, _coerce_point(curve, point))
    if local.is_zero() or mult_origin(local) == 0:
        raise PointNotOnCurve("the point does not lie on the curve")
    return mult_origin(local)


# ----- singular locus -----------------------------------------------------


def singular_locus(curve: PlaneCurveFq, max_ext: int = 2) -> list:
    """Points where the form and its three partials vanish.

    Scans P^2 over GF(2^{m r}) for r = 1..max_ext (within the size cap),
    deduplicating points already seen over a subfield.  Returns a list
    of (point, r) with each point a GFElem triple over its own field.
    """
    _check_max_ext(max_ext)
    base = curve.gf
    found = []          # (raw coords, r, gf)
    out = []
    for r in range(1, max_ext + 1):
        if base.m * r > LOCUS_CAP:
            break
        gfr = GF.get(base.m * r)
        f = embed_form(curve.form, base, gfr)
        seen = set()
        for coords, s, gfs in found:
            if r % s == 0:
                table = gfs.embedding_into(gfr)
                seen.add(tuple(table[v] for v in coords))
        for raw in kernels.scan_singular_points(f, gfr):
            if raw in seen:
                continue
            found.append((raw, r, gfr))
            out.append((tuple(GFElem(gfr, v) for v in raw), r))
    return out


def smooth_points(curve: PlaneCurveFq, limit: int | None = None,
                  ext: int = 1) -> list:
    """Points of the curve with multiplicity 1, rational over the base
    field (or its degree-`ext` extension), in scan order."""
    gf = curve.gf if ext == 1 else GF.get(curve.gf.m * ext)
    f = embed_form(curve.form, curve.gf, gf)
    pts = kernels.plane_points(gf.q)
    vals = kernels.evaluate_forms(pts, [f] + [f.partial(v) for v in f.vars],
                                  gf)
    smooth = (vals[0] == 0) & vals[1:].any(axis=0)
    return [tuple(GFElem(gf, int(v)) for v in raw)
            for raw in pts[smooth][:limit]]


# ----- tangent contact ----------------------------------------------------


def _binary_profile(g: MPoly, gf) -> tuple:
    """Contact profile of a nonzero binary quartic: root multiplicities
    over the algebraic closure, conjugates counted separately."""
    d = g.total_degree()
    k0 = min(e[1] for e in g.terms)          # multiplicity of the root (1:0)
    cs = [0] * (d - k0 + 1)
    for e, c in g.terms.items():
        cs[e[0]] = c.v
    found, rest = roots(UPoly.from_coeffs(gf, cs))
    profile = ([k0] if k0 else []) + [n for _, n in found]
    # The root-free rest has degree 0, 2, 3 or 4.  Over a perfect field
    # its only repeated factor can be a quadratic squared, which is an
    # even-support quartic; otherwise its roots are simple.
    if rest.deg() == 4 and rest.is_square():
        profile += [2, 2]
    else:
        profile += [1] * rest.deg()
    return tuple(sorted(profile, reverse=True))


def tangent_contact_type(curve: PlaneCurveFq, point) -> TangentType:
    """Factor the restriction of the curve to its tangent line at a
    smooth point."""
    point = _coerce_point(curve, point)
    if multiplicity_at(curve, point) != 1:
        raise NotSmoothPoint("tangent contact is measured at smooth points")
    p, _ = normalize_point(point)
    gf = p[0].gf
    f = embed_form(curve.form, curve.gf, gf)
    vals = {name: c for name, c in zip(f.vars, p)}
    grad = [f.partial(name).eval_point(vals) for name in f.vars]
    j = next(i for i, c in enumerate(grad) if c)
    # two independent points spanning the tangent line
    spans = []
    for i in range(3):
        if i == j:
            continue
        v = [gf.zero_elem()] * 3
        v[i] = gf.one_elem()
        v[j] = grad[i] / grad[j]
        spans.append(v)
    s1, s2 = spans
    mapping = {
        name: MPoly.from_terms(f.vars, gf,
                               [((1, 0, 0), s1[i]), ((0, 1, 0), s2[i])])
        for i, name in enumerate(f.vars)
    }
    g = f.substitute(mapping)
    if g.is_zero():
        raise ConstraintViolation("the tangent line is a component")
    if g.total_degree() != curve.degree():
        raise ConstraintViolation(
            "tangent restriction degenerated")  # pragma: no cover
    profile = _binary_profile(g, gf)
    if profile == (4,):
        kind = "Hyperflex4"
    elif profile == (2, 2):
        kind = "Bitangent22"
    else:
        kind = "Other"
    return TangentType(kind, profile)


# ----- delta invariant ----------------------------------------------------


def _directions(f: MPoly, m: int, iu: int, gf):
    """Roots of the leading binary form: (eta, mult, gf) per finite
    direction plus the multiplicity of the vertical direction (0:1)."""
    cs = [0] * (m + 1)      # c_k u^k v^(m-k), indexed by k
    for e, c in f.terms.items():
        if sum(e) == m:
            cs[e[iu]] = c.v
    # L(1, eta) has coefficient c_{m-j} on eta^j
    h = cs[::-1]
    remaining = UPoly.from_coeffs(gf, h).deg()
    vertical = m - remaining
    out = []
    r = 1
    while remaining > 0:
        if gf.m * r > _CAP_BITS:
            raise ConstraintViolation(
                "blowup direction lies beyond the enumeration cap")
        gfr = GF.get(gf.m * r)
        table = gf.embedding_into(gfr)
        # roots already found over a subfield of GF(2^{m r})
        skip = {gfs.embedding_into(gfr)[alpha]
                for alpha, _, gfs in out if r % (gfs.m // gf.m) == 0}
        for alpha, n in roots(UPoly.from_coeffs(
                gfr, [table[c] for c in h]))[0]:
            if alpha not in skip:
                out.append((alpha, n, gfr))
                remaining -= n
        r += 1
    return out, vertical


def delta_invariant(curve: PlaneCurveFq, point) -> tuple[int, tuple]:
    """Delta invariant at a singular point and the multiplicity sequence
    of the infinitely near points (depth-first when branches split)."""
    local, pivot = chart_at(curve.form, _coerce_point(curve, point))
    if mult_origin(local) < 2:
        raise NotSingular("the delta invariant needs a singular point")
    iu, iv = [i for i in range(3) if i != pivot]
    nu, nv = local.vars[iu], local.vars[iv]
    delta = 0
    seq = []
    stack = [local]
    while stack:
        f = stack.pop()
        gf = f.domain
        m = mult_origin(f)
        seq.append(m)
        if m < 2:
            continue
        delta += m * (m - 1) // 2
        dirs, vertical = _directions(f, m, iu, gf)
        nxt = []
        if vertical:
            u_var = MPoly.var(f.vars, gf, nu)
            v_var = MPoly.var(f.vars, gf, nv)
            g = f.substitute({nu: u_var * v_var})
            nxt.append(shift_out(g, iv, m))
        for alpha, _, gfr in sorted(dirs, key=lambda t: (t[2].m, t[0])):
            fr = embed_form(f, gf, gfr)
            u_var = MPoly.var(f.vars, gfr, nu)
            v_var = MPoly.var(f.vars, gfr, nv)
            eta = MPoly.const(f.vars, gfr, GFElem(gfr, alpha))
            g = fr.substitute({nv: u_var * (eta + v_var)})
            nxt.append(shift_out(g, iu, m))
        stack.extend(reversed(nxt))
    return delta, tuple(seq)


# ----- classification -----------------------------------------------------


def _even_y_monic(form: MPoly) -> bool:
    return bool(form.coeff((0, 4, 0))) and all(e[1] % 2 == 0
                                               for e in form.terms)


def _biconic_split(form: MPoly, gf, max_ext: int = 2):
    """Try to write a quartic with only even y-exponents as a product
    (y^2+v)(y^2+w) of distinct strange conics, over the base field or
    its quadratic extension (conjugate pairs).  For such quartics this
    is the only factorization shape left once squares and rational
    linear factors are ruled out: an odd-y conic factor would force its
    cofactor to share the odd part, making the product a square."""
    lead = form.coeff((0, 4, 0))
    f = form if lead.v == 1 else form.scale(lead.gf.one_elem() / lead)
    acs = [f.coeff((2, 2, 0)).v, f.coeff((1, 2, 1)).v, f.coeff((0, 2, 2)).v]
    bcs = [f.coeff((4, 0, 0)).v, f.coeff((3, 0, 1)).v, f.coeff((2, 0, 2)).v,
           f.coeff((1, 0, 3)).v, f.coeff((0, 0, 4)).v]
    for r in (1, 2):
        if r > max_ext or gf.m * r > LOCUS_CAP:
            break
        gfr = gf if r == 1 else GF.get(gf.m * r)
        table = None if r == 1 else gf.embedding_into(gfr)
        a2, a1, a0 = acs if r == 1 else [table[v] for v in acs]
        b4, b3, b2, b1, b0 = bcs if r == 1 else [table[v] for v in bcs]
        mul = gfr.mul

        def quad_roots(c0, c1):
            """Roots of X^2 + c1 X + c0 in gfr."""
            found, _ = roots(UPoly.from_coeffs(gfr, (c0, c1, 1)))
            return [x for x, _ in found]

        for p in quad_roots(b4, a2):
            for s in quad_roots(b0, a0):
                for q in quad_roots(b2 ^ mul(p, a0) ^ mul(s, a2), a1):
                    if (mul(p, a1) ^ mul(q, a2)) != b3:
                        continue
                    if (mul(q, a0) ^ mul(s, a1)) != b1:
                        continue
                    v = (p, q, s)
                    w = (a2 ^ p, a1 ^ q, a0 ^ s)
                    if v == w:
                        continue  # a perfect square, handled earlier
                    one = gfr.one_elem()
                    pair = tuple(MPoly.from_terms(FORM_VARS, gfr, [
                        ((0, 2, 0), one),
                        ((2, 0, 0), GFElem(gfr, t[0])),
                        ((1, 0, 1), GFElem(gfr, t[1])),
                        ((0, 0, 2), GFElem(gfr, t[2]))]) for t in (v, w))
                    return pair[0], pair[1], gfr
    return None


def classify_fibre(curve: PlaneCurveFq, max_ext: int = 2) -> FibreClass:
    """Coarse classification used for the degenerate-fibre tables."""
    if curve.degree() != 4:
        raise ConstraintViolation("the classification taxonomy is quartic")
    _check_max_ext(max_ext)
    gf = curve.gf
    root = curve.form.square_root()
    if root is not None and is_smooth_conic(root, gf):
        return FibreClass(kind="DoubleConic",
                          components=((str(root), 2),))
    # with only even powers of y and a y^4 term, every linear factor is
    # rational over the base field, so line peeling need not extend
    even_y = _even_y_monic(curve.form)
    factors, rem, cur = peel_lines(curve.form, gf, 1 if even_y else max_ext)
    if factors:
        ext = cur.m // gf.m
        comps = tuple(sorted((str(line_form(cur, t)), mult)
                             for t, mult in factors.items()))
        if rem.total_degree() == 0:
            mults = sorted(m for _, m in comps)
            kind = "LinePlusTripleLine" if mults == [1, 3] else "Other"
            return FibreClass(kind=kind, ext=ext, components=comps)
        kind = "Other"
        if (rem.total_degree() == 2 and list(factors.values()) == [2]
                and is_smooth_conic(rem, cur)):
            kind = "ConicPlusDoubleLine"
        return FibreClass(kind=kind, ext=ext,
                          components=comps + ((str(rem), 1),))
    if even_y:
        split = _biconic_split(curve.form, gf, max_ext)
        if split is not None:
            c0, c1, sgf = split
            return FibreClass(kind="Other", ext=sgf.m // gf.m,
                              components=tuple(sorted(
                                  ((str(c0), 1), (str(c1), 1)))))
    sing = singular_locus(curve, max_ext=max_ext)
    if not sing:
        return FibreClass(kind="IntegralQuartic")  # smooth: nothing to report
    point, ext = sing[0]
    mult = multiplicity_at(curve, point)
    delta, _ = delta_invariant(curve, point)
    tangent = None
    sample = smooth_points(curve, limit=1)
    if sample:
        tangent = tangent_contact_type(curve, sample[0])
    return FibreClass(kind="IntegralQuartic",
                      sing_point=point, ext=ext, multiplicity=mult,
                      delta=delta, tangent=tangent)
