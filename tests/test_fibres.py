"""Fibre specialization, singularity analysis and the classification."""

import functools
import hashlib
import random
import signal
from collections import Counter
from itertools import product

import pytest

from quarticfibres import families, fibres, kernels, plane
from quarticfibres.errors import (ConstraintViolation, NotSingular,
                                  InternalCheckFailed, NotSmoothPoint,
                                  PointNotOnCurve, QuarticError, SearchCapped,
                                  UnsupportedFamily, ZeroForm)
from quarticfibres.families import is_strange
from quarticfibres.fibres import (FIBRATIONS, PlaneCurveFq, TangentType,
                                  classify_fibre, delta_invariant,
                                  multiplicity_at, predicted_singular_point,
                                  singular_locus, smooth_points,
                                  specialize_fibre, tangent_contact_type)
from quarticfibres.finitefield import GF, FieldSpec, GFElem
from quarticfibres.mpoly import FORM_VARS, MPoly
from quarticfibres.parser import parse_form
from quarticfibres.plane import (chart_at, embed_form, line_form, peel_lines,
                                 raw_terms, roots, tangent_cone)
from quarticfibres.resolution import cubic_pencil
from quarticfibres.upoly import UPoly

from locus_oracle import reference_locus

SPEC2 = FieldSpec(1)
SPEC4 = FieldSpec(2)


def _curve(text, spec=SPEC2):
    return PlaneCurveFq(parse_form(text, spec, over="GF"), spec)


def test_catalogue():
    # the cubic pencil is resolved, never classified: not a fibration
    assert set(FIBRATIONS) == {"pi3", "pi4", "pi5", "pencil-quartic"}
    assert len(FIBRATIONS["pi4"][0]) == 3
    assert len(FIBRATIONS["pencil-quartic"][0]) == 2
    for name in ("pi6", "pencil-cubic"):
        with pytest.raises(UnsupportedFamily):
            specialize_fibre(name, (0, 1), SPEC2)


def test_specialize_matches_family_shape():
    c = specialize_fibre("pi4", (0, 1, 0), SPEC2)
    assert c.form == parse_form("y^4 + x*z^3 + x^3*z", SPEC2, over="GF")
    assert is_strange(c.form)
    q = specialize_fibre("pencil-quartic", (1, 1), SPEC2)
    assert q.form == parse_form("y^4 + x*z^3 + x^3*z", SPEC2, over="GF")
    pencil = cubic_pencil()
    cub = PlaneCurveFq(pencil.f0 + pencil.f1, SPEC2)
    assert cub.form == parse_form("x*y^2 + z^3 + x^2*z", SPEC2, over="GF")
    assert cub.degree() == 3


def test_family_fibres_match_hand_expansion():
    # over GF(4) = F2[g]/(g^2+g+1), written 0, 1, g, g+1 = 0, 1, 2, 3
    f3 = specialize_fibre("pi3", (2, 3, 2, 1), SPEC4)
    # c^3 = 1, so x^2 z^2 has b + b^2 c^3 = 1 and x^4 has a b^2 c^3 + a^2 d = 0
    assert f3.form == parse_form(
        "(g+1)*y^4 + z^4 + y^2*z^2 + x*z^3 + x^2*z^2 + g*x^2*y^2"
        " + g*x^3*z", SPEC4, over="GF")
    f4 = specialize_fibre("pi4", (2, 1, 3), SPEC4)
    assert f4.form == parse_form(
        "y^4 + g*z^4 + x*z^3 + x^3*z + (g+1)*x^4", SPEC4, over="GF")
    f5 = specialize_fibre("pi5", (2, 3, 1, 2), SPEC4)
    assert f5.form == parse_form(
        "y^4 + g*y^2*z^2 + (g+1)*z^4 + g*x*z^3 + x^2*y^2 + x^2*z^2"
        " + x^3*z + g*x^4", SPEC4, over="GF")


def test_multiplicity_and_errors():
    cusp = _curve("y^4 + x*z^3")
    assert multiplicity_at(cusp, (1, 0, 0)) == 3
    assert multiplicity_at(cusp, (0, 0, 1)) == 1
    # raw ints and GFElem coordinates are interchangeable
    gf = GF.get(1)
    wrapped = tuple(GFElem(gf, v) for v in (1, 0, 0))
    assert multiplicity_at(cusp, wrapped) == 3
    with pytest.raises(PointNotOnCurve):
        multiplicity_at(cusp, (0, 1, 0))


def test_delta_oracles():
    d4, seq4 = delta_invariant(_curve("y^4 + x*z^3"), (1, 0, 0))
    assert d4 == 3 and seq4[0] == 3
    d3, seq3 = delta_invariant(_curve("x*y^2 + z^3"), (1, 0, 0))
    assert d3 == 1 and seq3 == (2, 1)
    # an ordinary node: delta 1 in a single step
    dn, seqn = delta_invariant(_curve("y^2*z^2 + x*y*z^2 + x^3*z + x^4"),
                               (0, 0, 1))
    assert dn == 1
    with pytest.raises(NotSingular):
        delta_invariant(_curve("y^4 + x*z^3"), (0, 0, 1))


@pytest.mark.parametrize("text, want, r", [
    # a node whose two tangents are conjugate over GF(4)
    ("x^2*z^2 + x*y*z^2 + y^2*z^2 + x^3*z + y^4", (1, (2, 1, 1)), 2),
    # four concurrent lines, conjugate over GF(16)
    ("x^4 + x^3*y + y^4", (6, (4, 1, 1, 1, 1)), 4),
])
def test_delta_through_irrational_directions(text, want, r):
    curve = _curve(text)
    assert delta_invariant(curve, (0, 0, 1)) == want
    local = chart_at(curve.terms, curve.gf, (0, 0, 1), curve.gf)
    etas, vertical = fibres._directions(local, curve.gf, want[1][0])
    assert vertical == 0 and len(etas) == want[1][0]
    assert all(big.m == r for big, _ in etas)


@pytest.mark.parametrize("text", ["x^2*y^2", "x^2*y"])
def test_delta_rejects_a_non_reduced_curve(text):
    # along a double component the blow-ups never end: delta at a point of
    # a reduced curve of degree d is at most d(d-1)/2, and the alarm fails
    # the test instead of hanging the suite if that bound stops working
    def hang(signum, frame):
        raise TimeoutError("delta_invariant did not return")
    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(8)
    try:
        with pytest.raises(ConstraintViolation,
                           match="curve is not reduced at this point"):
            delta_invariant(_curve(text), (0, 0, 1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_singular_locus_extension_points():
    c = specialize_fibre("pi4", (1, 1, 1), SPEC2)
    locus = singular_locus(c)
    assert len(locus) == 1
    point, ext = locus[0]
    pred = predicted_singular_point("pi4", (1, 1, 1), SPEC2)
    assert tuple(v.v for v in point) == tuple(v.v for v in pred)
    # (ab^2+c)^(1/4) = 0^(1/4)... over F2 all fourth roots are rational
    assert ext == 1
    # x^4 + x^2 y^2 + y^4 + x z^3 meets its line L = z where y^2 + x y +
    # x^2 = 0: a conjugate pair over GF(4), after no rational point
    locus = singular_locus(_curve("x^4 + x^2*y^2 + y^4 + x*z^3"))
    assert [(tuple(v.v for v in p), r) for p, r in locus] == [
        ((1, 2, 0), 2), ((1, 3, 0), 2)]
    assert all(p[0].gf is GF.get(r) for p, r in locus)
    # y^2 (x^2+xz+z^2) is singular along its double line y = L, and the
    # square of a conic everywhere: a curve, not a list of points
    for text in ("y^2*x^2 + y^2*x*z + y^2*z^2", "y^4 + x^2*z^2"):
        with pytest.raises(ConstraintViolation, match="locus"):
            singular_locus(_curve(text))


def test_non_default_modulus():
    # the same field GF(8) written with another modulus: every integral
    # pi4 fibre is measured at its closed-form point in that very field
    spec = FieldSpec(3, 0b1101)                      # u^3+u^2+1
    count = 0
    for point in product(range(8), repeat=3):
        if point[1] == 0:
            continue
        cls = classify_fibre(specialize_fibre("pi4", point, spec))
        pred = predicted_singular_point("pi4", point, spec)
        assert cls.sing_point == pred and cls.ext == 1, point
        assert cls.delta == 3 and cls.multiplicity == 2, point
        count += 1
    assert count == 448


def test_reducible_fibres_answer_beyond_the_scan_cap(monkeypatch):
    # a reducible fibre's lines and conic pair are read off its normal
    # form, so it answers beyond the GF(2^8) cap of the plane scans and
    # builds no plane, up to the GF(2^16) field tables
    planes = _count_calls(monkeypatch, kernels, "_coordinates")
    points = _count_calls(monkeypatch, kernels, "plane_points")
    for m in (9, 16):
        cls = classify_fibre(specialize_fibre("pi3", (1, 0, 1, 0),
                                              FieldSpec(m)))
        assert (cls.kind, cls.ext, cls.components) == (
            "ConicPlusDoubleLine", 1, (("x+z", 2), ("y^2+x*z", 1)))
    cls = classify_fibre(specialize_fibre("pi3", (1, 1, 0, 0), FieldSpec(9)))
    assert (cls.kind, cls.ext, len(cls.components)) == ("Other", 1, 2)
    assert planes == points == []
    # a conjugate conic pair over GF(2^18) is beyond the field tables
    with pytest.raises(SearchCapped, match="conic pair over GF.2.18. is"
                       " beyond the GF.2.16."):
        classify_fibre(specialize_fibre("pi5", (0, 1, 1, 1), FieldSpec(9)))


def test_search_beyond_the_cap_raises(monkeypatch):
    # every reader of a plane scan over GF(512), the tangent of an
    # integral answer included, raises SearchCapped from the one check in
    # kernels, before a monomial plane is built; the singular locus reads
    # no scan, so it answers there
    spec = FieldSpec(9)
    planes = _count_calls(monkeypatch, kernels, "_coordinates")
    points = _count_calls(monkeypatch, kernels, "plane_points")
    with pytest.raises(SearchCapped, match="plane scan over GF.2.9."):
        classify_fibre(specialize_fibre("pi4", (3, 5, 7), spec))
    with pytest.raises(SearchCapped, match="plane scan over GF.2.9."):
        smooth_points(specialize_fibre("pi4", (3, 5, 7), spec))
    locus = singular_locus(specialize_fibre("pi4", (3, 5, 7), spec))
    pred = predicted_singular_point("pi4", (3, 5, 7), spec)
    assert locus == [(pred, 1)]
    assert planes == points == []
    # four lines through (0:1:0) conjugate over GF(2^20): the root lift
    # stops at the field tables
    with pytest.raises(SearchCapped, match="beyond the GF.2.16."):
        classify_fibre(_curve("x^4+x^3*z+z^4", FieldSpec(5)))
    # singular at (1:g:0) with g in GF(4), conjugate over GF(32): the
    # root lift builds GF(2^10) for the pair, and nothing scans it
    cls = classify_fibre(_curve("x^4+x^2*y^2+y^4+x*z^3", FieldSpec(5)))
    assert (cls.kind, cls.ext, cls.multiplicity, cls.delta) == (
        "IntegralQuartic", 2, 2, 1)


def test_predicted_points_all_fibrations():
    for name, point in (("pi3", (1, 1, 1, 0)), ("pi4", (0, 1, 1)),
                        ("pi5", (1, 1, 0, 1)),
                        ("pencil-quartic", (1, 1))):
        spec = SPEC4
        curve = specialize_fibre(name, point, spec)
        pred = predicted_singular_point(name, point, spec)
        assert multiplicity_at(curve, pred) >= 2
    # the point is checked as for specialize_fibre, never padded or cut
    for name, point in (("pi4", (1, 1)), ("pi3", (1, 1, 1, 0, 0))):
        with pytest.raises(ConstraintViolation):
            predicted_singular_point(name, point, SPEC4)
    with pytest.raises(UnsupportedFamily):
        predicted_singular_point("pencil-cubic", (1, 1), SPEC4)


@pytest.mark.parametrize("fn", [specialize_fibre, predicted_singular_point])
@pytest.mark.parametrize("c", [700, -1, GFElem(GF.get(3), 7), 7.0, "7"])
def test_parameters_outside_the_field_are_refused(fn, c):
    # a parameter is a raw int in range(64) or an element of GF(64) itself,
    # as a point's coordinate is: nothing is reduced, reinterpreted or
    # left to fail in the arithmetic
    with pytest.raises(ConstraintViolation):
        fn("pi4", (3, 5, c), FieldSpec(6))


def _count_new(monkeypatch, cls):
    made = []
    init = cls.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)
    monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_fibres_are_classified_off_the_normal_form(monkeypatch):
    # machine-independent work counts: a fibration's fibre is read from its
    # terms into the record, and classifying it runs no strangeness test
    # beyond that one pass and builds an MPoly only for a printed component
    forms = _count_new(monkeypatch, MPoly)
    strange = _count_calls(monkeypatch, families, "is_strange")
    monkeypatch.setattr(fibres, "is_strange", families.is_strange,
                        raising=False)
    for name, point, m in (("pi4", (3, 5, 7), 6), ("pi3", (1, 2, 3, 4), 3)):
        cls = classify_fibre(specialize_fibre(name, point, FieldSpec(m)))
        assert cls.kind == "IntegralQuartic"
    assert forms == [] and strange == []
    cls = classify_fibre(specialize_fibre("pi5", (0, 0, 1, 2), FieldSpec(3)))
    assert (cls.kind, len(cls.components)) == ("Other", 2)
    assert len(forms) == 2 and strange == []


def test_a_form_is_tested_for_strangeness_once(monkeypatch):
    # a machine-independent work count: the record is read when the curve
    # is made from a form, and the classification, the locus and the
    # smooth points all read that record
    read = fibres.NormalForm.read.__func__
    calls = []

    def counted(cls, gf, terms):
        calls.append(gf)
        return read(cls, gf, terms)
    monkeypatch.setattr(fibres.NormalForm, "read", classmethod(counted))
    spec = FieldSpec(6)
    curve = PlaneCurveFq(specialize_fibre("pi4", (3, 5, 7), spec).form, spec)
    assert len(calls) == 2     # the fibre's record, then the form's
    assert classify_fibre(curve).kind == "IntegralQuartic"
    singular_locus(curve)
    smooth_points(curve, limit=1)
    assert len(calls) == 2
    assert curve.normal == specialize_fibre("pi4", (3, 5, 7), spec).normal


def test_tangent_types():
    c4 = specialize_fibre("pi4", (0, 1, 0), SPEC2)
    pts = smooth_points(c4, limit=2)
    assert pts
    for p in pts:
        tt = tangent_contact_type(c4, p)
        assert tt.kind == "Hyperflex4" and tuple(tt.profile) == (4,)
    c3 = specialize_fibre("pi3", (0, 1, 1, 0), SPEC2)
    p3 = smooth_points(c3, limit=1)[0]
    t3 = tangent_contact_type(c3, p3)
    assert t3.kind == "Bitangent22" and tuple(t3.profile) == (2, 2)
    with pytest.raises(NotSmoothPoint):
        tangent_contact_type(c4, (1, 0, 1))  # the singular point
    with pytest.raises(PointNotOnCurve):
        tangent_contact_type(c4, (1, 1, 1))
    with pytest.raises(ConstraintViolation):
        tangent_contact_type(c4, (0, 0, 0))


# ----- tangent contact against substitution -------------------------------


def _binary_profile(g: MPoly) -> tuple:
    """Root multiplicities of a nonzero binary quartic in (x, y) over the
    algebraic closure, conjugates counted separately."""
    # read with u = y and v = x; k0 is the multiplicity of the root (1:0)
    h, k0 = tangent_cone({(e[1], e[0]): c.v for e, c in g.terms.items()},
                         g.domain, g.total_degree())
    found, rest = roots(h)
    profile = ([k0] if k0 else []) + [n for _, n in found]
    if rest.deg() == 4 and rest.is_square():
        profile += [2, 2]
    else:
        profile += [1] * rest.deg()
    return tuple(sorted(profile, reverse=True))


def _tangent_by_substitution(curve, point) -> TangentType:
    """The reference restriction: two points span the tangent line, and
    the form is substituted along them as a binary quartic."""
    raw, gf = fibres._coerce_point(curve, point)
    i = next((k for k, c in enumerate(raw) if c), None)
    if i is None:
        raise ConstraintViolation("(0:0:0) is not a projective point")
    p = tuple(GFElem(gf, gf.div(c, raw[i])) for c in raw)
    f = embed_form(curve.form, curve.gf, gf)
    vals = dict(zip(f.vars, p))
    if f.eval_point(vals):
        raise PointNotOnCurve("the point does not lie on the curve")
    grad = [f.partial(name).eval_point(vals) for name in f.vars]
    if not any(grad):
        raise NotSmoothPoint("tangent contact is measured at smooth points")
    j = next(i for i, c in enumerate(grad) if c)
    spans = []
    for i in range(3):
        if i != j:
            v = [gf.zero_elem()] * 3
            v[i], v[j] = gf.one_elem(), grad[i] / grad[j]
            spans.append(v)
    s1, s2 = spans
    g = f.substitute({
        name: MPoly.from_terms(f.vars, gf,
                               [((1, 0, 0), s1[i]), ((0, 1, 0), s2[i])])
        for i, name in enumerate(f.vars)})
    if g.is_zero():
        raise ConstraintViolation("the tangent line is a component")
    profile = _binary_profile(g)
    kind = {(4,): "Hyperflex4", (2, 2): "Bitangent22"}.get(profile, "Other")
    return TangentType(kind, profile)


def _outcome(fn, curve, point):
    try:
        tangent = fn(curve, point)
    except QuarticError as exc:
        return type(exc)
    return tangent.kind, tangent.profile


def _oracle_curves(gf, rng):
    """Seeded fibres of pi3, pi4, pi5 and pencil-quartic, and dense random
    quartics, which are not strange."""
    spec = FieldSpec(gf.m)
    for name in ("pi3", "pi4", "pi5", "pencil-quartic"):
        for _ in range(3):
            point = [rng.randrange(gf.q) for _ in FIBRATIONS[name][0]]
            try:
                yield specialize_fibre(name, point, spec)
            except ZeroForm:
                pass
    for _ in range(3):
        form = MPoly.from_terms(FORM_VARS, gf, [
            ((i, j, 4 - i - j), GFElem(gf, rng.randrange(gf.q)))
            for i in range(5) for j in range(5 - i)])
        if form and not is_strange(form):
            yield PlaneCurveFq(form, spec)


def _points_over_the_square(curve, rng):
    """Points of the curve over GF(q^2) on random lines x = x0 z, and one
    random point of P^2(GF(q^2)), which is mostly off the curve."""
    big = GF.get(2 * curve.gf.m)
    f = embed_form(curve.form, curve.gf, big)
    out = [tuple(GFElem(big, rng.randrange(big.q)) for _ in range(3))]
    for _ in range(2):
        x0 = GFElem(big, rng.randrange(big.q))
        cs = [big.zero_elem()] * 5
        for e, c in f.terms.items():
            cs[e[1]] = cs[e[1]] + c * x0 ** e[0]
        h = UPoly.from_coeffs(big, [c.v for c in cs])
        if h:
            out += [(x0, GFElem(big, y), big.one_elem())
                    for y, _ in roots(h)[0][:2]]
    return out


@pytest.mark.parametrize("m", range(1, 7))
def test_tangent_contact_matches_substitution(m):
    rng = random.Random(1700 + m)
    gf = GF.get(m)
    checked = 0
    for curve in _oracle_curves(gf, rng):
        zeros = kernels.scan_zero_points(curve.terms, gf)
        singular = kernels.scan_singular_points(curve.form, gf)
        smooth = [p for p in zeros if p not in singular]
        points = rng.sample(smooth, min(4, len(smooth))) + list(singular)
        zero_set = set(zeros)
        points += [p for p in (tuple(rng.randrange(gf.q) for _ in range(3))
                               for _ in range(4))
                   if any(p) and p not in zero_set][:2]
        points += [(0, 1, z) for z in rng.sample(range(gf.q), min(3, gf.q))]
        points += [(0, 0, 1)] + _points_over_the_square(curve, rng)
        for point in points:
            assert (_outcome(tangent_contact_type, curve, point)
                    == _outcome(_tangent_by_substitution, curve, point)), (
                        str(curve.form), point)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("fn", [multiplicity_at, delta_invariant,
                                tangent_contact_type])
@pytest.mark.parametrize("point", [
    (1, 0), (1, 0, 1, 0), (1, 0, 5), (1, 0, 4), (1, 0, -1), (1, 0.0, 1),
    (GFElem(GF.get(4), 5), 0, 1), (1, GF.get(2).one_elem(),
                                   GF.get(4).one_elem())])
def test_malformed_points_are_refused(fn, point):
    # over GF(4) a raw coordinate is an int in range(4), and all three
    # coordinates lie in one field; nothing is padded, cut or wrapped
    curve = specialize_fibre("pi4", (0, 1, 0), SPEC4)
    with pytest.raises(ConstraintViolation):
        fn(curve, point)


def test_smooth_points_extension():
    c = specialize_fibre("pi4", (0, 1, 0), SPEC2)
    base = smooth_points(c)
    assert smooth_points(c, limit=1) == base[:1]


def test_classify_integral():
    cls = classify_fibre(specialize_fibre("pi4", (0, 0, 0), SPEC2))
    assert cls.kind == "IntegralQuartic"
    assert cls.multiplicity == 3 and cls.delta == 3
    assert cls.tangent.kind == "Hyperflex4"
    cls2 = classify_fibre(specialize_fibre("pi4", (0, 1, 0), SPEC2))
    assert cls2.multiplicity == 2 and cls2.delta == 3
    assert tuple(v.v for v in cls2.sing_point) == (1, 0, 1)


def test_integral_tangent_is_read_from_c():
    # y^4 + x^2 y^2 + x z^3 has C = x^2, so its general tangent is a
    # bitangent; its first smooth point (0:0:1) lies on the hyperflex line
    # x = 0, where C vanishes, and the answer does not follow that point
    curve = _curve("y^4 + x^2*y^2 + x*z^3")
    point = smooth_points(curve, limit=1)[0]
    assert tuple(v.v for v in point) == (0, 0, 1)
    assert tangent_contact_type(curve, point).kind == "Hyperflex4"
    cls = classify_fibre(curve)
    assert cls.kind == "IntegralQuartic"
    assert cls.tangent == TangentType("Bitangent22", (2, 2))


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_classify_divides_only_by_candidate_lines(monkeypatch):
    # a machine-independent work count: trial division by every line of
    # P^2(GF(64)) would take 4161 divisions
    calls = _count_calls(monkeypatch, MPoly, "divide")
    charts = _count_calls(monkeypatch, fibres, "chart_at")
    cls = classify_fibre(specialize_fibre("pi4", (3, 5, 7), FieldSpec(6)))
    assert cls.kind == "IntegralQuartic"
    assert len(calls) <= 8
    # the multiplicity is the first of the delta invariant's sequence
    sing = tuple(c.v for c in cls.sing_point)
    assert sum(tuple(point) == sing for _, _, point, _ in charts) == 1


def test_gf64_fibre_plane_products(monkeypatch):
    # a machine-independent work count: of the monomial planes of a pi4
    # fibre and its partials, x^i y^j z^k (i > 0) is y^j z^k on the affine
    # mask, so only y^2, y^3, y^4, z^2, z^3 and z^4 take a product of
    # planes
    calls = _count_calls(monkeypatch, kernels, "_mul")
    cls = classify_fibre(specialize_fibre("pi4", (3, 5, 7), FieldSpec(6)))
    assert cls.kind == "IntegralQuartic"
    assert len(calls) == 6


def test_classify_evaluates_the_fibre_once_per_field(monkeypatch):
    # a machine-independent work count: F alone is evaluated over
    # P^2(GF(16)) once, for the smooth-point count of the tangent, and
    # never over GF(256)
    calls = _count_calls(monkeypatch, kernels, "_zero_masks")
    curve = specialize_fibre("pi4", (3, 5, 7), FieldSpec(4))
    assert classify_fibre(curve).kind == "IntegralQuartic"
    rounds = [(len(forms), gf.m) for forms, gf in calls]
    assert rounds == [(1, 4)]
    # later readers of the same curve scan nothing: the locus is a closed
    # form and the smooth points are the kept zero set less the locus
    singular_locus(curve)
    smooth_points(curve)
    assert [(len(forms), gf.m) for forms, gf in calls] == rounds


def test_integral_fibres_make_no_extension_scan(monkeypatch):
    # a machine-independent work count: the singular point of an integral
    # fibre of pi3, pi4 or pi5 is rational, so the one pass over GF(8)
    # holds it and nothing is evaluated over GF(64)
    calls = _count_calls(monkeypatch, kernels, "_zero_masks")
    for name, point in (("pi3", (1, 2, 3, 4)), ("pi4", (3, 5, 7)),
                        ("pi5", (1, 2, 3, 4))):
        cls = classify_fibre(specialize_fibre(name, point, FieldSpec(3)))
        assert (cls.kind, cls.ext, cls.delta) == ("IntegralQuartic", 1, 3)
    assert calls and {gf.m for _, gf in calls} == {3}


def test_singular_point_over_the_extension(monkeypatch):
    # no rational singular point: the locus's root lift finds the
    # conjugate pair (1:g:0), (1:g+1:0) over GF(4) with no scan, so F is
    # evaluated once, over P^2(GF(2)), for the tangent
    calls = _count_calls(monkeypatch, kernels, "_zero_masks")
    cls = classify_fibre(_curve("x^4 + x^2*y^2 + y^4 + x*z^3"))
    assert [(len(forms), gf.m) for forms, gf in calls] == [(1, 1)]
    assert (cls.kind, cls.ext, cls.multiplicity, cls.delta) == (
        "IntegralQuartic", 2, 2, 1)
    assert cls.sing_point == tuple(GF.get(2).elem(v) for v in (1, 2, 0))
    assert cls.tangent.kind == "Bitangent22"


def test_classify_double_conic(monkeypatch):
    scans = _count_calls(monkeypatch, kernels, "scan_singular_points")
    cls = classify_fibre(specialize_fibre("pi5", (1, 1, 1, 0), SPEC4))
    assert scans == []      # the smooth-conic test is a closed form
    assert cls.kind == "DoubleConic"
    assert len(cls.components) == 1 and cls.components[0][1] == 2


def test_classify_conic_plus_double_line(monkeypatch):
    scans = _count_calls(monkeypatch, kernels, "scan_singular_points")
    cls = classify_fibre(specialize_fibre("pi3", (1, 0, 1, 0), SPEC2))
    assert scans == []
    assert cls.kind == "ConicPlusDoubleLine"
    mults = sorted(m for _, m in cls.components)
    assert mults == [1, 2]


def test_classify_line_plus_triple_line():
    cls = classify_fibre(specialize_fibre("pencil-quartic", (0, 1), SPEC2))
    assert cls.kind == "LinePlusTripleLine"
    assert sorted(m for _, m in cls.components) == [1, 3]


def test_classify_biconic_splits():
    # (y^2+xz)(y^2+xz+z^2): rational conic pair
    cls = classify_fibre(specialize_fibre("pi5", (0, 0, 0, 1), SPEC4))
    assert cls.kind == "Other" and cls.ext == 1
    assert len(cls.components) == 2
    forms = [parse_form(f, SPEC4, over="GF") for f, _ in cls.components]
    prod = forms[0] * forms[1]
    assert prod == specialize_fibre("pi5", (0, 0, 0, 1), SPEC4).form
    # conjugate pair over the quadratic extension
    cls2 = classify_fibre(specialize_fibre("pi5", (0, 0, 1, 2), SPEC4))
    assert cls2.kind == "Other" and cls2.ext == 2
    assert len(cls2.components) == 2


def _multiplies_back(curve, cls) -> bool:
    """Whether the printed components, read over GF(q^ext), multiply back
    to the fibre up to a unit."""
    big = FieldSpec(curve.field.m * cls.ext)
    prod = None
    for text, mult in cls.components:
        part = parse_form(text, big, over="GF").pow(mult)
        prod = part if prod is None else prod * part
    target = embed_form(curve.form, curve.gf, big.field())
    return prod.scale(target.lead()[1] / prod.lead()[1]) == target


@pytest.mark.parametrize("name, point, m", [
    ("pi5", (0, 23, 24, 15), 5), ("pi3", (23, 11, 0, 22), 5),
    ("pi5", (8, 0, 24, 11), 5), ("pi3", (54, 37, 0, 23), 6),
    ("pi5", (0, 36, 24, 26), 6)])
def test_conjugate_conic_pairs_beyond_gf256(name, point, m):
    # the pairs split over GF(2^10) and GF(2^12), beyond the GF(2^8) cap
    # of the plane scans; both rounds of the biconic split search GF(q)
    curve = specialize_fibre(name, point, FieldSpec(m))
    cls = classify_fibre(curve)
    assert (cls.kind, cls.ext, len(cls.components)) == ("Other", 2, 2)
    assert _multiplies_back(curve, cls)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_square_of_a_line_pair_is_two_double_lines(m):
    # y^4 + x^2 y^2 + x^4 = ((y + g x)(y + (g+1) x))^2 with g^2 + g = 1:
    # the lines are rational over GF(4) and conjugate over GF(2) and GF(8),
    # and either way the answer is two double lines, not two singular
    # "conics" g x^2 + y^2 and (g+1) x^2 + y^2
    spec = FieldSpec(m)
    curve = _curve("y^4 + x^2*y^2 + x^4", spec)
    cls = classify_fibre(curve)
    assert (cls.kind, cls.ext) == ("Other", 1 if m == 2 else 2)
    big = FieldSpec(m * cls.ext)
    assert sorted((parse_form(text, big, over="GF").total_degree(), mult)
                  for text, mult in cls.components) == [(1, 2), (1, 2)]
    assert _multiplies_back(curve, cls)


def test_conic_pair_strata_split_for_every_m():
    # pi3 with b != 0 = c and pi5 with d != 0 = a are pairs of strange
    # conics (the census derivation below), over GF(q) or GF(q^2)
    rng = random.Random(18)
    exts = Counter()
    for m, (name, zero) in product((5, 6), (("pi3", 2), ("pi5", 0))):
        for _ in range(20):
            point = [rng.randrange(1, 1 << m) for _ in range(4)]
            point[zero] = 0
            cls = classify_fibre(specialize_fibre(name, point, FieldSpec(m)))
            assert cls.kind == "Other", (name, point, m, cls)
            exts[cls.ext] += 1
    assert set(exts) == {1, 2}


def test_biconic_split_searches_the_base_field(monkeypatch):
    # a machine-independent work count: the conjugate round solves over
    # GF(8), so an integral fibre makes no root search over GF(64)
    calls = _count_calls(monkeypatch, fibres, "roots")
    cls = classify_fibre(specialize_fibre("pi3", (1, 2, 3, 4), FieldSpec(3)))
    assert cls.kind == "IntegralQuartic"
    assert calls and {h.gf.m for h, in calls} == {3}


def test_gf64_fibre_searches_do_not_walk_the_field(monkeypatch):
    # a machine-independent work count: every root found while classifying
    # is a closed form (the tangent cones and the tangent restriction are
    # 2^j-th powers of polynomials of degree <= 2)
    scans = _count_calls(monkeypatch, plane, "_horner_roots")
    cls = classify_fibre(specialize_fibre("pi4", (3, 5, 7), FieldSpec(6)))
    assert cls.kind == "IntegralQuartic" and cls.tangent is not None
    assert scans == []


def test_gf64_fibre_is_measured_on_raw_ints(monkeypatch):
    # a machine-independent work count: the local equations of the delta
    # invariant are dicts of raw field ints, so it makes or combines no
    # GFElem; its chart is the only one built, the tangent is read off the
    # form with no restriction to a line, and of the pass only the q + 1
    # zeros that the tangent count reads and the singular head are
    # decoded
    inside, elem_calls, decoded = [], [], []
    tangents = _count_calls(monkeypatch, fibres, "tangent_contact_type")
    charts = _count_calls(monkeypatch, fibres, "chart_at")
    for name in ("__init__", "__add__", "__sub__", "__mul__", "__truediv__",
                 "__pow__", "square", "sqrt", "fourth_root"):
        def counted(*args, _fn=getattr(GFElem, name), _name=name):
            if inside:
                elem_calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(GFElem, name, counted)
    for name in ("delta_invariant", "tangent_contact_type"):
        def flagged(*args, _fn=getattr(fibres, name)):
            inside.append(True)
            try:
                return _fn(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(fibres, name, flagged)
    mask_points = kernels.mask_points

    def decode(*args):
        decoded.append(mask_points(*args))
        return decoded[-1]
    monkeypatch.setattr(kernels, "mask_points", decode)
    cls = classify_fibre(specialize_fibre("pi4", (3, 5, 7), FieldSpec(6)))
    assert (cls.kind, cls.delta) == ("IntegralQuartic", 3)
    assert cls.tangent is not None and elem_calls == []
    assert tangents == [] and len(charts) == 1
    assert 0 < sum(map(len, decoded)) <= 64 + 2


@pytest.mark.parametrize("m", [1, 3])
def test_integral_answer_beyond_delta_3_raises(m, monkeypatch):
    # four conjugate concurrent lines: with the lines through (0:1:0)
    # unfound, the form reaches the integral branch with delta 6 there,
    # more than the arithmetic genus 3 of an integral quartic
    monkeypatch.setattr(fibres, "_lines_through_n",
                        lambda factors, rem, curve, rest: (factors, rem,
                                                           curve.gf))
    with pytest.raises(InternalCheckFailed, match="with delta 6"):
        classify_fibre(_curve("x^4 + x*z^3 + z^4", FieldSpec(m)))


@pytest.mark.parametrize("text, m, ext", [
    # four lines x + b z with b^4 + b^3 + 1 = 0, irreducible over GF(2)
    # and GF(8): all four over GF(2^(4m))
    ("x^4 + x*z^3 + z^4", 1, 4), ("x^4 + x*z^3 + z^4", 3, 4),
    # the line x and three lines conjugate over GF(8)
    ("x^4 + x^3*z + x*z^3", 1, 3),
    # four lines conjugate over GF(256)
    ("g*x^4 + (g+1)*x^3*z + g*x^2*z^2 + g*x*z^3 + (g+1)*z^4", 2, 4)])
def test_lines_through_n_beyond_gf_q2(text, m, ext):
    curve = _curve(text, FieldSpec(m))
    cls = classify_fibre(curve)
    assert (cls.kind, cls.ext) == ("Other", ext)
    assert [mult for _, mult in cls.components] == [1, 1, 1, 1]
    assert _multiplies_back(curve, cls)


def test_line_pair_beyond_the_scan_cap():
    # the pair x^2+xz+z^2 splits over GF(2^10), whose plane is beyond the
    # scan cap; its lines come from the binary gcd, with no scan
    cls = classify_fibre(_curve("(x^2+x*z+z^2)*(y^2+x*z)", FieldSpec(5)))
    assert (cls.kind, cls.ext) == ("Other", 2)
    assert len(cls.components) == 3 and cls.components[-1] == ("y^2+x*z", 1)


def test_classify_rejects_non_quartic():
    with pytest.raises(ConstraintViolation,
                       match="the classification taxonomy is quartic"):
        classify_fibre(_curve("x*y^2 + z^3"))


@pytest.mark.parametrize("text", [
    # (xy + xz + g yz)(xy + xz + (g+1) yz), a conjugate conic pair, which
    # the cascade would call integral
    "x^2*y^2 + x*y^2*z + x^2*z^2 + x*y*z^2 + y^2*z^2",
    # three singular points, conjugate over GF(8), which the pass misses
    # and the GF(4) locus round cannot see: it would be called smooth
    "y^4 + x^3*z + x*y^2*z + y^3*z + x*y*z^2 + y*z^3"])
def test_classify_takes_strange_forms_only(text):
    # "no line and no conic pair, so integral" holds for dF/dy = 0 only
    with pytest.raises(ConstraintViolation, match="not a strange quartic"):
        classify_fibre(_curve(text))


def test_direction_lift_stops_at_the_field_tables():
    # the node's tangents are conjugate over GF(2^(2m)) for odd m: the
    # lift to GF(2^14) is solved in closed form, and GF(2^18) has no
    # tables
    node = "x^2*z^2 + x*y*z^2 + y^2*z^2 + x^3*z + y^4"
    assert delta_invariant(_curve(node, FieldSpec(7)), (0, 0, 1)) == (
        1, (2, 1, 1))
    with pytest.raises(SearchCapped, match="beyond the GF.2.16."):
        delta_invariant(_curve(node, FieldSpec(9)), (0, 0, 1))


def test_root_lift_builds_only_the_splitting_field(monkeypatch):
    # a machine-independent work count: the lift reads its degree r off h
    # before it builds a field, so x^4+x z^3+z^4 over GF(32), irreducible
    # there, builds no extension before it is refused, and the line x and
    # the cubic x^3+x^2 z+z^3 of x^4+x^3 z+x z^3 build GF(2^15) alone
    built = []
    get = GF.get

    def counted(m, modulus=None):
        built.append(m)
        return get(m, modulus)
    monkeypatch.setattr(GF, "get", staticmethod(counted))
    with pytest.raises(SearchCapped, match="GF.2.20. is beyond the GF.2.16."):
        classify_fibre(_curve("x^4+x*z^3+z^4", FieldSpec(5)))
    assert set(built) == {5}
    built.clear()
    cls = classify_fibre(_curve("x^4+x^3*z+x*z^3", FieldSpec(5)))
    assert (cls.kind, cls.ext, len(cls.components)) == ("Other", 3, 4)
    assert set(built) == {5, 15}


@functools.cache
def _grid(name, m):
    """Every fibre of a fibration over GF(2^m), with its class; a pencil's
    (0, 0) is no member."""
    spec = FieldSpec(m)
    out = []
    for point in product(range(spec.field().q),
                         repeat=len(FIBRATIONS[name][0])):
        try:
            curve = specialize_fibre(name, point, spec)
        except ZeroForm:
            continue
        out.append((point, curve, classify_fibre(curve)))
    return out


def _sha1(lines) -> str:
    return hashlib.sha1("".join(f"{line}\n" for line in lines)
                        .encode()).hexdigest()


# SHA-1 of the repr of every answer, one a line in grid order: a change to
# an answer or to how it prints moves the digest of its group
_GRID_DIGESTS = {
    ("pencil-quartic", 1): "8460e9f2f2197058a9e4a797a76d6c978bbc6e4e",
    ("pencil-quartic", 2): "3b39633d677bd60b96e2d153d1b4c884df33fb6e",
    ("pencil-quartic", 3): "b1c5dd997b991e2d41ce9353241ca8e66535829c",
    ("pi3", 1): "48e80beca8929366b369ba406fcb97a402e25188",
    ("pi3", 2): "0aff267f7084c6f9a2a3e332040146a3856f51f4",
    ("pi3", 3): "8b91b638168124f8edc521cff039c4ae733cd609",
    ("pi4", 1): "2ef33bfee9b1f5cb52165c70013507929e2b6925",
    ("pi4", 2): "94c70ef70d4ce21111ef2b7f6bb0ffd7d4a5579a",
    ("pi4", 3): "8fb15cad97abdf09efefb679041b8a3764dd3b37",
    ("pi5", 1): "58be9ad9c3142a973b3a2f2f58b9317efcf62a5a",
    ("pi5", 2): "a37133a52ba3ec9629bfa17ca170c786b2028963",
    ("pi5", 3): "ad600fc540d6c3f187f7dbab9c770cfa7639c443",
}
_CENSUS_DIGESTS = {1: "df7391c4a45abf1d5b2540b43c827544bf3431cc",
                   2: "160970f1f39895e18f910431a67e47d936aba95f",
                   3: "228d79ce049849dd57d7bda049c885ba7ab6cbb8"}


def test_every_grid_answer_is_pinned():
    # the byte-identity contract on the 9401 fibres of the m <= 3 grids
    moved = [key for key, want in _GRID_DIGESTS.items()
             if _sha1(repr(cls) for _, _, cls in _grid(*key)) != want]
    assert moved == []


def test_components_multiply_back_over_reported_field():
    # every reducible fibre of pi3/pi4/pi5 over GF(2) and GF(4): the printed
    # components parse over GF(2^{m ext}) and multiply back to the fibre up
    # to a unit
    for m in (1, 2):
        for name in ("pi3", "pi4", "pi5"):
            for point, curve, cls in _grid(name, m):
                if not cls.components:
                    continue
                big = FieldSpec(m * cls.ext)
                prod = None
                for text, mult in cls.components:
                    part = parse_form(text, big, over="GF").pow(mult)
                    prod = part if prod is None else prod * part
                target = embed_form(curve.form, curve.gf, big.field())
                unit = target.lead()[1] / prod.lead()[1]
                assert prod.scale(unit) == target, (name, point, m)


# The class counts of the full grids, as polynomials in q, each derived.
# Moving the singular point (1 : r : s) of a fibre to (1 : 0 : 0) by
# y -> y + r x, z -> z + s x gives a form from which every count is read:
#
# * pi3 becomes b y^4 + d z^4 + y^2 z^2 + x z^3 + e x^2 z^2 with
#   e = b (1 + b c^3); a drops out.  b = 0 gives L^2 (y^2 + d L^2 + x z),
#   L = z + a^(1/2) x before the move: q^3 conics plus double lines.  For
#   b != 0 the partials z^3 and x z^2 vanish on the curve only at the
#   point, so the form is reduced.  Each factor of a reduced strange form
#   is strange, of even y-degree, so a split is two conics y^2 + v and
#   y^2 + w with v + w = z^2 / b and v w = z^2 (d z^2 + x z + e x^2) / b.
#   Then z divides v, and v = z (x + t z) with c = 0 and
#   (b t)^2 + b t = b d: the pair is rational iff the absolute trace
#   Tr(b d) is 0, q^2 (q-1)/2 fibres each way.  The q^2 (q-1)^2 fibres
#   with b c != 0 are integral, of multiplicity 3 iff e = 0, that is
#   b c^3 = 1: q^2 (q-1) of them.
# * pi4 becomes y^4 + a z^4 + x z^3 + b^(1/2) x^2 z^2: reduced as pi3, and
#   a split would have v + w = 0, a square.  Every fibre is integral, of
#   multiplicity 3 iff b = 0: q^2 of them.
# * pi5 becomes y^4 + d y^2 z^2 + g z^4 + d x z^3 + e x^2 z^2 with g = a + c
#   and e = 1 + b d a^(1/2).  d = 0 gives the square of the smooth conic
#   y^2 + g^(1/2) z^2 + x z: q^3 double conics.  For d != 0 a split has
#   v + w = d z^2 and, as for pi3, v = z (x + t z) with e = 1, that is
#   a b = 0 (2q - 1 pairs (a, b)), and (t/d)^2 + t/d = g/d^2: rational iff
#   Tr(g/d^2) = 0, q (q-1)(2q-1)/2 fibres each way.  The q (q-1)^3 with
#   a b d != 0 are integral, of multiplicity 3 iff e = 0, that is
#   a b^2 d^2 = 1: q (q-1)^2 of them.
# The singular point of an integral fibre is rational: ext 1.
_CENSUS = {
    "pi3": lambda q: {
        ("ConicPlusDoubleLine", 1, None): q**3,
        ("Other", 1, None): q**2 * (q - 1) // 2,
        ("Other", 2, None): q**2 * (q - 1) // 2,
        ("IntegralQuartic", 1, 3): q**2 * (q - 1),
        ("IntegralQuartic", 1, 2): q**2 * (q - 1) * (q - 2)},
    "pi4": lambda q: {
        ("IntegralQuartic", 1, 3): q**2,
        ("IntegralQuartic", 1, 2): q**3 - q**2},
    "pi5": lambda q: {
        ("DoubleConic", 1, None): q**3,
        ("Other", 1, None): q * (q - 1) * (2 * q - 1) // 2,
        ("Other", 2, None): q * (q - 1) * (2 * q - 1) // 2,
        ("IntegralQuartic", 1, 3): q * (q - 1)**2,
        ("IntegralQuartic", 1, 2): q * (q - 1)**2 * (q - 2)},
}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_CENSUS))
def test_class_counts_are_polynomials_in_q(name, m):
    counts = Counter((cls.kind, cls.ext, cls.multiplicity)
                     for _, _, cls in _grid(name, m))
    want = {k: n for k, n in _CENSUS[name](2**m).items() if n}
    assert dict(counts) == want


def _first_singular_point(curve):
    """The oracle: the first point of the scanned locus, GF(q^2)
    included."""
    locus = reference_locus(curve)
    return locus[0] if locus else (None, 1)


def _even_y_quartics(gf, coefficient_lists):
    """Strange quartics sum c x^i y^j z^k over the even j, one for each
    list of coefficients, y^4 first."""
    monos = [(i, j, 4 - i - j) for j in (4, 2, 0) for i in range(5 - j)]
    for cs in coefficient_lists:
        form = MPoly.from_terms(FORM_VARS, gf, [
            (e, GFElem(gf, c)) for e, c in zip(monos, cs)])
        if not form.is_zero():
            yield PlaneCurveFq(form, FieldSpec(gf.m))


def _multiplies_back(curve, cls):
    """Whether the printed components, parsed over GF(2^(m ext)), multiply
    back to the form up to a unit."""
    big = FieldSpec(curve.field.m * cls.ext)
    prod = None
    for text, mult in cls.components:
        part = parse_form(text, big, over="GF").pow(mult)
        prod = part if prod is None else prod * part
    target = embed_form(curve.form, curve.gf, big.field())
    return prod.scale(target.lead()[1] / prod.lead()[1]) == target


def test_strange_form_census_over_gf2_and_its_embeddings():
    # all 511 strange forms over GF(2), read over GF(2), GF(4) and GF(8):
    # the geometric answer (kind, multiplicity, delta and the component
    # multiplicities) does not depend on the field, the components
    # multiply back over the field ext names, and nothing raises
    small = GF.get(1)
    kinds, mismatches, reprs = Counter(), [], {1: [], 2: [], 3: []}
    for curve in _even_y_quartics(small, product(range(2), repeat=9)):
        answers = []
        for m in (1, 2, 3):
            big = GF.get(m)
            lifted = PlaneCurveFq(embed_form(curve.form, small, big),
                                  FieldSpec(m))
            cls = classify_fibre(lifted)
            reprs[m].append(repr(cls))
            if cls.components:
                assert _multiplies_back(lifted, cls), (str(curve.form), m)
            answers.append((cls.kind, cls.multiplicity, cls.delta,
                            sorted(n for _, n in cls.components)))
        kinds[answers[0][0]] += 1
        if answers.count(answers[0]) != 3:
            mismatches.append(str(curve.form))
    assert mismatches == []
    assert kinds == {"IntegralQuartic": 264, "Other": 185,
                     "ConicPlusDoubleLine": 28, "DoubleConic": 28,
                     "LinePlusTripleLine": 6}
    # and every answer prints as it did (see _GRID_DIGESTS), by field
    assert [m for m, want in _CENSUS_DIGESTS.items()
            if _sha1(reprs[m]) != want] == []


# ----- the line oracle ----------------------------------------------------


def _reported_lines(curve, cls, rational):
    """The lines among an answer's components as {triple: multiplicity},
    each triple scaled to 1 at its first nonzero coordinate: over
    GF(q^ext), or with `rational` only those over the curve's field, read
    back into it."""
    spec = FieldSpec(curve.field.m * cls.ext)
    big = spec.field()
    back = {v: i for i, v in enumerate(curve.gf.embedding_into(big))}
    out = {}
    for text, mult in cls.components:
        form = parse_form(text, spec, over="GF")
        if form.total_degree() != 1:
            continue
        t = [form.coeff(e).v for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        lead = next(v for v in t if v)
        t = tuple(big.div(v, lead) for v in t)
        if not rational:
            out[t] = mult
        elif all(v in back for v in t):
            out[tuple(back[v] for v in t)] = mult
    return out


@functools.cache
def _lines_with_points(gf):
    """Every line of P^2(gf), the triples of ``kernels.plane_points``, with
    its rational points."""
    pts = kernels.plane_points(gf.q)
    mul = gf.mul
    return [(t, [p for p in pts if not (mul(t[0], p[0]) ^ mul(t[1], p[1])
                                        ^ mul(t[2], p[2]))]) for t in pts]


def _trial_division(form, gf):
    """The oracle: ``peel_lines`` by every line of P^2(gf), less the lines
    with a rational point off the form, which divide no form, so that
    fewer divisions fail."""
    zeros = set(kernels.scan_zero_points(raw_terms(form), gf))
    return peel_lines(form, gf, [t for t, pts in _lines_with_points(gf)
                                 if zeros.issuperset(pts)])[0]


def _check_lines(curve, cls):
    """The answer's rational lines against trial division by every line of
    P^2(GF(q)), and for q^ext <= 16 all its lines against every line of
    P^2(GF(q^ext)); and the lemma: a rational line not through (0:1:0)
    that divides a strange quartic which is not a square is L / sqrt(c1),
    L = sqrt(d1) x + sqrt(c1) y + sqrt(d3) z."""
    gf, what = curve.gf, (str(curve.form), curve.gf.m, cls)
    want = _trial_division(curve.form, gf)
    assert _reported_lines(curve, cls, True) == want, what
    big = FieldSpec(gf.m * cls.ext).field()
    if cls.ext > 1 and big.q <= 16:
        lifted = embed_form(curve.form, gf, big)
        assert _reported_lines(curve, cls, False) == _trial_division(
            lifted, big), what
    l_line = curve.normal.square_roots[:3]
    if any(l_line):                                 # F is not a square
        lead = next(v for v in l_line if v)
        for t in want:
            if t[1]:                                # not through (0:1:0)
                assert l_line[1] and t == tuple(
                    gf.div(v, lead) for v in l_line), what


def _strange_products(gf, rng, count):
    """Seeded strange quartics over gf: products of lines through (0:1:0),
    squares of lines not through it, strange conics and strange quartics,
    of total degree 4."""
    def r():
        return rng.randrange(gf.q)

    def strange(deg):
        monos = [(i, j, deg - i - j) for j in range(0, deg + 1, 2)
                 for i in range(deg - j + 1)]
        while True:
            f = MPoly.from_terms(FORM_VARS, gf, [
                (e, GFElem(gf, r())) for e in monos if rng.random() < 0.7])
            if not f.is_zero():
                return f
    atoms = [(1, lambda: line_form(gf, (1, 0, r()) if rng.random() < 0.8
                                   else (0, 0, 1))),
             (2, lambda: line_form(gf, (r(), 1, r())).square()),
             (2, lambda: strange(2)), (4, lambda: strange(4))]
    for _ in range(count):
        form, deg = None, 0
        while deg < 4:
            d, atom = rng.choice([a for a in atoms if a[0] <= 4 - deg])
            form = atom() if form is None else form * atom()
            deg += d
        yield PlaneCurveFq(form, FieldSpec(gf.m))


def test_line_factors_match_trial_division_by_every_line():
    # the 511 strange forms over GF(2) read over GF(2), GF(4) and GF(8),
    # each divided by every line of the plane
    small = GF.get(1)
    for curve in _even_y_quartics(small, product(range(2), repeat=9)):
        for m in (1, 2, 3):
            big = GF.get(m)
            lifted = PlaneCurveFq(embed_form(curve.form, small, big),
                                  FieldSpec(m))
            cls = classify_fibre(lifted)
            _check_lines(lifted, cls)
            assert _reported_lines(lifted, cls, True) == peel_lines(
                lifted.form, big, kernels.plane_points(big.q))[0]
    # every fibre of every fibration for m <= 3
    for name, m in product(sorted(FIBRATIONS), (1, 2, 3)):
        for _, curve, cls in _grid(name, m):
            _check_lines(curve, cls)
    # seeded products over GF(16), reducible by construction
    kinds = Counter()
    for curve in _strange_products(GF.get(4), random.Random(3217), 300):
        cls = classify_fibre(curve)
        kinds[cls.kind] += 1
        _check_lines(curve, cls)
    assert set(kinds) >= {"IntegralQuartic", "ConicPlusDoubleLine",
                          "DoubleConic", "Other"}


def _gf2_image(curve, move):
    """The GF(2) form under a coordinate map that fixes (0:1:0), given on
    exponents: `move` takes (i, j, k) to the monomials of its image."""
    gf = curve.gf
    odd = Counter(e for term in curve.form.terms for e in move(*term))
    return PlaneCurveFq(MPoly.from_terms(FORM_VARS, gf, [
        (e, gf.one_elem()) for e, n in odd.items() if n % 2]), curve.field)


# (y + l)^j = y^j + l^j for j in {2, 4}, and x <-> z
_GF2_MOVES = (
    lambda i, j, k: [(i, j, k)] + ([(i + j, 0, k)] if j else []),
    lambda i, j, k: [(i, j, k)] + ([(i, 0, k + j)] if j else []),
    lambda i, j, k: [(k, j, i)])


def _tangent_kind(curve):
    cls = classify_fibre(curve)
    return cls.tangent.kind if cls.tangent else None


def test_tangent_kind_is_invariant_on_gf2_orbits():
    # y -> y + x, y -> y + z and x <-> z fix the strange point, so they
    # move no tangent kind among the 511 strange forms over GF(2)
    moved = []
    for curve in _even_y_quartics(GF.get(1), product(range(2), repeat=9)):
        kind = _tangent_kind(curve)
        moved += [(str(curve.form), n) for n, move in enumerate(_GF2_MOVES)
                  if _tangent_kind(_gf2_image(curve, move)) != kind]
    assert moved == []


def test_hyperflex_exactly_where_c_vanishes():
    # the identity the classification's tangent rests on: at every
    # rational smooth point P of the integral strange forms over GF(2),
    # the tangent restriction is a hyperflex iff C(P) = 0
    points, mismatches = 0, []
    for curve in _even_y_quartics(GF.get(1), product(range(2), repeat=9)):
        if classify_fibre(curve).kind != "IntegralQuartic":
            continue
        for p in smooth_points(curve):
            c_at_p = sum((c * p[0] ** i * p[2] ** k for (i, j, k), c
                          in curve.form.terms.items() if j == 2),
                         curve.gf.zero_elem())
            flex = tangent_contact_type(curve, p).kind == "Hyperflex4"
            if flex != (not c_at_p):
                mismatches.append((str(curve.form), p))
            points += 1
    assert mismatches == [] and points == 432


def test_singular_point_is_the_locus_head():
    # the classification's singular point, read off the pass unless the
    # pass found none, against the head of the full singular locus: every
    # integral fibre of the m <= 2 grids, every y^4-monic form with only
    # even y-exponents over GF(2) (36 of them have only conjugate
    # singular points) and seeded such forms over GF(4)
    checked = exts = 0
    for m, name in product((1, 2), ("pi3", "pi4", "pi5")):
        for point, curve, cls in _grid(name, m):
            if cls.kind == "IntegralQuartic":
                assert (cls.sing_point, cls.ext) == _first_singular_point(
                    curve), (name, point, m)
                checked += 1
    rng = random.Random(1902)
    curves = [*_even_y_quartics(GF.get(1), ((1, *cs) for cs in
                                            product(range(2), repeat=8))),
              *_even_y_quartics(GF.get(2), ([rng.randrange(4)
                                             for _ in range(9)]
                                            for _ in range(100)))]
    for curve in curves:
        cls = classify_fibre(curve)
        if cls.kind == "IntegralQuartic":
            assert (cls.sing_point, cls.ext) == _first_singular_point(
                curve), str(curve.form)
            checked += 1
            exts += cls.ext == 2
    assert checked >= 300 and exts >= 3


def _locus_or_curve(curve):
    """The closed-form locus, or "curve" where it raises for one."""
    try:
        return singular_locus(curve)
    except ConstraintViolation:
        return "curve"


def test_singular_locus_matches_the_reference_scan():
    # the closed form against the scans of P^2(GF(q)) and P^2(GF(q^2)):
    # the 511 strange forms over GF(2), read over GF(2), GF(4) and GF(8),
    # and seeded forms over GF(4) and GF(16).  A reduced strange quartic
    # has at most three singular points; a square or a double line has a
    # curve of them, so more than three points over GF(q^2)
    small, rng = GF.get(1), random.Random(2903)
    curves = [PlaneCurveFq(embed_form(c.form, small, GF.get(m)), FieldSpec(m))
              for c in _even_y_quartics(small, product(range(2), repeat=9))
              for m in (1, 2, 3)]
    for m, n in ((2, 300), (4, 100)):
        gf = GF.get(m)
        curves += _even_y_quartics(gf, ([rng.randrange(gf.q) for _ in range(9)]
                                        for _ in range(n)))
    reduced = exts = 0
    for curve in curves:
        want = reference_locus(curve)
        if len(want) > 3:
            want = "curve"
        else:
            reduced += 1
            exts += any(r == 2 for _, r in want)
        assert _locus_or_curve(curve) == want, (str(curve.form), curve.gf.m)
    assert reduced >= 1000 and exts >= 100


def test_partials_are_the_line_squared():
    # the lemma under the closed form: for F = a y^4 + C y^2 + D, F_x =
    # z L^2 and F_z = x L^2 with L = sqrt(d1) x + sqrt(c1) y + sqrt(d3) z
    rng = random.Random(2904)
    for m in (1, 2, 3, 4):
        gf = GF.get(m)
        for curve in _even_y_quartics(gf, ([rng.randrange(gf.q)
                                            for _ in range(9)]
                                           for _ in range(20))):
            f = curve.form
            line = MPoly.from_terms(FORM_VARS, gf, [
                (v, f.coeff(e).sqrt()) for v, e in (
                    ((1, 0, 0), (3, 0, 1)), ((0, 1, 0), (1, 2, 1)),
                    ((0, 0, 1), (1, 0, 3)))])
            x, z = (MPoly.from_terms(FORM_VARS, gf, [(e, gf.one_elem())])
                    for e in ((1, 0, 0), (0, 0, 1)))
            assert f.partial("x") == z * line.square(), str(f)
            assert f.partial("z") == x * line.square(), str(f)
            assert f.partial("y").is_zero()
