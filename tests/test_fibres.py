"""Fibre specialization, singularity analysis and the classification."""

import signal
from itertools import product

import pytest

from quarticfibres import fibres, kernels
from quarticfibres.errors import (ConstraintViolation, NotSingular,
                                  NotSmoothPoint, PointNotOnCurve,
                                  SearchCapped, UnsupportedFamily)
from quarticfibres.families import is_strange
from quarticfibres.fibres import (FIBRATIONS, PlaneCurveFq, classify_fibre,
                                  delta_invariant, multiplicity_at,
                                  predicted_singular_point, singular_locus,
                                  smooth_points, specialize_fibre,
                                  tangent_contact_type)
from quarticfibres.finitefield import GF, FieldSpec, GFElem
from quarticfibres.mpoly import MPoly
from quarticfibres.parser import parse_form
from quarticfibres.plane import chart_at, embed_form

SPEC2 = FieldSpec(1)
SPEC4 = FieldSpec(2)


def _curve(text, spec=SPEC2):
    return PlaneCurveFq(parse_form(text, spec, over="GF"), spec)


def test_catalogue():
    assert set(FIBRATIONS) == {"pi3", "pi4", "pi5",
                               "pencil-quartic", "pencil-cubic"}
    assert len(FIBRATIONS["pi4"][0]) == 3
    assert len(FIBRATIONS["pencil-cubic"][0]) == 2
    with pytest.raises(UnsupportedFamily):
        specialize_fibre("pi6", (0,), SPEC2)


def test_specialize_matches_family_shape():
    c = specialize_fibre("pi4", (0, 1, 0), SPEC2)
    assert c.form == parse_form("y^4 + x*z^3 + x^3*z", SPEC2, over="GF")
    assert is_strange(c.form)
    q = specialize_fibre("pencil-quartic", (1, 1), SPEC2)
    assert q.form == parse_form("y^4 + x*z^3 + x^3*z", SPEC2, over="GF")
    cub = specialize_fibre("pencil-cubic", (1, 1), SPEC2)
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
    local, _ = chart_at(curve.form, tuple(GFElem(curve.gf, v)
                                          for v in (0, 0, 1)))
    etas, vertical = fibres._directions(local, want[1][0], 0)
    assert vertical == 0 and len(etas) == want[1][0]
    assert all(eta.gf.m == r for eta in etas)


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
    # y^2 (x^2+xz+z^2) is singular along y = 0 and at (0:1:0); the
    # GF(4) scan adds only the two points that are not rational
    locus = singular_locus(_curve("y^2*x^2 + y^2*x*z + y^2*z^2"))
    assert [(tuple(v.v for v in p), r) for p, r in locus] == [
        ((1, 0, 0), 1), ((1, 0, 1), 1), ((0, 1, 0), 1), ((0, 0, 1), 1),
        ((1, 0, 2), 2), ((1, 0, 3), 2)]
    assert all(p[0].gf is GF.get(r) for p, r in locus)


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


def test_search_beyond_the_cap_raises():
    spec = FieldSpec(9)
    for name, point in (("pi4", (3, 5, 7)), ("pi3", (1, 0, 1, 0))):
        with pytest.raises(SearchCapped):
            classify_fibre(specialize_fibre(name, point, spec))
    with pytest.raises(SearchCapped):
        singular_locus(specialize_fibre("pi4", (3, 5, 7), spec))
    # the Klein quartic is smooth: over GF(32) no rational singular point
    # is found and GF(2^10) is not scanned, so "smooth" is not known
    klein = "x^3*y + y^3*z + z^3*x"
    with pytest.raises(SearchCapped):
        classify_fibre(_curve(klein, FieldSpec(5)))
    assert classify_fibre(_curve(klein, FieldSpec(4))).sing_point is None


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
    assert sum(point == cls.sing_point for _, point in charts) == 1


def test_classify_evaluates_the_fibre_once_per_field(monkeypatch):
    # a machine-independent work count: F and its partials are evaluated
    # over P^2(GF(16)) once, for the zero set that line peeling reads,
    # the singular points and the smooth sample, and once over GF(256)
    calls = _count_calls(monkeypatch, kernels, "_zero_masks")
    curve = specialize_fibre("pi4", (3, 5, 7), FieldSpec(4))
    assert classify_fibre(curve).kind == "IntegralQuartic"
    rounds = [(len(forms), gf.m) for forms, gf in calls]
    assert rounds == [(4, 4), (4, 8)]
    # later readers of the same curve rescan only the GF(q^2) round
    singular_locus(curve)
    smooth_points(curve)
    assert [(len(forms), gf.m) for forms, gf in calls] == rounds + [(4, 8)]


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


def test_classify_rejects_non_quartic():
    with pytest.raises(Exception):
        classify_fibre(specialize_fibre("pencil-cubic", (1, 0), SPEC2))


def test_components_multiply_back_over_reported_field():
    # every reducible fibre of pi3/pi4/pi5 over GF(2) and GF(4): the printed
    # components parse over GF(2^{m ext}) and multiply back to the fibre up
    # to a unit
    for m in (1, 2):
        spec = FieldSpec(m)
        for name in ("pi3", "pi4", "pi5"):
            for point in product(range(spec.field().q),
                                 repeat=len(FIBRATIONS[name][0])):
                curve = specialize_fibre(name, point, spec)
                cls = classify_fibre(curve)
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
