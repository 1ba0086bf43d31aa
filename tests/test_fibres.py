"""Fibre specialization, singularity analysis and the classification."""

from itertools import product

import pytest

from quarticfibres.errors import (ConstraintViolation, NotSingular,
                                  NotSmoothPoint, PointNotOnCurve,
                                  UnsupportedFamily)
from quarticfibres.families import is_strange
from quarticfibres.fibres import (FIBRATIONS, PlaneCurveFq, classify_fibre,
                                  delta_invariant, multiplicity_at,
                                  predicted_singular_point, singular_locus,
                                  smooth_points, specialize_fibre,
                                  tangent_contact_type)
from quarticfibres.finitefield import GF, FieldSpec, GFElem
from quarticfibres.mpoly import MPoly
from quarticfibres.parser import parse_form
from quarticfibres.plane import embed_form

SPEC2 = FieldSpec(1)
SPEC4 = FieldSpec(2)


def _curve(text, spec=SPEC2):
    return PlaneCurveFq(parse_form(text, spec, over="GF"), spec)


def test_catalogue():
    assert set(FIBRATIONS) == {"pi3", "pi4", "pi5",
                               "pencil-quartic", "pencil-cubic"}
    assert FIBRATIONS["pi4"][0] == 3
    assert FIBRATIONS["pencil-cubic"][0] == 2
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


def test_singular_locus_extension_points():
    c = specialize_fibre("pi4", (1, 1, 1), SPEC2)
    locus = singular_locus(c, max_ext=2)
    assert len(locus) == 1
    point, ext = locus[0]
    pred = predicted_singular_point("pi4", (1, 1, 1), SPEC2)
    assert tuple(v.v for v in point) == tuple(v.v for v in pred)
    # (ab^2+c)^(1/4) = 0^(1/4)... over F2 all fourth roots are rational
    assert ext == 1
    # the base field is always searched; a smaller range is no search
    with pytest.raises(ConstraintViolation):
        singular_locus(c, max_ext=0)
    with pytest.raises(ConstraintViolation):
        classify_fibre(c, max_ext=0)


def test_predicted_points_all_fibrations():
    for name, point in (("pi3", (1, 1, 1, 0)), ("pi4", (0, 1, 1)),
                        ("pi5", (1, 1, 0, 1)),
                        ("pencil-quartic", (1, 1))):
        spec = SPEC4
        curve = specialize_fibre(name, point, spec)
        pred = predicted_singular_point(name, point, spec)
        assert multiplicity_at(curve, pred) >= 2


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


def test_smooth_points_extension():
    c = specialize_fibre("pi4", (0, 1, 0), SPEC2)
    base = smooth_points(c)
    bigger = smooth_points(c, ext=2)
    assert len(bigger) >= len(base)
    assert smooth_points(c, limit=1) == base[:1]


def test_classify_integral():
    cls = classify_fibre(specialize_fibre("pi4", (0, 0, 0), SPEC2))
    assert cls.kind == "IntegralQuartic"
    assert cls.multiplicity == 3 and cls.delta == 3
    assert cls.tangent.kind == "Hyperflex4"
    cls2 = classify_fibre(specialize_fibre("pi4", (0, 1, 0), SPEC2))
    assert cls2.multiplicity == 2 and cls2.delta == 3
    assert tuple(v.v for v in cls2.sing_point) == (1, 0, 1)


def test_classify_divides_only_by_candidate_lines(monkeypatch):
    # a machine-independent work count: trial division by every line of
    # P^2(GF(64)) would take 4161 divisions
    calls = []
    divide = MPoly.divide

    def counted(self, d):
        calls.append(d)
        return divide(self, d)
    monkeypatch.setattr(MPoly, "divide", counted)
    cls = classify_fibre(specialize_fibre("pi4", (3, 5, 7), FieldSpec(6)))
    assert cls.kind == "IntegralQuartic"
    assert len(calls) <= 8


def test_classify_double_conic():
    cls = classify_fibre(specialize_fibre("pi5", (1, 1, 1, 0), SPEC4))
    assert cls.kind == "DoubleConic"
    assert len(cls.components) == 1 and cls.components[0][1] == 2


def test_classify_conic_plus_double_line():
    cls = classify_fibre(specialize_fibre("pi3", (1, 0, 1, 0), SPEC2))
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
                                 repeat=FIBRATIONS[name][0]):
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
