"""The five quartic normal forms and their attached data."""

import pytest

from quarticfibres.errors import (ConstraintViolation, NoSuchRow,
                                  NotHomogeneous, UnsupportedFamily)
from quarticfibres.families import (FamilyTag, build_family,
                                    classify_by_table, invariant, is_strange,
                                    make_params, residue_profile,
                                    singular_point)
from quarticfibres.finitefield import GF, FieldSpec
from quarticfibres.parser import parse_element, parse_form

F2 = GF.get(1)
SPEC2 = FieldSpec(1)


def _p(text):
    return parse_element(text, SPEC2)


def test_forms_match_hand_expansion():
    m3 = build_family(make_params(FamilyTag.III, F2,
                                  a=_p("t"), b=_p("1"), c=_p("1")))
    assert m3.form == parse_form(
        "t*x^4 + t*x^2*y^2 + y^4 + t*x^3*z + y^2*z^2 + x*z^3", SPEC2)
    m4 = build_family(make_params(FamilyTag.IV, F2, b=_p("t"), c=_p("1")))
    assert m4.form == parse_form("y^4 + t*x^3*z + x*z^3 + x^4", SPEC2)
    m5 = build_family(make_params(FamilyTag.V, F2,
                                  a=_p("t"), b=_p("t"), c=_p("1"),
                                  d=_p("1")))
    assert m5.form == parse_form(
        "y^4 + y^2*z^2 + (t+1)*z^4 + x*z^3 + t*x^2*y^2 + x^2*z^2"
        " + t*x^3*z + t^2*x^4", SPEC2)


def test_all_tags_build_and_are_strange():
    t = _p("t")
    cases = {
        FamilyTag.I: dict(c=t),
        FamilyTag.II: dict(a=t, b=_p("1")),
        FamilyTag.III: dict(a=t, b=_p("1"), c=_p("t")),
        FamilyTag.IV: dict(b=t),
        FamilyTag.V: dict(a=t, b=t, d=_p("t+1")),
    }
    for tag, kw in cases.items():
        m = build_family(make_params(tag, F2, **kw))
        assert m.tag is tag
        assert m.form.is_homogeneous() and m.form.total_degree() == 4
        assert is_strange(m.form)
        # the claimed singular point is verified inside singular_point
        sp = singular_point(m)
        assert len(sp.coords) == 3


def test_constraints_rejected():
    t = _p("t")
    one = _p("1")
    t2 = _p("t^2")
    with pytest.raises(ConstraintViolation):
        build_family(make_params(FamilyTag.I, F2, c=t2))
    with pytest.raises(ConstraintViolation):
        build_family(make_params(FamilyTag.II, F2, a=t, b=_p("0")))
    with pytest.raises(ConstraintViolation):
        build_family(make_params(FamilyTag.III, F2, a=one, b=one, c=one))
    with pytest.raises(ConstraintViolation):
        build_family(make_params(FamilyTag.III, F2, a=t, b=_p("0"), c=one))
    with pytest.raises(ConstraintViolation):
        build_family(make_params(FamilyTag.IV, F2, b=t2))
    with pytest.raises(ConstraintViolation):
        build_family(make_params(FamilyTag.IV, F2, b=t, d=one))
    with pytest.raises(ConstraintViolation):
        build_family(make_params(FamilyTag.V, F2, a=t, b=t))  # d = 0


def test_invariants():
    t = _p("t")
    m2 = build_family(make_params(FamilyTag.II, F2, a=t, b=t, c=t))
    assert invariant(m2) == t * t ** 2 + t ** 2 + _p("1")
    m3 = build_family(make_params(FamilyTag.III, F2, a=t, b=t, c=t))
    assert invariant(m3) == t ** 4
    m5 = build_family(make_params(FamilyTag.V, F2, a=t, b=t, d=t))
    assert invariant(m5) == t * t ** 2 * t ** 2
    assert invariant(build_family(make_params(FamilyTag.I, F2, c=t))) is None
    assert invariant(build_family(make_params(FamilyTag.IV, F2, b=t))) is None


def test_singular_point_locations():
    t = _p("t")
    m1 = build_family(make_params(FamilyTag.I, F2, c=t))
    assert str(singular_point(m1)) == "(1 : t^(1/4) : 0)"
    m2 = build_family(make_params(FamilyTag.II, F2, a=t, b=_p("1")))
    assert str(singular_point(m2)) == "(0 : t^(1/4) : 1)"
    m3 = build_family(make_params(FamilyTag.III, F2, a=t, b=_p("1"),
                                  c=_p("1")))
    assert str(singular_point(m3)) == "(1 : t^(1/4) : t^(1/2))"


def test_residue_profiles():
    t = _p("t")
    m3 = build_family(make_params(FamilyTag.III, F2, a=t, b=_p("1"),
                                  c=_p("1")))
    r = residue_profile(m3)
    assert (r.deg_p, r.deg_p1, r.deg_p2) == (4, 2, 1)
    assert (r.e, r.e1) == (1, 1)
    m4 = build_family(make_params(FamilyTag.IV, F2, b=t, c=_p("1")))
    r4 = residue_profile(m4)
    # u = ab^2 + c = 1 is a fourth power: only sqrt(b) extends the residue
    assert (r4.deg_p, r4.deg_p1, r4.deg_p2) == (2, 2, 2)
    assert (r4.e, r4.e1) == (2, 2)
    m5 = build_family(make_params(FamilyTag.V, F2, a=t, b=t, d=_p("1")))
    r5 = residue_profile(m5)
    # u = ab^2 + b = t(t+1)^2: its fourth root needs all of K(t^(1/4))
    assert (r5.deg_p, r5.deg_p1, r5.deg_p2) == (4, 2, 2)
    assert (r5.e, r5.e1) == (1, 2)
    with pytest.raises(UnsupportedFamily):
        residue_profile(build_family(make_params(FamilyTag.I, F2, c=t)))


def test_classification_table():
    assert classify_by_table(True, True, True) is FamilyTag.I
    assert classify_by_table(False, True, False) is FamilyTag.II
    assert classify_by_table(True, False, False) is FamilyTag.III
    assert classify_by_table(False, False, True) is FamilyTag.IV
    assert classify_by_table(False, False, False) is FamilyTag.V
    with pytest.raises(NoSuchRow):
        classify_by_table(True, True, False)
    with pytest.raises(NoSuchRow):
        classify_by_table(True, False, True)


def test_is_strange_detects_odd_terms():
    f = parse_form("y^4 + x*z^3", SPEC2)
    assert is_strange(f)
    assert not is_strange(parse_form("x*y^3 + z^4 + x^4", SPEC2))
    with pytest.raises(NotHomogeneous):
        is_strange(parse_form("y^4 + x", SPEC2))


def test_nonsquare_over_f4():
    # squares in F4(t) are exactly the fractions in F4(t^2)
    f4 = GF.get(2)
    spec4 = FieldSpec(2)
    gt = parse_element("g*t", spec4)
    assert not gt.is_square()
    m = build_family(make_params(FamilyTag.IV, f4, b=gt))
    assert is_strange(m.form)
    sq = parse_element("g*t^2", spec4)  # g = (g^2)^2 makes this a square
    assert sq.is_square()
    with pytest.raises(ConstraintViolation):
        build_family(make_params(FamilyTag.IV, f4, b=sq))