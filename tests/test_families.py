"""The five quartic normal forms and their attached data."""

from itertools import product

import pytest

from quarticfibres.errors import ConstraintViolation, NotHomogeneous
from quarticfibres.families import (FamilyTag, build_family, family_terms,
                                    invariant, is_strange, make_params,
                                    singular_point, singular_radicands)
from quarticfibres.finitefield import GF, FieldSpec
from quarticfibres.mpoly import triform
from quarticfibres.parser import parse_element, parse_form
from quarticfibres.sampling import rng_for

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
    with pytest.raises(ConstraintViolation, match="^c ∈ K² for family I$"):
        build_family(make_params(FamilyTag.I, F2, c=t2, d=one))
    with pytest.raises(ConstraintViolation, match="^b = 0 for family II$"):
        build_family(make_params(FamilyTag.II, F2, a=t, b=_p("0")))
    with pytest.raises(ConstraintViolation,
                       match="^a ∈ K² for family III$"):
        build_family(make_params(FamilyTag.III, F2, a=one, b=one, c=one))
    with pytest.raises(ConstraintViolation, match="^b = 0 for family III$"):
        build_family(make_params(FamilyTag.III, F2, a=t, b=_p("0"), c=one))
    with pytest.raises(ConstraintViolation, match="^b ∈ K² for family IV$"):
        build_family(make_params(FamilyTag.IV, F2, b=t2, d=one))
    with pytest.raises(ConstraintViolation,
                       match="^family IV does not use d$"):
        build_family(make_params(FamilyTag.IV, F2, b=t, d=one))
    with pytest.raises(ConstraintViolation, match="^d = 0 for family V$"):
        build_family(make_params(FamilyTag.V, F2, a=t, b=t))


def test_table_over_finite_fields():
    # the ring-generic table with parameters in GF(2^m), as pi3, pi4, pi5
    # read it; families I and II are checked the same way
    rng = rng_for(0, "family-table")
    grids = {1: list(product(range(2), repeat=4)),
             2: [tuple(rng.randrange(4) for _ in range(4))
                 for _ in range(40)]}
    for m, points in grids.items():
        gf = GF.get(m)
        zero, one = gf.zero_elem(), gf.one_elem()
        for tag in FamilyTag:
            for point in points:
                a, b, c, d = (gf.elem(v) for v in point)
                form = triform(gf, family_terms(tag, one, a, b, c, d))
                assert is_strange(form), (tag, point)
                x, y4, z2 = singular_radicands(tag, zero, one, a, b, c)
                sing = {"x": x, "y": y4.fourth_root(), "z": z2.sqrt()}
                for f in (form, *(form.partial(v) for v in "xyz")):
                    assert not f.eval_point(sing), (tag, m, point)


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