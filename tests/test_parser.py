import random

import pytest

from quarticfibres.errors import DivisionByZero, ParseError
from quarticfibres.finitefield import GF, FieldSpec, GFElem
from quarticfibres.mpoly import FORM_VARS, MPoly
from quarticfibres.parser import MAX_DEGREE, parse_element, parse_form
from quarticfibres.scalars import KDomain, ScalarK
from quarticfibres.upoly import UPoly

random.seed(71006)

SPEC2 = FieldSpec(1)
SPEC4 = FieldSpec(2)


def test_scalars():
    assert parse_element("0", SPEC2) == ScalarK.zero(GF.get(1))
    assert parse_element("1", SPEC2) == ScalarK.one(GF.get(1))
    assert parse_element("t", SPEC2) == ScalarK.t(GF.get(1))
    t = ScalarK.t(GF.get(1))
    one = ScalarK.one(GF.get(1))
    assert parse_element("t^2+1", SPEC2) == t * t + one
    assert parse_element("1/t", SPEC2) == t.inverse()
    assert parse_element("(t+1)/t^2", SPEC2) == (t + one) / (t * t)
    assert parse_element("t*t*t", SPEC2) == t ** 3


def test_generator_constants():
    g = ScalarK.const(GF.get(2), 2)
    assert parse_element("g", SPEC4) == g
    assert parse_element("g^2", SPEC4) == g * g
    assert parse_element("g+1", SPEC4) == g + ScalarK.one(GF.get(2))
    assert parse_element("g*t+g^2", SPEC4) == g * ScalarK.t(GF.get(2)) + g * g


def test_forms():
    f = parse_form("x^4+y^2*z^2+t*x*z^3", SPEC2)
    assert max(e[0] for e in f.terms) == 4
    assert f.is_homogeneous()
    assert f.coeff((1, 0, 3)) == ScalarK.t(GF.get(1))
    over_gf = parse_form("x*y+g*z^2", SPEC4, over="GF")
    assert over_gf.coeff((0, 0, 2)) == GFElem(GF.get(2), 2)


def test_rejections():
    with pytest.raises(ParseError):
        parse_element("x", SPEC2)  # form variables in a scalar
    with pytest.raises(ParseError):
        parse_form("x+", SPEC2)
    with pytest.raises(ParseError):
        parse_form("t*x", SPEC2, over="GF")  # no t in plain GF coefficients
    with pytest.raises(DivisionByZero):
        parse_element("1/0", SPEC2)
    with pytest.raises(ParseError):
        parse_element("t %", SPEC2)
    # over F2 the algebra generator collapses to 1
    assert parse_element("g", SPEC2) == ScalarK.one(GF.get(1))


def _rand_scalar(gf, max_deg=3):
    num = UPoly.from_coeffs(gf, [random.randrange(gf.q)
                                 for _ in range(max_deg + 1)])
    den = UPoly.zero(gf)
    while den.is_zero():
        den = UPoly.from_coeffs(gf, [random.randrange(gf.q)
                                     for _ in range(max_deg + 1)])
    return ScalarK(num, den)


def test_scalar_round_trip():
    for spec in (SPEC2, SPEC4):
        gf = spec.field()
        for _ in range(120):
            s = _rand_scalar(gf)
            assert parse_element(str(s), spec) == s


def test_form_round_trip():
    for spec in (SPEC2, SPEC4):
        gf = spec.field()
        dom_elems = [_rand_scalar(gf, 2) for _ in range(4)]
        for _ in range(60):
            items = []
            for c in dom_elems:
                e = tuple(random.randrange(3) for _ in range(3))
                items.append((e, c))
            f = MPoly.from_terms(FORM_VARS, KDomain.get(gf), items)
            assert parse_form(str(f), spec) == f


def test_degree_bound():
    # a product or power above the bound is refused at its operator,
    # before it is computed: in t for K, in x, y, z for forms
    t = ScalarK.t(GF.get(1))
    assert parse_element(f"t^{MAX_DEGREE}", SPEC2) == t ** MAX_DEGREE
    assert parse_form(f"t^{MAX_DEGREE}*x^{MAX_DEGREE}", SPEC2).total_degree(
    ) == MAX_DEGREE
    for text, pos in (("t^1000000000001", 1), ("(t+1)^1000000000", 5),
                      ("t^40*t^40", 4), ("t/(t+1)^64", 1)):
        with pytest.raises(ParseError) as info:
            parse_element(text, SPEC2)
        assert info.value.position == pos, text
    for text, pos in (("x^65", 1), ("(x+y*z)^1000000000", 7),
                      ("x^40*y^40", 4), ("(x+t^30)*t^40", 8)):
        with pytest.raises(ParseError) as info:
            parse_form(text, SPEC4)
        assert info.value.position == pos, text
    # a constant to any power has degree 0
    assert parse_element("(g+1)^1000000000000", SPEC4) == parse_element(
        "g+1", SPEC4)
    assert parse_form("(x+x)^1000000000000", SPEC2).is_zero()
