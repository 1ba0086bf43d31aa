"""Fraction arithmetic in K = F_q(t), with a brute-force square oracle."""

import random
from itertools import product

import pytest

from quarticfibres.errors import DivisionByZero, NotASquare
from quarticfibres.finitefield import GF
from quarticfibres.scalars import KDomain, ScalarK
from quarticfibres.upoly import UPoly

random.seed(71003)

F2 = GF.get(1)
F4 = GF.get(2)


def _rand(gf, max_deg=3, nonzero=False):
    while True:
        num = UPoly.from_coeffs(
            gf, [random.randrange(gf.q) for _ in range(max_deg + 1)])
        if num.is_zero() and nonzero:
            continue
        den = UPoly.zero(gf)
        while den.is_zero():
            den = UPoly.from_coeffs(
                gf, [random.randrange(gf.q) for _ in range(max_deg + 1)])
        return ScalarK(num, den)


def test_canonical_form():
    t = UPoly.t(F2)
    one = UPoly.one(F2)
    # t/t^2 reduces to 1/t
    s = ScalarK(t, t * t)
    assert s.num == one and s.den == t
    # denominators are made monic over F4
    g2 = UPoly.const(F4, 2)
    s2 = ScalarK(UPoly.one(F4), g2)
    assert s2.den == UPoly.one(F4)
    assert ScalarK(UPoly.zero(F2), t) == ScalarK.zero(F2)


def test_zero_denominator_rejected():
    with pytest.raises(DivisionByZero):
        ScalarK(UPoly.one(F2), UPoly.zero(F2))
    with pytest.raises(DivisionByZero):
        ScalarK.one(F2).inverse().__mul__(ScalarK.zero(F2)).inverse()


def test_field_axioms_random():
    for gf, n in ((F4, 120), (GF.get(3), 60), (GF.get(9), 60)):
        for _ in range(n):
            a, b, c = _rand(gf), _rand(gf), _rand(gf)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + a == ScalarK.zero(gf)
            if a:
                assert a * a.inverse() == ScalarK.one(gf)


def test_pow_and_square():
    for _ in range(60):
        a = _rand(F4, 2, nonzero=True)
        assert a ** 2 == a.square() == a * a
        assert a ** 0 == ScalarK.one(F4)
        assert a ** -1 == a.inverse()
        assert a ** -2 == (a * a).inverse()
        assert a ** 5 == a * a * a * a * a


def _all_upolys(gf, max_deg):
    for coeffs in product(range(gf.q), repeat=max_deg + 1):
        yield UPoly.from_coeffs(gf, list(coeffs))


def test_is_square_brute_force_oracle():
    # every fraction with num, den of degree <= 2 over F2
    grid = [ScalarK(n, d)
            for n in _all_upolys(F2, 2)
            for d in _all_upolys(F2, 2) if not d.is_zero()]
    squares = {s.square() for s in grid}
    seen_true = seen_false = 0
    for s in grid:
        if s.is_square():
            # roundtrip through the witness
            assert s.sqrt().square() == s
            assert s in squares
            seen_true += 1
        else:
            assert s not in squares
            seen_false += 1
    assert seen_true and seen_false


def test_sqrt_of_nonsquare_raises():
    with pytest.raises(NotASquare):
        ScalarK.t(F2).sqrt()


def test_frobenius_is_additive():
    for _ in range(80):
        a, b = _rand(F4), _rand(F4)
        assert (a + b).square() == a.square() + b.square()
        assert (a * b).square() == a.square() * b.square()


def test_str_and_hash():
    t = ScalarK.t(F2)
    one = ScalarK.one(F2)
    assert str(t) == "t"
    assert str(one / t) == "1/t"
    assert str((one + t) / t) in ("(t+1)/t",)
    d = {t: 1, one: 2}
    assert d[ScalarK.t(F2)] == 1


def test_domain_helper():
    dom = KDomain.get(F4)
    assert dom.zero_elem() == ScalarK.zero(F4)
    assert dom.one_elem() == ScalarK.one(F4)
    assert KDomain.get(F4) is dom
