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


def _rand_poly(gf, max_deg, nonzero=False):
    while True:
        p = UPoly.from_coeffs(
            gf, [random.randrange(gf.q) for _ in range(max_deg + 1)])
        if p or not nonzero:
            return p


def test_sum_is_the_reduced_cross_product():
    # the sum skips the second full gcd; it must equal the fraction that
    # the constructor reduces from n1 d2 + n2 d1 over d1 d2, also when the
    # denominators share a factor, some of which the sum cancels
    for gf in (F2, F4):
        for _ in range(150):
            shared = _rand_poly(gf, 2, nonzero=True)
            a, b = (ScalarK(_rand_poly(gf, 3),
                            shared * _rand_poly(gf, 2, nonzero=True))
                    for _ in range(2))
            c = ScalarK(_rand_poly(gf, 1), a.den) + b
            for x, y in ((a, b), (a, a), (a, c), (c, b), (a, a.square())):
                got = x + y
                want = ScalarK(x.num * y.den + y.num * x.den, x.den * y.den)
                assert (got.num, got.den) == (want.num, want.den)
                assert got.den.lc() == 1
                assert got.num.gcd(got.den) == UPoly.one(gf)
        t = ScalarK.t(gf)
        one = ScalarK.one(gf)
        for x in (t, one / (t * t + t), (t + one) / t):
            assert (x + x).den == UPoly.one(gf) and not x + x
        # 1/(t(t+1)) + 1/t = t/(t(t+1)) = 1/(t+1): a shared factor cancels
        assert one / (t * t + t) + one / t == one / (t + one)


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
