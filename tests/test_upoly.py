import random

import pytest

from quarticfibres.finitefield import GF
from quarticfibres.upoly import UPoly

random.seed(71002)

F4 = GF.get(2)
F2 = GF.get(1)


def _rand(gf, max_deg=6):
    return UPoly.from_coeffs(
        gf, [random.randrange(gf.q) for _ in range(max_deg + 1)])


def test_constructors():
    z = UPoly.zero(F4)
    assert z.is_zero() and z.deg() == -1
    one = UPoly.one(F4)
    assert one.deg() == 0 and one.coeff(0) == 1
    t = UPoly.t(F4)
    assert t.deg() == 1 and t.coeff(1) == 1 and t.coeff(0) == 0
    p = UPoly.from_coeffs(F4, [1, 2, 3])
    assert p.to_coeffs() == [1, 2, 3]
    # trailing zeros are trimmed
    assert UPoly.from_coeffs(F4, [1, 0, 0]).deg() == 0


def test_add_is_xor_of_coeffs():
    for _ in range(100):
        a, b = _rand(F4), _rand(F4)
        s = a + b
        for k in range(8):
            assert s.coeff(k) == a.coeff(k) ^ b.coeff(k)
        assert (a + a).is_zero()


def test_mul_matches_schoolbook():
    # GF(2^9) coefficients no longer fit a byte: the tuple storage
    for gf in (F2, F4, GF.get(3), GF.get(9)):
        for _ in range(60):
            a, b = _rand(gf, 4), _rand(gf, 4)
            c = a * b
            for k in range(10):
                acc = 0
                for i in range(k + 1):
                    acc ^= gf.mul(a.coeff(i), b.coeff(k - i))
                assert c.coeff(k) == acc


def test_divmod():
    for gf in (F4, GF.get(9)):
        for _ in range(150):
            a = _rand(gf, 8)
            b = _rand(gf, 4)
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.deg() < b.deg()
    with pytest.raises(ZeroDivisionError):
        _rand(F4).divmod(UPoly.zero(F4))


def test_gcd_monic_and_divides():
    for _ in range(100):
        a, b, c = _rand(F4, 3), _rand(F4, 3), _rand(F4, 2)
        g = (a * c).gcd(b * c)
        if g.is_zero():
            continue
        assert g.lc() == 1
        if not c.is_zero():
            assert (a * c).mod(g).is_zero()
            assert g.mod(c.scalar_mul(F4.inv(c.lc()))).is_zero()


def test_square_sqrt():
    for _ in range(100):
        a = _rand(F4, 5)
        s = a.square()
        assert s == a * a
        assert s.is_square()
        assert s.sqrt() == a
    t = UPoly.t(F4)
    assert not t.is_square()
    with pytest.raises(ValueError):
        t.sqrt()


def test_eval_frobenius():
    # evaluation is a ring hom, and eval(p^2, x) = eval(p, x)^2
    for _ in range(60):
        a, b = _rand(F4, 4), _rand(F4, 4)
        for x in range(4):
            assert (a * b).eval(x) == F4.mul(a.eval(x), b.eval(x))
            assert (a + b).eval(x) == a.eval(x) ^ b.eval(x)
            assert a.square().eval(x) == F4.mul(a.eval(x), a.eval(x))


def test_pow():
    t = UPoly.t(F4)
    assert t.pow(0) == UPoly.one(F4)
    assert t.pow(5).deg() == 5
    p = UPoly.from_coeffs(F4, [1, 1])
    assert p.pow(2) == p.square()
    assert p.pow(3) == p * p * p


def test_str_round():
    p = UPoly.from_coeffs(F4, [3, 0, 1])
    assert str(p) == "t^2+g+1"
    assert str(UPoly.zero(F4)) == "0"
    assert str(UPoly.from_coeffs(F4, [0, 2])) == "g*t"
