import random

import pytest

from quarticfibres.finitefield import GF
from quarticfibres.upoly import UPoly

random.seed(71002)

F4 = GF.get(2)
F2 = GF.get(1)
# packed slot widths 2m - 1 from 1 to 31 bits (GF refuses m > 16)
MS = (1, 2, 3, 4, 5, 8, 9, 16)


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
    for m in MS:
        gf = GF.get(m)
        for _ in range(10):
            cs = [random.randrange(gf.q) for _ in range(12)] + [gf.q - 1]
            p = UPoly.from_coeffs(gf, cs)
            assert p.to_coeffs() == cs and p.deg() == 12
            assert [p.coeff(k) for k in range(14)] == cs + [0]
            assert UPoly.from_coeffs(gf, cs + [0, 0]) == p
            assert p.lc() == gf.q - 1


def test_add_is_xor_of_coeffs():
    for _ in range(100):
        a, b = _rand(F4), _rand(F4)
        s = a + b
        for k in range(8):
            assert s.coeff(k) == a.coeff(k) ^ b.coeff(k)
        assert (a + a).is_zero()


def test_mul_matches_schoolbook():
    def schoolbook(gf, a, b):
        out = [0] * (a.deg() + b.deg() + 1)
        for i in range(a.deg() + 1):
            for j in range(b.deg() + 1):
                out[i + j] ^= gf.mul(a.coeff(i), b.coeff(j))
        return out

    for m in MS:
        gf = GF.get(m)
        top = UPoly.const(gf, gf.q - 1)
        pairs = [(_rand(gf, 4), _rand(gf, 4)) for _ in range(30)]
        pairs += [(_rand(gf, random.randrange(80)),
                   _rand(gf, random.randrange(80))) for _ in range(4)]
        pairs += [(top, _rand(gf, 40)), (_rand(gf, 40), UPoly.one(gf)),
                  (top, top)]
        for a, b in pairs:
            c = a * b
            if a.is_zero() or b.is_zero():
                assert c.is_zero()
                continue
            assert c == UPoly.from_coeffs(gf, schoolbook(gf, a, b))
            assert c == b * a
        for a in (_rand(gf, 40), top, UPoly.zero(gf)):
            assert (a * UPoly.zero(gf)).is_zero()
            assert (UPoly.zero(gf) * a) == UPoly.zero(gf)


def test_divmod():
    for m in MS:
        gf = GF.get(m)
        for _ in range(40):
            a = _rand(gf, 8)
            b = _rand(gf, 4)
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.deg() < b.deg()
            assert (a * b).exact_div(b) == a
    with pytest.raises(ZeroDivisionError):
        _rand(F4).divmod(UPoly.zero(F4))


def test_gcd_monic_and_divides():
    for m in MS:
        gf = GF.get(m)
        for _ in range(30):
            a, b, c = _rand(gf, 3), _rand(gf, 3), _rand(gf, 2)
            g = (a * c).gcd(b * c)
            if g.is_zero():
                continue
            assert g.lc() == 1
            if a:
                assert a.gcd(UPoly.zero(gf)) == a.scalar_mul(gf.inv(a.lc()))
            if not c.is_zero():
                assert (a * c).mod(g).is_zero()
                assert g.mod(c.scalar_mul(gf.inv(c.lc()))).is_zero()
        # a nonzero constant operand: the gcd is 1, whatever the other
        rng = random.Random(m)
        one = UPoly.one(gf)
        for _ in range(10):
            k = UPoly.const(gf, rng.randrange(1, gf.q))
            a = UPoly.from_coeffs(gf, [rng.randrange(gf.q) for _ in range(5)])
            assert k.gcd(a) == a.gcd(k) == one
            assert k.gcd(UPoly.zero(gf)) == k.gcd(k) == one


def test_square_sqrt():
    for m in MS:
        gf = GF.get(m)
        t = UPoly.t(gf)
        for _ in range(30):
            a = _rand(gf, 5)
            s = a.square()
            assert s == a * a
            assert s.is_square()
            assert s.sqrt() == a
            odd = t.pow(random.randrange(1, 12, 2)).scalar_mul(gf.q - 1)
            assert not (s + odd).is_square()
        assert not t.is_square()
        with pytest.raises(ValueError):
            t.sqrt()


def _eval(p, x):
    """Horner evaluation of p at a field element x."""
    acc = 0
    for c in reversed(p.to_coeffs()):
        acc = p.gf.mul(acc, x) ^ c
    return acc


def test_eval_frobenius():
    # evaluation is a ring hom, and eval(p^2, x) = eval(p, x)^2
    for _ in range(60):
        a, b = _rand(F4, 4), _rand(F4, 4)
        for x in range(4):
            assert _eval(a * b, x) == F4.mul(_eval(a, x), _eval(b, x))
            assert _eval(a + b, x) == _eval(a, x) ^ _eval(b, x)
            assert _eval(a.square(), x) == F4.mul(_eval(a, x), _eval(a, x))


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
