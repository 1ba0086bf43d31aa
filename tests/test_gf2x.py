import random

from quarticfibres import gf2x
from quarticfibres.finitefield import GF
from quarticfibres.upoly import UPoly

random.seed(71001)


def _slow_mul(a, b):
    acc = 0
    i = 0
    while a >> i:
        if (a >> i) & 1:
            acc ^= b << i
        i += 1
    return acc


def test_deg():
    assert gf2x.deg(0) == -1
    assert gf2x.deg(1) == 0
    assert gf2x.deg(0b1011) == 3


def test_mul_against_shift_add():
    for _ in range(300):
        a = random.getrandbits(12)
        b = random.getrandbits(12)
        assert gf2x.mul(a, b) == _slow_mul(a, b)


def test_divmod_identity():
    for _ in range(300):
        a = random.getrandbits(16)
        b = random.getrandbits(8) | 1 << 7
        q, r = gf2x.divmod_(a, b)
        assert gf2x.deg(r) < gf2x.deg(b)
        assert gf2x.mul(q, b) ^ r == a


def test_gcd_divides_both():
    for _ in range(200):
        a = random.getrandbits(10)
        b = random.getrandbits(10)
        g = gf2x.gcd(a, b)
        if g:
            assert gf2x.mod(a, g) == 0
            assert gf2x.mod(b, g) == 0
    assert gf2x.gcd(0, 0b110) == 0b110


def test_irreducibles():
    assert gf2x.is_irreducible(0b10)      # u
    assert gf2x.is_irreducible(0b111)     # u^2+u+1
    assert gf2x.is_irreducible(0b1011)    # u^3+u+1
    assert not gf2x.is_irreducible(0b101)  # (u+1)^2
    assert not gf2x.is_irreducible(0b1001)  # (u+1)^3
    assert gf2x.first_irreducible(2) == 0b111
    assert gf2x.first_irreducible(8) == 0b100011011


def test_square_has_even_support():
    # squares are read by UPoly's odd-slot mask, at m = 1 on this packing
    gf = GF.get(1)
    for _ in range(200):
        s = gf2x.square(random.getrandbits(14))
        assert UPoly(gf, s).is_square()
        assert not UPoly(gf, s ^ (1 << 2 * random.randrange(14) + 1)).is_square()
    # odd-degree polynomials are never squares
    assert not UPoly(gf, 0b10).is_square()
    assert not UPoly(gf, 0b1110).is_square()


def test_square_is_mul_self():
    for _ in range(100):
        a = random.getrandbits(16)
        assert gf2x.square(a) == gf2x.mul(a, a)
