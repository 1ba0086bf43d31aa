import random

import pytest

from quarticfibres import families
from quarticfibres.families import FamilyTag, build_family, singular_point
from quarticfibres.finitefield import GF
from quarticfibres.insep import InsepElem, fourth_root, sqrt_in_quarter
from quarticfibres.sampling import random_params, random_scalar, rng_for
from quarticfibres.scalars import ScalarK
from quarticfibres.upoly import UPoly

random.seed(71004)

F2 = GF.get(1)


def _scalar(max_deg=2):
    num = UPoly.from_coeffs(F2, [random.randrange(2)
                                 for _ in range(max_deg + 1)])
    den = UPoly.zero(F2)
    while den.is_zero():
        den = UPoly.from_coeffs(F2, [random.randrange(2)
                                     for _ in range(max_deg + 1)])
    return ScalarK(num, den)


def test_fourth_root_of_t():
    t = ScalarK.t(F2)
    r = fourth_root(t)
    assert InsepElem(r.x ** 4) == InsepElem.from_scalar(t)
    assert str(r) == "t^(1/4)"
    assert str(r * r) == "t^(1/2)"


def test_fourth_root_generic():
    for _ in range(60):
        x = _scalar()
        r = fourth_root(x)
        assert InsepElem(r.x ** 4) == InsepElem.from_scalar(x)
        y = sqrt_in_quarter(x)
        assert y * y == InsepElem.from_scalar(x)


def test_arithmetic():
    t = ScalarK.t(F2)
    a = fourth_root(t)
    b = InsepElem(a.x.square())  # t^(1/2)
    assert a * a == b
    assert b * b == InsepElem.from_scalar(t)
    assert (a + b) * (a + b) == a * a + b * b  # char 2
    at = a * InsepElem.from_scalar(t)
    assert InsepElem(at.x ** 4) == InsepElem.from_scalar(t ** 5)


# ----- reference: K(t^(1/4)) as coordinate vectors over K -------------------
#
# The package's earlier representation, kept as the oracle: an element is
# (c0, c1, c2, c3) with value c0 + c1 s + c2 s^2 + c3 s^3, s = t^(1/4), and
# products wrap s^4 = t.


class CoordElem:
    POWERS = ("", "t^(1/4)", "t^(1/2)", "t^(3/4)")

    def __init__(self, coords):
        self.coords = tuple(coords)
        assert len(self.coords) == 4

    @classmethod
    def from_scalar(cls, a):
        z = ScalarK.zero(a.gf)
        return cls((a, z, z, z))

    @classmethod
    def one(cls, gf):
        return cls.from_scalar(ScalarK.one(gf))

    @property
    def gf(self):
        return self.coords[0].gf

    def __bool__(self):
        return any(self.coords)

    def __add__(self, other):
        return CoordElem(a + b for a, b in zip(self.coords, other.coords))

    def __mul__(self, other):
        t = ScalarK.t(self.gf)
        out = [ScalarK.zero(self.gf)] * 4
        for i, a in enumerate(self.coords):
            for j, b in enumerate(other.coords):
                p = a * b
                if i + j >= 4:
                    p = p * t
                out[(i + j) % 4] = out[(i + j) % 4] + p
        return CoordElem(out)

    def scalar_mul(self, a):
        return CoordElem(c * a for c in self.coords)

    def square(self):
        t = ScalarK.t(self.gf)
        z = ScalarK.zero(self.gf)
        c0, c1, c2, c3 = self.coords
        return CoordElem((c0.square() + c2.square() * t, z,
                          c1.square() + c3.square() * t, z))

    def pow(self, n):
        r = CoordElem.one(self.gf)
        for _ in range(n):
            r = r * self
        return r

    def __eq__(self, other):
        return isinstance(other, CoordElem) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(self.POWERS[i])
            else:
                depth, bare = 0, False
                for ch in cs:
                    depth += (ch == "(") - (ch == ")")
                    bare |= ch in "+/" and depth == 0
                parts.append(f"({cs})*{self.POWERS[i]}" if bare
                             else f"{cs}*{self.POWERS[i]}")
        return "+".join(parts) if parts else "0"


def coord_fourth_root(x):
    gf = x.gf
    e = (x.num * x.den.pow(3)).to_coeffs()
    return CoordElem(
        ScalarK(UPoly.from_coeffs(gf, [gf.fourth_root(c) for c in e[i::4]]),
                x.den)
        for i in range(4))


def coord_sqrt_in_quarter(x):
    return coord_fourth_root(x.square())


# ----- differential checks against the reference ----------------------------


def _pool(rng, gf):
    """Pairs (InsepElem, CoordElem) of equal values: roots and lifts of
    random scalars, then their sums, products, squares, powers and
    scalar multiples."""
    pool = []
    for _ in range(6):
        x = random_scalar(rng, gf)
        pool.append((fourth_root(x), coord_fourth_root(x)))
        pool.append((sqrt_in_quarter(x), coord_sqrt_in_quarter(x)))
        pool.append((InsepElem.from_scalar(x), CoordElem.from_scalar(x)))
    base = list(pool)
    for _ in range(12):
        (a, ca), (b, cb) = rng.choice(base), rng.choice(base)
        pool.append((a + b, ca + cb))
        pool.append((a * b, ca * cb))
        pool.append((InsepElem(a.x.square()), ca.square()))
        k = rng.randrange(6)
        pool.append((InsepElem(a.x ** k), ca.pow(k)))
        y = random_scalar(rng, gf, 1)
        pool.append((a * InsepElem.from_scalar(y), ca.scalar_mul(y)))
    return pool


@pytest.mark.parametrize("m", [1, 2, 3, 9])
def test_matches_coordinate_reference(m):
    gf = GF.get(m)
    rng = rng_for(71004, f"insep-{m}")
    pool = _pool(rng, gf)
    for a, ca in pool:
        assert str(a) == str(ca)
    for _ in range(40):
        (a, ca), (b, cb) = rng.choice(pool), rng.choice(pool)
        assert (a == b) == (ca == cb)


@pytest.mark.parametrize("m", [1, 2])
def test_family_points_match_coordinate_reference(m, monkeypatch):
    gf = GF.get(m)
    rng = rng_for(71004, f"insep-families-{m}")
    models = [build_family(random_params(rng, tag, gf))
              for tag in FamilyTag for _ in range(4)]

    def answers():
        return [str(singular_point(model)) for model in models]

    got = answers()
    for name, ref in (("InsepElem", CoordElem),
                      ("fourth_root", coord_fourth_root),
                      ("sqrt_in_quarter", coord_sqrt_in_quarter)):
        monkeypatch.setattr(families, name, ref)
    assert got == answers()
