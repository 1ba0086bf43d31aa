"""Explicit K-isomorphisms between quartic models of the same family.

Two models of a family (III, IV or V) are isomorphic over K exactly when
a witness tuple of constants transforms one parameter vector into the
other; the same witness determines a fractional-linear substitution in
the curve generators.  `apply_iso` computes the target parameters, and
`verify_iso` replays the substitution inside the target quartic and
checks that the source quartic is reproduced up to a nonzero scalar.
Both read one computation, in which the witness constants and the
parameters are fractions n * prod f_i^e_i over a shared list of factors
f_i in GF(q)[t] (the input denominators and the inverted sums, eps among
them): products add exponents and sums factor out the common denominator,
so no gcd is taken, and each target parameter is reduced once, when it
becomes a ScalarK.
`verify_iso` is the sole correctness oracle and is fully symbolic; it
takes the maps over their common denominator, clears the denominators of
both quartics once and then runs in GF(q)[t], so no fraction is reduced
until the scalar is returned.
Polynomials of GF(q)[t] are the packed ints that `UPoly` wraps, multiplied
by `upoly`'s kernel (`mul`, `square`, `pow`): the numerators and factors
of the fractions, and the maps, folded target, substitution
(`mpoly.substitute_terms`) and cleared source of the replay, which are
{exponent: int} dicts.  A `UPoly` is made only to divide (the lcm of
denominators and the exact divisions that clear them), and with `ScalarK`
for the target parameters, the returned scale and a mismatch's residual.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial

from . import upoly
from .errors import (ConstraintViolation, DivisionByZero, EpsilonZero,
                     SubstitutionMismatch, UnsupportedFamily)
from .families import (FamilyParams, FamilyTag, QuarticModel, build_family,
                       make_params)
from .mpoly import FORM_VARS, MPoly, substitute_terms
from .scalars import ScalarK
from .upoly import UPoly

MU_NAMES = {
    FamilyTag.III: ("mu2", "mu3", "mu4", "mu5"),
    FamilyTag.IV: ("mu1", "mu2", "mu4", "mu5"),
    FamilyTag.V: ("mu2", "mu3", "mu4", "mu5"),
}


@dataclass(frozen=True)
class IsoWitness:
    tag: FamilyTag
    mus: tuple[ScalarK, ...]  # named per MU_NAMES[tag]

    def __post_init__(self):
        if self.tag not in MU_NAMES:
            raise UnsupportedFamily(f"no isomorphism data for family {self.tag}")
        if len(self.mus) != 4:
            raise ValueError("a witness carries four constants")

    @property
    def gf(self):
        return self.mus[0].gf

    def mu(self, name: str) -> ScalarK:
        return self.mus[MU_NAMES[self.tag].index(name)]

    def as_dict(self) -> dict:
        d = {"tag": self.tag.value}
        for name, v in zip(MU_NAMES[self.tag], self.mus):
            d[name] = str(v)
        return d


def make_witness(tag: FamilyTag, gf, **by_name) -> IsoWitness:
    z = ScalarK.zero(gf)
    return IsoWitness(tag, tuple(by_name.get(n, z) for n in MU_NAMES[tag]))


def identity_witness(tag: FamilyTag, gf) -> IsoWitness:
    return make_witness(tag, gf, mu4=ScalarK.one(gf))


class _Factors:
    """The factor list f_0, f_1, ... of one witness computation (the
    denominators of its inputs and the numerators it inverts), with the
    powers f_i^k it has used; all packed GF(q)[t] ints (`upoly`)."""

    def __init__(self, gf):
        self.gf = gf
        self.index: dict[int, int] = {}
        self.polys: list[int] = []
        self.pows: dict[tuple[int, int], int] = {}

    def factor(self, f: int) -> int:
        i = self.index.get(f)
        if i is None:
            i = self.index[f] = len(self.polys)
            self.polys.append(f)
        return i

    def times(self, n: int, e: dict) -> int:
        """n * prod f_i^e_i, all e_i >= 0."""
        gf = self.gf
        for i, k in e.items():
            if k:
                p = self.pows.get((i, k))
                if p is None:
                    p = self.pows[i, k] = upoly.pow(gf, self.polys[i], k)
                n = upoly.mul(gf, n, p)
        return n

    def lift(self, s: ScalarK) -> "_Frac":
        den = s.den.c   # monic: a constant denominator is 1
        return _Frac(self, s.num.c, {} if den == 1 else {self.factor(den): -1})

    def common(self, fracs) -> tuple[list[int], dict]:
        """The numerators of the fractions over prod f_i^low_i, with low_i
        the least exponent of f_i among them (at most 0)."""
        low: dict[int, int] = {}
        for x in fracs:
            for i, k in x.e.items():
                if k < low.get(i, 0):
                    low[i] = k
        nums = []
        for x in fracs:
            e = dict(x.e)
            for i, k in low.items():
                e[i] = e.get(i, 0) - k
            nums.append(self.times(x.n, e) if x else x.n)
        return nums, low

    def cleared(self, fracs) -> tuple[list[int], int]:
        """The numerators of the fractions and their common denominator."""
        nums, low = self.common(fracs)
        return nums, self.times(1, {i: -k for i, k in low.items()})


class _Frac:
    """An element n * prod f_i^e_i of K with n a packed GF(q)[t] int, over
    the factor list of one witness computation.  A product adds exponents
    and a sum factors out the common denominator, so no gcd is taken until
    `scalar` makes the one canonical ScalarK."""

    __slots__ = ("fs", "n", "e")

    def __init__(self, fs: _Factors, n: int, e: dict):
        self.fs = fs
        self.n = n
        self.e = e if n else {}   # factor index -> nonzero exponent

    def __bool__(self):
        return bool(self.n)

    def __add__(self, other: "_Frac") -> "_Frac":
        if not self:
            return other
        if not other:
            return self
        (n1, n2), low = self.fs.common((self, other))
        return _Frac(self.fs, n1 ^ n2, low)

    def __mul__(self, other: "_Frac") -> "_Frac":
        e = dict(self.e)
        for i, k in other.e.items():
            k += e.get(i, 0)
            if k:
                e[i] = k
            else:
                del e[i]
        return _Frac(self.fs, upoly.mul(self.fs.gf, self.n, other.n), e)

    def square(self) -> "_Frac":
        return self ** 2

    def __pow__(self, k: int) -> "_Frac":
        return _Frac(self.fs, upoly.pow(self.fs.gf, self.n, k),
                     {i: k * v for i, v in self.e.items()})

    def inverse(self) -> "_Frac":
        if not self:
            raise DivisionByZero("inverse of 0 in K")
        fs = self.fs
        inv = _Frac(fs, 1, {i: -k for i, k in self.e.items()})
        if self.n == 1:
            return inv
        return inv * _Frac(fs, 1, {fs.factor(self.n): -1})

    def scalar(self) -> ScalarK:
        (n,), den = self.fs.cleared((self,))
        gf = self.fs.gf
        return ScalarK(UPoly(gf, n), UPoly(gf, den))


def _eps_gamma(w: IsoWitness, params: FamilyParams):
    """The witness constants, the lever (a for III, b otherwise), eps and
    gamma as fractions of one computation; no gcd is taken."""
    if w.tag is not params.tag:
        raise ConstraintViolation(
            f"witness is for family {w.tag}, model is family {params.tag}")
    fs = _Factors(params.gf)
    mus = [fs.lift(m) for m in w.mus]
    lever = fs.lift(params.a if w.tag is FamilyTag.III else params.b)
    eps = mus[2].square() + mus[3].square() * lever
    if not eps:
        raise EpsilonZero("mu4 = mu5 = 0 gives no fractional-linear map")
    gamma = (mus[0].square() + mus[1].square() * lever) * eps.inverse()
    return mus, lever, eps, gamma


def apply_iso(m: QuarticModel, w: IsoWitness) -> QuarticModel:
    """Transform the model parameters by the witness; validates the target."""
    p = m.params
    mus, _, eps, gamma = _eps_gamma(w, p)
    fs = eps.fs
    a, b, c, d = (fs.lift(v) for v in (p.a, p.b, p.c, p.d))
    ie = eps.inverse()
    if w.tag is FamilyTag.III:
        _, mu3, mu4, mu5 = mus
        k = mu4 * mu5 + mu3.square()
        target = dict(
            a=(a + gamma.square()) * ie ** 6,
            b=b * ie ** 3,
            c=eps * c,
            d=(eps * k.square() * b + eps.square() * k
               + eps.square() * (mu5.square() * b.square() * c ** 3 + eps * d)))
    elif w.tag is FamilyTag.IV:
        _, mu2, mu4, mu5 = mus
        cross = eps * mu4 * mu5 + mu2 ** 4
        hull = c + a * b.square()
        target = dict(
            a=eps.square() * a + cross + mu5 ** 4 * hull,
            b=b * ie ** 4,
            c=(c + gamma.square() + (cross + mu5 ** 4 * hull) * b.square()
               * ie ** 2) * ie ** 6)
    else:
        _, mu3, mu4, mu5 = mus
        big = b + gamma.square()
        ib = big.inverse()
        k = mu3.square() + mu4 * mu5
        # the k*(k + eps*d) term is forced: any other multiplier leaves a
        # k^2 + k residue in the substitution identity that verify_iso checks
        target = dict(
            a=eps.square() * a * b.square() * ib.square(),
            b=big * ie ** 2,
            c=(eps.square() * (c + a) + (k + eps * d) * k
               + a * b.square() * (mu5 ** 4 + eps.square() * ib.square())),
            d=eps * d)
    return build_family(make_params(
        w.tag, p.gf, **{n: v.scalar() for n, v in target.items()}))


# denominator bookkeeping per family: z' = zn/(eps^ez dd) and
# y' = yn/(eps^ey dd), so the homogeneous replay x -> eps^a dd,
# y -> eps^(a-ey) yn, z -> eps^(a-ez) zn with a = max(ez, ey) is the
# affine one multiplied through by eps^(4a) dd^4.
_EPS_POWERS = {FamilyTag.III: (3, 2), FamilyTag.IV: (2, 2),
               FamilyTag.V: (1, 1)}


def _map_forms(tag: FamilyTag, mus, lever, eps, gamma):
    """The linear forms dd = mu4 + mu5 z, yn and zn in y, z, as
    {exponent: fraction}, so that z' = zn / (eps^ez dd) and
    y' = yn / (eps^ey dd)."""
    m4, m5 = mus[2], mus[3]
    one, z = (0, 0, 0), (0, 0, 1)
    dd = {one: m4, z: m5}
    pp = {one: m5 * lever, z: m4}            # mu5*lever + mu4 z
    # mus[:2] is (mu1, mu2) for IV and (mu2, mu3) otherwise
    zn = pp if tag is FamilyTag.IV else {e: gamma * dd[e] + pp[e] for e in dd}
    yn = {e: mus[0] * dd[e] + mus[1] * pp[e] for e in dd}
    yn[0, 1, 0] = eps
    return dd, yn, zn


def _lcm_den(coeffs) -> UPoly:
    """The monic lcm of the denominators of some ScalarK."""
    dens = iter(dict.fromkeys(c.den for c in coeffs))
    out = next(dens)
    for d in dens:
        out = out * d.exact_div(out.gcd(d))
    return out


def _cleared(f: MPoly, den: UPoly) -> dict:
    """den * f as {exponent: packed GF(q)[t] int}, for den a multiple of
    every denominator; one exact division per distinct denominator."""
    gf = den.gf
    quotients = {}
    out = {}
    for e, c in f.terms.items():
        q = quotients.get(c.den.c)
        if q is None:
            q = quotients[c.den.c] = den.exact_div(c.den).c
        out[e] = upoly.mul(gf, c.num.c, q)
    return out


def verify_iso(source: QuarticModel, target: QuarticModel, w: IsoWitness) -> ScalarK:
    """Replay the substitution in the target quartic; return the scalar.

    Substituting the maps into the target's affine chart (x = 1) and
    multiplying through by eps^(4a) (mu4 + mu5 z)^4 must reproduce the
    source affine quartic up to a nonzero constant, which is returned.
    The replay runs in GF(q)[t], on {exponent: packed int} dicts: the
    denominators of the maps, of the target and of the source are cleared
    once, eps^k is folded into the target coefficient it multiplies, and
    proportionality is tested by cross-multiplication.  Raises
    SubstitutionMismatch otherwise.
    """
    mus, lever, eps, gamma = _eps_gamma(w, source.params)
    forms = _map_forms(w.tag, mus, lever, eps, gamma)
    fs = eps.fs
    gf = source.params.gf
    mul = partial(upoly.mul, gf)
    ez, ey = _EPS_POWERS[w.tag]
    a = max(ez, ey)
    nums, d_maps = fs.cleared([c for f in forms for c in f.values()])
    nums = iter(nums)
    maps = [{e: n for e in f if (n := next(nums))} for f in forms]
    (eps_num,), eps_den = fs.cleared((eps,))
    c_tgt = _lcm_den(target.form.terms.values())
    en, ed = [1], [1]
    for _ in range(4 * a):
        en.append(mul(en[-1], eps_num))
        ed.append(mul(ed[-1], eps_den))
    # x^h y^i z^j picks up eps^(a h + (a-ey) i + (a-ez) j) = eps^k,
    # times eps_den^(4a) to clear it
    folded = {}
    for e, c in _cleared(target.form, c_tgt).items():
        k = 4 * a - ey * e[1] - ez * e[2]
        folded[e] = mul(mul(c, en[k]), ed[4 * a - k])
    lhs = substitute_terms(folded, maps, mul, operator.xor,
                           partial(upoly.square, gf))
    src = source.form.dehomogenize("x")
    s_den = _lcm_den(src.terms.values())
    rhs = _cleared(src, s_den)
    # the affine replay over K is lhs / scale_den
    scale_den = mul(c_tgt.c, upoly.pow(gf, mul(ed[a], d_maps), 4))
    y4 = (0, 4, 0)
    p4, s4 = lhs.get(y4), rhs.get(y4)
    if (p4 is None or lhs.keys() != rhs.keys()
            or any(mul(c, s4) != mul(p4, rhs[e]) for e, c in lhs.items())):
        den = UPoly(gf, scale_den)
        lifted = MPoly(FORM_VARS, src.domain, {
            e: ScalarK(UPoly(gf, c), den) for e, c in lhs.items()})
        s = lifted.coeff(y4) / src.coeff(y4)
        raise SubstitutionMismatch(
            f"substituted target quartic is not a scalar multiple of the source "
            f"(family {w.tag})", residual=str(lifted + src.scale(s)))
    return ScalarK(UPoly(gf, mul(p4, s_den.c)), UPoly(gf, mul(s4, scale_den)))
