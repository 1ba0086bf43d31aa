"""Explicit K-isomorphisms between quartic models of the same family.

Two models of a family (III, IV or V) are isomorphic over K exactly when
a witness tuple of constants transforms one parameter vector into the
other; the same witness determines a fractional-linear substitution in
the curve generators.  `apply_iso` computes the target parameters,
`iso_maps` the substitution, and `verify_iso` replays the substitution
inside the target quartic and checks that the source quartic is
reproduced up to a nonzero scalar.  That last computation is the sole
correctness oracle and is fully symbolic; it clears the denominators of
the maps and of both quartics once and then runs in GF(q)[t], so no
fraction is reduced until the scalar is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (ConstraintViolation, EpsilonZero, SubstitutionMismatch,
                     UnsupportedFamily)
from .families import (FamilyParams, FamilyTag, QuarticModel, build_family,
                       make_params)
from .mpoly import FORM_VARS, MPoly
from .scalars import KDomain, ScalarK
from .upoly import UPoly, UPolyDomain

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


def epsilon_gamma(w: IsoWitness, params: FamilyParams) -> tuple[ScalarK, ScalarK]:
    """The two derived constants; EpsilonZero iff mu4 = mu5 = 0.

    (For valid parameters the other root of epsilon would force a or b
    into K-squares, so the degenerate witness is the only zero locus.)
    """
    if w.tag is not params.tag:
        raise ConstraintViolation(
            f"witness is for family {w.tag}, model is family {params.tag}")
    m4, m5 = w.mus[2], w.mus[3]
    lever = params.a if w.tag is FamilyTag.III else params.b
    eps = m4.square() + m5.square() * lever
    if not eps:
        raise EpsilonZero("mu4 = mu5 = 0 gives no fractional-linear map")
    gamma = (w.mus[0].square() + w.mus[1].square() * lever) / eps
    return eps, gamma


def apply_iso(m: QuarticModel, w: IsoWitness) -> QuarticModel:
    """Transform the model parameters by the witness; validates the target."""
    p = m.params
    a, b, c, d = p.a, p.b, p.c, p.d
    eps, gamma = epsilon_gamma(w, p)
    gf = p.gf
    if w.tag is FamilyTag.III:
        mu3, mu4, mu5 = w.mu("mu3"), w.mu("mu4"), w.mu("mu5")
        k = mu4 * mu5 + mu3.square()
        target = make_params(
            FamilyTag.III, gf,
            a=(a + gamma.square()) / eps ** 6,
            b=b / eps ** 3,
            c=eps * c,
            d=(eps * k.square() * b + eps.square() * k
               + eps.square() * (mu5.square() * b.square() * c ** 3 + eps * d)))
    elif w.tag is FamilyTag.IV:
        mu2, mu4, mu5 = w.mu("mu2"), w.mu("mu4"), w.mu("mu5")
        cross = eps * mu4 * mu5 + mu2 ** 4
        hull = c + a * b.square()
        target = make_params(
            FamilyTag.IV, gf,
            a=eps.square() * a + cross + mu5 ** 4 * hull,
            b=b / eps ** 4,
            c=(c + gamma.square() + cross * b.square() / eps.square()
               + mu5 ** 4 * hull * b.square() / eps.square()) / eps ** 6)
    else:
        mu3, mu4, mu5 = w.mu("mu3"), w.mu("mu4"), w.mu("mu5")
        big = b + gamma.square()
        k = mu3.square() + mu4 * mu5
        # the k*(k + eps*d) term is forced: any other multiplier leaves a
        # k^2 + k residue in the substitution identity that verify_iso checks
        target = make_params(
            FamilyTag.V, gf,
            a=eps.square() * a * b.square() / big.square(),
            b=big / eps.square(),
            c=(eps.square() * (c + a) + (k + eps * d) * k
               + a * b.square() * (mu5 ** 4 + eps.square() / big.square())),
            d=eps * d)
    return build_family(target)


@dataclass(frozen=True)
class RationalMap:
    """num/den with num, den polynomials in the curve generators y, z."""
    num: MPoly
    den: MPoly

    def equals_poly(self, p: MPoly) -> bool:
        return self.num == p * self.den

    def __str__(self):
        return f"({self.num})/({self.den})"


@dataclass(frozen=True)
class IsoMaps:
    zmap: RationalMap
    ymap: RationalMap

    def is_identity(self) -> bool:
        dom = self.zmap.num.domain
        return (self.zmap.equals_poly(MPoly.var(FORM_VARS, dom, "z"))
                and self.ymap.equals_poly(MPoly.var(FORM_VARS, dom, "y")))


# denominator bookkeeping per family: z' = zn/(eps^ez dd) and
# y' = yn/(eps^ey dd), so the homogeneous replay x -> eps^a dd,
# y -> eps^(a-ey) yn, z -> eps^(a-ez) zn with a = max(ez, ey) is the
# affine one multiplied through by eps^(4a) dd^4.
_EPS_POWERS = {FamilyTag.III: (3, 2), FamilyTag.IV: (2, 2),
               FamilyTag.V: (1, 1)}


def _numerators(w: IsoWitness, source: FamilyParams):
    """eps and the K-linear forms dd = mu4 + mu5 z, zn and yn, so that
    z' = zn / (eps^ez dd) and y' = yn / (eps^ey dd)."""
    eps, gamma = epsilon_gamma(w, source)
    dom = KDomain.get(source.gf)
    y = MPoly.var(FORM_VARS, dom, "y")
    z = MPoly.var(FORM_VARS, dom, "z")
    k = lambda s: MPoly.const(FORM_VARS, dom, s)
    m4, m5 = w.mus[2], w.mus[3]
    lever = source.a if w.tag is FamilyTag.III else source.b
    dd = k(m4) + z.scale(m5)                 # mu4 + mu5 z
    pp = k(m5 * lever) + z.scale(m4)         # mu5*lever + mu4 z
    if w.tag is FamilyTag.IV:
        zn = pp
        yn = dd.scale(w.mu("mu1")) + pp.scale(w.mu("mu2")) + y.scale(eps)
    else:
        zn = dd.scale(gamma) + pp
        yn = dd.scale(w.mu("mu2")) + pp.scale(w.mu("mu3")) + y.scale(eps)
    return eps, dd, zn, yn


def iso_maps(w: IsoWitness, source: FamilyParams) -> IsoMaps:
    """The fractional-linear substitution (z', y') -> expressions in (z, y)."""
    eps, dd, zn, yn = _numerators(w, source)
    ez, ey = _EPS_POWERS[w.tag]
    return IsoMaps(RationalMap(zn, dd.scale(eps ** ez)),
                   RationalMap(yn, dd.scale(eps ** ey)))


def _lcm_den(coeffs) -> UPoly:
    """The monic lcm of the denominators of some ScalarK."""
    dens = iter(dict.fromkeys(c.den for c in coeffs))
    out = next(dens)
    for d in dens:
        out = out * d.exact_div(out.gcd(d))
    return out


def _cleared(f: MPoly, den: UPoly, dom: UPolyDomain) -> MPoly:
    """den * f over GF(q)[t], for den a multiple of every denominator."""
    return MPoly(f.vars, dom, {e: c.num * den.exact_div(c.den)
                               for e, c in f.terms.items()})


def verify_iso(source: QuarticModel, target: QuarticModel, w: IsoWitness) -> ScalarK:
    """Replay the substitution in the target quartic; return the scalar.

    Substituting the maps into the target's affine chart (x = 1) and
    multiplying through by eps^(4a) (mu4 + mu5 z)^4 must reproduce the
    source affine quartic up to a nonzero constant, which is returned.
    The replay runs in GF(q)[t]: the denominators of the maps, of the
    target and of the source are cleared once, eps^k is folded into the
    target coefficient it multiplies, and proportionality is tested by
    cross-multiplication.  Raises SubstitutionMismatch otherwise.
    """
    eps, dd, zn, yn = _numerators(w, source.params)
    gf = source.params.gf
    dom = UPolyDomain(gf)
    ez, ey = _EPS_POWERS[w.tag]
    a = max(ez, ey)
    d_maps = _lcm_den(c for f in (dd, zn, yn) for c in f.terms.values())
    c_tgt = _lcm_den(target.form.terms.values())
    en, ed = [UPoly.one(gf)], [UPoly.one(gf)]
    for _ in range(4 * a):
        en.append(en[-1] * eps.num)
        ed.append(ed[-1] * eps.den)
    # x^h y^i z^j picks up eps^(a h + (a-ey) i + (a-ez) j) = eps^k,
    # times eps.den^(4a) to clear it
    folded = {}
    for e, c in _cleared(target.form, c_tgt, dom).terms.items():
        k = 4 * a - ey * e[1] - ez * e[2]
        folded[e] = c * en[k] * ed[4 * a - k]
    lhs = MPoly(FORM_VARS, dom, folded).substitute(
        {name: _cleared(f, d_maps, dom)
         for name, f in zip(FORM_VARS, (dd, yn, zn))})
    src = source.form.dehomogenize("x")
    s_den = _lcm_den(src.terms.values())
    rhs = _cleared(src, s_den, dom).terms
    # the affine replay over K is lhs / scale_den
    scale_den = c_tgt * (ed[a] * d_maps).pow(4)
    y4 = (0, 4, 0)
    p4, s4 = lhs.terms.get(y4), rhs.get(y4)
    if (p4 is None or lhs.terms.keys() != rhs.keys()
            or any(c * s4 != p4 * rhs[e] for e, c in lhs.terms.items())):
        lifted = MPoly(FORM_VARS, src.domain, {
            e: ScalarK(c, scale_den) for e, c in lhs.terms.items()})
        s = lifted.coeff(y4) / src.coeff(y4)
        raise SubstitutionMismatch(
            f"substituted target quartic is not a scalar multiple of the source "
            f"(family {w.tag})", residual=str(lifted + src.scale(s)))
    return ScalarK(p4 * s_den, s4 * scale_den)


def search_automorphisms(m: QuarticModel, sample, n: int) -> list[IsoWitness]:
    """Hunt for nontrivial self-maps: witnesses fixing the parameters whose
    substitution is not the identity.  Expected empty (the automorphism
    group of a non-hyperelliptic model is trivial)."""
    violations = []
    for _ in range(n):
        w = sample()
        try:
            target = apply_iso(m, w)
        except (EpsilonZero, ConstraintViolation):
            continue
        if target.params == m.params:
            if not iso_maps(w, m.params).is_identity():
                violations.append(w)
    return violations
