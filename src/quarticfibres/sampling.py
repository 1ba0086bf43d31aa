"""Seeded random generators for the randomized checks.

Streams are split by name: sha256("seed:name") keys an independent
`random.Random` per purpose, so adding a new consumer never shifts the
values another one sees.
"""

import hashlib
import random

from .errors import UnsupportedKind
from .families import (FAMILY_PARAMS, FamilyParams, FamilyTag, build_family,
                       make_params)
from .finitefield import GF
from .isomorphisms import IsoWitness, MU_NAMES, make_witness
from .scalars import ScalarK
from .tower import TowerKind, TowerPresentation, make_tower, validate_presentation
from .upoly import UPoly


def split_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, name: str) -> random.Random:
    return random.Random(split_seed(seed, name))


def random_upoly(rng, gf: GF, max_deg: int, nonzero: bool = False) -> UPoly:
    while True:
        p = UPoly.from_coeffs(gf, [rng.randrange(gf.q)
                                   for _ in range(max_deg + 1)])
        if not (nonzero and p.is_zero()):
            return p


def random_scalar(rng, gf: GF, max_deg: int = 2,
                  nonzero: bool = False) -> ScalarK:
    while True:
        s = ScalarK(random_upoly(rng, gf, max_deg),
                    random_upoly(rng, gf, max_deg, nonzero=True))
        if not (nonzero and s.is_zero()):
            return s


def random_nonsquare(rng, gf: GF, max_deg: int = 2) -> ScalarK:
    while True:
        s = random_scalar(rng, gf, max_deg)
        if not s.is_square():
            return s


def random_params(rng, tag: FamilyTag, gf: GF,
                  max_deg: int = 2) -> FamilyParams:
    draw = {"free": lambda: random_scalar(rng, gf, max_deg),
            "nonzero": lambda: random_scalar(rng, gf, max_deg, nonzero=True),
            "nonsquare": lambda: random_nonsquare(rng, gf, max_deg)}
    params = make_params(tag, gf, **{
        n: draw[rule]() for n, rule in FAMILY_PARAMS[tag].items()})
    build_family(params)
    return params


def random_witness(rng, tag: FamilyTag, gf: GF,
                   max_deg: int = 1) -> IsoWitness:
    while True:
        by_name = {n: random_scalar(rng, gf, max_deg) for n in MU_NAMES[tag]}
        if by_name["mu4"] or by_name["mu5"]:
            return make_witness(tag, gf, **by_name)


def random_presentation(rng, kind: TowerKind, gf: GF, max_deg: int = 2,
                        require_quartic: bool = False) -> TowerPresentation:
    """A valid presentation of the given kind; with `require_quartic`
    the constants stay in the range where a plane quartic model exists
    (no such range for kind D)."""
    any_ = lambda: random_scalar(rng, gf, max_deg)
    nz = lambda: random_scalar(rng, gf, max_deg, nonzero=True)
    nsq = lambda: random_nonsquare(rng, gf, max_deg)
    if require_quartic and kind is TowerKind.D:
        raise UnsupportedKind("kind D towers are hyperelliptic")
    if kind is TowerKind.A:
        # B0 can only be shifted away when B1 is a unit; stay
        # in the normalizable range otherwise
        b1 = nz() if require_quartic else any_()
        b0 = any_() if b1 else ScalarK.zero(gf)
        p = make_tower(kind, gf, c0=any_(), c1=nz(), A2=nsq(),
                       B0=b0, B1=b1)
    elif kind is TowerKind.B:
        p = make_tower(kind, gf, a2=nsq(), b0=any_(), b2=any_())
    elif kind is TowerKind.C:
        p = make_tower(kind, gf, a0=any_(), a2=nsq(), b1=nsq(),
                       c3=any_(), c4=nz() if require_quartic else any_())
    else:
        a2 = nsq()
        p = make_tower(kind, gf, a0=any_(), a2=a2, c0=any_(),
                       c2=a2 * random_scalar(rng, gf, max_deg).square())
    validate_presentation(p)
    return p
