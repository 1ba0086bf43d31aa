"""The four workloads: seeded input streams, the timed op and its warm-up.

Inputs come from the benchmark's own `random.Random` stream, keyed by the
workload name and the seed, as plain data (field ints, coefficient lists).
`quarticfibres.sampling` is deliberately not used, so a change to it cannot
shift a workload.  Draws that the package's constructors refuse are rejected
before the op's timer starts.

Each workload is a proportionally stratified uniform sample.  The strata are
closed-form facts of the paper, not outputs of the code under test:

* fibre workloads: an equal share per fibration of the workload (pi3, pi4
  and pi5 on GF(2^3); pi4 alone on GF(2^6)), and inside each the degenerate
  stratum (pi3 b=0, pi4 b=0, pi5 d=0) at its exact share 1/q of the grid.
  Every grid point of a fibration is equally likely.  Without the strata,
  the pi3 b=0 fibres (about 4% of ops, half the time on GF(2^3)) would make
  throughput swing with the seed;
* witness workloads: one third per family (III, IV, V).

A smooth weighted round robin interleaves the strata, so every prefix of the
stream holds each stratum within one op of its share.
"""

import random
from dataclasses import dataclass

FIBRATIONS = ("pi3", "pi4", "pi5")
ARITY = {"pi3": 4, "pi4": 3, "pi5": 4}
# parameter whose vanishing gives the degenerate stratum: pi3 b, pi4 b, pi5 d
DEGENERATE_INDEX = {"pi3": 1, "pi4": 1, "pi5": 3}
TAGS = ("III", "IV", "V")
# parameters each family uses; the rest are zero
FAMILY_PARAMS = {"III": "abcd", "IV": "abc", "V": "abcd"}
PARAM_DEG = 2       # degree bound of numerators and denominators of a, b, c, d
WITNESS_DEG = 1     # degree bound of the witness constants


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "fibre" | "witness"
    m: int              # GF(2^m) for fibres, F_{2^m}(t) for witnesses
    trace_ops: int      # ops in a traced run (a fixed count, so counts repeat)
    why: str
    fibrations: tuple = FIBRATIONS  # fibre workloads: the fibrations sampled


WORKLOADS = {w.name: w for w in (
    Workload("scan-gf8", "fibre", 3, 240,
             "many cheap GF(2^3) fibres: every cascade branch at its natural"
             " frequency, plus the fixed per-fibre costs (charts, blow-ups,"
             " substitute, field embeddings)"),
    # pi4 alone: its fibres never split into two conics, and the classifier
    # misses conic pairs that split only over GF(2^12) (see README.md)
    Workload("fibre-gf64", "fibre", 6, 12,
             "pi4 fibres over GF(2^6), all integral: the O(q^2) line trial"
             " division and plane scans dominate; the kernels run numpy"
             " unless numba imports (USING_NUMBA is recorded)",
             fibrations=("pi4",)),
    Workload("witness-f2", "witness", 1, 1500,
             "isomorphism witness replays over F_2(t): the gf2x"
             " single-integer path of UPoly; never touches fibres or"
             " kernels"),
    Workload("witness-f4", "witness", 2, 150,
             "the same replays over F_4(t): the bit-sliced UPoly path, kept"
             " apart from witness-f2 since its ops cost about ten times"
             " more"),
)}


@dataclass
class FibreInput:
    fibration: str
    point: tuple        # raw field ints
    degenerate: bool
    spec: object = None  # FieldSpec, filled in by `prepare`


@dataclass
class WitnessInput:
    tag: str
    params: dict        # name -> (num coeffs, den coeffs), ascending degree
    mus: tuple          # four (num coeffs, den coeffs)
    family_params: object = None  # FamilyParams, filled in by `prepare`
    witness: object = None        # IsoWitness, filled in by `prepare`


def _schedule(weights):
    """Smooth weighted round robin over integer weights."""
    credit = [0] * len(weights)
    total = sum(weights)
    while True:
        for i, w in enumerate(weights):
            credit[i] += w
        k = max(range(len(weights)), key=credit.__getitem__)
        credit[k] -= total
        yield k


def _fibre_strata(fibrations, q):
    strata = [(f, deg) for f in fibrations for deg in (True, False)]
    return strata, [1 if deg else q - 1 for _, deg in strata]


def _draw_fibre(rng, q, stratum):
    fibration, degenerate = stratum
    point = [rng.randrange(q) for _ in range(ARITY[fibration])]
    point[DEGENERATE_INDEX[fibration]] = (
        0 if degenerate else rng.randrange(1, q))
    return FibreInput(fibration, tuple(point), degenerate)


def _coeffs(rng, q, deg, nonzero=False):
    while True:
        cs = [rng.randrange(q) for _ in range(deg + 1)]
        if any(cs) or not nonzero:
            return cs


def _fraction(rng, q, deg):
    return _coeffs(rng, q, deg), _coeffs(rng, q, deg, nonzero=True)


def _draw_witness(rng, q, tag):
    params = {n: _fraction(rng, q, PARAM_DEG) for n in FAMILY_PARAMS[tag]}
    while True:
        mus = tuple(_fraction(rng, q, WITNESS_DEG) for _ in range(4))
        # mu4 = mu5 = 0 is the one witness with no map (EpsilonZero)
        if any(mus[2][0]) or any(mus[3][0]):
            return WitnessInput(tag, params, mus)


def _scalar(pkg, gf, frac):
    num, den = frac
    return pkg.scalars.ScalarK(pkg.upoly.UPoly.from_coeffs(gf, num),
                               pkg.upoly.UPoly.from_coeffs(gf, den))


def prepare(pkg, workload: Workload, inp) -> bool:
    """Build the package objects an op needs; False if a constructor
    refuses the draw."""
    try:
        if workload.kind == "fibre":
            inp.spec = pkg.finitefield.FieldSpec(workload.m)
            pkg.fibres.specialize_fibre(inp.fibration, inp.point, inp.spec)
            return True
        gf = pkg.finitefield.GF.get(workload.m)
        tag = pkg.families.FamilyTag(inp.tag)
        values = {n: _scalar(pkg, gf, f) for n, f in inp.params.items()}
        inp.family_params = pkg.families.make_params(tag, gf, **values)
        pkg.families.build_family(inp.family_params)
        inp.witness = pkg.isomorphisms.IsoWitness(
            tag, tuple(_scalar(pkg, gf, f) for f in inp.mus))
        return True
    except pkg.errors.QuarticError:
        return False


def inputs(pkg, workload: Workload, seed: int):
    """Prepared inputs in stream order.  A refused draw is drawn again in
    the same stratum, so refusals do not shift the mix."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    q = 1 << workload.m
    if workload.kind == "fibre":
        (strata, weights), draw = (_fibre_strata(workload.fibrations, q),
                                   _draw_fibre)
    else:
        strata, weights, draw = TAGS, [1] * len(TAGS), _draw_witness
    for k in _schedule(weights):
        while True:
            inp = draw(rng, q, strata[k])
            if prepare(pkg, workload, inp):
                yield inp
                break


def run_op(pkg, workload: Workload, inp):
    """One op: what `quarticfibres scan` does per grid point, or one
    isomorphism-witness replay.  Module attributes are looked up at call
    time so that the traced run sees its wrappers."""
    if workload.kind == "fibre":
        curve = pkg.fibres.specialize_fibre(inp.fibration, inp.point, inp.spec)
        return curve, pkg.fibres.classify_fibre(curve)
    src = pkg.families.build_family(inp.family_params)
    tgt = pkg.isomorphisms.apply_iso(src, inp.witness)
    scale = pkg.isomorphisms.verify_iso(src, tgt, inp.witness)
    return (scale, pkg.families.invariant(src), pkg.families.invariant(tgt))


def setup(pkg, workload: Workload):
    """Field tables for the workload's fields and one untimed warm-up op on
    a fixed, seed-independent input: an integral pi4 fibre or a family III
    replay."""
    pkg.finitefield.GF.get(workload.m)
    if workload.kind == "fibre":
        pkg.finitefield.GF.get(2 * workload.m)
        inp = FibreInput("pi4", (3, 5, 7), False)
    else:
        inp = WitnessInput(
            "III",
            {"a": ([0, 1], [1]), "b": ([1], [1]), "c": ([1], [1]),
             "d": ([0], [1])},
            (([0], [1]), ([1], [1]), ([1], [1]), ([0, 1], [1])))
    if not prepare(pkg, workload, inp):
        raise RuntimeError(f"{workload.name}: warm-up input refused")
    run_op(pkg, workload, inp)
