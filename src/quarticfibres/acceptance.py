"""The verification battery behind `quarticfibres accept`.

Eleven independent checks cover the resolution geometry, the covering
map, the isomorphism machinery, fibre classification over small fields,
square roots in K, and the tower/model dictionary.  Each returns a
`CheckResult`; `run_all` executes them in order.  Budgeted checks fail
if they overrun, so a pathological regression in the exact arithmetic
shows up here even when the answers stay right.
"""

from dataclasses import dataclass
from itertools import product
from time import perf_counter

from . import kernels
from .errors import Hyperelliptic, IdentityFailed
from .families import (FamilyTag, build_family, invariant, is_strange)
from .fibres import (PlaneCurveFq, classify_fibre, delta_invariant,
                     multiplicity_at, predicted_singular_point,
                     singular_locus, smooth_points, specialize_fibre,
                     tangent_contact_type)
from .finitefield import GF, FieldSpec
from .isomorphisms import apply_iso, identity_witness, verify_iso
from .plane import raw_form
from .resolution import (covering_check, cubic_pencil, dynkin_type,
                         quartic_pencil, resolve_pencil)
from .sampling import (random_nonsquare, random_params, random_presentation,
                       random_scalar, random_witness, rng_for)
from .scalars import ScalarK
from .tower import (TowerKind, invert_model_map, is_nonhyperelliptic,
                    make_tower, to_quartic_model, verify_breve_relation)
from .upoly import UPoly


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    passed: bool
    detail: str = ""


def _fail(name, anchor, detail):
    return CheckResult(name, anchor, False, detail)


_CACHED = {}


def _report(which):
    if which not in _CACHED:
        build = quartic_pencil if which == "quartic" else cubic_pencil
        _CACHED[which] = resolve_pencil(build())
    return _CACHED[which]


# --- 1 -----------------------------------------------------------------


def check_blowup_counts() -> CheckResult:
    name, anchor = "base point blowup counts", "blowup-counts"
    t0 = perf_counter()
    rq = resolve_pencil(quartic_pencil())
    rc = resolve_pencil(cubic_pencil())
    dt = perf_counter() - t0
    got = (rq.blowup_counts(), rc.blowup_counts())
    want = ({"(1:0:0)": 4, "(0:0:1)": 12}, {"(1:0:0)": 2, "(0:1:0)": 7})
    ok = got == want and dt < 10.0
    return CheckResult(name, anchor, ok,
                       f"quartic {got[0]}, cubic {got[1]}, {dt:.2f}s")


# --- 2 -----------------------------------------------------------------


def check_fibre_divisors() -> CheckResult:
    name, anchor = "special fibre divisors", "fibre-divisors"
    rq, rc = _report("quartic"), _report("cubic")
    cases = [
        (rq, (1, 0), [("W", 1), ("E1", 2), ("E2", 2), ("E3", 1)]),
        (rq, (0, 1), [("X", 3), ("Z", 1), ("F1", 2), ("F2", 4), ("F3", 6),
                      ("F4", 8), ("F5", 7), ("F6", 6), ("F7", 5), ("F8", 4),
                      ("F9", 3), ("F10", 2), ("F11", 1)]),
        (rc, (1, 0), [("W", 1), ("E1", 1)]),
        (rc, (0, 1), [("X", 2), ("Z", 1), ("F1", 2), ("F2", 3), ("F3", 4),
                      ("F4", 3), ("F5", 2), ("F6", 1)]),
    ]
    for rep, member, want in cases:
        got = rep.fibre_divisor(member)
        if got != want:
            return _fail(name, anchor, f"member {member}: {got}")
    for rep in (rq, rc):
        if rep.fibre_divisor((1, 1)) != [("C(1:1)", 1)]:
            return _fail(name, anchor, "generic member is not integral")
        if rep.generic_self_int() != 0:
            return _fail(name, anchor, "generic member self-intersection")
    return CheckResult(name, anchor, True, "4 special + 2 generic members")


# --- 3 -----------------------------------------------------------------


def check_intersection_numbers() -> CheckResult:
    name, anchor = "intersection numbers", "intersection-numbers"
    rq, rc = _report("quartic"), _report("cubic")
    mat = rq.intersection_matrix(["W", "E1", "E2", "E3"])
    if mat != [[-6, 2, 1, 0], [2, -2, 1, 0], [1, 1, -2, 1], [0, 0, 1, -2]]:
        return _fail(name, anchor, f"matrix {mat}")
    singles = [
        (rq, "E4", "E4", -1), (rq, "F12", "F12", -1),
        (rq, "X", "X", -3), (rq, "Z", "Z", -3), (rq, "X", "Z", 1),
        (rq, "X", "F4", 1), (rq, "W", "F12", 1), (rq, "Z", "E4", 1),
        (rc, "W", "E1", 2), (rc, "E2", "E2", -1), (rc, "F7", "F7", -1),
        (rc, "X", "F3", 1),
    ]
    for rep, a, b, want in singles:
        got = rep.intersection(a, b)
        if got != want:
            return _fail(name, anchor, f"{a}.{b} = {got}, expected {want}")
    for i in range(1, 11):
        if rq.intersection(f"F{i}", f"F{i + 1}") != 1:
            return _fail(name, anchor, f"F{i} chain break")
    for rep in (rq, rc):
        for member in ((1, 0), (0, 1)):
            div = rep.fibre_divisor(member)
            for cid, _ in div:
                s = sum(m * rep.intersection(cid, did) for did, m in div)
                if s != 0:
                    return _fail(name, anchor,
                                 f"fibre {member} . {cid} = {s}")
    return CheckResult(name, anchor, True,
                       "matrix, chains and fibre orthogonality")


# --- 4 -----------------------------------------------------------------


def check_dynkin_labels() -> CheckResult:
    name, anchor = "Dynkin labels", "dynkin-labels"
    rq, rc = _report("quartic"), _report("cubic")
    got = (
        dynkin_type(rq, ["E1", "E2", "E3"]),
        dynkin_type(rq, [f"F{i}" for i in range(1, 12)]),
        dynkin_type(rc, ["W", "E1"]),
        dynkin_type(rc, [c for c, _ in rc.fibre_divisor((0, 1))]),
        dynkin_type(rq, ["W", "E1", "E2", "E3"]),
    )
    want = ("A3", "A11", "A1~*", "E7~", "Unrecognized")
    return CheckResult(name, anchor, got == want, f"{got}")


# --- 5 -----------------------------------------------------------------


def check_covering() -> CheckResult:
    name, anchor = "quartic-to-cubic covering", "inseparable-covering"
    try:
        out = covering_check()
    except IdentityFailed as e:
        return _fail(name, anchor, str(e))
    if set(out) != {"member-0", "member-1", "W->W'", "Z->Z'", "X"}:
        return _fail(name, anchor, f"incomplete: {sorted(out)}")
    try:
        covering_check(use_identity=True)
        return _fail(name, anchor, "identity control did not fail")
    except IdentityFailed:
        pass
    return CheckResult(name, anchor, True,
                       "pencil pullback checked; identity control rejected")


# --- 6 -----------------------------------------------------------------


def check_iso_witnesses(seed: int = 0, n: int = 100) -> CheckResult:
    name, anchor = "isomorphism witnesses", "iso-witnesses"
    t0 = perf_counter()
    for tag in (FamilyTag.III, FamilyTag.IV, FamilyTag.V):
        rng = rng_for(seed, f"iso-{tag}")
        for i in range(n):
            gf = GF.get(1 if i % 2 == 0 else 2)
            src = build_family(random_params(rng, tag, gf))
            w = random_witness(rng, tag, gf)
            tgt = apply_iso(src, w)
            s = verify_iso(src, tgt, w)
            if not s:
                return _fail(name, anchor, f"{tag} zero scalar at #{i}")
            build_family(tgt.params)  # target satisfies the row constraints
            if tag is not FamilyTag.IV:
                if invariant(src) != invariant(tgt):
                    return _fail(name, anchor,
                                 f"{tag} invariant drifted at #{i}")
            ident = apply_iso(src, identity_witness(tag, gf))
            if ident.params != src.params:
                return _fail(name, anchor, f"{tag} identity moved at #{i}")
    dt = perf_counter() - t0
    return CheckResult(name, anchor, dt < 60.0,
                       f"{3 * n} witnesses verified in {dt:.1f}s")


# --- 7 -----------------------------------------------------------------


def check_degenerate_fibres() -> CheckResult:
    name, anchor = "degenerate fibres", "degenerate-fibres"
    for m in (1, 2):
        spec = FieldSpec(m)
        q = 2 ** m
        for a in range(q):
            for c in range(q):
                for d in range(q):
                    cls = classify_fibre(
                        specialize_fibre("pi3", (a, 0, c, d), spec))
                    if cls.kind != "ConicPlusDoubleLine":
                        return _fail(name, anchor,
                                     f"pi3 b=0 {(a, c, d)}/F{q}: {cls.kind}")
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    cls = classify_fibre(
                        specialize_fibre("pi5", (a, b, c, 0), spec))
                    if cls.kind != "DoubleConic":
                        return _fail(name, anchor,
                                     f"pi5 d=0 {(a, b, c)}/F{q}: {cls.kind}")
        for a in range(q):
            for c in range(q):
                cls = classify_fibre(
                    specialize_fibre("pi4", (a, 0, c), spec))
                if cls.kind != "IntegralQuartic" or cls.multiplicity != 3:
                    return _fail(name, anchor,
                                 f"pi4 b=0 {(a, c)}/F{q}: {cls.kind}")
        cls = classify_fibre(specialize_fibre("pencil-quartic", (0, 1), spec))
        if cls.kind != "LinePlusTripleLine":
            return _fail(name, anchor, f"pencil (0:1)/F{q}: {cls.kind}")
    return CheckResult(name, anchor, True,
                       "pi3 b=0, pi5 d=0, pi4 b=0 and the (0:1) member "
                       "over F2 and F4")


# --- 8 -----------------------------------------------------------------


def _want_mult(gf, fibration, point) -> int:
    """The singular multiplicity of an integral pi3 or pi5 fibre: 3 where
    the family invariant (b c^3, resp. a b^2 d^2) is 1, otherwise 2."""
    a, b, c, d = point
    if fibration == "pi3":
        inv = gf.mul(b, gf.pow(c, 3))
    else:
        inv = gf.mul(gf.mul(a, gf.pow(b, 2)), gf.pow(d, 2))
    return 3 if inv == 1 else 2


def _integral_fibre_cases(seed):
    # exhaustive over F4, seeded sample over F16
    spec4 = FieldSpec(2)
    gf4 = spec4.field()
    for point in product(range(4), range(1, 4), range(1, 4), range(4)):
        yield "pi3", point, spec4, _want_mult(gf4, "pi3", point)
    for point in product(range(4), range(1, 4), range(4)):
        yield "pi4", point, spec4, 2
    for point in product(range(4), range(4), range(4), range(1, 4)):
        yield "pi5", point, spec4, _want_mult(gf4, "pi5", point)
    spec16 = FieldSpec(4)
    gf = spec16.field()
    rng = rng_for(seed, "integral-f16")
    for _ in range(25):
        a = rng.randrange(16)
        if rng.randrange(2):
            fibration = "pi3"
            b, c, d = (rng.randrange(1, 16), rng.randrange(1, 16),
                       rng.randrange(16))
        else:
            fibration = "pi5"
            b, c, d = (rng.randrange(16), rng.randrange(16),
                       rng.randrange(1, 16))
        point = (a, b, c, d)
        yield fibration, point, spec16, _want_mult(gf, fibration, point)
    for _ in range(10):
        a, c = rng.randrange(16), rng.randrange(16)
        b = rng.randrange(1, 16)
        yield "pi4", (a, b, c), spec16, 2


_TANGENT_KIND = {"pi3": "Bitangent22", "pi4": "Hyperflex4",
                 "pi5": "Bitangent22"}


def check_integral_fibres(seed: int = 0) -> CheckResult:
    name, anchor = "integral fibre geometry", "integral-fibres"
    t0 = perf_counter()
    count = skipped = 0
    for fibration, point, spec, want_mult in _integral_fibre_cases(seed):
        label = f"{fibration} {point} over F{2 ** spec.m}"
        curve = specialize_fibre(fibration, point, spec)
        cls = classify_fibre(curve)
        if cls.kind != "IntegralQuartic":
            skipped += 1
            continue
        count += 1
        if not is_strange(curve.form):
            return _fail(name, anchor, f"{label}: not strange")
        locus = singular_locus(curve)
        if len(locus) != 1 or locus[0][1] != 1:
            return _fail(name, anchor, f"{label}: locus {locus}")
        sing = locus[0][0]
        # the closed form against the brute-force scan of P^2(GF(q))
        if kernels.scan_singular_points(curve.form, curve.gf) != [
                tuple(v.v for v in sing)]:
            return _fail(name, anchor, f"{label}: locus {locus} off the scan")
        pred = predicted_singular_point(fibration, point, spec)
        if tuple(v.v for v in sing) != tuple(v.v for v in pred):
            return _fail(name, anchor,
                         f"{label}: singular at {sing}, predicted {pred}")
        if cls.multiplicity != want_mult:
            return _fail(name, anchor,
                         f"{label}: multiplicity {cls.multiplicity}"
                         f" != {want_mult}")
        # the chart multiplicity against the head of delta's sequence
        chart_mult = multiplicity_at(curve, sing)
        if chart_mult != cls.multiplicity:
            return _fail(name, anchor, f"{label}: chart multiplicity"
                         f" {chart_mult} != {cls.multiplicity}")
        if cls.delta != 3:
            return _fail(name, anchor, f"{label}: delta {cls.delta}")
        if cls.tangent is None:
            return _fail(name, anchor, f"{label}: no rational smooth point")
        # the classification reads the tangent off the normal form; the
        # restriction to the tangent line at three points checks it
        want = _TANGENT_KIND[fibration]
        for tangent in [cls.tangent] + [tangent_contact_type(curve, pt)
                                        for pt in smooth_points(curve, 3)]:
            if tangent.kind != want:
                return _fail(name, anchor, f"{label}: tangent {tangent}")
    dt = perf_counter() - t0
    return CheckResult(name, anchor, True,
                       f"{count} integral fibres ({skipped} reducible"
                       f" skipped) in {dt:.1f}s")


# --- 9 -----------------------------------------------------------------


def check_delta_oracles() -> CheckResult:
    name, anchor = "delta oracles", "delta-oracles"
    spec = FieldSpec(1)
    gf = spec.field()
    quartic = PlaneCurveFq(raw_form(gf, [((0, 4, 0), 1), ((1, 0, 3), 1)]),
                           spec)
    cubic = PlaneCurveFq(raw_form(gf, [((1, 2, 0), 1), ((0, 0, 3), 1)]),
                         spec)
    d4, seq4 = delta_invariant(quartic, (1, 0, 0))
    d3, seq3 = delta_invariant(cubic, (1, 0, 0))
    ok = (d4, d3) == (3, 1)
    return CheckResult(name, anchor, ok,
                       f"y^4+z^3 -> {d4} {seq4}; y^2+z^3 -> {d3} {seq3}")


# --- 10 ----------------------------------------------------------------


def check_square_roots(seed: int = 0) -> CheckResult:
    name, anchor = "square roots in K", "square-roots"
    t0 = perf_counter()
    gf = GF.get(1)
    polys = [UPoly.from_coeffs(gf, [(k >> i) & 1 for i in range(4)])
             for k in range(16)]
    grid = [ScalarK(n, d) for n in polys for d in polys[1:] if not d.is_zero()]
    squares = {s.square() for s in grid}
    for s in grid:
        if s.is_square() != (s in squares):
            return _fail(name, anchor, f"is_square({s}) disagrees with scan")
    for s in grid:
        if s.is_square():
            r = s.sqrt()
            if r.square() != s:
                return _fail(name, anchor, f"sqrt({s}) = {r} does not square")
    rng = rng_for(seed, "square-forms")
    for i in range(500):
        gfm = GF.get(1 if i % 2 == 0 else 2)
        v = random_scalar(rng, gfm, max_deg=3)
        s = v.square()
        if not s.is_square() or s.sqrt() != v:
            return _fail(name, anchor, f"reconstruction failed for {v}")
    dt = perf_counter() - t0
    return CheckResult(name, anchor, dt < 30.0,
                       f"{len(grid)} grid values + 500 reconstructions "
                       f"in {dt:.1f}s")


# --- 11 ----------------------------------------------------------------


def check_tower_roundtrip(seed: int = 0) -> CheckResult:
    name, anchor = "tower model dictionary", "tower-roundtrip"
    rng = rng_for(seed, "tower-roundtrip")
    for i in range(50):
        gf = GF.get(1 if i % 2 == 0 else 2)
        p = make_tower(TowerKind.A, gf,
                       c0=random_scalar(rng, gf, 2),
                       c1=random_scalar(rng, gf, 2, nonzero=True),
                       A2=random_nonsquare(rng, gf),
                       B1=random_scalar(rng, gf, 2, nonzero=True))
        params = to_quartic_model(p)
        if invert_model_map(params) != p:
            return _fail(name, anchor, f"round trip moved {p.as_dict()}")
    for kind in (TowerKind.A, TowerKind.B, TowerKind.C):
        rng = rng_for(seed, f"breve-{kind}")
        for i in range(50):
            gf = GF.get(1 if i % 2 == 0 else 2)
            p = random_presentation(rng, kind, gf, require_quartic=True)
            if not verify_breve_relation(p):
                return _fail(name, anchor,
                             f"breve relation failed: {p.as_dict()}")
    rng = rng_for(seed, "tower-hyp")
    kinds = list(TowerKind)
    for i in range(50):
        gf = GF.get(1 if i % 2 == 0 else 2)
        p = random_presentation(rng, kinds[i % 4], gf)
        try:
            to_quartic_model(p)
            got = True
        except Hyperelliptic:
            got = False
        if got != is_nonhyperelliptic(p):
            return _fail(name, anchor,
                         f"model existence mismatch: {p.as_dict()}")
    return CheckResult(name, anchor, True,
                       "50 round trips, 150 eliminations, 50 model gates")


CHECKS = (
    check_blowup_counts,
    check_fibre_divisors,
    check_intersection_numbers,
    check_dynkin_labels,
    check_covering,
    check_iso_witnesses,
    check_degenerate_fibres,
    check_integral_fibres,
    check_delta_oracles,
    check_square_roots,
    check_tower_roundtrip,
)

_SEEDED = {check_iso_witnesses, check_integral_fibres,
           check_square_roots, check_tower_roundtrip}


def run_all(seed: int = 0) -> list:
    out = []
    for fn in CHECKS:
        out.append(fn(seed) if fn in _SEEDED else fn())
    return out
