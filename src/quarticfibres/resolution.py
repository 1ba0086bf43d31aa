"""Resolution of the base locus of a pencil of plane curves over GF(2^m).

``resolve_pencil`` repeatedly blows up base points of the transformed
pencil.  In each affine chart both members are pulled back and divided
by the exceptional coordinate to the *minimum* vanishing order mu (the
base multiplicity); the residual orders then give the multiplicity of
the new exceptional curve in the two special members.  A curve with
both residues zero is horizontal.

Intersection numbers come from proximity bookkeeping rather than from
chart patching.  Writing q -> p when the centre of blowup q lies on the
strict transform of the exceptional curve E_p, and m_p(C) for the
multiplicity of a plane curve C at the centre p:

* E_p . E_p = -1 - #{q : q -> p}
* E_p . E_q = (q -> p) + (p -> q) - #{r : r -> p and r -> q}
* C~ . E_p = m_p(C) - sum of m_r(C) over r -> p
* C~ . D~  = deg C . deg D - sum over centres of m_p(C) m_p(D)

which are the standard pullback formulas on the blown-up surface.  The
engine records prox sets and multiplicities as it goes, so the final
report can answer arbitrary intersection queries.

Completeness is certified arithmetically: the base multiplicities must
satisfy sum mu^2 = deg f0 * deg f1.  A shortfall means a base point was
missed — necessarily one with irrational coordinates — and raises
`NonRationalCenter`.

Charts, line peeling and the root finder on exceptional curves come from
``plane``; the base points are the common zeros of two ``kernels`` scans.
"""

from collections import deque
from dataclasses import dataclass, field

from . import kernels
from .errors import (ConstraintViolation, IdentityFailed, NonRationalCenter,
                     NotHomogeneous, UnknownCurve, ZeroForm)
from .finitefield import GF, GFElem, FieldSpec
from .mpoly import MPoly, FORM_VARS
from .plane import (chart_at, line_form, mult_origin, peel_lines, roots,
                    shift_out)
from .upoly import UPoly

_SERIES = "EFGHIJK"
_MAX_NODES = 64


# ----- pencils -------------------------------------------------------------


@dataclass(frozen=True)
class PencilSpec:
    """Two coprime homogeneous forms of equal degree spanning a pencil."""

    f0: MPoly
    f1: MPoly
    field: FieldSpec

    def __post_init__(self):
        for f in (self.f0, self.f1):
            if f.is_zero():
                raise ZeroForm("a pencil member is the zero form")
            if not f.is_homogeneous():
                raise NotHomogeneous("pencil members must be homogeneous")
        if self.f0.total_degree() != self.f1.total_degree():
            raise ConstraintViolation("pencil members must share a degree")

    @property
    def gf(self) -> GF:
        return self.field.field()

    def degree(self) -> int:
        return self.f0.total_degree()


def _f2_form(items) -> MPoly:
    gf = GF.get(1)
    return MPoly.from_terms(FORM_VARS, gf,
                            [(e, gf.one_elem()) for e in items])


def quartic_pencil() -> PencilSpec:
    """t0 (y^4 + x z^3) + t1 x^3 z."""
    return PencilSpec(_f2_form([(0, 4, 0), (1, 0, 3)]),
                      _f2_form([(3, 0, 1)]), FieldSpec(1))


def cubic_pencil() -> PencilSpec:
    """t0 (x y^2 + z^3) + t1 x^2 z, the plane cubic shadow of the
    quartic pencil under the degree-two covering."""
    return PencilSpec(_f2_form([(1, 2, 0), (0, 0, 3)]),
                      _f2_form([(2, 0, 1)]), FieldSpec(1))


PENCILS = {"quartic": quartic_pencil, "cubic": cubic_pencil}


# ----- report structures ----------------------------------------------------


@dataclass(frozen=True)
class BlowupNode:
    nid: str
    root: str               # base point the node sits above
    parent: str | None      # most recent exceptional curve through the centre
    chart: str              # path of chart letters from the base point
    mu: int                 # base multiplicity at the centre
    m0: int                 # adjusted vanishing order of the f0 transform
    m1: int
    prox: tuple             # exceptional curves whose strict transform
                            # passes through the centre
    tracked: dict           # named-curve multiplicities at the centre


@dataclass(frozen=True)
class ExcCurve:
    cid: str
    self_int: int
    fib0: int               # multiplicity in the (1:0) fibre divisor
    fib1: int

    @property
    def horizontal(self) -> bool:
        return self.fib0 == 0 and self.fib1 == 0


@dataclass(frozen=True)
class StrictCurve:
    cid: str
    form: MPoly
    degree: int
    self_int: int
    fib0: int               # factor multiplicity inside f0 (0 if absent)
    fib1: int
    mults: dict             # centre nid -> multiplicity


@dataclass
class ResolutionReport:
    pencil: PencilSpec
    base_points: list       # (triple, series letter), in processing order
    nodes: list = field(default_factory=list)
    exc: dict = field(default_factory=dict)
    strict: dict = field(default_factory=dict)

    # -- queries ------------------------------------------------------

    def blowup_counts(self) -> dict:
        counts = {}
        for pt, series in self.base_points:
            counts["(" + ":".join(str(v) for v in pt) + ")"] = sum(
                1 for n in self.nodes if n.root == series)
        return counts

    def curve_ids(self) -> list:
        return list(self.strict) + [n.nid for n in self.nodes]

    def generic_self_int(self) -> int:
        d = self.pencil.degree()
        return d * d - sum(n.mu * n.mu for n in self.nodes)

    def _node(self, cid: str) -> BlowupNode:
        for n in self.nodes:
            if n.nid == cid:
                return n
        raise UnknownCurve(f"no curve named {cid!r} in this resolution")

    def intersection(self, a: str, b: str) -> int:
        sa, sb = a in self.strict, b in self.strict
        if not sa and not sb:
            na, nb = self._node(a), self._node(b)
            if a == b:
                return -1 - sum(1 for q in self.nodes if a in q.prox)
            shared = sum(1 for r in self.nodes
                         if a in r.prox and b in r.prox)
            return ((1 if a in nb.prox else 0) + (1 if b in na.prox else 0)
                    - shared)
        if sa and sb:
            ca, cb = self.strict[a], self.strict[b]
            if a == b:
                return ca.self_int
            off = ca.degree * cb.degree
            for n in self.nodes:
                off -= ca.mults.get(n.nid, 0) * cb.mults.get(n.nid, 0)
            return off
        if sb:
            a, b = b, a
        c, n = self.strict[a], self._node(b)
        return c.mults.get(b, 0) - sum(
            c.mults.get(r.nid, 0) for r in self.nodes if b in r.prox)

    def intersection_matrix(self, ids) -> list:
        return [[self.intersection(a, b) for b in ids] for a in ids]

    def self_intersection(self, cid: str) -> int:
        if cid in self.strict:
            return self.strict[cid].self_int
        return self.intersection(cid, cid)

    def fibre_divisor(self, member) -> list:
        """Components with multiplicities of a member's total transform
        minus the base divisor.  (1:0) and (0:1) are the special fibres;
        any other member is integral of multiplicity one."""
        t0, t1 = member
        t0z = (t0.v if isinstance(t0, GFElem) else t0) == 0
        t1z = (t1.v if isinstance(t1, GFElem) else t1) == 0
        if t0z and t1z:
            raise ConstraintViolation("(0:0) is not a pencil member")
        if not t0z and not t1z:
            return [("C(%s:%s)" % (t0, t1), 1)]
        pick = (lambda c: c.fib1) if t0z else (lambda c: c.fib0)
        out = [(cid, pick(c)) for cid, c in self.strict.items() if pick(c)]
        out += [(n.nid, pick(self.exc[n.nid])) for n in self.nodes
                if pick(self.exc[n.nid])]
        return out


# ----- plane-side helpers ---------------------------------------------------


def base_points(pencil: PencilSpec) -> list:
    """Rational common zeros of the two members, canonically ordered."""
    gf = pencil.gf
    return sorted(set(kernels.scan_zero_points(pencil.f0, gf))
                  & set(kernels.scan_zero_points(pencil.f1, gf)))


def _named_factors(pencil: PencilSpec):
    """Assign stable ids to the irreducible components of both members.

    The f0 side is named W, W2, ...; the f1 side X, Z, L3, ... with X
    the highest-multiplicity linear factor.
    """
    gf = pencil.gf
    named = []          # (cid, form, fib0, fib1)
    lines0, rem0, _ = peel_lines(pencil.f0, gf)
    parts0 = []
    if rem0.total_degree() > 0:
        parts0.append((rem0, 1))
    parts0 += [(line_form(gf, t), m) for t, m in sorted(lines0.items())]
    for i, (form, mult) in enumerate(parts0):
        named.append(("W" if i == 0 else f"W{i + 1}", form, mult, 0))
    lines1, rem1, _ = peel_lines(pencil.f1, gf)
    parts1 = [(line_form(gf, t), m) for t, m in
              sorted(lines1.items(), key=lambda kv: (-kv[1], kv[0]))]
    if rem1.total_degree() > 0:
        parts1.append((rem1, 1))
    names1 = ["X", "Z"] + [f"L{i}" for i in range(3, 10)]
    for name, (form, mult) in zip(names1, parts1):
        named.append((name, form, 0, mult))
    for cid, form, _, _ in named:
        for did, other, _, _ in named:
            if cid != did and form == other:
                raise ConstraintViolation(
                    "pencil members share a component; the base locus "
                    "is not finite")
    return named


def _vanishes(f: MPoly) -> bool:
    return not f.coeff(tuple([0] * len(f.vars)))


def _axis_poly(f: MPoly, fixed: int, run: int, gf) -> UPoly:
    """f restricted to {var_fixed = 0}, read as a univariate polynomial
    in var_run."""
    cs = {e[run]: c.v for e, c in f.terms.items() if e[fixed] == 0}
    return UPoly.from_coeffs(gf, [cs.get(k, 0)
                                  for k in range(max(cs, default=-1) + 1)])


def _axis_base_points(p0: UPoly, p1: UPoly):
    """Common rational zeros of two univariates, with a completeness
    check: any residual common zero would be irrational."""
    if not p0 and not p1:  # pragma: no cover - min-order division forbids it
        raise ConstraintViolation("pencil transforms vanish on the "
                                  "exceptional curve simultaneously")
    found, rest = roots(p0.gcd(p1))
    if rest.deg() > 0:
        raise NonRationalCenter(
            "the transformed pencil has a base point with irrational "
            "coordinates")
    return [alpha for alpha, _ in found]


# ----- the engine -----------------------------------------------------------


def resolve_pencil(pencil: PencilSpec) -> ResolutionReport:
    """Blow up base points until the transformed pencil is base-free."""
    gf = pencil.gf
    pts = base_points(pencil)
    ordered = sorted(pts, reverse=True)
    named = _named_factors(pencil)
    report = ResolutionReport(
        pencil, [(pt, _SERIES[i]) for i, pt in enumerate(ordered)])
    strict_mults = {cid: {} for cid, _, _, _ in named}

    for (pt, series) in report.base_points:
        point = tuple(GFElem(gf, v) for v in pt)
        g0, pivot = chart_at(pencil.f0, point)
        g1, _ = chart_at(pencil.f1, point)
        iu, iv = [i for i in range(3) if i != pivot]
        nu, nv = FORM_VARS[iu], FORM_VARS[iv]
        tracked = {}
        for cid, form, _, _ in named:
            local, _ = chart_at(form, point)
            if _vanishes(local):
                tracked[cid] = local
        queue = deque([{
            "g0": g0, "g1": g1, "exc": {}, "tracked": tracked,
            "parent": None, "chart": "-",
        }])
        count = 0
        while queue:
            item = queue.popleft()
            count += 1
            if len(report.nodes) >= _MAX_NODES:
                raise ConstraintViolation(
                    "blowup limit exceeded; the members are unlikely "
                    "to be coprime")
            nid = f"{series}{count}"
            g0, g1 = item["g0"], item["g1"]
            m0, m1 = mult_origin(g0), mult_origin(g1)
            mu = min(m0, m1)
            prox = tuple(sorted(item["exc"]))
            tmults = {cid: mult_origin(h) for cid, h in item["tracked"].items()}
            for cid, m in tmults.items():
                strict_mults[cid][nid] = m
            report.nodes.append(BlowupNode(
                nid=nid, root=series, parent=item["parent"],
                chart=item["chart"], mu=mu, m0=m0, m1=m1, prox=prox,
                tracked=dict(tmults)))

            u_var = MPoly.var(FORM_VARS, gf, nu)
            v_var = MPoly.var(FORM_VARS, gf, nv)
            for chart, sub, eidx, eline in (
                    ("A", {nv: u_var * v_var}, iu, u_var),
                    ("B", {nu: u_var * v_var}, iv, v_var)):
                h0 = shift_out(g0.substitute(sub), eidx, mu)
                h1 = shift_out(g1.substitute(sub), eidx, mu)
                exc2 = {}
                for eid, h in item["exc"].items():
                    exc2[eid] = shift_out(h.substitute(sub), eidx, 1)
                exc2[nid] = eline
                tr2 = {}
                for cid, h in item["tracked"].items():
                    tr2[cid] = shift_out(h.substitute(sub), eidx,
                                         tmults[cid])
                if chart == "A":
                    run = iv
                    centres = _axis_base_points(_axis_poly(h0, iu, iv, gf),
                                                _axis_poly(h1, iu, iv, gf))
                else:
                    run = iu
                    # chart B only adds the direction at infinity of A
                    centres = [0] if (_vanishes(h0) and _vanishes(h1)) else []
                rn = FORM_VARS[run]
                for beta in centres:
                    if chart == "B" and beta != 0:  # pragma: no cover
                        continue
                    if beta:
                        t = {rn: MPoly.var(FORM_VARS, gf, rn)
                             + MPoly.const(FORM_VARS, gf, GFElem(gf, beta))}
                        tg0, tg1 = h0.substitute(t), h1.substitute(t)
                        texc = {k: h.substitute(t) for k, h in exc2.items()}
                        ttr = {k: h.substitute(t) for k, h in tr2.items()}
                    else:
                        tg0, tg1, texc, ttr = h0, h1, exc2, tr2
                    queue.append({
                        "g0": tg0, "g1": tg1,
                        "exc": {k: h for k, h in texc.items()
                                if _vanishes(h)},
                        "tracked": {k: h for k, h in ttr.items()
                                    if _vanishes(h)},
                        "parent": nid,
                        "chart": item["chart"].rstrip("-") + chart
                                 + (f"[{beta}]" if beta else ""),
                    })

    d = pencil.degree()
    if sum(n.mu * n.mu for n in report.nodes) != d * d:
        raise NonRationalCenter(
            "base multiplicities do not account for the full "
            "intersection cycle; an irrational base point remains")

    for n in report.nodes:
        later_on = sum(1 for q in report.nodes if n.nid in q.prox)
        report.exc[n.nid] = ExcCurve(
            cid=n.nid, self_int=-1 - later_on,
            fib0=n.m0 - n.mu, fib1=n.m1 - n.mu)
    for cid, form, fib0, fib1 in named:
        deg = form.total_degree()
        mults = strict_mults[cid]
        report.strict[cid] = StrictCurve(
            cid=cid, form=form, degree=deg,
            self_int=deg * deg - sum(m * m for m in mults.values()),
            fib0=fib0, fib1=fib1, mults=mults)
    return report


# ----- Dynkin matching ------------------------------------------------------


def dynkin_type(report: ResolutionReport, ids) -> str:
    """Match a configuration of curves against A_n chains, the twisted
    two-curve affine diagram, and the printed affine E7 tree."""
    ids = list(ids)
    if not ids:
        return "Unrecognized"
    if any(report.self_intersection(c) != -2 for c in ids):
        return "Unrecognized"
    n = len(ids)
    weights = {}
    adj = {c: [] for c in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            w = report.intersection(a, b)
            if w:
                weights[(a, b)] = w
                adj[a].append(b)
                adj[b].append(a)
    if n == 1:
        return "A1"
    if n == 2 and list(weights.values()) == [2]:
        return "A1~*"
    if any(w != 1 for w in weights.values()):
        return "Unrecognized"
    if len(weights) != n - 1 or not _connected(adj, ids):
        return "Unrecognized"       # not a tree
    degs = sorted(len(v) for v in adj.values())
    if degs == [1, 1] + [2] * (n - 2):
        return f"A{n}"
    if n == 8 and degs == [1, 1, 1] + [2] * 4 + [3]:
        hub = next(c for c in ids if len(adj[c]) == 3)
        arms = sorted(_arm_length(adj, hub, first) for first in adj[hub])
        if arms == [1, 3, 3]:
            return "E7~"
    return "Unrecognized"


def _connected(adj, ids) -> bool:
    seen = {ids[0]}
    work = [ids[0]]
    while work:
        for b in adj[work.pop()]:
            if b not in seen:
                seen.add(b)
                work.append(b)
    return len(seen) == len(ids)


def _arm_length(adj, hub, first) -> int:
    length = 1
    prev, cur = hub, first
    while True:
        nxt = [c for c in adj[cur] if c != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1


# ----- the inseparable covering --------------------------------------------


def _pair_sub(f: MPoly, comps, gf) -> MPoly:
    return f.substitute(dict(zip(FORM_VARS, comps)))


def covering_check(use_identity: bool = False) -> dict:
    """Verify that the plane map (x:y:z) -> (x^2 : y^2 : x z) carries the
    quartic pencil onto the cubic pencil, twisting by x^2, and that the
    named components map as expected (with inseparable degree two where
    a square shows up).  `use_identity` swaps in the identity map as a
    negative control, which must fail."""
    gf = GF.get(1)
    one = gf.one_elem()
    qp, cp = quartic_pencil(), cubic_pencil()
    x = MPoly.var(FORM_VARS, gf, "x")
    y = MPoly.var(FORM_VARS, gf, "y")
    z = MPoly.var(FORM_VARS, gf, "z")
    psi = (x, y, z) if use_identity else (x * x, y * y, x * z)
    x2 = x * x
    out = {}
    for name, up, down in (("member-0", cp.f0, qp.f0),
                           ("member-1", cp.f1, qp.f1)):
        lhs = _pair_sub(up, psi, gf)
        rhs = x2 * down
        if lhs != rhs:
            raise IdentityFailed(
                f"pullback of the cubic {name} is not x^2 times the "
                f"quartic member", residual=str(lhs + rhs))
        out[name] = f"{up} o psi = x^2 * ({down})"

    # parametrized component checks; (s:u) is written (x:y) below
    def par(exps):
        return tuple(
            MPoly.from_terms(FORM_VARS, gf, [((i, j, 0), one)])
            for i, j in exps)

    par_w = par([(0, 4), (3, 1), (4, 0)])       # (u^4 : u s^3 : s^4)
    par_wp = par([(0, 3), (3, 0), (2, 1)])      # (u^3 : s^3 : u s^2)
    par_line = par([(1, 0), (0, 1)]) + (MPoly.zero(FORM_VARS, gf),)
    for name, curve, p in (("W", qp.f0, par_w), ("W'", cp.f0, par_wp),
                           ("Z", qp.f1.divide(x.pow(3)), par_line),
                           ("Z'", cp.f1.divide(x.pow(2)), par_line)):
        if not _pair_sub(curve, p, gf).is_zero():
            raise IdentityFailed(f"parametrization of {name} misses "
                                 f"the curve")  # pragma: no cover
    frob = {"x": x * x, "y": y * y}
    for name, p_up, p_down, extra in (
            ("W->W'", par_w, par_wp, (0, 2)),
            ("Z->Z'", par_line, par_line, (0, 0))):
        mono = MPoly.from_terms(FORM_VARS, gf, [(extra + (0,), one)])
        for i in range(3):
            lhs = _pair_sub(psi[i], p_up, gf)
            rhs = mono * p_down[i].substitute(frob)
            if lhs != rhs:
                raise IdentityFailed(
                    f"{name} is not the square composed with the "
                    f"downstairs parametrization", residual=str(lhs + rhs))
        out[name] = "inseparable of degree 2 (factors through Frobenius)"
    out["X"] = "the line x = 0 contracts to (0:1:0) at the plane level"
    return out
