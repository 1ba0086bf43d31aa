"""Line peeling against each line's multiplicity by repeated division,
the closed-form smooth-conic test against a plane scan, charts and
blow-ups against polynomial substitution, and univariate roots against
evaluation at every element."""

import random
from functools import reduce
from itertools import product
from operator import xor

import pytest

from quarticfibres import kernels
from quarticfibres.errors import ConstraintViolation
from quarticfibres.fibres import (PlaneCurveFq, classify_fibre,
                                  delta_invariant, specialize_fibre)
from quarticfibres.finitefield import GF, FieldSpec, GFElem
from quarticfibres.mpoly import FORM_VARS, MPoly
from quarticfibres.parser import parse_form
from quarticfibres.plane import (blow_up, chart_at, embed_form,
                                 is_smooth_conic, line_form, peel_lines,
                                 raw_terms, roots)
from quarticfibres.resolution import PENCILS, resolve_pencil
from quarticfibres.upoly import UPoly

random.seed(30931)


def _line_multiplicities(form, gf):
    """The reference: the multiplicity of each line of P^2(gf) in the
    form, each by repeated division of the form itself."""
    found = {}
    for t in kernels.plane_points(gf.q):
        line, rem, k = line_form(gf, t), form, 0
        while rem.total_degree() and (q := rem.divide(line)) is not None:
            rem, k = q, k + 1
        if k:
            found[t] = k
    return found


def _check(form, gf):
    """Peel every line of P^2(gf), taken in a seeded order: each found to
    its multiplicity, and the cofactor times the lines is the form."""
    lines = list(kernels.plane_points(gf.q))
    random.Random(str(form)).shuffle(lines)
    factors, rem = peel_lines(form, gf, lines)
    assert factors == _line_multiplicities(form, gf)
    assert _prod(gf, rem, *(line_form(gf, t).pow(k)
                            for t, k in factors.items())) == form
    return factors, rem


def _prod(gf, *factors):
    out = MPoly.const(FORM_VARS, gf, gf.one_elem())
    for f in factors:
        out = out * f
    return out


def _random_form(gf, deg, rng=random):
    monos = [(i, j, deg - i - j) for i in range(deg + 1)
             for j in range(deg + 1 - i)]
    while True:
        f = MPoly.from_terms(FORM_VARS, gf, [
            (e, GFElem(gf, rng.randrange(gf.q)))
            for e in monos if rng.random() < 0.6])
        if not f.is_zero():
            return f


def _random_case(gf, rng):
    """A product of random lines with multiplicities 1..4 and a random
    cofactor, of total degree 4."""
    pts = kernels.plane_points(gf.q)
    factors, deg = [], 0
    while deg < 4 and rng.random() < 0.75:
        mult = rng.randint(1, 4 - deg)
        factors += [line_form(gf, rng.choice(pts))] * mult
        deg += mult
    if deg < 4:
        factors.append(_random_form(gf, 4 - deg, rng))
    return _prod(gf, *factors)


def _collinear_cases(gf):
    """Quartics whose zero set is exactly the q+1 points of the line x = 0:
    x^2 times a binary quadratic with no rational zero but (0:0:1), and
    over GF(2) one that vanishes there but does not contain the line."""
    tau = gf.artin_schreier().index(None)       # trace 1
    x = line_form(gf, (1, 0, 0))
    quad = MPoly.from_terms(FORM_VARS, gf, [
        ((2, 0, 0), gf.one_elem()), ((1, 1, 0), gf.one_elem()),
        ((0, 2, 0), GFElem(gf, tau))])
    cases = [_prod(gf, x, x, quad)]
    if gf.q == 2:
        # on x = 0 it is y^2 z^2 + y^3 z, zero at all three points
        cases.append(parse_form("y^2*z^2 + y^3*z + x*y^3 + x^2*z^2 + x*z^3"
                                " + x^3*y + x^4", FieldSpec(1), over="GF"))
    for form in cases:
        zeros = kernels.scan_zero_points(raw_terms(form), gf)
        assert sorted(zeros) == sorted(p for p in kernels.plane_points(gf.q)
                                       if p[0] == 0)
    return cases


@pytest.mark.parametrize("m, draw, count", [
    (1, 1, 60), (1, 2, 60), (2, 1, 60), (2, 2, 40), (3, 1, 40)])
def test_peel_lines_matches_trial_division(m, draw, count):
    # each (m, draw) is its own seeded draw of random cases
    gf, rng = GF.get(m), random.Random(f"peel {m} {draw}")
    for _ in range(count):
        _check(_random_case(gf, rng), gf)
    for form in _collinear_cases(gf):
        _check(form, gf)


def test_four_concurrent_lines():
    for m in (2, 3):
        gf = GF.get(m)
        g = gf.algebra_gen()
        # x, y, x+y and x+g*y all pass through (0:0:1)
        form = _prod(gf, *(line_form(gf, t) for t in
                           ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, g, 0))))
        factors, rem = _check(form, gf)
        assert len(factors) == 4 and rem.total_degree() == 0


def test_four_lines_over_f2():
    """Over GF(2) a quartic can vanish on all seven points of the plane
    and hold four of its seven lines, or only one."""
    gf = GF.get(1)
    x, y, z = (line_form(gf, t) for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for form in (_prod(gf, x, y, x + y, z),
                 _prod(gf, x, y, z, x + y + z),
                 _prod(gf, x, x, y, x + y)):
        factors, rem = _check(form, gf)
        assert sum(factors.values()) == 4 and rem.total_degree() == 0
    # one line times a cubic through the four points off it: it vanishes
    # on all seven lines, and one of them divides
    cubic = MPoly.from_terms(FORM_VARS, gf, [
        ((1, 2, 0), gf.one_elem()), ((2, 1, 0), gf.one_elem()),
        ((0, 0, 3), gf.one_elem()), ((2, 0, 1), gf.one_elem())])
    form = x * cubic
    assert len(kernels.scan_zero_points(raw_terms(form), gf)) == 7
    factors, rem = _check(form, gf)
    assert factors == {(1, 0, 0): 1} and rem == cubic


def test_lines_meeting_at_a_shared_zero():
    gf = GF.get(2)
    g = gf.algebra_gen()
    # a double line and a simple line through (0:1:0) on a conic through it
    conic = MPoly.from_terms(FORM_VARS, gf, [
        ((2, 0, 0), gf.one_elem()), ((1, 1, 0), gf.one_elem()),
        ((0, 0, 2), GFElem(gf, g))])
    a, b = line_form(gf, (1, 0, 0)), line_form(gf, (1, 0, g))
    factors, rem = _check(_prod(gf, a, a, b, conic), gf)
    assert factors == {(1, 0, 0): 2, (1, 0, g): 1}


_CONIC_MONOS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1), (1, 0, 1),
                (1, 1, 0))


def _smooth_conic_oracle(conic, gf):
    """Not a square, and no rational point where the conic and its
    partials vanish (a singular conic's vertex is rational)."""
    # a square has only even exponents, and every coefficient is a square
    if conic.total_degree() != 2 or not any(k & 1 for e in conic.terms
                                            for k in e):
        return False
    return not kernels.scan_singular_points(conic, gf)


def test_smooth_conic_closed_form_matches_scan():
    def conic(gf, cs):
        return MPoly.from_terms(FORM_VARS, gf, [
            (e, GFElem(gf, c)) for e, c in zip(_CONIC_MONOS, cs)])
    gf = GF.get(1)
    cases = [(gf, conic(gf, cs)) for cs in product(range(2), repeat=6)]
    for m in (2, 3, 4):
        gf = GF.get(m)
        cases += [(gf, conic(gf, [random.randrange(gf.q)
                                  if random.random() < 0.7 else 0
                                  for _ in _CONIC_MONOS]))
                  for _ in range(150)]
    verdicts = [is_smooth_conic(c) for _, c in cases]
    assert verdicts == [_smooth_conic_oracle(c, gf) for gf, c in cases]
    assert 0 < sum(verdicts) < len(cases)


def _pair_times_y_squared(gf):
    """(x^2+xz+z^2) y^2: a pair of lines through (0:1:0), conjugate over
    GF(4), and the double line y."""
    pair = MPoly.from_terms(FORM_VARS, gf, [
        ((2, 0, 0), gf.one_elem()), ((1, 0, 1), gf.one_elem()),
        ((0, 0, 2), gf.one_elem())])             # x^2+xz+z^2
    y = line_form(gf, (0, 1, 0))
    return pair, _prod(gf, pair, y, y)


def test_peel_lines_stays_in_its_field():
    # the conjugate pair is left in the cofactor: no GF(4) line is named
    gf = GF.get(1)
    pair, form = _pair_times_y_squared(gf)
    factors, rem = _check(form, gf)
    assert factors == {(0, 1, 0): 2} and rem == pair


def test_classification_splits_a_conjugate_pair_through_n():
    # the lines of the cofactor through (0:1:0) come from its binary
    # form x^2+xz+z^2, split over GF(4) = GF(2)(g)
    gf = GF.get(1)
    cls = classify_fibre(PlaneCurveFq(_pair_times_y_squared(gf)[1],
                                      FieldSpec(1)))
    assert (cls.kind, cls.ext) == ("Other", 2)
    assert cls.components == (("x+(g+1)*z", 1), ("x+g*z", 1), ("y", 2))


# ----- charts and blow-ups ------------------------------------------------


def _normalized(point):
    """A GFElem point scaled to 1 at its first nonzero coordinate, and
    that coordinate's index."""
    i = next(k for k, c in enumerate(point) if c)
    s = point[0].gf.one_elem() / point[i]
    return tuple(c * s for c in point), i


def _as_local(f, pivot):
    """A polynomial free of the pivot variable as the local equation that
    ``plane`` takes: {(i, j): raw int} in the two other variables."""
    iu, iv = [k for k in range(3) if k != pivot]
    assert not any(e[pivot] for e in f.terms)
    return {(e[iu], e[iv]): c.v for e, c in f.terms.items()}


def _chart_by_substitution(form, point):
    """The reference chart: dehomogenize, then substitute x + p_x for x
    (and so on) as polynomials."""
    p, i = _normalized(point)
    gf = p[0].gf
    f = embed_form(form, form.domain, gf).dehomogenize(form.vars[i])
    mapping = {name: (MPoly.var(form.vars, gf, name)
                      + MPoly.const(form.vars, gf, p[j]))
               for j, name in enumerate(form.vars) if j != i and p[j]}
    return _as_local(f.substitute(mapping) if mapping else f, i)


def _blow_up_by_substitution(f, iu, iv, k, eta):
    """The reference strict transform: substitute v -> u (eta + v) or
    u -> u v as polynomials, then lower the exceptional exponent by k."""
    dom = eta.gf if isinstance(eta, GFElem) else f.domain
    f = embed_form(f, f.domain, dom)
    nu, nv = f.vars[iu], f.vars[iv]
    u, v = MPoly.var(f.vars, dom, nu), MPoly.var(f.vars, dom, nv)
    if eta is None:
        g, ie = f.substitute({nu: u * v}), iv
    else:
        g = f.substitute({nv: u * (MPoly.const(f.vars, dom, eta) + v)})
        ie = iu
    terms = {}
    for e, c in g.terms.items():
        e2 = list(e)
        e2[ie] -= k
        terms[tuple(e2)] = c
    return MPoly(g.vars, g.domain, terms)


def _random_local(gf, rng, lowest, top=12, pivot=0):
    """A local equation in the two variables other than `pivot`, with
    terms of total degree lowest..top, as a polynomial."""
    iu, iv = [i for i in range(3) if i != pivot]
    items = []
    for _ in range(rng.randint(1, 10)):
        d = rng.randint(lowest, top)
        a = rng.randint(0, d)
        e = [0, 0, 0]
        e[iu], e[iv] = a, d - a
        items.append((e, GFElem(gf, rng.randrange(gf.q))))
    f = MPoly.from_terms(FORM_VARS, gf, items)
    return f if f else _random_local(gf, rng, lowest, top, pivot)


# base field m, extension degrees of the shifts
_ORACLE_FIELDS = [(1, (1, 2, 3)), (2, (1, 2)), (4, (1, 2)), (8, (1,))]


@pytest.mark.parametrize("m, exts", _ORACLE_FIELDS)
def test_chart_matches_substitution(m, exts):
    rng = random.Random(4100 + m)
    gf = GF.get(m)
    for _ in range(40):
        form = _random_form(gf, rng.randint(1, 12), rng)
        big = GF.get(m * rng.choice(exts))
        point = [GFElem(big, rng.randrange(big.q)) for _ in range(3)]
        for j in rng.sample(range(3), rng.randint(0, 2)):
            point[j] = big.zero_elem()      # zero shifts, (0:0:1) among them
        if not any(point):
            continue
        assert chart_at(raw_terms(form), gf, tuple(c.v for c in point),
                        big) == (
            _chart_by_substitution(form, tuple(point)))


@pytest.mark.parametrize("m, exts", _ORACLE_FIELDS)
def test_blow_up_matches_substitution(m, exts):
    rng = random.Random(4200 + m)
    gf = GF.get(m)
    for _ in range(60):
        pivot = rng.randrange(3)
        iu, iv = [i for i in range(3) if i != pivot]
        lowest = rng.randint(1, 6)
        f = _random_local(gf, rng, lowest, pivot=pivot)
        k = rng.randint(0, lowest)
        big = GF.get(m * rng.choice(exts))
        for eta in (None, big.zero_elem(), GFElem(big, rng.randrange(big.q))):
            got = blow_up(_as_local(f, pivot), gf, k,
                          None if eta is None else eta.v, big)
            assert got == _as_local(
                _blow_up_by_substitution(f, iu, iv, k, eta), pivot)


def test_blow_up_refuses_k_above_the_multiplicity():
    gf = GF.get(2)
    f = {(2, 0): 1, (0, 3): 1}          # u^2 + v^3
    for eta in (1, None):
        with pytest.raises(ConstraintViolation):
            blow_up(f, gf, 3, eta)
        assert blow_up(f, gf, 2, eta)   # the multiplicity is 2


def test_charts_and_blow_ups_make_no_substitution(monkeypatch):
    # a machine-independent work count: charts, blow-ups and the tangent
    # restriction expand term by term, so the fibre path substitutes nothing
    calls = []
    substitute = MPoly.substitute

    def counted(self, mapping):
        calls.append(mapping)
        return substitute(self, mapping)
    monkeypatch.setattr(MPoly, "substitute", counted)
    curve = specialize_fibre("pi4", (3, 5, 7), FieldSpec(6))
    cls = classify_fibre(curve)
    assert cls.kind == "IntegralQuartic" and cls.tangent is not None
    assert calls == []
    assert delta_invariant(curve, cls.sing_point)[0] == 3
    assert calls == []
    for pencil in PENCILS.values():
        resolve_pencil(pencil())
    assert calls == []


# ----- univariate roots ---------------------------------------------------


def _roots_oracle(h):
    """The value at every element, and each root's multiplicity by
    repeated division by X + a."""
    gf = h.gf
    found = []
    for a in range(gf.q) if h else ():
        if reduce(xor, (gf.mul(c, gf.pow(a, i))
                        for i, c in enumerate(h.to_coeffs()))):
            continue
        lin, k = UPoly.from_coeffs(gf, [a, 1]), 0
        while not (qr := h.divmod(lin))[1]:
            h, k = qr[0], k + 1
        found.append((a, k))
    return found, h


def test_roots_of_every_quadratic_match_the_oracle():
    for m in (1, 2, 3, 4):
        gf = GF.get(m)
        for cs in product(range(gf.q), repeat=3):
            h = UPoly.from_coeffs(gf, cs)
            assert roots(h) == _roots_oracle(h), cs


def test_roots_of_seeded_polynomials_match_the_oracle():
    rng = random.Random(8161)
    for m in range(1, 9):
        gf = GF.get(m)

        def poly(deg):
            return UPoly.from_coeffs(gf, [rng.randrange(gf.q)
                                          for _ in range(deg + 1)])

        def linear():
            return UPoly.from_coeffs(gf, [rng.randrange(gf.q), 1])

        X = UPoly.t(gf)
        for _ in range(40):
            cases = [poly(rng.randrange(7)),
                     poly(3).square(),                  # even support
                     poly(1).pow(4), (linear() * poly(0)).pow(4),
                     X.pow(rng.randrange(1, 4)) * poly(rng.randrange(4)),
                     X * linear().square() * poly(1),
                     linear().pow(rng.randrange(1, 4)) * linear().square(),
                     linear() * linear() * poly(2)]
            for h in cases:
                if h.deg() <= 6:
                    assert roots(h) == _roots_oracle(h), (m, str(h))
