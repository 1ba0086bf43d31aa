import random

import pytest

from quarticfibres import gf2x, kernels
from quarticfibres.finitefield import GF, GFElem
from quarticfibres.mpoly import FORM_VARS, MPoly
from quarticfibres.plane import raw_terms

random.seed(71007)


def _rand_form(gf, nterms=6):
    items = []
    for _ in range(nterms):
        # exponents up to 4: x^4 on the affine mask, y^4 and z^4 as
        # chains of three products
        e = tuple(random.randrange(5) for _ in range(3))
        items.append((e, GFElem(gf, random.randrange(gf.q))))
    return MPoly.from_terms(FORM_VARS, gf, items)


def test_plane_points_count_and_normalization():
    for q in (2, 4, 8):
        pts = kernels.plane_points(q)
        assert len(pts) == q * q + q + 1
        # one representative per line: first nonzero coordinate is 1
        assert len(set(pts)) == len(pts)
        assert all(next(v for v in p if v) == 1 for p in pts)
        # built once per q and shared, so no caller may change it
        assert kernels.plane_points(q) is pts
        assert isinstance(pts, tuple)
        assert all(isinstance(p, tuple) for p in pts)
        with pytest.raises(TypeError):
            pts[0] = (0, 0, 1)


def _fields():
    # every field with m <= 4, and GF(16) under its other modulus x^4+x^3+1
    yield from (GF.get(m) for m in (1, 2, 3, 4))
    other = 0b11001
    assert gf2x.is_irreducible(other) and other != GF.get(4).modulus
    yield GF.get(4, other)


def test_evaluate_matches_eval_point():
    # the zero and singular scans against the exact evaluator at every
    # point of P^2(GF(2^m)), m <= 4; the zero form and a constant form
    # included
    for gf in _fields():
        pts = kernels.plane_points(gf.q)
        forms = [_rand_form(gf) for _ in range(3)]
        forms.append(MPoly.zero(FORM_VARS, gf))
        forms.append(MPoly.const(FORM_VARS, gf, GFElem(gf, gf.q - 1)))
        for f in forms:
            partials = [f.partial(v) for v in f.vars]
            zero, singular = [], []
            for p in pts:
                point = {n: GFElem(gf, v) for n, v in zip(FORM_VARS, p)}
                if f.eval_point(point):
                    continue
                zero.append(p)
                if not any(d.eval_point(point) for d in partials):
                    singular.append(p)
            assert kernels.scan_zero_points(raw_terms(f), gf) == zero
            assert kernels.scan_singular_points(f, gf) == singular


def test_scan_zero_points_brute_force():
    gf = GF.get(2)
    f = _rand_form(gf)
    got = set(kernels.scan_zero_points(raw_terms(f), gf))
    want = set()
    for p in kernels.plane_points(gf.q):
        point = {n: GFElem(gf, v) for n, v in zip(FORM_VARS, p)}
        if not f.eval_point(point):
            want.add(p)
    assert got == want


def test_scan_singular_points():
    gf = GF.get(1)
    # y^4 + x z^3: classic cusp at (1:0:0)
    f = MPoly.from_terms(FORM_VARS, gf, [((0, 4, 0), gf.one_elem()),
                                         ((1, 0, 3), gf.one_elem())])
    assert kernels.scan_singular_points(f, gf) == [(1, 0, 0)]
