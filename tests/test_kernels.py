import random

import pytest

from quarticfibres import kernels
from quarticfibres.finitefield import GF, GFElem
from quarticfibres.mpoly import FORM_VARS, MPoly

random.seed(71007)


def _rand_form(gf, nterms=6):
    items = []
    for _ in range(nterms):
        e = tuple(random.randrange(4) for _ in range(3))
        items.append((e, GFElem(gf, random.randrange(gf.q))))
    return MPoly.from_terms(FORM_VARS, gf, items)


def test_plane_points_count_and_normalization():
    for q in (2, 4, 8):
        pts = kernels.plane_points(q)
        assert len(pts) == q * q + q + 1
        # one representative per line: first nonzero coordinate is 1
        seen = set()
        for p in pts:
            tup = tuple(int(v) for v in p)
            assert tup not in seen
            seen.add(tup)
            first = next(v for v in tup if v)
            assert first == 1
        # built once per q and shared, so no caller may write to it
        assert kernels.plane_points(q) is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 0


def test_evaluate_matches_eval_point():
    # the numpy evaluator against the exact one at every point of
    # P^2(GF(2^m)), m <= 4, the zero form included
    for m in (1, 2, 3, 4):
        gf = GF.get(m)
        pts = kernels.plane_points(gf.q)
        forms = [_rand_form(gf) for _ in range(3)]
        forms.append(MPoly.zero(FORM_VARS, gf))
        vals = kernels.evaluate_forms(pts, forms, gf)
        for pi, p in enumerate(pts):
            point = {n: GFElem(gf, int(v)) for n, v in zip(FORM_VARS, p)}
            for fi, f in enumerate(forms):
                assert int(vals[fi, pi]) == f.eval_point(point).v


def test_scan_zero_points_brute_force():
    gf = GF.get(2)
    f = _rand_form(gf)
    got = set(kernels.scan_zero_points(f, gf))
    pts = kernels.plane_points(gf.q)
    want = set()
    for p in pts:
        point = {n: GFElem(gf, int(v)) for n, v in zip(FORM_VARS, p)}
        if not f.eval_point(point):
            want.add(tuple(int(v) for v in p))
    assert got == want


def test_scan_singular_points():
    gf = GF.get(1)
    # y^4 + x z^3: classic cusp at (1:0:0)
    f = MPoly.from_terms(FORM_VARS, gf, [((0, 4, 0), gf.one_elem()),
                                         ((1, 0, 3), gf.one_elem())])
    assert kernels.scan_singular_points(f, gf) == [(1, 0, 0)]
