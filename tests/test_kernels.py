import random

import numpy as np

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


def test_evaluate_matches_eval_point():
    for m in (1, 2, 3):
        gf = GF.get(m)
        pts = kernels.plane_points(gf.q)
        forms = [_rand_form(gf) for _ in range(3)]
        vals = kernels.evaluate_forms(pts, forms, gf)
        for fi, f in enumerate(forms):
            for pi in (0, 1, len(pts) // 2, len(pts) - 1):
                point = {n: GFElem(gf, int(v))
                         for n, v in zip(FORM_VARS, pts[pi])}
                assert int(vals[fi, pi]) == f.eval_point(point).v


def test_both_paths_agree():
    # the numba kernel and the vectorised numpy kernel are interchangeable
    gf = GF.get(4)
    pts = kernels.plane_points(gf.q)
    for _ in range(5):
        f = _rand_form(gf)
        if not f.terms:
            continue
        exps = np.array(sorted(f.terms), dtype=np.int64).reshape(-1, 3)
        coeffs = np.array([f.terms[tuple(e)].v for e in exps.tolist()],
                          dtype=np.int64)
        logt = np.array(gf.log, dtype=np.int64)
        expt = np.array(gf.exp[: gf.q - 1], dtype=np.int64)
        a = kernels._eval_numpy(pts, exps, coeffs, logt, expt, gf.q - 1)
        b = kernels._eval_loops(pts, exps, coeffs, logt, expt, gf.q - 1)
        assert np.array_equal(a, np.asarray(b))


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
