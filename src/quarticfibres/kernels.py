"""Array kernels for point scans over the projective plane of GF(2^m).

The singular-locus search, the smooth points, the zero set that line
peeling reads its candidate lines from and the pencil base points all
scan P^2(GF(2^n)); for n = 8 that is 65793 points, far too slow with
boxed field elements.  In the power basis, field addition is XOR and
multiplication goes through the discrete-log tables, so evaluating a
ternary form at every plane point reduces to integer table lookups.

There is one evaluator, vectorised with numpy over the points;
``tests/test_kernels.py`` checks it against `MPoly.eval_point` at every
point of P^2(GF(2^n)) for n <= 4.  ``perfbench/`` times the scans in
context.
"""

from functools import cache

import numpy as np

# Always False: there is no compiled path; kept because perfbench records it.
USING_NUMBA = False


@cache
def plane_points(q: int) -> np.ndarray:
    """Canonical representatives of P^2(F_q): (1:y:z), (0:1:z), (0:0:1).

    Built once per q and shared, so the array is read-only."""
    ys, zs = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    affine = np.column_stack(
        [np.ones(q * q, dtype=np.int64), ys.ravel(), zs.ravel()])
    line = np.column_stack(
        [np.zeros(q, dtype=np.int64), np.ones(q, dtype=np.int64),
         np.arange(q)])
    far = np.array([[0, 0, 1]], dtype=np.int64)
    pts = np.concatenate([affine, line, far]).astype(np.int64)
    pts.setflags(write=False)
    return pts


def _eval_numpy(pts, exps, coeffs, logt, expt, qm1):
    n = pts.shape[0]
    values = np.zeros(n, dtype=np.int64)
    for t in range(exps.shape[0]):
        c = int(coeffs[t])
        if c == 0:
            continue
        lacc = np.full(n, int(logt[c]), dtype=np.int64)
        dead = np.zeros(n, dtype=bool)
        for j in range(3):
            e = int(exps[t, j])
            if e == 0:
                continue
            col = pts[:, j]
            dead |= col == 0
            lacc += e * logt[col]
        term = expt[lacc % qm1]
        term[dead] = 0
        values ^= term
    return values


def _tables(gf):
    logt = np.array(gf.log, dtype=np.int64)
    expt = np.array(gf.exp[: gf.q - 1] if gf.q > 2 else [1], dtype=np.int64)
    return logt, expt, max(gf.q - 1, 1)


def _form_arrays(form):
    items = sorted(form.terms.items())
    exps = np.array([e for e, _ in items], dtype=np.int64).reshape(-1, 3)
    coeffs = np.array([c.v for _, c in items], dtype=np.int64)
    return exps, coeffs


def evaluate_forms(points: np.ndarray, forms, gf) -> np.ndarray:
    """Values of each ternary form at each point, as an (F, N) array."""
    logt, expt, qm1 = _tables(gf)
    rows = []
    for f in forms:
        if not f.terms:
            rows.append(np.zeros(points.shape[0], dtype=np.int64))
            continue
        exps, coeffs = _form_arrays(f)
        rows.append(_eval_numpy(points, exps, coeffs, logt, expt, qm1))
    return np.stack(rows)


def scan_zero_points(form, gf) -> list:
    """Points of P^2(GF) where the form vanishes, as raw int triples."""
    pts = plane_points(gf.q)
    vals = evaluate_forms(pts, [form], gf)[0]
    return [tuple(int(v) for v in p) for p in pts[vals == 0]]


def scan_singular_points(form, gf) -> list:
    """Points where the form and all three partials vanish (raw triples)."""
    pts = plane_points(gf.q)
    forms = [form] + [form.partial(v) for v in form.vars]
    vals = evaluate_forms(pts, forms, gf)
    mask = np.all(vals == 0, axis=0)
    return [tuple(int(v) for v in p) for p in pts[mask]]
