"""Bit-sliced point scans over the projective plane of GF(2^m).

``scan_zero_points`` evaluates a form alone over P^2(GF(q)), given as
((i, j, k), raw int) pairs, and decodes its zero set with
``mask_points``; it is a fibre's one pass, on the terms that
`fibres.PlaneCurveFq` reads off its normal form with no `MPoly` built,
which `fibres.PlaneCurveFq.zeros` keeps for line peeling and the smooth
points, and a pencil member's base-point scan (``plane.raw_terms`` of
the member).  ``scan_singular_points`` takes an `MPoly`, evaluates it
and its three partials and keeps the points where all four vanish: no fibre
reads it, since `fibres.singular_locus` is a closed form, and it is the
brute-force oracle that the acceptance battery and the tests check that
closed form against.

P^2(GF(2^8)) has 65793 points, so a form is evaluated at all at once
with bit slicing (Biham, "A fast new DES implementation in software",
1997): a value plane is m Python ints, and bit i of int k is bit k of
the value at point i, the points taken in ``plane_points`` order.  A
sum of planes is m XORs, and a constant factor is a GF(2)-linear map on
the m ints.  A product of planes is m^2 ANDs and XORs followed by
reduction by the modulus, and a monomial plane takes one only where no
cheaper rule applies: x is 1 on every affine point (1:y:z) and 0 on the
line x = 0, so a factor x^i (i > 0) is an AND of each int with the
affine mask, and a monomial in y and z alone is one product of a lower
one by the y or z plane.  A pi4 fibre makes six products in all.  The
zeros of a form are the complement of the OR of its m ints.

A plane scan covers q^2 + q + 1 points; every other search of the
package walks at most one field, and the field tables stop at GF(2^16).
So the scans are the one search bounded below the tables, and they are
bounded here, once, where the planes are built: beyond ``LOCUS_CAP``
every scan raises `SearchCapped` (``check_cap``) before a plane exists,
and whatever reads a scan (the classification, smooth points, line
peeling, pencil base points) is bounded with it; the singular locus
reads none.

``tests/test_kernels.py`` checks every scan against `MPoly.eval_point`
at every point of P^2(GF(2^n)) for n <= 4.  ``perfbench/`` times the
scans in context.
"""

import re
from functools import cache, reduce
from operator import and_, or_

from .errors import SearchCapped
from .plane import raw_terms

# Always False: there is no compiled path; kept because perfbench records it.
USING_NUMBA = False

LOCUS_CAP = 8       # plane scans stop at P^2(GF(2^8))


def check_cap(m: int, search: str, cap: int = LOCUS_CAP):
    """Raise `SearchCapped` when `search` would enumerate GF(2^m) beyond
    the cap, so that an unsearched field never reads as "none found"."""
    if m > cap:
        raise SearchCapped(f"{search} over GF(2^{m}) is beyond the"
                           f" GF(2^{cap}) enumeration cap")


@cache
def plane_points(q: int) -> tuple:
    """Canonical representatives of P^2(F_q): (1:y:z), (0:1:z), (0:0:1).

    Point i of the affine part is (1 : i // q : i % q).  Built once per q
    and shared, so it is a tuple."""
    return tuple([(1, y, z) for y in range(q) for z in range(q)]
                 + [(0, 1, z) for z in range(q)] + [(0, 0, 1)])


def _stripes(width: int, length: int) -> int:
    """The bits i < length with i & width set (width a power of two
    whose double divides length)."""
    period = 2 * width
    repeat = ((1 << length) - 1) // ((1 << period) - 1)
    return (((1 << width) - 1) << width) * repeat


@cache
def _coordinates(m: int) -> tuple:
    """The affine mask and the y and z planes of P^2(GF(2^m)).  x is 1 on
    every affine point (1:y:z) and 0 on the line x = 0, so its plane is
    one int, the mask of the affine bits i < q^2.  On the affine part the
    point index is y q + z, so bit k of z is bit k of the index and bit
    k of y is bit m + k."""
    q = 1 << m
    qq = q * q
    y = [_stripes(q << k, qq) for k in range(m)]
    z = [_stripes(1 << k, qq + q) for k in range(m)]
    y[0] |= ((1 << q) - 1) << qq
    z[0] |= 1 << (qq + q)
    return (1 << qq) - 1, y, z


def _mul(a: list, b: list, gf) -> list:
    """The product of two planes, reduced by the field's modulus."""
    m = gf.m
    c = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    c[i + j] ^= ai & bj
    taps = [j for j in range(m) if gf.modulus >> j & 1]
    for d in range(2 * m - 2, m - 1, -1):
        if c[d]:
            for j in taps:
                c[d - m + j] ^= c[d]
    return c[:m]


def _monomial(monomials: dict, e: tuple, gf) -> list:
    """The plane of the monomial of exponent e, built from the planes in
    `monomials` and kept there.  x^i y^j z^k with i > 0 is the plane of
    y^j z^k on the affine mask; y^j z^k is one product by the y or z
    plane.  A module function, not a closure over
    `monomials`: a recursive closure is a reference cycle, which would
    keep every call's planes alive until the cyclic collector runs."""
    mono = monomials.get(e)
    if mono is None:
        i, j, k = e
        affine, y, z = _coordinates(gf.m)
        if i:
            mono = [p & affine for p in _monomial(monomials, (0, j, k), gf)]
        elif j:
            mono = _mul(_monomial(monomials, (0, j - 1, k), gf), y, gf)
        else:
            mono = _mul(_monomial(monomials, (0, 0, k - 1), gf), z, gf)
        monomials[e] = mono
    return mono


def _zero_masks(forms, gf) -> list:
    """The zero set of each form, ((i, j, k), raw int) pairs, as a mask
    over ``plane_points(gf.q)``; the forms share their monomial planes.
    The one cap check of the scans."""
    check_cap(gf.m, "the plane scan")
    m, q = gf.m, gf.q
    full = (1 << (q * q + q + 1)) - 1
    _, y, z = _coordinates(m)
    monomials = {(0, 0, 0): [full] + [0] * (m - 1), (0, 1, 0): y,
                 (0, 0, 1): z}
    masks = []
    for f in forms:
        acc = [0] * m
        for e, c in f:
            for i, plane in enumerate(_monomial(monomials, e, gf)):
                if plane:
                    col = gf.mul(c, 1 << i)    # c u^i: where plane i goes
                    for k in range(m):
                        if col >> k & 1:
                            acc[k] ^= plane
        masks.append(full ^ reduce(or_, acc))
    return masks


def mask_points(mask: int, q: int) -> list:
    """The points of a mask over ``plane_points(q)`` as raw triples, in
    that order."""
    pts = plane_points(q)
    # bin() reversed, without its "0b": bit i at position i
    return [pts[one.start()] for one in re.finditer("1", bin(mask)[:1:-1])]


def scan_zero_points(terms, gf) -> list:
    """Points of P^2(GF) where the form of ((i, j, k), raw int) pairs
    `terms` vanishes, as raw int triples."""
    return mask_points(_zero_masks([terms], gf)[0], gf.q)


def scan_singular_points(form, gf) -> list:
    """Points where the form, an `MPoly`, and all three partials vanish
    (raw triples), from one evaluation of the four forms."""
    masks = _zero_masks([raw_terms(f) for f in
                         (form, *map(form.partial, form.vars))], gf)
    return mask_points(reduce(and_, masks), gf.q)
