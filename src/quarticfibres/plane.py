"""Plane-curve toolkit over GF(2^m), shared by `fibres` and `resolution`.

Both the fibre classification and the resolution of pencils work with
ternary forms in (x, y, z) and the same few local constructions:

* ``line_form`` and ``peel_lines``: linear factors by trial division
  against every line of P^2 (the candidate lines come from ``kernels``);
* ``chart_at``: the affine chart at a point, translated to the origin;
  ``mult_origin`` reads the multiplicity there and ``shift_out`` divides
  a chart's pullback by a power of the exceptional coordinate;
* ``roots``: the rational roots of a univariate `UPoly`, which is how
  blow-up directions, tangent contacts and base points on exceptional
  curves are found.  It is a brute-force scan over the field, the one
  place to swap in an algebraic root finder.
"""

from . import kernels
from .errors import ConstraintViolation
from .finitefield import GF, GFElem
from .mpoly import MPoly, FORM_VARS
from .upoly import UPoly

LOCUS_CAP = 8       # line peeling and locus scans stop at GF(2^8)


def embed_form(f: MPoly, small: GF, big: GF) -> MPoly:
    if small.m == big.m:
        return f
    table = small.embedding_into(big)
    return MPoly(f.vars, big,
                 {e: GFElem(big, table[c.v]) for e, c in f.terms.items()})


def normalize_point(point):
    """Scale a projective point so that its first nonzero coordinate is
    1; returns the scaled point and that coordinate's index."""
    gf = point[0].gf
    for i, c in enumerate(point):
        if c:
            s = gf.one_elem() / c
            return tuple(x * s for x in point), i
    raise ConstraintViolation("(0:0:0) is not a projective point")


def line_form(gf: GF, triple) -> MPoly:
    """The linear form a x + b y + c z of a raw coefficient triple."""
    return MPoly.from_terms(
        FORM_VARS, gf,
        [(tuple(1 if k == i else 0 for k in range(3)), GFElem(gf, v))
         for i, v in enumerate(triple) if v])


# ----- local charts -------------------------------------------------------


def chart_at(form: MPoly, point) -> tuple[MPoly, int]:
    """Dehomogenize at the point's pivot and translate it to the origin.

    The chart lives over the field of the point's coordinates (GFElem
    values); returns the local equation and the pivot index."""
    p, i = normalize_point(point)
    gf = p[0].gf
    f = embed_form(form, form.domain, gf).dehomogenize(form.vars[i])
    mapping = {}
    for j, name in enumerate(form.vars):
        if j != i and p[j]:
            mapping[name] = (MPoly.var(form.vars, gf, name)
                             + MPoly.const(form.vars, gf, p[j]))
    if mapping:
        f = f.substitute(mapping)
    return f, i


def mult_origin(f: MPoly) -> int:
    """Lowest total degree of a nonzero local equation."""
    return min(sum(e) for e in f.terms)


def shift_out(f: MPoly, idx: int, k: int) -> MPoly:
    """Divide by the k-th power of variable `idx`, which the caller knows
    divides f (the exceptional coordinate of a blow-up chart)."""
    if k == 0:
        return f
    terms = {}
    for e, c in f.terms.items():
        e2 = list(e)
        e2[idx] -= k
        terms[tuple(e2)] = c
    return MPoly(f.vars, f.domain, terms)


# ----- univariate roots ---------------------------------------------------


def roots(h: UPoly) -> tuple[list, UPoly]:
    """Roots of h in its coefficient field, ascending, as (root,
    multiplicity) pairs, and the cofactor left once they are divided out.
    The zero polynomial has no roots listed."""
    gf = h.gf
    log, exp, n = gf.log, gf.exp, gf.q - 1
    cs = h.to_coeffs()[::-1]            # descending
    found = []
    for alpha in range(gf.q):
        if len(cs) <= 1:
            break
        k = 0
        while len(cs) > 1:
            # Horner's partial sums are the quotient by X + alpha, then
            # the value at alpha
            sums, acc = [], 0
            for c in cs:
                if acc and alpha:
                    acc = exp[(log[acc] + log[alpha]) % n]
                else:
                    acc = 0
                acc ^= c
                sums.append(acc)
            if acc:
                break
            cs = sums[:-1]
            k += 1
        if k:
            found.append((alpha, k))
    return found, UPoly.from_coeffs(gf, cs[::-1])


# ----- linear factors -----------------------------------------------------


def is_smooth_conic(conic: MPoly, gf: GF) -> bool:
    if conic.total_degree() != 2 or not conic.is_homogeneous():
        return False
    if conic.square_root() is not None:
        return False
    # a singular conic's vertex is cut out by linear forms, hence rational
    return not kernels.scan_singular_points(conic, gf)


def _peel(rem: MPoly, gf: GF, found: dict):
    # a line that does not divide rem divides none of its quotients, so
    # one pass over the lines finds every factor with its multiplicity
    deg = rem.total_degree()
    for t in map(tuple, kernels.plane_points(gf.q).tolist()):
        if deg == 0:
            break
        line = line_form(gf, t)
        while deg and (q := rem.divide(line)) is not None:
            found[t] = found.get(t, 0) + 1
            rem, deg = q, deg - 1
    return found, rem


def peel_lines(form: MPoly, gf: GF, max_ext: int = 1):
    """Linear factors of a form by trial division, with multiplicities.

    Lines over gf are tried first.  A cofactor of positive degree that is
    not a smooth conic (which has no linear factor over any extension) is
    then tried over GF(2^{m max_ext}); the factors move to that field only
    when a new line splits off there.  Returns ({line triple:
    multiplicity}, cofactor, the field of both); nothing is peeled beyond
    GF(2^LOCUS_CAP).
    """
    if gf.m > LOCUS_CAP:
        return {}, form, gf
    factors, rem = _peel(form, gf, {})
    if (max_ext <= 1 or gf.m * max_ext > LOCUS_CAP
            or rem.total_degree() == 0 or is_smooth_conic(rem, gf)):
        return factors, rem, gf
    big = GF.get(gf.m * max_ext)
    table = gf.embedding_into(big)
    lifted = {tuple(table[v] for v in t): n for t, n in factors.items()}
    big_factors, big_rem = _peel(embed_form(rem, gf, big), big, lifted)
    if big_rem.total_degree() == rem.total_degree():
        return factors, rem, gf
    return big_factors, big_rem, big
