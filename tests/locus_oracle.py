"""The reference singular locus, by brute force: a helper that the tests
and ``census_gf4.py`` import, not a test module.

`fibres.singular_locus` reads the locus of a strange quartic off its
normal form; this scans for it.  The points where the form and its three
partials vanish are listed over P^2(GF(q)), then over P^2(GF(q^2)),
keeping there only the points with a coordinate outside GF(q) (a
coordinate a lies in GF(q) iff a^q = a).  Each point is a GFElem triple
over GF(q^r), paired with r.
"""

from quarticfibres import kernels
from quarticfibres.finitefield import GF, GFElem
from quarticfibres.plane import embed_form


def _elems(gf, raw):
    return tuple(GFElem(gf, v) for v in raw)


def reference_locus(curve) -> list:
    """The singular points of a curve over GF(q) and GF(q^2), by two
    plane scans, as (point, r) pairs: rational points first, each list in
    scan order."""
    base = curve.gf
    big = GF.get(2 * base.m)
    rational = kernels.scan_singular_points(curve.form, base)
    over_big = kernels.scan_singular_points(
        embed_form(curve.form, base, big), big)
    return ([(_elems(base, raw), 1) for raw in rational]
            + [(_elems(big, raw), 2) for raw in over_big
               if any(big.pow(v, base.q) != v for v in raw)])
