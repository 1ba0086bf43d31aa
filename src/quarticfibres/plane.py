"""Plane-curve toolkit over GF(2^m), shared by `fibres` and `resolution`.

Both the fibre classification and the resolution of pencils work with
ternary forms in (x, y, z) and the same few local constructions:

* ``raw_terms`` and ``raw_form``: a form as ((i, j, k), raw int) pairs,
  which the charts and the plane scans read, and back to an `MPoly`.  A
  fibre keeps its terms in this shape (``fibres.PlaneCurveFq.terms``), so
  it is scanned and charted with no `MPoly` built;
* ``line_form`` and ``peel_lines``: linear factors over the field given
  and no other.  The caller hands in the candidate lines as triples: a
  fibre's are read off its normal form by ``fibres``, with no scan, and
  a pencil member's are every line of P^2(GF(q)), the triples of
  ``kernels.plane_points``.  ``peel_lines`` confirms each candidate by
  division, so a fibre with no candidate divides nothing and needs no
  `MPoly`;
* ``is_smooth_conic``: a closed form in the coefficients, no scan;
* ``chart_at``: the local equation of a form's raw terms at a point, a
  dict {(i, j): c} of raw ints of one field in the two coordinates other
  than the pivot.  One pass over the terms dehomogenizes, embeds the
  coefficients and
  moves the point to the origin with ``_translate``, which expands
  (x + s)^n by Lucas' theorem and multiplies by adding log-exponents, as
  ``GF.mul`` does; ``mult_origin`` reads the multiplicity;
* ``tangent_cone`` and ``blow_up``: the one blow-up step, which
  ``fibres.delta_invariant`` and ``resolution.resolve_pencil`` iterate.
  The degree-k part of a local equation, read as a `UPoly` in the
  direction, has the centres on the exceptional curve as its roots; the
  strict transform at one centre is an exponent map, which divides by
  u^k, and a ``_translate`` by the centre, a raw int of the equation's
  field or of an extension that the equation is embedded in first;
* ``roots``: the rational roots of a univariate `UPoly`, which is how
  blow-up directions, tangent contacts, conic pairs, lines through
  (0:1:0) and base points on exceptional curves are found.  It splits
  off X^k, takes square roots while the support is even (in char 2 the
  tangent cones and tangent restrictions of strange quartics are mostly
  2^j-th powers), and solves what is left in closed form up to degree
  2, a quadratic by the field's table of Y^2 + Y = b
  (``GF.artin_schreier``).  Only a remainder of degree 3 or more is
  scanned over the field.

None of these makes a polynomial substitution or a `GFElem`, and neither
does the tangent restriction in ``fibres``, which starts from
``chart_at``; the one substitution loop, ``mpoly.substitute_terms``, is
left to the identity replays ``isomorphisms.verify_iso`` (on packed
GF(q)[t] ints) and ``resolution.covering_check`` (through
``MPoly.substitute``).

Nothing here checks a search limit: nothing here scans the plane, a
root search walks at most one field, and the field tables stop at
GF(2^16).
"""

from .errors import ConstraintViolation
from .finitefield import GF, GFElem
from .mpoly import MPoly, FORM_VARS
from .upoly import UPoly

def raw_terms(f: MPoly) -> list:
    """A form over GF(2^m) as ((i, j, k), raw int) pairs, the input of
    ``chart_at`` and of the plane scans."""
    return [(e, c.v) for e, c in f.terms.items()]


def raw_form(gf: GF, pairs) -> MPoly:
    """The ternary form of ((i, j, k), raw int) pairs over gf."""
    return MPoly.from_terms(FORM_VARS, gf,
                            [(e, GFElem(gf, v)) for e, v in pairs])


def embed_form(f: MPoly, small: GF, big: GF) -> MPoly:
    if small is big:
        return f
    table = small.embedding_into(big)
    return raw_form(big, ((e, table[c.v]) for e, c in f.terms.items()))


def line_form(gf: GF, triple) -> MPoly:
    """The linear form a x + b y + c z of a raw coefficient triple."""
    return raw_form(gf, zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), triple))


# ----- local charts -------------------------------------------------------
#
# A local equation is a dict {(i, j): c} over one field GF, c a nonzero raw
# int and (i, j) the exponents of the chart coordinates u and v, the two
# coordinates other than the pivot, in order.


def _lucas(n: int, s: int, log: list) -> list:
    """(k, log of s^(n-k)) for each term s^(n-k) x^k of (x + s)^n.  By
    Lucas' theorem C(n, k) is odd iff the bits of k are a subset of n's;
    s = 0 leaves x^n alone."""
    if not s:
        return [(n, 0)]
    ls, k, out = log[s], n, []
    while True:
        out.append((k, (n - k) * ls))
        if not k:
            return out
        k = (k - 1) & n


def _translate(terms, gf: GF, su: int, sv: int) -> dict:
    """The local equation of the sum of c (u + su)^i (v + sv)^j over the
    triples (i, j, c) of `terms`: each term expands by ``_lucas`` and its
    coefficients are products of powers, so their log-exponents add, as
    in ``GF.mul``."""
    log, exp, n = gf.log, gf.exp, gf.q - 1
    us, vs, out = {}, {}, {}
    get = out.get
    for i, j, c in terms:
        eu = us.get(i) or us.setdefault(i, _lucas(i, su, log))
        ev = vs.get(j) or vs.setdefault(j, _lucas(j, sv, log))
        lc = log[c]
        for k, x in eu:
            x += lc
            for m, y in ev:
                out[k, m] = get((k, m), 0) ^ exp[(x + y) % n]
    return {e: c for e, c in out.items() if c}


def chart_at(terms, small: GF, point, gf: GF) -> dict:
    """The local equation of a form, ((i, j, k), raw int) pairs over
    `small`, at a point of P^2(gf), three raw ints of gf, an extension of
    small, in the coordinates u and v other than the pivot, the point's
    first nonzero coordinate.

    The form is dehomogenized at the pivot, its coefficients embedded in
    gf, and the point scaled to 1 there is moved to the origin by
    ``_translate``, all in one pass over the terms."""
    i = next((k for k, c in enumerate(point) if c), None)
    if i is None:
        raise ConstraintViolation("(0:0:0) is not a projective point")
    iu, iv = (k for k in range(3) if k != i)
    su, sv = gf.div(point[iu], point[i]), gf.div(point[iv], point[i])
    table = range(gf.q) if small is gf else small.embedding_into(gf)
    return _translate(((e[iu], e[iv], table[c]) for e, c in terms),
                      gf, su, sv)


def mult_origin(f: dict) -> int:
    """Lowest total degree of a nonzero local equation."""
    return min(i + j for i, j in f)


# ----- blow-ups -----------------------------------------------------------


def tangent_cone(f: dict, gf: GF, k: int) -> tuple[UPoly, int]:
    """The degree-k part L(u, v) of a local equation, read as L(1, eta),
    a `UPoly` in the direction eta of the line v = eta u, and the
    multiplicity of the direction u = 0: the power of u dividing L, or k
    when L = 0."""
    cs = [0] * (k + 1)
    for (i, j), c in f.items():
        if i + j == k:
            cs[j] = c
    h = UPoly.from_coeffs(gf, cs)
    return h, (k - h.deg() if h else k)


def blow_up(f: dict, gf: GF, k: int, eta: int | None,
            big: GF | None = None) -> dict:
    """Strict transform of a local equation over gf at the infinitely
    near point of direction eta, a raw int of `big` (gf by default; f is
    embedded in big first), or of the direction u = 0 when eta is None.

    The substitution v -> u (eta + v), with exceptional curve u = 0, and
    division by u^k map a term u^i v^j to u^(i+j-k) (v + eta)^j: an
    exponent map, then ``_translate`` by eta.  For u = 0, u -> u v and
    division by v^k map it to u^i v^(i+j-k), an exponent map alone.
    Raises `ConstraintViolation` when k exceeds the multiplicity of f,
    where an exponent would turn negative."""
    if mult_origin(f) < k:
        raise ConstraintViolation(
            f"a blow-up divides by the {k}-th power of the exceptional"
            f" coordinate, above the multiplicity")
    if eta is None:
        return {(i, i + j - k): c for (i, j), c in f.items()}
    if big is not None and big is not gf:
        table = gf.embedding_into(big)
        f, gf = {e: table[c] for e, c in f.items()}, big
    return _translate(((i + j - k, j, c) for (i, j), c in f.items()),
                      gf, 0, eta)


# ----- univariate roots ---------------------------------------------------


def roots(h: UPoly) -> tuple[list, UPoly]:
    """Roots of h in its coefficient field, ascending, as (root,
    multiplicity) pairs, and the cofactor left once they are divided out.
    The zero polynomial has no roots listed.

    X^k is split off first.  While what is left has even support it is
    g^2 for the coordinatewise square root g (Frobenius is onto), whose
    roots count twice.  A linear or quadratic g is solved in closed form;
    only a g of degree 3 or more is scanned over the field."""
    gf = h.gf
    cs = h.to_coeffs()                  # ascending
    k = 0
    while k < len(cs) - 1 and not cs[k]:
        k += 1
    cs = cs[k:]
    e = 0
    while len(cs) > 1 and not any(cs[1::2]):
        cs = [gf.sqrt(c) for c in cs[::2]]
        e += 1
    found, cs = (_horner_roots if len(cs) > 3 else _small_roots)(cs, gf)
    if not (k or found):
        return found, h
    rest = UPoly.from_coeffs(gf, cs)
    for _ in range(e):
        rest = rest.square()
    if e:
        found = [(a, n << e) for a, n in found]
    return [(0, k), *found] if k else found, rest


def _small_roots(cs: list, gf: GF) -> tuple[list, list]:
    """``roots`` of a polynomial of degree at most 2 with a nonzero
    constant term and, if quadratic, a nonzero linear term, as (found,
    cofactor coefficients).  c2 X^2 + c1 X + c0 = 0 is Y^2 + Y = c0 c2 /
    c1^2 for X = c1 Y / c2 (Berlekamp, 1970)."""
    if len(cs) == 2:
        return [(gf.div(cs[0], cs[1]), 1)], cs[1:]
    if len(cs) < 2:
        return [], cs
    c0, c1, c2 = cs
    y = gf.artin_schreier()[gf.div(gf.mul(c0, c2), gf.mul(c1, c1))]
    if y is None:
        return [], cs
    s = gf.div(c1, c2)
    return sorted([(gf.mul(s, y), 1), (gf.mul(s, y ^ 1), 1)]), [c2]


def _horner_roots(cs: list, gf: GF) -> tuple[list, list]:
    """``roots`` by a scan over the nonzero field elements, on ascending
    coefficients with a nonzero constant term."""
    log, exp, n = gf.log, gf.exp, gf.q - 1
    cs = cs[::-1]                       # descending
    found = []
    for alpha in range(1, gf.q):
        if len(cs) <= 1:
            break
        k = 0
        while len(cs) > 1:
            # Horner's partial sums are the quotient by X + alpha, then
            # the value at alpha
            sums, acc = [], 0
            for c in cs:
                if acc:
                    acc = exp[(log[acc] + log[alpha]) % n]
                acc ^= c
                sums.append(acc)
            if acc:
                break
            cs = sums[:-1]
            k += 1
        if k:
            found.append((alpha, k))
    return found, cs[::-1]


# ----- linear factors -----------------------------------------------------


def is_smooth_conic(conic: MPoly) -> bool:
    """Whether a form is a smooth conic.

    In char 2 the partials of a x^2+b y^2+c z^2+d yz+e xz+f xy vanish
    together only at (d:e:f), so the conic is smooth iff (d,e,f) != 0 and
    the conic does not vanish there: a d^2+b e^2+c f^2+d e f != 0."""
    if conic.total_degree() != 2 or not conic.is_homogeneous():
        return False
    vertex = [conic.coeff(e) for e in ((0, 1, 1), (1, 0, 1), (1, 1, 0))]
    return any(vertex) and bool(conic.eval_point(dict(zip(conic.vars,
                                                          vertex))))


def peel_lines(form: MPoly, gf: GF, lines: list):
    """Linear factors of a form over gf, with multiplicities, given the
    candidate lines as triples (a, b, c) of a x + b y + c z over gf.

    Each candidate is confirmed by division.  A line that does not divide
    the cofactor divides none of its quotients, so each candidate is
    tried once, to its multiplicity.  Returns ({line triple:
    multiplicity}, cofactor), both over gf: lines over an extension stay
    in the cofactor.
    """
    found, rem, deg = {}, form, form.total_degree()
    for t in lines:
        if deg == 0:
            break
        line = line_form(gf, t)
        while deg and (q := rem.divide(line)) is not None:
            found[t] = found.get(t, 0) + 1
            rem, deg = q, deg - 1
    return found, rem
