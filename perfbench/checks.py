"""Answer checks, run outside the timed region.

Each check returns None for a correct answer or a one-line reason.  They
test closed-form facts from the paper, never stored outputs:

* a fibre in a degenerate stratum gets its class (pi3 b=0 a conic plus a
  double line, pi5 d=0 a double conic, pi4 b=0 an integral quartic of
  multiplicity 3);
* an integral fibre carries the closed-form singular point, which really is
  singular, with delta 3 and the multiplicity of the acceptance battery's
  criterion.  A scan cap that quietly reports "smooth" fails here, and so
  does a reducible fibre reported as integral: by the genus bound an
  integral quartic has delta at most 3;
* a reducible answer multiplies back to the form up to a nonzero scalar,
  once its printed components are parsed;
* a witness replay returns a nonzero scale and, for III and V, keeps the
  family invariant.
"""

DEGENERATE_KIND = {"pi3": "ConicPlusDoubleLine", "pi4": "IntegralQuartic",
                   "pi5": "DoubleConic"}


def _mult3(gf, fibration, point):
    """Whether the acceptance battery expects multiplicity 3."""
    if fibration == "pi3":
        _, b, c, _ = point
        return gf.mul(b, gf.pow(c, 3)) == 1
    if fibration == "pi5":
        a, b, _, d = point
        return gf.mul(gf.mul(a, gf.pow(b, 2)), gf.pow(d, 2)) == 1
    return point[1] == 0


def _normalized(point):
    pivot = next(c for c in point if c)
    return tuple((c / pivot).v for c in point)


def _check_integral(pkg, inp, curve, cls):
    if cls.sing_point is None:
        return "integral answer without a singular point"
    pred = pkg.fibres.predicted_singular_point(inp.fibration, inp.point,
                                               inp.spec)
    form = curve.form
    at = dict(zip(form.vars, pred))
    for f in (form, *(form.partial(v) for v in form.vars)):
        if f.eval_point(at):
            return "closed-form singular point does not verify"
    if cls.ext != 1 or cls.sing_point[0].gf is not pred[0].gf:
        return f"singular point reported over extension {cls.ext}"
    if _normalized(cls.sing_point) != _normalized(pred):
        return (f"singular point {_normalized(cls.sing_point)},"
                f" predicted {_normalized(pred)}")
    if cls.delta != 3:
        return f"delta {cls.delta}"
    want = 3 if _mult3(curve.gf, inp.fibration, inp.point) else 2
    if cls.multiplicity != want:
        return f"multiplicity {cls.multiplicity}, expected {want}"
    return None


def _multiplies_back(pkg, form, components, m):
    spec = pkg.finitefield.FieldSpec(m)
    big = spec.field()
    prod = None
    for text, mult in components:
        part = pkg.parser.parse_form(text, spec, over="GF").pow(mult)
        prod = part if prod is None else prod * part
    small = form.domain
    table = range(big.q) if big is small else small.embedding_into(big)
    target = {e: table[c.v] for e, c in form.terms.items()}
    if set(prod.terms) != set(target):
        return False
    e0 = next(iter(target))
    scale = big.div(prod.terms[e0].v, target[e0])
    return scale != 0 and all(prod.terms[e].v == big.mul(scale, v)
                              for e, v in target.items())


def _check_reducible(pkg, curve, cls, max_ext=2):
    if not cls.components:
        return f"{cls.kind} answer without components"
    m = curve.gf.m
    # Components are printed over the field the cascade worked in, which
    # the answer does not name when line peeling extended the field:
    # try the reported extension, then the largest one searched.
    for r in dict.fromkeys((cls.ext, max_ext)):
        try:
            if _multiplies_back(pkg, curve.form, cls.components, m * r):
                return None
        except pkg.errors.QuarticError:
            continue
    return "components do not multiply back to the form"


def check_fibre(pkg, inp, result):
    curve, cls = result
    if inp.degenerate and cls.kind != DEGENERATE_KIND[inp.fibration]:
        return f"degenerate stratum classified {cls.kind}"
    if cls.kind == "IntegralQuartic":
        return _check_integral(pkg, inp, curve, cls)
    return _check_reducible(pkg, curve, cls)


def check_witness(pkg, inp, result):
    scale, inv_src, inv_tgt = result
    if not scale:
        return "zero scale"
    if inp.tag in ("III", "V") and (inv_src is None or inv_src != inv_tgt):
        return f"invariant moved: {inv_src} -> {inv_tgt}"
    return None


def check(pkg, workload, inp, result):
    if workload.kind == "fibre":
        return check_fibre(pkg, inp, result)
    return check_witness(pkg, inp, result)
