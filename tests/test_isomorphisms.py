"""Witness application and verification for families III, IV, V."""

import pytest

from quarticfibres.errors import (ConstraintViolation, EpsilonZero,
                                  SubstitutionMismatch)
from quarticfibres.families import (FamilyTag, build_family, invariant,
                                    make_params)
from quarticfibres.finitefield import GF, FieldSpec
from quarticfibres.isomorphisms import (MU_NAMES, IsoWitness, apply_iso,
                                        identity_witness, make_witness,
                                        verify_iso)
from quarticfibres.mpoly import FORM_VARS, MPoly
from quarticfibres.parser import parse_element
from quarticfibres.sampling import random_params, random_witness, rng_for
from quarticfibres.scalars import KDomain, ScalarK
from quarticfibres.upoly import UPoly

F2 = GF.get(1)
F4 = GF.get(2)
SPEC2 = FieldSpec(1)
SPEC4 = FieldSpec(2)


def _p(text):
    return parse_element(text, SPEC2)


def _m3(a="t", b="1", c="1", d="0"):
    return build_family(make_params(
        FamilyTag.III, F2, a=_p(a), b=_p(b), c=_p(c), d=_p(d)))


# (ez, ey, L) per family: z' and y' carry 1/(eps^ez dd) and 1/(eps^ey dd),
# and L = max over the quartic monomials y^i z^j of ey*i + ez*j
_REFERENCE_EPS = {FamilyTag.III: (3, 2, 12), FamilyTag.IV: (2, 2, 8),
                  FamilyTag.V: (1, 1, 4)}


def _eps_gamma_over_k(w, params):
    """eps and gamma in K-arithmetic: every product and sum is a reduced
    fraction."""
    if w.tag is not params.tag:
        raise ConstraintViolation(
            f"witness is for family {w.tag}, model is family {params.tag}")
    m4, m5 = w.mus[2], w.mus[3]
    lever = params.a if w.tag is FamilyTag.III else params.b
    eps = m4.square() + m5.square() * lever
    if not eps:
        raise EpsilonZero("mu4 = mu5 = 0 gives no fractional-linear map")
    gamma = (w.mus[0].square() + w.mus[1].square() * lever) / eps
    return eps, gamma


def _apply_over_k(m, w):
    """The target model with its parameters computed in K-arithmetic."""
    p = m.params
    a, b, c, d = p.a, p.b, p.c, p.d
    eps, gamma = _eps_gamma_over_k(w, p)
    gf = p.gf
    if w.tag is FamilyTag.III:
        mu3, mu4, mu5 = w.mu("mu3"), w.mu("mu4"), w.mu("mu5")
        k = mu4 * mu5 + mu3.square()
        target = make_params(
            FamilyTag.III, gf,
            a=(a + gamma.square()) / eps ** 6,
            b=b / eps ** 3,
            c=eps * c,
            d=(eps * k.square() * b + eps.square() * k
               + eps.square() * (mu5.square() * b.square() * c ** 3 + eps * d)))
    elif w.tag is FamilyTag.IV:
        mu2, mu4, mu5 = w.mu("mu2"), w.mu("mu4"), w.mu("mu5")
        cross = eps * mu4 * mu5 + mu2 ** 4
        hull = c + a * b.square()
        target = make_params(
            FamilyTag.IV, gf,
            a=eps.square() * a + cross + mu5 ** 4 * hull,
            b=b / eps ** 4,
            c=(c + gamma.square() + cross * b.square() / eps.square()
               + mu5 ** 4 * hull * b.square() / eps.square()) / eps ** 6)
    else:
        mu3, mu4, mu5 = w.mu("mu3"), w.mu("mu4"), w.mu("mu5")
        big = b + gamma.square()
        k = mu3.square() + mu4 * mu5
        target = make_params(
            FamilyTag.V, gf,
            a=eps.square() * a * b.square() / big.square(),
            b=big / eps.square(),
            c=(eps.square() * (c + a) + (k + eps * d) * k
               + a * b.square() * (mu5 ** 4 + eps.square() / big.square())),
            d=eps * d)
    return build_family(target)


def _map_nums_over_k(w, source):
    """The numerators zn and yn of the fractional-linear maps, with K
    coefficients; z' = zn / (eps^ez dd) and y' = yn / (eps^ey dd)."""
    eps, gamma = _eps_gamma_over_k(w, source)
    dom = KDomain.get(source.gf)
    y = MPoly.var(FORM_VARS, dom, "y")
    z = MPoly.var(FORM_VARS, dom, "z")
    m4, m5 = w.mus[2], w.mus[3]
    lever = source.a if w.tag is FamilyTag.III else source.b
    dd = MPoly.const(FORM_VARS, dom, m4) + z.scale(m5)
    pp = MPoly.const(FORM_VARS, dom, m5 * lever) + z.scale(m4)
    if w.tag is FamilyTag.IV:
        zn = pp
        yn = dd.scale(w.mu("mu1")) + pp.scale(w.mu("mu2")) + y.scale(eps)
    else:
        zn = dd.scale(gamma) + pp
        yn = dd.scale(w.mu("mu2")) + pp.scale(w.mu("mu3")) + y.scale(eps)
    return zn, yn


def _replay_over_k(source, target, w):
    """The substitution replayed term by term in K-arithmetic: every
    coefficient product and sum is a reduced fraction."""
    zn, yn = _map_nums_over_k(w, source.params)
    eps, _ = _eps_gamma_over_k(w, source.params)
    gf = source.params.gf
    dom = KDomain.get(gf)
    ez, ey, lcd = _REFERENCE_EPS[w.tag]
    dd = (MPoly.const(FORM_VARS, dom, w.mus[2])
          + MPoly.var(FORM_VARS, dom, "z").scale(w.mus[3]))
    one = MPoly.const(FORM_VARS, dom, ScalarK.one(gf))
    ypow, zpow, dpow = [one], [one], [one]
    for _ in range(4):
        ypow.append(ypow[-1] * yn)
        zpow.append(zpow[-1] * zn)
        dpow.append(dpow[-1] * dd)
    lifted = MPoly.zero(FORM_VARS, dom)
    for e, coeff in target.form.dehomogenize("x").terms.items():
        i, j = e[1], e[2]
        lifted = lifted + (ypow[i] * zpow[j] * dpow[4 - i - j]).scale(
            coeff * eps ** (lcd - ey * i - ez * j))
    src = source.form.dehomogenize("x")
    y4 = (0, 4, 0)
    s = lifted.coeff(y4) / src.coeff(y4)
    if not s or lifted != src.scale(s):
        raise SubstitutionMismatch(
            f"substituted target quartic is not a scalar multiple of the source "
            f"(family {w.tag})", residual=str(lifted + src.scale(s)))
    return s


def _outcome(replay, *args):
    try:
        return replay(*args)
    except (SubstitutionMismatch, ConstraintViolation, EpsilonZero) as exc:
        return type(exc), str(exc), getattr(exc, "residual", None)


def test_identity_is_a_fixed_point():
    for model in (_m3(),
                  build_family(make_params(FamilyTag.IV, F2, b=_p("t"))),
                  build_family(make_params(FamilyTag.V, F2, a=_p("t"),
                                           b=_p("t"), d=_p("1")))):
        w = identity_witness(model.tag, F2)
        out = apply_iso(model, w)
        assert out.params == model.params
        assert verify_iso(model, out, w) == _p("1")


def test_known_iv_image():
    src = build_family(make_params(FamilyTag.IV, F2, b=_p("t")))
    w = make_witness(FamilyTag.IV, F2, mu2=_p("1"), mu4=_p("1"))
    tgt = apply_iso(src, w)
    assert (tgt.params.a, tgt.params.b, tgt.params.c) == \
        (_p("1"), _p("t"), _p("0"))
    assert verify_iso(src, tgt, w) == _p("1")


def test_epsilon_zero_rejected():
    src = _m3()
    w = make_witness(FamilyTag.III, F2, mu2=_p("1"), mu3=_p("t"))
    with pytest.raises(EpsilonZero):
        apply_iso(src, w)
    with pytest.raises(ConstraintViolation,
                       match="^witness is for family IV, model is family III$"):
        apply_iso(src, identity_witness(FamilyTag.IV, F2))


def test_wrong_pairing_fails_verification():
    src = _m3()
    w = make_witness(FamilyTag.III, F2, mu4=_p("1"), mu5=_p("1"))
    tgt = apply_iso(src, w)
    assert verify_iso(src, tgt, w)
    other = _m3(d="t")
    with pytest.raises(SubstitutionMismatch):
        verify_iso(other, tgt, w)
    # the same errors, messages and residuals as the replay over K
    v = build_family(make_params(FamilyTag.V, F2, a=_p("t"), b=_p("t"),
                                 d=_p("1")))
    for case, error in (((other, tgt, w), SubstitutionMismatch),
                        ((src, v, w), SubstitutionMismatch),
                        ((v, tgt, w), ConstraintViolation),
                        ((src, tgt, make_witness(FamilyTag.III, F2,
                                                 mu2=_p("1"))), EpsilonZero)):
        got = _outcome(verify_iso, *case)
        assert got[0] is error
        assert got == _outcome(_replay_over_k, *case)


def test_invariant_is_preserved():
    rng = rng_for(123, "iso-invariants")
    for tag in (FamilyTag.III, FamilyTag.V):
        for _ in range(25):
            params = random_params(rng, tag, F2)
            src = build_family(params)
            w = random_witness(rng, tag, F2)
            tgt = apply_iso(src, w)
            assert verify_iso(src, tgt, w)
            assert invariant(src) == invariant(tgt)
            # target parameters satisfy the same constraint clauses:
            # build_family inside apply_iso would have raised otherwise
            assert tgt.params.tag is tag


def test_composition_reaches_back():
    # mu4 scalings are invertible: (mu4=s) then (mu4=1/s) is the identity
    src = _m3(a="t", b="t", c="t+1")
    s = _p("t+1")
    w1 = make_witness(FamilyTag.III, F2, mu4=s)
    w2 = make_witness(FamilyTag.III, F2, mu4=s.inverse())
    mid = apply_iso(src, w1)
    back = apply_iso(mid, w2)
    assert back.params == src.params


def test_witness_shapes():
    assert MU_NAMES[FamilyTag.IV][0] == "mu1"
    assert MU_NAMES[FamilyTag.III] == ("mu2", "mu3", "mu4", "mu5")
    w = identity_witness(FamilyTag.V, F2)
    assert w.mu("mu4") == _p("1") and not w.mu("mu5")
    assert w.as_dict()["tag"] == "V"
    with pytest.raises(Exception):
        IsoWitness(FamilyTag.I, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        IsoWitness(FamilyTag.III, (_p("1"),))


def test_replay_matches_k_arithmetic_reference():
    def apply_params(m, w):
        return apply_iso(m, w).params

    def reference_params(m, w):
        return _apply_over_k(m, w).params
    for gf, n in ((F2, 40), (F4, 40), (GF.get(3), 12), (GF.get(9), 8)):
        t = ScalarK.t(gf)
        rng = rng_for(5, f"iso-reference-{gf.q}")
        other_rng = rng_for(5, f"iso-reference-other-{gf.q}")
        models = [build_family(random_params(other_rng, tag, gf))
                  for tag in (FamilyTag.III, FamilyTag.IV)]
        for tag in (FamilyTag.III, FamilyTag.IV, FamilyTag.V):
            for k in range(n):
                params = random_params(rng, tag, gf)
                w = random_witness(rng, tag, gf)
                src = build_family(params)
                tgt = apply_iso(src, w)
                assert tgt.params == _apply_over_k(src, w).params
                s = verify_iso(src, tgt, w)
                assert s and s == _replay_over_k(src, tgt, w)
                if k % 4:
                    continue
                # the same errors and messages as the K-arithmetic apply:
                # no map (mu4 = mu5 = 0) and a model of another family
                mus = list(w.mus)
                mus[2] = mus[3] = ScalarK.zero(gf)
                other = next(o for o in models if o.tag is not tag)
                for case, error in (((src, IsoWitness(tag, tuple(mus))),
                                     EpsilonZero),
                                    ((other, w), ConstraintViolation)):
                    got = _outcome(apply_params, *case)
                    assert got[0] is error
                    assert got == _outcome(reference_params, *case)
                # a perturbed witness and a perturbed source
                mus = list(w.mus)
                i = MU_NAMES[tag].index("mu2")
                mus[i] = mus[i] + ScalarK.one(gf)
                bad_w = IsoWitness(tag, tuple(mus))
                name = "c" if tag is FamilyTag.IV else "d"
                moved = getattr(params, name) + t
                cases = [(src, tgt, bad_w)]
                if moved:
                    cases.append((build_family(make_params(tag, gf, **{
                        n: moved if n == name else getattr(params, n)
                        for n in "abcd"})), tgt, w))
                for case in cases:
                    got = _outcome(verify_iso, *case)
                    assert got[0] is SubstitutionMismatch
                    assert got == _outcome(_replay_over_k, *case)


def _fixed_f4_case():
    p = lambda text: parse_element(text, SPEC4)
    src = build_family(make_params(
        FamilyTag.III, F4, a=p("(t^2+g)/(t+1)"), b=p("t+g"), c=p("1/t"),
        d=p("t^2")))
    w = make_witness(FamilyTag.III, F4, mu2=p("g*t"), mu3=p("1/(t+g)"),
                     mu4=p("t+1"), mu5=p("g"))
    return src, w


def _gcd_calls(monkeypatch, f, *args):
    """f(*args) and the number of UPoly gcds it takes."""
    calls = []
    gcd = UPoly.gcd

    def counted(self, other):
        calls.append(other)
        return gcd(self, other)
    monkeypatch.setattr(UPoly, "gcd", counted)
    try:
        return f(*args), len(calls)
    finally:
        monkeypatch.undo()


def test_replay_reduces_few_fractions(monkeypatch):
    # a machine-independent work count: the replay in K-arithmetic makes
    # about 600 gcds here, one or two per coefficient product and sum
    src, w = _fixed_f4_case()
    tgt = apply_iso(src, w)
    s, calls = _gcd_calls(monkeypatch, verify_iso, src, tgt, w)
    assert s == _replay_over_k(src, tgt, w)
    assert calls <= 64


def test_apply_reduces_few_fractions(monkeypatch):
    # the same count for apply_iso: computing the target parameters in
    # K-arithmetic and building the target form makes 74 gcds here;
    # reducing each parameter once makes 22, most of them in build_family
    src, w = _fixed_f4_case()
    tgt, calls = _gcd_calls(monkeypatch, apply_iso, src, w)
    assert tgt.params == _apply_over_k(src, w).params
    assert calls <= 30


def test_witness_runs_on_packed_ints(monkeypatch):
    # a machine-independent work count: the fractions and the replay run on
    # the packed GF(q)[t] ints that UPoly wraps, so verify_iso substitutes
    # with no MPoly and makes a UPoly only to divide and to return; over
    # UPoly objects and MPoly.substitute it made 193 UPoly products and 317
    # UPoly constructions here, and apply_iso 65 products
    src, w = _fixed_f4_case()
    calls = dict.fromkeys(("substitute", "mul", "init"), 0)

    def counted(cls, name, key):
        method = getattr(cls, name)

        def wrapper(*args):
            calls[key] += 1
            return method(*args)
        monkeypatch.setattr(cls, name, wrapper)
    counted(MPoly, "substitute", "substitute")
    counted(UPoly, "__mul__", "mul")
    counted(UPoly, "__init__", "init")
    tgt = apply_iso(src, w)
    assert calls["substitute"] == 0 and calls["mul"] < 65
    calls.update(dict.fromkeys(calls, 0))
    s = verify_iso(src, tgt, w)
    work = dict(calls)
    monkeypatch.undo()
    assert s == _replay_over_k(src, tgt, w)
    assert work["substitute"] == 0
    assert work["mul"] <= 20
    assert work["init"] <= 100
