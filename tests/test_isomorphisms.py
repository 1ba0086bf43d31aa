"""Witness application and verification for families III, IV, V."""

import pytest

from quarticfibres.errors import (ConstraintViolation, EpsilonZero,
                                  SubstitutionMismatch)
from quarticfibres.families import (FamilyTag, build_family, invariant,
                                    make_params)
from quarticfibres.finitefield import GF, FieldSpec
from quarticfibres.isomorphisms import (MU_NAMES, IsoWitness, apply_iso,
                                        epsilon_gamma, identity_witness,
                                        iso_maps, make_witness,
                                        search_automorphisms, verify_iso)
from quarticfibres.parser import parse_element
from quarticfibres.sampling import random_params, random_witness, rng_for

F2 = GF.get(1)
SPEC2 = FieldSpec(1)


def _p(text):
    return parse_element(text, SPEC2)


def _m3(a="t", b="1", c="1", d="0"):
    return build_family(make_params(
        FamilyTag.III, F2, a=_p(a), b=_p(b), c=_p(c), d=_p(d)))


def test_identity_is_a_fixed_point():
    for model in (_m3(),
                  build_family(make_params(FamilyTag.IV, F2, b=_p("t"))),
                  build_family(make_params(FamilyTag.V, F2, a=_p("t"),
                                           b=_p("t"), d=_p("1")))):
        w = identity_witness(model.tag, F2)
        out = apply_iso(model, w)
        assert out.params == model.params
        assert iso_maps(w, model.params).is_identity()
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
    with pytest.raises(ConstraintViolation):
        epsilon_gamma(identity_witness(FamilyTag.IV, F2), src.params)


def test_wrong_pairing_fails_verification():
    src = _m3()
    w = make_witness(FamilyTag.III, F2, mu4=_p("1"), mu5=_p("1"))
    tgt = apply_iso(src, w)
    assert verify_iso(src, tgt, w)
    other = _m3(d="t")
    with pytest.raises(SubstitutionMismatch):
        verify_iso(other, tgt, w)


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


def test_no_spurious_automorphisms():
    rng = rng_for(7, "aut-search")
    m = _m3()

    def sample():
        return random_witness(rng, FamilyTag.III, F2)

    assert search_automorphisms(m, sample, 40) == []


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
