"""Tower presentations: validation, normal form, model maps, relations."""

import pytest

from quarticfibres.errors import ConstraintViolation, Hyperelliptic
from quarticfibres.families import FamilyTag
from quarticfibres.finitefield import GF, FieldSpec
from quarticfibres.mpoly import MPoly
from quarticfibres.parser import parse_element
from quarticfibres.scalars import ScalarK
from quarticfibres.tower import (CONST_NAMES, TowerKind, eliminate_to_breve,
                                 invert_model_map, is_nonhyperelliptic,
                                 make_tower, normalize_presentation,
                                 printed_breve_relation, to_quartic_model,
                                 validate_presentation,
                                 verify_breve_relation)

F2 = GF.get(1)
SPEC2 = FieldSpec(1)


def _p(text):
    return parse_element(text, SPEC2)


def _tower_a(c0="0", c1="1", A2="t", B0="0", B1="1"):
    return make_tower(TowerKind.A, F2, c0=_p(c0), c1=_p(c1), A2=_p(A2),
                      B0=_p(B0), B1=_p(B1))


def test_validate_counts_and_errors():
    validate_presentation(_tower_a())
    b = make_tower(TowerKind.B, F2, a2=_p("t"), b0=_p("1"), b2=_p("t"))
    validate_presentation(b)
    c = make_tower(TowerKind.C, F2, a0=_p("1"), a2=_p("t"), b1=_p("t"),
                   c3=_p("0"), c4=_p("1"))
    validate_presentation(c)
    d = make_tower(TowerKind.D, F2, a0=_p("1"), a2=_p("t"), c0=_p("0"),
                   c2=_p("t^3"))
    validate_presentation(d)

    with pytest.raises(ConstraintViolation):
        validate_presentation(_tower_a(c1="0"))
    with pytest.raises(ConstraintViolation):
        validate_presentation(_tower_a(A2="t^2"))
    with pytest.raises(ConstraintViolation):
        validate_presentation(
            make_tower(TowerKind.B, F2, a2=_p("1"), b0=_p("0"), b2=_p("0")))
    with pytest.raises(ConstraintViolation):
        validate_presentation(
            make_tower(TowerKind.C, F2, a0=_p("0"), a2=_p("t"),
                       b1=_p("t^2"), c3=_p("0"), c4=_p("1")))
    with pytest.raises(ConstraintViolation):
        # c2/a2 = t not a square
        validate_presentation(
            make_tower(TowerKind.D, F2, a0=_p("0"), a2=_p("t"),
                       c0=_p("0"), c2=_p("t^2")))


def test_nonhyperelliptic_gate():
    assert is_nonhyperelliptic(_tower_a())
    assert not is_nonhyperelliptic(_tower_a(B1="0"))
    b = make_tower(TowerKind.B, F2, a2=_p("t"), b0=_p("0"), b2=_p("0"))
    assert is_nonhyperelliptic(b)
    c = make_tower(TowerKind.C, F2, a0=_p("0"), a2=_p("t"), b1=_p("t"),
                   c3=_p("1"), c4=_p("0"))
    assert not is_nonhyperelliptic(c)
    d = make_tower(TowerKind.D, F2, a0=_p("0"), a2=_p("t"), c0=_p("0"),
                   c2=_p("t^3"))
    assert not is_nonhyperelliptic(d)


def test_normalize_kills_free_constant():
    p = _tower_a(c0="t", B0="t+1", B1="1")
    q = normalize_presentation(p)
    assert not q.const("B0")
    # the shift only moves c0; the other constants are untouched
    assert q.const("c1") == p.const("c1")
    assert q.const("A2") == p.const("A2")
    assert q.const("B1") == p.const("B1")
    validate_presentation(q)
    with pytest.raises(Hyperelliptic):
        normalize_presentation(_tower_a(B0="1", B1="0"))
    # kind C: c3 is the free constant
    c = make_tower(TowerKind.C, F2, a0=_p("1"), a2=_p("t"), b1=_p("t"),
                   c3=_p("t"), c4=_p("1"))
    assert not normalize_presentation(c).const("c3")


def test_model_map_formulas():
    p = _tower_a(c0="t", c1="t+1", A2="t", B0="0", B1="t")
    params = to_quartic_model(p)
    assert params.tag is FamilyTag.III
    c0, c1, A2, B1 = (_p(s) for s in ("t", "t+1", "t", "t"))
    assert params.a == A2
    assert params.b == (c1.square() * B1).inverse()
    assert params.c == c1 * B1
    assert params.d == B1 * c0

    b = make_tower(TowerKind.B, F2, a2=_p("t"), b0=_p("t+1"), b2=_p("1"))
    pb = to_quartic_model(b)
    assert pb.tag is FamilyTag.IV
    assert pb.a == _p("t+1")
    assert pb.b == _p("t")
    assert pb.c == _p("1") + _p("t+1") * _p("t^2")

    c = make_tower(TowerKind.C, F2, a0=_p("1"), a2=_p("t"), b1=_p("t"),
                   c3=_p("0"), c4=_p("1"))
    pc = to_quartic_model(c)
    assert pc.tag is FamilyTag.V
    a0, a2, b1, c4 = (_p(s) for s in ("1", "t", "t", "1"))
    assert pc.a == c4.square() / (a2 * b1.square())
    assert pc.b == b1
    assert pc.c == (a0 + b1.square().inverse()) * c4.square() / a2
    assert pc.d == c4 / a2

    with pytest.raises(Hyperelliptic):
        to_quartic_model(_tower_a(B1="0"))
    with pytest.raises(Hyperelliptic):
        to_quartic_model(make_tower(TowerKind.D, F2, a0=_p("0"), a2=_p("t"),
                                    c0=_p("0"), c2=_p("t^3")))


def test_invert_model_map_roundtrip():
    for consts in (("0", "1", "t", "0", "1"),
                   ("t", "t+1", "t^3", "0", "t"),
                   ("1/t", "t", "t+1/t", "0", "t^2+1")):
        p = _tower_a(*consts)
        if not _p(consts[2]).is_square():
            q = invert_model_map(to_quartic_model(p))
            assert q == p


def test_breve_relation():
    p = _tower_a(c0="1", c1="1", A2="t", B0="0", B1="1")
    rel = printed_breve_relation(p)
    assert rel.total_degree() == 4
    assert verify_breve_relation(p)
    assert eliminate_to_breve(p).total_degree() == 4
    # a perturbed relation must be rejected
    wrong = rel + MPoly.const(rel.vars, rel.domain, ScalarK.one(F2))
    assert not verify_breve_relation(p, printed=wrong)
    with pytest.raises(Hyperelliptic):
        printed_breve_relation(_tower_a(B1="0"))

    b = make_tower(TowerKind.B, F2, a2=_p("t"), b0=_p("1"), b2=_p("t"))
    assert verify_breve_relation(b)
    c = make_tower(TowerKind.C, F2, a0=_p("1"), a2=_p("t"), b1=_p("t"),
                   c3=_p("t"), c4=_p("1"))
    assert verify_breve_relation(c)


def test_const_names_cover_all_kinds():
    for kind, names in CONST_NAMES.items():
        zeros = {n: ScalarK.zero(F2) for n in names}
        p = make_tower(kind, F2, **zeros)
        assert tuple(p.as_dict())[1:] == names
