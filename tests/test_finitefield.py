import pickle

import pytest

from quarticfibres import gf2x
from quarticfibres.finitefield import GF, FieldSpec, GFElem


def test_cached_instances(monkeypatch):
    assert GF.get(2) is GF.get(2)
    assert GF.get(4) is not GF.get(4, 0b11001)  # other modulus
    # the default modulus given explicitly is the same field, whichever
    # form is asked for first
    assert GF.get(5) is GF.get(5, gf2x.first_irreducible(5))
    assert GF.get(7, gf2x.first_irreducible(7)) is GF.get(7)
    # a cached field is found without searching for the modulus again
    f4 = GF.get(2)

    def no_search(m):
        raise AssertionError("default modulus searched on a cache hit")
    monkeypatch.setattr(gf2x, "first_irreducible", no_search)
    assert GF.get(2) is f4


def test_f4_tables():
    f4 = GF.get(2)
    # g^2 = g + 1 for the canonical modulus u^2+u+1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.inv(2) == 3
    for a in range(1, 4):
        assert f4.mul(a, f4.inv(a)) == 1
        assert f4.pow(a, 3) == 1  # multiplicative order divides q-1


def test_mul_commutes_distributes():
    f8 = GF.get(3)
    for a in range(8):
        for b in range(8):
            assert f8.mul(a, b) == f8.mul(b, a)
            for c in range(8):
                assert f8.mul(a, b ^ c) == f8.mul(a, b) ^ f8.mul(a, c)


def test_sqrt_fourth_root():
    for m in (1, 2, 3, 4):
        gf = GF.get(m)
        for a in range(gf.q):
            s = gf.sqrt(a)
            assert gf.mul(s, s) == a  # squaring is a bijection here
            r = gf.fourth_root(a)
            assert gf.pow(r, 4) == a


def test_embedding_is_a_hom():
    f2, f4, f16 = GF.get(1), GF.get(2), GF.get(4)
    emb = f4.embedding_into(f16)
    assert emb[0] == 0 and emb[1] == 1
    for a in range(4):
        for b in range(4):
            assert emb[f4.mul(a, b)] == f16.mul(emb[a], emb[b])
            assert emb[a ^ b] == emb[a] ^ emb[b]
    with pytest.raises(Exception):
        f4.embedding_into(GF.get(3))  # 2 does not divide 3
    assert f2.embedding_into(f4)[1] == 1


def test_elem_wrapper():
    f4 = GF.get(2)
    g = GFElem(f4, 2)
    assert g * g == GFElem(f4, 3)
    assert g + g == GFElem(f4, 0)
    assert not (g + g)
    assert g ** 3 == f4.one_elem()
    assert str(g) == "g"
    assert str(g * g) == "g+1"
    assert g / g == f4.one_elem()


def test_field_spec():
    assert FieldSpec(1).field() is GF.get(1)
    spec = FieldSpec(4)
    d = spec.describe()
    assert d["q"] == 16 and d["m"] == 4
    assert FieldSpec(2) == FieldSpec(2)
    assert pickle.loads(pickle.dumps(GF.get(3))) is GF.get(3)
