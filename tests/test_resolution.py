"""Base-locus resolution of the two pencils: counts, divisors,
intersection numbers, fibre labels and the inseparable covering."""

import pytest

from quarticfibres import kernels
from quarticfibres.errors import (ConstraintViolation, IdentityFailed,
                                  NonRationalCenter, UnknownCurve, ZeroForm)
from quarticfibres.finitefield import FieldSpec
from quarticfibres.parser import parse_form
from quarticfibres.plane import raw_terms
from quarticfibres.resolution import (PENCILS, PencilSpec, covering_check,
                                      cubic_pencil, dynkin_type,
                                      quartic_pencil, resolve_pencil)

RQ = resolve_pencil(quartic_pencil())
RC = resolve_pencil(cubic_pencil())


def test_blowup_counts():
    assert RQ.blowup_counts() == {"(1:0:0)": 4, "(0:0:1)": 12}
    assert RC.blowup_counts() == {"(1:0:0)": 2, "(0:1:0)": 7}


# (nid, parent, chart, mu, m0, m1, prox, tracked) per blow-up: the chart
# path is read from the base point, A[b] for the direction v = b u and B
# for u = 0
NODES = {
    "quartic": [
        ("E1", None, "-", 1, 3, 1, (), {"W": 3, "Z": 1}),
        ("E2", "E1", "A", 1, 3, 1, ("E1",), {"W": 1, "Z": 1}),
        ("E3", "E2", "AA", 1, 2, 1, ("E2",), {"Z": 1}),
        ("E4", "E3", "AAA", 1, 1, 1, ("E3",), {"Z": 1}),
        ("F1", None, "-", 1, 1, 3, (), {"W": 1, "X": 1}),
        ("F2", "F1", "B", 1, 1, 5, ("F1",), {"W": 1, "X": 1}),
        ("F3", "F2", "BB", 1, 1, 7, ("F2",), {"W": 1, "X": 1}),
        ("F4", "F3", "BBB", 1, 1, 9, ("F3",), {"W": 1, "X": 1}),
        ("F5", "F4", "BBBA[1]", 1, 1, 8, ("F4",), {"W": 1}),
        ("F6", "F5", "BBBA[1]A", 1, 1, 7, ("F5",), {"W": 1}),
        ("F7", "F6", "BBBA[1]AA", 1, 1, 6, ("F6",), {"W": 1}),
        ("F8", "F7", "BBBA[1]AAA", 1, 1, 5, ("F7",), {"W": 1}),
        ("F9", "F8", "BBBA[1]AAAA", 1, 1, 4, ("F8",), {"W": 1}),
        ("F10", "F9", "BBBA[1]AAAAA", 1, 1, 3, ("F9",), {"W": 1}),
        ("F11", "F10", "BBBA[1]AAAAAA", 1, 1, 2, ("F10",), {"W": 1}),
        ("F12", "F11", "BBBA[1]AAAAAAA", 1, 1, 1, ("F11",), {"W": 1}),
    ],
    "cubic": [
        ("E1", None, "-", 1, 2, 1, (), {"W": 2, "Z": 1}),
        ("E2", "E1", "A", 1, 1, 1, ("E1",), {"Z": 1}),
        ("F1", None, "-", 1, 1, 3, (), {"W": 1, "X": 1, "Z": 1}),
        ("F2", "F1", "B", 1, 1, 4, ("F1",), {"W": 1, "X": 1}),
        ("F3", "F2", "BB", 1, 1, 5, ("F2",), {"W": 1, "X": 1}),
        ("F4", "F3", "BBA[1]", 1, 1, 4, ("F3",), {"W": 1}),
        ("F5", "F4", "BBA[1]A", 1, 1, 3, ("F4",), {"W": 1}),
        ("F6", "F5", "BBA[1]AA", 1, 1, 2, ("F5",), {"W": 1}),
        ("F7", "F6", "BBA[1]AAA", 1, 1, 1, ("F6",), {"W": 1}),
    ],
}


@pytest.mark.parametrize("name, rep", [("quartic", RQ), ("cubic", RC)])
def test_node_table(name, rep):
    assert [(n.nid, n.parent, n.chart, n.mu, n.m0, n.m1, n.prox, n.tracked)
            for n in rep.nodes] == NODES[name]


def test_base_point_series():
    assert [(pt, s) for pt, s in RQ.base_points] == \
        [((1, 0, 0), "E"), ((0, 0, 1), "F")]
    assert [s for _, s in RC.base_points] == ["E", "F"]


def test_fibre_divisors():
    assert RQ.fibre_divisor((1, 0)) == \
        [("W", 1), ("E1", 2), ("E2", 2), ("E3", 1)]
    assert RQ.fibre_divisor((0, 1)) == \
        [("X", 3), ("Z", 1), ("F1", 2), ("F2", 4), ("F3", 6), ("F4", 8),
         ("F5", 7), ("F6", 6), ("F7", 5), ("F8", 4), ("F9", 3),
         ("F10", 2), ("F11", 1)]
    assert RC.fibre_divisor((0, 1)) == \
        [("X", 2), ("Z", 1), ("F1", 2), ("F2", 3), ("F3", 4), ("F4", 3),
         ("F5", 2), ("F6", 1)]
    assert RQ.fibre_divisor((1, 1)) == [("C(1:1)", 1)]
    assert RQ.generic_self_int() == 0
    with pytest.raises(ConstraintViolation):
        RQ.fibre_divisor((0, 0))


def test_intersection_matrix():
    ids = ["W", "E1", "E2", "E3"]
    assert RQ.intersection_matrix(ids) == [
        [-6, 2, 1, 0],
        [2, -2, 1, 0],
        [1, 1, -2, 1],
        [0, 0, 1, -2]]


def test_special_intersections():
    assert RQ.self_intersection("E4") == -1
    assert RQ.self_intersection("F12") == -1
    assert RQ.self_intersection("X") == -3
    assert RQ.self_intersection("Z") == -3
    for i in range(1, 12):
        assert RQ.self_intersection(f"F{i}") == -2
    assert RQ.intersection("W", "F12") == 1
    assert RQ.intersection("Z", "E4") == 1
    assert RQ.intersection("X", "Z") == 1
    assert RQ.intersection("X", "F4") == 1
    # chain adjacency in the F-series
    for i in range(1, 12):
        assert RQ.intersection(f"F{i}", f"F{i + 1}") == 1
    assert RQ.intersection("F1", "F3") == 0


def test_every_component_is_fibre_orthogonal():
    # D . (fibre) = 0 for every component D of a special fibre
    for rep in (RQ, RC):
        for member in ((1, 0), (0, 1)):
            div = rep.fibre_divisor(member)
            for cid in rep.curve_ids():
                total = sum(m * rep.intersection(cid, other)
                            for other, m in div)
                if any(cid == other for other, _ in div):
                    assert total == 0


def test_cubic_tangency():
    # the cuspidal member meets the first exceptional of its cusp twice
    assert RC.intersection("W", "E1") == 2
    assert RC.self_intersection("W") == -2
    assert RC.self_intersection("E1") == -2


def test_dynkin_labels():
    assert dynkin_type(RQ, ["E1", "E2", "E3"]) == "A3"
    assert dynkin_type(RQ, [f"F{i}" for i in range(1, 12)]) == "A11"
    assert dynkin_type(RC, ["W", "E1"]) == "A1~*"
    assert dynkin_type(RC, [c for c, _ in RC.fibre_divisor((0, 1))]) == "E7~"
    assert dynkin_type(RQ, ["W", "E1", "E2", "E3"]) == "Unrecognized"
    assert dynkin_type(RQ, ["F1"]) == "A1"
    assert dynkin_type(RQ, []) == "Unrecognized"


def test_unknown_curve_raises():
    with pytest.raises(UnknownCurve):
        RQ.intersection("W", "Q7")
    with pytest.raises(UnknownCurve):
        RQ.self_intersection("nope")


def test_covering_identities():
    out = covering_check()
    assert set(out) == {"member-0", "member-1", "W->W'", "Z->Z'", "X"}
    assert "degree 2" in out["W->W'"]
    with pytest.raises(IdentityFailed):
        covering_check(use_identity=True)


def test_pencil_validation():
    spec = FieldSpec(1)
    q = parse_form("y^4+x*z^3", spec, over="GF")
    with pytest.raises(ZeroForm):
        PencilSpec(q, q + q, spec)
    with pytest.raises(ConstraintViolation):
        PencilSpec(q, parse_form("x^2*z", spec, over="GF"), spec)
    with pytest.raises(Exception):
        PencilSpec(q, parse_form("x^4+x", spec, over="GF"), spec)


def test_irrational_base_point_detected():
    spec = FieldSpec(1)
    for f0, f1, match in (
            # x^2+xy+y^2 and z^2 share only a conjugate pair of points,
            # which the final sum mu^2 = d^2 check catches
            ("x^2+x*y+y^2", "z^2", "intersection cycle"),
            # both members have the cone x^2+xy+y^2 at (0:0:1), whose
            # directions are conjugate over GF(4): the centre search
            # itself stops there
            ("(x^2+x*y+y^2)*z^2", "(x^2+x*y+y^2)*z^2+x^4",
             "transformed pencil")):
        pencil = PencilSpec(parse_form(f0, spec, over="GF"),
                            parse_form(f1, spec, over="GF"), spec)
        with pytest.raises(NonRationalCenter, match=match):
            resolve_pencil(pencil)


def test_pencils_table():
    assert set(PENCILS) == {"quartic", "cubic"}
    assert PENCILS["quartic"]().degree() == 4


def test_each_member_is_scanned_once_over_the_base_field(monkeypatch):
    # a machine-independent work count: one GF(q) scan per member gives
    # its base points, and line peeling, by trial division by the lines
    # of the plane, scans nothing
    calls = []
    scan = kernels.scan_zero_points

    def counted(terms, gf):
        calls.append((sorted(terms), gf.m))
        return scan(terms, gf)
    monkeypatch.setattr(kernels, "scan_zero_points", counted)
    for name, pencil in PENCILS.items():
        calls.clear()
        report = resolve_pencil(pencil())
        assert report.blowup_counts() == (RQ if name == "quartic"
                                          else RC).blowup_counts()
        members = [sorted(raw_terms(pencil().f0)),
                   sorted(raw_terms(pencil().f1))]
        assert calls == [(f, 1) for f in members]


def test_member_with_conjugate_lines_keeps_its_rational_components():
    # x (x^2 + x y + y^2): the conic is a pair of lines conjugate over
    # GF(4), so the components named over GF(2) are the conic and x
    spec = FieldSpec(1)
    pencil = PencilSpec(parse_form("x^3+x^2*y+x*y^2", spec, over="GF"),
                        parse_form("y^3+x^2*y", spec, over="GF"), spec)
    report = resolve_pencil(pencil)
    assert {cid: (str(c.form), c.fib0, c.fib1)
            for cid, c in report.strict.items()} == {
        "W": ("x^2+x*y+y^2", 1, 0), "W2": ("x", 1, 0),
        "X": ("x+y", 0, 2), "Z": ("y", 0, 1)}
