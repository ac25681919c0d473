import json
import random

import pytest

from facekoszul import (
    GradedSet,
    GradedWeight,
    PolyMatrix,
    Weight,
    face_interval,
    full_report,
    hilbert_projective,
    hilbert_yoneda_neg,
    lies_on_proper_face,
    verify_koszul_numerical,
)
from facekoszul import koszulcheck
from facekoszul.cli import main
from facekoszul.errors import NotIntervalClosedError
from facekoszul.koszulcheck import _product_verdict, render_monomial


@pytest.fixture()
def a1_vertex(a1_adjoint):
    return lies_on_proper_face(a1_adjoint, [Weight((2,))])


@pytest.fixture()
def a2_edge(a2_adjoint):
    return lies_on_proper_face(a2_adjoint, [Weight((2, -1)), Weight((1, 1))])


@pytest.fixture()
def a1_chain(a1_vertex):
    return face_interval(a1_vertex, GradedWeight(Weight((0,)), 0), GradedWeight(Weight((4,)), 2))


def test_hilbert_singleton(a1_vertex):
    gs = GradedSet.build(a1_vertex, [GradedWeight(Weight((0,)), 0)])
    hb = hilbert_projective(a1_vertex, gs)
    he = hilbert_yoneda_neg(a1_vertex, gs)
    assert hb.entries == ((1,),) and he.entries == ((1,),)
    assert verify_koszul_numerical(a1_vertex, gs).passed


def test_hand_checked_three_by_three(a1_vertex, a1_chain):
    hb = hilbert_projective(a1_vertex, a1_chain)
    he = hilbert_yoneda_neg(a1_vertex, a1_chain)
    # entry (i, j) is the coefficient of t^(deg_i - deg_j)
    assert hb.entries == ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    assert he.entries == ((1, 0, 0), (-1, 1, 0), (0, -1, 1))
    # corner of the product: 0*1 + (-t)*t + 1*t^2 = 0
    parts = [he.entries[2][k] * hb.entries[k][0] for k in range(3)]
    assert parts == [0, -1, 1]
    assert sum(parts) == 0
    assert verify_koszul_numerical(a1_vertex, a1_chain).passed


def test_matrices_unitriangular_with_nonneg_and_sign_patterns(a2_edge):
    iv = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((6, 0)), 4))
    hb = hilbert_projective(a2_edge, iv)
    he = hilbert_yoneda_neg(a2_edge, iv)
    for m in (hb, he):
        assert all(m.entries[i][i] == 1 for i in range(len(iv)))
        assert not any(c for i, row in enumerate(m.entries) for c in row[i + 1:])
    assert all(c >= 0 for row in hb.entries for c in row)
    deg = [p.degree for p in he.index]
    for i, row in enumerate(he.entries):
        for j, c in enumerate(row):
            if c:
                assert (c > 0) == ((deg[i] - deg[j]) % 2 == 0)
    assert verify_koszul_numerical(a2_edge, iv).passed


def test_matmul_accumulation_order_invariance(a2_edge):
    iv = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((3, 0)), 2))
    he = hilbert_yoneda_neg(a2_edge, iv)
    hb = hilbert_projective(a2_edge, iv)
    prod = he.matmul(hb)
    n = len(prod.index)
    for i in range(n):
        for j in range(n):
            fwd = 0
            for k in range(n):
                fwd = fwd + he.entries[i][k] * hb.entries[k][j]
            rev = 0
            for k in reversed(range(n)):
                rev = rev + he.entries[i][k] * hb.entries[k][j]
            assert fwd == rev == prod.entries[i][j]


def test_sparse_matmul_on_arbitrary_matrices(a2_edge):
    """The product over nonzero entries assumes no triangularity: it equals
    the plain triple loop on random sparse and dense, non-triangular matrices."""
    iv = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((3, 0)), 2))
    n = len(iv.points)
    rng = random.Random(12)
    for density in (0.0, 0.2, 0.6, 1.0):
        a, b = (
            tuple(tuple(rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n))
                  for _ in range(n))
            for _ in range(2)
        )
        prod = PolyMatrix(iv.points, a).matmul(PolyMatrix(iv.points, b))
        assert prod.index == iv.points
        assert prod.entries == tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
        )


def test_matmul_index_mismatch(a1_vertex, a1_chain):
    single = GradedSet.build(a1_vertex, [GradedWeight(Weight((0,)), 0)])
    with pytest.raises(ValueError):
        hilbert_projective(a1_vertex, a1_chain).matmul(hilbert_projective(a1_vertex, single))


def test_linear_extension_ordering(a2_edge):
    iv = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((4, 1)), 3))
    hb = hilbert_projective(a2_edge, iv)
    degrees = [p.degree for p in hb.index]
    assert degrees == sorted(degrees)


def test_directly_built_set_with_shuffled_points_reports_the_same(a2_edge):
    iv = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((6, 0)), 4))
    shuffled = GradedSet(a2_edge, iv.points[::2] + iv.points[1::2][::-1], True)
    assert shuffled.points == iv.points
    assert full_report(a2_edge, shuffled).to_json_obj() == full_report(a2_edge, iv).to_json_obj()


def test_precondition_errors_are_not_fail_verdicts(a1_vertex):
    gs = GradedSet.build(a1_vertex, [GradedWeight(Weight((0,)), 0), GradedWeight(Weight((4,)), 2)])
    with pytest.raises(NotIntervalClosedError):
        verify_koszul_numerical(a1_vertex, gs)
    with pytest.raises(NotIntervalClosedError):
        hilbert_projective(a1_vertex, gs)


def test_gldim_monotone_under_interval_inclusion(a2_edge):
    from facekoszul import gldim

    big = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((6, 0)), 4))
    small = face_interval(a2_edge, GradedWeight(Weight((1, 1)), 1), GradedWeight(Weight((4, 1)), 3))
    assert set(small.points) <= set(big.points)
    assert gldim(a2_edge, small) <= gldim(a2_edge, big)


def test_full_report(a1_vertex, a1_chain):
    rep = full_report(a1_vertex, a1_chain, with_witness=True)
    assert rep.total_mult == 1
    assert rep.gldim_value == 1
    assert rep.verdict.passed
    assert rep.witness is not None and rep.witness.gldim_star == 1
    obj = rep.to_json_obj()
    assert obj["koszul"]["passed"] is True
    assert obj["gldim_bound_ok"] is True
    assert obj["hilbert_projective"]["entries"][1][0] == [0, 1]
    assert obj["witness"]["nu"] == [2]


def test_full_report_without_witness(a2_edge):
    iv = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((3, 0)), 2))
    rep = full_report(a2_edge, iv)
    assert rep.witness is None
    assert rep.verdict.passed and rep.gldim_value == 2


def test_polymatrix_entry_lookup(a1_vertex, a1_chain):
    hb = hilbert_projective(a1_vertex, a1_chain)
    p0 = GradedWeight(Weight((0,)), 0)
    p2 = GradedWeight(Weight((4,)), 2)
    i2, i0 = hb.index.index(p2), hb.index.index(p0)
    assert hb.entries[i2][i0] == 1
    assert hb.entries[i0][i2] == 0
    assert hb.to_json_obj()["entries"][i2][i0] == [0, 0, 1]
    assert hb.to_json_obj()["entries"][i0][i2] == []


def _perturbed(hb, i, j, c):
    rows = [list(row) for row in hb.entries]
    rows[i][j] += c
    return PolyMatrix(hb.index, tuple(map(tuple, rows)))


# (row, col, change) of one Hom entry, and the residual the product check
# reports: its first differing entry, as JSON and as the CLI renders it.
FAIL_CASES = [
    (5, 0, 2, [[6, 0], 4], [[0, 0], 0], [0, 0, 0, 0, 2], "2*t^4"),
    (3, 3, -1, [[2, 2], 2], [[2, 2], 2], [-1], "-1"),
    (5, 1, -1, [[6, 0], 4], [[1, 1], 1], [0, 0, 0, -1], "-t^3"),
]


@pytest.mark.parametrize("i, j, change, row, col, residual, text", FAIL_CASES)
def test_perturbed_hom_matrix_fails_with_residual(a2_edge, i, j, change, row, col, residual, text):
    iv = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((6, 0)), 4))
    he = hilbert_yoneda_neg(a2_edge, iv)
    hb = hilbert_projective(a2_edge, iv)
    assert len(iv) == 6
    verdict = _product_verdict(he, _perturbed(hb, i, j, change))
    assert verdict.to_json_obj() == {
        "passed": False,
        "size": 6,
        "offending": {"row": row, "col": col, "residual": residual},
    }
    p, q, r = verdict.offending
    assert render_monomial(r, p.degree - q.degree) == text


def test_render_monomial():
    assert [render_monomial(c, d) for c, d in [(1, 1), (-1, 1), (3, 0), (0, 2), (-2, 5)]] == [
        "t", "-t", "3", "0", "-2*t^5"
    ]


def test_cli_reports_fail_with_residual(a2_edge, monkeypatch, capsys):
    build = koszulcheck._hilbert_pair

    def broken(face, gamma):
        he, hb = build(face, gamma)
        return he, _perturbed(hb, len(hb.index) - 1, 0, 2)

    monkeypatch.setattr(koszulcheck, "_hilbert_pair", broken)
    argv = ["koszul", "A2", "adjoint", "--face=2,-1;1,1", "--lo=0,0@0", "--hi=6,0@4"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        "gamma: 6 points; total_mult = 2; gldim = 2",
        "Koszul numerical identity: FAIL",
        "  offending entry ((6,0)@4, (0,0)@0): residual 2*t^4",
    ]
    assert main(["--json", *argv]) == 1
    bad = json.loads(capsys.readouterr().out)["koszul"]["offending"]
    assert bad == {"row": [[6, 0], 4], "col": [[0, 0], 0], "residual": [0, 0, 0, 0, 2]}


def test_report_asks_the_face_order_once_per_pair(a2_edge, monkeypatch):
    iv = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((30, 0)), 20))
    calls = []
    leq = koszulcheck.face_graded_leq

    def counted(face, p, q):
        calls.append((p, q))
        return leq(face, p, q)

    monkeypatch.setattr(koszulcheck, "face_graded_leq", counted)
    assert full_report(a2_edge, iv).verdict.passed
    n = len(iv)
    assert n == 66 and len(calls) == len(set(calls)) == n * (n - 1) // 2
