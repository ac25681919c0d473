import random
from functools import lru_cache

import pytest

from facekoszul import (
    GradedSet,
    GradedWeight,
    Weight,
    directedness_check,
    ext_dim,
    face_algebra_dim,
    face_graded_leq,
    face_interval,
    full_report,
    gldim,
    graded_leq,
    irr_character,
    lies_on_proper_face,
    module_character,
    mult_in_alternating,
    proj_mult,
    symmetric_power,
    tensor,
    witness_search,
)
from facekoszul import characters, homdims
from facekoszul.errors import IncomparableError, NotIntervalClosedError, WitnessSearchError


@pytest.fixture()
def a1_vertex(a1_adjoint):
    return lies_on_proper_face(a1_adjoint, [Weight((2,))])


@pytest.fixture()
def a2_edge(a2_adjoint):
    return lies_on_proper_face(a2_adjoint, [Weight((2, -1)), Weight((1, 1))])


def P(coords, degree):
    return GradedWeight(Weight(coords), degree)


def test_ext_dim_degree_zero_is_kronecker(a1_adjoint):
    assert ext_dim(a1_adjoint, P((0,), 0), P((0,), 0)) == 1
    assert ext_dim(a1_adjoint, P((0,), 0), P((2,), 0)) == 0
    assert ext_dim(a1_adjoint, P((0,), 1), P((2,), 0)) == 0


def test_ext_dim_sl2(a1_adjoint):
    assert ext_dim(a1_adjoint, P((0,), 0), P((2,), 1)) == 1
    # the square wedge of the 3-dimensional module has no copy of V(4)
    assert ext_dim(a1_adjoint, P((0,), 0), P((4,), 2)) == 0
    assert ext_dim(a1_adjoint, P((2,), 1), P((4,), 2)) == 1


def test_proj_mult_sl2(a1_adjoint):
    assert proj_mult(a1_adjoint, P((0,), 0), P((0,), 0)) == 1
    assert proj_mult(a1_adjoint, P((0,), 0), P((2,), 0)) == 0
    assert proj_mult(a1_adjoint, P((0,), 0), P((2,), 1)) == 1
    assert proj_mult(a1_adjoint, P((0,), 0), P((4,), 2)) == 1
    assert proj_mult(a1_adjoint, P((4,), 2), P((0,), 0)) == 0


def test_proj_mult_triangular_in_coarse_order(a2_adjoint):
    rng = random.Random(41)
    for _ in range(80):
        p = P((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-1, 1))
        q = P((rng.randint(0, 3), rng.randint(0, 3)), p.degree + rng.randint(0, 2))
        if p != q and proj_mult(a2_adjoint, p, q):
            assert graded_leq(a2_adjoint, p, q)


def test_directedness_random_pairs(a1_adjoint, a2_adjoint):
    rng = random.Random(4)
    for ws in (a1_adjoint, a2_adjoint):
        rank = ws.rs.rank
        pairs = []
        for _ in range(200):
            p = P(tuple(rng.randint(0, 3) for _ in range(rank)), rng.randint(-1, 1))
            q = P(tuple(rng.randint(0, 3) for _ in range(rank)), p.degree + rng.randint(0, 2))
            pairs.append((p, q))
        assert directedness_check(ws, pairs)


def test_gldim_singleton(a1_vertex):
    gs = GradedSet.build(a1_vertex, [P((0,), 0)])
    assert gldim(a1_vertex, gs) == 0


def test_gldim_examples(a1_vertex, a2_edge):
    iv = face_interval(a1_vertex, P((0,), 0), P((4,), 2))
    assert gldim(a1_vertex, iv) == 1 == a1_vertex.total_mult
    iv2 = face_interval(a2_edge, P((0, 0), 0), P((3, 0), 2))
    assert gldim(a2_edge, iv2) == 2 == a2_edge.total_mult


def test_gldim_requires_interval_closed(a1_vertex):
    gs = GradedSet.build(a1_vertex, [P((0,), 0), P((4,), 2)])
    with pytest.raises(NotIntervalClosedError):
        gldim(a1_vertex, gs)


def test_face_algebra_dim(a1_vertex, a2_edge):
    assert face_algebra_dim(a1_vertex, Weight((2,)), Weight((2,))) == 1
    assert face_algebra_dim(a1_vertex, Weight((2,)), Weight((0,))) == 1
    with pytest.raises(IncomparableError):
        face_algebra_dim(a1_vertex, Weight((3,)), Weight((0,)))
    # Sym^2 of the sl3 adjoint is V(2,2) + V(1,1) + V(0,0): no V(3,0)
    assert face_algebra_dim(a2_edge, Weight((3, 0)), Weight((0, 0))) == 0
    # one edge step up from the adjoint weight lands in the Cartan component
    assert face_algebra_dim(a2_edge, Weight((2, 2)), Weight((1, 1))) == 1


def test_face_algebra_dim_against_alternating_route(a2_edge):
    """Same dimension through an independent multiplicity extraction."""
    from facekoszul.weightposet import face_distance

    ws = a2_edge.ws
    rs = ws.rs
    chv = module_character(rs, ws.spec)
    rng = random.Random(8)
    gens = a2_edge.gens
    checked = 0
    for _ in range(30):
        mu = Weight((rng.randint(0, 2), rng.randint(0, 2)))
        nu = mu
        for _ in range(rng.randint(0, 3)):
            nu = nu + gens[rng.randrange(len(gens))]
        if not nu.is_dominant:
            continue
        d = face_distance(a2_edge, mu, nu)
        direct = face_algebra_dim(a2_edge, nu, mu)
        oracle = mult_in_alternating(
            rs, nu, tensor(symmetric_power(chv, d), irr_character(rs, mu))
        )
        assert direct == oracle
        checked += 1
    assert checked > 15


def test_witness_search_sl2(a1_vertex):
    k, nu = witness_search(a1_vertex)
    assert (k, nu) == (1, Weight((2,)))
    assert nu.is_regular and (nu + a1_vertex.weight_sum).is_regular
    with pytest.raises(WitnessSearchError):
        witness_search(a1_vertex, max_k=0)


def test_witness_search_edge(a2_edge):
    k, nu = witness_search(a2_edge, max_k=4)
    assert k <= 4
    star = face_interval(
        a2_edge, GradedWeight(nu, 0), GradedWeight(nu + a2_edge.weight_sum, a2_edge.total_mult)
    )
    assert gldim(a2_edge, star) == a2_edge.total_mult == 2


def test_witness_search_respects_lower_bound(a2_edge):
    eta = Weight((3, 1))
    k, nu = witness_search(a2_edge, eta, max_k=5)
    assert all(c >= e for c, e in zip(nu, eta))
    with pytest.raises(ValueError):
        witness_search(a2_edge, Weight((-1, 0)))


def test_ext_bounded_by_total_mult_on_face_chains(cases):
    """Nonzero Ext between face-comparable points never exceeds the weight count."""
    rng = random.Random(77)
    for case in cases:
        gens = case.face.gens
        for _ in range(40):
            mu = Weight(tuple(rng.randint(0, case.coord_cap) for _ in range(case.rs.rank)))
            steps = rng.randint(0, 4)
            nu = mu
            for _ in range(steps):
                nu = nu + gens[rng.randrange(len(gens))]
            if not nu.is_dominant:
                continue
            p, q = GradedWeight(mu, 0), GradedWeight(nu, steps)
            if ext_dim(case.ws, p, q):
                assert steps <= case.face.total_mult


def test_ext_between_common_minimum_points_implies_face_order(a2_edge):
    """Inside an interval with a common minimum, Ext forces face comparability."""
    iv = face_interval(a2_edge, P((1, 1), 0), P((4, 1), 2))
    for p in iv:
        for q in iv:
            if p != q and ext_dim(a2_edge.ws, p, q):
                assert face_graded_leq(a2_edge, p, q)


def test_cold_report_reads_v_from_its_weight_system(a2_edge, monkeypatch):
    # wt(V) already holds V's character: a report from empty memos runs no
    # Freudenthal pass for V. Fresh memos are swapped in, so later tests keep
    # the warm ones.
    monkeypatch.setattr(characters, "_MEMO", {})
    for name in ("_module_char", "_power_char", "_constituents"):
        fresh = lru_cache(maxsize=None)(getattr(homdims, name).__wrapped__)
        monkeypatch.setattr(homdims, name, fresh)
    calls = []
    freudenthal = characters._freudenthal
    monkeypatch.setattr(characters, "_freudenthal",
                        lambda rs, lam: calls.append(lam) or freudenthal(rs, lam))
    report = full_report(a2_edge, face_interval(a2_edge, P((0, 0), 0), P((3, 0), 2)))
    assert report.verdict.passed
    assert calls == []
