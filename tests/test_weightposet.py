import json
import random

import pytest

import facekoszul.weightposet as weightposet
from facekoszul import (
    FaceSubset,
    GradedSet,
    GradedWeight,
    Weight,
    covers,
    enumerate_face_subsets,
    face_distance,
    face_downset,
    face_graded_leq,
    face_interval,
    face_leq,
    graded_leq,
    interval_coincidence,
    is_interval_closed,
    lies_on_proper_face,
    root_system,
    weight_system,
)
from facekoszul.cli import _adjoint_spec, main
from facekoszul.errors import FaceCertificateError, IncomparableError


@pytest.fixture()
def a1_vertex(a1_adjoint):
    return lies_on_proper_face(a1_adjoint, [Weight((2,))])


@pytest.fixture()
def a2_edge(a2_adjoint):
    return lies_on_proper_face(a2_adjoint, [Weight((2, -1)), Weight((1, 1))])


def test_face_distance_basics(a1_vertex, a2_edge):
    assert face_distance(a1_vertex, Weight((2,)), Weight((2,))) == 0
    assert face_distance(a1_vertex, Weight((0,)), Weight((4,))) == 2
    assert face_distance(a1_vertex, Weight((0,)), Weight((3,))) is None
    assert face_distance(a1_vertex, Weight((4,)), Weight((0,))) is None
    assert face_distance(a2_edge, Weight((0, 0)), Weight((3, 0))) == 2


def test_face_distance_needs_certificate(a1_adjoint):
    bare = FaceSubset(
        ws=a1_adjoint,
        weights=frozenset({Weight((2,))}),
        functional=None,
        weight_sum=Weight((2,)),
        total_mult=1,
    )
    assert bare.pair_row is None and bare.pair_den is None
    for lo in (Weight((0,)), Weight((2,))):
        with pytest.raises(FaceCertificateError):
            face_distance(bare, lo, Weight((2,)))
        with pytest.raises(FaceCertificateError):
            face_graded_leq(bare, GradedWeight(lo, 0), GradedWeight(Weight((2,)), 1))


def test_face_distance_takes_plain_sequences(a2_edge):
    assert face_distance(a2_edge, (0, 0), [3, 0]) == 2
    assert face_distance(a2_edge, [1, 1], (1, 1)) == 0
    assert face_distance(a2_edge, (0, 0), [1, 0]) is None
    with pytest.raises(ValueError):
        face_distance(a2_edge, (0, 0), (3, 0, 0))


def test_face_leq_reflexive_and_antisymmetric(a2_edge):
    rng = random.Random(2)
    seen_comparable = 0
    for _ in range(100):
        mu = Weight((rng.randint(-3, 3), rng.randint(-3, 3)))
        assert face_leq(a2_edge, mu, mu)
        nu = Weight((rng.randint(-3, 3), rng.randint(-3, 3)))
        if mu != nu and face_leq(a2_edge, mu, nu):
            seen_comparable += 1
            assert not face_leq(a2_edge, nu, mu)
    assert seen_comparable > 0


def test_covers(a1_adjoint):
    p = GradedWeight(Weight((0,)), 0)
    assert covers(a1_adjoint, p, GradedWeight(Weight((2,)), 1))
    assert not covers(a1_adjoint, p, GradedWeight(Weight((2,)), 2))
    assert not covers(a1_adjoint, p, GradedWeight(Weight((0,)), 0))


def test_graded_leq(a1, a1_adjoint):
    p = GradedWeight(Weight((0,)), 0)
    assert graded_leq(a1_adjoint, p, p)
    assert graded_leq(a1_adjoint, p, GradedWeight(Weight((0,)), 2))
    # the adjoint has the zero weight, so one zero-step is a legitimate cover
    assert graded_leq(a1_adjoint, p, GradedWeight(Weight((0,)), 1))
    assert not graded_leq(a1_adjoint, GradedWeight(Weight((0,)), 1), p)
    # without a zero weight, equal weights at degree gap one are incomparable
    from facekoszul import ModuleSpec, weight_system

    ws = weight_system(a1, ModuleSpec(((Weight((1,)), 1),)))
    assert not graded_leq(ws, GradedWeight(Weight((1,)), 0), GradedWeight(Weight((1,)), 1))
    assert graded_leq(ws, GradedWeight(Weight((0,)), 0), GradedWeight(Weight((1,)), 1))


def test_face_graded_leq_refines(a2_adjoint, a2_edge):
    rng = random.Random(3)
    gens = a2_edge.gens
    hits = 0
    for _ in range(120):
        mu = Weight((rng.randint(0, 2), rng.randint(0, 2)))
        steps = rng.randint(0, 4)
        nu = mu
        for _ in range(steps):
            nu = nu + gens[rng.randrange(len(gens))]
        if not nu.is_dominant:
            continue
        p = GradedWeight(mu, rng.randint(-1, 1))
        q = GradedWeight(nu, p.degree + steps)
        assert face_graded_leq(a2_edge, p, q)
        assert graded_leq(a2_adjoint, p, q)
        hits += 1
    assert hits > 60


def test_face_interval_chain(a1_vertex):
    p = GradedWeight(Weight((0,)), 0)
    assert face_interval(a1_vertex, p, p).points == (p,)
    q = GradedWeight(Weight((4,)), 2)
    iv = face_interval(a1_vertex, p, q)
    assert [(tuple(x.weight), x.degree) for x in iv.points] == [((0,), 0), ((2,), 1), ((4,), 2)]
    assert iv.interval_closed


def test_face_interval_excludes_non_dominant_midpoints(a2_edge):
    iv = face_interval(a2_edge, GradedWeight(Weight((0, 0)), 0), GradedWeight(Weight((3, 0)), 2))
    pts = {(tuple(x.weight), x.degree) for x in iv.points}
    assert pts == {((0, 0), 0), ((1, 1), 1), ((3, 0), 2)}


def test_face_interval_incomparable(a1_vertex):
    with pytest.raises(IncomparableError):
        face_interval(a1_vertex, GradedWeight(Weight((0,)), 0), GradedWeight(Weight((3,)), 2))
    with pytest.raises(IncomparableError):
        face_interval(a1_vertex, GradedWeight(Weight((0,)), 0), GradedWeight(Weight((4,)), 3))


def test_downset(a1_adjoint):
    fneg = lies_on_proper_face(a1_adjoint, [Weight((-2,))])
    q = GradedWeight(Weight((0,)), 0)
    assert face_downset(fneg, q, 0).points == (q,)
    ds = face_downset(fneg, q, 3)
    assert [(tuple(x.weight), x.degree) for x in ds.points] == [
        ((6,), -3),
        ((4,), -2),
        ((2,), -1),
        ((0,), 0),
    ]
    assert ds.interval_closed
    for depth in range(1, 4):
        smaller = set(face_downset(fneg, q, depth - 1).points)
        larger = set(face_downset(fneg, q, depth).points)
        assert smaller <= larger


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_downsets_are_interval_closed(name):
    # face_downset flags its result closed without the check; the check is
    # the oracle here, on every face of the adjoint from two tops.
    ws = weight_system(root_system(name), _adjoint_spec(root_system(name)))
    n = ws.rs.rank
    for face in enumerate_face_subsets(ws):
        for top in (Weight((1,) * n), Weight((2,) + (0,) * (n - 1))):
            ds = face_downset(face, GradedWeight(top, 3), 3)
            assert ds.interval_closed and len(ds.points) >= 1
            assert is_interval_closed(face, ds.points)


def test_is_interval_closed(a1_vertex):
    p = GradedWeight(Weight((0,)), 0)
    q = GradedWeight(Weight((4,)), 2)
    assert is_interval_closed(a1_vertex, [p])
    assert is_interval_closed(a1_vertex, face_interval(a1_vertex, p, q).points)
    assert not is_interval_closed(a1_vertex, [p, q])


def test_gamma_set_build_computes_flag(a1_vertex):
    p = GradedWeight(Weight((0,)), 0)
    q = GradedWeight(Weight((4,)), 2)
    gs = GradedSet.build(a1_vertex, [q, p])
    assert not gs.interval_closed
    assert gs.points == (p, q)
    full = GradedSet.build(a1_vertex, [q, GradedWeight(Weight((2,)), 1), p])
    assert full.interval_closed


def test_interval_coincidence_examples(a1_vertex, a2_edge):
    p = GradedWeight(Weight((0,)), 0)
    assert interval_coincidence(a1_vertex, p, p)
    assert interval_coincidence(a1_vertex, p, GradedWeight(Weight((4,)), 2))
    p2 = GradedWeight(Weight((0, 0)), 0)
    q2 = GradedWeight(Weight((3, 0)), 2)
    assert interval_coincidence(a2_edge, p2, q2)


def test_distance_additivity_along_chains(a2_edge):
    rng = random.Random(11)
    gens = a2_edge.gens
    for _ in range(60):
        eta = Weight((rng.randint(0, 3), rng.randint(0, 3)))
        k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
        mu = eta
        for _ in range(k1):
            mu = mu + gens[rng.randrange(len(gens))]
        nu = mu
        for _ in range(k2):
            nu = nu + gens[rng.randrange(len(gens))]
        assert face_distance(a2_edge, eta, mu) == k1
        assert face_distance(a2_edge, mu, nu) == k2
        assert face_distance(a2_edge, eta, nu) == k1 + k2


def test_graded_weight_requires_dominant():
    with pytest.raises(ValueError):
        GradedWeight(Weight((-1, 0)), 0)


def test_face_graded_order_laws_on_sampled_triples(a2_edge):
    rng = random.Random(19)
    gens = a2_edge.gens

    def random_point():
        return GradedWeight(
            Weight((rng.randint(0, 3), rng.randint(0, 3))), rng.randint(-2, 2)
        )

    def chain_up(p, steps):
        nu = p.weight
        for _ in range(steps):
            nu = nu + gens[rng.randrange(len(gens))]
        return GradedWeight(nu, p.degree + steps) if nu.is_dominant else None

    antisym = transitive = 0
    while antisym < 100:
        p, q = random_point(), random_point()
        if face_graded_leq(a2_edge, p, q) and face_graded_leq(a2_edge, q, p):
            assert p == q
        antisym += 1
    while transitive < 100:
        p = random_point()
        q = chain_up(p, rng.randint(0, 2))
        r = chain_up(q, rng.randint(0, 2)) if q is not None else None
        if q is None or r is None:
            continue
        assert face_graded_leq(a2_edge, p, q)
        assert face_graded_leq(a2_edge, q, r)
        assert face_graded_leq(a2_edge, p, r)
        transitive += 1


def test_face_distance_deep_chain_from_cold_memo(a1_vertex, monkeypatch):
    # 2000 steps: far past the interpreter's recursion limit
    monkeypatch.setattr(weightposet, "_DP", {})
    assert face_distance(a1_vertex, Weight((0,)), Weight((4000,))) == 2000
    assert face_distance(a1_vertex, Weight((0,)), Weight((4001,))) is None


def test_cli_deep_interval_exits_zero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(weightposet, "_DP", {})
    args = ["interval", "A1", "adjoint", "--face", "2", "--lo", "0@0", "--hi", "4000@2000"]
    code = main(["--cache-dir", str(tmp_path), "--json", *args])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert len(json.loads(captured.out)["points"]) == 2001
