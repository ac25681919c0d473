from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from oracles import pairing, proper_faces_recursive

from facekoszul import (
    ModuleSpec,
    Weight,
    build_root_system,
    datum_from_json,
    enumerate_face_subsets,
    is_rigid_bruteforce,
    lies_on_proper_face,
    root_system,
    weight_system,
)
from facekoszul.cli import _adjoint_spec
from facekoszul.errors import GuardLimitError
from facekoszul.facegeom import RIGID_MULTISETS, _proper_faces
from facekoszul.rootsystem import _rref


def test_weight_system_a1_adjoint(a1, a1_adjoint):
    assert a1_adjoint.weights == {Weight((2,)): 1, Weight((0,)): 1, Weight((-2,)): 1}
    assert a1_adjoint.dim == 3


def test_weight_system_a2_adjoint(a2_adjoint):
    assert a2_adjoint.dim == 8
    assert a2_adjoint.weights[Weight((0, 0))] == 2
    assert sum(1 for w in a2_adjoint.weights if w != Weight((0, 0))) == 6


@pytest.mark.parametrize(
    "name,summands",
    [
        ("A2", ((Weight((1, 1)), 1),)),
        ("C2", ((Weight((2, 0)), 1),)),
        ("A2", ((Weight((1, 0)), 1), (Weight((0, 1)), 3))),
    ],
)
def test_weight_system_barycenter_vanishes(name, summands):
    rs = root_system(name)
    ws = weight_system(rs, ModuleSpec(summands))
    total = Weight.zero(rs.rank)
    for w, m in ws.weight_items:
        total = total + m * w
    assert total == Weight.zero(rs.rank)


def test_weight_system_rejects_trivial_support(a2):
    with pytest.raises(ValueError):
        weight_system(a2, ModuleSpec(((Weight((0, 0)), 3),)))


def test_face_test_a1_vertex(a1_adjoint):
    face = lies_on_proper_face(a1_adjoint, [Weight((2,))])
    assert face is not None
    assert face.pair(Weight((2,))) == 1
    assert face.weight_sum == Weight((2,)) and face.total_mult == 1


def test_face_test_rejects_interior(a1_adjoint):
    assert lies_on_proper_face(a1_adjoint, [Weight((2,)), Weight((0,))]) is None
    assert lies_on_proper_face(a1_adjoint, [Weight((0,))]) is None
    assert lies_on_proper_face(a1_adjoint, [Weight((2,)), Weight((-2,))]) is None


def test_face_test_full_rank_subset_checks_every_weight(a2_adjoint):
    # alpha1 and alpha2 fix the functional with no free direction left; it
    # pairs theta = alpha1 + alpha2 to 2, so no proper face holds both.
    assert lies_on_proper_face(a2_adjoint, [Weight((2, -1)), Weight((-1, 2))]) is None
    face = lies_on_proper_face(a2_adjoint, [Weight((2, -1)), Weight((1, 1))])
    assert face is not None and face.pair(Weight((-1, 2))) == 0


def test_face_test_hexagon_edge(a2_adjoint):
    face = lies_on_proper_face(a2_adjoint, [Weight((2, -1)), Weight((1, 1))])
    assert face is not None
    assert face.total_mult == 2 and face.weight_sum == Weight((3, 0))


def test_pair_rejects_a_weight_of_the_wrong_rank(a2_adjoint):
    face = lies_on_proper_face(a2_adjoint, [Weight((2, -1)), Weight((1, 1))])
    assert face.pair((2, -1)) == 1
    for w in ((2,), (2, -1, 7), ()):
        with pytest.raises(ValueError, match="rank 2"):
            face.pair(w)


def test_face_test_input_validation(a1_adjoint):
    with pytest.raises(ValueError):
        lies_on_proper_face(a1_adjoint, [])
    with pytest.raises(ValueError):
        lies_on_proper_face(a1_adjoint, [Weight((1,))])


def test_certificate_soundness_direct(a2_adjoint):
    rs = a2_adjoint.rs
    for face in enumerate_face_subsets(a2_adjoint):
        for psi in face.weights:
            assert pairing(rs, face.functional, psi) == Fraction(1)
        for beta in a2_adjoint.weights:
            assert pairing(rs, face.functional, beta) <= 1
        assert Weight((0, 0)) not in face.weights


def test_rigid_bruteforce_examples(a1_adjoint):
    assert is_rigid_bruteforce(a1_adjoint, [Weight((2,))], 4).ok
    bad = is_rigid_bruteforce(a1_adjoint, [Weight((2,)), Weight((0,))], 1)
    assert not bad.ok
    inside, outside = bad.witness
    assert sum(inside.values()) > sum(outside.values())
    hollow = is_rigid_bruteforce(a1_adjoint, [Weight((2,)), Weight((-2,))], 2)
    assert not hollow.ok
    inside, outside = hollow.witness
    assert sum(inside.values()) == 2 and sum(outside.values()) == 0


def test_rigid_bruteforce_validation(a1_adjoint):
    with pytest.raises(ValueError):
        is_rigid_bruteforce(a1_adjoint, [Weight((2,))], 0)
    with pytest.raises(ValueError):
        is_rigid_bruteforce(a1_adjoint, [Weight((1,))], 3)


def test_rigid_bruteforce_guard():
    # B3 adjoint: 19 weights, C(25, 6) = 177 100 multisets at bound 6 and
    # C(26, 7) = 657 800 at bound 7, refused before any is built.
    rs = root_system("B3")
    ws = weight_system(rs, _adjoint_spec(rs))
    assert comb(len(ws.weights) + 6, 6) == 177_100 <= RIGID_MULTISETS
    with pytest.raises(GuardLimitError, match="657800"):
        is_rigid_bruteforce(ws, [Weight((0, 1, 0))], 7)
    assert is_rigid_bruteforce(ws, [Weight((0, 1, 0))], 2).ok


def test_enumerate_faces_segment(a1_adjoint):
    faces = enumerate_face_subsets(a1_adjoint)
    assert [sorted(f.weights) for f in faces] == [[Weight((-2,))], [Weight((2,))]]


def test_enumerate_faces_hexagon(a2_adjoint):
    faces = enumerate_face_subsets(a2_adjoint)
    assert len(faces) == 12
    sizes = sorted(len(f.weights) for f in faces)
    assert sizes == [1] * 6 + [2] * 6
    singletons = {next(iter(f.weights)) for f in faces if len(f.weights) == 1}
    assert singletons == {w for w in a2_adjoint.weights if w != Weight((0, 0))}


def test_enumerate_faces_triangle(a2):
    ws = weight_system(a2, ModuleSpec(((Weight((1, 0)), 1),)))
    faces = enumerate_face_subsets(ws)
    # hull of 3 points: 3 vertices and 3 edges
    assert sorted(len(f.weights) for f in faces) == [1, 1, 1, 2, 2, 2]


def test_enumerate_faces_c2_square(c2):
    ws = weight_system(c2, ModuleSpec(((Weight((2, 0)), 1),)))
    faces = enumerate_face_subsets(ws)
    assert sorted(len(f.weights) for f in faces) == [1, 1, 1, 1, 3, 3, 3, 3]
    # short roots sit in the middle of an edge, never alone on a face
    for f in faces:
        if len(f.weights) == 1:
            (w,) = f.weights
            assert c2.ip(w, w) == max(c2.ip(b, b) for b in c2.positive_roots)


def test_enumerate_faces_guards(a1):
    big = weight_system(a1, ModuleSpec(((Weight((70,)), 1),)))
    with pytest.raises(GuardLimitError):
        enumerate_face_subsets(big)
    a5 = root_system("A5")
    ws = weight_system(a5, ModuleSpec(((Weight((1, 0, 0, 0, 0)), 1),)))
    with pytest.raises(GuardLimitError):
        enumerate_face_subsets(ws)


def test_face_iff_rigid_exhaustive_a1(a1_adjoint):
    wts = sorted(a1_adjoint.weights)
    for k in range(1, len(wts) + 1):
        for sub in combinations(wts, k):
            lp = lies_on_proper_face(a1_adjoint, sub) is not None
            assert lp == is_rigid_bruteforce(a1_adjoint, sub, 6).ok


def test_every_vertex_appears_in_some_face(a2_adjoint, c2):
    for ws in (a2_adjoint, weight_system(c2, ModuleSpec(((Weight((2, 0)), 1),)))):
        faces = enumerate_face_subsets(ws)
        singletons = {next(iter(f.weights)) for f in faces if len(f.weights) == 1}
        covered = set().union(*(f.weights for f in faces))
        assert singletons <= covered


# Single weights whose face LP took seconds to minutes under unpruned
# Fourier-Motzkin elimination; the functionals are those it returns.
@pytest.mark.parametrize(
    "name,weight,functional",
    [
        ("A5", (1, 0, 0, 0, 1), ("1/2", "0", "0", "0", "1/2")),
        ("F4", (1, 0, -1, 0), ("1/2", "0", "-1/2", "0")),
        ("B4", (0, 0, 1, -2), ("0", "0", "1/2", "-1")),
        ("B4", (-2, 1, 0, 0), ("-1/2", "1/4", "0", "0")),
        ("C4", (0, 0, -2, 2), ("0", "0", "-1/2", "1/2")),
        ("C4", (-1, -1, 1, 0), ("-1/2", "-1/2", "1/2", "0")),
    ],
)
def test_single_weight_faces_past_the_fm_blowup(name, weight, functional):
    rs = root_system(name)
    ws = weight_system(rs, _adjoint_spec(rs))
    face = lies_on_proper_face(ws, [Weight(weight)])
    assert face is not None
    assert face.functional == tuple(Fraction(x) for x in functional)
    assert face.pair(Weight(weight)) == 1
    assert all(face.pair(b) <= 1 for b in ws.weights)


def _module(rs, *highest):
    return weight_system(rs, ModuleSpec(tuple((Weight(w), 1) for w in highest)))


# Reducible custom data whose weight polytopes are not full-dimensional in the
# ambient space of the rank: the A1xA1 square V(1,1) and the A2xA1 triangle
# V(1,0,0) in R^3.
A1A1 = build_root_system(datum_from_json({"rank": 2, "cartan": [[2, 0], [0, 2]]}))
A2A1 = build_root_system(
    datum_from_json({"rank": 3, "cartan": [[2, -1, 0], [-1, 2, 0], [0, 0, 2]]})
)
HULL_CASES = {
    **{f"{t} adjoint": (lambda t=t: weight_system(root_system(t), _adjoint_spec(root_system(t))))
       for t in ("A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3", "G2")},
    "A2 1,0+0,1": lambda: _module(root_system("A2"), (1, 0), (0, 1)),
    "A3 1,0,0": lambda: _module(root_system("A3"), (1, 0, 0)),
    "B3 0,0,1": lambda: _module(root_system("B3"), (0, 0, 1)),
    "C3 0,1,0": lambda: _module(root_system("C3"), (0, 1, 0)),
    "A3 1,0,1+0,1,0": lambda: _module(root_system("A3"), (1, 0, 1), (0, 1, 0)),
    "A1xA1 1,1": lambda: _module(A1A1, (1, 1)),
    "A2xA1 1,0,0": lambda: _module(A2A1, (1, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(HULL_CASES))
def test_hull_matches_recursive_oracle(name):
    ws = HULL_CASES[name]()
    pts = sorted(ws.weights)
    faces = _proper_faces(pts)
    assert faces == proper_faces_recursive({w: tuple(map(Fraction, w)) for w in pts}, tuple(pts))
    assert {f.weights for f in enumerate_face_subsets(ws)} == faces


def _affine_dim(points) -> int:
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points]
    return len(_rref(diffs, len(base))[1])


@pytest.mark.parametrize(
    "name,f_vector",
    [("B4", (24, 96, 96, 24)), ("C4", (8, 24, 32, 16)), ("D4", (24, 96, 96, 24))],
)
def test_rank4_adjoint_faces_satisfy_euler(name, f_vector):
    rs = root_system(name)
    faces = enumerate_face_subsets(weight_system(rs, _adjoint_spec(rs)))
    f = [0] * rs.rank
    for face in faces:
        f[_affine_dim(face.gens)] += 1
    assert len(faces) == sum(f_vector) and tuple(f) == f_vector
    # Euler's relation for a 4-polytope: f0 - f1 + f2 - f3 = 0
    assert sum((-1) ** k * n for k, n in enumerate(f)) == 0
