"""Property tests: the fast constituent, power, face-LP and face-order paths against the old ones.

The old paths live in tests/oracles.py: powers by Newton's identities on Adams
operations, constituents by building the tensor product with V(lam) and
peeling off maximal weights, the face LP with rational pairing rows and
Fourier-Motzkin elimination without row pruning (also on random integer
systems), the pairing row as the lcm of a Fraction row, the face distance with
its pairing in Fraction arithmetic, Gauss-Jordan elimination and the affine
solve in Fractions, simple-root coordinates through a Fraction inverse Cartan
matrix, Freudenthal's recursion deciding each candidate by walking it to
the dominant chamber, and the explicit-stack depth-first search for sums of
exactly k generators, with one search per candidate weight for intervals.
Constituent multiplicities from either side (the Racah-Speiser orbit sum and
the Brauer-Klimyk support sum, which are also compared with each other up to
rank 4), the one-pass powers, the integer,
pruned face LP and its elimination, the integer pairing row and the face order
through it, the fraction-free elimination kernel, the integer particular
solution and null basis, the integer root-cone test, the one-reflection
Freudenthal recursion and the layered path search of the face and coarse
orders must agree with them exactly.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _rref as rref_fraction
from oracles import (
    coarse_interval_dfs,
    constituents_by_subtraction,
    decomposable_dfs,
    expand_power_bruteforce,
    face_distance_fraction,
    face_functional_fraction_rows,
    face_interval_dfs,
    fm_feasible_point_unpruned,
    freudenthal_dominant_walk,
    in_root_cone_fraction,
    newton_power,
    pair_row_fraction,
    pairing,
    root_coords_fraction,
    solve_equalities_fraction,
)

import facekoszul.homdims as homdims
import facekoszul.weightposet as weightposet
from facekoszul import (
    Character,
    GradedWeight,
    ModuleSpec,
    Weight,
    enumerate_face_subsets,
    exterior_power,
    face_distance,
    face_graded_leq,
    face_interval,
    interval_coincidence,
    is_rigid_bruteforce,
    lies_on_proper_face,
    module_character,
    root_system,
    symmetric_power,
    to_dominant_signed,
    weight_system,
)
from facekoszul.characters import _freudenthal
from facekoszul.cli import _adjoint_spec
from facekoszul.errors import IncomparableError, VirtualCharacterError
from facekoszul.facegeom import FaceSubset, _fm_feasible_point, _pairing_row, _solve_equalities
from facekoszul.rootsystem import _rref, datum_from_json

TYPES = ("A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3")
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@lru_cache(maxsize=None)
def _rs(name):
    return root_system(name)


@st.composite
def modules(draw):
    """A root system and a small module: one or two fundamental summands
    (one on rank 3, to keep the oracles' brute force small)."""
    rs = _rs(draw(st.sampled_from(TYPES)))
    n = rs.rank
    nodes = st.integers(0, n - 1)
    picks = draw(st.lists(nodes, min_size=1, max_size=1 if n == 3 else 2))
    summands = tuple((Weight(tuple(int(i == k) for i in range(n))), 1) for k in picks)
    return rs, ModuleSpec(summands)


def _dominant_box(rank, cap):
    """Every dominant weight with coordinates at most cap."""
    return {Weight(c) for c in product(range(cap + 1), repeat=rank)}


@PROPERTY
@given(data=st.data(), module=modules(), j=st.integers(0, 4), kind=st.sampled_from(("ext", "sym")))
def test_brauer_klimyk_matches_subtraction(data, module, j, kind):
    rs, spec = module
    cap = 1 if rs.rank == 3 else 2
    lam = Weight(data.draw(st.tuples(*[st.integers(0, cap)] * rs.rank)))
    ws = weight_system(rs, spec)
    power = newton_power(module_character(rs, spec), j, kind)
    oracle = constituents_by_subtraction(power, lam)
    # every constituent, every dominant lam + mu over the power's weights and a
    # box of small dominant weights; the ones outside the oracle must give 0
    candidates = set(oracle) | {lam + mu for mu in power.mults} | _dominant_box(rs.rank, 3)
    outside = 0
    for nu in candidates:
        if nu.is_dominant:
            assert homdims._constituents(ws, lam, nu, j, kind) == oracle.get(nu, 0)
            outside += nu not in oracle
        else:
            assert homdims._constituents(ws, lam, nu, j, kind) == 0
    assert outside


# The types above and the rank-4 ones, where |W| reaches 384.
SIDE_TYPES = TYPES + ("A4", "B4", "C4", "D4")


@PROPERTY
@given(data=st.data(), name=st.sampled_from(SIDE_TYPES), j=st.integers(0, 3),
       kind=st.sampled_from(("ext", "sym")))
def test_orbit_side_matches_support_side(data, name, j, kind):
    """Racah-Speiser over the orbit of nu + rho and Brauer-Klimyk over the
    power's support give the same multiplicity, whichever side is cheaper."""
    rs = _rs(name)
    n = rs.rank
    node = data.draw(st.integers(0, n - 1))
    ws = weight_system(rs, ModuleSpec(((Weight(tuple(int(i == node) for i in range(n))), 1),)))
    lam = Weight(data.draw(st.tuples(*[st.integers(0, 1)] * n)))
    layer = homdims._power_char(ws, kind).layer(j)
    reach = sorted({nu for mu in layer if (nu := lam + Weight(mu)).is_dominant})
    nus = data.draw(st.lists(st.sampled_from(reach), max_size=8)) if reach else []
    nus += data.draw(st.lists(st.sampled_from(sorted(_dominant_box(n, 2))), max_size=3))
    module, powers = homdims._module_char(ws), homdims._power_char(ws, kind)
    for nu in nus:
        orbit = homdims._orbit_side(module, layer, lam, nu)
        assert orbit == homdims._support_side(module, powers, lam, nu, j)
        assert orbit == homdims._constituents(ws, lam, nu, j, kind)


@pytest.mark.parametrize("name, order", [("A1", 2), ("A4", 120), ("B4", 384), ("C4", 384),
                                         ("D4", 192), ("G2", 12), ("F4", 1152), ("E6", 51840),
                                         ("E7", 2903040), ("E8", 696729600)])
def test_weyl_order_from_root_heights(name, order):
    rs = _rs(name)
    spec = ModuleSpec(((Weight((1,) + (0,) * (rs.rank - 1)), 1),))
    assert homdims._Module(weight_system(rs, spec)).weyl_order == order


def test_signed_orbit_is_the_whole_regular_orbit():
    ws = weight_system(_rs("B3"), ModuleSpec(((Weight((1, 0, 0)), 1),)))
    module = homdims._Module(ws)
    orbit = module.orbit(Weight((0, 1, 0)))
    assert len(orbit) == module.weyl_order == 48
    assert sum(sign for _, sign in orbit) == 0
    for x, sign in orbit:
        dom, walk_sign, singular = to_dominant_signed(ws.rs, x)
        assert (dom, walk_sign, singular) == ((1, 2, 1), sign, False)


@PROPERTY
@given(module=modules(), j=st.integers(0, 4))
def test_product_pass_matches_newton_and_bruteforce(module, j):
    rs, spec = module
    ch = module_character(rs, spec)
    for kind, power in (("ext", exterior_power), ("sym", symmetric_power)):
        got = dict(power(ch, j).mults)
        assert got == dict(newton_power(ch, j, kind).mults)
        assert got == expand_power_bruteforce(ch, j, kind)


def test_power_rejects_negative_multiplicities():
    a1 = _rs("A1")
    virtual = Character(a1, {Weight((1,)): 1, Weight((-1,)): -1})
    with pytest.raises(VirtualCharacterError):
        exterior_power(virtual, 2)
    with pytest.raises(VirtualCharacterError):
        symmetric_power(virtual, 1)


def _fake_power(monkeypatch, weights):
    """An A1 weight system whose exterior powers are those of a made-up
    'character' with the given weights: degree 1 is that character itself."""
    a1 = _rs("A1")
    fake = Character(a1, {Weight(w): 1 for w in weights})
    monkeypatch.setattr(homdims, "_power_char", lambda ws, kind: homdims._Powers(fake, True))
    return weight_system(a1, ModuleSpec(((Weight((2,)), 1),)))


def test_brauer_klimyk_rejects_a_non_character(monkeypatch):
    # a lone lowest weight: -2 + rho reflects onto rho with sign -1. One weight
    # against |W| = 2 picks the support side.
    ws = _fake_power(monkeypatch, [(-2,)])
    zero = Weight((0,))
    module, powers = homdims._module_char(ws), homdims._power_char(ws, "ext")
    assert homdims._support_side(module, powers, zero, zero, 1) == -1
    with pytest.raises(VirtualCharacterError):
        homdims._constituents.__wrapped__(ws, zero, zero, 1, "ext")


def test_racah_speiser_rejects_a_non_character(monkeypatch):
    # the lowest weight and a singular one (-1 + rho = 0): two weights against
    # |W| = 2 picks the orbit side, where rho - rho - rho = -2 comes with sign -1
    ws = _fake_power(monkeypatch, [(-2,), (-1,)])
    zero = Weight((0,))
    layer = homdims._power_char(ws, "ext").layer(1)
    assert homdims._orbit_side(homdims._module_char(ws), layer, zero, zero) == -1
    with pytest.raises(VirtualCharacterError):
        homdims._constituents.__wrapped__(ws, zero, zero, 1, "ext")


# The adjoints of LP_TYPES, and the A2 module V(omega_1) + V(omega_2).
LP_TYPES = ("A2", "A3", "B2", "B3", "C3", "G2")


@lru_cache(maxsize=None)
def _lp_weight_system(index):
    if index == len(LP_TYPES):
        rs = _rs("A2")
        return weight_system(rs, ModuleSpec(((Weight((1, 0)), 1), (Weight((0, 1)), 1))))
    rs = _rs(LP_TYPES[index])
    return weight_system(rs, _adjoint_spec(rs))


@PROPERTY
@given(data=st.data(), index=st.integers(0, len(LP_TYPES)))
def test_face_lp_matches_unpruned_elimination_and_rigidity(data, index):
    ws = _lp_weight_system(index)
    weights = st.sampled_from(sorted(ws.weights))
    subset = data.draw(st.lists(weights, min_size=1, max_size=3, unique=True))
    face = lies_on_proper_face(ws, subset)
    oracle = face_functional_fraction_rows(ws, subset)
    assert (face is None) == (oracle is None)
    if face is None:
        return
    assert face.functional == oracle
    # The weights where the functional is 1 are rigid. The subset itself can
    # only fail by a tie against a decomposition that stays on that face.
    exposed = [b for b in ws.weights if face.pair(b) == 1]
    assert is_rigid_bruteforce(ws, exposed, 3).ok
    verdict = is_rigid_bruteforce(ws, subset, 3)
    if not verdict.ok:
        inside, outside = verdict.witness
        assert sum(inside.values()) == sum(outside.values())
        assert all(face.pair(w) == 1 for w in outside)


@lru_cache(maxsize=None)
def _lp_faces(index):
    return enumerate_face_subsets(_lp_weight_system(index))


@st.composite
def certified_subsets(draw):
    """1-3 weights of one face of an LP_TYPES module, certified by the LP."""
    index = draw(st.integers(0, len(LP_TYPES)))
    face = draw(st.sampled_from(_lp_faces(index)))
    members = draw(st.lists(st.sampled_from(face.gens), min_size=1, max_size=3, unique=True))
    return lies_on_proper_face(_lp_weight_system(index), members)


@PROPERTY
@given(data=st.data(), face=certified_subsets())
def test_integer_pairing_row_matches_fraction_pairing(data, face):
    rs = face.ws.rs
    w = data.draw(st.tuples(*[st.integers(-20, 20)] * rs.rank))
    assert face.pair(w) == pairing(rs, face.functional, w)
    assert face.pair_den >= 1 and all(isinstance(c, int) for c in face.pair_row)


@PROPERTY
@given(data=st.data(), face=certified_subsets())
def test_face_order_matches_fraction_oracle(data, face):
    # mu is shifted far enough into the dominant chamber that nu stays dominant
    # after four steps of at most 3 per coordinate and a perturbation of 1.
    rank = face.ws.rs.rank
    mu = Weight(data.draw(st.tuples(*[st.integers(13, 16)] * rank)))
    steps = data.draw(st.lists(st.sampled_from(face.gens), max_size=4))
    nu = mu
    for g in steps:
        nu = nu + g
    if data.draw(st.booleans()):
        nu = nu + Weight(data.draw(st.tuples(*[st.integers(-1, 1)] * rank)))
    assert face_distance(face, mu, nu) == face_distance_fraction(face, mu, nu)
    p = GradedWeight(mu, data.draw(st.integers(-2, 2)))
    q = GradedWeight(nu, p.degree + len(steps) + data.draw(st.sampled_from((-1, 0, 0, 1))))
    d = face_distance_fraction(face, mu, nu)
    assert face_graded_leq(face, p, q) == (d is not None and d == q.degree - p.degree)


# Form scales differ across these types (form_int = form_scale * form).
PAIR_TYPES = ("A2", "B3", "D4", "G2", "F4")


@lru_cache(maxsize=None)
def _adjoint_ws(name):
    rs = _rs(name)
    return weight_system(rs, _adjoint_spec(rs))


POSET_TYPES = ("A2", "B2", "G2", "A3")
ORDER_CASES = ("walk", "walk", "walk", "thin", "thin", "same", "off-by-one", "swap",
               "zero-delta", "negative-gap", "fraction")


@lru_cache(maxsize=None)
def _adjoint_faces(name):
    return enumerate_face_subsets(_adjoint_ws(name))


@PROPERTY
@given(data=st.data(), name=st.sampled_from(POSET_TYPES), case=st.sampled_from(ORDER_CASES))
def test_path_search_matches_dfs_oracle(data, name, case):
    ws = _adjoint_ws(name)
    rank = ws.rs.rank
    face = data.draw(st.sampled_from(_adjoint_faces(name)))
    every = tuple(w for w, _ in ws.weight_items)  # includes the zero weight
    gens = every if data.draw(st.sampled_from((False, False, True))) else face.gens
    # thin long chains step through one or two generators of the face
    pool = gens if case != "thin" else data.draw(
        st.lists(st.sampled_from(face.gens), min_size=1, max_size=2, unique=True))
    # long walks for the thin chains and for the targets just off a path
    lengths = {"same": (0, 0), "zero-delta": (0, 0), "thin": (8, 30), "off-by-one": (1, 12),
               "swap": (2, 12), "fraction": (1, 12)}
    shortest, longest = lengths.get(case, (1, 4))
    steps = data.draw(st.lists(st.sampled_from(pool), min_size=shortest, max_size=longest))
    delta = sum(steps, Weight((0,) * rank))
    gap = len(steps)
    if case == "off-by-one":
        gap += data.draw(st.sampled_from((-1, 1)))
    elif case == "swap":
        # take away a generator the walk never took, add its first step once
        # more: the same forced length, mostly inside the box, but off every
        # path unless the generators are affinely dependent
        unused = [g for g in pool if g not in steps]
        if unused:
            delta = delta + steps[0] - data.draw(st.sampled_from(unused))
    elif case == "zero-delta":
        gap = data.draw(st.integers(1, 3))
    elif case == "negative-gap":
        gap = -data.draw(st.integers(1, 3))
    elif case == "fraction":
        # move delta off the lattice where the face functional is an integer
        off = [i for i in range(rank) if face.pair_row[i] % face.pair_den]
        if off:
            delta = delta + Weight(tuple(int(i == off[0]) for i in range(rank)))
    assert weightposet._decomposable(tuple(delta), gap, gens) == decomposable_dfs(delta, gap, gens)

    # both endpoints shifted into the dominant chamber by the same vector
    mu = Weight(max(0, -x) + data.draw(st.integers(0, 2)) for x in delta)
    p = GradedWeight(mu, data.draw(st.integers(-2, 2)))
    q = GradedWeight(mu + delta, p.degree + gap)
    fine = face_interval_dfs(face, p, q)
    if not fine:
        with pytest.raises(IncomparableError):
            face_interval(face, p, q)
        with pytest.raises(IncomparableError):
            interval_coincidence(face, p, q)
        return
    assert set(face_interval(face, p, q).points) == fine
    if gap <= 4:
        assert interval_coincidence(face, p, q) == (fine == coarse_interval_dfs(every, p, q))


@pytest.mark.parametrize("name", ("A2", "B3", "G2", "F4", "A2 1,0+0,1"))
def test_weight_system_carries_every_pairing_row(name):
    ws = _lp_weight_system(len(LP_TYPES)) if " " in name else _adjoint_ws(name)
    assert ws.pairing_rows == {w: _pairing_row(ws.rs, w) for w in ws.weights}


@PROPERTY
@given(data=st.data(), name=st.sampled_from(PAIR_TYPES))
def test_pair_row_matches_fraction_lcm(data, name):
    # Directly built faces: the pairing row needs only the functional, whose
    # entries mix ints, Fractions, zeros and negatives (all zero included).
    ws = _adjoint_ws(name)
    n = ws.rs.rank
    entry = st.one_of(st.just(0), st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12))
    functional = data.draw(st.one_of(st.just((0,) * n), st.tuples(*[entry] * n)))
    w = data.draw(st.sampled_from(sorted(ws.weights)))
    face = FaceSubset(ws, frozenset({w}), functional, w, ws.weights[w])
    assert (face.pair_row, face.pair_den) == pair_row_fraction(ws, functional)
    assert all(type(c) is int for c in face.pair_row) and type(face.pair_den) is int


# Sparse coefficients keep unpruned elimination small; it still grows fastest
# at n = 4, which gets at most 8 rows.
FM_COEFFS = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3))


@st.composite
def fm_systems(draw):
    """(n, rows) for an integer system coeffs . z <= rhs with n <= 4 and at most
    12 rows: random rows, positive multiples of some of them with the same, a
    looser or a tighter rhs, and all-zero rows, negative rhs included."""
    n = draw(st.integers(0, 4))
    cap = 8 if n == 4 else 12
    copies = draw(st.integers(0, 3))
    zeros = draw(st.integers(0, 2))
    row = st.tuples(st.lists(FM_COEFFS, min_size=n, max_size=n), st.integers(-3, 9))
    rows = draw(st.lists(row, min_size=1, max_size=cap - copies - zeros))
    for _ in range(copies):
        coeffs, rhs = draw(st.sampled_from(rows))
        k = draw(st.integers(1, 3))
        rows.append(([k * c for c in coeffs], k * rhs + draw(st.integers(-2, 3))))
    rows += [([0] * n, draw(st.integers(-2, 2))) for _ in range(zeros)]
    return n, draw(st.permutations(rows))


@PROPERTY
@given(system=fm_systems())
def test_fm_feasible_point_matches_unpruned_elimination(system):
    n, ineqs = system
    point = _fm_feasible_point(ineqs, n)
    assert point == fm_feasible_point_unpruned(ineqs, n)
    if point is not None:
        assert all(sum(c * x for c, x in zip(coeffs, point)) <= rhs for coeffs, rhs in ineqs)


@st.composite
def integer_matrices(draw):
    """(rows, ncols): up to 8 unknowns and 3 augmented columns, negative
    entries, all-zero rows, and integer combinations of earlier rows, so that
    many matrices are rank-deficient."""
    ncols = draw(st.integers(0, 8))
    width = ncols + draw(st.integers(0, 3))
    entry = st.one_of(st.sampled_from((0, 0, 0, 1, -1)), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=7))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        j, k = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([j * x + k * y for x, y in zip(a, b)])
    rows += [[0] * width for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows)), ncols


def _assert_matches_fraction_rref(rows, ncols):
    got, pivots = _rref(rows, ncols)
    want, want_pivots = rref_fraction([list(map(Fraction, row)) for row in rows], ncols)
    assert pivots == want_pivots
    assert all(type(x) is int for row in got for x in row)
    for row, ref, col in zip(got, want, pivots):
        assert row[col] > 0 and gcd(*row) == 1
        assert [Fraction(x, row[col]) for x in row] == ref
    # Every later row is a nonzero multiple of the Fraction one, zero in the
    # first ncols columns.
    for row, ref in zip(got[len(pivots):], want[len(pivots):]):
        assert not any(row[:ncols])
        assert [x == 0 for x in row] == [y == 0 for y in ref]
        assert len({Fraction(x) / y for x, y in zip(row, ref) if y}) <= 1


@PROPERTY
@given(matrix=integer_matrices())
def test_integer_rref_matches_fraction_rref(matrix):
    _assert_matches_fraction_rref(*matrix)


@pytest.mark.parametrize("name", ("E8", "F4"))
def test_integer_rref_inverts_cartan_matrices(name):
    # [A | I], as build_root_system reduces it
    cartan = _rs(name).datum.cartan
    n = len(cartan)
    _assert_matches_fraction_rref([[*row, *(int(i == j) for j in range(n))]
                                   for i, row in enumerate(cartan)], n)


@PROPERTY
@given(data=st.data(), index=st.integers(0, len(LP_TYPES)))
def test_integer_null_basis_scales_the_fraction_basis(data, index):
    ws = _lp_weight_system(index)
    rs = ws.rs
    subset = data.draw(st.lists(st.sampled_from(sorted(ws.weights)), min_size=1, max_size=3))
    scale = data.draw(st.sampled_from((1, 2, 6)))
    eqs = [(_pairing_row(rs, w), scale) for w in subset]
    got, want = _solve_equalities(eqs, rs.rank), solve_equalities_fraction(eqs, rs.rank)
    assert (got is None) == (want is None)
    if got is None:
        return
    nums, den, basis = got
    # the particular solution over its least common denominator
    assert all(type(x) is int for x in nums) and type(den) is int
    assert [Fraction(x, den) for x in nums] == want[0]
    assert den == lcm(*(p.denominator for p in want[0]))
    assert len(basis) == len(want[1])
    for vec, ref in zip(basis, want[1]):
        assert all(type(x) is int for x in vec)
        ratios = {Fraction(x) / y for x, y in zip(vec, ref) if y}
        assert all(x == 0 for x, y in zip(vec, ref) if not y)
        assert len(ratios) == 1 and min(ratios) > 0
        # each vector is the Fraction one over its least common denominator
        assert vec == [y * lcm(*(c.denominator for c in ref)) for y in ref]


# Root data for the root-cone test: series types, and two products as custom
# Cartan data with the symmetrizer left to the parser.
CONE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4", "E6")
CUSTOM_CARTANS = {
    "A1xA1": [[2, 0], [0, 2]],
    "A2xA1": [[2, -1, 0], [-1, 2, 0], [0, 0, 2]],
}


@lru_cache(maxsize=None)
def _cone_rs(name):
    if name in CUSTOM_CARTANS:
        cartan = CUSTOM_CARTANS[name]
        return root_system(datum_from_json({"rank": len(cartan), "cartan": cartan}))
    return _rs(name)


@PROPERTY
@given(data=st.data(), name=st.sampled_from(CONE_TYPES + tuple(CUSTOM_CARTANS)))
def test_root_cone_matches_fraction_inverse_cartan(data, name):
    # Either any small weight (often off the root lattice), or a combination
    # of simple roots with mostly nonnegative coefficients, sometimes shifted
    # by a fundamental weight.
    rs = _cone_rs(name)
    n = rs.rank
    if data.draw(st.booleans()):
        w = Weight(data.draw(st.tuples(*[st.integers(-6, 6)] * n)))
    else:
        w = Weight.zero(n)
        for c, alpha in zip(data.draw(st.tuples(*[st.integers(-1, 3)] * n)), rs.simple_roots):
            w = w + c * alpha
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, n - 1))
            w = w + Weight(int(i == k) for i in range(n))
    assert rs.root_coords(w) == root_coords_fraction(rs, w)
    assert rs.in_root_cone(w) == in_root_cone_fraction(rs, w)


# Random dominant weights on the types of rank <= 4, with a coordinate cap per
# rank that keeps the oracle's walk to about a second at worst (F4 at rho).
FREUDENTHAL_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4")
FREUDENTHAL_CAP = {1: 8, 2: 5, 3: 2, 4: 1}


def _assert_same_freudenthal(rs, lam):
    # the same weights, multiplicities and discovery order
    new = list(_freudenthal(rs, lam).items())
    assert new == list(freudenthal_dominant_walk(rs, lam).items())


@PROPERTY
@given(data=st.data(), name=st.sampled_from(FREUDENTHAL_TYPES))
def test_freudenthal_matches_dominant_walk(data, name):
    rs = _rs(name)
    cap = FREUDENTHAL_CAP[rs.rank]
    lam = Weight(data.draw(st.tuples(*[st.integers(0, cap)] * rs.rank)))
    _assert_same_freudenthal(rs, lam)


@pytest.mark.parametrize("name, lam", [
    ("E6", (0, 1, 0, 0, 0, 0)),
    ("E7", (1, 0, 0, 0, 0, 0, 0)),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1)),
])
def test_freudenthal_matches_dominant_walk_on_e_adjoints(name, lam):
    _assert_same_freudenthal(_rs(name), Weight(lam))
