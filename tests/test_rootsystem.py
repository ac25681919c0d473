import json
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from oracles import pairing

from facekoszul import (
    CartanDatum,
    Weight,
    build_root_system,
    datum_from_json,
    root_system,
    series_datum,
    simple_reflection,
    to_dominant_signed,
    weyl_dim,
)
from facekoszul.errors import CartanDatumError
from facekoszul.rootsystem import _minimal_symmetrizer, _null_basis, _rref

CLASSICAL_COUNTS = {
    "A1": 1,
    "A2": 3,
    "A3": 6,
    "B2": 4,
    "B3": 9,
    "C2": 4,
    "C3": 9,
    "D4": 12,
    "G2": 6,
    "F4": 24,
    "E6": 36,
    "E7": 63,
    "E8": 120,
}


@pytest.mark.parametrize("name,count", sorted(CLASSICAL_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = root_system(name)
    assert len(rs.positive_roots) == count


def test_a1_positive_roots_forced():
    rs = root_system("A1")
    assert rs.positive_roots == (Weight((2,)),)


def test_rho_is_all_ones_and_half_sum():
    for name in ("A2", "B2", "C3", "G2"):
        rs = root_system(name)
        assert rs.rho == Weight((1,) * rs.rank)
        total = Weight.zero(rs.rank)
        for alpha in rs.positive_roots:
            total = total + alpha
        assert total == 2 * rs.rho


def test_simple_roots_are_cartan_columns():
    rs = root_system("A2")
    assert rs.simple_roots == (Weight((2, -1)), Weight((-1, 2)))


@pytest.mark.parametrize("name", sorted(CLASSICAL_COUNTS))
def test_reflections_permute_roots_up_to_sign(name):
    rs = root_system(name)
    roots = set(rs.positive_roots) | {-b for b in rs.positive_roots}
    for i in range(1, rs.rank + 1):
        for beta in rs.positive_roots:
            assert simple_reflection(rs, i, beta) in roots


def test_form_is_weyl_invariant_on_random_words():
    rng = random.Random(71)
    for name in ("A2", "B2", "G2", "A3"):
        rs = root_system(name)
        for _ in range(25):
            mu = Weight(tuple(rng.randint(-4, 4) for _ in range(rs.rank)))
            nu = Weight(tuple(rng.randint(-4, 4) for _ in range(rs.rank)))
            word = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 6))]
            wmu, wnu = mu, nu
            for i in word:
                wmu = simple_reflection(rs, i, wmu)
                wnu = simple_reflection(rs, i, wnu)
            assert pairing(rs, wmu, wnu) == pairing(rs, mu, nu)
            assert rs.ip(wmu, wnu) == rs.ip(mu, nu)


def test_weight_sum_and_difference():
    a, b = Weight((3, -1)), Weight((1, 2))
    for got, want in ((a + b, (4, 1)), (a - b, (2, -3)), (a + [1, 1], (4, 0)), (a - (0, 5), (3, -6))):
        assert type(got) is Weight and got == want
        assert all(type(x) is int for x in got)
    for other in ((1,), (1, 2, 3), [0]):
        with pytest.raises(ValueError):
            a + other
        with pytest.raises(ValueError):
            a - other


def test_simple_reflection_examples():
    a1 = root_system("A1")
    assert simple_reflection(a1, 1, Weight((1,))) == Weight((-1,))
    a2 = root_system("A2")
    assert simple_reflection(a2, 1, Weight((1, 1))) == Weight((-1, 2))
    # fixed point iff the paired coordinate vanishes
    assert simple_reflection(a2, 1, Weight((0, 3))) == Weight((0, 3))


def test_simple_reflection_is_involution():
    rng = random.Random(5)
    rs = root_system("B2")
    for _ in range(20):
        w = Weight((rng.randint(-3, 3), rng.randint(-3, 3)))
        for i in (1, 2):
            assert simple_reflection(rs, i, simple_reflection(rs, i, w)) == w


def test_simple_reflection_index_out_of_range():
    rs = root_system("A2")
    with pytest.raises(IndexError):
        simple_reflection(rs, 0, Weight((1, 0)))
    with pytest.raises(IndexError):
        simple_reflection(rs, 3, Weight((1, 0)))


def test_to_dominant_signed():
    a1 = root_system("A1")
    assert to_dominant_signed(a1, Weight((3,))) == (Weight((3,)), 1, False)
    assert to_dominant_signed(a1, Weight((0,))) == (Weight((0,)), 1, True)
    assert to_dominant_signed(a1, Weight((-3,))) == (Weight((3,)), -1, False)
    a2 = root_system("A2")
    # rho sent through s2 then s1, coming back with an even word
    w = simple_reflection(a2, 1, simple_reflection(a2, 2, a2.rho))
    assert to_dominant_signed(a2, w) == (a2.rho, 1, False)


def test_to_dominant_lands_in_orbit():
    rng = random.Random(17)
    rs = root_system("G2")
    for _ in range(30):
        w = Weight((rng.randint(-5, 5), rng.randint(-5, 5)))
        dom, sign, singular = to_dominant_signed(rs, w)
        assert dom.is_dominant
        assert sign in (1, -1)
        assert singular == any(c == 0 for c in dom)
        assert rs.ip(dom, dom) == rs.ip(w, w)


def test_weyl_dim():
    a1 = root_system("A1")
    for m in range(6):
        assert weyl_dim(a1, Weight((m,))) == m + 1
    a2 = root_system("A2")
    assert weyl_dim(a2, Weight((0, 0))) == 1
    assert weyl_dim(a2, Weight((1, 1))) == 8
    assert weyl_dim(a2, Weight((1, 0))) == 3
    assert weyl_dim(root_system("C2"), Weight((2, 0))) == 10
    assert weyl_dim(root_system("G2"), Weight((0, 1))) == 14
    with pytest.raises(ValueError):
        weyl_dim(a2, Weight((-1, 0)))


def test_rejects_non_finite_type():
    # affine sl2 matrix: symmetrizable but not positive definite
    with pytest.raises(CartanDatumError):
        build_root_system(CartanDatum(2, ((2, -2), (-2, 2)), (1, 1)))


def _fraction_det(mat):
    """Determinant by Fraction Gaussian elimination with row swaps."""
    rows = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


# (a_ij, a_ji) for a linked pair: every off-diagonal pattern of rank-2 finite,
# affine and hyperbolic type, simple links the most common.
_LINKS = ((-1, -1),) * 24 + ((-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4), (-2, -3))


def _random_gcm(rng, n):
    # a random forest (often finite) plus a few extra links closing cycles
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(1, n):
        if rng.random() < 0.85:
            i = rng.randrange(j)
            a[i][j], a[j][i] = rng.choice(_LINKS)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] == 0 and rng.random() < 0.08:
                a[i][j], a[j][i] = rng.choice(_LINKS)
    return a


def _components(a):
    seen, count = set(), 0
    for start in range(len(a)):
        if start not in seen:
            count += 1
            stack = [start]
            while stack:
                i = stack.pop()
                if i not in seen:
                    seen.add(i)
                    stack.extend(j for j in range(len(a)) if j != i and a[i][j])
    return count


def test_finite_type_test_agrees_with_sylvester():
    # Kac's A u = 1, u > 0 test in validate against Sylvester's leading
    # minors of D A, on random GCMs: trees, cycles, decomposable ones, and
    # affine and indefinite blocks among them.
    rng = random.Random(20111)
    seen = {"finite": 0, "infinite": 0, "not symmetrizable": 0}
    for trial in range(600):
        a = _random_gcm(rng, 1 + trial % 6)
        n = len(a)
        try:
            d = _minimal_symmetrizer(a)
        except CartanDatumError as exc:
            assert "symmetriz" in str(exc)
            # a forest of negative links is always symmetrizable: a cycle must be there
            links = sum(a[i][j] != 0 for i in range(n) for j in range(i + 1, n))
            assert links >= n - _components(a) + 1, a
            seen["not symmetrizable"] += 1
            continue
        sym = [[d[i] * a[i][j] for j in range(n)] for i in range(n)]
        finite = all(_fraction_det([row[:k] for row in sym[:k]]) > 0 for k in range(1, n + 1))
        seen["finite" if finite else "infinite"] += 1
        try:
            datum = datum_from_json({"rank": n, "cartan": a})
        except CartanDatumError as exc:
            assert not finite, (a, exc)
            assert str(exc) == "symmetrized matrix is not positive definite (not finite type)"
        else:
            assert finite, a
            assert datum.symmetrizer == tuple(d)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
                                  "B6", "C2", "C3", "C4", "C5", "C6", "D3", "D4", "D5", "D6",
                                  "E6", "E7", "E8", "F4", "G2"])
def test_minimal_symmetrizer_matches_series(name):
    datum = series_datum(name[0], int(name[1:]))
    assert tuple(_minimal_symmetrizer([list(row) for row in datum.cartan])) == datum.symmetrizer


def test_minimal_symmetrizer_per_component():
    # G2 x B2, the B2 block with its short root first: one primitive vector each
    g2_b2 = [[2, -3, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -2], [0, 0, -1, 2]]
    assert _minimal_symmetrizer(g2_b2) == [1, 3, 1, 2]
    assert datum_from_json({"rank": 4, "cartan": g2_b2}).symmetrizer == (1, 3, 1, 2)
    # with the long root first, B2 is scaled on its own, not with G2: (1, 3, 2, 1)
    g2_b2 = [[2, -3, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -2, 2]]
    assert _minimal_symmetrizer(g2_b2) == [1, 3, 2, 1]
    # isolated nodes are components too
    assert _minimal_symmetrizer([[2, 0, 0], [0, 2, -1], [0, -1, 2]]) == [1, 1, 1]
    # a sign clash leaves a negative entry: not symmetrizable, not a ValueError
    with pytest.raises(CartanDatumError, match="symmetriz"):
        _minimal_symmetrizer([[2, 1], [-1, 2]])
    # rank 0 reaches validate's rank check as a CartanDatumError
    with pytest.raises(CartanDatumError):
        datum_from_json({"rank": 0, "cartan": []})


def test_null_basis_is_primitive_and_spans_the_kernel():
    rng = random.Random(7)
    for trial in range(200):
        n = 1 + trial % 6
        rows = [[rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(n)]
                for _ in range(rng.randrange(n + 1))]
        red, pivots = _rref(rows, n)
        null = _null_basis(red, pivots, n)
        assert len(null) == n - len(pivots)
        for fc, vec in zip((c for c in range(n) if c not in pivots), null):
            assert vec[fc] > 0 and gcd(*vec) == 1
            assert all(sum(map(mul, row, vec)) == 0 for row in rows)
            # zero in every other free column, so the vectors are independent
            assert all(vec[c] == 0 for c in range(n) if c not in pivots and c != fc)


def test_rejects_non_symmetrizable():
    # zero pattern broken between nodes 1 and 3
    bad = {"rank": 3, "cartan": [[2, -1, 0], [-2, 2, -1], [-1, -1, 2]]}
    with pytest.raises(CartanDatumError):
        datum_from_json(bad)
    # symmetric zero pattern but inconsistent ratios around the triangle
    cyclic = {"rank": 3, "cartan": [[2, -1, -2], [-1, 2, -1], [-1, -1, 2]]}
    with pytest.raises(CartanDatumError):
        datum_from_json(cyclic)


def test_rejects_malformed_entries():
    with pytest.raises(CartanDatumError):
        CartanDatum(2, ((2, 1), (1, 2)), (1, 1)).validate()
    with pytest.raises(CartanDatumError):
        CartanDatum(2, ((1, -1), (-1, 2)), (1, 1)).validate()
    with pytest.raises(CartanDatumError):
        CartanDatum(2, ((2, -1), (0, 2)), (1, 1)).validate()


def test_datum_from_json_forms():
    d1 = datum_from_json({"type": "B", "rank": 2})
    assert d1 == series_datum("B", 2)
    d2 = datum_from_json({"rank": 2, "cartan": [[2, -1], [-2, 2]], "symmetrizer": [2, 1]})
    assert d2.cartan == ((2, -1), (-2, 2))
    # symmetrizer can be derived when omitted
    d3 = datum_from_json(json.dumps({"rank": 2, "cartan": [[2, -1], [-2, 2]]}))
    assert d3.symmetrizer == (2, 1)
    rs = build_root_system(d3)
    assert len(rs.positive_roots) == 4


def test_series_rank_guards():
    with pytest.raises(CartanDatumError):
        series_datum("E", 5)
    with pytest.raises(CartanDatumError):
        series_datum("G", 3)
    with pytest.raises(CartanDatumError):
        series_datum("H", 2)


def test_form_positive_definite():
    for name in ("A2", "B2", "G2", "C3"):
        rs = root_system(name)
        n = rs.rank
        # leading principal minors of the form matrix, exactly
        for k in range(1, n + 1):
            rows = [list(rs.form[i][:k]) for i in range(k)]
            det = Fraction(1)
            for col in range(k):
                piv = next(r for r in range(col, k) if rows[r][col] != 0)
                if piv != col:
                    rows[col], rows[piv] = rows[piv], rows[col]
                    det = -det
                det *= rows[col][col]
                for r in range(col + 1, k):
                    f = rows[r][col] / rows[col][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
            assert det > 0


def test_root_coords_are_nonnegative_integers_on_positive_roots():
    for name in ("B3", "G2", "F4"):
        rs = root_system(name)
        for beta in rs.positive_roots:
            coeffs = rs.root_coords(beta)
            assert all(c.denominator == 1 and c >= 0 for c in coeffs)
            assert any(c > 0 for c in coeffs)
