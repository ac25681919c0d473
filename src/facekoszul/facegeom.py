"""Faces of the weight polytope, exactly.

Whether a subset of wt(V) lies on a proper face is decided by a rational
linear program: a functional equal to 1 on the subset and at most 1 on all of
wt(V). Its rows are the weights' integer pairing rows, built once per weight
system; the fraction-free kernel `rootsystem._rref` solves the equalities, so
the particular solution is integers over one denominator, the null basis is
integer, and Fourier-Motzkin elimination runs on integers, each stage pruned
to one row per primitive direction and the tightest bound, and guarded in its
row pairs. The certificate is re-verified in integers through its pairing row.
Rigidity of weight decompositions is checked by guarded, bounded exhaustive
enumeration, to be played against the LP in tests. Face enumeration takes
facets from integer normals (`_null_basis`) and lower faces as intersections.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm
from operator import mul

from .characters import ModuleSpec, module_character
from .errors import GuardLimitError
from .rootsystem import RootSystem, Weight, _null_basis, _rref

__all__ = [
    "WeightSystem",
    "FaceSubset",
    "RigidityVerdict",
    "weight_system",
    "lies_on_proper_face",
    "is_rigid_bruteforce",
    "enumerate_face_subsets",
]


@dataclass(frozen=True)
class WeightSystem:
    """wt(V) with eigenspace dimensions and each weight's `_pairing_row` in
    `pairing_rows`, for a fixed semisimple module V."""

    rs: RootSystem
    spec: ModuleSpec
    weight_items: tuple[tuple[Weight, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "_weights", dict(self.weight_items))
        object.__setattr__(self, "key", f"{self.rs.key}#{self.spec.key}")
        rows = {w: _pairing_row(self.rs, w) for w, _ in self.weight_items}
        object.__setattr__(self, "pairing_rows", rows)

    @property
    def weights(self) -> dict:
        return self._weights

    @property
    def dim(self) -> int:
        return sum(m for _, m in self.weight_items)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, WeightSystem) and self.key == other.key


@dataclass(frozen=True)
class FaceSubset:
    """A nonempty subset of wt(V) lying on a proper face, with its certificate.

    `functional` is a rational vector in omega coordinates; the pairing runs
    through the invariant form, takes the value 1 on every member and at most
    1 on all of wt(V). `weight_sum` and `total_mult` are the multiplicity-
    weighted sum and the summed eigenspace dimensions over the subset.

    A certified subset also carries its pairing as one integer row: with
    `pair_den` the least common denominator of functional^T * form and
    `pair_row` that row times `pair_den`, <functional, w> is exactly
    dot(pair_row, w) / pair_den for every integer weight w. Both are None
    when there is no certificate.
    """

    ws: WeightSystem
    weights: frozenset
    functional: tuple[Fraction, ...] | None
    weight_sum: Weight
    total_mult: int

    def __post_init__(self):
        gens = tuple(sorted(self.weights))
        object.__setattr__(self, "gens", gens)
        members = ";".join(",".join(map(str, w)) for w in gens)
        object.__setattr__(self, "key", f"{self.ws.key}|{members}")
        row = den = None
        if self.functional is not None:
            rs = self.ws.rs
            scale = lcm(*(c.denominator for c in self.functional))
            xi = [c.numerator * (scale // c.denominator) for c in self.functional]
            row = [sum(map(mul, xi, col)) for col in zip(*rs.form_int)]
            g = gcd(scale * rs.form_scale, *row)
            row, den = tuple(c // g for c in row), scale * rs.form_scale // g
        object.__setattr__(self, "pair_row", row)
        object.__setattr__(self, "pair_den", den)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, FaceSubset) and self.key == other.key

    def pair(self, w) -> Fraction:
        """<functional, w> through the invariant form, by the integer pairing row."""
        if self.functional is None:
            raise ValueError("face subset has no certificate")
        if len(w) != len(self.pair_row):
            raise ValueError(f"pair needs a weight of rank {len(self.pair_row)}")
        return Fraction(sum(map(mul, self.pair_row, w)), self.pair_den)


def weight_system(rs: RootSystem, spec: ModuleSpec) -> WeightSystem:
    ch = module_character(rs, spec)
    zero = Weight.zero(rs.rank)
    if set(ch.mults) == {zero}:
        raise ValueError("modules with wt(V) = {0} are excluded")
    return WeightSystem(rs, spec, tuple(sorted(ch.mults.items())))


def _pairing_row(rs: RootSystem, beta) -> tuple[int, ...]:
    """Row r with s <xi, beta> = r . xi (xi in omega coordinates, s = rs.form_scale)."""
    return tuple(sum(map(mul, row, beta)) for row in rs.form_int)


def _solve_equalities(eqs: list[tuple[tuple[int, ...], int]], n: int):
    """Exact affine solve of integer c . x = r: (D*P, D, integer null basis) with
    D the least common denominator of the particular solution P, or None if
    inconsistent. The `_null_basis` of [c | -r] has one vector per free column;
    the last one, column n's, is (D*P, D).
    """
    rows, pivots = _rref([[*c, -r] for c, r in eqs], n + 1)
    if n in pivots:
        return None
    *basis, (*particular, den) = _null_basis(rows, pivots, n + 1)
    return particular, den, [vec[:n] for vec in basis]


def _primitive_rows(rows) -> dict[tuple[int, ...], tuple[int, int]] | None:
    """One row per primitive integer direction, keeping the tightest bound.

    `rows` are integer (coeffs, num, den) for coeffs . z <= num / den, den > 0;
    dividing a row by the gcd g of its coefficients leaves its half-space, with
    bound num / (den * g). Bounds compare by cross-multiplying; the kept one is
    (num, den) in lowest terms. All-zero rows are dropped, and None reports one
    with a negative bound (infeasible).
    """
    out: dict[tuple[int, ...], tuple[int, int]] = {}
    for coeffs, num, den in rows:
        g = gcd(*coeffs)
        if g == 0:
            if num < 0:
                return None
            continue
        key = tuple(c // g for c in coeffs)
        den *= g
        old = out.get(key)
        if old is None or num * old[1] < old[0] * den:
            h = gcd(num, den)
            out[key] = (num // h, den // h)
    return out


# Most row pairs one Fourier-Motzkin stage may combine (E6 adjoint: 15 627; E7: 619 369).
FM_COMBINATIONS = 200_000


def _fm_feasible_point(ineqs: list[tuple[list[int], int]], n: int):
    """Fourier-Motzkin feasibility for integer coeffs . z <= rhs; returns a point or None.

    Each stage holds primitive integer directions with their tightest bounds
    as integer fractions (num, den), and rows combine in integers. A positive
    multiple of a row is the same half-space, and a looser row with the same
    direction only yields looser combinations, so every stage keeps the same
    (direction, tightest bound) pairs as unpruned elimination and the
    back-substituted point, the one rational step, is the same. With n = 0
    the point is [] or None. A stage that would combine more than
    FM_COMBINATIONS row pairs raises GuardLimitError.
    """
    cur = _primitive_rows((coeffs, rhs, 1) for coeffs, rhs in ineqs)
    stages: list[dict[tuple[int, ...], tuple[int, int]]] = []
    for v in range(n - 1, -1, -1):
        if cur is None:
            return None
        stages.append(cur)
        pos = [row for row in cur.items() if row[0][v] > 0]
        neg = [row for row in cur.items() if row[0][v] < 0]
        if (pairs := len(pos) * len(neg)) > FM_COMBINATIONS:
            raise GuardLimitError(f"face LP guarded to {FM_COMBINATIONS} Fourier-Motzkin "
                                  f"row pairs per stage, got {pairs}")
        nxt = [(c, num, den) for c, (num, den) in cur.items() if c[v] == 0]
        for pc, (pn, pd) in pos:
            for nc, (nn, nd) in neg:
                a, b = -nc[v], pc[v]
                coeffs = [a * x + b * y for x, y in zip(pc, nc)]
                nxt.append((coeffs, a * pn * nd + b * nn * pd, pd * nd))
        cur = _primitive_rows(nxt)
    if cur is None:
        return None
    point = [Fraction(0)] * n
    for v in range(n):
        lower = upper = None
        for coeffs, (num, den) in stages[n - 1 - v].items():
            cv = coeffs[v]
            if cv == 0:
                continue
            rest = sum(coeffs[j] * point[j] for j in range(v))
            bound = (Fraction(num, den) - rest) / cv
            if cv > 0:
                upper = bound if upper is None or bound < upper else upper
            else:
                lower = bound if lower is None or bound > lower else lower
        if lower is not None and upper is not None:
            point[v] = (lower + upper) / 2
        elif lower is not None:
            point[v] = lower
        elif upper is not None:
            point[v] = upper
    return point


def lies_on_proper_face(ws: WeightSystem, subset) -> FaceSubset | None:
    """Exact LP face test; returns the certified subset, or None when not a face.

    Normalizing the face value to 1 is valid because the weighted barycenter
    of wt(V) is 0, which forces a positive maximum for any supporting
    functional and rules out the improper face wt(V) itself. The rows are s
    times the rational ones (s = rs.form_scale), so the face value is s;
    scaling changes neither the echelon form nor a primitive direction, hence
    nor the functional; a scaled null-basis vector only rescales its
    coordinate in every FM stage. Over the least common denominator D of the
    particular solution P, each inequality is (r . basis) . z <= s*D - r . D*P
    in integers for z = D*y, and xi = (D*P + basis . z) / D.
    """
    rs = ws.rs
    members = frozenset(Weight(w) for w in subset)
    if not members:
        raise ValueError("face subset must be nonempty")
    wts = ws.weights
    if any(w not in wts for w in members):
        raise ValueError("face subset must be contained in wt(V)")
    n = rs.rank
    s = rs.form_scale
    rows = ws.pairing_rows
    solved = _solve_equalities([(rows[p], s) for p in sorted(members)], n)
    if solved is None:
        return None
    base, den, basis = solved
    ineqs = []
    for b in sorted(wts.keys() - members):
        r = rows[b]
        ineqs.append(([sum(map(mul, r, vec)) for vec in basis], s * den - sum(map(mul, r, base))))
    z = _fm_feasible_point(ineqs, len(basis))
    if z is None:
        return None
    xi = [Fraction(p + sum(vec[i] * zi for vec, zi in zip(basis, z))) / den
          for i, p in enumerate(base)]
    face = FaceSubset(
        ws=ws,
        weights=members,
        functional=tuple(xi),
        weight_sum=_weight_sum(ws, members),
        total_mult=sum(wts[w] for w in members),
    )
    row, den = face.pair_row, face.pair_den
    if any(sum(map(mul, row, p)) != den for p in members):
        raise ArithmeticError("certificate failed re-verification on the subset")
    if any(sum(map(mul, row, b)) > den for b in wts):
        raise ArithmeticError("certificate failed re-verification on wt(V)")
    return face


def _weight_sum(ws: WeightSystem, members) -> Weight:
    total = Weight.zero(ws.rs.rank)
    for w in members:
        total = total + ws.weights[w] * w
    return total


@dataclass(frozen=True)
class RigidityVerdict:
    """Outcome of the bounded rigidity search; a False carries its witness."""

    ok: bool
    witness: tuple[dict, dict] | None = None

    def __bool__(self) -> bool:
        return self.ok


# Most multisets of size <= bound the brute force builds (B3 adjoint, bound 6: 177 100).
RIGID_MULTISETS = 200_000


@lru_cache(maxsize=None)
def _decompositions_by_sum(ws: WeightSystem, bound: int):
    """All multisets of wt(V) of size <= bound, grouped by their weight sum.

    Each entry is (size, combo, support bitmask) over the sorted weight list.
    """
    weights = sorted(ws.weights)
    bit = {w: 1 << i for i, w in enumerate(weights)}
    groups: dict[Weight, list[tuple[int, tuple[Weight, ...], int]]] = {}
    for k in range(bound + 1):
        for combo in combinations_with_replacement(weights, k):
            sigma = Weight.zero(ws.rs.rank)
            mask = 0
            for w in combo:
                sigma = sigma + w
                mask |= bit[w]
            groups.setdefault(sigma, []).append((k, combo, mask))
    return groups


def is_rigid_bruteforce(ws: WeightSystem, subset, bound: int) -> RigidityVerdict:
    """Exhaustively search for a length-rigidity violation up to the bound.

    A violation is a pair of decompositions of the same weight, one supported
    in the subset, where the subset-supported one is strictly longer, or ties
    in length against one that leaves the subset. Returning False is a
    certificate; returning True is only exhaustive within the bound.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if (size := comb(len(ws.weights) + bound, bound)) > RIGID_MULTISETS:
        raise GuardLimitError(f"rigidity brute force guarded to {RIGID_MULTISETS} "
                              f"multisets of wt(V), got {size} at bound {bound}")
    members = frozenset(Weight(w) for w in subset)
    if not members or any(w not in ws.weights for w in members):
        raise ValueError("subset must be nonempty and contained in wt(V)")
    bit = {w: 1 << i for i, w in enumerate(sorted(ws.weights))}
    inside = 0
    for w in members:
        inside |= bit[w]
    for group in _decompositions_by_sum(ws, bound).values():
        best = None
        for k, combo, mask in group:
            if mask | inside == inside and (best is None or k > best[0]):
                best = (k, combo)
        if best is None:
            continue
        mk, mcombo = best
        for k, combo, mask in group:
            if k < mk or (k == mk and mask | inside != inside):
                return RigidityVerdict(False, (Counter(mcombo), Counter(combo)))
    return RigidityVerdict(True)


# Exact convex-hull face enumeration at small rank.


def _affine_coords(pts: list[tuple]) -> list[tuple[int, ...]]:
    """Integer coordinates of pts inside their own affine hull (first point at 0).

    The differences p - pts[0] are the columns of one integer matrix. Its pivot
    columns are the basis (each difference independent of the earlier ones),
    and pivot row i of `_rref` is p_i times coordinate i of every difference in
    that basis; rescaling coordinates keeps every face.
    """
    base = pts[0]
    rows, pivots = _rref([[p[i] - base[i] for p in pts] for i in range(len(base))], len(pts))
    return [tuple(row[k] for row in rows[: len(pivots)]) for k in range(len(pts))]


def _proper_faces(pts: list) -> set[frozenset]:
    """All proper nonempty faces of conv(pts), as sets of the points on them.

    In integer coordinates inside the affine hull (dimension m), m affinely
    independent points span the hyperplane whose normal is the null vector of
    their m - 1 differences (with fewer than m - 1 pivots they are dependent);
    it supports a facet when every point lies on one side (the scan stops at
    the first point on the other side). Subsets inside a known facet span that facet again and are
    skipped. Every proper face is the intersection of the facets that contain
    it, so the lower faces are the nonempty intersections.
    """
    local = _affine_coords(pts)
    m = len(local[0])
    if m == 0:
        return set()
    facets: list[int] = []
    for combo in combinations(range(len(pts)), m):
        bits = sum(1 << i for i in combo)
        if any(bits & f == bits for f in facets):
            continue
        base = local[combo[0]]
        diffs = [[a - b for a, b in zip(local[i], base)] for i in combo[1:]]
        rows, pivots = _rref(diffs, m)
        if len(pivots) < m - 1:
            continue
        normal = _null_basis(rows, pivots, m)[0]
        level = sum(map(mul, normal, base))
        side = on = 0
        for i, p in enumerate(local):
            v = sum(map(mul, normal, p)) - level
            if side * v < 0:
                break
            side = side or v
            on |= (v == 0) << i
        else:
            facets.append(on)
    faces = set(facets)
    fresh = faces
    while fresh:
        fresh = {f & g for f in fresh for g in facets} - faces - {0}
        faces |= fresh
    return {frozenset(p for i, p in enumerate(pts) if f >> i & 1) for f in faces}


def enumerate_face_subsets(ws: WeightSystem) -> list[FaceSubset]:
    """One certified subset per proper face of the weight polytope.

    Each returned subset is the full intersection of a face with wt(V);
    faces of all dimensions appear (vertices, edges, ..., facets).
    """
    rs = ws.rs
    if rs.rank > 4:
        raise GuardLimitError(f"face enumeration guarded to rank <= 4, got {rs.rank}")
    if len(ws.weights) > 64:
        raise GuardLimitError(f"face enumeration guarded to |wt(V)| <= 64, got {len(ws.weights)}")
    face_sets = _proper_faces(sorted(ws.weights))
    out = []
    for s in sorted(face_sets, key=lambda f: (len(f), sorted(f))):
        face = lies_on_proper_face(ws, s)
        if face is None:
            raise ArithmeticError(f"hull enumeration produced a non-face {sorted(s)}")
        out.append(face)
    return out
