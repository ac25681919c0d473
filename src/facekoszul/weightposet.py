"""The order-theoretic layer on dominant weights graded by an integer degree.

Two partial orders live here. The coarse one steps through arbitrary weights
of V, one per degree; the fine one steps only through a face subset, where the
certificate forces the number of steps, turning membership in the subset's
nonnegative span into a bounded dynamic program. The forced number is
<functional, nu - mu>, evaluated in integers as one dot product with the
face's pairing row and a divisibility test by its denominator; the face order
compares it with the degree gap before it searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub

from .errors import FaceCertificateError, IncomparableError
from .facegeom import FaceSubset, WeightSystem
from .rootsystem import RootSystem, Weight

__all__ = [
    "GradedWeight",
    "GradedSet",
    "linear_key",
    "face_distance",
    "face_leq",
    "covers",
    "graded_leq",
    "face_graded_leq",
    "face_interval",
    "face_downset",
    "is_interval_closed",
    "interval_coincidence",
]


@dataclass(frozen=True)
class GradedWeight:
    """A dominant weight placed in an integer degree."""

    weight: Weight
    degree: int

    def __post_init__(self):
        w = Weight(self.weight)
        if not w.is_dominant:
            raise ValueError(f"graded points need dominant weights, got {tuple(w)}")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "degree", int(self.degree))


def linear_key(rs: RootSystem, p: GradedWeight):
    """Degree, then <rho, weight>, then coordinates: a linear extension of both orders."""
    return (p.degree, rs.height2(p.weight), tuple(p.weight))


@dataclass(frozen=True)
class GradedSet:
    """A finite set of graded points attached to a face subset.

    The points are stored sorted by `linear_key`, however they are given.
    """

    face: FaceSubset
    points: tuple[GradedWeight, ...]
    interval_closed: bool

    def __post_init__(self):
        rs = self.face.ws.rs
        pts = tuple(sorted(self.points, key=lambda p: linear_key(rs, p)))
        object.__setattr__(self, "points", pts)

    @classmethod
    def build(cls, face: FaceSubset, points) -> "GradedSet":
        pts = tuple(set(points))
        return cls(face, pts, is_interval_closed(face, pts))

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self.points


# Memo for the bounded decomposition DP, keyed by (target, steps, generators).
_DP: dict[tuple, bool] = {}


def _decomposable(delta: tuple[int, ...], steps: int, gens: tuple[Weight, ...]) -> bool:
    """Can delta be written as a sum of exactly `steps` generators (with repetition)?

    A depth-first search with an explicit stack, so the depth is not bounded by
    the interpreter's recursion limit. A call whose (delta, steps) is already
    in _DP returns the memoized value at once. A node (delta, steps) fails when
    delta leaves the box steps * [min, max] of the generator coordinates;
    otherwise its children delta - g are tried in generator order until one
    succeeds, and the node's value is memoized in _DP.
    """
    if steps == 0:
        return not any(delta)
    value = _DP.get((delta, steps, gens))
    if value is not None:
        return value
    bounds = [(min(c), max(c)) for c in zip(*gens)]

    def settled(d, s):
        """The value of node (d, s) if known without expanding it, else None."""
        if s == 0:
            return not any(d)
        for x, (lo, hi) in zip(d, bounds):
            if not s * lo <= x <= s * hi:
                return False
        return _DP.get((d, s, gens))

    value = settled(delta, steps)
    if value is not None:
        return value
    stack = [[tuple(delta), steps, 0]]  # node plus the index of its next child
    while stack:
        frame = stack[-1]
        d, s, i = frame
        if value or i == len(gens):
            _DP[(d, s, gens)] = value = bool(value)
            stack.pop()
            continue
        frame[2] = i + 1
        child = tuple(map(sub, d, gens[i]))
        value = settled(child, s - 1)
        if value is None:
            stack.append([child, s - 1, 0])
    return value


def _forced_length(face: FaceSubset, delta) -> int | None:
    """<functional, delta> if it is a positive integer, else None: one integer
    dot product with the face's pairing row and a divisibility test."""
    num = sum(map(mul, face.pair_row, delta))
    den = face.pair_den
    return num // den if num > 0 and num % den == 0 else None


def face_distance(face: FaceSubset, mu, nu) -> int | None:
    """Length of a decomposition of nu - mu in the face subset, or None.

    The certificate pins the only possible length to <functional, nu - mu>,
    so a single exact-depth search decides membership.
    """
    if face.functional is None:
        raise FaceCertificateError("face subset carries no certificate")
    rank = len(face.pair_row)
    if len(mu) != rank or len(nu) != rank:
        raise ValueError(f"face_distance needs two weights of rank {rank}")
    delta = tuple(map(sub, nu, mu))
    if not any(delta):
        return 0
    d = _forced_length(face, delta)
    return d if d is not None and _decomposable(delta, d, face.gens) else None


def face_leq(face: FaceSubset, mu, nu) -> bool:
    return face_distance(face, mu, nu) is not None


def covers(ws: WeightSystem, p: GradedWeight, q: GradedWeight) -> bool:
    """q covers p: one degree up, and the weight difference is a weight of V."""
    return q.degree == p.degree + 1 and (q.weight - p.weight) in ws.weights


def _all_gens(ws: WeightSystem) -> tuple[Weight, ...]:
    return tuple(w for w, _ in ws.weight_items)


def graded_leq(ws: WeightSystem, p: GradedWeight, q: GradedWeight) -> bool:
    """The coarse order: the degree gap counts steps through arbitrary weights of V."""
    gap = q.degree - p.degree
    if gap < 0:
        return False
    if gap == 0:
        return p.weight == q.weight
    return _decomposable(q.weight - p.weight, gap, _all_gens(ws))


def face_graded_leq(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> bool:
    """The face-refined order: steps confined to the subset, gap forced by distance.

    The forced length is compared with the degree gap before any search runs.
    """
    if face.functional is None:
        raise FaceCertificateError("face subset carries no certificate")
    gap = q.degree - p.degree
    delta = tuple(map(sub, q.weight, p.weight))
    if not any(delta):
        return gap == 0
    return _forced_length(face, delta) == gap and _decomposable(delta, gap, face.gens)


def _layered_points(p: GradedWeight, q: GradedWeight, gens, reaches) -> set[GradedWeight]:
    """Dominant points on the paths from p up to q in steps from gens, by pruned layer BFS.

    Layers walk through possibly non-dominant weights (they are legitimate
    stepping stones); only dominant ones become points. `reaches(w, k)` says
    whether q.weight is k steps above w, and a layer keeps a weight only if
    the top is still reachable in the remaining steps, which preserves every
    path: predecessors of valid weights are valid.
    """
    d = q.degree - p.degree
    out: set[GradedWeight] = set()
    layer = {p.weight}
    for k in range(d + 1):
        out.update(GradedWeight(w, p.degree + k) for w in layer if w.is_dominant)
        if k == d:
            break
        remaining = d - k - 1
        layer = {w for w in {u + g for u in layer for g in gens} if reaches(w, remaining)}
    return out


def _interval_points(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> set[GradedWeight]:
    """Dominant points between p and q in the face order."""
    return _layered_points(p, q, face.gens, lambda w, k: face_distance(face, w, q.weight) == k)


def face_interval(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> GradedSet:
    """The finite interval [p, q] in the face order; interval-closed by construction."""
    if not face_graded_leq(face, p, q):
        raise IncomparableError(f"{p} and {q} are not comparable in the face order")
    return GradedSet(face, tuple(_interval_points(face, p, q)), True)


def face_downset(face: FaceSubset, q: GradedWeight, max_depth: int) -> GradedSet:
    """All points below q in the face order within the given distance.

    Interval-closed by construction: a point r with p <= r <= q is no farther
    from q than p is, so it was collected too.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    out = {q}
    layer = {q.weight}
    for k in range(1, max_depth + 1):
        layer = {w - g for w in layer for g in face.gens}
        for w in layer:
            if w.is_dominant:
                out.add(GradedWeight(w, q.degree - k))
    return GradedSet(face, tuple(out), True)


def is_interval_closed(face: FaceSubset, points) -> bool:
    """Every interval between comparable members stays inside the set."""
    pts = set(points)
    for p in pts:
        for q in pts:
            if p is not q and p.degree < q.degree and face_graded_leq(face, p, q):
                if not _interval_points(face, p, q) <= pts:
                    return False
    return True


def interval_coincidence(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> bool:
    """Compare the face interval with the coarse interval between the same endpoints.

    The coarse interval runs the same layered BFS, but steps through all
    weights of V and prunes by coarse reachability, with no face certificate
    involved. Equality is a theorem for certified face subsets, so False
    flags an implementation bug.
    """
    if not face_graded_leq(face, p, q):
        raise IncomparableError(f"{p} and {q} are not comparable in the face order")
    gens = _all_gens(face.ws)
    coarse = _layered_points(p, q, gens, lambda w, k: _decomposable(q.weight - w, k, gens))
    return _interval_points(face, p, q) == coarse
