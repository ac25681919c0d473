"""The order-theoretic layer on dominant weights graded by an integer degree.

Two partial orders live here. The coarse one steps through arbitrary weights
of V, one per degree; the fine one steps only through a face subset, where the
certificate forces the number of steps, turning membership in the subset's
nonnegative span into a bounded dynamic program.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

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
    """A finite set of graded points attached to a face subset."""

    face: FaceSubset
    points: tuple[GradedWeight, ...]
    interval_closed: bool

    @classmethod
    def build(cls, face: FaceSubset, points) -> "GradedSet":
        rs = face.ws.rs
        pts = tuple(sorted(set(points), key=lambda p: linear_key(rs, p)))
        return cls(face, pts, is_interval_closed(face, pts))

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self.points


# Memo for the bounded decomposition DP, keyed by (target, steps, generators).
_DP: dict[tuple, bool] = {}


def _decomposable(delta: Weight, steps: int, gens: tuple[Weight, ...]) -> bool:
    """Can delta be written as a sum of exactly `steps` generators (with repetition)?

    A depth-first search with an explicit stack, so the depth is not bounded by
    the interpreter's recursion limit. A node (delta, steps) fails at once when
    delta leaves the box steps * [min, max] of the generator coordinates;
    otherwise its children delta - g are tried in generator order until one
    succeeds, and the node's value is memoized in _DP.
    """
    if steps == 0:
        return not any(delta)
    bounds = [(min(g[i] for g in gens), max(g[i] for g in gens)) for i in range(len(delta))]

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


def face_distance(face: FaceSubset, mu, nu) -> int | None:
    """Length of a decomposition of nu - mu in the face subset, or None.

    The certificate pins the only possible length to <functional, nu - mu>,
    so a single exact-depth search decides membership.
    """
    if face.functional is None:
        raise FaceCertificateError("face subset carries no certificate")
    delta = Weight(nu) - Weight(mu)
    if not any(delta):
        return 0
    val = face.pair(delta)
    if val.denominator != 1 or val <= 0:
        return None
    d = int(val)
    return d if _decomposable(delta, d, face.gens) else None


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
    """The face-refined order: steps confined to the subset, gap forced by distance."""
    d = face_distance(face, p.weight, q.weight)
    return d is not None and d == q.degree - p.degree


def _interval_points(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> set[GradedWeight]:
    """Dominant points between p and q in the face order, by pruned layer BFS.

    Layers walk through possibly non-dominant weights (they are legitimate
    stepping stones); only dominant ones become points. Pruning keeps a layer
    weight only if the remaining distance to the top matches, which preserves
    every path: predecessors of valid weights are valid.
    """
    d = q.degree - p.degree
    out: set[GradedWeight] = set()
    layer = {p.weight}
    for k in range(d + 1):
        for w in layer:
            if w.is_dominant:
                out.add(GradedWeight(w, p.degree + k))
        if k == d:
            break
        nxt = set()
        remaining = d - k - 1
        for w in layer:
            for g in face.gens:
                cand = w + g
                if cand not in nxt and face_distance(face, cand, q.weight) == remaining:
                    nxt.add(cand)
        layer = nxt
    return out


def face_interval(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> GradedSet:
    """The finite interval [p, q] in the face order; interval-closed by construction."""
    if not face_graded_leq(face, p, q):
        raise IncomparableError(f"{p} and {q} are not comparable in the face order")
    pts = _interval_points(face, p, q)
    rs = face.ws.rs
    return GradedSet(face, tuple(sorted(pts, key=lambda r: linear_key(rs, r))), True)


def face_downset(face: FaceSubset, q: GradedWeight, max_depth: int) -> GradedSet:
    """All points below q in the face order within the given distance."""
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    out = {q}
    layer = {q.weight}
    for k in range(1, max_depth + 1):
        layer = {w - g for w in layer for g in face.gens}
        for w in layer:
            if w.is_dominant:
                out.add(GradedWeight(w, q.degree - k))
    return GradedSet.build(face, out)


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

    The coarse interval is enumerated independently, stepping through all
    weights of V with the same layer pruning. Equality is a theorem for
    certified face subsets, so False flags an implementation bug.
    """
    if not face_graded_leq(face, p, q):
        raise IncomparableError(f"{p} and {q} are not comparable in the face order")
    fine = _interval_points(face, p, q)
    gens = _all_gens(face.ws)
    d = q.degree - p.degree
    coarse: set[GradedWeight] = set()
    layer = {p.weight}
    for k in range(d + 1):
        for w in layer:
            if w.is_dominant:
                coarse.add(GradedWeight(w, p.degree + k))
        if k == d:
            break
        remaining = d - k - 1
        nxt = set()
        for w in layer:
            for g in gens:
                cand = w + g
                if cand not in nxt and _decomposable(q.weight - cand, remaining, gens):
                    nxt.add(cand)
        layer = nxt
    return fine == coarse
