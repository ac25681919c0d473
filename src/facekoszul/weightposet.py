"""The order-theoretic layer on dominant weights graded by an integer degree.

Two partial orders live here. The coarse one steps through arbitrary weights
of V, one per degree; the fine one steps only through a face subset, where the
certificate forces the number of steps. Both ask one question: is delta a sum
of exactly k generators? One layered path search answers it: layers of k-fold
generator sums from 0, pruned by a coordinate box around delta, then swept back
from delta, so an interval reads its points off the layers. The forced number is
<functional, nu - mu>, evaluated in integers as one dot product with the
face's pairing row and a divisibility test by its denominator; the face order
compares it with the degree gap before it searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, mul, sub

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


# Memo for the order tests: (delta, steps, generators) -> whether delta is a sum
# of exactly `steps` generators, one entry per query answered.
_DP: dict[tuple, bool] = {}


def _forward_layers(delta, steps: int, gens) -> list[set[tuple[int, ...]]]:
    """Sums of k generators from 0, for k = 0..steps, kept while delta is in reach.

    A sum t stays in layer k only while delta - t lies in the box
    (steps - k) * [min, max] of the generator coordinates, built once per call.
    The last layer is then {delta}; the result is empty when delta is not a sum
    of exactly `steps` generators (with repetition).
    """
    lo = [min(c) for c in zip(*gens)]
    hi = [max(c) for c in zip(*gens)]
    low = [d - steps * h for d, h in zip(delta, hi)]
    high = [d - steps * m for d, m in zip(delta, lo)]
    layers = []
    layer = {(0,) * len(delta)}
    for _ in range(steps + 1):
        layer = {t for t in layer if all(map(le, low, t)) and all(map(le, t, high))}
        if not layer:
            return []
        layers.append(layer)
        layer = {tuple(map(add, t, g)) for t in layer for g in gens}
        low = list(map(add, low, hi))
        high = list(map(add, high, lo))
    return layers


def _path_layers(delta, steps: int, gens) -> list[set[tuple[int, ...]]]:
    """Layer k holds the sums of k generators on some path of `steps` steps from 0 to delta.

    The forward layers, then a backward sweep from delta that keeps the sums
    with a successor still on a path. Empty when delta is no such sum.
    """
    layers = _forward_layers(delta, steps, gens)
    for k in range(len(layers) - 2, -1, -1):
        layers[k] &= {tuple(map(sub, t, g)) for t in layers[k + 1] for g in gens}
    return layers


def _decomposable(delta, steps: int, gens: tuple[Weight, ...]) -> bool:
    """Is delta a sum of exactly `steps` generators? Memoized in _DP."""
    key = (delta, steps, gens)
    value = _DP.get(key)
    if value is None:
        value = _DP[key] = bool(_forward_layers(delta, steps, gens))
    return value


def _forced_length(face: FaceSubset, delta) -> int | None:
    """<functional, delta> if it is a nonnegative integer, else None: one integer
    dot product with the face's pairing row and a divisibility test."""
    if face.functional is None:
        raise FaceCertificateError("face subset carries no certificate")
    num = sum(map(mul, face.pair_row, delta))
    den = face.pair_den
    return num // den if num >= 0 and num % den == 0 else None


def face_distance(face: FaceSubset, mu, nu) -> int | None:
    """Length of a decomposition of nu - mu in the face subset, or None.

    The certificate pins the only possible length to <functional, nu - mu>,
    so a single exact-length search decides membership.
    """
    rank = face.ws.rs.rank
    if len(mu) != rank or len(nu) != rank:
        raise ValueError(f"face_distance needs two weights of rank {rank}")
    delta = tuple(map(sub, nu, mu))
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
    return _decomposable(q.weight - p.weight, q.degree - p.degree, _all_gens(ws))


def face_graded_leq(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> bool:
    """The face-refined order: steps confined to the subset, gap forced by distance.

    The forced length is compared with the degree gap before any search runs.
    """
    gap = q.degree - p.degree
    delta = tuple(map(sub, q.weight, p.weight))
    return _forced_length(face, delta) == gap and _decomposable(delta, gap, face.gens)


def _layered_points(p: GradedWeight, q: GradedWeight, gens) -> set[GradedWeight]:
    """Dominant points on the paths from p up to q in steps from gens; empty if there are none.

    Paths walk through possibly non-dominant weights (they are legitimate
    stepping stones); only dominant ones become points.
    """
    layers = _path_layers(tuple(map(sub, q.weight, p.weight)), q.degree - p.degree, gens)
    return {GradedWeight(w, p.degree + k) for k, layer in enumerate(layers)
            for w in (tuple(map(add, p.weight, t)) for t in layer) if min(w) >= 0}


def _face_points(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> set[GradedWeight]:
    """Dominant points between p and q in the face order; empty if p is not below q."""
    if _forced_length(face, tuple(map(sub, q.weight, p.weight))) != q.degree - p.degree:
        return set()
    return _layered_points(p, q, face.gens)


def face_interval(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> GradedSet:
    """The finite interval [p, q] in the face order; interval-closed by construction."""
    points = _face_points(face, p, q)
    if not points:
        raise IncomparableError(f"{p} and {q} are not comparable in the face order")
    return GradedSet(face, tuple(points), True)


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
    return all(_face_points(face, p, q) <= pts for p in pts for q in pts if p.degree < q.degree)


def interval_coincidence(face: FaceSubset, p: GradedWeight, q: GradedWeight) -> bool:
    """Compare the face interval with the coarse interval between the same endpoints.

    The coarse interval comes from the same layered path search, stepping
    through all weights of V with no face certificate involved. Equality is a
    theorem for certified face subsets, so False flags an implementation bug.
    """
    fine = _face_points(face, p, q)
    if not fine:
        raise IncomparableError(f"{p} and {q} are not comparable in the face order")
    return fine == _layered_points(p, q, _all_gens(face.ws))
