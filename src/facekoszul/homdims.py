"""Graded Ext and projective-cover multiplicities between simple objects.

Degree gaps do all the work: the Ext space between simples sitting j degrees
apart is the invariant part of (j-th exterior power of V) tensor the source
against the target, and graded multiplicities of simples in a projective cover
use the symmetric power instead. Each is one multiplicity [P_j tensor V(lam) :
V(nu)], with P_j the j-th exterior or symmetric power of V; neither the tensor
product nor the character of V(lam) is ever built.

Steinberg's formula in its Racah-Speiser form reads one multiplicity off the
signed W-orbit of nu + rho: the sum over w in W of sign(w) times the
multiplicity of w(nu + rho) - lam - rho in P_j, so |W| dictionary reads. When
|W| exceeds the support of P_j, as on the E types, the Brauer-Klimyk sum over
that support is the cheaper side: each weight of P_j, shifted by lam + rho and
reflected to the dominant chamber, adds its signed multiplicity at one
constituent, and the sums for one (lam, j) are kept together.

Every table lives inside one of three `lru_cache` functions, so clearing them
empties it: `_module_char(ws)` holds V's character, |W| and the signed orbits
read so far; `_power_char(ws, kind)` holds the power layers of every degree up
to the highest one asked for, from one pass, and the support sums;
`_constituents` holds each multiplicity, keyed (ws, lam, nu, j, kind).
Everything is exact.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul, sub

from .characters import Character, power_layers
from .errors import (
    IncomparableError,
    NotIntervalClosedError,
    VirtualCharacterError,
    WitnessSearchError,
)
from .facegeom import FaceSubset, WeightSystem
from .rootsystem import Weight, to_dominant_signed
from .weightposet import GradedSet, GradedWeight, covers, face_distance

__all__ = [
    "ext_dim",
    "proj_mult",
    "prepare_powers",
    "directedness_check",
    "gldim",
    "face_algebra_dim",
    "witness_search",
]


class _Module:
    """V's character over one weight system, the order of W, and the signed
    rho-shifted orbits read so far, keyed by nu."""

    def __init__(self, ws: WeightSystem):
        rs = self.rs = ws.rs
        self.ch = Character(rs, ws.weights)
        # Kostant: |W| is the product over positive roots of (ht + 1) / ht,
        # ht the sum of the simple-root coordinates dot(inv_cartan[i], alpha) / inv_den.
        col_sums = [sum(col) for col in zip(*rs.inv_cartan)]
        num = den = 1
        for alpha in rs.positive_roots:
            ht = sum(map(mul, col_sums, alpha)) // rs.inv_den
            num, den = num * (ht + 1), den * ht
        self.weyl_order = num // den
        self.orbits: dict[Weight, list] = {}

    def orbit(self, nu: Weight) -> list[tuple[tuple, int]]:
        """The W-orbit of nu + rho (nu dominant, so nu + rho is regular), each
        point with the sign of the one w reaching it.

        Built down from nu + rho, a level per length: reflecting a point in a
        positive coordinate gives a point one reflection longer.
        """
        points = self.orbits.get(nu)
        if points is None:
            simple = self.rs.simple_roots
            top = tuple(nu + self.rs.rho)
            signs = {top: 1}
            level, sign = [top], 1
            while level:
                sign = -sign
                fresh = []
                for x in level:
                    for i, c in enumerate(x):
                        if c > 0:
                            y = tuple([a - c * b for a, b in zip(x, simple[i])])
                            if y not in signs:
                                signs[y] = sign
                                fresh.append(y)
                level = fresh
            points = self.orbits[nu] = list(signs.items())
        return points


class _Powers:
    """The exterior or symmetric power layers of V, degree 0 up to the highest
    asked for, and the Brauer-Klimyk support sums keyed (lam, j)."""

    def __init__(self, ch, alternating: bool):
        self.ch = ch
        self.alternating = alternating
        self.layers = [{(0,) * ch.rs.rank: 1}]
        self.sums: dict[tuple[Weight, int], dict] = {}

    def prepare(self, top: int) -> None:
        """Make sure every layer up to degree top is built: one pass if not."""
        if self.alternating:
            top = min(top, self.ch.dimension)
        if top >= len(self.layers):
            self.layers = power_layers(self.ch, top, self.alternating)

    def layer(self, j: int) -> dict:
        self.prepare(j)
        return self.layers[j] if 0 <= j < len(self.layers) else {}


@lru_cache(maxsize=None)
def _module_char(ws: WeightSystem) -> _Module:
    return _Module(ws)


@lru_cache(maxsize=None)
def _power_char(ws: WeightSystem, kind: str) -> _Powers:
    return _Powers(_module_char(ws).ch, kind == "ext")


def _orbit_side(module: _Module, layer: dict, lam: Weight, nu: Weight) -> int:
    """Racah-Speiser: sum of sign(w) * m(w(nu + rho) - lam - rho) over w in W,
    m the multiplicities of the power layer."""
    get = layer.get
    shift = lam + module.rs.rho
    total = 0
    for x, sign in module.orbit(nu):
        m = get(tuple(map(sub, x, shift)))
        if m:
            total += sign * m
    return total


def _support_side(module: _Module, powers: _Powers, lam: Weight, nu: Weight, j: int) -> int:
    """Brauer-Klimyk: each weight mu of the degree-j layer with multiplicity m
    adds sign * m at the dominant representative of mu + lam + rho reached by a
    word of that sign, unless it is singular; the value sits at nu + rho."""
    rs = module.rs
    sums = powers.sums.get((lam, j))
    if sums is None:
        shift = lam + rs.rho
        sums = powers.sums[lam, j] = {}
        for mu, m in powers.layer(j).items():
            dom, sign, singular = to_dominant_signed(rs, map(add, mu, shift))
            if not singular:
                sums[dom] = sums.get(dom, 0) + sign * m
    return sums.get(nu + rs.rho, 0)


@lru_cache(maxsize=None)
def _constituents(ws: WeightSystem, lam: Weight, nu: Weight, j: int, kind: str) -> int:
    """[P_j tensor V(lam) : V(nu)], P_j the j-th exterior ("ext") or symmetric
    ("sym") power of V, from the cheaper side: the orbit of nu + rho unless |W|
    exceeds the support of P_j."""
    if not lam.is_dominant:
        raise ValueError(f"highest weight {tuple(lam)} is not dominant")
    if not nu.is_dominant:
        return 0
    module, powers = _module_char(ws), _power_char(ws, kind)
    layer = powers.layer(j)
    if module.weyl_order > len(layer):
        c = _support_side(module, powers, lam, nu, j)
    else:
        c = _orbit_side(module, layer, lam, nu)
    if c < 0:
        raise VirtualCharacterError(
            f"negative net multiplicity {c} at {tuple(nu)}; the power is not a character"
        )
    return c


def prepare_powers(ws: WeightSystem, kind: str, top: int) -> None:
    """Build the power layers up to degree top in one pass, ahead of a fill
    that reads every gap up to it."""
    _power_char(ws, kind).prepare(top)


def ext_dim(ws: WeightSystem, p: GradedWeight, q: GradedWeight) -> int:
    """dim Ext^(s-r) between the simples at p = (mu, r) and q = (nu, s)."""
    gap = q.degree - p.degree
    if gap < 0:
        return 0
    return _constituents(ws, p.weight, q.weight, gap, "ext")


def proj_mult(ws: WeightSystem, p: GradedWeight, q: GradedWeight) -> int:
    """Graded multiplicity of the simple at q in the projective cover at p."""
    gap = q.degree - p.degree
    if gap < 0:
        return 0
    return _constituents(ws, p.weight, q.weight, gap, "sym")


def directedness_check(ws: WeightSystem, pairs) -> bool:
    """Nonzero Ext at degree gap one must come from a cover relation."""
    for p, q in pairs:
        if q.degree - p.degree == 1 and ext_dim(ws, p, q) and not covers(ws, p, q):
            return False
    return True


def gldim(face: FaceSubset, gamma: GradedSet) -> int:
    """Largest degree gap carrying a nonzero Ext between points of gamma."""
    if not gamma.interval_closed:
        raise NotIntervalClosedError("global dimension needs an interval-closed set")
    ws = face.ws
    pts = gamma.points
    best = 0
    # Points are stored by degree: scan each source's targets from the top
    # degree down and stop at the best gap so far. The first lookup asks for
    # the whole degree span, so the exterior layers come from one pass.
    for p in pts:
        for q in reversed(pts):
            gap = q.degree - p.degree
            if gap <= best:
                break
            if ext_dim(ws, p, q):
                best = gap
    return best


def face_algebra_dim(face: FaceSubset, nu, mu) -> int:
    """Dimension of the (nu, mu) block of the face-indexed invariant algebra.

    This equals the projective-cover multiplicity at the forced degree gap,
    which is the graded-dimension identity behind the Hilbert matrices.
    """
    d = face_distance(face, mu, nu)
    if d is None:
        raise IncomparableError(f"{tuple(Weight(mu))} !<= {tuple(Weight(nu))} in the face order")
    return proj_mult(face.ws, GradedWeight(Weight(mu), 0), GradedWeight(Weight(nu), d))


def witness_search(face: FaceSubset, eta=None, max_k: int = 6) -> tuple[int, Weight]:
    """Find nu = eta + 2k rho, both nu and nu + weight_sum regular, with top
    exterior multiplicity exactly one.

    The multiplicity can never exceed one when both weights are dominant; a
    larger value is reported as an internal inconsistency, not a miss.
    """
    ws = face.ws
    rs = ws.rs
    eta = Weight.zero(rs.rank) if eta is None else Weight(eta)
    if not eta.is_dominant:
        raise ValueError(f"starting weight {tuple(eta)} is not dominant")
    n = face.total_mult
    for k in range(max_k + 1):
        nu = eta + (2 * k) * rs.rho
        target = nu + face.weight_sum
        if not target.is_dominant:
            continue
        m = _constituents(ws, nu, target, n, "ext")
        if m > 1:
            raise ArithmeticError(
                f"top exterior multiplicity {m} > 1 at nu={tuple(nu)}; internal inconsistency"
            )
        if m == 1 and nu.is_regular and target.is_regular:
            return k, nu
    raise WitnessSearchError(f"no witness found with k <= {max_k}")
