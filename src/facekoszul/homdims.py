"""Graded Ext and projective-cover multiplicities between simple objects.

Degree gaps do all the work: the Ext space between simples sitting j degrees
apart is the invariant part of (j-th exterior power of V) tensor the source
against the target, and graded multiplicities of simples in a projective cover
use the symmetric power instead. The simple constituents of (power of V)
tensor V(lam) come from the Brauer-Klimyk rule: a signed sum over the power's
weights, each shifted by lam + rho and reflected to the dominant chamber, so
neither the tensor product nor the character of V(lam) is ever built.
Everything is exact and memoized per (module, weight, degree, kind).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .characters import exterior_power, module_character, symmetric_power
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
    "directedness_check",
    "gldim",
    "face_algebra_dim",
    "witness_search",
]


@lru_cache(maxsize=None)
def _module_char(ws: WeightSystem):
    return module_character(ws.rs, ws.spec)


@lru_cache(maxsize=None)
def _power_char(ws: WeightSystem, j: int, kind: str):
    ch = _module_char(ws)
    return exterior_power(ch, j) if kind == "ext" else symmetric_power(ch, j)


@lru_cache(maxsize=None)
def _constituents(ws: WeightSystem, lam: Weight, j: int, kind: str) -> dict:
    """Simple constituents of (power of V) tensor V(lam), as weight -> multiplicity.

    Brauer-Klimyk: each weight mu of the power, with multiplicity m, adds
    sign * m at dom - rho, where dom is the dominant representative of
    mu + lam + rho reached by a word of that sign; singular shifts add nothing.
    """
    if not lam.is_dominant:
        raise ValueError(f"highest weight {tuple(lam)} is not dominant")
    rs = ws.rs
    shift = lam + rs.rho
    acc: dict[Weight, int] = {}  # keyed by dom, i.e. nu + rho
    for mu, m in _power_char(ws, j, kind).mults.items():
        dom, sign, singular = to_dominant_signed(rs, map(add, mu, shift))
        if not singular:
            acc[dom] = acc.get(dom, 0) + sign * m
    out = {}
    for dom, c in acc.items():
        nu = dom - rs.rho
        if c < 0:
            raise VirtualCharacterError(
                f"negative net multiplicity {c} at {tuple(nu)}; the power is not a character"
            )
        if c:
            out[nu] = c
    return out


def ext_dim(ws: WeightSystem, p: GradedWeight, q: GradedWeight) -> int:
    """dim Ext^(s-r) between the simples at p = (mu, r) and q = (nu, s)."""
    gap = q.degree - p.degree
    if gap < 0:
        return 0
    return _constituents(ws, p.weight, gap, "ext").get(q.weight, 0)


def proj_mult(ws: WeightSystem, p: GradedWeight, q: GradedWeight) -> int:
    """Graded multiplicity of the simple at q in the projective cover at p."""
    gap = q.degree - p.degree
    if gap < 0:
        return 0
    return _constituents(ws, p.weight, gap, "sym").get(q.weight, 0)


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
    best = 0
    for p in gamma:
        for q in gamma:
            gap = q.degree - p.degree
            if gap > best and ext_dim(ws, p, q):
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
        m = _constituents(ws, nu, n, "ext").get(target, 0)
        if m > 1:
            raise ArithmeticError(
                f"top exterior multiplicity {m} > 1 at nu={tuple(nu)}; internal inconsistency"
            )
        if m == 1 and nu.is_regular and target.is_regular:
            return k, nu
    raise WitnessSearchError(f"no witness found with k <= {max_k}")
