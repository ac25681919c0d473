"""Finite-support character arithmetic over a fixed root system.

Characters are finite maps weight -> integer multiplicity. Irreducible
characters come from Freudenthal's recursion, memoized in this process only;
tensor products are support convolutions; exterior and symmetric powers of
every degree up to a bound come out of one division-free pass, one factor
(1 + x^w) or 1/(1 - x^w) per unit of weight multiplicity; irreducible
multiplicities are extracted by maximal-weight subtraction, cross-checkable
against the signed Weyl-orbit sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from types import MappingProxyType

from .errors import VirtualCharacterError
from .rootsystem import RootSystem, Weight, to_dominant_signed, weyl_dim

__all__ = [
    "Character",
    "ModuleSpec",
    "irr_character",
    "module_character",
    "tensor",
    "adams",
    "power_layers",
    "exterior_power",
    "symmetric_power",
    "mult_in",
    "mult_in_alternating",
    "decompose",
    "is_weyl_invariant",
    "weight_sort_key",
]


@dataclass(frozen=True)
class ModuleSpec:
    """A finite semisimple module given as (dominant highest weight, multiplicity) pairs."""

    summands: tuple[tuple[Weight, int], ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("module spec needs at least one summand")
        norm: dict[Weight, int] = {}
        for lam, mult in self.summands:
            lam = Weight(lam)
            if not lam.is_dominant:
                raise ValueError(f"summand weight {tuple(lam)} is not dominant")
            if mult <= 0:
                raise ValueError("summand multiplicities must be positive")
            norm[lam] = norm.get(lam, 0) + int(mult)
        object.__setattr__(self, "summands", tuple(sorted(norm.items())))

    @property
    def key(self) -> str:
        return "+".join(f"{m}*" + ",".join(map(str, w)) for w, m in self.summands)


class Character:
    """Immutable weight-multiplicity map tied to a root system."""

    __slots__ = ("rs", "mults", "_dim")

    def __init__(self, rs: RootSystem, mults):
        clean = {}
        for w, m in mults.items():
            if m:
                clean[w if type(w) is Weight else Weight(w)] = int(m)
        self.rs = rs
        self.mults = MappingProxyType(clean)
        self._dim = None

    @property
    def dimension(self) -> int:
        if self._dim is None:
            self._dim = sum(self.mults.values())
        return self._dim

    def get(self, w, default: int = 0) -> int:
        return self.mults.get(w, default)

    def __bool__(self) -> bool:
        return bool(self.mults)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.rs.key == other.rs.key
            and dict(self.mults) == dict(other.mults)
        )

    def __repr__(self) -> str:
        return f"Character(dim={self.dimension}, support={len(self.mults)})"


def weight_sort_key(rs: RootSystem, w):
    """The fixed linear order: <rho, .> first, then lexicographic coordinates."""
    return (rs.height2(w), tuple(w))


# Memo for irreducible characters, keyed by (root-system key, highest weight).
_MEMO: dict[tuple[str, Weight], Character] = {}


def irr_character(rs: RootSystem, lam) -> Character:
    """Character of the simple module with highest weight lam (Freudenthal)."""
    lam = Weight(lam)
    if not lam.is_dominant:
        raise ValueError(f"highest weight {tuple(lam)} is not dominant")
    memo_key = (rs.key, lam)
    hit = _MEMO.get(memo_key)
    if hit is not None:
        return hit
    expected_dim = weyl_dim(rs, lam)
    ch = Character(rs, _freudenthal(rs, lam))
    if ch.dimension != expected_dim:
        raise ArithmeticError(
            f"Freudenthal dimension {ch.dimension} != Weyl dimension {expected_dim} at {tuple(lam)}"
        )
    _MEMO[memo_key] = ch
    return ch


def _freudenthal(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """All weights of V(lam) with multiplicities, level by level from the top.

    Every weight mu != lam has a weight mu + alpha_i, so stepping down by simple
    roots from the finished level reaches the whole next one. A dominant
    candidate nu is a weight iff lam - nu lies in the root cone, and gets the
    recursion. Otherwise let j be its first negative coordinate: s_j nu =
    nu - nu_j alpha_j is strictly higher, so nu is a weight iff s_j nu is
    already in the map, with the same multiplicity (Weyl invariance). Both
    rules read only strictly higher levels.
    """
    ip = rs.ip
    simple = rs.simple_roots
    rho = rs.rho
    in_root_cone = rs.in_root_cone
    lam_rho = lam + rho
    top_norm = ip(lam_rho, lam_rho)
    pos_data = [(alpha, ip(alpha, alpha)) for alpha in rs.positive_roots]

    def recursion(nu: Weight) -> int:
        acc = 0
        for alpha, step in pos_data:
            base = ip(nu, alpha)
            k = 1
            while True:
                m = mults.get(nu + k * alpha)
                if m is None:
                    break
                acc += m * (base + k * step)
                k += 1
        nu_rho = nu + rho
        q, r = divmod(2 * acc, top_norm - ip(nu_rho, nu_rho))
        if r or q <= 0:
            raise ArithmeticError(f"Freudenthal recursion failed at {tuple(nu)}")
        return q

    mults: dict[Weight, int] = {lam: 1}
    level = [lam]
    while level:
        fresh: list[Weight] = []
        for mu in level:
            for alpha in simple:
                nu = mu - alpha
                if nu in mults:
                    continue
                for j, c in enumerate(nu):
                    if c < 0:
                        m = mults.get(nu - c * simple[j])
                        break
                else:
                    m = recursion(nu) if in_root_cone(lam - nu) else None
                if m is not None:
                    mults[nu] = m
                    fresh.append(nu)
        level = fresh
    return mults


def module_character(rs: RootSystem, spec: ModuleSpec) -> Character:
    acc: dict[Weight, int] = {}
    for lam, mult in spec.summands:
        for w, m in irr_character(rs, lam).mults.items():
            acc[w] = acc.get(w, 0) + mult * m
    return Character(rs, acc)


def tensor(a: Character, b: Character) -> Character:
    """Tensor-product character: convolution of supports."""
    if a.rs.key != b.rs.key:
        raise ValueError("characters live over different root data")
    small, big = (a, b) if len(a.mults) <= len(b.mults) else (b, a)
    big_items = list(big.mults.items())
    out: dict[Weight, int] = {}
    get = out.get
    for w1, m1 in small.mults.items():
        for w2, m2 in big_items:
            w = w1 + w2
            out[w] = get(w, 0) + m1 * m2
    return Character(a.rs, out)


def adams(ch: Character, k: int) -> Character:
    """Scale every weight by k: the Adams operation psi^k."""
    if k < 1:
        raise ValueError("Adams operations need k >= 1")
    if k == 1:
        return ch
    return Character(ch.rs, {k * w: m for w, m in ch.mults.items()})


def power_layers(ch: Character, top: int, alternating: bool) -> list[dict]:
    """Degrees 0..top of prod (1 + x^w) (exterior) or prod 1/(1 - x^w)
    (symmetric), one factor per unit of multiplicity of each weight w of ch.

    A factor 1/(1 - x^w) updates the degree layers bottom-up, new[d] = old[d] +
    x^w new[d-1]; a factor (1 + x^w) top-down, new[d] = old[d] + x^w old[d-1].
    So every degree comes out of one pass, every coefficient is a nonnegative
    integer and no division occurs. Exterior layers stop at degree dim ch: the
    ones past it are empty and are not returned. Keys are plain tuples.
    """
    if top < 0:
        raise ValueError("power degree must be nonnegative")
    if any(m < 0 for m in ch.mults.values()):
        raise VirtualCharacterError("negative multiplicity in a power argument; not a character")
    if alternating:
        top = min(top, ch.dimension)
    layers: list[dict] = [{(0,) * ch.rs.rank: 1}] + [{} for _ in range(top)]
    degrees = range(top, 0, -1) if alternating else range(1, top + 1)
    for w, m in ch.mults.items():
        for _ in range(m):
            for d in degrees:
                layer = layers[d]
                get = layer.get
                for u, v in layers[d - 1].items():
                    key = tuple(map(add, u, w))
                    layer[key] = get(key, 0) + v
    return layers


def exterior_power(ch: Character, j: int) -> Character:
    """Character of the j-th exterior power: the last layer of `power_layers`."""
    layers = power_layers(ch, j, alternating=True)
    return Character(ch.rs, layers[j] if j < len(layers) else {})


def symmetric_power(ch: Character, j: int) -> Character:
    """Character of the j-th symmetric power: the last layer of `power_layers`."""
    return Character(ch.rs, power_layers(ch, j, alternating=False)[j])


def _subtract(rem: dict, sub, c: int) -> None:
    for w, m in sub.items():
        v = rem.get(w, 0) - c * m
        if v:
            rem[w] = v
        else:
            rem.pop(w, None)


def mult_in(rs: RootSystem, lam, ch: Character) -> int:
    """Multiplicity of the simple module V(lam) in ch, by leading-term subtraction.

    Walks the support in the fixed linear order, peeling one isotypic layer per
    maximal weight, and stops as soon as the order drops below lam.
    """
    lam = Weight(lam)
    if not lam.is_dominant:
        raise ValueError(f"weight {tuple(lam)} is not dominant")
    if ch.rs.key != rs.key:
        raise ValueError("character/root-system mismatch")
    rem = dict(ch.mults)
    target_key = weight_sort_key(rs, lam)
    for w in sorted(rem, key=lambda v: weight_sort_key(rs, v), reverse=True):
        c = rem.get(w, 0)
        if c == 0:
            continue
        if c < 0:
            raise VirtualCharacterError(f"negative remainder {c} at weight {tuple(w)}")
        if weight_sort_key(rs, w) < target_key:
            return 0
        if w == lam:
            return c
        if not w.is_dominant:
            raise VirtualCharacterError(f"maximal weight {tuple(w)} is not dominant")
        _subtract(rem, irr_character(rs, w).mults, c)
    return 0


def mult_in_alternating(rs: RootSystem, lam, ch: Character) -> int:
    """Independent multiplicity extraction: signed sum over the rho-shifted orbit."""
    lam = Weight(lam)
    if not lam.is_dominant:
        raise ValueError(f"weight {tuple(lam)} is not dominant")
    rho = rs.rho
    target = lam + rho
    total = 0
    for w, c in ch.mults.items():
        dom, sign, singular = to_dominant_signed(rs, w + rho)
        if not singular and dom == target:
            total += sign * c
    return total


def decompose(ch: Character) -> list[tuple[Weight, int]]:
    """Full decomposition into simples, in decreasing linear order; exact."""
    rs = ch.rs
    rem = dict(ch.mults)
    out: list[tuple[Weight, int]] = []
    for w in sorted(rem, key=lambda v: weight_sort_key(rs, v), reverse=True):
        c = rem.get(w, 0)
        if c == 0:
            continue
        if c < 0:
            raise VirtualCharacterError(f"negative remainder {c} at weight {tuple(w)}")
        if not w.is_dominant:
            raise VirtualCharacterError(f"maximal weight {tuple(w)} is not dominant")
        out.append((w, c))
        _subtract(rem, irr_character(rs, w).mults, c)
    if rem:
        raise VirtualCharacterError("subtraction left residual weights; input is not a character")
    return out


def is_weyl_invariant(ch: Character) -> bool:
    rs = ch.rs
    for i in range(rs.rank):
        alpha = rs.simple_roots[i]
        for w, m in ch.mults.items():
            if ch.get(w - w[i] * alpha) != m:
                return False
    return True
