"""Independent brute-force oracles shared by the unit and acceptance tests."""

from itertools import combinations, combinations_with_replacement

from facekoszul import Character, Weight, adams, decompose, irr_character, tensor
from facekoszul.errors import VirtualCharacterError


def expand_power_bruteforce(ch, j, kind):
    """Expand the j-fold wedge or symmetric multiset of weights directly."""
    flat = []
    for w, m in sorted(ch.mults.items()):
        flat.extend([w] * m)
    picker = combinations if kind == "ext" else combinations_with_replacement
    out = {}
    for combo in picker(range(len(flat)), j):
        total = Weight.zero(ch.rs.rank)
        for i in combo:
            total = total + flat[i]
        out[total] = out.get(total, 0) + 1
    return out


def newton_power(ch, j, kind):
    """The j-th exterior or symmetric power by Newton's identities on Adams
    operations: j*e_j = sum (-1)^(i-1) p_i e_(j-i), j*h_j = sum p_i h_(j-i)."""
    alternating = kind == "ext"
    rs = ch.rs
    layers = [{Weight.zero(rs.rank): 1}]
    powers = [None] + [dict(adams(ch, i).mults) for i in range(1, j + 1)]
    for m in range(1, j + 1):
        acc = {}
        for i in range(1, m + 1):
            sign = -1 if alternating and i % 2 == 0 else 1
            for w1, m1 in powers[i].items():
                for w2, m2 in layers[m - i].items():
                    w = w1 + w2
                    acc[w] = acc.get(w, 0) + sign * m1 * m2
        layer = {}
        for w, v in acc.items():
            q, r = divmod(v, m)
            if r:
                raise VirtualCharacterError(f"inexact division by {m}; input is not a character")
            if q:
                layer[w] = q
        layers.append(layer)
    return Character(rs, layers[j])


def constituents_by_subtraction(power, lam):
    """Simple constituents of power tensor V(lam): build the tensor product and
    peel off maximal weights."""
    if not power:
        return {}
    return dict(decompose(tensor(power, irr_character(power.rs, lam))))
