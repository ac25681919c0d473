"""Property tests: the fast constituent and power paths against the old ones.

The old paths live in tests/oracles.py: powers by Newton's identities on Adams
operations, and constituents by building the tensor product with V(lam) and
peeling off maximal weights. Brauer-Klimyk constituents and the product-pass
powers must agree with them exactly.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import constituents_by_subtraction, expand_power_bruteforce, newton_power

import facekoszul.homdims as homdims
from facekoszul import (
    Character,
    ModuleSpec,
    Weight,
    exterior_power,
    module_character,
    root_system,
    symmetric_power,
    weight_system,
)
from facekoszul.errors import VirtualCharacterError

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


@PROPERTY
@given(data=st.data(), module=modules(), j=st.integers(0, 4), kind=st.sampled_from(("ext", "sym")))
def test_brauer_klimyk_matches_subtraction(data, module, j, kind):
    rs, spec = module
    cap = 1 if rs.rank == 3 else 2
    lam = Weight(data.draw(st.tuples(*[st.integers(0, cap)] * rs.rank)))
    ws = weight_system(rs, spec)
    oracle = constituents_by_subtraction(newton_power(module_character(rs, spec), j, kind), lam)
    assert homdims._constituents(ws, lam, j, kind) == oracle


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


def test_brauer_klimyk_rejects_a_non_character(monkeypatch):
    # a lone lowest weight: -2 + rho reflects onto rho with sign -1
    a1 = _rs("A1")
    ws = weight_system(a1, ModuleSpec(((Weight((2,)), 1),)))
    lowest = Character(a1, {Weight((-2,)): 1})
    monkeypatch.setattr(homdims, "_power_char", lambda *args: lowest)
    with pytest.raises(VirtualCharacterError):
        homdims._constituents.__wrapped__(ws, Weight((0,)), 1, "ext")
