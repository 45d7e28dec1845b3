"""Bit-identity of `kernel.prefix_values` with a Python-float loop oracle.

The rows initial . L^u are sums of exactly rounded products and additions in
a fixed order, so their bits do not depend on the CPU or the BLAS kernel;
`oracles.loop_prefix_values` builds them one Python float at a time.  The
values compare by `tobytes`, so the sign of a zero and the bits of a NaN
count.  The last step of each level, `rows @ final`, is the BLAS call both
sides make.
"""
import numpy as np
import pytest

import gen
from oracles import loop_prefix_values
from probautomata import (
    MarkovChain,
    avg_reaction_table,
    enumerate_members,
    iid_sequence,
    isolation_scan,
    kernel,
    la_table,
    mc_sequence,
    reaction_table,
)

SIGNED = np.array([-1.0, 0.0, -0.0, 0.5, 2.0])


def _gaussian(seed):
    rng = np.random.default_rng(seed)
    n, k, depth = 1 + seed % 6, 1 + seed % 3, seed % 6
    return rng.standard_normal(n), rng.standard_normal((k, n, n)), rng.standard_normal(n), depth


def _signed(seed):
    # exact products, many of them +0.0 or -0.0
    rng = np.random.default_rng(seed)
    n, k, depth = 1 + seed % 5, 1 + seed % 4, 1 + seed % 5
    return (rng.choice(SIGNED, n), rng.choice(SIGNED, (k, n, n)), rng.choice(SIGNED, n), depth)


def _stochastic(seed):
    rng = np.random.default_rng(seed)
    n, k = 2 + seed % 5, 1 + seed % 3
    letters = np.array([gen.random_stochastic(rng, n, sparsity=0.5) for _ in range(k)])
    return gen.random_distribution(rng, n), letters, rng.random(n), 4


def _overflowing(seed):
    # entries of 2^300 overflow by depth 4: to inf with odd seeds' positive entries,
    # and with even seeds' mixed signs on to inf - inf = nan
    initial, letters, final, _ = _gaussian(seed)
    if seed % 2:
        initial, letters, final = np.abs(initial), np.abs(letters), np.abs(final)
    return initial * 2.0**300, letters * 2.0**300, final, 4


CASES = (
    [("gaussian", s, _gaussian) for s in range(12)]
    + [("signed", s, _signed) for s in range(12)]
    + [("stochastic", s, _stochastic) for s in range(6)]
    + [("overflow", s, _overflowing) for s in range(1, 6)]
)


def _assert_bits(initial, letters, final, depth):
    got = kernel.prefix_values(initial, letters, final, depth)
    want = loop_prefix_values(initial, letters, final, depth)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,seed,make", CASES, ids=[f"{c[0]}{c[1]}" for c in CASES])
def test_prefix_values_bits_match_loop_oracle(name, seed, make):
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_bits(*make(seed))


def test_overflow_cases_reach_inf_and_nan():
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.concatenate([kernel.prefix_values(*_overflowing(s)) for s in range(1, 6)])
    assert np.isinf(values).any() and np.isnan(values).any()


def test_prefix_values_bits_on_edge_shapes():
    rng = np.random.default_rng(7)
    # one state: iid_sequence's one-state automaton, letters w[:, None, None]
    w = gen.random_distribution(rng, 3)
    one = np.ones(1)
    _assert_bits(one, w[:, None, None], one, 6)
    assert iid_sequence(("a", "b", "c"), w, 6).values.array.tobytes() == \
        loop_prefix_values(one, w[:, None, None], one, 6).tobytes()
    # one letter, and depth 0
    _assert_bits(rng.standard_normal(4), rng.standard_normal((1, 4, 4)), rng.standard_normal(4), 7)
    _assert_bits(rng.standard_normal(3), rng.standard_normal((2, 3, 3)), rng.standard_normal(3), 0)


def test_negative_depths_are_rejected():
    rng = np.random.default_rng(0)
    a = gen.random_moore_pa(rng, 3, 2)
    l = gen.random_la(rng, 3, 2)
    g = gen.random_general_pa(rng, 3, 2, 2)
    chain = MarkovChain(("a", "b"), gen.random_stochastic(rng, 3), ("a", "b", "a"),
                        gen.random_distribution(rng, 3))
    calls = [
        lambda: kernel.prefix_values(a.initial, a._letters, a.lam, -1),
        lambda: la_table(l, -1),
        lambda: avg_reaction_table(a, -1),
        lambda: enumerate_members(a, 0.5, -1),
        lambda: isolation_scan(a, 0.5, 0.1, -1),
        lambda: reaction_table(g, -1),
        lambda: iid_sequence(("a", "b"), [0.5, 0.5], -2),
        lambda: mc_sequence(chain, -1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="depth must be >= 0"):
            call()
