"""Seeded random instance generators shared by the unit and acceptance tests."""
from __future__ import annotations

import numpy as np

from probautomata import GeneralPA, LinearAutomaton, MoorePA

INPUTS = ("a", "b", "c")
OUTPUTS = ("p", "q", "r")


def random_distribution(rng, n: int) -> np.ndarray:
    w = rng.random(n) + 1e-3
    return w / w.sum()


def random_stochastic(rng, n: int, sparsity: float = 0.0) -> np.ndarray:
    m = rng.random((n, n))
    if sparsity > 0.0:
        mask = rng.random((n, n)) < sparsity
        m[mask] = 0.0
        for i in range(n):
            if m[i].sum() == 0.0:
                m[i, rng.integers(n)] = 1.0
    return m / m.sum(axis=1, keepdims=True)


def random_positive_stochastic(rng, n: int, floor: float = 0.05) -> np.ndarray:
    m = rng.random((n, n)) + floor
    return m / m.sum(axis=1, keepdims=True)


def random_general_pa(rng, n: int, n_in: int, n_out: int) -> GeneralPA:
    inputs = INPUTS[:n_in]
    outputs = OUTPUTS[:n_out]
    trans = {}
    for x in inputs:
        block = rng.random((n, n_out, n))
        block /= block.sum(axis=(1, 2), keepdims=True)
        for yi, y in enumerate(outputs):
            trans[(x, y)] = block[:, yi, :]
    return GeneralPA(inputs, outputs, trans, random_distribution(rng, n))


def random_moore_pa(rng, n: int, n_in: int, unit_lambda: bool = True) -> MoorePA:
    inputs = INPUTS[:n_in]
    trans = {x: random_stochastic(rng, n) for x in inputs}
    lam = rng.random(n) if unit_lambda else rng.uniform(-1.0, 1.0, n)
    return MoorePA(inputs, trans, random_distribution(rng, n), lam)


def random_la(rng, dim: int, n_in: int) -> LinearAutomaton:
    inputs = INPUTS[:n_in]
    trans = {x: rng.uniform(-1.0, 1.0, (dim, dim)) * (0.9 / dim) for x in inputs}
    return LinearAutomaton(
        inputs,
        trans,
        rng.uniform(-1.0, 1.0, dim),
        rng.uniform(-1.0, 1.0, dim),
    )


def plant_convex_state(rng, a: MoorePA) -> MoorePA:
    """Append a state behaving as a random mixture of the existing ones.

    The new state's rows and output are the mixture of the old rows, so its
    averaged-basis row is exactly the same mixture: a removable state.
    """
    n = a.n_states
    mix = random_distribution(rng, n)
    trans = {}
    for x in a.inputs:
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = a.matrix(x)
        m[n, :n] = mix @ a.matrix(x)
        trans[x] = m
    share = 0.25 + 0.5 * rng.random()
    init = np.concatenate([a.initial * (1.0 - share), [share]])
    lam = np.concatenate([a.lam, [float(mix @ a.lam)]])
    return MoorePA(a.inputs, trans, init, lam)


def plant_unreachable_state(rng, a: MoorePA) -> MoorePA:
    """Append a state with no incoming mass and no initial weight."""
    n = a.n_states
    trans = {}
    for x in a.inputs:
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = a.matrix(x)
        m[n, :n] = random_distribution(rng, n)
        trans[x] = m
    init = np.concatenate([a.initial, [0.0]])
    lam = np.concatenate([a.lam, [rng.random()]])
    return MoorePA(a.inputs, trans, init, lam)


def two_map_automaton(rng, ratio: float = 0.4, span: float = 0.5):
    """Positive 2-state, 2-letter automaton with an isolated cut point, and that cut.

    With p the probability of state 0, letter x maps p to q_x + ratio (p - q_x);
    the fixed points q_a, q_b lie span apart and the start sits on q_a, so the
    reachable p form a Cantor set with an empty middle gap.  The cut is the
    reaction at the middle of that gap.
    """
    q_a = rng.uniform(0.05, 0.95 - span)
    trans = {
        x: np.array([[ratio + (1 - ratio) * q, (1 - ratio) * (1 - q)],
                     [(1 - ratio) * q, 1 - (1 - ratio) * q]])
        for x, q in zip(INPUTS[:2], (q_a, q_a + span))
    }
    lam = np.array([rng.uniform(0.0, 0.25), rng.uniform(0.75, 1.0)])[rng.permutation(2)]
    mid = q_a + span / 2.0
    cut = float(np.array([mid, 1 - mid]) @ lam)
    return MoorePA(INPUTS[:2], trans, np.array([q_a, 1 - q_a]), lam), cut
