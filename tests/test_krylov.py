"""The Krylov span stops once its answer is known.

`kernel.krylov` returns when its subspace fills the ambient space, and the
equivalence test returns at its first refuting column.  Both are checked
against `oracles.full_span` and `oracles.full_basis_distributions_equivalent`,
which run to the end: every verdict, column, tag and level must be the same,
and the counts of `Subspace.try_add` calls show the work that is saved.
"""
import numpy as np
import pytest

import gen
from oracles import full_basis_distributions_equivalent, full_basis_equivalent, full_span
from probautomata import (
    GeneralPA,
    LinearAutomaton,
    MoorePA,
    avg_basis_matrix,
    avg_equivalent,
    basis_matrix,
    disting_degree,
    distributions_equivalent,
    equivalent,
    get_default,
    kernel,
    linalg,
    reach_degree,
    reduce,
    reduce_avg,
)
from probautomata.moorepa import avg_distributions_equivalent

EPSILONS = (1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6)


@pytest.fixture
def tries(monkeypatch):
    """One entry per `Subspace.try_add` call: was the subspace already full?"""
    calls = []
    try_add = linalg.Subspace.try_add

    def counted(self, v):
        calls.append(self.dim == self.ambient_dim)
        return try_add(self, v)

    monkeypatch.setattr(linalg.Subspace, "try_add", counted)
    return calls


def _relabel(rng, a):
    p = rng.permutation(a.n_states)
    trans = {key: m[np.ix_(p, p)] for key, m in a.trans.items()}
    if isinstance(a, GeneralPA):
        return GeneralPA(a.inputs, a.outputs, trans, a.initial[p])
    return type(a)(a.inputs, trans, a.initial[p], a.lam[p])


def _scaled(a: MoorePA, letters: float = 1.0, lam: float = 1.0) -> MoorePA:
    """Unvalidated copy with every letter and the output scaled."""
    return MoorePA(a.inputs, {x: letters * a.matrix(x) for x in a.inputs}, a.initial, lam * a.lam)


def _lift(a: MoorePA, eps: float) -> MoorePA:
    """Copy with the output of the heaviest initial state raised by eps."""
    lam = a.lam.copy()
    lam[int(np.argmax(a.initial))] += eps
    return MoorePA(a.inputs, a.trans, a.initial, lam)


def _shift(g: GeneralPA, eps: float) -> GeneralPA:
    """Copy whose heaviest initial state moves eps of its first two outputs' rows into each other."""
    j = int(np.argmax(g.initial))
    x, (y0, y1) = g.inputs[0], g.outputs[:2]
    trans = {key: m.copy() for key, m in g.trans.items()}
    r0, r1 = g.matrix(x, y0)[j], g.matrix(x, y1)[j]
    trans[(x, y0)][j], trans[(x, y1)][j] = (1 - eps) * r0 + eps * r1, (1 - eps) * r1 + eps * r0
    return GeneralPA(g.inputs, g.outputs, trans, g.initial)


def _moore_pairs(rng, n):
    a = gen.random_moore_pa(rng, n, 2)
    planted = gen.plant_convex_state(rng, a)
    pairs = [(a, _lift(a, eps)) for eps in EPSILONS]
    pairs += [(a, _relabel(rng, a)), (planted, reduce_avg(planted))]
    big = _scaled(a, lam=1e3)
    pairs += [(big, _lift(big, 1e3 * eps)) for eps in EPSILONS[::2]]
    for c in (1.5, 1e4):  # B grows; B overflows at 2n >= 80 states
        w = _scaled(a, letters=c)
        pairs += [(w, _lift(w, eps)) for eps in EPSILONS[::2]] + [(w, _relabel(rng, w))]
    return pairs


@pytest.mark.parametrize("seed", range(6))
def test_equivalence_verdicts_match_the_full_basis(seed):
    rng = np.random.default_rng([15, seed])
    t = get_default()
    n = (8, 12, 16, 24, 32, 40)[seed]
    verdicts = []
    for a, b in _moore_pairs(rng, n):
        verdicts.append(avg_equivalent(a, b))
        assert verdicts[-1] == full_basis_equivalent(a, b, t)
    g = gen.random_general_pa(rng, min(n, 16), 3, 3)
    for b in [_shift(g, 300 * eps) for eps in EPSILONS] + [_relabel(rng, g), reduce(g)]:
        verdicts.append(equivalent(g, b))
        assert verdicts[-1] == full_basis_equivalent(g, b, t)
    for d in (g, gen.random_moore_pa(rng, n, 2)):
        eps = rng.choice(EPSILONS) * (np.eye(d.n_states)[0] - np.eye(d.n_states)[1])
        for xi in (np.roll(d.initial, 1), d.initial + eps):
            test = distributions_equivalent if d is g else avg_distributions_equivalent
            verdicts.append(test(d, d.initial, xi))
            assert verdicts[-1] == full_basis_distributions_equivalent(d, d.initial, xi, t)
    assert True in verdicts and False in verdicts


def _span_cases(rng):
    """(start, letters) of forward and backward spans: random, rank-deficient, full rank."""
    a = gen.random_moore_pa(rng, 9, 2)
    deficient = kernel.disjoint_union(a, _relabel(rng, a))
    la = gen.random_la(rng, 6, 2)
    full = gen.random_general_pa(rng, 5, 2, 2)
    low = MoorePA(a.inputs, a.trans, a.initial, np.ones(a.n_states))  # spans one column
    for x in (a, deficient, la, full, low):
        yield x._final, x._letters
        yield x.initial, x._letters.transpose(0, 2, 1)
    yield np.zeros(4), la._letters[:, :4, :4]
    yield np.ones(1), np.array([[[0.5]], [[0.25]]])


@pytest.mark.parametrize("seed", range(4))
def test_spans_match_the_full_span(seed):
    t = get_default()
    for start, letters in _span_cases(np.random.default_rng([15, 1, seed])):
        got, want = kernel.span(start, letters, t), full_span(start, letters, t)
        assert got.tags == want.tags and got.levels == want.levels
        assert len(got.columns) == len(want.columns)
        assert all(np.array_equal(c, w) for c, w in zip(got.columns, want.columns))
        assert np.array_equal(got.basis, want.basis)


@pytest.mark.parametrize("seed", range(4))
def test_basis_matrices_and_degrees_match_the_full_span(seed):
    rng = np.random.default_rng([15, 2, seed])
    t = get_default()
    a = gen.random_moore_pa(rng, 7 + seed, 2)
    g = gen.random_general_pa(rng, 4 + seed, 2, 2)
    for x, basis_of in ((a, avg_basis_matrix), (kernel.disjoint_union(a, a), avg_basis_matrix),
                        (g, basis_matrix), (kernel.disjoint_union(g, g), basis_matrix)):
        basis, tags = basis_of(x)
        want = full_span(x._final, x._letters, t)
        assert np.array_equal(basis, np.column_stack(want.columns))
        assert tags == [x._tag(w) for w in want.tags]
    l = gen.random_la(rng, 3 + seed, 1 + seed % 2)
    l2 = LinearAutomaton(l.inputs, l.trans, l.initial, np.eye(l.n_states)[0])
    for x in (l, l2):
        assert reach_degree(x) == full_span(x.initial, x._letters.transpose(0, 2, 1), t).levels
        assert disting_degree(x) == full_span(x.lam, x._letters, t).levels


@pytest.mark.parametrize("n", (8, 24, 40))
def test_a_perturbed_output_is_refuted_by_the_first_column(tries, n):
    a = gen.random_moore_pa(np.random.default_rng([15, 3, n]), n, 2)
    assert not avg_equivalent(a, _lift(a, 0.1))  # the bench's perturbed copy
    assert len(tries) == 1


@pytest.mark.parametrize("n", (8, 24, 40))
def test_a_perturbed_general_pa_is_refuted_on_the_first_level(tries, n):
    g = gen.random_general_pa(np.random.default_rng([15, 4, n]), n, 3, 3)
    assert not equivalent(g, _shift(g, 1.0))  # swaps the two outputs' rows
    assert len(tries) <= len(g._keys) + 1


def test_a_full_span_tries_no_more_columns(tries):
    g = gen.random_general_pa(np.random.default_rng([15, 5]), 8, 3, 3)
    assert np.linalg.matrix_rank(basis_matrix(g)[0]) == g.n_states
    tries.clear()
    assert reduce(g).n_states == g.n_states
    assert tries and not any(tries)
