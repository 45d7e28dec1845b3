"""Contracts of the shared weighted-automaton kernel and of its adapters.

The convex certificates and `enumerate_members` read basis columns and table
order directly, so these pin them: basis columns are the raw word images
L^u . start, degrees are the Krylov level counts, and tables iterate in
shortlex order.
"""
import numpy as np
import pytest

import gen
from oracles import generator_words_upto
from probautomata import (
    LinearAutomaton,
    MarkovChain,
    MoorePA,
    StringFunctionTable,
    avg_basis_matrix,
    avg_reaction_table,
    basis_matrix,
    disting_degree,
    hankel_basis,
    la_table,
    mc_function,
    mc_sequence,
    reach_degree,
    reaction_table,
    realize,
    e_f_dimension,
    get_default,
)
from probautomata import io as pio
from probautomata import kernel
from probautomata.dfa import words_of_length, words_upto
from probautomata.generalpa import word_matrix
from probautomata.moorepa import moore_reachable_part

SEEDS = range(6)


def _close(col, ref):
    return float(np.max(np.abs(col - ref))) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@pytest.mark.parametrize("seed", SEEDS)
def test_basis_columns_are_raw_word_images(seed):
    rng = np.random.default_rng(seed)
    g = gen.random_general_pa(rng, 3 + seed % 4, 2, 2)
    basis, tags = basis_matrix(g)
    assert basis.shape[1] == len(tags) > 1
    for col, (u, v) in zip(basis.T, tags):
        assert _close(col, word_matrix(g, u, v) @ np.ones(g.n_states))
    a = gen.random_moore_pa(rng, 3 + seed % 5, 2)
    basis, tags = avg_basis_matrix(a)
    assert basis.shape[1] == len(tags) > 1
    for col, u in zip(basis.T, tags):
        assert _close(col, a.word_matrix(u) @ a.lam)


def _rank_degree(vectors_upto) -> int:
    """First k at which the rank of the vectors of words |u| <= k stops growing."""
    k = 0
    while np.linalg.matrix_rank(vectors_upto(k)) < np.linalg.matrix_rank(vectors_upto(k + 1)):
        k += 1
    return k


@pytest.mark.parametrize("seed", SEEDS)
def test_degrees_are_span_level_counts(seed):
    rng = np.random.default_rng(seed)
    l = gen.random_la(rng, 2 + seed % 4, 1 + seed % 2)
    t = get_default()
    letters = np.array([l.matrix(x) for x in l.inputs])
    forward = kernel.span(l.initial, letters.transpose(0, 2, 1), t)
    backward = kernel.span(l.lam, letters, t)
    assert reach_degree(l) == forward.levels
    assert disting_degree(l) == backward.levels

    def rows(k):
        return np.array([l.initial @ l.word_matrix(u) for u in words_upto(l.inputs, k)])

    def cols(k):
        return np.array([l.word_matrix(u) @ l.lam for u in words_upto(l.inputs, k)])

    assert reach_degree(l) == _rank_degree(rows)
    assert disting_degree(l) == _rank_degree(cols)


def test_degrees_do_not_shrink_with_the_weights():
    # with letters scaled by 1e-4 the raw depth-2 columns fall under the
    # absolute rank floor of Subspace; the degrees must not see the scale
    l = gen.random_la(np.random.default_rng(0), 5, 2)
    for c in (1.0, 1e-4):
        s = LinearAutomaton(l.inputs, {x: c * l.matrix(x) for x in l.inputs}, l.initial, l.lam)
        assert reach_degree(s) == disting_degree(s) == 2


def test_tables_iterate_in_shortlex_order():
    rng = np.random.default_rng(3)
    a = gen.random_moore_pa(rng, 3, 3)
    assert list(avg_reaction_table(a, 4)) == list(words_upto(a.inputs, 4))
    l = gen.random_la(rng, 3, 2)
    assert list(la_table(l, 5).values) == list(words_upto(l.inputs, 5))
    g = gen.random_general_pa(rng, 3, 2, 3)
    pairs = [(x, y) for x in g.inputs for y in g.outputs]
    expected = [
        (tuple(x for x, _ in w), tuple(y for _, y in w)) for w in words_upto(pairs, 3)
    ]
    assert list(reaction_table(g, 3).values) == expected


@pytest.mark.parametrize("letters", range(5))
def test_words_upto_matches_the_generator(letters):
    alphabet = tuple("abcd"[:letters])
    assert list(words_upto(alphabet, -1)) == []
    for depth in range(6):
        assert list(words_upto(alphabet, depth)) == list(generator_words_upto(alphabet, depth))
        assert list(kernel.ShortlexTable(alphabet, depth, {})) == \
            list(generator_words_upto(alphabet, depth))


def test_reachability_matches_reference_closure():
    t = get_default()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 6
        a = MoorePA(gen.INPUTS[:2],
                    {x: gen.random_stochastic(rng, n, 0.7) for x in gen.INPUTS[:2]},
                    np.eye(n)[seed % n], rng.random(n))
        alive = {i for i in range(n) if a.initial[i] > t.zero}
        frontier = list(alive)
        while frontier:
            i = frontier.pop()
            for x in a.inputs:
                for j in range(n):
                    if j not in alive and a.matrix(x)[i, j] > t.zero:
                        alive.add(j)
                        frontier.append(j)
        keep = sorted(alive)
        r = moore_reachable_part(a)
        assert r.n_states == len(keep)
        for x in a.inputs:
            assert np.array_equal(r.matrix(x), a.matrix(x)[np.ix_(keep, keep)])
        assert np.array_equal(r.lam, a.lam[keep])


def test_letter_matrices_are_slices_of_one_stored_tensor():
    rng = np.random.default_rng(5)
    a = gen.random_moore_pa(rng, 4, 2)
    g = gen.random_general_pa(rng, 3, 2, 2)
    for obj, keys in ((a, a.inputs), (g, [(x, y) for x in g.inputs for y in g.outputs])):
        assert obj._letters.shape == (len(keys), obj.initial.size, obj.initial.size)
        for k, key in enumerate(keys):
            assert np.shares_memory(obj.trans[key], obj._letters)
            assert np.array_equal(obj.trans[key], obj._letters[k])
        assert not obj._letters.flags.writeable


def test_construction_leaves_the_callers_arrays_writable():
    init, lam, values = np.array([1.0, 0.0]), np.ones(2), np.arange(3.0)
    a = MoorePA(("a",), {"a": np.eye(2)}, init, lam)
    f = StringFunctionTable(("a",), 2, values)
    init[0], lam[1], values[2] = 0.5, 7.0, -1.0
    assert a.initial.tolist() == [1.0, 0.0] and a.lam.tolist() == [1.0, 1.0]
    assert f.values.array.tolist() == [0.0, 1.0, 2.0]
    assert not a.initial.flags.writeable and not f.values.array.flags.writeable
    assert MoorePA(a.inputs, a.trans, a.initial, a.lam).initial is a.initial  # no copy when frozen


def test_misshapen_letter_matrices_are_rejected_on_construction():
    with pytest.raises(ValueError, match="matrix for 'b' has shape"):
        MoorePA(("a", "b"), {"a": np.eye(2), "b": np.eye(3)}, np.ones(2) / 2, np.ones(2))
    with pytest.raises(KeyError, match="no matrix for 'b'"):
        LinearAutomaton(("a", "b"), {"a": np.eye(2)}, np.ones(2), np.ones(2))
    with pytest.raises(ValueError, match="unknown letters"):
        LinearAutomaton(("a",), {"a": np.eye(2), "c": np.eye(2)}, np.ones(2), np.ones(2))


def test_mc_sequence_depth_zero_round_trips(tmp_path):
    chain = MarkovChain(("a", "b"), np.array([[0.5, 0.5], [0.25, 0.75]]), ("a", "b"),
                        np.array([0.4, 0.6]))
    zeta = mc_sequence(chain, 0)
    assert dict(zeta.table) == {(): 1.0}
    path = str(tmp_path / "seq.json")
    pio.save(zeta, path)
    back = pio.load(path)
    assert back.depth == 0
    assert dict(back.table) == {(): 1.0}


def test_mc_sequence_matches_mc_function():
    # also on a non-stochastic matrix, where M . 1 != 1
    rng = np.random.default_rng(4)
    for matrix in (gen.random_stochastic(rng, 4, 0.3), rng.random((4, 4))):
        chain = MarkovChain(("a", "b", "c"), matrix, ("a", "b", "a", "c"),
                            gen.random_distribution(rng, 4))
        zeta = mc_sequence(chain, 4)
        assert list(zeta.table) == list(words_upto(chain.signals, 4))
        for u, v in zeta.table.items():
            assert v == pytest.approx(mc_function(chain, u), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("call", [
    lambda f: hankel_basis(f, 2),
    lambda f: e_f_dimension(f),
    lambda f: realize(f),
])
def test_hankel_table_functions_reject_oracles(call):
    with pytest.raises(TypeError, match="^expected a StringFunctionTable$"):
        call(lambda u: 1.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_word_matrix_blocks_equal_word_matrix_in_shortlex_order(seed):
    rng = np.random.default_rng(seed)
    n, k = 1 + seed, 1 + seed % 3
    a = gen.random_moore_pa(rng, n, k) if seed % 2 else gen.random_la(rng, n, k)
    for length in range(5):
        words = list(words_of_length(a.inputs, length))
        blocks = list(kernel.word_matrix_blocks(a._letters, length))
        assert sum(len(b) for b in blocks) == len(words)
        for m, u in zip(np.concatenate(blocks), words):
            assert np.array_equal(m, a.word_matrix(u))


def test_word_matrix_blocks_span_several_blocks_at_a_deep_level():
    a = gen.random_moore_pa(np.random.default_rng(7), 6, 3)
    words = list(words_of_length(a.inputs, 7))
    blocks = list(kernel.word_matrix_blocks(a._letters, 7))
    assert len(blocks) > 2
    assert all(b.size <= kernel.WORD_BLOCK_FLOATS for b in blocks)
    mats = np.concatenate(blocks)
    assert len(mats) == len(words)
    assert all(np.array_equal(m, a.word_matrix(u)) for m, u in zip(mats, words))
