"""Shortlex tables: rank arithmetic, the Mapping view, and the table operations
checked against the per-word loops of `oracles`, on seeded tables including
depth 0 and one-letter alphabets."""
import json

import numpy as np
import pytest

import gen
from oracles import (
    enumerate_words,
    loop_add,
    loop_inverse,
    loop_is_probabilistic_response,
    loop_iid,
    loop_iterate,
    loop_marginals,
    loop_pair_from,
    loop_residual,
    loop_rs_residual,
    loop_scale,
    table_convolve,
)
from probautomata import (
    RandomSequence,
    ReactionTable,
    StringFunctionTable,
    avg_reaction_table,
    hankel_block,
    iid_sequence,
    io as pio,
    is_probabilistic_response,
    la_table,
    marginals,
    pair_from,
    reaction_table,
    residual,
    rs_residual,
)
from probautomata.kernel import PairShortlexTable, ShortlexTable

SHAPES = [(1, 0), (1, 5), (2, 0), (2, 4), (3, 3)]  # (letters, depth)


def assert_table(view, expected: dict):
    """The view lists every word of the oracle's table, with the same values."""
    got = dict(view.items())
    assert set(expected) <= set(got)
    for key, value in got.items():
        want = expected.get(key, 0.0)
        assert abs(value - want) <= 1e-15 * max(1.0, abs(want)), key


def seeded_table(seed, letters, depth) -> StringFunctionTable:
    return la_table(gen.random_la(np.random.default_rng(seed), 3, letters), depth)


@pytest.mark.parametrize("letters,depth", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_ring_matches_the_per_word_loops(seed, letters, depth):
    f, g = seeded_table(seed, letters, depth), seeded_table(seed + 100, letters, depth)
    fd, gd, alphabet = dict(f.values), dict(g.values), f.alphabet
    assert_table(f.add(g).values, loop_add(fd, gd, alphabet, depth))
    assert_table(f.sub(g).values, loop_add(fd, loop_scale(gd, -1.0), alphabet, depth))
    assert_table(f.scale(-2.5).values, loop_scale(fd, -2.5))
    assert_table(f.convolve(g).values, table_convolve(fd, gd, enumerate_words(alphabet, depth)))
    assert_table(f.inverse().values, loop_inverse(fd, alphabet, depth))
    assert_table(f.iterate().values, loop_iterate(fd, alphabet, depth))


def test_ring_of_unequal_depths_keeps_the_smaller():
    f, g = seeded_table(0, 2, 4), seeded_table(1, 2, 2)
    assert f.add(g).depth == f.convolve(g).depth == 2
    assert_table(f.convolve(g).values, table_convolve(dict(f.values), dict(g.values),
                                                      enumerate_words(f.alphabet, 2)))


@pytest.mark.parametrize("letters,depth", SHAPES)
def test_hankel_block_of_a_table_matches_the_oracle_path(letters, depth):
    f = seeded_table(7, letters, depth)
    for rows in range(depth + 1):
        got = hankel_block(f, rows, depth - rows)
        assert np.array_equal(got, hankel_block(f.value, rows, depth - rows, f.alphabet))


@pytest.mark.parametrize("letters,depth", SHAPES)
def test_rank_and_word_round_trip(letters, depth):
    table = ShortlexTable(gen.INPUTS[:letters], depth, np.arange(sum(letters ** n for n in range(depth + 1))))
    words = enumerate_words(table.alphabet, depth)
    assert list(table) == words
    assert [table.rank(u) for u in words] == list(range(len(words)))
    assert [table.word(r) for r in range(len(words))] == words
    for n in range(depth + 1):
        assert list(table.level(n)) == [table.rank(u) for u in words if len(u) == n]


def test_concat_ranks_are_the_ranks_of_concatenations():
    table = ShortlexTable(("a", "b", "c"), 4, np.zeros(121))
    words = enumerate_words(table.alphabet, 2)
    got = table.concat(np.arange(len(words))[:, None], np.arange(len(words))[None, :])
    assert got.tolist() == [[table.rank(u + v) for v in words] for u in words]


@pytest.mark.parametrize("make", [
    lambda rng: la_table(gen.random_la(rng, 3, 2), 5).values,
    lambda rng: reaction_table(gen.random_general_pa(rng, 3, 2, 2), 3).values,
], ids=["words", "pairs"])
def test_values_and_items_read_the_array_in_iteration_order(make):
    table = make(np.random.default_rng(8))
    assert list(table.values()) == [table[w] for w in table]
    assert list(table.items()) == [(w, table[w]) for w in table]


def test_view_is_a_read_only_mapping_in_shortlex_order():
    table = avg_reaction_table(gen.random_moore_pa(np.random.default_rng(3), 2, 2), 3)
    as_dict = dict(zip(enumerate_words(("a", "b"), 3), table.array.tolist()))
    assert table == as_dict and as_dict == table
    assert list(table.items()) == list(as_dict.items())
    assert list(table.values()) == list(as_dict.values())
    assert len(table) == 15 and ("a", "b") in table and ("a", "c") not in table
    assert table[("b",)] == as_dict[("b",)] and type(table[("b",)]) is float
    assert table.get(("a",) * 4, -1.0) == -1.0
    with pytest.raises(KeyError):
        table[("c",)]
    with pytest.raises((TypeError, ValueError)):
        table.array[0] = 1.0


def test_dicts_become_total_tables():
    f = StringFunctionTable(("x", "y"), 2, {("y",): 0.5, ("x", "y", "x"): 9.0})  # too long: ignored
    assert dict(f.values) == {(): 0.0, ("x",): 0.0, ("y",): 0.5, ("x", "x"): 0.0, ("x", "y"): 0.0,
                              ("y", "x"): 0.0, ("y", "y"): 0.0}
    with pytest.raises(KeyError):
        StringFunctionTable(("x",), 2, {("z",): 1.0})
    with pytest.raises(KeyError):
        ReactionTable(("x",), ("y",), 2, {(("x",), ()): 1.0})
    pair = reaction_table(gen.random_general_pa(np.random.default_rng(4), 2, 2, 2), 2)
    assert isinstance(pair.values, PairShortlexTable)
    assert list(pair.values)[:3] == [((), ()), (("a",), ("p",)), (("a",), ("q",))]


def test_sparse_table_saves_every_word_and_reloads_the_same(tmp_path):
    seq = RandomSequence(("a", "b"), 2, {(): 1.0, ("a",): 1.0, ("a", "a"): 1.0})
    doc = json.loads(pio.dumps(seq))
    assert doc["table"] == {"": 1.0, "a": 1.0, "b": 0.0, "a a": 1.0, "a b": 0.0,
                            "b a": 0.0, "b b": 0.0}
    pio.save(seq, str(tmp_path / "seq.json"))
    back = pio.load(str(tmp_path / "seq.json"))
    assert back.table == seq.table


@pytest.mark.parametrize("letters,depth", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_sequences_match_the_per_word_loops(seed, letters, depth):
    rng = np.random.default_rng(seed)
    alphabet = gen.INPUTS[:letters]
    weights = gen.random_distribution(rng, letters)
    zeta = iid_sequence(alphabet, weights, depth)
    assert_table(zeta.table, loop_iid(alphabet, weights, depth))
    zd = dict(zeta.table)
    for u in enumerate_words(alphabet, depth)[:4]:
        assert_table(rs_residual(zeta, u).table, loop_rs_residual(zd, u))
    for outputs in (1, 2):
        a = gen.random_general_pa(rng, 2, letters, outputs)
        eta = pair_from(zeta, a)
        expected = loop_pair_from(zd, dict(reaction_table(a, depth).values))
        assert_table(eta.table, expected)
        left, right = marginals(eta)
        want_left, want_right = loop_marginals(expected)
        assert_table(left.table, want_left)
        assert_table(right.table, want_right)


@pytest.mark.parametrize("letters,depth", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_reactions_match_the_per_word_loops(seed, letters, depth):
    rng = np.random.default_rng(seed)
    a = gen.random_general_pa(rng, 3, letters, 1 + seed % 3)
    f = reaction_table(a, depth)
    fd = dict(f.values)
    for (u, v) in list(fd)[:5]:
        if f.value(u, v) > 0.0:
            assert_table(residual(f, u, v).values, loop_residual(fd, u, v))
    noisy = {key: val * (1.0 + 1e-6 * (i % 3 - 1)) for i, (key, val) in enumerate(fd.items())}
    for table in (fd, noisy):
        want = loop_is_probabilistic_response(table, a.inputs, a.outputs, depth)
        assert is_probabilistic_response(ReactionTable(a.inputs, a.outputs, depth, table)) == want
