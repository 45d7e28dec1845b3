"""Verdicts, Hankel ranks and cut languages do not change under exact 2^k scaling.

Multiplying an initial row, an output column, the letters or a table by a
power of two is exact in floating point (barring overflow and underflow), so
a test whose thresholds are relative to what it compares must give the same
answer at every k.  The instances are seeded `gen` automata: unequal pairs at
a relative gap g or with one letter bumped, true equivalences built with a
cancelling sum, realizations of their own tables, and a huge isolated state
that no initial row reaches.  The embedding's reflector is checked down to
1e-300 and up to 1e300, and the embedding keeps the sign of a tiny output.
"""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gen
from probautomata import (
    GeneralPA,
    LinearAutomaton,
    MoorePA,
    avg_equivalent,
    avg_reaction,
    e_f_dimension,
    equivalent,
    la_equivalent,
    la_language_pa,
    la_table,
    la_to_pa_affine,
    member,
    realize,
)
from probautomata.dfa import words_upto
from probautomata.linauto import (
    _orthogonal_with_first_column,
    disting_degree,
    la_reaction,
    la_scale,
    la_sum,
    reach_degree,
)
from probautomata.moorepa import avg_distributions_equivalent

GAPS = (0.1, 0.01, 0.001)
SEEDS = st.integers(0, 2**32 - 1)


def _with_initial(l: LinearAutomaton, initial) -> LinearAutomaton:
    return LinearAutomaton(l.inputs, dict(l.trans), initial, l.lam)


def _la_verdicts(seed: int, c: float) -> list[bool]:
    """la_equivalent on pairs whose initial rows are scaled by c: unequal, then equal."""
    rng = np.random.default_rng(seed)
    l = gen.random_la(rng, int(rng.integers(2, 5)), 2)
    l2 = gen.random_la(rng, int(rng.integers(2, 5)), 2)
    a = _with_initial(l, c * l.initial)
    pairs = [(a, _with_initial(l, (1 + g) * c * l.initial)) for g in GAPS]
    pairs += [(a, la_sum(a, la_sum(l2, la_scale(-1.0, l2)))), (a, realize(la_table(a, 8)))]
    return [la_equivalent(x, y) for x, y in pairs]


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(-60, 60))
@example(0, 20)
@example(0, 40)  # where an absolute threshold once called every g = 0.1 pair equal
@example(1, -20)
def test_la_equivalent_verdicts_are_invariant_under_initial_row_scaling(seed, k):
    verdicts = _la_verdicts(seed, 2.0**k)
    assert verdicts == _la_verdicts(seed, 1.0) == [False] * len(GAPS) + [True, True]


def _moore_verdicts(seed: int, c: float) -> list[bool]:
    """avg_equivalent and avg_distributions_equivalent with lam scaled by c."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    a = gen.random_moore_pa(rng, n, 2)
    lam = c * a.lam
    a = MoorePA(a.inputs, a.trans, a.initial, lam)
    other = MoorePA(a.inputs, a.trans, gen.random_distribution(rng, n), lam)
    p = rng.permutation(n)
    relabelled = MoorePA(a.inputs, {x: m[np.ix_(p, p)] for x, m in a.trans.items()},
                         a.initial[p], lam[p])
    lifted = lam.copy()
    lifted[int(np.argmax(a.initial))] *= 1 + 1e-3
    return [avg_equivalent(a, other), avg_equivalent(a, relabelled),
            avg_equivalent(a, MoorePA(a.inputs, a.trans, a.initial, lifted)),
            avg_distributions_equivalent(a, a.initial, other.initial),
            avg_distributions_equivalent(a, a.initial, a.initial)]


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(-60, 0))
@example(0, -40)
def test_moore_verdicts_are_invariant_under_output_scaling(seed, k):
    # with k <= 0 the scaled lam stays in [0, 1], so both automata are valid MoorePAs
    assert _moore_verdicts(seed, 2.0**k) == _moore_verdicts(seed, 1.0) == [
        False, True, False, False, True]


def _general_verdicts(seed: int, c: float) -> list[bool]:
    """GeneralPA `equivalent` with both initial rows scaled by c (the reaction scales with them)."""
    rng = np.random.default_rng(seed)
    g = gen.random_general_pa(rng, int(rng.integers(3, 7)), 2, 2)
    xi = gen.random_distribution(rng, g.n_states)
    scaled = GeneralPA(g.inputs, g.outputs, dict(g.trans), c * g.initial)
    return [equivalent(scaled, GeneralPA(g.inputs, g.outputs, dict(g.trans), c * xi)),
            equivalent(scaled, scaled)]


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(-60, 0))
@example(0, -40)
def test_general_verdicts_are_invariant_under_initial_row_scaling(seed, k):
    assert _general_verdicts(seed, 2.0**k) == _general_verdicts(seed, 1.0) == [False, True]


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(-60, 60))
@example(0, -25)
@example(0, -30)  # where an absolute floor once lost the whole rank
def test_hankel_rank_and_realization_are_invariant_under_table_scaling(seed, k):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    table = la_table(gen.random_la(rng, dim, 2), 8)
    scaled = table.scale(2.0**k)
    assert e_f_dimension(scaled) == e_f_dimension(table) == dim
    assert realize(scaled).dim == realize(table).dim == dim


@pytest.mark.parametrize("big", [1e20, 1e100, 1e200])
def test_an_unreached_state_with_a_huge_loop_does_not_swamp_the_span(big):
    # state 2 has no initial weight and nothing enters it, so it adds nothing to either
    # function; its growing columns once hid the word xx, where the two automata differ
    def la(back: float) -> LinearAutomaton:
        x = np.array([[0.0, 1.0, 0.0], [back, 0.0, 0.0], [0.0, 0.0, big]])
        return LinearAutomaton(("x",), {"x": x}, np.array([1.0, 0.0, 0.0]),
                               np.array([1.0, 0.0, 1.0]))

    assert la_table(la(1.0), 2).value(("x", "x")) == 1.0
    assert la_table(la(0.5), 2).value(("x", "x")) == 0.5
    assert not la_equivalent(la(1.0), la(0.5))
    assert la_equivalent(la(0.5), la(0.5))


def _cut_away_from_values(l: LinearAutomaton, words) -> float:
    """The midpoint of the widest gap between the values on the words (or above them all)."""
    values = sorted(la_reaction(l, u) for u in words)
    width, i = max((values[i + 1] - values[i], i) for i in range(len(values) - 1))
    return (values[i] + values[i + 1]) / 2.0 if width > 1e-6 else values[-1] + 1.0


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(-40, 40))
@example(1, -30)  # where an absolute floor once raised "prescribed first column is zero"
@example(1, -40)  # where it once gave a wrong language
def test_la_language_pa_is_invariant_under_output_and_cut_scaling(seed, k):
    rng = np.random.default_rng(seed)
    l = gen.random_la(rng, int(rng.integers(1, 5)), 2)
    words = list(words_upto(l.inputs, 4))
    a, c = _cut_away_from_values(l, words), 2.0**k
    pa, cut = la_language_pa(l, a)
    scaled, scaled_cut = la_language_pa(la_scale(c, l), c * a)
    assert scaled_cut == cut == 1.0 / (l.dim + 4)
    assert np.array_equal(scaled._letters, pa._letters)
    assert np.array_equal(scaled.initial, pa.initial)
    assert [member(scaled, cut, u) for u in words] == [la_reaction(l, u) > a for u in words]


def _letters_scaled(l: LinearAutomaton, c: float) -> LinearAutomaton:
    return l._like(c * l._letters, l.initial, l.lam)


def _letter_verdicts(seed: int, c: float) -> list:
    """la_equivalent and the degrees with every letter scaled by c."""
    rng = np.random.default_rng(seed)
    l = gen.random_la(rng, int(rng.integers(2, 6)), 2)
    l2 = gen.random_la(rng, int(rng.integers(1, 4)), 2)
    bumped = l._like(l._letters * np.array([1.1, 1.0])[:, None, None], l.initial, l.lam)
    l, l2, bumped = (_letters_scaled(x, c) for x in (l, l2, bumped))
    return [la_equivalent(l, bumped), la_equivalent(l, la_sum(l, la_sum(l2, la_scale(-1.0, l2)))),
            la_equivalent(l, l), reach_degree(l), disting_degree(l)]


@settings(max_examples=25, deadline=None)
@given(SEEDS, st.integers(-40, 20))
@example(0, -30)  # where the absolute floor of the span once called every bumped pair equal
@example(0, -40)
def test_krylov_verdicts_are_invariant_under_letter_scaling(seed, k):
    verdicts = _letter_verdicts(seed, 2.0**k)
    assert verdicts == _letter_verdicts(seed, 1.0)
    assert verdicts[:3] == [False, True, True]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=6),
       st.sampled_from([1e-300, 1e-150, 2.0**-40, 1.0, 2.0**40, 1e150, 1e300]))
@example([-0.5, 0.25, 0.0], 1.0)
@example([-3e-200, 1e-200], 1.0)
@example([1.0], 1.0)
@example([-1.0], 1.0)
@example([1.0, 0.0, 0.0, 0.0], 1e300)
@example([-1.0, 0.0, 0.0, 0.0], 1e-300)
def test_orthogonal_with_first_column_at_every_scale(entries, scale):
    v = scale * np.array(entries)
    assume(np.abs(v).max() > 0.0)
    q = _orthogonal_with_first_column(v)
    u = v / np.abs(v).max()
    assert np.allclose(q.T @ q, np.eye(v.size), rtol=0.0, atol=1e-14)
    assert np.allclose(q[:, 0], u / np.linalg.norm(u), rtol=0.0, atol=1e-14)


def test_la_to_pa_affine_keeps_the_sign_of_a_tiny_output():
    # f_A(u) - 1/(n+2) = a^(|u|+1) f_L(u): only an exactly zero output may give
    # the constant automaton, and every value clear of the rounding of 1/(n+2)
    # keeps its sign
    checked = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        l = gen.random_la(rng, int(rng.integers(1, 5)), 2)
        small = LinearAutomaton(l.inputs, dict(l.trans), l.initial, 2.0**-40 * l.lam)
        pa, a = la_to_pa_affine(small)
        assert not all(np.array_equal(m, np.eye(pa.n_states)) for m in pa._letters)
        for u in words_upto(l.inputs, 1):
            shift = a ** (len(u) + 1) * la_reaction(small, u)
            if abs(shift) > 1e-13:
                checked += 1
                assert np.sign(avg_reaction(pa, u) - 1.0 / (l.dim + 2)) == np.sign(shift)
    assert checked > 0
