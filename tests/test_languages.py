import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probautomata import (
    Dfa,
    GeneralPA,
    MoorePA,
    avg_reaction,
    binarize_output,
    contraction_bound,
    definite_rep,
    dfa_minimize,
    dfa_reachable_part,
    dfa_to_pa,
    enumerate_members,
    ergodic_test,
    extract_dfa,
    extraction_state_bound,
    fold_initial,
    general_language_pa,
    isolation_scan,
    member,
    shift_cutpoint,
    stability_check,
)
from probautomata import kernel
from probautomata.languages import POSITIVE_WORD_STABLE, STABLE_ALL, UNKNOWN
from probautomata.linalg import norm_spread

from gen import random_moore_pa, random_positive_stochastic, two_map_automaton
from oracles import cantor_base3, enumerate_words, loop_extract_dfa, moore_class_count


@pytest.fixture
def two_state_mixer():
    """Strictly positive symmetric instance: f(a^k) = 0.5 + 0.5 * 0.8^k."""
    return MoorePA(
        ("a",),
        {"a": np.array([[0.9, 0.1], [0.1, 0.9]])},
        np.array([1.0, 0.0]),
        np.array([1.0, 0.0]),
    ).validate()


def test_member_cantor(cantor):
    assert member(cantor, 0.5, ("2",))
    assert not member(cantor, 0.5, ("0",))
    assert not member(cantor, 0.5, ())


def test_member_dfa_language():
    d = Dfa(("0", "2"), 2, 0, {"0": (0, 0), "2": (1, 1)}, frozenset({1}))
    pa = dfa_to_pa(d)
    for u in enumerate_words(("0", "2"), 4):
        assert member(pa, 0.0, u) == d.accepts(u)


def test_enumerate_members(cantor):
    members = enumerate_members(cantor, 0.5, 3)
    # shortlex order, only words ending in "2"
    assert members == [
        ("2",), ("0", "2"), ("2", "2"),
        ("0", "0", "2"), ("0", "2", "2"), ("2", "0", "2"), ("2", "2", "2"),
    ]
    assert all(len(u) <= 3 for u in members)


def _reactions_equal(a: MoorePA, b: MoorePA, depth: int = 4, tol: float = 1e-9):
    for u in enumerate_words(a.inputs, depth):
        assert avg_reaction(a, u) == pytest.approx(avg_reaction(b, u), abs=tol)


def test_fold_initial():
    a = MoorePA(("x",), {"x": np.array([[1.0]])}, np.array([1.0]), np.array([0.7]))
    b = fold_initial(a)
    b.validate()
    assert b.n_states == 2
    assert np.array_equal(b.initial, [1.0, 0.0])
    assert avg_reaction(b, ()) == pytest.approx(0.7)
    assert avg_reaction(b, ("x",)) == pytest.approx(0.7)
    _reactions_equal(a, b)


def test_fold_initial_cantor(cantor):
    b = fold_initial(cantor)
    b.validate()
    assert np.array_equal(np.sort(b.initial)[::-1], [1.0, 0.0, 0.0])
    _reactions_equal(cantor, b)


def test_binarize_output():
    a = MoorePA(("x",), {"x": np.array([[1.0]])}, np.array([1.0]), np.array([0.5]))
    b = binarize_output(a)
    b.validate()
    assert b.n_states == 2
    assert np.allclose(b.matrix("x"), [[0.5, 0.5], [0.5, 0.5]])
    assert set(np.unique(b.lam)) <= {0.0, 1.0}
    assert avg_reaction(b, ("x",)) == pytest.approx(0.5)
    _reactions_equal(a, b)


def test_binarize_output_already_binary(cantor):
    b = binarize_output(cantor)
    b.validate()
    assert b.n_states == 4
    _reactions_equal(cantor, b)


def test_binarize_output_rejects_out_of_range():
    a = MoorePA(("x",), {"x": np.array([[1.0]])}, np.array([1.0]), np.array([1.5]))
    with pytest.raises(ValueError):
        binarize_output(a)


def test_binarize_output_rejects_a_nan_output():
    a = MoorePA(("a",), {"a": np.eye(2)}, np.array([1.0, 0.0]), np.array([np.nan, 0.5]))
    with pytest.raises(ValueError, match="must lie in"):
        binarize_output(a)


def test_shift_cutpoint_down():
    one = MoorePA(("x",), {"x": np.array([[1.0]])}, np.array([1.0]), np.array([1.0]))
    b = shift_cutpoint(one, 0.5, 0.25)
    b.validate()
    for u in enumerate_words(("x",), 4):
        assert avg_reaction(b, u) == pytest.approx(0.5, abs=1e-12)
        assert member(b, 0.25, u) == member(one, 0.5, u)


def test_shift_cutpoint_up(cantor):
    b = shift_cutpoint(cantor, 0.5, 0.75)
    b.validate()
    for u in enumerate_words(("0", "2"), 5):
        assert member(b, 0.75, u) == member(cantor, 0.5, u)


def test_shift_cutpoint_noop(cantor):
    assert shift_cutpoint(cantor, 0.5, 0.5) is cantor


def test_general_language_pa():
    a = GeneralPA(
        inputs=("x",),
        outputs=("y", "z"),
        trans={("x", "y"): np.array([[0.3]]), ("x", "z"): np.array([[0.7]])},
        initial=np.array([1.0]),
    ).validate()
    b = general_language_pa(a, "y")
    b.validate()
    assert member(b, 0.25, ("x",))          # probability 0.3 > 0.25
    assert not member(b, 0.25, ())          # eps is never a member
    # agreement with the direct formula xi . A^u . A^{xy} . ones
    for u in enumerate_words(("x",), 3):
        direct = float(
            a.initial @ np.linalg.matrix_power(a.input_matrix("x"), len(u))
            @ a.matrix("x", "y") @ np.ones(a.n_states)
        )
        assert avg_reaction(b, u + ("x",)) == pytest.approx(direct, abs=1e-12)


def test_isolation_scan_cantor_clear(cantor):
    report = isolation_scan(cantor, 0.5, 1.0 / 6.0, 8)
    assert not report.refuted
    assert report.max_len == 8
    # the minimum distance over the scan is exactly 1/6, attained at "2"
    dists = [abs(avg_reaction(cantor, u) - 0.5) for u in enumerate_words(("0", "2"), 8)]
    assert min(dists) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_isolation_scan_refuted(cantor):
    report = isolation_scan(cantor, 2.0 / 3.0, 0.01, 4)
    assert report.refuted
    assert report.witness == ("2",)
    assert abs(report.witness_value - 2.0 / 3.0) <= 0.01


def test_isolation_scan_rejects_bad_delta(cantor):
    with pytest.raises(ValueError):
        isolation_scan(cantor, 0.5, 0.0, 3)


# each call takes (automaton, cut point, delta); the functions without a delta ignore it
CUT_CALLS = {
    "member": lambda a, cut, delta: member(a, cut, ("2",)),
    "enumerate_members": lambda a, cut, delta: enumerate_members(a, cut, 2),
    "shift_cutpoint-from": lambda a, cut, delta: shift_cutpoint(a, cut, 0.5),
    "shift_cutpoint-to": lambda a, cut, delta: shift_cutpoint(a, 0.5, cut),
    "definite_rep": lambda a, cut, delta: definite_rep(a, cut, delta),
    "isolation_scan": lambda a, cut, delta: isolation_scan(a, cut, delta, 3),
    "extract_dfa": lambda a, cut, delta: extract_dfa(a, cut, delta),
}
DELTA_CALLS = ("definite_rep", "isolation_scan", "extract_dfa")


@pytest.mark.parametrize("cut", [math.nan, 1.0, -0.25, math.inf], ids=str)
@pytest.mark.parametrize("name", CUT_CALLS)
def test_cut_point_outside_the_unit_interval_is_rejected(cantor, name, cut):
    with pytest.raises(ValueError, match=r"cut points? must lie in \[0, 1\)"):
        CUT_CALLS[name](cantor, cut, 0.1)


@pytest.mark.parametrize("delta", [math.nan, 0.0, -0.1, math.inf], ids=str)
@pytest.mark.parametrize("name", DELTA_CALLS)
def test_delta_must_be_positive_and_finite(cantor, name, delta):
    # NaN fails every comparison: unchecked, a scan reads `clear` and an extraction never ends
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        CUT_CALLS[name](cantor, 0.5, delta)


def random_dfa(rng, max_states: int, density: float = 0.5) -> Dfa:
    alphabet = ("a", "b", "c")[: int(rng.integers(1, 4))]
    n = int(rng.integers(1, max_states + 1))
    return Dfa(
        alphabet, n, int(rng.integers(n)),
        {x: tuple(int(q) for q in rng.integers(n, size=n)) for x in alphabet},
        frozenset(int(q) for q in np.flatnonzero(rng.random(n) < density)),
    )


@pytest.mark.parametrize("seed", range(40))
def test_dfa_minimize_matches_moore_refinement(seed):
    d = random_dfa(np.random.default_rng(seed), 12)
    m = dfa_minimize(d)
    assert m.n_states == moore_class_count(d)
    for u in enumerate_words(d.alphabet, 6):
        assert m.accepts(u) == d.accepts(u)


@pytest.mark.parametrize("seed", range(60))
def test_dfa_minimize_numbers_classes_by_their_smallest_member(seed):
    rng = np.random.default_rng(seed)
    d = random_dfa(rng, 40, float(rng.random()))
    r, m = dfa_reachable_part(d), dfa_minimize(d)
    # walking both automata from their starts pairs each reachable state with its class
    cls = {r.start: m.start}
    stack = [r.start]
    while stack:
        s = stack.pop()
        for x in d.alphabet:
            t, c = r.trans[x][s], m.trans[x][cls[s]]
            if t not in cls:
                cls[t] = c
                stack.append(t)
            assert cls[t] == c  # the pairing is a function
    assert sorted(cls) == list(range(r.n_states))
    assert all((s in r.accepting) == (c in m.accepting) for s, c in cls.items())
    block = [cls[s] for s in range(r.n_states)]
    assert list(dict.fromkeys(block)) == list(range(m.n_states))  # first occurrences 0, 1, 2, ...
    assert dfa_minimize(m) == m


def test_dfa_minimize_of_a_random_2000_state_dfa_is_fast():
    # a few Moore rounds take milliseconds; a minimizer quadratic in the states takes a second
    rng = np.random.default_rng(7)
    n = 2000
    d = Dfa(("a", "b"), n, 0, {x: tuple(rng.integers(n, size=n).tolist()) for x in "ab"},
            frozenset(np.flatnonzero(rng.random(n) < 0.5).tolist()))
    start = time.perf_counter()
    m = dfa_minimize(d)
    assert time.perf_counter() - start < 0.5
    assert m.n_states == moore_class_count(d)


def test_extract_dfa_cantor(cantor):
    raw = extract_dfa(cantor, 0.5, 1.0 / 6.0, minimize=False)
    assert raw.n_states <= extraction_state_bound(cantor.n_states, 1.0 / 6.0)
    d = extract_dfa(cantor, 0.5, 1.0 / 6.0)
    assert d.n_states == 2
    for u in enumerate_words(("0", "2"), 8):
        expected = cantor_base3(u) > 0.5
        ends_in_two = bool(u) and u[-1] == "2"
        assert expected == ends_in_two  # the language really is X*.{2}
        assert d.accepts(u) == expected
        assert member(cantor, 0.5, u) == d.accepts(u)


def test_extract_dfa_from_dfa_image():
    d = Dfa(
        alphabet=("0", "2"),
        n_states=3,
        start=0,
        trans={"0": (0, 0, 2), "2": (1, 1, 2)},
        accepting=frozenset({1, 2}),
    )
    pa = dfa_to_pa(d)
    extracted = extract_dfa(pa, 0.0, 0.5)
    reachable = dfa_reachable_part(d)
    assert extracted.n_states <= reachable.n_states
    for u in enumerate_words(("0", "2"), 6):
        assert extracted.accepts(u) == d.accepts(u)


@pytest.mark.parametrize("seed", range(20))
def test_raw_extract_dfa_matches_restacking_loop(seed):
    rng = np.random.default_rng(seed)
    if seed % 2:
        a, cut = two_map_automaton(rng)
        delta = 0.002
    else:
        n = 2 + seed % 3
        a = MoorePA(("a", "b"), {x: random_positive_stochastic(rng, n) for x in ("a", "b")},
                    np.full(n, 1.0 / n), rng.random(n))
        cut, delta = float(np.median(a.lam)), 0.1
    raw = extract_dfa(a, cut, delta, minimize=False)
    n_states, trans, accepting = loop_extract_dfa(a, cut, delta)
    assert raw.n_states == n_states > 1
    assert dict(raw.trans) == trans
    assert raw.accepting == accepting


def test_ergodic_positive():
    a = MoorePA(
        ("x",), {"x": np.array([[0.5, 0.5], [0.5, 0.5]])},
        np.array([1.0, 0.0]), np.array([1.0, 0.0])
    )
    ok, witness = ergodic_test(a)
    assert ok and witness is None


def test_ergodic_identity_fails():
    a = MoorePA(("x",), {"x": np.eye(2)}, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    ok, witness = ergodic_test(a)
    assert not ok
    assert witness == "x"


def test_ergodic_cantor_fails(cantor):
    ok, witness = ergodic_test(cantor)
    assert not ok
    assert witness == "0"  # lower-triangular pattern never becomes all-ones


def test_contraction_bound(two_state_mixer):
    c, bound = contraction_bound(two_state_mixer)
    assert c == pytest.approx(0.1)
    aa = two_state_mixer.matrix("a") @ two_state_mixer.matrix("a")
    assert norm_spread(aa) == pytest.approx(0.64, abs=1e-12)
    assert norm_spread(aa) <= bound(2) + 1e-12
    assert bound(2) == pytest.approx(0.8)


def test_contraction_bound_vacuous(cantor):
    c, bound = contraction_bound(cantor)
    assert c == 0.0
    assert bound(5) == 1.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_contraction_bound_random_positive(seed, n):
    rng = np.random.default_rng(seed)
    a = MoorePA(
        ("a", "b"),
        {x: random_positive_stochastic(rng, n) for x in ("a", "b")},
        np.full(n, 1.0 / n),
        rng.random(n),
    )
    contraction_bound(a, check_len=4)  # validates internally


@pytest.mark.parametrize("bad, block_floats, word", [
    ("a", None, ("a", "a")),
    ("b", 4, ("b", "a")),  # one prefix per block: the word opens the second block
])
def test_contraction_bound_names_the_first_violating_word(monkeypatch, bad, block_floats, word):
    # not stochastic: c = 0.3 bounds spreads at length 2 by 0.4, but the bad
    # letter has spread 0.6, as has the bad letter followed by the constant
    # one, and its square 0.72; the error names the shortlex-first of these
    if block_floats is not None:
        monkeypatch.setattr(kernel, "WORD_BLOCK_FLOATS", block_floats)
    trans = {"a": np.full((2, 2), 0.5), "b": np.full((2, 2), 0.5)}
    trans[bad] = np.array([[0.3, 0.3], [0.9, 0.9]])
    a = MoorePA(("a", "b"), trans, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(AssertionError, match=f"violated at {re.escape(repr(word))}: 0\\.[67]"):
        contraction_bound(a, check_len=3)


def test_definite_rep_mixer(two_state_mixer):
    rep = definite_rep(two_state_mixer, 0.4, 0.1)
    assert rep is not None
    assert rep.k == 12
    assert all(rep.suffix_table.values())  # every suffix class is accepting
    for extra in range(3):
        u = ("a",) * (12 + extra)
        assert rep.member(u) == member(two_state_mixer, 0.4, u)


def test_definite_rep_ergodic_with_zero_entry():
    # a has a zero entry, so only the ergodic branch can find k
    a = MoorePA(
        ("a", "b"),
        {"a": np.array([[0.0, 1.0], [0.5, 0.5]]), "b": np.full((2, 2), 0.5)},
        np.array([1.0, 0.0]),
        np.array([1.0, 0.0]),
    ).validate()
    assert ergodic_test(a) == (True, None)
    rep = definite_rep(a, 0.4, 0.05)
    assert rep is not None
    assert rep.k == 5
    assert any(rep.suffix_table.values()) and not all(rep.suffix_table.values())
    for u in enumerate_words(a.inputs, rep.k + 3):
        assert rep.member(u) == member(a, 0.4, u)


def test_definite_rep_reports_an_over_limit_ergodic_table_as_an_error():
    # the zero entries rule out the positive branch; the ergodic scan meets the
    # table limit before any word matrix spreads less than the threshold
    m = np.array([[0.0, 1.0], [0.99, 0.01]])
    a = MoorePA(("a", "b"), {"a": m, "b": m}, np.array([1.0, 0.0]), np.array([0.0, 1.0])).validate()
    assert ergodic_test(a) == (True, None)
    with pytest.raises(ValueError, match=re.escape("suffix table of size |X|^17 exceeds the limit")):
        definite_rep(a, 0.5, 0.05)


def test_definite_rep_trivial_constant():
    one = MoorePA(("a",), {"a": np.array([[1.0]])}, np.array([1.0]), np.array([1.0]))
    rep = definite_rep(one, 0.4, 0.55)
    assert rep is not None
    assert rep.k == 1


def test_definite_rep_absent(cantor):
    assert definite_rep(cantor, 0.5, 1.0 / 6.0) is None


def test_definite_rep_validates_levels_without_membership_calls(monkeypatch):
    # k = 14; suffix determination fails at a word of length k + 2, named
    # first in shortlex order, and no word is rebuilt through `member`
    def no_member(*args):
        raise AssertionError("member called")

    monkeypatch.setattr("probautomata.languages.member", no_member)
    a = random_moore_pa(np.random.default_rng(31), 2, 2)
    word = ("a", "a", "b", "a", "a", "b", "b", "b", "b", "a", "a", "b", "b", "b", "b", "b")
    with pytest.raises(AssertionError, match=re.escape(f"suffix determination failed at {word!r};")):
        definite_rep(a, 0.856, 0.2)


def test_stability_all(two_state_mixer):
    assert stability_check(two_state_mixer).status == STABLE_ALL


def test_stability_unknown_identity():
    a = MoorePA(("x",), {"x": np.eye(2)}, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert stability_check(a).status == UNKNOWN


def test_stability_unknown_scans_layers_in_bounded_memory():
    # 40 states, 2 identity letters: every layer up to 2^16 words fails at
    # its first word matrix; the whole layer of length 16 would take 0.8 GB
    n = 40
    a = MoorePA(("a", "b"), {"a": np.eye(n), "b": np.eye(n)}, np.full(n, 1.0 / n), np.ones(n))
    tracemalloc.start()
    try:
        report = stability_check(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.status == UNKNOWN
    assert peak < 4 << 20


def test_stability_positive_word():
    # spread norm 1 (a column holds both 0 and 1) but the square is positive
    m = np.array([
        [0.0, 1.0, 0.0],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        [0.5, 0.0, 0.5],
    ])
    assert np.all(m @ m > 0)
    a = MoorePA(("x",), {"x": m}, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    report = stability_check(a)
    assert report.status == POSITIVE_WORD_STABLE
    assert report.word_length == 2


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ergodic_decay_smoke(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    a = MoorePA(
        ("a", "b"),
        {x: random_positive_stochastic(rng, n) for x in ("a", "b")},
        np.full(n, 1.0 / n),
        rng.random(n),
    )
    ok, _ = ergodic_test(a)
    assert ok
    short = [norm_spread(a.word_matrix(u)) for u in enumerate_words(a.inputs, 2) if len(u) == 2]
    long_words = [tuple(rng.choice(a.inputs, 8)) for _ in range(5)]
    long = [norm_spread(a.word_matrix(u)) for u in long_words]
    assert max(long) < max(short)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_constructions_preserve_membership(seed):
    rng = np.random.default_rng(seed)
    a = random_moore_pa(rng, int(rng.integers(1, 4)), 2)
    words = enumerate_words(a.inputs, 4)
    values = sorted({avg_reaction(a, u) for u in words})
    gaps = [(values[i + 1] - values[i], i) for i in range(len(values) - 1)]
    if gaps and max(gaps)[0] > 1e-6:
        width, i = max(gaps)
        cut = (values[i] + values[i + 1]) / 2.0
    else:
        # near-constant reaction: put the cut clear of every value
        cut = values[0] / 2.0 if values[0] > 0.02 else min(0.99, values[-1] + 0.01)
    cut = min(max(cut, 0.0), 0.99)
    expected = {u: member(a, cut, u) for u in words}

    folded = fold_initial(a)
    binarized = binarize_output(a)
    for u in words:
        assert member(folded, cut, u) == expected[u]
        assert member(binarized, cut, u) == expected[u]
    if cut > 0.0:
        down = shift_cutpoint(a, cut, cut / 2.0)
        for u in words:
            assert member(down, cut / 2.0, u) == expected[u]
    up = shift_cutpoint(a, cut, cut + (1.0 - cut) / 2.0)
    for u in words:
        assert member(up, cut + (1.0 - cut) / 2.0, u) == expected[u]
