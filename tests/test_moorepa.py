import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probautomata import (
    Classification,
    Dfa,
    GeneralPA,
    MoorePA,
    Tolerances,
    avg_basis_matrix,
    avg_equivalent,
    avg_reaction,
    avg_reaction_table,
    classify,
    dfa_reachable_part,
    dfa_to_pa,
    get_default,
    kernel,
    linalg,
    moore_to_general,
    reduce_avg,
)
from probautomata.moorepa import (
    find_convex_state_avg,
    moore_reachable_part,
    remove_convex_state_avg,
)

from gen import (
    plant_convex_state,
    plant_unreachable_state,
    random_distribution,
    random_moore_pa,
    random_stochastic,
)
from oracles import cantor_base3, enumerate_words, lp_convex_certificate


def test_cantor_golden(cantor):
    assert avg_reaction(cantor, ("2",)) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert avg_reaction(cantor, ("2", "0")) == pytest.approx(2.0 / 9.0, abs=1e-12)
    for u in enumerate_words(("0", "2"), 4):
        assert avg_reaction(cantor, u) == pytest.approx(cantor_base3(u), abs=1e-12)


def test_avg_reaction_empty_and_constant(cantor):
    assert avg_reaction(cantor, ()) == pytest.approx(0.0)
    const = MoorePA(
        ("a",),
        {"a": np.array([[0.3, 0.7], [0.6, 0.4]])},
        np.array([0.5, 0.5]),
        np.array([0.8, 0.8]),
    ).validate()
    for u in enumerate_words(("a",), 4):
        assert avg_reaction(const, u) == pytest.approx(0.8, abs=1e-12)


def test_avg_reaction_table_matches_pointwise(cantor):
    table = avg_reaction_table(cantor, 4)
    for u in enumerate_words(("0", "2"), 4):
        assert table[u] == pytest.approx(avg_reaction(cantor, u), abs=1e-15)


def test_avg_basis_matrix(cantor):
    const = MoorePA(
        ("a",),
        {"a": np.array([[0.3, 0.7], [0.6, 0.4]])},
        np.array([0.5, 0.5]),
        np.array([0.8, 0.8]),
    )
    basis, tags = avg_basis_matrix(const)
    assert basis.shape[1] == 1
    assert tags == [()]
    basis, tags = avg_basis_matrix(cantor)
    assert basis.shape[1] == 2
    assert tags[0] == ()
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = random_moore_pa(rng, 4, 2)
        basis, _ = avg_basis_matrix(a)
        assert basis.shape[1] <= a.n_states


def test_avg_equivalent_halves(cantor):
    half = MoorePA(("a",), {"a": np.array([[1.0]])}, np.array([1.0]), np.array([0.5]))
    split = MoorePA(
        ("a",), {"a": np.eye(2)}, np.array([0.5, 0.5]), np.array([1.0, 0.0])
    )
    assert avg_equivalent(half, split)
    one_state = MoorePA(
        ("0", "2"),
        {"0": np.array([[1.0]]), "2": np.array([[1.0]])},
        np.array([1.0]),
        np.array([0.5]),
    )
    assert not avg_equivalent(cantor, one_state)


def test_reduce_avg_three_state_mixture():
    a = MoorePA(
        ("a",),
        {"a": np.eye(3)},
        np.array([1.0, 1.0, 1.0]) / 3.0,
        np.array([0.0, 1.0, 0.5]),
    ).validate()
    hit = find_convex_state_avg(a)
    assert hit is not None
    s, coeffs = hit
    assert s == 2
    assert coeffs == pytest.approx([0.5, 0.5], abs=1e-8)
    b = reduce_avg(a)
    assert b.n_states == 2
    b.validate()
    assert avg_equivalent(a, b)
    for u in enumerate_words(("a",), 4):
        assert avg_reaction(b, u) == pytest.approx(avg_reaction(a, u), abs=1e-9)


def test_remove_convex_state_avg_rejects_a_wrong_certificate():
    a = MoorePA(("a",), {"a": np.eye(3)}, np.ones(3) / 3.0, np.array([0.0, 1.0, 0.5]))
    s, coeffs = find_convex_state_avg(a)
    assert avg_equivalent(a, remove_convex_state_avg(a, s, coeffs))
    with pytest.raises(ValueError, match="certificate"):
        remove_convex_state_avg(a, s, np.array([0.75, 0.25]))
    with pytest.raises(ValueError, match="wrong length"):
        remove_convex_state_avg(a, s, coeffs[:1])


def test_remove_convex_state_avg_rejects_an_affine_certificate():
    # basis row 2 of the identity automaton with lam = (0, 1, 2) is -(row 0) + 2 (row 1)
    a = MoorePA(("a",), {"a": np.eye(3)}, np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="certificate"):
        remove_convex_state_avg(a.validate(), 2, np.array([-1.0, 2.0]))


def test_reduce_avg_minimal_unchanged(cantor):
    assert reduce_avg(cantor).n_states == 2


def test_reduce_avg_planted(cantor):
    rng = np.random.default_rng(11)
    base = random_moore_pa(rng, 3, 2)
    inflated = plant_unreachable_state(rng, plant_convex_state(rng, base))
    inflated.validate()
    reduced = reduce_avg(inflated)
    reduced.validate()
    assert reduced.n_states <= inflated.n_states - 2
    assert avg_equivalent(inflated, reduced)
    for u in enumerate_words(base.inputs, 4):
        assert avg_reaction(reduced, u) == pytest.approx(
            avg_reaction(inflated, u), abs=1e-9
        )


def _planted(seed: int, base_states: int, planted: int) -> MoorePA:
    rng = np.random.default_rng(seed)
    a = random_moore_pa(rng, base_states, 2)
    for _ in range(planted):
        a = plant_convex_state(rng, a)
    return plant_unreachable_state(rng, a)


def _relabel(a: MoorePA, order) -> MoorePA:
    """State i of the result is state order[i] of a."""
    trans = {x: a.matrix(x)[np.ix_(order, order)] for x in a.inputs}
    return MoorePA(a.inputs, trans, a.initial[order], a.lam[order])


def test_reduce_avg_makes_at_most_one_certificate_per_state(monkeypatch):
    # planted states first, so that a top-down rescan after each fold would
    # try every base state again
    a = _planted(21, 6, 3)
    a = _relabel(a, np.arange(a.n_states)[::-1])
    calls = []
    certificate = linalg.convex_combination_certificate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return certificate(*args, **kwargs)

    monkeypatch.setattr(linalg, "convex_combination_certificate", counted)
    reduced = reduce_avg(a)
    assert reduced.n_states <= 6
    assert 0 < len(calls) <= a.n_states  # the fixed point needed O(n^2) here
    monkeypatch.undo()
    assert avg_equivalent(a, reduced)


def _ill_conditioned():
    """35 states with half-zero letters and three planted mixtures, shuffled.

    Returns the automaton and the indices of the planted states.
    """
    rng = np.random.default_rng(99)
    n, inputs = 35, ("a", "b")
    a = MoorePA(inputs, {x: random_stochastic(rng, n, 0.5) for x in inputs},
                random_distribution(rng, n), rng.random(n))
    for _ in range(3):
        a = plant_convex_state(rng, a)
    order = rng.permutation(n + 3)
    return _relabel(a, order), np.flatnonzero(order >= n)


def test_certificates_survive_an_ill_conditioned_basis():
    # the averaged basis is ill-conditioned, and a simplex tableau loses
    # digits on the planted state at index 16 although it finds the mixture
    a, planted = _ill_conditioned()
    n = a.n_states - 3
    basis, _ = avg_basis_matrix(a)
    assert 16 in planted
    for s in planted:
        coeffs = linalg.convex_combination_certificate(basis, s)
        assert coeffs is not None
        assert np.abs(basis[s] - coeffs @ np.delete(basis, s, axis=0)).max() <= 1e-8
    reduced = reduce_avg(a)
    assert reduced.n_states == n
    assert avg_equivalent(a, reduced)


def _oracle_bases():
    """Seeded random bases with mixed-in rows, planted bases and the ill-conditioned one."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(3 + seed % 5, 1 + seed % 7))
        mixtures = [random_distribution(rng, len(rows)) @ rows for _ in range(seed % 3)]
        basis = np.vstack([rows, *mixtures, *rows[:seed % 2]])  # and maybe a duplicate
        yield basis[rng.permutation(len(basis))]
    for seed in range(20):
        yield avg_basis_matrix(_planted(seed, 3 + seed % 6, 1 + seed % 3))[0]
    yield avg_basis_matrix(_ill_conditioned()[0])[0]


@pytest.fixture
def fits(monkeypatch):
    """A list that grows by one entry with each nonnegative least-squares fit."""
    fits = []
    nnls = linalg._nnls
    monkeypatch.setattr(linalg, "_nnls", lambda *args: fits.append(1) or nnls(*args))
    return fits


def test_certificate_decides_as_the_lp_oracle(fits):
    t = get_default()
    calls = accepted = boxed = 0
    for basis in _oracle_bases():
        for s in range(len(basis)):
            want = lp_convex_certificate(basis, s)
            before = len(fits)
            got = linalg.convex_combination_certificate(basis, s)
            assert (got is None) == (want is None)
            calls += 1
            boxed += len(fits) == before
            if want is not None:
                accepted += 1
                assert len(fits) == before + 1  # the box test let it through
                assert kernel.convex_state(basis, t, s + 1)[0] == s  # and the affine test
                assert np.abs(basis[s] - got @ np.delete(basis, s, axis=0)).max() <= 1e-8
    # both sides decide some rows each way, and the box test prunes
    assert 0 < accepted < calls
    assert boxed > 0


def test_reduce_avg_fits_only_the_planted_states(fits):
    # 38 states, 3 of them planted: the affine and box tests leave the
    # nonnegative least-squares fit to the planted rows and at most a few more
    a, planted = _ill_conditioned()
    assert reduce_avg(a).n_states == a.n_states - len(planted)
    assert len(planted) <= len(fits) <= len(planted) + 2


def test_reduce_avg_fits_the_planted_states_in_a_few_solves(lstsq_calls):
    # each certificate starts at the minimum-norm fit, which is already the
    # mixture here, instead of adding the other states one solve at a time
    a, planted = _ill_conditioned()
    reduce_avg(a)
    assert len(lstsq_calls) <= 4 * len(planted)


@settings(max_examples=40, deadline=None)
@given(st.floats(-6.0, 6.0))
@example(-6.0)
@example(6.0)
def test_certificates_hold_at_every_scale(exponent):
    c, t = 10.0 ** exponent, get_default()
    rng = np.random.default_rng(7)
    a = random_moore_pa(rng, 7, 2)
    for _ in range(2):
        a = plant_convex_state(rng, a)
    basis = c * avg_basis_matrix(a)[0]
    # the last planted row off its mixture by a tenth of the certificate's
    # scale: the fit must weigh the sum of its coefficients like the rows,
    # at every scale
    noise = np.random.default_rng(2).normal(size=basis.shape[1])
    basis[8] += 1e-9 * np.abs(basis).max() * noise
    for s in (7, 8):  # the planted states
        hit = kernel.convex_state(basis, t, s + 1)
        assert hit is not None and hit[0] == s
        residual = np.abs(basis[s] - hit[1] @ np.delete(basis, s, axis=0)).max()
        assert residual <= 1e-8 * max(1.0, np.abs(basis).max())
    vertices = c * np.eye(6)
    assert kernel.convex_state(vertices, t) is None
    assert all(linalg.convex_combination_certificate(vertices, s) is None for s in range(6))


def _reduce_avg_fixed_point(a: MoorePA) -> MoorePA:
    """The reduction as a fixed point of the public find/remove/reachable steps."""
    current = moore_reachable_part(a)
    while (hit := find_convex_state_avg(current)) is not None:
        current = moore_reachable_part(remove_convex_state_avg(current, *hit))
    return current


@pytest.mark.parametrize("seed", range(60))
def test_reduce_avg_one_pass_against_the_fixed_point(seed):
    a = _planted(seed, 3 + seed % 6, 1 + seed % 3)
    reduced = reduce_avg(a)
    reduced.validate()
    assert reduced.n_states <= _reduce_avg_fixed_point(a).n_states
    assert avg_equivalent(a, reduced)


def test_moore_reachable_part():
    rng = np.random.default_rng(5)
    a = plant_unreachable_state(rng, random_moore_pa(rng, 2, 1))
    r = moore_reachable_part(a)
    assert r.n_states == 2


def test_classify_moore_det_out(cantor):
    assert classify(moore_to_general(cantor)) is Classification.MOORE_DET_OUT


def test_classify_mealy():
    a = GeneralPA(
        inputs=("a", "b"),
        outputs=("p", "q"),
        trans={
            ("a", "p"): np.array([[0.2]]),
            ("a", "q"): np.array([[0.8]]),
            ("b", "p"): np.array([[0.7]]),
            ("b", "q"): np.array([[0.3]]),
        },
        initial=np.array([1.0]),
    ).validate()
    assert classify(a) is Classification.MEALY


def test_classify_general():
    rabin = GeneralPA(
        inputs=("x",),
        outputs=("y", "z"),
        trans={
            ("x", "y"): np.array([[0.5, 0.25], [0.0, 0.5]]),
            ("x", "z"): np.array([[0.25, 0.0], [0.25, 0.25]]),
        },
        initial=np.array([1.0, 0.0]),
    )
    assert classify(rabin) is Classification.GENERAL


def test_classify_slack_follows_tol():
    # delta(s, x, s') . lam(s, x, y) with mass 1e-10 moved between two targets
    delta = np.array([[0.6, 0.4], [0.3, 0.7]])
    lam = np.array([[0.25, 0.75], [0.5, 0.5]])
    p = delta * lam[:, 0][:, None]
    q = delta * lam[:, 1][:, None]
    p[0] += [1e-10, -1e-10]
    q[0] += [-1e-10, 1e-10]
    a = GeneralPA(("x",), ("p", "q"), {("x", "p"): p, ("x", "q"): q},
                  np.array([1.0, 0.0])).validate()
    assert classify(a) is Classification.MEALY
    assert classify(a, Tolerances(rel=1e-13)) is Classification.GENERAL


@pytest.fixture
def ends_in_two_dfa():
    return Dfa(
        alphabet=("0", "2"),
        n_states=2,
        start=0,
        trans={"0": (0, 0), "2": (1, 1)},
        accepting=frozenset({1}),
    )


def test_dfa_to_pa_indicator(ends_in_two_dfa):
    pa = dfa_to_pa(ends_in_two_dfa).validate()
    for u in enumerate_words(("0", "2"), 4):
        expected = 1.0 if ends_in_two_dfa.accepts(u) else 0.0
        assert avg_reaction(pa, u) == expected  # exact, 0/1 arithmetic


def test_dfa_to_pa_sink_and_empty():
    sink = Dfa(("a",), 1, 0, {"a": (0,)}, frozenset({0}))
    pa = dfa_to_pa(sink)
    for k in range(5):
        assert avg_reaction(pa, ("a",) * k) == 1.0
    empty = Dfa(("a",), 1, 0, {"a": (0,)}, frozenset())
    pa = dfa_to_pa(empty)
    for k in range(5):
        assert avg_reaction(pa, ("a",) * k) == 0.0


def test_dfa_reachable_chain_worst_case():
    # a length-5 chain is the deepest breadth-first search over 5 states
    n = 5
    chain = Dfa(
        alphabet=("a",),
        n_states=n,
        start=0,
        trans={"a": tuple(min(i + 1, n - 1) for i in range(n))},
        accepting=frozenset({n - 1}),
    )
    assert dfa_reachable_part(chain).n_states == n


def test_dfa_reachable_part(ends_in_two_dfa):
    assert dfa_reachable_part(ends_in_two_dfa).n_states == 2
    with_island = Dfa(
        alphabet=("0", "2"),
        n_states=3,
        start=0,
        trans={"0": (0, 0, 2), "2": (1, 1, 2)},
        accepting=frozenset({1, 2}),
    )
    trimmed = dfa_reachable_part(with_island)
    assert trimmed.n_states == 2
    for u in enumerate_words(("0", "2"), 4):
        assert trimmed.accepts(u) == with_island.accepts(u)
