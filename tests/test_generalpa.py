import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probautomata import (
    ConeSpec,
    GeneralPA,
    ReactionTable,
    basis_matrix,
    distributions_equivalent,
    equivalent,
    find_convex_state,
    is_probabilistic_response,
    pa_from_cone,
    reachable_part,
    reaction,
    reaction_table,
    reduce,
    remove_convex_state,
    residual,
    residual_automaton,
    word_matrix,
)
from probautomata.generalpa import tables_agree

from gen import random_general_pa
from oracles import enumerate_words


@pytest.fixture
def rabin():
    """Two-state transducer whose (x^k, y^k) reaction is 0.5^k (1 + k/2)."""
    return GeneralPA(
        inputs=("x",),
        outputs=("y", "z"),
        trans={
            ("x", "y"): np.array([[0.5, 0.25], [0.0, 0.5]]),
            ("x", "z"): np.array([[0.25, 0.0], [0.25, 0.25]]),
        },
        initial=np.array([1.0, 0.0]),
    ).validate()


@pytest.fixture
def det_two_state():
    """Deterministic transducer whose first output tells the start state apart."""
    return GeneralPA(
        inputs=("x",),
        outputs=("y", "z"),
        trans={
            ("x", "y"): np.array([[1.0, 0.0], [0.0, 0.0]]),
            ("x", "z"): np.array([[0.0, 0.0], [0.0, 1.0]]),
        },
        initial=np.array([1.0, 0.0]),
    ).validate()


@pytest.fixture
def one_state():
    return GeneralPA(
        inputs=("x",),
        outputs=("y", "z"),
        trans={
            ("x", "y"): np.array([[0.6]]),
            ("x", "z"): np.array([[0.4]]),
        },
        initial=np.array([1.0]),
    ).validate()


def convexified(base: GeneralPA, mix, init) -> GeneralPA:
    """Append a state whose rows mix the originals with the given weights."""
    mix = np.asarray(mix, dtype=float)
    n = base.n_states
    trans = {}
    for key, m in base.trans.items():
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = m
        big[n, :n] = mix @ m
        trans[key] = big
    return GeneralPA(base.inputs, base.outputs, trans, np.asarray(init, dtype=float))


def test_word_matrix(rabin):
    assert np.array_equal(word_matrix(rabin, (), ()), np.eye(2))
    assert np.array_equal(word_matrix(rabin, ("x",), ()), np.zeros((2, 2)))
    m = rabin.matrix("x", "y")
    assert np.allclose(word_matrix(rabin, ("x", "x"), ("y", "y")), m @ m)
    with pytest.raises(KeyError):
        word_matrix(rabin, ("w",), ("y",))


def test_rabin_golden_reaction(rabin):
    # f(x^k, y^k) = 0.5^k (1 + k/2)
    assert reaction(rabin, ("x",), ("y",)) == pytest.approx(0.75, abs=1e-12)
    assert reaction(rabin, ("x", "x"), ("y", "y")) == pytest.approx(0.5, abs=1e-12)
    for k in range(5):
        u = ("x",) * k
        v = ("y",) * k
        assert reaction(rabin, u, v) == pytest.approx(0.5**k * (1 + 0.5 * k), abs=1e-12)


def test_reaction_empty_word_and_normalization(rabin):
    assert reaction(rabin, (), ()) == 1.0
    total = sum(
        reaction(rabin, ("x", "x"), (y1, y2))
        for y1 in rabin.outputs
        for y2 in rabin.outputs
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalization_random(seed):
    rng = np.random.default_rng(seed)
    a = random_general_pa(rng, rng.integers(1, 5), rng.integers(1, 4), rng.integers(1, 4))
    table = reaction_table(a, 3)
    for u in enumerate_words(a.inputs, 3):
        total = sum(table.value(u, v) for v in enumerate_words(a.outputs, len(u)) if len(v) == len(u))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_basis_matrix_one_state(one_state):
    basis, tags = basis_matrix(one_state)
    assert basis.shape == (1, 1)
    assert basis[0, 0] == 1.0
    assert tags == [((), ())]


def test_basis_matrix_ranks(rabin, det_two_state):
    basis, _ = basis_matrix(det_two_state)
    assert basis.shape[1] == 2
    basis, tags = basis_matrix(rabin)
    assert basis.shape[1] == 2
    assert tags[0] == ((), ())


def test_distribution_equivalence(rabin):
    assert distributions_equivalent(rabin, rabin.initial, rabin.initial)
    # reactions from (0,1) differ at (x, y): 0.5 vs 0.75
    assert reaction(rabin, ("x",), ("y",), xi=np.array([0.0, 1.0])) == pytest.approx(0.5)
    assert not distributions_equivalent(rabin, rabin.initial, np.array([0.0, 1.0]))


def test_equivalent_self(rabin):
    assert equivalent(rabin, rabin)


def test_reachable_part_identity(rabin):
    assert reachable_part(rabin).n_states == 2


def test_reachable_part_drops_dead_state():
    a = GeneralPA(
        inputs=("x",),
        outputs=("y",),
        trans={("x", "y"): np.array([[1.0, 0.0], [1.0, 0.0]])},
        initial=np.array([1.0, 0.0]),
    )
    r = reachable_part(a)
    assert r.n_states == 1
    assert equivalent(a, r)


def test_find_and_remove_convex_state(det_two_state):
    a = convexified(det_two_state, [0.5, 0.5], [0.3, 0.3, 0.4])
    a.validate()
    hit = find_convex_state(a)
    assert hit is not None
    s, coeffs = hit
    assert s == 2
    assert coeffs == pytest.approx([0.5, 0.5], abs=1e-8)
    b = remove_convex_state(a, s, coeffs)
    assert b.n_states == 2
    b.validate()
    assert equivalent(a, b)
    # reactions agree exhaustively to depth 4
    ta = reaction_table(a, 4)
    tb = reaction_table(b, 4)
    for k in range(5):
        for u, v in ta.pairs(k):
            assert ta.value(u, v) == pytest.approx(tb.value(u, v), abs=1e-9)


def test_find_convex_state_absent(det_two_state):
    assert find_convex_state(det_two_state) is None


def test_remove_convex_state_rejects_bad_certificate(det_two_state):
    a = convexified(det_two_state, [0.5, 0.5], [0.3, 0.3, 0.4])
    with pytest.raises(ValueError):
        remove_convex_state(a, 2, np.array([1.0, 0.0]))


def test_remove_convex_state_rejects_an_affine_certificate():
    # states 0-2 emit y with probability p = (0, 1/2, 1), else z, and move to state 3,
    # which emits z for ever; every reaction is affine in p, so basis row 2 is
    # -(row 0) + 2 (row 1): an affine combination that is not a convex one
    p = np.array([0.0, 0.5, 1.0, 0.0])
    to_sink = np.zeros((4, 4))
    to_sink[:3, 3] = 1.0
    a = GeneralPA(("x",), ("y", "z"),
                  {("x", "y"): p[:, None] * to_sink,
                   ("x", "z"): (1.0 - p)[:, None] * to_sink + np.diag([0.0, 0.0, 0.0, 1.0])},
                  np.array([0.0, 0.0, 1.0, 0.0])).validate()
    basis, _ = basis_matrix(a)
    assert np.array_equal(basis[2], 2.0 * basis[1] - basis[0])
    with pytest.raises(ValueError, match="certificate"):
        remove_convex_state(a, 2, np.array([-1.0, 2.0, 0.0]))


def test_reduce_fixed_point(rabin, det_two_state):
    assert reduce(rabin).n_states == 2  # already minimal
    a = convexified(det_two_state, [0.25, 0.75], [0.2, 0.2, 0.6])
    reduced = reduce(a)
    assert reduced.n_states == 2
    assert equivalent(a, reduced)
    assert find_convex_state(reduced) is None
    assert reduce(reduced).n_states == reduced.n_states  # idempotent


def test_residual_identity_and_values(rabin):
    f = reaction_table(rabin, 4)
    same = residual(f, (), ())
    assert same.value(("x",), ("y",)) == f.value(("x",), ("y",))
    fr = residual(f, ("x",), ("y",))
    assert fr.value(("x",), ("y",)) == pytest.approx(0.5 / 0.75)


def test_residual_zero_mass(det_two_state):
    f = reaction_table(det_two_state, 3)
    with pytest.raises(ZeroDivisionError):
        residual(f, ("x",), ("z",))


def test_residual_composition_law(rabin):
    f = reaction_table(rabin, 6)
    lhs = residual(f, ("x", "x"), ("y", "y"))
    rhs = residual(residual(f, ("x",), ("y",)), ("x",), ("y",))
    for k in range(min(lhs.depth, rhs.depth) + 1):
        for u, v in lhs.pairs(k):
            assert lhs.value(u, v) == pytest.approx(rhs.value(u, v), abs=1e-12)


def test_residual_automaton_one_state(one_state):
    f = reaction_table(one_state, 4)
    a = residual_automaton(f)
    assert a is not None
    assert a.n_states == 1
    rebuilt = reaction_table(a, 4)
    for k in range(5):
        for u, v in f.pairs(k):
            assert rebuilt.value(u, v) == pytest.approx(f.value(u, v), abs=1e-9)


def test_residual_automaton_deterministic():
    # two states alternating outputs deterministically
    a = GeneralPA(
        inputs=("x",),
        outputs=("y", "z"),
        trans={
            ("x", "y"): np.array([[0.0, 1.0], [0.0, 0.0]]),
            ("x", "z"): np.array([[0.0, 0.0], [1.0, 0.0]]),
        },
        initial=np.array([1.0, 0.0]),
    ).validate()
    f = reaction_table(a, 5)
    rebuilt = residual_automaton(f)
    assert rebuilt is not None
    assert rebuilt.n_states == 2
    for m in rebuilt.trans.values():
        assert set(np.unique(np.round(m, 12))) <= {0.0, 1.0}
    t = reaction_table(rebuilt, 5)
    for k in range(6):
        for u, v in f.pairs(k):
            assert t.value(u, v) == pytest.approx(f.value(u, v), abs=1e-9)


def test_residual_automaton_rabin_open(rabin):
    # infinitely many residuals: closure cannot be certified at depth 6
    f = reaction_table(rabin, 6)
    assert residual_automaton(f) is None


def test_pa_from_cone_single(one_state):
    f = reaction_table(one_state, 3)
    cone = ConeSpec(
        members=(f,),
        initial=(1.0,),
        shifts={("x", "y"): np.array([[0.6]]), ("x", "z"): np.array([[0.4]])},
    )
    a = pa_from_cone(cone)
    assert a.n_states == 1
    t = reaction_table(a, 3)
    for k in range(4):
        for u, v in f.pairs(k):
            assert t.value(u, v) == pytest.approx(f.value(u, v), abs=1e-12)


def test_pa_from_cone_mixture():
    # constant emit-y and emit-z reactions, mixed half and half
    def const_table(symbol):
        values = {}
        for k in range(4):
            values[(("x",) * k, (symbol,) * k)] = 1.0
        return ReactionTable(("x",), ("y", "z"), 3, values)

    f1, f2 = const_table("y"), const_table("z")
    cone = ConeSpec(
        members=(f1, f2),
        initial=(0.5, 0.5),
        shifts={
            ("x", "y"): np.array([[1.0, 0.0], [0.0, 0.0]]),
            ("x", "z"): np.array([[0.0, 0.0], [0.0, 1.0]]),
        },
    )
    a = pa_from_cone(cone)
    t = reaction_table(a, 3)
    for k in range(4):
        for u, v in t.pairs(k):
            expected = 0.5 * f1.value(u, v) + 0.5 * f2.value(u, v)
            assert t.value(u, v) == pytest.approx(expected, abs=1e-12)


def test_pa_from_cone_rejects_bad_spec(one_state):
    f = reaction_table(one_state, 3)
    cone = ConeSpec(
        members=(f,),
        initial=(1.0,),
        shifts={("x", "y"): np.array([[0.6]]), ("x", "z"): np.array([[0.9]])},
    )
    with pytest.raises(ValueError):
        pa_from_cone(cone)


def test_a_nan_cone_shift_is_rejected(one_state):
    cone = ConeSpec(
        members=(reaction_table(one_state, 3),),
        initial=(1.0,),
        shifts={("x", "y"): np.array([[float("nan")]]), ("x", "z"): np.array([[0.4]])},
    )
    with pytest.raises(ValueError, match="pair matrices for input 'x' is not row-stochastic"):
        cone.validate()
    with pytest.raises(ValueError, match="pair matrices for input 'x' is not row-stochastic"):
        pa_from_cone(cone)


def test_a_cone_validates_as_its_automaton(one_state):
    f = reaction_table(one_state, 3)
    shifts = {("x", "y"): np.array([[0.6]]), ("x", "z"): np.array([[0.4]])}
    assert ConeSpec((f,), (1.0,), shifts).validate()
    with pytest.raises(KeyError, match="no matrix for"):  # a missing shift, as in GeneralPA
        ConeSpec((f,), (1.0,), {("x", "y"): np.array([[1.0]])}).validate()
    with pytest.raises(ValueError, match="one coefficient for each"):
        ConeSpec((f,), (0.5, 0.5), {k: np.full((2, 2), m[0, 0] / 2) for k, m in shifts.items()}).validate()
    with pytest.raises(ValueError, match="initial distribution"):
        ConeSpec((f,), (0.9,), shifts).validate()


def test_tables_agree_refuses_nan():
    f = ReactionTable(("x",), ("y",), 1, {((), ()): 1.0, (("x",), ("y",)): 1.0})
    g = ReactionTable(("x",), ("y",), 1, {((), ()): float("nan"), (("x",), ("y",)): float("nan")})
    assert tables_agree(f, f)
    assert not tables_agree(f, g)
    assert not tables_agree(g, g)


def test_is_probabilistic_response(rabin):
    assert is_probabilistic_response(reaction_table(rabin, 3))
    bad = ReactionTable(("x",), ("y",), 1, {((), ()): 0.9, (("x",), ("y",)): 0.9})
    assert not is_probabilistic_response(bad)


@pytest.mark.parametrize("values", [
    {((), ()): float("nan"), (("x",), ("y",)): float("nan"), (("x",), ("z",)): float("nan")},
    {((), ()): 1.0, (("x",), ("y",)): float("nan"), (("x",), ("z",)): 0.5},
], ids=["all", "child"])
def test_nan_reaction_table_is_not_probabilistic(values):
    assert not is_probabilistic_response(ReactionTable(("x",), ("y", "z"), 1, values))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_reaction_is_probabilistic_response(seed):
    rng = np.random.default_rng(seed)
    a = random_general_pa(rng, rng.integers(1, 4), rng.integers(1, 3), rng.integers(1, 3))
    assert is_probabilistic_response(reaction_table(a, 3))
