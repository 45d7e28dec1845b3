import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probautomata import (
    Dfa,
    LinearAutomaton,
    StringFunctionTable,
    avg_reaction,
    chi_eps,
    chi_word,
    disting_degree,
    e_f_dimension,
    eval_expr,
    hankel_basis,
    hankel_block,
    la_equivalent,
    la_language_pa,
    la_reaction,
    la_table,
    la_to_pa_affine,
    la_to_rational_expr,
    laf_from_level_dfas,
    member,
    reach_degree,
    realize,
    to_sexpr,
)
from probautomata.linauto import (
    la_chi_symbol,
    la_convolution,
    la_iterate,
    la_product,
    la_reverse,
    la_scale,
    la_sum,
    la_zero,
)

from gen import random_la
from oracles import conv_power_sum, enumerate_words, table_convolve


def geometric(ratio: float) -> LinearAutomaton:
    return LinearAutomaton(
        ("x",), {"x": np.array([[ratio]])}, np.array([1.0]), np.array([1.0])
    )


def cantor_as_la() -> LinearAutomaton:
    return LinearAutomaton(
        ("0", "2"),
        {
            "0": np.array([[1.0, 0.0], [2.0 / 3.0, 1.0 / 3.0]]),
            "2": np.array([[1.0 / 3.0, 2.0 / 3.0], [0.0, 1.0]]),
        },
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
    )


def test_la_reaction_geometric():
    l = geometric(0.5)
    for k in range(6):
        assert la_reaction(l, ("x",) * k) == pytest.approx(0.5**k, abs=1e-12)
    assert la_reaction(l, ()) == float(l.initial @ l.lam)


def test_la_reaction_chi_symbol():
    l = la_chi_symbol(("x",), "x")
    assert la_reaction(l, ()) == 0.0
    assert la_reaction(l, ("x",)) == 1.0
    assert la_reaction(l, ("x", "x")) == 0.0


def test_la_convolution_of_indicators():
    lx = la_chi_symbol(("x", "y"), "x")
    ly = la_chi_symbol(("x", "y"), "y")
    conv = la_convolution(lx, ly)
    fx = {u: la_reaction(lx, u) for u in enumerate_words(("x", "y"), 3)}
    fy = {u: la_reaction(ly, u) for u in enumerate_words(("x", "y"), 3)}
    oracle = table_convolve(fx, fy, enumerate_words(("x", "y"), 3))
    for u in enumerate_words(("x", "y"), 3):
        assert la_reaction(conv, u) == pytest.approx(oracle[u], abs=1e-12)
        assert la_reaction(conv, u) == pytest.approx(
            1.0 if u == ("x", "y") else 0.0, abs=1e-12
        )


def test_la_sum_with_zero():
    l = geometric(0.5)
    summed = la_sum(l, la_zero(("x",)))
    for u in enumerate_words(("x",), 4):
        assert la_reaction(summed, u) == pytest.approx(la_reaction(l, u), abs=1e-12)


def test_la_product_of_geometrics():
    prod = la_product(geometric(0.5), geometric(1.0 / 3.0))
    for k in range(5):
        assert la_reaction(prod, ("x",) * k) == pytest.approx(6.0**-k, abs=1e-12)


def test_la_iterate_indicator():
    it = la_iterate(la_chi_symbol(("x",), "x"))
    assert la_reaction(it, ()) == pytest.approx(0.0, abs=1e-12)
    for k in range(1, 5):
        assert la_reaction(it, ("x",) * k) == pytest.approx(1.0, abs=1e-12)


def test_la_iterate_requires_zero_at_eps():
    with pytest.raises(ValueError):
        la_iterate(geometric(0.5))


def test_la_reverse_involution():
    rng = np.random.default_rng(2)
    l = random_la(rng, 3, 2)
    back = la_reverse(la_reverse(l))
    for u in enumerate_words(l.inputs, 3):
        assert la_reaction(back, u) == pytest.approx(la_reaction(l, u), abs=1e-12)


def test_la_scale():
    l = geometric(0.5)
    scaled = la_scale(3.0, l)
    for u in enumerate_words(("x",), 4):
        assert la_reaction(scaled, u) == pytest.approx(3.0 * la_reaction(l, u), abs=1e-12)


def _zero_eps(l: LinearAutomaton) -> LinearAutomaton:
    """Project the output column so the reaction vanishes on the empty word."""
    xi = l.initial
    denom = float(xi @ xi)
    lam = l.lam if denom == 0.0 else l.lam - (float(xi @ l.lam) / denom) * xi
    return LinearAutomaton(l.inputs, dict(l.trans), l.initial, lam)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_homomorphism_suite(seed):
    rng = np.random.default_rng(seed)
    dim1, dim2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    l1 = random_la(rng, dim1, 2)
    l2 = random_la(rng, dim2, 2)
    words = enumerate_words(l1.inputs, 4)
    f1 = {u: la_reaction(l1, u) for u in words}
    f2 = {u: la_reaction(l2, u) for u in words}
    summed = la_sum(l1, l2)
    prod = la_product(l1, l2)
    conv = la_convolution(l1, l2)
    conv_oracle = table_convolve(f1, f2, words)
    scaled = la_scale(-1.7, l1)
    rev = la_reverse(l1)
    l0 = _zero_eps(l1)
    f0 = {u: la_reaction(l0, u) for u in words}
    iterated = la_iterate(l0)
    iter_oracle = conv_power_sum({u: v for u, v in f0.items()}, words, 4)
    for u in words:
        assert la_reaction(summed, u) == pytest.approx(f1[u] + f2[u], abs=1e-9)
        assert la_reaction(prod, u) == pytest.approx(f1[u] * f2[u], abs=1e-9)
        assert la_reaction(conv, u) == pytest.approx(conv_oracle[u], abs=1e-9)
        assert la_reaction(scaled, u) == pytest.approx(-1.7 * f1[u], abs=1e-9)
        assert la_reaction(rev, u) == pytest.approx(f1[tuple(reversed(u))], abs=1e-9)
        assert la_reaction(iterated, u) == pytest.approx(iter_oracle[u], abs=1e-9)


# --- the table ring -------------------------------------------------------------


def test_inverse_of_eps_minus_chi():
    alphabet = ("x",)
    f = chi_eps(alphabet, 5).sub(chi_word(alphabet, ("x",), 5))
    g = f.inverse()
    # unrolled by hand: g(eps) = 1, g(x) = 1, g(xx) = 1, g(xxx) = 1
    for k in range(6):
        assert g.value(("x",) * k) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inverse_roundtrip(seed):
    rng = np.random.default_rng(seed)
    alphabet = ("x", "y")
    values = {u: float(rng.uniform(-1, 1)) for u in enumerate_words(alphabet, 4)}
    values[()] = float(rng.uniform(0.5, 2.0)) * (1 if rng.random() < 0.5 else -1)
    f = StringFunctionTable(alphabet, 4, values)
    g = f.inverse()
    product = f.convolve(g)
    oracle = table_convolve(dict(values), dict(g.values), enumerate_words(alphabet, 4))
    for u in enumerate_words(alphabet, 4):
        expected = 1.0 if u == () else 0.0
        assert product.value(u) == pytest.approx(expected, abs=1e-9)
        assert product.value(u) == pytest.approx(oracle[u], abs=1e-9)


def test_iteration_of_indicator():
    alphabet = ("x", "y")
    f = chi_word(alphabet, ("x",), 4)
    it = f.iterate()
    oracle = conv_power_sum(dict(f.values), enumerate_words(alphabet, 4), 4)
    for u in enumerate_words(alphabet, 4):
        assert it.value(u) == pytest.approx(oracle[u], abs=1e-12)
        expected = 1.0 if u and all(s == "x" for s in u) else 0.0
        assert it.value(u) == pytest.approx(expected, abs=1e-12)


def test_inverse_requires_nonzero_eps():
    with pytest.raises(ZeroDivisionError):
        chi_word(("x",), ("x",), 3).inverse()
    with pytest.raises(ZeroDivisionError):
        chi_eps(("x",), 3).iterate()  # f(eps) = 1 has no iteration


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_axioms(seed):
    # convolution is associative and chi_eps is its unit
    rng = np.random.default_rng(seed)
    alphabet = ("x", "y")
    words = enumerate_words(alphabet, 3)

    def sample():
        return StringFunctionTable(
            alphabet, 3, {u: float(rng.uniform(-1, 1)) for u in words}
        )

    f, g, h = sample(), sample(), sample()
    left = f.convolve(g).convolve(h)
    right = f.convolve(g.convolve(h))
    unit = chi_eps(alphabet, 3)
    for u in words:
        assert left.value(u) == pytest.approx(right.value(u), abs=1e-12)
        assert f.convolve(unit).value(u) == pytest.approx(f.value(u), abs=1e-12)
        assert unit.convolve(f).value(u) == pytest.approx(f.value(u), abs=1e-12)


# --- Hankel realization -----------------------------------------------------------


def test_hankel_block_shapes_and_values():
    geo = la_table(geometric(0.5), 6)
    block = hankel_block(geo, 2, 2)
    # rank-1: every entry is 2^-(|u|+|v|)
    assert np.linalg.matrix_rank(block) == 1
    eps_table = chi_eps(("x",), 4)
    block = hankel_block(eps_table, 2, 2)
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    assert np.array_equal(block, expected)


def test_hankel_block_from_oracle():
    # a word -> value oracle works in place of a table
    block = hankel_block(lambda u: 0.5 ** len(u), 2, 2, alphabet=("x",))
    table_block = hankel_block(la_table(geometric(0.5), 6), 2, 2)
    assert np.allclose(block, table_block)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_hankel_block_rank_bounded_by_dim(seed, dim):
    rng = np.random.default_rng(seed)
    l = random_la(rng, dim, 2)
    block = hankel_block(la_table(l, 6), 3, 3)
    assert np.linalg.matrix_rank(block, tol=1e-8) <= dim


def test_hankel_basis_geometric():
    basis = hankel_basis(la_table(geometric(0.5), 4), rank_bound=2)
    assert basis.row_tags == ((),)
    assert basis.col_tags == ((),)
    assert np.allclose(basis.core, [[1.0]])


def test_hankel_basis_chi_symbol():
    table = la_table(la_chi_symbol(("x",), "x"), 4)
    basis = hankel_basis(table, rank_bound=3)
    assert basis.rank == 2
    assert basis.row_tags == ((), ("x",))
    assert abs(np.linalg.det(basis.core)) > 1e-9


def test_hankel_rank_of_a_table_scaled_by_2_to_the_minus_30_is_unchanged():
    # every row of this block is shorter than 1, where an absolute floor once lost them all;
    # the rank test now divides the block by its max-abs entry first
    table = la_table(random_la(np.random.default_rng(0), 3, 2), 8)
    scaled = table.scale(2.0**-30)
    assert e_f_dimension(scaled) == e_f_dimension(table) == 3
    assert hankel_basis(scaled, rank_bound=8).rank == hankel_basis(table, rank_bound=8).rank
    assert realize(scaled).dim == realize(table).dim == 3


@pytest.mark.parametrize("table, bound, message", [
    (la_table(geometric(0.5), 4), 0, "rank bound must be >= 1"),
    (StringFunctionTable(("x",), 4, {("x",) * 4: 1.0}), 2,
     "Hankel block over the tags of length <= 1 is zero"),
    (la_table(random_la(np.random.default_rng(0), 3, 2), 5), 2,
     "Hankel rank 3 exceeds the stated bound 2"),
    (la_table(random_la(np.random.default_rng(0), 3, 2), 3), 3,
     "table too shallow for the per-letter shift matrices"),
], ids=["bound-0", "zero-block", "rank-over-bound", "too-shallow"])
def test_hankel_basis_rejections(table, bound, message):
    with pytest.raises(ValueError, match=message):
        hankel_basis(table, bound)


def test_realize_geometric():
    l = realize(la_table(geometric(0.5), 6))
    assert l.dim == 1
    assert np.allclose(l.initial, [1.0])
    assert np.allclose(l.trans["x"], [[0.5]])
    assert np.allclose(l.lam, [1.0])


def test_realize_cantor():
    table = la_table(cantor_as_la(), 6)
    l = realize(table, rank_bound=3)
    assert l.dim == 2
    for u in enumerate_words(("0", "2"), 6):
        assert la_reaction(l, u) == pytest.approx(table.value(u), abs=1e-9)


def test_hankel_factorization_identity():
    table = la_table(cantor_as_la(), 6)
    basis = hankel_basis(table, rank_bound=3)
    core_inv = np.linalg.inv(basis.core)

    def letter_word(word):
        out = basis.core
        for x in word:
            out = out @ core_inv @ basis.letters[x]
        return out  # equals (U,V)^{f,word} by the factorization identity

    for u, v in [(("0",), ("2",)), (("2",), ("2",)), (("0", "2"), ("0",))]:
        direct = np.array(
            [
                [table.value(r + u + v + c) for c in basis.col_tags]
                for r in basis.row_tags
            ]
        )
        via_split = (
            letter_word(u) @ core_inv @ letter_word(v)
        )
        assert np.allclose(direct, via_split, atol=1e-9)


def test_e_f_dimension():
    assert e_f_dimension(la_table(la_chi_symbol(("x",), "x"), 4)) == 2
    zero = StringFunctionTable(("x",), 4, {})
    assert e_f_dimension(zero) == 0
    assert realize(zero).dim == 1  # convention: zero realizes as dim-1 zero LA
    table = la_table(cantor_as_la(), 6)
    assert realize(table, rank_bound=3).dim == e_f_dimension(table)


def test_degrees():
    nilpotent = LinearAutomaton(
        ("x",), {"x": np.array([[0.0, 1.0], [0.0, 0.0]])},
        np.array([1.0, 0.0]), np.array([1.0, 1.0])
    )
    assert reach_degree(nilpotent) == 1
    assert reach_degree(geometric(0.5)) == 0
    rng = np.random.default_rng(9)
    for _ in range(10):
        l = random_la(rng, int(rng.integers(1, 5)), 2)
        assert reach_degree(l) <= l.dim - 1 or l.dim == 1
        assert disting_degree(l) <= l.dim - 1 or l.dim == 1


# --- rational expressions ----------------------------------------------------------


def test_rational_expr_geometric():
    l = geometric(0.5)
    expr = la_to_rational_expr(l)
    table = eval_expr(expr, ("x",), 4)
    for u in enumerate_words(("x",), 4):
        assert table.value(u) == pytest.approx(la_reaction(l, u), abs=1e-9)


def test_rational_expr_chi_symbol():
    l = la_chi_symbol(("x", "y"), "x")
    expr = la_to_rational_expr(l)
    table = eval_expr(expr, ("x", "y"), 4)
    for u in enumerate_words(("x", "y"), 4):
        assert table.value(u) == pytest.approx(la_reaction(l, u), abs=1e-9)


def test_rational_expr_zero():
    expr = la_to_rational_expr(la_zero(("x",), 2))
    assert to_sexpr(expr) == "(scale 0 chi-eps)"
    table = eval_expr(expr, ("x",), 3)
    for u in enumerate_words(("x",), 3):
        assert table.value(u) == 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rational_expr_random(seed):
    rng = np.random.default_rng(seed)
    l = random_la(rng, int(rng.integers(1, 4)), 2)
    expr = la_to_rational_expr(l)
    table = eval_expr(expr, l.inputs, 4)
    for u in enumerate_words(l.inputs, 4):
        assert table.value(u) == pytest.approx(la_reaction(l, u), abs=1e-9)


def test_eval_expr_sum_node():
    from probautomata.linauto import Expr

    table = eval_expr(Expr("+", (Expr("chi-eps"), Expr("chi", ("x",)))), ("x",), 3)
    assert table.value(()) == 1.0
    assert table.value(("x",)) == 1.0
    assert table.value(("x", "x")) == 0.0


TWO_STATE_DYADIC = LinearAutomaton(
    ("x", "y"),
    {"x": np.array([[0.5, 1.0], [0.0, 0.0]]), "y": np.array([[0.0, 0.0], [-0.25, 0.25]])},
    np.array([1.0, 0.0]),
    np.array([0.0, 1.0]),
)


@pytest.mark.parametrize("l, sexpr", [
    (la_chi_symbol(("x", "y"), "x"), "(chi x)"),
    (geometric(0.5), "(+ chi-eps (iter+ (scale 0.5 (chi x))))"),
    (TWO_STATE_DYADIC,
     "(conv (+ chi-eps (iter+ (+ (scale 0.5 (chi x)) (conv (chi x) (+ chi-eps (iter+ "
     "(scale 0.25 (chi y)))) (scale -0.25 (chi y)))))) (chi x) (+ chi-eps (iter+ "
     "(scale 0.25 (chi y)))))"),
], ids=["chi-symbol", "geometric", "two-state"])
def test_rational_expr_strings(l, sexpr):
    expr = la_to_rational_expr(l)
    assert to_sexpr(expr) == sexpr
    # dyadic weights: every value is exact, in the expression as in the automaton
    assert eval_expr(expr, l.inputs, 4).values.array.tolist() == la_table(l, 4).values.array.tolist()


def test_eval_expr_refuses_iterating_a_nan_at_eps():
    from probautomata.linauto import CHI_EPS, Expr

    with pytest.raises(ValueError, match="iteration"):
        eval_expr(Expr("iter+", (Expr("scale", (float("nan"), CHI_EPS)),)), ("x",), 2)


def test_eval_expr_evaluates_each_shared_node_once():
    # elimination reuses nodes, so the tree under the root of a 7-state
    # expression is thousands of times larger than its DAG
    l = random_la(np.random.default_rng(0), 7, 2)
    expr = la_to_rational_expr(l)
    start = time.perf_counter()
    table = eval_expr(expr, l.inputs, 4)
    assert time.perf_counter() - start < 1.0
    for u in enumerate_words(l.inputs, 4):
        assert table.value(u) == pytest.approx(la_reaction(l, u), abs=1e-9)


# --- embeddings -------------------------------------------------------------------


def test_la_to_pa_affine_zero():
    pa, scale = la_to_pa_affine(la_zero(("x",), 2))
    pa.validate()
    assert pa.n_states == 4
    for u in enumerate_words(("x",), 4):
        assert avg_reaction(pa, u) == pytest.approx(0.25, abs=1e-12)
    assert scale > 0


def test_la_to_pa_affine_chi_symbol_golden():
    l = la_chi_symbol(("x",), "x")
    pa, a = la_to_pa_affine(l)
    pa.validate()
    assert pa.n_states == 4
    assert a == pytest.approx(1.0 / 8.0)
    assert avg_reaction(pa, ()) == pytest.approx(0.25, abs=1e-12)
    assert avg_reaction(pa, ("x",)) == pytest.approx(a**2 + 0.25, abs=1e-12)
    assert np.all(pa.initial > 0)
    for x in pa.inputs:
        assert np.all(pa.matrix(x) > 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_la_to_pa_affine_identity_random(seed):
    rng = np.random.default_rng(seed)
    l = random_la(rng, int(rng.integers(1, 4)), 2)
    pa, a = la_to_pa_affine(l)
    pa.validate()
    n = l.dim
    for u in enumerate_words(l.inputs, 4):
        expected = a ** (len(u) + 1) * la_reaction(l, u) + 1.0 / (n + 2)
        assert avg_reaction(pa, u) == pytest.approx(expected, abs=1e-9)


def test_la_language_pa_geometric():
    l = geometric(0.5)
    pa, cut = la_language_pa(l, 0.3)
    pa.validate()
    assert pa.n_states == 5
    assert cut == pytest.approx(0.2)
    members = {u for u in enumerate_words(("x",), 4) if member(pa, cut, u)}
    assert members == {(), ("x",)}


def test_la_language_pa_extremes():
    l = geometric(0.5)
    pa, cut = la_language_pa(l, 0.01)  # below the minimum on the test set
    assert all(member(pa, cut, u) for u in enumerate_words(("x",), 4))
    pa, cut = la_language_pa(l, 1.5)  # at or above the maximum
    assert not any(member(pa, cut, u) for u in enumerate_words(("x",), 4))


def test_la_language_pa_of_the_zero_function():
    # f_L - a is identically 0 at a = 0 (an output column with nothing to normalise)
    l = la_zero(("x", "y"), 2)
    pa, cut = la_language_pa(l, 0.0)
    assert pa.n_states == 6 and cut == pytest.approx(1.0 / 6.0)
    assert not any(member(pa, cut, u) for u in enumerate_words(l.inputs, 3))
    pa, cut = la_language_pa(l, -1.0)
    assert all(member(pa, cut, u) for u in enumerate_words(l.inputs, 3))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_la_language_pa_membership_random(seed):
    rng = np.random.default_rng(seed)
    l = random_la(rng, int(rng.integers(1, 4)), 2)
    words = enumerate_words(l.inputs, 4)
    values = sorted(la_reaction(l, u) for u in words)
    # pick a cut point away from every reaction value
    gaps = [(values[i + 1] - values[i], i) for i in range(len(values) - 1)]
    width, i = max(gaps)
    a = (values[i] + values[i + 1]) / 2.0 if width > 1e-6 else values[-1] + 1.0
    pa, cut = la_language_pa(l, a)
    pa.validate()
    assert pa.n_states == l.dim + 4
    for u in words:
        assert member(pa, cut, u) == (la_reaction(l, u) > a)


def test_laf_from_level_dfas():
    everything = Dfa(("0", "2"), 1, 0, {"0": (0,), "2": (0,)}, frozenset({0}))
    l = laf_from_level_dfas([(1.0, everything)], check_depth=3)
    for u in enumerate_words(("0", "2"), 3):
        assert la_reaction(l, u) == pytest.approx(1.0)

    ends2 = Dfa(("0", "2"), 2, 0, {"0": (0, 0), "2": (1, 1)}, frozenset({1}))
    rest = Dfa(("0", "2"), 2, 0, {"0": (0, 0), "2": (1, 1)}, frozenset({0}))
    l = laf_from_level_dfas([(1.0, ends2), (0.0, rest)], check_depth=4)
    for u in enumerate_words(("0", "2"), 4):
        assert la_reaction(l, u) == pytest.approx(1.0 if ends2.accepts(u) else 0.0)

    with pytest.raises(ValueError):
        laf_from_level_dfas([(1.0, ends2), (0.5, ends2)], check_depth=3)


def test_la_equivalent():
    l = geometric(0.5)
    doubled = la_sum(la_scale(0.5, l), la_scale(0.5, l))
    assert la_equivalent(l, doubled)
    assert not la_equivalent(l, geometric(0.4))


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6])
def test_la_equivalent_is_scale_free(c):
    # the Krylov span starts from lam / max|lam|, and each column c is tested against the
    # absolute product (|xi1| + |xi2|) . |c|, so both sides of the test scale with c
    for seed in range(20):
        l = random_la(np.random.default_rng(seed), 4, 2)
        assert not la_equivalent(la_scale(c, l), la_scale(2.0 * c, l))
        assert la_equivalent(la_scale(c, l), la_scale(c, l))
