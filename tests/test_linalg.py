import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probautomata import linalg
from probautomata.linalg import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    Subspace,
    bool_mul,
    bool_pattern,
    convex_combination_certificate,
    is_convex_certificate,
    is_primitive,
    lp_solve,
    norm_abs,
    norm_spread,
)

from gen import random_positive_stochastic, random_stochastic
from oracles import (
    bfs_lp_optimum,
    brute_nnls_residual,
    grid_convex_certificate,
    loop_lp_solve,
    loop_subspace_accepts,
)


def test_norm_abs():
    assert norm_abs([0.0, 0.0, 0.0]) == 0.0
    assert norm_abs([0.2, -0.8]) == 0.8
    assert norm_abs([[1.0, -2.0], [0.5, 0.0]]) == 2.0
    with pytest.raises(ValueError):
        norm_abs([])


def test_norm_spread():
    assert norm_spread([0.7, 0.7, 0.7]) == 0.0
    assert norm_spread([0.2, 0.8]) == pytest.approx(0.6)
    assert norm_spread(np.eye(2)) == 1.0


def test_bool_pattern_basics():
    assert np.array_equal(bool_pattern([[0.5, 0], [0, 0.5]]), np.eye(2, dtype=bool))
    p = np.array([[True, False], [True, True]])
    assert np.array_equal(bool_mul(np.eye(2, dtype=bool), p), p)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_bool_pattern_multiplicative_on_stochastic(seed, n):
    # nonnegative entries cannot cancel, so the pattern of a product is the
    # boolean product of the patterns
    rng = np.random.default_rng(seed)
    a = random_stochastic(rng, n, sparsity=0.6)
    b = random_stochastic(rng, n, sparsity=0.6)
    assert np.array_equal(bool_pattern(a @ b), bool_mul(bool_pattern(a), bool_pattern(b)))


def test_is_primitive():
    assert is_primitive(np.array([[0, 1], [1, 1]], dtype=bool))
    assert not is_primitive(np.eye(2, dtype=bool))
    assert is_primitive(np.ones((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        is_primitive(np.ones((2, 3), dtype=bool))


def test_subspace_growth():
    s = Subspace(2)
    assert s.try_add([1.0, 0.0])
    assert not s.try_add([2.0, 0.0])
    assert s.try_add([1.0, 1.0])
    assert not s.try_add([0.3, -0.7])  # full space now
    assert s.dim == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 20))
def test_subspace_never_exceeds_ambient(seed, n, attempts):
    rng = np.random.default_rng(seed)
    s = Subspace(n)
    for _ in range(attempts):
        s.try_add(rng.normal(size=n))
    assert s.dim <= n


def test_subspace_grows_past_its_first_block():
    rng = np.random.default_rng(4)
    s = Subspace(20)
    first = None
    for i in range(25):
        s.try_add(rng.normal(size=20))
        if i == 2:
            first = s.basis.copy(), s.basis
    assert s.dim == 20
    assert s.basis @ s.basis.T == pytest.approx(np.eye(20), abs=1e-12)
    # accepted rows never change, and views taken earlier stay valid
    assert np.array_equal(s.basis[:3], first[0])
    assert np.array_equal(first[1], first[0])
    assert s.contains(rng.normal(size=20))
    with pytest.raises(ValueError):
        s.basis[0, 0] = 1.0  # read-only view


def test_subspace_contains_only_the_span():
    s = Subspace(4)
    assert s.try_add([1.0, 1.0, 0.0, 0.0])
    assert s.try_add([0.0, 1.0, 1.0, 0.0])
    assert s.contains([1.0, 2.0, 1.0, 0.0])
    assert not s.contains([0.0, 0.0, 0.0, 1.0])
    assert s.basis.shape == (2, 4)


def test_lp_simple_optimum():
    # min y  s.t.  x + y = 1
    sol = lp_solve(LpProblem(c=[0.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.x == pytest.approx([1.0, 0.0])


def test_lp_infeasible():
    sol = lp_solve(LpProblem(c=[0.0], a_eq=[[1.0]], b_eq=[-1.0]))
    assert sol.status == INFEASIBLE


def test_lp_unbounded():
    # min -x1  s.t.  x1 - x2 = 0
    sol = lp_solve(LpProblem(c=[-1.0, 0.0], a_eq=[[1.0, -1.0]], b_eq=[0.0]))
    assert sol.status == UNBOUNDED


def test_lp_beale_cycling_example_terminates():
    # Beale (1955): the textbook largest-coefficient rule cycles on this
    # degenerate LP; Bland's rule must reach the optimum -5/4 at
    # x4 = x6 = 1, x1 = 3/4
    c = [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0]
    a_eq = [[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]]
    b_eq = [0.0, 0.0, 1.0]
    sol = lp_solve(LpProblem(c, a_eq, b_eq))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-1.25, abs=1e-12)
    assert sol.x == pytest.approx([0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], abs=1e-12)
    assert bfs_lp_optimum(c, a_eq, b_eq) == pytest.approx(-1.25, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 2), st.booleans())
def test_lp_matches_basic_solution_enumeration(seed, m, extra, integral):
    # feasible (b = A.x0 with x0 >= 0) and bounded (the last row fixes
    # sum(x)) LPs; small integer entries make degenerate ties, dependent
    # rows and singular column subsets common
    rng = np.random.default_rng(seed)
    n = min(m + extra + 1, 6)
    if integral:
        a = rng.integers(-2, 3, (m, n)).astype(float)
        x0 = rng.integers(0, 3, n).astype(float)
        c = rng.integers(-3, 4, n).astype(float)
    else:
        a = rng.normal(size=(m, n))
        x0 = rng.random(n) * (rng.random(n) < 0.7)
        c = rng.normal(size=n)
    a[-1] = 1.0
    x0[0] += 1.0  # sum(x) > 0
    b = a @ x0
    sol = lp_solve(LpProblem(c, a, b))
    expected = bfs_lp_optimum(c, a, b)
    assert expected is not None
    assert sol.status == OPTIMAL
    scale = max(1.0, float(np.abs(c).max()) * float(x0.sum()))
    assert sol.objective == pytest.approx(expected, abs=1e-8 * scale)
    assert sol.x.min() >= -1e-9  # feasible to the LP tolerance
    assert a @ sol.x == pytest.approx(b, abs=1e-8 * max(1.0, float(np.abs(b).max())))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
def test_lp_matches_the_row_loop_reference(seed, m, n):
    # arbitrary signs and small integers: infeasible, unbounded and
    # degenerate problems as well as optimal ones
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, (m, n)).astype(float)
    b = rng.integers(-2, 3, m).astype(float)
    c = rng.integers(-2, 3, n).astype(float)
    sol = lp_solve(LpProblem(c, a, b))
    status, x = loop_lp_solve(c, a, b)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.x == pytest.approx(x, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_subspace_matches_the_gram_schmidt_loop_reference(seed, n):
    # random vectors, exact combinations of earlier ones and nearly
    # dependent ones, so that both verdicts occur
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(2 * n):
        kind = rng.integers(3)
        if kind == 0 or not vectors:
            vectors.append(rng.normal(size=n) * 10.0 ** rng.integers(-3, 3))
        else:
            mix = rng.normal(size=len(vectors)) @ np.array(vectors)
            noise = (kind == 2) * 1e-6 * np.linalg.norm(mix) * rng.normal(size=n)
            vectors.append(mix + noise)
    s = Subspace(n)
    verdicts = [s.try_add(v) for v in vectors]
    assert verdicts == loop_subspace_accepts(vectors)
    # the directions of nearly dependent vectors are ill-conditioned, so
    # the bases are compared by what they must be: orthonormal, spanning
    # every vector tried
    q = s.basis
    assert q @ q.T == pytest.approx(np.eye(s.dim), abs=1e-12)
    for v in vectors:
        assert np.linalg.norm(v - (q @ v) @ q) <= 1e-9 * max(1.0, np.linalg.norm(v))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_nnls_matches_subset_enumeration(seed, rows, cols):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    b = rng.normal(size=rows)
    best = brute_nnls_residual(a, b)
    for start in (np.zeros(cols), rng.random(cols) * (rng.random(cols) < 0.5)):
        x = linalg._nnls(a, b, start)
        assert x.min() >= 0.0
        assert np.linalg.norm(a @ x - b) == pytest.approx(best, abs=1e-9)


def test_nnls_rejects_round_off_candidates(lstsq_calls):
    # consistent rank-deficient systems: once the fit is exact, the duals
    # are round-off, and a walk that re-adds a candidate whose coefficient
    # comes out <= 0 cycles to its iteration cap (3n fits and more)
    n, r = 12, 9
    for seed in range(200):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(r + 1, r)) @ rng.normal(size=(r, n))
        b = a @ rng.random(n)
        # b lies in the cone of the columns, so the optimum residual is 0;
        # the subset enumeration confirms it on the first systems
        best = brute_nnls_residual(a, b) if seed < 10 else 0.0
        starts = (np.zeros(n), rng.random(n) * (rng.random(n) < 0.5),
                  np.linalg.lstsq(a, b, rcond=None)[0])
        for start in starts:
            lstsq_calls.clear()
            x = linalg._nnls(a, b, start)
            assert len(lstsq_calls) <= 2 * n
            assert x.min() >= 0.0
            assert np.linalg.norm(a @ x - b) == pytest.approx(best, abs=1e-9)


def test_a_positive_min_norm_start_is_the_fit(lstsq_calls):
    # a strict mixture of independent rows: the minimum-norm least-squares
    # solution is the positive mixture and the first passive fit would
    # re-solve the same system
    rng = np.random.default_rng(7)
    w = rng.random((4, 9))
    mixture = np.array([0.1, 0.2, 0.3, 0.4])
    rows = np.vstack([w[:2], mixture @ w, w[2:]])
    coeffs = convex_combination_certificate(rows, 2)
    assert len(lstsq_calls) == 1
    assert coeffs == pytest.approx(mixture, abs=1e-12)
    magnitude = norm_abs(rows)
    a, b = np.vstack([w.T, np.full(4, magnitude)]), np.append(rows[2], magnitude)
    assert np.array_equal(coeffs, linalg._nnls(a, b, np.linalg.lstsq(a, b, rcond=None)[0]))


def test_lp_three_row_convex_instance():
    # averaged-basis rows of the three-state identity-transition automaton
    # with outputs (0, 1, 0.5): the third row is the midpoint of the others
    rows = np.array([[0.0], [1.0], [0.5]])
    # variables (x1, x2, y1): x1*0 + x2*1 + y1 = 0.5 and x1 + x2 + y1 = 1
    sol = lp_solve(LpProblem(c=[0.0, 0.0, 1.0],
                             a_eq=[[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
                             b_eq=[0.5, 1.0]))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    # grid oracle agrees that the optimum is 0
    oracle = grid_convex_certificate(rows, 2)
    assert oracle is not None
    assert oracle[1] == pytest.approx(0.0, abs=1e-9)


def test_convex_certificate_matches_grid_oracle():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    cert = convex_combination_certificate(rows, 2)
    assert cert is not None
    assert cert == pytest.approx([0.5, 0.5], abs=1e-8)
    oracle = grid_convex_certificate(rows, 2)
    assert oracle is not None
    assert oracle[0] == pytest.approx(cert, abs=2e-3)
    # simplex vertices are not combinations of each other
    assert convex_combination_certificate(np.eye(3), 0) is None
    assert grid_convex_certificate(np.eye(3), 0, slack=1e-3) is None
    # the certificate reproduces the row
    assert np.max(np.abs(rows[2] - cert @ rows[:2])) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_stochastic_product_stochastic(seed, n):
    rng = np.random.default_rng(seed)
    a = random_stochastic(rng, n)
    b = random_stochastic(rng, n)
    assert linalg.is_stochastic(a @ b)
    assert np.max(np.abs((a @ b).sum(axis=1) - 1.0)) <= 2e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_spread_contraction_by_positive_stochastic(seed, n):
    rng = np.random.default_rng(seed)
    a = random_positive_stochastic(rng, n)
    lam = rng.uniform(-2.0, 2.0, n)
    c = float(a.min())
    assert norm_spread(a @ lam) <= (1.0 - 2.0 * c) * norm_spread(lam) + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_stochastic_perturbation_bounds(seed, n):
    rng = np.random.default_rng(seed)
    a = random_stochastic(rng, n)
    p = random_stochastic(rng, n)
    q = random_stochastic(rng, n)
    b = rng.uniform(-2.0, 2.0, (n, n))
    assert norm_abs(a @ b - b) <= norm_spread(b) + 1e-12
    assert norm_abs(p @ b - q @ b) <= norm_spread(b) + 1e-12


@pytest.mark.parametrize("coeffs, ok", [
    ([0.5, 0.5], True),
    ([1.0, 0.0], False),                # sums to 1 but gives another row
    ([-1.0, 2.0], False),               # affine: reproduces the row, not convex
    ([0.5, 0.5 + 1e-7], False),         # 1e-7 off the mixture
    ([float("nan"), 0.5], False),
], ids=["convex", "wrong-row", "affine", "sum", "nan"])
def test_is_convex_certificate(coeffs, ok):
    rows = np.array([[0.0, 1.0], [1.0, 3.0], [0.5, 2.0]])
    assert is_convex_certificate(rows, 2, np.array(coeffs)) is ok
