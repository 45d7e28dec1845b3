"""Independent brute-force oracles the implementation is checked against.

These deliberately avoid the library's own algorithms: table convolutions by
direct summation over factorizations, convex-combination detection by grid
search over the simplex, iteration by summing convolution powers.  The
exceptions are earlier versions of the library's own code, kept as the
references their replacements must decide like: `lp_convex_certificate`,
the simplex certificate before the prune-then-NNLS one, and `full_span` and
`full_basis_distributions_equivalent`, the Krylov span that tried every
letter until a level added nothing and the equivalence that built the whole
basis before comparing, and `generator_words_upto`, the shortlex word
generator that yielded one word per resumption.
"""
from __future__ import annotations

import itertools

import numpy as np

from probautomata import Tolerances, kernel, linalg


def grid_convex_certificate(rows: np.ndarray, s: int, step: float = 1e-3,
                            slack: float = 5e-3):
    """Grid search over the simplex for coefficients reproducing rows[s].

    Supports up to three remaining rows (all that the tests need); returns
    the best grid point if its residual is within slack, else None.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    others = [i for i in range(rows.shape[0]) if i != s]
    w = rows[others]
    target = rows[s]
    m = len(others)
    best = None
    best_res = np.inf
    if m == 1:
        coeffs_iter = [np.array([1.0])]
    elif m == 2:
        ts = np.arange(0.0, 1.0 + step / 2, step)
        coeffs_iter = (np.array([t, 1.0 - t]) for t in ts)
    elif m == 3:
        ts = np.arange(0.0, 1.0 + step / 2, step)
        coeffs_iter = (
            np.array([t1, t2, 1.0 - t1 - t2])
            for t1, t2 in itertools.product(ts, ts)
            if t1 + t2 <= 1.0 + step / 2
        )
    else:
        raise ValueError("grid oracle only handles up to three remaining rows")
    for coeffs in coeffs_iter:
        res = float(np.max(np.abs(target - coeffs @ w)))
        if res < best_res:
            best_res = res
            best = coeffs
    if best_res <= slack * max(1.0, float(np.max(np.abs(rows)))):
        return best, best_res
    return None


def lp_convex_certificate(rows: np.ndarray, s: int, tol: Tolerances = Tolerances()):
    """Coefficients writing rows[s] as a convex combination of the others, by LP.

    The slack LP over (x over the other rows, y over the columns):
    x.W + y = rows[s], sum(x) + sum(y) = 1, min sum(y).  Accepts iff the
    optimum is <= tol.rel and the coefficients (the LP's, or else the
    nonnegative least-squares fit of [W^T; 1] x = [rows[s]; 1] started from
    them) sum to 1 and reproduce rows[s] to 10 tol.rel relative to the rows.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n, k = rows.shape
    if n < 2:
        return None
    w = np.delete(rows, s, axis=0)
    m, target = n - 1, rows[s]
    a_eq = np.ones((k + 1, m + k))
    a_eq[:k, :m] = w.T
    a_eq[:k, m:] = np.eye(k)
    c = np.concatenate([np.zeros(m), np.ones(k)])
    sol = linalg.lp_solve(linalg.LpProblem(c, a_eq, np.append(target, 1.0)), tol)
    if sol.status != linalg.OPTIMAL or sol.objective > tol.rel:
        return None
    scale = tol.rel * max(1.0, float(np.abs(rows).max())) * 10.0

    def reproduces(coeffs) -> bool:
        return (abs(coeffs.sum() - 1.0) <= tol.rel * 10.0
                and float(np.abs(target - coeffs @ w).max()) <= scale)

    coeffs = np.clip(sol.x[:m], 0.0, None)
    if reproduces(coeffs):
        return coeffs
    coeffs = linalg._nnls(np.vstack([w.T, np.ones(m)]), np.append(target, 1.0), coeffs)
    return coeffs if reproduces(coeffs) else None


def bfs_lp_optimum(c, a_eq, b_eq, tol: float = 1e-9):
    """min c.x over a_eq.x = b_eq, x >= 0, by enumerating basic feasible solutions.

    Drops linearly dependent rows first (the system must be consistent),
    then solves every nonsingular square column subset.  Only for bounded
    problems: the minimum over the vertices is then the optimum.  Returns
    None when no basic solution is feasible.
    """
    c, a, b = (np.asarray(v, dtype=float) for v in (c, a_eq, b_eq))
    rows = []
    for i in range(a.shape[0]):
        if np.linalg.matrix_rank(a[rows + [i]]) > len(rows):
            rows.append(i)
    a, b = a[rows], b[rows]
    best = None
    for cols in itertools.combinations(range(a.shape[1]), len(rows)):
        sub = a[:, cols]
        if np.linalg.matrix_rank(sub) < len(rows):
            continue
        x = np.zeros(a.shape[1])
        x[list(cols)] = np.linalg.solve(sub, b)
        if x.min() >= -tol:
            value = float(c @ x)
            best = value if best is None else min(best, value)
    return best


def brute_nnls_residual(a, b) -> float:
    """min |a.x - b| over x >= 0, by least squares on every column subset.

    The optimum is the unconstrained fit on its own support, so the best
    nonnegative subset fit is the optimum.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    best = float(np.linalg.norm(b))
    for size in range(1, a.shape[1] + 1):
        for cols in itertools.combinations(range(a.shape[1]), size):
            x = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if x.min() >= 0.0:
                best = min(best, float(np.linalg.norm(a[:, cols] @ x - b)))
    return best


def loop_subspace_accepts(vectors, rank_tol: float = 1e-9) -> list[bool]:
    """Reference rank test: modified Gram-Schmidt, one vector at a time.

    Returns each vector's verdict (did it extend the span) under the same
    threshold as `linalg.Subspace`.
    """
    basis, verdicts = [], []
    for v in vectors:
        v = np.asarray(v, dtype=float)
        r = v.copy()
        for _ in range(2):
            for b in basis:
                r -= (r @ b) * b
        nrm = float(np.linalg.norm(r))
        ok = len(basis) < v.size and nrm > rank_tol * max(1.0, float(np.linalg.norm(v)))
        if ok:
            basis.append(r / nrm)
        verdicts.append(ok)
    return verdicts


def full_span(start, letters, t: Tolerances) -> kernel.Span:
    """Krylov span that tries every letter on each level's new columns until a
    level adds none, also after the subspace is full."""
    sub = linalg.Subspace(len(start), t)
    scale = linalg.norm_abs(start)
    if scale == 0.0:
        return kernel.Span([], [], 0, sub.basis)
    sub.try_add(np.asarray(start, dtype=float) / scale)
    columns, tags = [np.array(start, dtype=float)], [()]
    last, levels = [0], 0
    while True:
        new = []
        for i in last:
            unit = sub.basis[i]
            for k, m in enumerate(letters):
                if sub.try_add(m @ unit):
                    new.append(len(columns))
                    columns.append(m @ columns[i])
                    tags.append((k,) + tags[i])
        if not new:
            return kernel.Span(columns, tags, levels, sub.basis)
        last = new
        levels += 1


def full_basis_distributions_equivalent(a, xi1, xi2, t: Tolerances) -> bool:
    """The per-column equivalence test on every column of the whole `full_span`
    basis of a's final column, over all states."""
    xi1, xi2 = np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float)
    d, size = xi1 - xi2, np.abs(xi1) + np.abs(xi2)
    return all(abs(d @ c) <= t.rel * 10.0 * (size @ np.abs(c))
               for c in full_span(a._final, a._letters, t).columns)


def full_basis_equivalent(a1, a2, t: Tolerances) -> bool:
    union = kernel.disjoint_union(a1, a2)
    xi2 = np.concatenate([np.zeros(a1.n_states), a2.initial])
    return full_basis_distributions_equivalent(union, union.initial, xi2, t)


def loop_lp_solve(c, a_eq, b_eq, tol: float = 1e-9):
    """Reference two-phase simplex with Bland's rule, one row at a time.

    Returns (status, x): status "optimal", "infeasible" or "unbounded".
    """
    def pivot_loop(tab, basis, n_cols):
        m = len(basis)
        while True:
            entering = next((j for j in range(n_cols) if tab[-1, j] < -tol), -1)
            if entering < 0:
                return "optimal"
            leaving, best = -1, np.inf
            for i in range(m):
                if tab[i, entering] > tol:
                    ratio = tab[i, -1] / tab[i, entering]
                    if ratio < best - tol or (
                        abs(ratio - best) <= tol and (leaving < 0 or basis[i] < basis[leaving])
                    ):
                        leaving, best = i, ratio
            if leaving < 0:
                return "unbounded"
            pivot_row(tab, leaving, entering)
            basis[leaving] = entering

    def pivot_row(tab, row, col):
        tab[row] /= tab[row, col]
        for i in range(tab.shape[0]):
            if i != row and tab[i, col] != 0.0:
                tab[i] -= tab[i, col] * tab[row]

    c, a, b = (np.array(v, dtype=float) for v in (c, a_eq, b_eq))
    m, n = a.shape
    a[b < 0] *= -1.0
    b = np.abs(b)
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n], tab[:m, n:n + m], tab[:m, -1] = a, np.eye(m), b
    tab[-1, :n], tab[-1, -1] = -a.sum(axis=0), -b.sum()
    basis = list(range(n, n + m))
    if pivot_loop(tab, basis, n + m) != "optimal" or -tab[-1, -1] > tol:
        return "infeasible", None
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if abs(tab[i, j]) > tol), -1)
            if col < 0:
                continue
            pivot_row(tab, i, col)
            basis[i] = col
        keep.append(i)
    tab2 = np.zeros((len(keep) + 1, n + 1))
    tab2[:-1, :n], tab2[:-1, -1] = tab[keep, :n], tab[keep, -1]
    basis2 = [basis[i] for i in keep]
    tab2[-1, :n] = c
    for i, bi in enumerate(basis2):
        tab2[-1] -= tab2[-1, bi] * tab2[i]
    if pivot_loop(tab2, basis2, n) == "unbounded":
        return "unbounded", None
    x = np.zeros(n)
    for i, bi in enumerate(basis2):
        x[bi] = tab2[i, -1]
    return "optimal", x


def table_convolve(f: dict, g: dict, words) -> dict:
    """Cauchy product by explicit summation over all factorizations."""
    out = {}
    for u in words:
        out[u] = sum(f.get(u[:k], 0.0) * g.get(u[k:], 0.0) for k in range(len(u) + 1))
    return out


def conv_power_sum(f: dict, words, depth: int) -> dict:
    """Sum of convolution powers f + f^2 + ... + f^depth (needs f(eps) = 0)."""
    assert abs(f.get((), 0.0)) <= 1e-12
    f = dict(f)
    f[()] = 0.0
    total = {u: 0.0 for u in words}
    power = dict(f)
    for _ in range(depth):
        for u in words:
            total[u] += power.get(u, 0.0)
        power = table_convolve(power, f, list(words))
    return total


def enumerate_words(alphabet, max_len: int):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [u + (x,) for u in frontier for x in alphabet]
        out.extend(frontier)
    return out


def generator_words_upto(alphabet, max_len: int):
    yield ()
    for length in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def loop_prefix_values(initial, letters, final, depth: int) -> np.ndarray:
    """initial . L^u . final for |u| <= depth in shortlex order, one Python float at a time.

    Entry m of the row of ux is a sum started at 0.0 of L^x[j, m] * row_u[j]
    for j = 0 .. n-1; Python floats never fuse a multiply with an add, so
    each step is exactly rounded.  Each level's values are `level_rows @ final`.
    """
    final = np.asarray(final, dtype=float)
    matrices = np.asarray(letters, dtype=float).tolist()
    level = [np.asarray(initial, dtype=float).tolist()]
    values = [np.array(level) @ final]
    for _ in range(depth):
        nxt = []
        for row in level:
            for matrix in matrices:
                out = []
                for m in range(len(row)):
                    acc = 0.0
                    for j, r in enumerate(row):
                        acc += matrix[j][m] * r
                    out.append(acc)
                nxt.append(out)
        level = nxt
        values.append(np.array(level) @ final)
    return np.concatenate(values)


def cantor_base3(u) -> float:
    """Reading u = x1..xk as the ternary fraction 0.xk...x1."""
    val = 0.0
    for i, digit in enumerate(reversed(tuple(u))):
        val += int(digit) * 3.0 ** (-(i + 1))
    return val


def moore_class_count(d) -> int:
    """Number of Nerode classes of a DFA's reachable states, by Moore refinement.

    Starts from the accepting/rejecting split and refines by the classes of
    the successors until the number of classes stops growing.
    """
    reach = {d.start}
    frontier = [d.start]
    while frontier:
        s = frontier.pop()
        for x in d.alphabet:
            t = d.trans[x][s]
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    cls = {s: s in d.accepting for s in reach}
    while True:
        sig = {s: (cls[s],) + tuple(cls[d.trans[x][s]] for x in d.alphabet) for s in reach}
        if len(set(sig.values())) == len(set(cls.values())):
            return len(set(cls.values()))
        cls = sig


def loop_extract_dfa(a, cutpoint: float, delta: float):
    """Raw `extract_dfa` as a list of representatives re-stacked for every successor row.

    Returns (state count, {letter: successor tuple}, accepting set).
    """
    n = a.n_states
    radius = 2.0 * delta / (n * n * max(1.0, float(np.max(np.abs(a.lam)))))
    reps = [np.array(a.initial)]
    successors = {}
    frontier = [0]
    while frontier:
        i = frontier.pop(0)
        for x in a.inputs:
            row = reps[i] @ a.matrix(x)
            near = np.flatnonzero(np.abs(np.array(reps) - row).max(axis=1) <= radius)
            if near.size:
                successors[(i, x)] = int(near[0])
            else:
                reps.append(row)
                successors[(i, x)] = len(reps) - 1
                frontier.append(len(reps) - 1)
    trans = {x: tuple(successors[(i, x)] for i in range(len(reps))) for x in a.inputs}
    accepting = {i for i, r in enumerate(reps) if float(r @ a.lam) > cutpoint}
    return len(reps), trans, accepting


# --- per-word table loops ------------------------------------------------------
# The dict-backed table operations the library used before its shortlex
# tables, kept as references.  A table is a dict from words (or from pairs
# (u, v) of words) to values; a missing word reads 0.0.

def loop_add(f: dict, g: dict, alphabet, depth: int) -> dict:
    return {u: f.get(u, 0.0) + g.get(u, 0.0) for u in enumerate_words(alphabet, depth)}


def loop_scale(f: dict, a: float) -> dict:
    return {u: a * v for u, v in f.items()}


def loop_inverse(f: dict, alphabet, depth: int) -> dict:
    """Convolution inverse by the triangular recurrence, one word at a time."""
    head = f.get((), 0.0)
    out = {(): 1.0 / head}
    for u in enumerate_words(alphabet, depth)[1:]:
        acc = sum(f.get(u[:j], 0.0) * out[u[j:]] for j in range(1, len(u) + 1))
        out[u] = -acc / head
    return out


def loop_iterate(f: dict, alphabet, depth: int) -> dict:
    """Kleene plus (chi_eps - f)^-1 - chi_eps."""
    chi = {(): 1.0}
    inv = loop_inverse(loop_add(chi, loop_scale(f, -1.0), alphabet, depth), alphabet, depth)
    return loop_add(inv, loop_scale(chi, -1.0), alphabet, depth)


def loop_residual(f: dict, u, v) -> dict:
    """Residual f(uu', vv') / f(u, v) of a pair table."""
    mass = f.get((tuple(u), tuple(v)), 0.0)
    return {
        (uu[len(u):], vv[len(v):]): val / mass
        for (uu, vv), val in f.items()
        if len(uu) >= len(u) and uu[:len(u)] == tuple(u) and vv[:len(v)] == tuple(v)
    }


def loop_rs_residual(zeta: dict, u) -> dict:
    mass = zeta.get(tuple(u), 0.0)
    return {w[len(u):]: val / mass for w, val in zeta.items() if w[:len(u)] == tuple(u)}


def loop_pair_from(zeta: dict, reaction: dict) -> dict:
    return {(u, v): zeta.get(u, 0.0) * val for (u, v), val in reaction.items()}


def loop_marginals(eta: dict) -> tuple[dict, dict]:
    left, right = {}, {}
    for (u, v), val in eta.items():
        left[u] = left.get(u, 0.0) + val
        right[v] = right.get(v, 0.0) + val
    return left, right


def loop_iid(alphabet, weights, depth: int) -> dict:
    lookup = dict(zip(alphabet, weights))
    return {u: float(np.prod([lookup[x] for x in u])) if u else 1.0
            for u in enumerate_words(alphabet, depth)}


def loop_is_probabilistic_response(f: dict, inputs, outputs, depth: int,
                                   tol: Tolerances = Tolerances()) -> bool:
    if abs(f.get(((), ()), 0.0) - 1.0) > tol.rel:
        return False
    if any(val < -tol.rel for val in f.values()):
        return False
    for k in range(depth):
        for u in itertools.product(inputs, repeat=k):
            for v in itertools.product(outputs, repeat=k):
                for x in inputs:
                    total = sum(f.get((u + (x,), v + (y,)), 0.0) for y in outputs)
                    if abs(total - f.get((u, v), 0.0)) > tol.rel * max(1.0, len(outputs)):
                        return False
    return True
