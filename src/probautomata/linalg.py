"""Dense real linear algebra used by every automaton module.

Norms, distribution checks, boolean matrix patterns, incremental subspace
tracking (classical Gram-Schmidt applied twice over a basis array), a
small dense two-phase simplex solver with Bland's rule, each pivot one
rank-1 array update, and convex-combination certificates without it: a
box test prunes, a Lawson-Hanson nonnegative least-squares fit started at
the minimum-norm fit finds the coefficients, `is_convex_certificate` accepts them.
All matrices are plain numpy float64 arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT, Tolerances


def as_array(a) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    if out.size == 0:
        raise ValueError("empty matrix or vector")
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite entries")
    return out


def norm_abs(a) -> float:
    """Max absolute entry of a vector or matrix."""
    return float(np.max(np.abs(as_array(a))))


def norm_spread(a) -> float:
    """Spread norm: max - min for vectors, max column spread for matrices."""
    arr = as_array(a)
    if arr.ndim == 1:
        return float(arr.max() - arr.min())
    if arr.ndim != 2:
        raise ValueError("expected a vector or a matrix")
    return float(np.max(arr.max(axis=0) - arr.min(axis=0)))


def is_distribution(v, tol: Tolerances = DEFAULT) -> bool:
    """A one-row stochastic matrix."""
    arr = np.asarray(v, dtype=float)
    return arr.ndim == 1 and is_stochastic(arr[None], tol)


def validate_distribution(v, tol: Tolerances = DEFAULT, what: str = "distribution") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if not is_distribution(arr, tol):
        raise ValueError(f"{what} is not a probability distribution: {arr!r}")
    return arr


def is_stochastic(m, tol: Tolerances = DEFAULT) -> bool:
    """Finite and nonempty, no entry below -tol.rel, every row summing to 1 within tol.rel."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.size == 0 or not np.all(np.isfinite(arr)):
        return False
    return bool(arr.min() >= -tol.rel and np.max(np.abs(arr.sum(axis=1) - 1.0)) <= tol.rel)


def validate_stochastic(m, tol: Tolerances = DEFAULT, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if not is_stochastic(arr, tol):
        raise ValueError(f"{what} is not row-stochastic: {arr!r}")
    return arr


def point_distribution(n: int, i: int) -> np.ndarray:
    out = np.zeros(n)
    out[i] = 1.0
    return out


# --- boolean patterns -------------------------------------------------------

def bool_pattern(a, tol: Tolerances = DEFAULT) -> np.ndarray:
    """0/1 pattern of a matrix: entries with |a_ij| > tol.zero become 1."""
    return np.abs(np.asarray(a, dtype=float)) > tol.zero


def bool_mul(p, q) -> np.ndarray:
    """Boolean matrix product (1 + 1 = 1)."""
    return np.asarray(p, dtype=bool).astype(np.int64) @ np.asarray(q, dtype=bool).astype(np.int64) > 0


def is_primitive(p) -> bool:
    """True iff some boolean power of the square pattern is all ones.

    Searches powers up to the Wielandt bound (d-1)^2 + 1, which is reached
    by primitive matrices in the worst case.
    """
    pat = np.asarray(p, dtype=bool)
    if pat.ndim != 2 or pat.shape[0] != pat.shape[1]:
        raise ValueError("pattern must be square")
    d = pat.shape[0]
    power = pat
    for _ in range((d - 1) ** 2 + 1):
        if power.all():
            return True
        power = bool_mul(power, pat)
    return False


# --- incremental subspace ---------------------------------------------------

class Subspace:
    """Growable span of row vectors, kept orthonormal.

    The orthonormal rows live in one array that grows as vectors are
    accepted.  A residual is two passes of classical Gram-Schmidt,
    r -= (Q r) Q, which is orthogonal to working precision ("twice is
    enough": Giraud, Langou & Rozložník 2005).  This is an accumulator
    object, the one deliberately mutable type in the library (basis
    construction is inherently incremental).
    """

    def __init__(self, ambient_dim: int, tol: Tolerances = DEFAULT):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        self.ambient_dim = ambient_dim
        self.tol = tol
        self._rows = np.empty((min(ambient_dim, 8), ambient_dim))
        self._dim = 0

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def basis(self) -> np.ndarray:
        """The orthonormal rows, oldest first, as a read-only (dim, ambient) view."""
        out = self._rows[:self._dim]
        out.flags.writeable = False
        return out

    def _residual(self, v: np.ndarray) -> np.ndarray:
        r = v.astype(float)
        q = self._rows[:self._dim]
        for _ in range(2):
            r -= (q @ r) @ q
        return r

    def _vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.ambient_dim,):
            raise ValueError("dimension mismatch")
        return v

    def contains(self, v) -> bool:
        v = self._vector(v)
        r = self._residual(v)
        return math.sqrt(r @ r) <= self.tol.rel * max(1.0, math.sqrt(v @ v))

    def try_add(self, v) -> bool:
        """Add v if it is independent of the current span; return True if it grew."""
        v = self._vector(v)
        if self._dim >= self.ambient_dim:
            return False
        r = self._residual(v)
        nrm = math.sqrt(r @ r)
        if nrm <= self.tol.rel * max(1.0, math.sqrt(v @ v)):
            return False
        if self._dim == self._rows.shape[0]:
            grown = np.empty((min(2 * self._dim, self.ambient_dim), self.ambient_dim))
            grown[:self._dim] = self._rows
            self._rows = grown
        self._rows[self._dim] = r / nrm
        self._dim += 1
        return True


# --- linear programming -----------------------------------------------------

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """min c.x  subject to  a_eq.x = b_eq,  x >= 0."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "a_eq", np.atleast_2d(np.asarray(self.a_eq, dtype=float)))
        object.__setattr__(self, "b_eq", np.asarray(self.b_eq, dtype=float))
        if self.a_eq.shape != (self.b_eq.size, self.c.size):
            raise ValueError("inconsistent LP dimensions")


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float | None


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Make column col the unit vector of row row: one rank-1 update."""
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * tab[row]


def _bland_pivot(tab: np.ndarray, basis: np.ndarray, n_cols: int, tol: float) -> str:
    """Run simplex iterations on the tableau in place; Bland's rule throughout.

    The entering column is the first with reduced cost below -tol.  The
    leaving row has the least ratio among the rows whose pivot-column entry
    exceeds tol; ratios within tol of the least tie, and the tie goes to
    the smallest basis index.
    """
    m = basis.size
    while True:
        negative = tab[-1, :n_cols] < -tol
        col = negative.argmax()
        if not negative[col]:
            return OPTIMAL
        rows = (tab[:m, col] > tol).nonzero()[0]
        if rows.size == 0:
            return UNBOUNDED
        ratios = tab[rows, -1] / tab[rows, col]
        ties = rows[ratios <= ratios.min() + tol]
        leaving = ties[basis[ties].argmin()]
        _pivot(tab, leaving, col)
        basis[leaving] = col


def lp_solve(problem: LpProblem, tol: Tolerances = DEFAULT) -> LpSolution:
    """Dense two-phase simplex with Bland's anti-cycling rule.

    The pivots take tol.rel as an absolute threshold: on an ill-conditioned
    a_eq, x can have only a few correct digits.
    """
    a = problem.a_eq.copy()
    b = problem.b_eq.copy()
    c = problem.c
    m, n = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial identity basis, minimize sum of artificials
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, :n] = -a.sum(axis=0)
    tab[-1, -1] = -b.sum()
    basis = np.arange(n, n + m)
    status = _bland_pivot(tab, basis, n + m, tol.rel)
    if status != OPTIMAL or -tab[-1, -1] > tol.rel:
        return LpSolution(INFEASIBLE, None, None)

    # drive artificials out of the basis; drop redundant rows
    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(basis >= n):
        cols = np.flatnonzero(np.abs(tab[i, :n]) > tol.rel)
        if cols.size == 0:
            keep[i] = False  # redundant constraint
            continue
        _pivot(tab, i, cols[0])
        basis[i] = cols[0]

    # phase 2: the kept rows, the original columns and the true objective,
    # priced out so that every basic column has reduced cost 0
    basis = basis[keep]
    tab2 = np.zeros((basis.size + 1, n + 1))
    tab2[:-1, :n] = tab[:m][keep, :n]
    tab2[:-1, -1] = tab[:m][keep, -1]
    tab2[-1, :n] = c
    tab2[-1] -= c[basis] @ tab2[:-1]
    status = _bland_pivot(tab2, basis, n, tol.rel)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)
    x = np.zeros(n)
    x[basis] = tab2[:-1, -1]
    return LpSolution(OPTIMAL, x, float(c @ x))


def convex_combination_certificate(
    rows: np.ndarray, s: int, tol: Tolerances = DEFAULT
) -> np.ndarray | None:
    """Coefficients expressing rows[s] as a convex combination of the others.

    Prune, fit, check.  The box test refutes rows[s] when some column lies
    outside the other rows' [min, max] by more than the check's residual
    scale.  Otherwise the coefficients are the nonnegative least-squares fit
    of [W^T; r] x = [rows[s]; r], with W the other rows and the ones row r
    scaled to the rows' magnitude, so the sum counts at every scale.  The
    fit starts at the minimum-norm least-squares solution clipped at 0: when
    that is already positive it is the answer, the minimum-norm mixture
    (one of many when another removable row is among the others), and
    otherwise only its negative coefficients are walked back.  The
    coefficients are returned iff `is_convex_certificate` accepts them; the
    vector is indexed over the rows with s removed.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    n = rows.shape[0]
    if n < 2:
        return None
    w = np.delete(rows, s, axis=0)
    target = rows[s]
    magnitude = norm_abs(rows) or 1.0
    scale = tol.rel * max(1.0, magnitude) * 10.0
    if np.any(target < w.min(axis=0) - scale) or np.any(target > w.max(axis=0) + scale):
        return None
    a = np.vstack([w.T, np.full(n - 1, magnitude)])
    b = np.append(target, magnitude)
    coeffs = _nnls(a, b)
    return coeffs if is_convex_certificate(rows, s, coeffs, tol) else None


def is_convex_certificate(rows, s: int, coeffs, tol: Tolerances = DEFAULT) -> bool:
    """True iff coeffs (over the rows without s) are nonnegative within tol.rel,
    sum to 1 within 10 tol.rel and give rows[s] within 10 tol.rel max(1, |rows|)."""
    coeffs = np.asarray(coeffs, dtype=float)
    w = np.delete(rows, s, axis=0)
    return bool(
        coeffs.min(initial=0.0) >= -tol.rel
        and abs(coeffs.sum() - 1.0) <= tol.rel * 10.0
        and norm_abs(rows[s] - coeffs @ w) <= tol.rel * max(1.0, norm_abs(rows)) * 10.0
    )


def _nnls(a: np.ndarray, b: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """argmin |a.x - b| over x >= 0, by the active-set method of Lawson & Hanson
    (1974) started from x clipped at 0 and its support.

    Without x the start is the minimum-norm least-squares solution; when it
    is positive it is its own first passive fit, so it is returned at once.

    As in their Fortran code, a candidate whose coefficient in the next fit
    is <= 0 (its positive dual was round-off) is rejected: it leaves the
    passive set again, x is kept, and the next-largest dual is tried.  The
    rejections hold until a variable is added.
    """
    if x is None:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        if (x > 0.0).all():
            return x
    n = a.shape[1]
    tol = 10.0 * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * max(a.shape)
    x = np.clip(x, 0.0, None)
    passive = x > 0.0
    z = _passive_fit(a, b, passive)
    for _ in range(3 * n):
        # step back towards x, freeing the variables that reach 0, until the
        # fit on the passive set is positive
        while passive.any() and z[passive].min() <= 0.0:
            down = passive & (z <= 0.0)
            alpha = np.min(x[down] / np.maximum(x[down] - z[down], np.finfo(float).tiny))
            x += alpha * (z - x)
            passive &= x > tol
            z = _passive_fit(a, b, passive)
        x = z
        grad = a.T @ (b - a @ x)
        grad[passive] = -np.inf
        while True:
            j = int(np.argmax(grad))
            if grad[j] <= 0.0:
                return x
            passive[j] = True
            z = _passive_fit(a, b, passive)
            if z[j] > 0.0:
                break
            passive[j] = False
            grad[j] = -np.inf
    return x


def _passive_fit(a: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Least-squares fit of b on the passive columns of a, 0 elsewhere."""
    z = np.zeros(a.shape[1])
    if passive.any():
        z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
    return z
