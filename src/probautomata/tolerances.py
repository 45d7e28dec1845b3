"""Single numeric tolerance regime shared by the whole library.

Everything is computed in 64-bit floats, so every predicate ("is this a
distribution", "is this row a convex combination", ...) needs a threshold.
Keeping them all in one value makes every test assertable against one
documented set of numbers.  A caller overrides them by passing its own
`Tolerances` as the `tol` argument; there is no global override, and
`tol=None` always means `DEFAULT`.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by all numeric predicates.

    zero    -- magnitudes at or below this count as exactly 0
    sum     -- slack for affine constraints (row sums, total mass)
    nonneg  -- how far below 0 a probability may drift
    rank    -- relative threshold for rank and equality decisions: a residual
               against its vector's length, and |(xi1 - xi2) . c| on a Krylov
               column c against 10 rank (|xi1| + |xi2|) . |c|
    lp      -- feasibility and objective threshold for the simplex solver;
               10 lp relative to the rows is a convex certificate's scale
    """

    zero: float = 1e-12
    sum: float = 1e-9
    nonneg: float = 1e-9
    rank: float = 1e-9
    lp: float = 1e-9


DEFAULT = Tolerances()


def get_default() -> Tolerances:
    return DEFAULT


def resolve(tol: Tolerances | None) -> Tolerances:
    return DEFAULT if tol is None else tol
