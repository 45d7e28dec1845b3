"""Single numeric tolerance regime shared by the whole library.

Everything is computed in 64-bit floats, so every predicate ("is this a
distribution", "is this row a convex combination", ...) needs a threshold.
There are two: an absolute zero and one relative threshold, from which every
decision takes its slack against the size of what it compares.  A caller
overrides them by passing its own `Tolerances` as the `tol` argument, whose
default is always `DEFAULT`; there is no global override.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by all numeric predicates.

    zero -- magnitudes at or below this count as exactly 0; two tables agree
            when no entry differs by more than 100 zero
    rel  -- every other threshold; the sites that scale it keep their factor
            as a constant:
            - slack for affine constraints (row sums, total mass), times the
              number of outputs or letters summed, and times 100 in `classify`;
            - how far below 0 a probability or a mixing coefficient may drift;
            - rank and equality decisions: a residual against its vector's
              length, the condition of a Hankel core against 1 / rel, and
              |(xi1 - xi2) . c| on a Krylov column c against
              10 rel (|xi1| + |xi2|) . |c|;
            - the simplex pivots, as an absolute threshold;
            - a convex certificate, in search and removal alike: its sum
              within 10 rel of 1, its row within 10 rel relative to the rows.
    """

    zero: float = 1e-12
    rel: float = 1e-9


DEFAULT = Tolerances()


def get_default() -> Tolerances:
    return DEFAULT
