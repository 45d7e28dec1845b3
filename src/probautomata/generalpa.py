"""Probabilistic automata of general form (input/output transducers).

Reactions, basis matrices, equivalence, convex-certificate reduction, residual
reactions and realization from shift-stable cones.  A general PA is the
five-tuple (X, Y, S, P, initial) stored as one n-by-n matrix per
input/output pair, so the probability of reading u while emitting v is
initial . A[u,v] . ones.  The algorithms run in `kernel` on the stacked
pair matrices with the all-ones final column.  `law_fault` is the law of a
reaction table, which random and paired sequences obey too; a cone is valid
iff its automaton is.  Each test accepts on value <= bound, so NaN fails it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import kernel, linalg
from .dfa import Word, words_of_length
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class GeneralPA(kernel.Automaton):
    """A view of the kernel representation whose letters are the pairs (x, y).

    The stored letter tensor stacks the pair matrices inputs-major,
    outputs-minor, in the order of `_keys` (built once), and `trans` maps
    each pair to its slice; the final column is all ones.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    trans: dict[tuple[str, str], np.ndarray]
    initial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "initial", kernel.freeze(self.initial))
        object.__setattr__(self, "_keys", tuple(product(self.inputs, self.outputs)))
        kernel.store_letters(self, self._keys)

    def matrix(self, x: str, y: str) -> np.ndarray:
        m = self.trans.get((x, y))
        if m is None:
            raise KeyError(f"unknown input/output pair ({x!r}, {y!r})")
        return m

    @property
    def _final(self) -> np.ndarray:
        return np.ones(self.n_states)

    def _like(self, letters, initial, final) -> "GeneralPA":
        """Same alphabets over new kernel arrays; the final column stays ones."""
        return GeneralPA(self.inputs, self.outputs, kernel.Slices(self._keys, letters), initial)

    def _tag(self, word):
        """The (u, v) pair of a word of pair letters."""
        return tuple(zip(*super()._tag(word))) or ((), ())

    @property
    def _pairs(self) -> np.ndarray:
        """The letter tensor as [x, y, s, s'], inputs by outputs."""
        return self._letters.reshape(len(self.inputs), len(self.outputs), *self._letters.shape[1:])

    def input_matrix(self, x: str) -> np.ndarray:
        """Sum over outputs: the stochastic matrix of the input letter."""
        return dict(zip(self.inputs, self._pairs.sum(axis=1)))[x]

    def validate(self, tol: Tolerances = DEFAULT) -> "GeneralPA":
        linalg.validate_distribution(self.initial, tol, "initial distribution")
        for x, rows in zip(self.inputs, self._pairs.transpose(0, 2, 1, 3)):  # rows[s, y, s']
            what = f"the row of pair matrices for input {x!r}"
            linalg.validate_stochastic(rows.reshape(self.n_states, -1), tol, what)
        return self


def word_matrix(a: GeneralPA, u: Word, v: Word) -> np.ndarray:
    """A[u,v]: identity for (eps,eps), zero when lengths differ, else the product."""
    n = a.n_states
    if len(u) != len(v):
        return np.zeros((n, n))
    return kernel.word_product(np.eye(n), map(a.matrix, u, v))


def reaction(a: GeneralPA, u: Word, v: Word, xi: np.ndarray | None = None) -> float:
    """Probability of emitting v while reading u, starting from xi."""
    row = a.initial if xi is None else np.asarray(xi, dtype=float)
    if len(u) != len(v):
        return 0.0
    return float(kernel.word_product(row, map(a.matrix, u, v)).sum())


# --- reaction tables ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReactionTable:
    """Finite table of a probabilistic reaction on pairs with |u| = |v| <= depth: a
    view of one `kernel.PairShortlexTable` over the letters (x, y) in GeneralPA key order."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    depth: int
    values: kernel.PairShortlexTable = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        keys = product(self.inputs, self.outputs)
        object.__setattr__(self, "values", kernel.PairShortlexTable(keys, self.depth, self.values))

    def value(self, u: Word, v: Word) -> float:
        if len(u) != len(v):
            return 0.0
        if len(u) > self.depth:
            raise KeyError(f"pair beyond table depth {self.depth}: {(u, v)}")
        return self.values.get((tuple(u), tuple(v)), 0.0)

    def pairs(self, length: int):
        return product(words_of_length(self.inputs, length), words_of_length(self.outputs, length))


def reaction_table(a: GeneralPA, depth: int, xi: np.ndarray | None = None) -> ReactionTable:
    """Tabulate the reaction to the given depth, sharing prefix products."""
    row0 = a.initial if xi is None else np.asarray(xi, dtype=float)
    return ReactionTable(a.inputs, a.outputs, depth,
                         kernel.prefix_values(row0, a._letters, a._final, depth))


def law_fault(table: kernel.ShortlexTable, group: int, t: Tolerances):
    """The first rule of a reaction's law the table breaks, as (rule, ranks), or None:
    "root", the empty word's mass is not 1 within t.rel; "leak", below these parents
    some run of `group` consecutive children (|Y|, one run per input letter) does not
    sum to the parent within t.rel max(1, group); "negative", mass below -t.rel."""
    parents = table.upto(table.depth - 1)
    below = table.children().reshape(parents.size, len(table.alphabet) // group, group).sum(axis=2)
    faults = {"root": ~(np.abs(table.array[:1] - 1.0) <= t.rel),
              "leak": ~(np.abs(below - parents[:, None]) <= t.rel * max(1.0, group)).all(axis=1),
              "negative": ~(table.array >= -t.rel)}
    return next(((rule, np.flatnonzero(f)) for rule, f in faults.items() if f.any()), None)


def is_probabilistic_response(f: ReactionTable, tol: Tolerances = DEFAULT) -> bool:
    """Check the defining recurrences of a probabilistic reaction on the table (`law_fault`)."""
    return law_fault(f.values, len(f.outputs), tol) is None


def residual(f: ReactionTable, u: Word, v: Word, tol: Tolerances = DEFAULT) -> ReactionTable:
    """Residual reaction f_{u,v}(u', v') = f(uu', vv') / f(u, v)."""
    mass = f.value(u, v)
    if abs(mass) <= tol.zero:
        raise ZeroDivisionError(f"residual at a zero-probability pair {(u, v)}")
    values = f.values.after(tuple(zip(u, v))) / mass
    return ReactionTable(f.inputs, f.outputs, f.depth - len(u), values)


def tables_agree(f: ReactionTable, g: ReactionTable, tol: Tolerances = DEFAULT) -> bool:
    """Compare two tables over one alphabet on their overlapping depth."""
    depth = min(f.depth, g.depth)
    return bool(np.all(np.abs(f.values.upto(depth) - g.values.upto(depth)) <= tol.zero * 100.0))


def residual_automaton(f: ReactionTable, tol: Tolerances = DEFAULT) -> GeneralPA | None:
    """Rebuild an automaton from the residual reactions of f, if they close.

    Breadth-first search over residuals f_{u,v}; a new residual is matched
    against known ones on the overlapping table depth.  Returns None when a
    required residual would have no table left to compare (the finite
    evidence cannot certify closure), which genuinely happens: some
    realizable reactions have infinitely many residuals.
    """
    keys, states, queue, entries = f.values.alphabet, [f], [0], []
    while queue:
        i = queue.pop(0)
        g = states[i]
        for c, (x, y) in enumerate(keys):
            p = g.value((x,), (y,))
            if p <= tol.zero:
                continue
            if g.depth - 1 < 1:
                return None  # child table too shallow to identify
            child = residual(g, (x,), (y,), tol)
            j = next((m for m, h in enumerate(states) if tables_agree(child, h, tol)), len(states))
            if j == len(states):
                states.append(child)
                queue.append(j)
            entries.append((c, i, j, p))
    letters = np.zeros((len(keys), len(states), len(states)))
    for c, i, j, p in entries:
        letters[c, i, j] = p
    initial = linalg.point_distribution(len(states), 0)
    return GeneralPA(f.inputs, f.outputs, kernel.Slices(keys, letters), initial)


# --- basis matrices, equivalence and reduction: the kernel's, on pair letters --------

def basis_matrix(a: GeneralPA, tol: Tolerances = DEFAULT):
    """Basis of the column space spanned by the raw vectors A[u,v].ones.

    Returns (matrix, tags): columns in breadth-first discovery order with
    lexicographic (input, output) symbol order, tags giving the (u, v) pair
    of each column.
    """
    return kernel.basis_matrix(a, tol)


def distributions_equivalent(a: GeneralPA, xi1, xi2, tol: Tolerances = DEFAULT) -> bool:
    """xi1 and xi2 produce the same reaction iff they agree against the basis."""
    return kernel.distributions_equivalent(a, xi1, xi2, tol)


disjoint_union = kernel.disjoint_union


def equivalent(a1: GeneralPA, a2: GeneralPA, tol: Tolerances = DEFAULT) -> bool:
    """Equality of reactions, decided on the disjoint union's basis matrix."""
    return kernel.equivalent(a1, a2, tol)


def reachable_part(a: GeneralPA, tol: Tolerances = DEFAULT) -> GeneralPA:
    """Restrict to states carrying initial mass or reachable through a nonzero entry."""
    return kernel.reachable_part(a, tol)


def find_convex_state(a: GeneralPA, tol: Tolerances = DEFAULT):
    """(state, coefficients over the remaining states) of a convex basis row, or None."""
    return kernel.find_convex_state(a, tol)


def remove_convex_state(a: GeneralPA, s: int, coeffs, tol: Tolerances = DEFAULT) -> GeneralPA:
    """Fold a certified convex-combination state into its mixture (ValueError if uncertified)."""
    return kernel.remove_convex_state(a, s, coeffs, tol)


def reduce(a: GeneralPA, tol: Tolerances = DEFAULT) -> GeneralPA:
    """Strip unreachable states and eliminate convex combinations in one pass
    (`kernel.reduce_convex`)."""
    return kernel.reduce_convex(a, tol)


# --- cones of reactions ---------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConeSpec:
    """A finite shift-stable family with mixing data.

    members      -- reactions f_1..f_n as tables
    initial      -- coefficients of f as a convex combination of the members
    shifts       -- per (x, y), the matrix whose row i expands the shifted
                    member f_i D^{xy} over the family
    """

    members: tuple[ReactionTable, ...]
    initial: tuple[float, ...]
    shifts: dict[tuple[str, str], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "initial", tuple(float(v) for v in self.initial))
        object.__setattr__(self, "shifts", kernel.freeze_map(self.shifts))

    def validate(self, tol: Tolerances = DEFAULT) -> "ConeSpec":
        """Valid iff its automaton is: `pa_from_cone` validates it."""
        pa_from_cone(self, tol)
        return self


def pa_from_cone(cone: ConeSpec, tol: Tolerances = DEFAULT) -> GeneralPA:
    """The validated automaton of the cone: members as states, shifts as pair matrices."""
    if not cone.members or len(cone.initial) != len(cone.members):
        raise ValueError("a cone needs one or more members and one coefficient for each")
    first = cone.members[0]
    return GeneralPA(first.inputs, first.outputs, cone.shifts, cone.initial).validate(tol)
