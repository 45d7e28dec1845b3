"""Random sequences, paired sequences, Markov chains and automaton transforms.

A random sequence is a consistent assignment of probabilities to finite
prefixes; a paired sequence couples input and output prefixes of equal
length.  Every table records the depth it is valid to and operations never
fabricate values beyond it.  A random sequence is a reaction over the
one-letter input, and a paired sequence one over the pair letters, so both
obey `generalpa.law_fault` with every letter in one group.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernel, linalg
from .dfa import Word
from .generalpa import GeneralPA, ReactionTable, law_fault, reaction_table, residual_automaton
from .tolerances import DEFAULT, Tolerances

UNIT_SYMBOL = "e"


class RandomSequence(kernel.WordTable):
    """A random sequence to its depth; `table` (also `values`) maps each word to its mass."""

    table = property(lambda self: self.values)

    def validate(self, tol: Tolerances = DEFAULT) -> "RandomSequence":
        _check_mass(self.values, tol, "word", lambda ranks: self.values.word(ranks[0]))
        return self


def rs_residual(zeta: RandomSequence, u: Word, tol: Tolerances = DEFAULT) -> RandomSequence:
    """Conditional sequence zeta_u(u') = zeta(uu') / zeta(u)."""
    u = tuple(u)
    mass = zeta.value(u)
    if abs(mass) <= tol.zero:
        raise ZeroDivisionError(f"residual at a zero-mass word {u}")
    return RandomSequence(zeta.alphabet, zeta.depth - len(u), zeta.values.after(u) / mass)


def rs_to_reaction(zeta: RandomSequence) -> ReactionTable:
    """View a random sequence as a reaction from the one-letter input alphabet.

    Over the letters (e, y) the pair ((e,)*|v|, v) has the rank of v.
    """
    return ReactionTable((UNIT_SYMBOL,), zeta.alphabet, zeta.depth, zeta.values.array)


def rs_automaton(zeta: RandomSequence, tol: Tolerances = DEFAULT) -> GeneralPA | None:
    """Automaton generating zeta, rebuilt from residual closure (None if open)."""
    return residual_automaton(rs_to_reaction(zeta), tol)


def rs_from_automaton(a: GeneralPA, depth: int) -> RandomSequence:
    """Sequence generated by an automaton over the one-letter input alphabet."""
    if a.inputs != (UNIT_SYMBOL,):
        raise ValueError("automaton does not have the one-letter input alphabet")
    return RandomSequence(a.outputs, depth, reaction_table(a, depth).values.array)


class PairedSequence(ReactionTable):
    """A paired sequence to its depth, stored as a ReactionTable; `table` is `values`."""

    table = property(lambda self: self.values)

    def validate(self, tol: Tolerances = DEFAULT) -> "PairedSequence":
        _check_mass(self.values, tol, "pair", self._first_pair)
        return self

    def _first_pair(self, ranks: np.ndarray) -> tuple[Word, Word]:
        """The pair (u, v) of the given ranks that comes first, input word major."""
        u, v = _sides(self)
        first = ranks[np.lexsort((v[ranks], u[ranks]))[0]]
        return tuple(zip(*self.values.word(first))) or ((), ())


def pair_from(zeta: RandomSequence, a: GeneralPA) -> PairedSequence:
    """Couple a source sequence with an automaton: eta(u, v) = zeta(u) f_A(u, v)."""
    if tuple(a.inputs) != tuple(zeta.alphabet):
        raise ValueError("automaton input alphabet does not match the sequence")
    tab = reaction_table(a, zeta.depth)
    values = zeta.values.array[_sides(tab)[0]] * tab.values.array
    return PairedSequence(zeta.alphabet, a.outputs, zeta.depth, values)


def marginals(eta: PairedSequence) -> tuple[RandomSequence, RandomSequence]:
    """Input and output marginal sequences, each adding up the pairs in table order."""
    u, v = _sides(eta)
    return (
        RandomSequence(eta.inputs, eta.depth, np.bincount(u, weights=eta.values.array)),
        RandomSequence(eta.outputs, eta.depth, np.bincount(v, weights=eta.values.array)),
    )


def _check_mass(table: kernel.ShortlexTable, t: Tolerances, empty: str, name) -> None:
    """Raise unless `law_fault` finds none, every letter in one group; `name` names ranks."""
    fault = law_fault(table, len(table.alphabet), t)
    if fault is not None:
        rule, ranks = fault
        raise ValueError({"root": f"mass at the empty {empty} is not 1",
                          "leak": f"mass is not conserved below {name(ranks)}",
                          "negative": f"negative mass at {name(ranks)}"}[rule])


def _sides(f: ReactionTable):
    """Ranks of the input word and of the output word of every pair of the table."""
    nx, ny = len(f.inputs), len(f.outputs)
    u, v = [np.zeros(1, dtype=int)], [np.zeros(1, dtype=int)]
    for _ in range(f.depth):  # rank(ux) = 1 + |X| rank(u) + index(x)
        u.append((1 + nx * u[-1][:, None] + np.arange(nx * ny) // ny).ravel())
        v.append((1 + ny * v[-1][:, None] + np.arange(nx * ny) % ny).ravel())
    return np.concatenate(u), np.concatenate(v)


def transform(zeta: RandomSequence, a: GeneralPA) -> RandomSequence:
    """Output marginal of the coupling: the sequence zeta pushed through A."""
    return marginals(pair_from(zeta, a))[1]


# --- Markov chains -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MarkovChain:
    """A labelled chain; `_letters` reads its signals as kernel letters.

    Over a start state 0 and the chain's states 1..n, the first signal x is
    the row xi . P_x (P_x: the 0/1 diagonal of the states labelled x) and
    every later one the letter M . P_x; with final column ones,
    start . L^u . 1 = xi . P_x1 M P_x2 ... M P_xk . 1.
    """

    signals: tuple[str, ...]
    matrix: np.ndarray
    labels: tuple[str, ...]
    initial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "matrix", kernel.freeze(self.matrix))
        object.__setattr__(self, "initial", kernel.freeze(self.initial))

    @property
    def n_states(self) -> int:
        return self.initial.size

    def validate(self, tol: Tolerances = DEFAULT) -> "MarkovChain":
        linalg.validate_stochastic(self.matrix, tol, "transition matrix")
        linalg.validate_distribution(self.initial, tol, "initial distribution")
        if len(self.labels) != self.n_states:
            raise ValueError("labeling is not total")
        if any(lab not in self.signals for lab in self.labels):
            raise ValueError("label outside the signal alphabet")
        return self

    @functools.cached_property
    def _letters(self) -> np.ndarray:
        n = self.n_states
        if len(self.labels) != n:  # a short labelling would broadcast over the states
            raise ValueError("labeling is not total")
        masks = np.array([[lab == x for lab in self.labels] for x in self.signals], dtype=float)
        letters = np.zeros((len(self.signals), n + 1, n + 1))
        letters[:, 0, 1:] = self.initial * masks
        letters[:, 1:, 1:] = self.matrix * masks[:, None, :]
        return kernel.freeze(letters)


def mc_function(m: MarkovChain, u: Word) -> float:
    """Probability that the chain emits the signals of u at times 0..|u|-1."""
    letters = dict(zip(m.signals, m._letters))  # KeyError for an unknown signal
    start = linalg.point_distribution(m.n_states + 1, 0)
    return float(kernel.word_product(start, map(letters.__getitem__, u)).sum())


def mc_sequence(m: MarkovChain, depth: int) -> RandomSequence:
    """Tabulate the chain's signal sequence to the given depth; the empty word has mass 1."""
    start = linalg.point_distribution(m.n_states + 1, 0)
    values = kernel.prefix_values(start, m._letters, np.ones(m.n_states + 1), depth)
    return RandomSequence(m.signals, depth, values)


def iid_sequence(alphabet, weights, depth: int, tol: Tolerances = DEFAULT) -> RandomSequence:
    """Product sequence zeta(u) = prod of per-letter weights, as a one-state automaton."""
    w = linalg.validate_distribution(np.asarray(weights, dtype=float), tol, "letter weights")
    one = np.ones(1)
    return RandomSequence(alphabet, depth, kernel.prefix_values(one, w[:, None, None], one, depth))
