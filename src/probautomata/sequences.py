"""Random sequences, paired sequences, Markov chains and automaton transforms.

A random sequence is a consistent assignment of probabilities to finite
prefixes; a paired sequence couples input and output prefixes of equal
length.  Every table records the depth it is valid to and operations never
fabricate values beyond it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import kernel, linalg
from .dfa import Word, words_of_length, words_upto
from .generalpa import GeneralPA, ReactionTable, reaction_table, residual_automaton
from .tolerances import Tolerances, resolve

UNIT_SYMBOL = "e"


@dataclass(frozen=True, eq=False)
class RandomSequence:
    alphabet: tuple[str, ...]
    depth: int
    table: dict[Word, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def value(self, u: Word) -> float:
        if len(u) > self.depth:
            raise KeyError(f"word beyond table depth {self.depth}: {u}")
        return self.table.get(tuple(u), 0.0)

    def validate(self, tol: Tolerances | None = None) -> "RandomSequence":
        t = resolve(tol)
        if abs(self.value(()) - 1.0) > t.sum:
            raise ValueError("mass at the empty word is not 1")
        for k in range(self.depth):
            for u in words_of_length(self.alphabet, k):
                total = sum(self.value(u + (x,)) for x in self.alphabet)
                if abs(total - self.value(u)) > t.sum * max(1.0, len(self.alphabet)):
                    raise ValueError(f"mass is not conserved below {u}")
        for u, val in self.table.items():
            if val < -t.nonneg:
                raise ValueError(f"negative mass at {u}")
        return self


def rs_residual(zeta: RandomSequence, u: Word, tol: Tolerances | None = None) -> RandomSequence:
    """Conditional sequence zeta_u(u') = zeta(uu') / zeta(u)."""
    t = resolve(tol)
    u = tuple(u)
    mass = zeta.value(u)
    if abs(mass) <= t.zero:
        raise ZeroDivisionError(f"residual at a zero-mass word {u}")
    values = {
        w[len(u):]: val / mass
        for w, val in zeta.table.items()
        if len(w) >= len(u) and w[: len(u)] == u
    }
    return RandomSequence(zeta.alphabet, zeta.depth - len(u), values)


def rs_to_reaction(zeta: RandomSequence) -> ReactionTable:
    """View a random sequence as a reaction from the one-letter input alphabet."""
    values = {
        ((UNIT_SYMBOL,) * len(u), u): val for u, val in zeta.table.items()
    }
    return ReactionTable((UNIT_SYMBOL,), zeta.alphabet, zeta.depth, values)


def rs_automaton(zeta: RandomSequence, tol: Tolerances | None = None) -> GeneralPA | None:
    """Automaton generating zeta, rebuilt from residual closure (None if open)."""
    return residual_automaton(rs_to_reaction(zeta), tol)


def rs_from_automaton(a: GeneralPA, depth: int) -> RandomSequence:
    """Sequence generated by an automaton over the one-letter input alphabet."""
    if a.inputs != (UNIT_SYMBOL,):
        raise ValueError("automaton does not have the one-letter input alphabet")
    tab = reaction_table(a, depth)
    values = {v: val for (u, v), val in tab.values.items()}
    return RandomSequence(a.outputs, depth, values)


@dataclass(frozen=True, eq=False)
class PairedSequence:
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    depth: int
    table: dict[tuple[Word, Word], float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))

    def value(self, u: Word, v: Word) -> float:
        if len(u) != len(v):
            return 0.0
        if len(u) > self.depth:
            raise KeyError(f"pair beyond table depth {self.depth}")
        return self.table.get((tuple(u), tuple(v)), 0.0)

    def validate(self, tol: Tolerances | None = None) -> "PairedSequence":
        t = resolve(tol)
        if abs(self.value((), ()) - 1.0) > t.sum:
            raise ValueError("mass at the empty pair is not 1")
        slack = t.sum * max(1.0, len(self.inputs) * len(self.outputs))
        for k in range(self.depth):
            for u in words_of_length(self.inputs, k):
                for v in words_of_length(self.outputs, k):
                    total = sum(
                        self.value(u + (x,), v + (y,))
                        for x in self.inputs
                        for y in self.outputs
                    )
                    if abs(total - self.value(u, v)) > slack:
                        raise ValueError(f"mass is not conserved below {(u, v)}")
        return self


def pair_from(zeta: RandomSequence, a: GeneralPA) -> PairedSequence:
    """Couple a source sequence with an automaton: eta(u, v) = zeta(u) f_A(u, v)."""
    if tuple(a.inputs) != tuple(zeta.alphabet):
        raise ValueError("automaton input alphabet does not match the sequence")
    tab = reaction_table(a, zeta.depth)
    values = {
        (u, v): zeta.value(u) * val for (u, v), val in tab.values.items()
    }
    return PairedSequence(zeta.alphabet, a.outputs, zeta.depth, values)


def marginals(eta: PairedSequence) -> tuple[RandomSequence, RandomSequence]:
    """Input and output marginal sequences of a paired sequence."""
    left: dict[Word, float] = {}
    right: dict[Word, float] = {}
    for (u, v), val in eta.table.items():
        left[u] = left.get(u, 0.0) + val
        right[v] = right.get(v, 0.0) + val
    for k in range(eta.depth + 1):
        for u in words_of_length(eta.inputs, k):
            left.setdefault(u, 0.0)
        for v in words_of_length(eta.outputs, k):
            right.setdefault(v, 0.0)
    return (
        RandomSequence(eta.inputs, eta.depth, left),
        RandomSequence(eta.outputs, eta.depth, right),
    )


def transform(zeta: RandomSequence, a: GeneralPA) -> RandomSequence:
    """Output marginal of the coupling: the sequence zeta pushed through A."""
    return marginals(pair_from(zeta, a))[1]


# --- Markov chains -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MarkovChain:
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

    def validate(self, tol: Tolerances | None = None) -> "MarkovChain":
        t = resolve(tol)
        linalg.validate_stochastic(self.matrix, t, "transition matrix")
        linalg.validate_distribution(self.initial, t, "initial distribution")
        if len(self.labels) != self.n_states:
            raise ValueError("labeling is not total")
        if any(lab not in self.signals for lab in self.labels):
            raise ValueError("label outside the signal alphabet")
        return self

    def signal_projector(self, x: str) -> np.ndarray:
        """Diagonal 0/1 matrix selecting the states labeled x."""
        if x not in self.signals:
            raise KeyError(f"unknown signal {x!r}")
        return np.diag([1.0 if lab == x else 0.0 for lab in self.labels])


def mc_function(m: MarkovChain, u: Word) -> float:
    """Probability that the chain emits the signals of u at times 0..|u|-1."""
    u = tuple(u)
    if not u:
        return 1.0
    row = m.initial @ m.signal_projector(u[0])
    for x in u[1:]:
        row = row @ m.matrix @ m.signal_projector(x)
    return float(row.sum())


def mc_sequence(m: MarkovChain, depth: int) -> RandomSequence:
    """Tabulate the chain's signal sequence to the given depth.

    A start state 0 reads the first signal x as the row xi . P_x, and every
    later signal as the letter M . P_x; with final column ones the value of
    x1 ... xk is xi . P_x1 M P_x2 ... M P_xk . 1, as in `mc_function`, and the
    empty word has mass exactly 1.
    """
    n = m.n_states
    masks = np.array([[lab == x for lab in m.labels] for x in m.signals], dtype=float)
    letters = np.zeros((len(m.signals), n + 1, n + 1))
    letters[:, 0, 1:] = m.initial * masks
    letters[:, 1:, 1:] = m.matrix * masks[:, None, :]
    start = linalg.point_distribution(n + 1, 0)
    values = kernel.prefix_values(start, letters, np.ones(n + 1), depth).tolist()
    return RandomSequence(m.signals, depth, dict(zip(words_upto(m.signals, depth), values)))


def iid_sequence(alphabet, weights, depth: int, tol: Tolerances | None = None) -> RandomSequence:
    """Product sequence zeta(u) = prod of per-letter weights."""
    alphabet = tuple(alphabet)
    w = linalg.validate_distribution(np.asarray(weights, dtype=float), tol, "letter weights")
    lookup = dict(zip(alphabet, w))
    values = {
        u: float(np.prod([lookup[x] for x in u])) if u else 1.0
        for u in words_upto(alphabet, depth)
    }
    return RandomSequence(alphabet, depth, values)
