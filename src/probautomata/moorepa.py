"""Moore probabilistic automata with numeric output.

Averaged reactions xi . A^u . lam, averaged basis matrices, reduction by
convex-combination elimination, Mealy/Moore classification of general
automata, and the 0/1 embedding of deterministic automata.  The algorithms
run in `kernel`, with lam as the final column.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import kernel, linalg
from .dfa import Dfa, Word
from .generalpa import GeneralPA
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class MoorePA(kernel.LetterAutomaton):
    """A view of the kernel representation with stochastic validation.

    One row-stochastic matrix per input letter, an initial distribution and
    a numeric output column lam (the final column).
    """

    def validate(self, tol: Tolerances = DEFAULT) -> "MoorePA":
        super().validate()
        linalg.validate_distribution(self.initial, tol, "initial distribution")
        for x in self.inputs:
            linalg.validate_stochastic(self.matrix(x), tol, f"matrix for input {x!r}")
        return self


def avg_reaction(a: MoorePA, u: Word, xi: np.ndarray | None = None) -> float:
    """Expected output after reading u: xi . A^u . lam (also `linauto.la_reaction`)."""
    row = a.initial if xi is None else np.asarray(xi, dtype=float)
    return float(kernel.word_product(row, map(a.matrix, u)) @ a.lam)


def avg_reaction_table(a: MoorePA, depth: int) -> kernel.ShortlexTable:
    """All averaged reactions to the given depth, sharing prefix products, as a Mapping."""
    values = kernel.prefix_values(a.initial, a._letters, a.lam, depth)
    return kernel.ShortlexTable(a.inputs, depth, values)


# --- basis matrices, equivalence and reduction: the kernel's, on input letters ------

def avg_basis_matrix(a: MoorePA, tol: Tolerances = DEFAULT):
    """Basis of the span of the raw columns A^u . lam, with word tags."""
    return kernel.basis_matrix(a, tol)


def avg_distributions_equivalent(a: MoorePA, xi1, xi2, tol: Tolerances = DEFAULT) -> bool:
    return kernel.distributions_equivalent(a, xi1, xi2, tol)


moore_disjoint_union = kernel.disjoint_union


def avg_equivalent(a1: MoorePA, a2: MoorePA, tol: Tolerances = DEFAULT) -> bool:
    """Equal averaged reactions, decided on the disjoint union's basis."""
    return kernel.equivalent(a1, a2, tol)


def moore_reachable_part(a: MoorePA, tol: Tolerances = DEFAULT) -> MoorePA:
    return kernel.reachable_part(a, tol)


def find_convex_state_avg(a: MoorePA, tol: Tolerances = DEFAULT):
    """Convex-combination state of the averaged basis matrix, highest index first."""
    return kernel.find_convex_state(a, tol)


def remove_convex_state_avg(a: MoorePA, s: int, coeffs, tol: Tolerances = DEFAULT) -> MoorePA:
    """Fold a certified convex state into the mixture: B^x = (E 0) A^x (E ; xi)."""
    return kernel.remove_convex_state(a, s, coeffs, tol)


def reduce_avg(a: MoorePA, tol: Tolerances = DEFAULT) -> MoorePA:
    """Strip unreachable states and eliminate convex combinations in one pass
    (`kernel.reduce_convex`)."""
    return kernel.reduce_convex(a, tol)


# --- classification of general automata --------------------------------------

class Classification(enum.Enum):
    MEALY = "mealy"
    MOORE_DET_OUT = "moore_det_out"
    GENERAL = "general"


def classify(a: GeneralPA, tol: Tolerances = DEFAULT) -> Classification:
    """Factorization test P(s,x,s',y) = delta(s,x,s') . lam(s,x,y).

    Returns MOORE_DET_OUT when additionally the output law does not depend
    on the input and is deterministic; a Moore automaton with stochastic
    output classifies as MEALY.
    """
    slack = tol.rel * 100.0
    pairs = a._pairs
    delta = pairs.sum(axis=1)   # [x, s, s']: the input matrices
    lam = pairs.sum(axis=3)     # [x, y, s]: the output law
    if linalg.norm_abs(delta[:, None] * lam[..., None] - pairs) > slack:
        return Classification.GENERAL
    input_independent = linalg.norm_abs(lam - lam[0]) <= slack
    if input_independent and np.all(lam[0].max(axis=0) > 1.0 - slack):
        return Classification.MOORE_DET_OUT
    return Classification.MEALY


def moore_to_general(a: MoorePA) -> GeneralPA:
    """Embed a numeric-output Moore automaton as a general transducer.

    Output symbols are the distinct output values (as printed); the emitted
    symbol is the label of the source state of each transition.
    """
    labels = [format(v, ".12g") for v in a.lam]
    outputs = tuple(dict.fromkeys(labels))
    trans = {
        (x, y): a.matrix(x) * (np.array(labels) == y)[:, None] for x in a.inputs for y in outputs
    }
    return GeneralPA(a.inputs, outputs, trans, a.initial)


# --- deterministic automata as probabilistic ones ------------------------------

def dfa_to_pa(d: Dfa) -> MoorePA:
    """0/1 Moore automaton of a DFA; its reaction is the language indicator.

    Products of deterministic 0/1 matrices stay exactly 0/1 in floats, so
    membership at cut point 0 is tolerance-free.
    """
    n = d.n_states
    trans = {x: np.eye(n)[list(d.trans[x])] for x in d.alphabet}  # row s is e_{trans[x][s]}
    lam = np.array([1.0 if s in d.accepting else 0.0 for s in range(n)])
    return MoorePA(d.alphabet, trans, linalg.point_distribution(n, d.start), lam)

