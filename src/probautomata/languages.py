"""Cut-point languages of probabilistic automata.

Membership and enumeration, the cut-point construction toolbox (initial
folding, output binarization, cut-point shifting, the general-transducer
language), isolation scanning, DFA extraction under an isolation
assumption, ergodicity and contraction analysis, definiteness, stability.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import compress
from types import MappingProxyType

import numpy as np

from . import kernel, linalg
from .dfa import Dfa, Word, dfa_minimize, words_of_length, words_upto
from .generalpa import GeneralPA
from .moorepa import MoorePA, avg_reaction, avg_reaction_table
from .tolerances import DEFAULT, Tolerances

TABLE_LIMIT = 1 << 16  # the most words of one length a suffix table or a layer scan takes


def _check_cut(*cutpoints: float, delta: float | None = None) -> None:
    """Every cut point lies in [0, 1) and delta, when given, in (0, inf); NaN fails both."""
    if not all(0.0 <= c < 1.0 for c in cutpoints):
        raise ValueError(f"cut point{'s' if len(cutpoints) > 1 else ''} must lie in [0, 1)")
    if delta is not None and not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")


def member(a: MoorePA, cutpoint: float, u: Word) -> bool:
    """u belongs to the cut language iff the averaged reaction exceeds the cut."""
    _check_cut(cutpoint)
    return avg_reaction(a, tuple(u)) > cutpoint


def enumerate_members(a: MoorePA, cutpoint: float, max_len: int) -> list[Word]:
    """Members of the cut language up to max_len, in shortlex order."""
    _check_cut(cutpoint)
    table = avg_reaction_table(a, max_len)
    return list(compress(table, table.array > cutpoint))


# --- cut-point constructions ---------------------------------------------------

def fold_initial(a: MoorePA) -> MoorePA:
    """Equivalent automaton whose initial distribution is a point mass.

    One fresh state carries the old initial distribution in its outgoing
    rows; the reaction is preserved on every word, so any cut language is.
    """
    letters = kernel.block_union(np.zeros((len(a.inputs), 1, 1)), a._letters)
    letters[:, 0, 1:] = a.initial @ a._letters
    lam = np.concatenate([[float(a.initial @ a.lam)], a.lam])
    return a._like(letters, linalg.point_distribution(a.n_states + 1, 0), lam)


def binarize_output(a: MoorePA) -> MoorePA:
    """Equivalent automaton with 0/1 output column (doubles the states).

    Requires the output column inside [0, 1].  State j splits into an
    accepting and a rejecting copy reached with weights lam_j and 1-lam_j;
    the initial mass is split the same way so the reaction is preserved on
    every word, the empty one included.
    """
    lam = a.lam
    if not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise ValueError("output column must lie in [0, 1]")
    # copy 2j + c of state j is entered with weight lam_j (c = 0) or 1 - lam_j (c = 1)
    split = np.stack([lam, 1.0 - lam], axis=1).ravel()
    letters = a._letters.repeat(2, axis=1).repeat(2, axis=2) * split
    lam_b = np.tile([1.0, 0.0], a.n_states)
    return a._like(letters, a.initial.repeat(2) * split, lam_b)


def shift_cutpoint(a: MoorePA, old: float, new: float) -> MoorePA:
    """Automaton whose cut language at `new` equals a's language at `old`.

    Lowering the cut scales the reaction by new/old (state doubling with the
    initial mass split alpha / 1-alpha); raising it mixes in an absorbing
    all-accepting state.  old == new returns the automaton unchanged.
    """
    _check_cut(old, new)
    if new == old:
        return a
    if new < old:
        if old == 0.0:
            raise ValueError("cannot scale a zero cut point down")
        alpha = new / old
        mix = np.array([[alpha, 1.0 - alpha], [alpha, 1.0 - alpha]])
        init = np.concatenate([alpha * a.initial, (1.0 - alpha) * a.initial])
        lam = np.concatenate([a.lam, np.zeros(a.n_states)])
        return a._like(np.kron(mix, a._letters), init, lam)
    alpha = (new - old) / (1.0 - old)
    letters = kernel.block_union(np.ones((len(a.inputs), 1, 1)), a._letters)
    init = np.concatenate([[alpha], (1.0 - alpha) * a.initial])
    return a._like(letters, init, np.concatenate([[1.0], a.lam]))


def general_language_pa(a: GeneralPA, y: str) -> MoorePA:
    """Moore automaton whose cut language (minus eps) is the y-output language.

    The reaction on ux equals the probability that the last output is y
    after reading ux; the empty word gets reaction 0 and is never a member.
    """
    if y not in a.outputs:
        raise KeyError(f"unknown output symbol {y!r}")
    n, j, pairs = a.n_states, a.outputs.index(y), a._pairs
    rest = np.delete(pairs, j, axis=1).sum(axis=1)
    letters = np.tile(np.concatenate([rest, pairs[:, j]], axis=2), (1, 2, 1))  # [[rest, hit]] * 2
    init = np.concatenate([a.initial, np.zeros(n)])
    lam = np.concatenate([np.zeros(n), np.ones(n)])
    return MoorePA(a.inputs, dict(zip(a.inputs, letters)), init, lam)


# --- isolation -----------------------------------------------------------------

@dataclass(frozen=True)
class IsolationReport:
    """Outcome of a bounded isolation scan; never a global claim."""

    status: str                 # "refuted" | "clear"
    delta: float
    max_len: int
    witness: Word | None = None
    witness_value: float | None = None

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"


def isolation_scan(a: MoorePA, cutpoint: float, delta: float, max_len: int) -> IsolationReport:
    """Exhaustively scan |u| <= max_len for a reaction within delta of the cut.

    Whether a cut point is genuinely isolated is undecidable, so the result
    is either a concrete refutation witness or a bounded all-clear.
    Distances equal to delta up to a relative guard of 1e-9 count as clear,
    so exact-boundary instances are not refuted by rounding noise.  The
    reactions are thresholded as one array in shortlex order; the witness
    is the first word within the guard.
    """
    _check_cut(cutpoint, delta=delta)
    values = kernel.prefix_values(a.initial, a._letters, a.lam, max_len)
    hits = np.flatnonzero(np.abs(values - cutpoint) < delta * (1.0 - 1e-9))
    if hits.size:
        i = int(hits[0])
        return IsolationReport("refuted", delta, max_len, kernel.shortlex_word(a.inputs, i),
                               float(values[i]))
    return IsolationReport("clear", delta, max_len)


# --- DFA extraction under isolation ---------------------------------------------

def extract_dfa(a: MoorePA, cutpoint: float, delta: float, minimize: bool = True) -> Dfa:
    """Regular-language extraction assuming the cut point is delta-isolated.

    Breadth-first search over the state-distribution rows xi . A^u; a row is
    merged into an earlier representative when their max-abs distance is at
    most 2 delta / (n^2 max(1, |lam|)).  That radius is sufficient: for any
    continuation w, |f(uw) - f(rw)| <= n^2 |v - r| |lam| <= 2 delta, so
    under delta-isolation the two rows accept exactly the same futures.
    The search terminates because only finitely many radius-separated rows
    fit in the simplex.  The representatives are the rows of one growing
    array, in discovery order, and each successor row is compared with all
    of them at once.  The result is minimized unless disabled.
    """
    _check_cut(cutpoint, delta=delta)
    n = a.n_states
    radius = 2.0 * delta / (n * n * max(1.0, linalg.norm_abs(a.lam)))
    reps = np.empty((16, n))  # rows 0..count-1 are the representatives
    reps[0] = a.initial
    count = 1
    trans: dict[str, list[int]] = {x: [] for x in a.inputs}
    i = 0
    while i < count:  # breadth-first: representative i's successors are found i-th
        for x in a.inputs:
            row = reps[i] @ a.matrix(x)
            near = np.flatnonzero(np.abs(reps[:count] - row).max(axis=1) <= radius)
            if near.size:
                trans[x].append(int(near[0]))
                continue
            if count == len(reps):
                reps = np.concatenate([reps, np.empty_like(reps)])
            reps[count] = row
            trans[x].append(count)
            count += 1
        i += 1
    accepting = {i for i, r in enumerate(reps[:count]) if float(r @ a.lam) > cutpoint}
    raw = Dfa(alphabet=a.inputs, n_states=count, start=0, trans=trans, accepting=accepting)
    return dfa_minimize(raw) if minimize else raw


def extraction_state_bound(n_states: int, delta: float) -> float:
    """The covering bound (1 + 1/delta)^(n-1) on the number of word classes."""
    return (1.0 + 1.0 / delta) ** (n_states - 1)


# --- ergodicity and contraction ---------------------------------------------------

def ergodic_test(a: MoorePA, tol: Tolerances = DEFAULT) -> tuple[bool, str | None]:
    """Ergodicity criterion: every nonempty word matrix has a primitive pattern.

    Enumerates the finite monoid generated by the letter patterns under the
    boolean product, breadth-first; returns (False, witness word) on the
    first pattern that no boolean power makes all-ones.
    """
    letter_patterns = [linalg.bool_pattern(m, tol) for m in a._letters]
    seen: dict[bytes, Word] = {}
    queue: deque[tuple[np.ndarray, Word]] = deque()
    for x, pat in zip(a.inputs, letter_patterns):
        key = pat.tobytes()
        if key not in seen:
            seen[key] = (x,)
            queue.append((pat, (x,)))
    while queue:
        pat, word = queue.popleft()
        if not linalg.is_primitive(pat):
            return False, "".join(word) if all(len(s) == 1 for s in word) else " ".join(word)
        for x, letter in zip(a.inputs, letter_patterns):
            nxt = linalg.bool_mul(pat, letter)
            key = nxt.tobytes()
            if key not in seen:
                seen[key] = word + (x,)
                queue.append((nxt, word + (x,)))
    return True, None


def contraction_bound(a: MoorePA, check_len: int = 5, tol: Tolerances = DEFAULT):
    """Minimum letter-matrix entry c and the decay bound k -> (1-2c)^(k-1).

    The bound on the spread norm of word matrices is validated exhaustively
    for all words of length <= check_len before returning, one block of
    word matrices at a time; the error names the first violating word in
    shortlex order.
    """
    c = min(float(a.matrix(x).min()) for x in a.inputs)
    base = max(0.0, 1.0 - 2.0 * c)

    def bound(k: int) -> float:
        return 1.0 if k < 1 else base ** (k - 1)

    for k in range(1, check_len + 1):
        done = sum(len(a.inputs) ** j for j in range(k))  # the rank of the first word of length k
        for block in kernel.word_matrix_blocks(a._letters, k):
            spreads = _spreads(block)
            bad = np.flatnonzero(spreads > bound(k) + tol.zero)
            if bad.size:
                u = kernel.shortlex_word(a.inputs, done + int(bad[0]))
                raise AssertionError(
                    f"contraction bound violated at {u!r}: {float(spreads[bad[0]])} > {bound(k)}"
                )
            done += len(block)
    return c, bound


def _spreads(block) -> np.ndarray:
    """`linalg.norm_spread` of each matrix of a (b, n, n) block."""
    return (block.max(axis=1) - block.min(axis=1)).max(axis=1)


# --- definite languages --------------------------------------------------------

@dataclass(frozen=True)
class DefiniteRep:
    """Membership data of a definite language: a suffix table plus short words."""

    k: int
    suffix_table: dict[Word, bool]
    short_table: dict[Word, bool]

    def __post_init__(self):
        object.__setattr__(self, "suffix_table", MappingProxyType(dict(self.suffix_table)))
        object.__setattr__(self, "short_table", MappingProxyType(dict(self.short_table)))

    def member(self, u: Word) -> bool:
        u = tuple(u)
        if len(u) < self.k:
            return self.short_table[u]
        return self.suffix_table[u[len(u) - self.k:]]


def definite_rep(a: MoorePA, cutpoint: float, delta: float,
                 tol: Tolerances = DEFAULT) -> DefiniteRep | None:
    """Suffix-determined representation of the cut language, when derivable.

    Assumes the caller asserts delta-isolation.  With strictly positive
    letter matrices the suffix length k is the first one making
    (1-2c)^(k-1) < 2 delta / (n |lam|); for merely ergodic automata k is
    the first length whose word matrices all have spread below that
    threshold, scanned one block of word matrices at a time.  Returns None
    when neither hypothesis holds, and raises ValueError when the suffix
    table would exceed TABLE_LIMIT words.  Suffix determination is re-validated
    level by level on all words with k <= |u| <= k+2.
    """
    _check_cut(cutpoint, delta=delta)
    n = a.n_states
    threshold = 2.0 * delta / (n * max(1.0, linalg.norm_abs(a.lam)))
    c = min(float(a.matrix(x).min()) for x in a.inputs)
    k = None
    if c > tol.zero:
        base = max(0.0, 1.0 - 2.0 * c)
        k = 1
        while (base ** (k - 1) if k > 1 else 1.0) >= threshold:
            k += 1
            if k > 4096:
                return None
    else:
        ergodic, _ = ergodic_test(a, tol)
        if not ergodic:
            return None
        k = 1
        while len(a.inputs) ** k <= TABLE_LIMIT and not all(
                _spreads(block).max() < threshold
                for block in kernel.word_matrix_blocks(a._letters, k)):
            k += 1
    if len(a.inputs) ** k > TABLE_LIMIT:
        raise ValueError(f"suffix table of size |X|^{k} exceeds the limit")
    table = kernel.ShortlexTable(a.inputs, k + 2,
                                 kernel.prefix_values(a.initial, a._letters, a.lam, k + 2))
    suffix, short = table.level(k) > cutpoint, table.upto(k - 1) > cutpoint
    rep = DefiniteRep(k, dict(zip(words_of_length(a.inputs, k), suffix.tolist())),
                      dict(zip(words_upto(a.inputs, k - 1), short.tolist())))
    for extra in range(0, 3):
        # within a length, the last k letters of a word of rank r have rank r mod |X|^k
        bad = np.flatnonzero((table.level(k + extra).reshape(-1, suffix.size) > cutpoint) != suffix)
        if bad.size:
            u = table.word(table.offsets[k + extra] + bad[0])
            raise AssertionError(
                f"suffix determination failed at {u!r}; the isolation "
                "assumption does not hold at this delta"
            )
    return rep


# --- stability -----------------------------------------------------------------

STABLE_ALL = "stable_all"
POSITIVE_WORD_STABLE = "positive_word_stable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class StabilityReport:
    status: str
    word_length: int | None = None


def stability_check(a: MoorePA, tol: Tolerances = DEFAULT) -> StabilityReport:
    """Sufficient stability conditions for isolated cut points.

    StableAll when every letter matrix contracts the spread norm strictly;
    otherwise search for a layer l <= n^2 (with at most TABLE_LIMIT words) on which
    every word matrix is strictly positive, one block of word matrices at a
    time, leaving a layer at its first block with a non-positive matrix;
    otherwise Unknown (the matching necessary condition is not implemented,
    only the sufficient directions are).
    """
    worst = max(linalg.norm_spread(a.matrix(x)) for x in a.inputs)
    if worst < 1.0 - tol.zero:
        return StabilityReport(STABLE_ALL)
    n = a.n_states
    for length in range(1, n * n + 1):
        if len(a.inputs) ** length > TABLE_LIMIT:
            break
        if all(float(block.min()) > tol.zero
               for block in kernel.word_matrix_blocks(a._letters, length)):
            return StabilityReport(POSITIVE_WORD_STABLE, length)
    return StabilityReport(UNKNOWN)
