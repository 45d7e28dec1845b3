"""The weighted-automaton kernel: one automaton interface, each algorithm written once.

GeneralPA, MoorePA, LinearAutomaton and MarkovChain are one object: an
initial row (n,), one n-by-n matrix per letter stacked into a (k, n, n)
letter tensor in the class's key order, and a final column (n,).  For a
GeneralPA the letters are the (input, output) pairs and the final column is
all ones; MoorePA and LinearAutomaton (`LetterAutomaton`) read input letters
with final column lam; a MarkovChain reads signals over a start state.

`Automaton` is what the first three are views of: `_letters` in `_keys`
order, stored once by `store_letters` (`trans` maps each key to a read-only
slice), `initial`, `_final`, `_like` (the class over new arrays), `n_states`
and `_tag` (the class's word for a span tag).  Written once on it: the basis
matrix with tags, the disjoint union and equivalence, the reachable part,
the convex-state search, its checked removal and the one-pass reduction;
the per-class public functions are one-line calls.  Below them come the
same algorithms on plain arrays.

Every span is the generator `krylov`, which returns once the span fills
the space; `span` collects it, and the equivalence test consumes it and
stops at the first column on which the two initial rows differ relative to
the absolute product of the rows and the column (Tzeng's basis method,
SIAM J. Comput. 1992, ending early).

Every function on words (string-function tables, reactions, sequences) is
one `ShortlexTable`, the `prefix_values` array in shortlex order; the table
types of the other modules are validated views of it.
"""
from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import linalg
from .dfa import Word, words_upto
from .tolerances import Tolerances


def freeze(a) -> np.ndarray:
    """A read-only float copy of a; a itself if it is a read-only float array owning its data."""
    if isinstance(a, np.ndarray) and a.dtype == float and a.base is None and not a.flags.writeable:
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def freeze_map(matrices: dict) -> MappingProxyType:
    return MappingProxyType({k: freeze(m) for k, m in matrices.items()})


class Slices(dict):
    """Key -> slice map of a letter tensor, which `store_letters` takes whole
    instead of re-stacking the slices."""

    def __init__(self, keys, tensor):
        super().__init__(zip(keys, tensor))
        self.tensor = tensor


def store_letters(obj, keys) -> None:
    """Store obj.trans as obj._letters, one read-only (k, n, n) tensor in key
    order, and make obj.trans a read-only map from each key to its slice.

    Raises KeyError for a key without a matrix and ValueError for a matrix
    that is not n-by-n or a matrix whose key is not a letter.
    """
    n, trans = obj.initial.size, obj.trans
    if isinstance(trans, Slices):
        tensor = trans.tensor
    else:
        for key in keys:
            if key not in trans:
                raise KeyError(f"no matrix for {key!r}")
            if np.shape(trans[key]) != (n, n):
                raise ValueError(f"matrix for {key!r} has shape {np.shape(trans[key])}")
        if set(trans) - set(keys):
            raise ValueError(f"matrices for unknown letters {sorted(set(trans) - set(keys))}")
        tensor = np.array([trans[key] for key in keys], dtype=float).reshape(len(keys), n, n)
    tensor = freeze(np.ascontiguousarray(tensor, dtype=float))
    object.__setattr__(obj, "_letters", tensor)
    object.__setattr__(obj, "trans", MappingProxyType(dict(zip(keys, tensor))))


class Automaton:
    """The interface of every automaton class over the kernel representation.

    A subclass holds `initial` and `_letters` (`store_letters`) and defines
    `_keys` (its letters in tensor order), `_final` and `_like(letters,
    initial, final)`; it overrides `_tag` when its words are not key tuples.
    """

    @property
    def n_states(self) -> int:
        return self.initial.size

    def _tag(self, word: tuple[int, ...]):
        """The class's word for a span tag of letter indices."""
        return tuple(self._keys[k] for k in word)


@dataclass(frozen=True, eq=False)
class LetterAutomaton(Automaton):
    """Fields shared by MoorePA and LinearAutomaton.

    One matrix per input letter, stored as the slices of one letter tensor,
    the initial row and the output column lam, which is the final column of
    the shared representation.
    """

    inputs: tuple[str, ...]
    trans: dict[str, np.ndarray]
    initial: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "initial", freeze(self.initial))
        object.__setattr__(self, "lam", freeze(np.ravel(self.lam)))
        store_letters(self, self.inputs)

    _keys = property(lambda self: self.inputs)
    _final = property(lambda self: self.lam)

    def matrix(self, x: str) -> np.ndarray:
        m = self.trans.get(x)
        if m is None:
            raise KeyError(f"unknown input symbol {x!r}")
        return m

    def validate(self):
        """One output per state, every entry finite: LinearAutomaton's rule, MoorePA's first."""
        if self.lam.shape != (self.n_states,):
            raise ValueError("output column has wrong length")
        if not all(np.isfinite(v).all() for v in (self.initial, self.lam, self._letters)):
            raise ValueError("non-finite entries")
        return self

    def word_matrix(self, u: Word) -> np.ndarray:
        return word_product(np.eye(self.initial.size), map(self.matrix, u))

    def _like(self, letters, initial, final):
        """Same class and alphabet over new kernel arrays."""
        return type(self)(self.inputs, Slices(self.inputs, letters), initial, final)


# --- the algorithms on the interface ------------------------------------------------

def basis_matrix(a: Automaton, t: Tolerances):
    """Basis of the span of the raw columns L^u . final, with the class's word tags.

    Columns in breadth-first discovery order, letters in key order.  A zero
    final column spans nothing; its basis is one zero column, tagged with the
    empty word.
    """
    s = span(a._final, a._letters, t)
    if not s.columns:
        return np.zeros((a.n_states, 1)), [a._tag(())]
    return np.column_stack(s.columns), [a._tag(w) for w in s.tags]


def distributions_equivalent(a: Automaton, xi1, xi2, t: Tolerances) -> bool:
    """Initial rows xi1 and xi2 give the same function iff they agree on every Krylov column.

    Tzeng's basis method on the states reachable from |xi1| + |xi2| through
    nonzero entries (the others carry no weight, and their columns could
    swamp the span).  With d = xi1 - xi2, each column c is a complete test:
    the rows differ when |d . c| > 10 t.rel (|xi1| + |xi2|) . |c|, the
    absolute product that bounds the rounding of both rows' dot products
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.5), so
    an exact 2^k scaling of the rows or the final column changes no verdict.
    """
    xi1, xi2 = np.asarray(xi1, dtype=float), np.asarray(xi2, dtype=float)
    d, size, letters, final = xi1 - xi2, np.abs(xi1) + np.abs(xi2), a._letters, a._final
    idx = reachable_states(np.abs(letters), size, 0.0)
    if idx.size < a.n_states:  # restricting copies the letters: only when a state drops
        letters, d, final = restrict(letters, d, final, idx)
        size = size[idx]
    columns = krylov(linalg.Subspace(idx.size, t), final, letters) if idx.size else ()
    return all(abs(d @ c) <= 10.0 * t.rel * (size @ np.abs(c)) for c, _ in columns)


def disjoint_union(a1: Automaton, a2: Automaton) -> Automaton:
    """Block-diagonal automaton of a1 and a2 over one alphabet, started in a1."""
    if a1._keys != a2._keys:
        raise ValueError("alphabet mismatch")
    return a1._like(block_union(a1._letters, a2._letters),
                    np.concatenate([a1.initial, np.zeros(a2.n_states)]),
                    np.concatenate([a1._final, a2._final]))


def equivalent(a1: Automaton, a2: Automaton, t: Tolerances) -> bool:
    """Equal functions iff both initial rows agree in the disjoint union."""
    union = disjoint_union(a1, a2)
    xi2 = np.concatenate([np.zeros(a1.n_states), a2.initial])
    return distributions_equivalent(union, union.initial, xi2, t)


def reachable_part(a: Automaton, t: Tolerances) -> Automaton:
    """Keep the states with initial mass or reachable through an entry > t.zero."""
    idx = reachable_states(a._letters, a.initial, t.zero)
    return a._like(*restrict(a._letters, a.initial, a._final, idx))


def find_convex_state(a: Automaton, t: Tolerances):
    """A state whose basis row is a convex combination of the others:
    (state, coefficients over the remaining states) or None.

    States are tried from the highest index down, the elimination normal form.
    """
    if a.n_states < 2:
        return None
    return convex_state(basis_matrix(a, t)[0], t)


def remove_convex_state(a: Automaton, s: int, coeffs, t: Tolerances) -> Automaton:
    """Fold state s into the mixture coeffs of the others, after checking it.

    ValueError unless `linalg.is_convex_certificate` accepts coeffs for
    basis row s, the rule the search applies.
    """
    folded = fold(a._letters, a.initial, a._final, s, coeffs)  # checks the length
    if not linalg.is_convex_certificate(basis_matrix(a, t)[0], s, coeffs, t):
        raise ValueError("certificate is not a convex combination giving the basis row")
    return a._like(*folded)


def reduce_convex(a: Automaton, t: Tolerances) -> Automaton:
    """Reachable part with every convex-combination state folded away, in one pass.

    The basis matrix (rows: states; columns: the span of L^u . final) is
    computed once, for the reachable part.  One downward pass of
    `convex_state` then finds the highest convex state.  It is folded, its
    row deleted, and the automaton restricted to its reachable states again,
    dropping their rows too; the pass goes on below the state folded, with
    the affine test of the smaller basis.  This is safe: a fold leaves
    every surviving state's behaviour, hence its row, unchanged, and
    removing rows only shrinks the hull, so a state that failed once cannot
    pass later.  One basis and at most n certificates replace the fixed
    point's O(n) bases and O(n^2) certificates.

    Each certificate is checked once, by `convex_combination_certificate`
    against the rows held here, with the rule `remove_convex_state` applies.
    """
    a = reachable_part(a, t)
    letters, initial, final = a._letters, a.initial, a._final
    basis, _ = basis_matrix(a, t)
    hit = convex_state(basis, t)
    while hit is not None:
        s, coeffs = hit
        letters, initial, final = fold(letters, initial, final, s, coeffs)
        idx = reachable_states(letters, initial, t.zero)
        letters, initial, final = restrict(letters, initial, final, idx)
        basis = np.delete(basis, s, axis=0)[idx]
        hit = convex_state(basis, t, int(np.searchsorted(idx, s)))
    return a._like(letters, initial, final)


# --- the algorithms on plain arrays -----------------------------------------------

def word_product(start, matrices) -> np.ndarray:
    """start . M1 ... Mk, left to right, over the letter matrices of one word."""
    return functools.reduce(np.matmul, matrices, np.asarray(start, dtype=float))


WORD_BLOCK_FLOATS = 1 << 14  # floats in one block of `word_matrix_blocks` (128 KiB)


def word_matrix_blocks(letters, length: int):
    """Word matrices L^u of every word u of one length, in shortlex order, in blocks.

    Yields (b, n, n) arrays of consecutive words.  Each matrix is
    L^{prefix} . L^{last letter}, built from the identity the way
    `word_product` builds it, so it equals `word_matrix(u)` bit for bit.
    A block holds at most WORD_BLOCK_FLOATS floats (or the k children of one
    prefix, when those alone hold more), and the generator keeps one block
    per level, so memory is O(length * block) and a caller that stops at
    its first failing block computes only the prefixes that block needs.
    """
    k, n, _ = letters.shape
    if length == 0:
        yield np.eye(n)[None]
        return
    step = max(1, WORD_BLOCK_FLOATS // (k * n * n))  # prefixes per block

    def children(block):
        for i in range(0, len(block), step):
            yield np.matmul(block[i:i + step, None], letters[None]).reshape(-1, n, n)

    stack = [children(np.eye(n)[None])]  # stack[j]: the blocks of level j + 1
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
        elif len(stack) == length:
            yield block
        else:
            stack.append(children(block))


def prefix_values(initial, letters, final, depth: int) -> np.ndarray:
    """initial . L^u . final for every |u| <= depth, indexed by shortlex rank.

    One level at a time: the rows initial . L^u of a level, in shortlex
    order, times every letter give the next level's rows in shortlex order.
    Entry m of row ux is the sum over j = 0 .. n-1, in that order and
    starting from +0.0, of the products L^x[j, m] * row_u[j]; each product
    and each addition is one exactly rounded ufunc over the whole level, so
    the rows have the same bits on every CPU and BLAS kernel (only each
    level's `rows @ final` calls BLAS).  A gemm would be faster, but it
    sums in the BLAS kernel's order.  The +0.0 start makes a sum of -0.0
    products +0.0.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rows = np.asarray(initial, dtype=float)[None, :]
    letters = np.asarray(letters, dtype=float)
    k, n, _ = letters.shape
    side = letters.transpose(1, 0, 2).reshape(n, k * n)  # side[j, x n + m] = L^x[j, m]
    values = [rows @ final]
    for _ in range(depth):
        cols = np.ascontiguousarray(rows.T)  # unit-stride rows for the outer products
        acc = np.zeros((k * n, len(rows)))
        for j in range(n):
            acc += np.multiply.outer(side[j], cols[j])
        rows = acc.T.reshape(-1, n)
        values.append(rows @ final)
    out = np.concatenate(values)
    out.setflags(write=False)  # fresh, so the table built on it need not copy it
    return out


class Span(NamedTuple):
    columns: list[np.ndarray]   # raw accepted columns L^u . start
    tags: list[tuple[int, ...]]  # letter indices of u, outermost letter first
    levels: int                 # word lengths past 0 that added a column
    basis: np.ndarray           # orthonormal basis rows of the same space


def span(start, letters, t: Tolerances) -> Span:
    """Krylov span of the columns L^u . start, breadth-first by word length.

    The columns and tags are those `krylov` yields.  `levels`, the word
    lengths past 0 that added a column, is the length of the last tag: a
    level adds a column only when the level before it did.
    A forward span of the rows start . L^u is the same call on
    letters.transpose(0, 2, 1).
    """
    sub = linalg.Subspace(len(start), t)
    columns, tags = [], []
    for column, tag in krylov(sub, start, letters):
        columns.append(column)
        tags.append(tag)
    return Span(columns, tags, len(tags[-1]) if tags else 0, sub.basis)


def krylov(sub: linalg.Subspace, start, letters):
    """Yield (L^u . start, u) for each column L^u . start independent of those before it.

    Breadth-first by word length, letters in index order; u is a tuple of
    letter indices, outermost letter first.  Each level extends only the
    previous level's new columns: the older columns' images were already
    tried against a smaller span.  Returns once `sub`, which the accepted
    columns extend, fills its ambient dimension: no later column can be new.

    The independence test extends the unit basis vector accepted with each
    column and the start divided by its max-abs norm, not the raw columns:
    the rank test of `linalg.Subspace` is absolute for short vectors, and the
    raw columns of a small-weight automaton shrink with the word length.  For
    the same reason each try m . unit is divided by the power of two nearest
    the letters' largest row abs-sum on a log scale, which is exact: scaling
    every letter by 2^k changes no try, and stochastic letters are tried as
    they are.  In exact arithmetic all of these keep the same words; the
    yielded columns are raw.
    """
    scale = linalg.norm_abs(start)
    if scale == 0.0:
        return
    sub.try_add(np.asarray(start, dtype=float) / scale)
    columns, tags = [np.array(start, dtype=float)], [()]
    yield columns[0], tags[0]
    frac, e = np.frexp(np.abs(letters).sum(axis=-1).max(initial=0.0))  # frac in [1/2, 1)
    shift = int(frac < 0.5 ** 0.5) - int(e)
    tries = np.ldexp(letters, shift) if shift else letters  # exact: (2^s m) . u = 2^s (m . u)
    last = [0]
    while last and sub.dim < sub.ambient_dim:
        new = []
        for i in last:
            unit = sub.basis[i]
            for k, m in enumerate(tries):
                if sub.try_add(m @ unit):
                    new.append(len(columns))
                    columns.append(letters[k] @ columns[i])
                    tags.append((k,) + tags[i])
                    yield columns[-1], tags[-1]
                    if sub.dim == sub.ambient_dim:
                        return
        last = new


def reachable_states(letters, initial, floor: float) -> np.ndarray:
    """Indices of the states with initial entry > floor or reachable through an entry > floor."""
    step = (letters > floor).any(axis=0)
    alive = initial > floor
    while True:
        grown = alive | step[alive].any(axis=0)
        if np.array_equal(grown, alive):
            return np.flatnonzero(alive)
        alive = grown


def restrict(letters, initial, final, idx):
    """The automaton on the states idx, its letter tensor in C order."""
    return letters.take(idx, axis=1).take(idx, axis=2), initial[idx], final[idx]


def convex_state(basis, t: Tolerances, below: int | None = None):
    """Highest-index basis row, below `below` if given, that is a convex
    combination of the others: (s, coefficients over the other rows) or None.

    Prune, fit, check.  The affine test comes first: if row s is the mixture
    x of the others, e_s - x is a left null vector of [basis | 1], so e_s has
    squared weight >= 1/2 in that null space.  One thin SVD, at the
    certificate's scale of 10 tol.rel relative to the basis, gives the weight
    1 - |U_r[s]|^2 of every row; only rows of weight over 1/4 ask
    `linalg.convex_combination_certificate`, which makes its own box test,
    nonnegative least-squares fit and residual check.
    """
    u, sv, _ = np.linalg.svd(np.column_stack([basis, np.ones(len(basis))]), full_matrices=False)
    u = u[:, sv > t.rel * max(1.0, linalg.norm_abs(basis)) * 10.0]
    for s in np.flatnonzero(1.0 - np.einsum("ij,ij->i", u, u)[:below] > 0.25)[::-1]:
        coeffs = linalg.convex_combination_certificate(basis, s, t)
        if coeffs is not None:
            return int(s), coeffs
    return None


def fold(letters, initial, final, s: int, coeffs):
    """Eliminate state s, rewriting it as the mixture coeffs of the others.

    With E the identity minus row s, each letter becomes
    E . L . (E^T + e_s coeffs): the mass entering s is passed on to the
    states of the mixture.  The initial row is folded the same way.
    """
    n = initial.size
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (n - 1,):
        raise ValueError("certificate has wrong length")
    others = np.delete(np.arange(n), s)
    kept, rest, final = restrict(letters, initial, final, others)
    return kept + letters[:, others, s, None] * coeffs, rest + initial[s] * coeffs, final


def block_union(letters1, letters2) -> np.ndarray:
    """Block-diagonal letter tensor of two automata over one alphabet."""
    k, n1, _ = letters1.shape
    n2 = letters2.shape[1]
    out = np.zeros((k, n1 + n2, n1 + n2))
    out[:, :n1, :n1] = letters1
    out[:, n1:, n1:] = letters2
    return out


# --- shortlex tables ---------------------------------------------------------------

def shortlex_word(alphabet, rank: int) -> Word:
    """The word of a shortlex rank, where rank(()) = 0 and rank(ux) = 1 + k rank(u) + index(x)."""
    letters = []
    while rank > 0:
        rank, i = divmod(rank - 1, len(alphabet))
        letters.append(alphabet[i])
    return tuple(letters[::-1])


class ShortlexTable(Mapping):
    """A function on the words of length <= depth: one read-only float array in shortlex order.

    With k = |alphabet|, rank(()) = 0 and rank(ux) = 1 + k rank(u) + index(x), so
    the words of length n have the ranks offsets[n] .. offsets[n+1] - 1 and
    rank(uv) = rank(u) k^|v| + rank(v).  As a Mapping it is a lazy, read-only
    view from every word up to the depth to its value.  `values` is the array,
    or a Mapping from words in which a missing word reads 0.0 (and a word
    beyond the depth is ignored).
    """

    def __init__(self, alphabet, depth: int, values):
        self.alphabet, self.depth = tuple(alphabet), int(depth)
        self._index = {x: i for i, x in enumerate(self.alphabet)}
        self.offsets = np.cumsum([0] + [len(self.alphabet) ** n for n in range(self.depth + 1)])
        if isinstance(values, Mapping):
            array = np.zeros(self.offsets[-1])
            for key, value in values.items():
                word = self._word(key)
                if len(word) <= self.depth:
                    array[self.rank(word)] = value
        else:
            array = np.asarray(values, dtype=float)
            if array.shape != (self.offsets[-1],):
                raise ValueError(f"{array.shape} values for {self.offsets[-1]} words")
        self.array = freeze(array)

    def level(self, n: int) -> np.ndarray:
        """Values of the words of length n."""
        return self.array[self.offsets[n]:self.offsets[n + 1]]

    def upto(self, n: int) -> np.ndarray:
        """Values of the words of length <= n."""
        return self.array[:self.offsets[n + 1]]

    def children(self) -> np.ndarray:
        """Row r: the values of the k extensions of the word of rank r, if shorter than depth."""
        return self.array[1:].reshape(-1, len(self.alphabet))

    def rank(self, word) -> int:
        """Index of a word in the array; KeyError if the table has no such word."""
        if len(word) > self.depth or any(x not in self._index for x in word):
            raise KeyError(word)
        return functools.reduce(lambda r, x: 1 + len(self.alphabet) * r + self._index[x], word, 0)

    def word(self, rank: int) -> Word:
        return shortlex_word(self.alphabet, rank)

    def concat(self, left, right) -> np.ndarray:
        """Ranks of the words uv for the ranks of u in left and v in right, broadcast."""
        lengths = np.searchsorted(self.offsets, right, side="right") - 1
        return left * len(self.alphabet) ** lengths + right

    def after(self, prefix) -> np.ndarray:
        """Values f(prefix w) for |w| <= depth - |prefix|, in shortlex order of w."""
        suffixes = np.arange(self.offsets[self.depth - len(prefix) + 1])
        return self.array[self.concat(self.rank(prefix), suffixes)]

    def _word(self, key) -> Word:
        return key

    def __getitem__(self, key) -> float:
        return float(self.array[self.rank(self._word(key))])

    def __iter__(self):
        return iter(words_upto(self.alphabet, self.depth))

    def values(self) -> list[float]:
        """The values in `__iter__` order, read from the array without ranking a word."""
        return self.array.tolist()

    def items(self) -> list[tuple]:
        return list(zip(self, self.array.tolist()))

    def __len__(self) -> int:
        return self.array.size

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.alphabet!r}, {self.depth}, {self.array!r})"


class PairShortlexTable(ShortlexTable):
    """A ShortlexTable over the letters (x, y), keyed by the pairs (u, v) of equal length."""

    def _word(self, key) -> Word:
        u, v = key
        if len(u) != len(v):
            raise KeyError(key)
        return tuple(zip(u, v))

    def __iter__(self):
        return (tuple(zip(*w)) or ((), ()) for w in words_upto(self.alphabet, self.depth))


@dataclass(frozen=True, eq=False)
class WordTable:
    """Fields of StringFunctionTable and RandomSequence; `values` becomes a ShortlexTable."""

    alphabet: tuple[str, ...]
    depth: int
    values: ShortlexTable = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "values", ShortlexTable(self.alphabet, self.depth, self.values))

    def value(self, u: Word) -> float:
        u = tuple(u)
        if len(u) > self.depth:
            raise KeyError(f"word beyond table depth {self.depth}: {u}")
        return self.values.get(u, 0.0)
