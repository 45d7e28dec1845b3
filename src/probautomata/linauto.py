"""Linear (weighted) automata over the reals and the string-function ring.

Evaluation, the block operation algebra (sum, product, convolution, scaling,
reversal, iteration), the convolution ring on finite tables with inverse and
iteration, Hankel-matrix minimal realization, reachability/distinguishability
degrees, state elimination to rational expressions, and the embeddings into
probabilistic automata.  An expression is a DAG of one node type, `Expr`,
evaluated once per shared node.  There is one embedding, the affine one; a cut
language is embedded as the affine image of the automaton shifted by the
cut, pinned at the empty word and normalised, all three by the algebra
above (Turakainen, Proc. AMS 21, 1969), so its languages do not change when
lam and the cut are scaled by 2^k.  Tabulation, Krylov spans, equivalence
and the block sum run in `kernel`, with lam as the final column.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import kernel, linalg
from .dfa import Dfa, Word, words_upto
from .moorepa import MoorePA, avg_reaction, dfa_to_pa
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True, eq=False)
class LinearAutomaton(kernel.LetterAutomaton):
    """A view of the kernel representation over arbitrary real weights.

    One matrix per input letter, an initial row and an output column lam
    (the final column); validation only checks shapes and finiteness.
    """

    dim = kernel.Automaton.n_states


la_reaction = avg_reaction  # xi . L^u . lam, the same for every LetterAutomaton


def la_table(l: LinearAutomaton, depth: int) -> "StringFunctionTable":
    """Tabulate the reaction to the given depth, sharing prefix products."""
    values = kernel.prefix_values(l.initial, l._letters, l.lam, depth)
    return StringFunctionTable(l.inputs, depth, values)


# --- string-function tables and their ring ------------------------------------

class StringFunctionTable(kernel.WordTable):
    """Finite table of a function on words, valid up to its depth (`values`).

    The ring works one length at a time: the words of length n split after j
    letters are the entries of the outer product of the levels j and n - j.
    """

    def _binary(self, other: "StringFunctionTable"):
        if self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch")
        return min(self.depth, other.depth)

    def add(self, other: "StringFunctionTable") -> "StringFunctionTable":
        depth = self._binary(other)
        return StringFunctionTable(self.alphabet, depth,
                                   self.values.upto(depth) + other.values.upto(depth))

    def sub(self, other: "StringFunctionTable") -> "StringFunctionTable":
        return self.add(other.scale(-1.0))

    def scale(self, a: float) -> "StringFunctionTable":
        return StringFunctionTable(self.alphabet, self.depth, a * self.values.array)

    def convolve(self, other: "StringFunctionTable") -> "StringFunctionTable":
        """Cauchy product over all factorizations u = u1 u2."""
        depth = self._binary(other)
        f, g = self.values, other.values
        levels = [sum(np.outer(f.level(j), g.level(n - j)).ravel() for j in range(n + 1))
                  for n in range(depth + 1)]
        return StringFunctionTable(self.alphabet, depth, np.concatenate(levels))

    def inverse(self, tol: Tolerances = DEFAULT) -> "StringFunctionTable":
        """Convolution inverse, defined when f(eps) != 0.

        Solves the triangular system g(eps) = 1/f(eps),
        g(u) = -(1/f(eps)) * sum over proper prefixes of f(u1) g(u2).
        """
        head = self.value(())
        if abs(head) <= tol.zero:
            raise ZeroDivisionError("function has no convolution inverse: f(eps) = 0")
        f, levels = self.values, [np.array([1.0 / head])]
        for n in range(1, self.depth + 1):
            acc = sum(np.outer(f.level(j), levels[n - j]).ravel() for j in range(1, n + 1))
            levels.append(-acc / head)
        return StringFunctionTable(self.alphabet, self.depth, np.concatenate(levels))

    def iterate(self, tol: Tolerances = DEFAULT) -> "StringFunctionTable":
        """Kleene-plus in the convolution ring: (chi_eps - f)^-1 - chi_eps."""
        if abs(self.value(()) - 1.0) <= tol.zero:
            raise ZeroDivisionError("iteration undefined: f(eps) = 1")
        chi = chi_eps(self.alphabet, self.depth)
        return chi.sub(self).inverse(tol).sub(chi)


def chi_eps(alphabet, depth: int) -> StringFunctionTable:
    return StringFunctionTable(tuple(alphabet), depth, {(): 1.0})


def chi_word(alphabet, word: Word, depth: int) -> StringFunctionTable:
    return StringFunctionTable(tuple(alphabet), depth, {tuple(word): 1.0})


# --- the operation algebra ------------------------------------------------------

def la_sum(l1: LinearAutomaton, l2: LinearAutomaton) -> LinearAutomaton:
    """The disjoint union started in both automata."""
    union = kernel.disjoint_union(l1, l2)
    return union._like(union._letters, np.concatenate([l1.initial, l2.initial]), union.lam)


def la_product(l1: LinearAutomaton, l2: LinearAutomaton) -> LinearAutomaton:
    """Pointwise product via the Kronecker construction."""
    if l1.inputs != l2.inputs:
        raise ValueError("alphabet mismatch")
    n = l1.dim * l2.dim
    letters = np.einsum("kij,kab->kiajb", l1._letters, l2._letters).reshape(-1, n, n)
    return l1._like(letters, np.kron(l1.initial, l2.initial), np.kron(l1.lam, l2.lam))


def la_convolution(l1: LinearAutomaton, l2: LinearAutomaton) -> LinearAutomaton:
    """Cauchy product: upper-triangular blocks glued by M = lam1 . xi2."""
    if l1.inputs != l2.inputs:
        raise ValueError("alphabet mismatch")
    n1 = l1.dim
    m = np.outer(l1.lam, l2.initial)
    letters = kernel.block_union(l1._letters, l2._letters)
    letters[:, :n1, n1:] = l1._letters @ m
    return l1._like(
        letters,
        np.concatenate([l1.initial, l1.initial @ m]),
        np.concatenate([np.zeros(n1), l2.lam]),
    )


def la_scale(a: float, l: LinearAutomaton) -> LinearAutomaton:
    return l._like(l._letters, l.initial, a * l.lam)


def la_reverse(l: LinearAutomaton) -> LinearAutomaton:
    return l._like(l._letters.transpose(0, 2, 1), l.lam, l.initial)


def la_iterate(l: LinearAutomaton, tol: Tolerances = DEFAULT) -> LinearAutomaton:
    """Kleene-plus of the reaction; defined when f_L(eps) = 0."""
    if abs(float(l.initial @ l.lam)) > tol.zero:
        raise ValueError("iteration requires f_L(eps) = 0")
    bump = np.eye(l.dim) + np.outer(l.lam, l.initial)
    return l._like(l._letters @ bump, l.initial, l.lam)


def la_zero(inputs, dim: int = 1) -> LinearAutomaton:
    inputs = tuple(inputs)
    return LinearAutomaton(
        inputs, {x: np.zeros((dim, dim)) for x in inputs}, np.zeros(dim), np.zeros(dim)
    )


def la_chi_symbol(inputs, symbol: str) -> LinearAutomaton:
    """Dimension-2 automaton realizing the indicator of a single letter."""
    inputs = tuple(inputs)
    trans = {x: np.zeros((2, 2)) for x in inputs}
    trans[symbol] = np.array([[0.0, 1.0], [0.0, 0.0]])
    return LinearAutomaton(inputs, trans, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def la_equivalent(l1: LinearAutomaton, l2: LinearAutomaton,
                  tol: Tolerances = DEFAULT) -> bool:
    """Equal reactions, decided on the disjoint union's Krylov columns."""
    return kernel.equivalent(l1, l2, tol)


def reach_degree(l: LinearAutomaton, tol: Tolerances = DEFAULT) -> int:
    """Smallest k at which the span of the rows xi . L^u, |u| <= k, stabilizes."""
    return kernel.span(l.initial, l._letters.transpose(0, 2, 1), tol).levels


def disting_degree(l: LinearAutomaton, tol: Tolerances = DEFAULT) -> int:
    """Smallest k at which the span of the columns L^u . lam stabilizes."""
    return kernel.span(l.lam, l._letters, tol).levels


# --- Hankel matrices and minimal realization ------------------------------------

def _table(f) -> StringFunctionTable:
    if not isinstance(f, StringFunctionTable):
        raise TypeError("expected a StringFunctionTable")
    return f


def hankel_block(f, row_len: int, col_len: int, alphabet=None) -> np.ndarray:
    """Finite Hankel block H[u, v] = f(uv), tags in shortlex order.

    f is either a table, read with one index of ranks (`ShortlexTable.concat`),
    or a word -> value oracle (then pass the alphabet).
    """
    if isinstance(f, StringFunctionTable):
        if row_len + col_len > f.depth:
            raise ValueError("table too shallow for the requested block")
        rows, cols = (np.arange(f.values.offsets[n + 1]) for n in (row_len, col_len))
        return f.values.array[f.values.concat(rows[:, None], cols)]
    if not callable(f):
        raise TypeError("expected a StringFunctionTable or a callable oracle")
    if alphabet is None:
        raise TypeError("a callable oracle needs an explicit alphabet")
    rows, cols = (list(words_upto(tuple(alphabet), n)) for n in (row_len, col_len))
    return np.array([[f(u + v) for v in cols] for u in rows])


@dataclass(frozen=True, eq=False)
class HankelBasis:
    """An invertible core of the Hankel matrix plus its per-letter shifts."""

    row_tags: tuple[Word, ...]
    col_tags: tuple[Word, ...]
    core: np.ndarray
    letters: dict[str, np.ndarray]
    alphabet: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "core", kernel.freeze(self.core))
        object.__setattr__(self, "letters", kernel.freeze_map(self.letters))

    @property
    def rank(self) -> int:
        return self.core.shape[0]


def _greedy_tags(vectors: np.ndarray, tags, t: Tolerances) -> list:
    """Tags of the rows that extend the span of the rows before them.

    The rows are divided by their max-abs entry, which must not be 0, so the
    test is relative to the block and the row holding that entry passes.
    """
    span = linalg.Subspace(vectors.shape[1], t)
    vectors = vectors / linalg.norm_abs(vectors)
    return [tag for tag, v in zip(tags, vectors) if span.try_add(v)]


def hankel_basis(f, rank_bound: int, tol: Tolerances = DEFAULT) -> HankelBasis:
    """Row/column basis of the Hankel block with tags of length <= rank - 1.

    Greedy pivoted selection in shortlex order; the empty word is always the
    first tag of both sides.  Raises if the observed rank exceeds the bound
    or the table is too shallow to certify the basis.
    """
    f = _table(f)
    table, depth = f.values, f.depth
    if rank_bound < 1:
        raise ValueError("rank bound must be >= 1")
    max_tag = min(rank_bound - 1, max(0, (depth - 1) // 2))
    block = hankel_block(f, max_tag, max_tag)
    if not block.any():
        raise ValueError(f"the Hankel block over the tags of length <= {max_tag} is zero")
    ranks = range(len(block))  # the ranks of the tags of length <= max_tag
    row_basis = _greedy_tags(block, ranks, tol)
    col_basis = _greedy_tags(block.T, ranks, tol)
    r = len(row_basis)
    if r != len(col_basis):
        raise ValueError("row and column ranks disagree at this depth")
    if r > rank_bound:
        raise ValueError(f"Hankel rank {r} exceeds the stated bound {rank_bound}")
    if 2 * (r - 1) + 1 > depth:
        raise ValueError("table too shallow for the per-letter shift matrices")
    core = block[np.ix_(row_basis, col_basis)]
    if np.linalg.cond(core) >= 1.0 / tol.rel:
        raise ValueError("selected core is numerically singular")
    rows, cols = np.array(row_basis)[:, None], np.array(col_basis)
    letters = {x: table.array[table.concat(table.concat(rows, table.rank((x,))), cols)]
               for x in f.alphabet}
    return HankelBasis(tuple(map(table.word, row_basis)), tuple(map(table.word, col_basis)),
                       core, letters, f.alphabet)


def e_f_dimension(f, depth: int | None = None, tol: Tolerances = DEFAULT) -> int:
    """Rank of the Hankel block: the minimal realizing dimension (0 for zero f)."""
    f = _table(f)
    depth = f.depth if depth is None else min(depth, f.depth)
    block = hankel_block(f, depth // 2, depth - depth // 2)
    if not block.any():
        return 0
    return len(_greedy_tags(block, range(len(block)), tol))


def realize(f, rank_bound: int | None = None, tol: Tolerances = DEFAULT) -> LinearAutomaton:
    """Minimal linear automaton reproducing the table.

    Built from a Hankel basis as (e1, {shift(x) . core^-1}, first core
    column); the identically-zero table realizes as the 1-dimensional zero
    automaton by convention.
    """
    f = _table(f)
    alphabet, depth = f.alphabet, f.depth
    if not f.values.array.any():
        return la_zero(alphabet)
    if rank_bound is None:
        rank_bound = max(1, (depth + 1) // 2)
    basis = hankel_basis(f, rank_bound, tol)
    core_inv = np.linalg.inv(basis.core)
    trans = {x: basis.letters[x] @ core_inv for x in alphabet}
    init = linalg.point_distribution(basis.rank, 0)
    lam = basis.core[:, 0]
    return LinearAutomaton(alphabet, trans, init, lam)


# --- rational expressions --------------------------------------------------------

class Expr(NamedTuple):
    """A rational-expression node; elimination shares nodes, so expressions are DAGs.

    `op` is the printed head: the leaves "chi-eps" and "chi" (args: the
    symbol), "scale" (coefficient, body), "+" and "conv" (terms), "iter+" (body).
    """

    op: str
    args: tuple = ()


CHI_EPS = Expr("chi-eps")
EXPR_ZERO = Expr("scale", (0.0, CHI_EPS))


def _is_zero(e: Expr) -> bool:
    return e.op == "scale" and e.args[0] == 0.0


def ex_sum(*terms: Expr) -> Expr:
    flat = []
    for e in terms:
        if not _is_zero(e):
            flat.extend(e.args if e.op == "+" else (e,))
    if not flat:
        return EXPR_ZERO
    return flat[0] if len(flat) == 1 else Expr("+", tuple(flat))


def ex_conv(*factors: Expr) -> Expr:
    flat = []
    for e in factors:
        if _is_zero(e):
            return EXPR_ZERO
        if e.op != "chi-eps":
            flat.extend(e.args if e.op == "conv" else (e,))
    if not flat:
        return CHI_EPS
    return flat[0] if len(flat) == 1 else Expr("conv", tuple(flat))


def ex_scale(a: float, e: Expr) -> Expr:
    if a == 0.0 or _is_zero(e):
        return EXPR_ZERO
    if a == 1.0:
        return e
    if e.op == "scale":
        return Expr("scale", (a * e.args[0], e.args[1]))
    return Expr("scale", (a, e))


def ex_closure(e: Expr) -> Expr:
    """chi_eps + e+, the Kleene-star shape used by elimination."""
    return CHI_EPS if _is_zero(e) else ex_sum(CHI_EPS, Expr("iter+", (e,)))


def eval_expr(e: Expr, alphabet, depth: int, tol: Tolerances = DEFAULT) -> StringFunctionTable:
    """Interpret an expression over the table ring, each shared node once."""
    alphabet = tuple(alphabet)
    eps, memo = chi_eps(alphabet, depth), {}

    def ev(e: Expr) -> StringFunctionTable:
        out = memo.get(id(e))
        if out is not None:
            return out
        op, args = e
        if op == "chi-eps":
            out = eps
        elif op == "chi":
            out = chi_word(alphabet, args, depth)
        elif op == "scale":
            out = ev(args[1]).scale(args[0])
        elif op == "+":
            out = reduce(StringFunctionTable.add, map(ev, args), eps.scale(0.0))
        elif op == "conv":
            out = reduce(StringFunctionTable.convolve, map(ev, args), eps)
        elif op == "iter+":
            out = ev(args[0])
            if not abs(out.value(())) <= tol.zero:  # NaN fails the comparison too
                raise ValueError("iteration applied to an expression with f(eps) != 0")
            out = out.iterate(tol)
        else:
            raise ValueError(f"unknown expression node {op!r}")
        memo[id(e)] = out
        return out

    return ev(e)


def to_sexpr(e: Expr) -> str:
    op, args = e
    if op == "chi-eps":
        return op
    if op == "chi":
        return f"(chi {args[0]})"
    if op == "scale":
        return f"(scale {format(args[0], '.12g')} {to_sexpr(args[1])})"
    return f"({op} " + " ".join(map(to_sexpr, args)) + ")"


def _solve_linear_system(a: list[list[Expr]], c: list[Expr]) -> list[Expr]:
    """Solve (E_eps - A) B = C over the string-function ring by elimination.

    Every diagonal entry vanishes on the empty word throughout, so the
    closure operation stays legal at each step.
    """
    n = len(c)
    if n == 1:
        return [ex_conv(ex_closure(a[0][0]), c[0])]
    star = ex_closure(a[n - 1][n - 1])
    a2 = [
        [
            ex_sum(a[i][j], ex_conv(a[i][n - 1], star, a[n - 1][j]))
            for j in range(n - 1)
        ]
        for i in range(n - 1)
    ]
    c2 = [
        ex_sum(c[i], ex_conv(a[i][n - 1], star, c[n - 1]))
        for i in range(n - 1)
    ]
    b = _solve_linear_system(a2, c2)
    tail = ex_sum(c[n - 1], *[ex_conv(a[n - 1][j], b[j]) for j in range(n - 1)])
    b.append(ex_conv(star, tail))
    return b


def la_to_rational_expr(l: LinearAutomaton) -> Expr:
    """State elimination over the string-function ring.

    Builds the letter matrix A with entries sum_x L^x_ij . chi_x, solves
    (E_eps - A) B = lam . chi_eps, and returns sum_i xi_i . B_i.
    """
    n, chi = l.dim, [Expr("chi", (x,)) for x in l.inputs]
    a = [
        [ex_sum(*[ex_scale(float(m[i, j]), c) for m, c in zip(l._letters, chi)]) for j in range(n)]
        for i in range(n)
    ]
    c = [ex_scale(float(l.lam[i]), CHI_EPS) for i in range(n)]
    b = _solve_linear_system(a, c)
    return ex_sum(*[ex_scale(float(l.initial[i]), b[i]) for i in range(n)])


# --- embeddings into probabilistic automata --------------------------------------

def _orthogonal_with_first_column(v: np.ndarray) -> np.ndarray:
    """Orthogonal Q with Q e1 = v / |v| for a nonzero v: a signed Householder reflector.

    With u = v / |v|, s the sign of u[0] (+1 at 0) and w = u + s e1, the
    reflector H = I - 2 w w^T / (w . w) maps u to -s e1, so Q = -s H.  Adding
    s to u[0] never cancels, so w . w = 2 (1 + |u[0]|) >= 2; v is divided by
    its max-abs entry before its norm is taken, so no scale of v overflows or
    underflows.
    """
    u = np.asarray(v, dtype=float) / linalg.norm_abs(v)
    u /= np.linalg.norm(u)
    s = 1.0 if u[0] >= 0.0 else -1.0
    w = u.copy()
    w[0] += s
    return s * (np.outer(w, w) * (2.0 / (w @ w)) - np.eye(u.size))


def la_to_pa_affine(l: LinearAutomaton, tol: Tolerances = DEFAULT) -> tuple[MoorePA, float]:
    """Moore automaton A and scale a with f_A(u) = a^(|u|+1) f_L(u) + 1/(n+2).

    Conjugating by p = |lam| Q, where Q is orthogonal with first column
    lam / |lam|, makes the output column e1 and keeps the letters their size
    (condition number 1).  Each letter then gets a column n that zeroes its
    row sums and a row n+1 that zeroes its column sums, and the initial row
    an entry n that zeroes its sum; scaled by a and shifted by 1/(n+2), every
    entry is positive and every row sums to 1.  The zero-output automaton
    maps to the identity-transition automaton whose reaction is constantly
    1/(n+2).
    """
    n, pad = l.dim, l.dim + 2
    start = linalg.point_distribution(pad, 0)
    if not l.lam.any():
        trans = {x: np.eye(pad) for x in l.inputs}
        return MoorePA(l.inputs, trans, start, start / pad), 1.0 / pad
    q = _orthogonal_with_first_column(l.lam)
    letters, initial = q.T @ l._letters @ q, l.initial @ (np.linalg.norm(l.lam) * q)
    a1 = np.zeros((len(l.inputs), pad, pad))
    a1[:, :n, :n] = letters
    a1[:, :n, n] = -letters.sum(axis=2)
    a1[:, n + 1, :n] = -letters.sum(axis=1)
    a1[:, n + 1, n] = letters.sum(axis=(1, 2))
    xi1 = np.concatenate([initial, [-initial.sum()], [0.0]])
    a = (1.0 / pad) / (1.0 + max(np.abs(a1).max(initial=0.0), linalg.norm_abs(xi1)))
    pa = MoorePA(l.inputs, kernel.Slices(l.inputs, a * a1 + 1.0 / pad), a * xi1 + 1.0 / pad, start)
    return pa.validate(tol), a


def la_language_pa(l: LinearAutomaton, a: float, tol: Tolerances = DEFAULT) -> tuple[MoorePA, float]:
    """Moore automaton with n+4 states whose cut language at 1/(n+4) is L_a = {u : f_L(u) > a}.

    g = f_L - a is the sum with a one-state automaton.  A second one-state
    automaton, silent after the empty word, pins g(eps) to +|lam| when eps is
    in L_a and to -|lam| when it is not (lam the output column of g), so the
    empty word is never on the cut.  Dividing by the norm of the new output
    column keeps every sign and makes the automaton scale-free: lam and a
    times 2^k give the same one.  The affine embedding, whose reaction is
    c^(|u|+1) g(u) + 1/(n+4) for some c > 0, then puts exactly the words
    with g > 0 above the cut.
    """
    def one_state(letter: float, out: float) -> LinearAutomaton:
        return LinearAutomaton(l.inputs, {x: [[letter]] for x in l.inputs}, [1.0], [out])

    g = la_sum(l, one_state(1.0, -a))
    g_eps, size = float(g.initial @ g.lam), float(np.linalg.norm(g.lam))
    g = la_sum(g, one_state(0.0, (size if g_eps > 0.0 else -size) - g_eps))
    size = float(np.linalg.norm(g.lam))
    pa, _ = la_to_pa_affine(la_scale(1.0 / size if size else 1.0, g), tol)
    return pa, 1.0 / pa.n_states


def laf_from_level_dfas(levels: list[tuple[float, Dfa]], check_depth: int = 4) -> LinearAutomaton:
    """Step function taking value a_i exactly on the i-th DFA's language.

    The DFAs must partition the set of words; the partition property is
    checked exhaustively on words up to check_depth.
    """
    if not levels:
        raise ValueError("need at least one level")
    alphabet = levels[0][1].alphabet
    if any(d.alphabet != alphabet for _, d in levels):
        raise ValueError("level DFAs must share one alphabet")
    for u in words_upto(alphabet, check_depth):
        hits = [i for i, (_, d) in enumerate(levels) if d.accepts(u)]
        if len(hits) != 1:
            raise ValueError(
                f"level DFAs do not partition the words: {u!r} matched {len(hits)} levels"
            )
    out = None
    for value, d in levels:
        p = dfa_to_pa(d)
        level = LinearAutomaton(alphabet, p.trans, p.initial, value * p.lam)
        out = level if out is None else la_sum(out, level)
    return out
