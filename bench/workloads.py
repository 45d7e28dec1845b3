"""Seeded operation lists for the benchmark workloads.

Each build function turns a seed into a fixed list of operations.  An
operation is a call into probautomata's public API plus a check of its
result; run.py times the call and runs the check outside the timed interval.  Instance
sizes follow a fixed schedule, so a seed changes the random matrices and
permutations but not the mix of shapes, which keeps runs with different
seeds comparable.

Inputs come from the generators in ``tests/gen.py``; the only generators
defined here are the state permutation, the perturbed copies, and the two
small families whose verdicts are known in advance (two-map automata for DFA
extraction, cycle automata for stability).
"""
from __future__ import annotations

import contextlib
import io as stdio
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import probautomata as pa
from probautomata import cli
from probautomata import io as pio
from probautomata.dfa import words_upto

REL_TOL = 1e-12  # tables against direct evaluation: same arithmetic, so near-exact
# A reduction folds LP coefficients certified to 1e-9 relative, which can move
# reactions by a few 1e-8; a wrong fold moves them by far more.
REDUCTION_TOL = 1e-6
SPOT_WORDS = 32  # sampled words per spot check


@dataclass
class Op:
    kind: str
    shape: dict
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    round_len: int  # operations per round; the op list is whole rounds
    round_s: float  # seconds per round at the seed commit; sizes the traced pass


# --- helpers -------------------------------------------------------------------

def permute_states(rng, a, planted: int = 0):
    """Relabel the states of a MoorePA or GeneralPA by a seeded permutation.

    With `planted` = k, the last k states land one in each of k equal bins
    of the new order, at a seeded index within the bin, and the others are
    shuffled around them.
    """
    n = a.n_states
    edges = np.linspace(0, n, planted + 1).astype(int)
    slots = [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
    free = np.ones(n, dtype=bool)
    free[slots] = False
    p = np.empty(n, dtype=int)
    p[slots] = n - planted + rng.permutation(planted)
    p[free] = rng.permutation(n - planted)
    trans = {key: m[np.ix_(p, p)] for key, m in a.trans.items()}
    if isinstance(a, pa.MoorePA):
        return pa.MoorePA(a.inputs, trans, a.initial[p], a.lam[p])
    return pa.GeneralPA(a.inputs, a.outputs, trans, a.initial[p])


def perturb_moore(a: pa.MoorePA) -> pa.MoorePA:
    """Copy with the output of the heaviest initial state raised by 0.1."""
    lam = a.lam.copy()
    lam[int(np.argmax(a.initial))] += 0.1
    return pa.MoorePA(a.inputs, a.trans, a.initial, lam)


def perturb_general(g: pa.GeneralPA) -> pa.GeneralPA:
    """Copy whose heaviest initial state swaps its first two outputs on the first input."""
    j = int(np.argmax(g.initial))
    x, (y0, y1) = g.inputs[0], g.outputs[:2]
    trans = {key: m.copy() for key, m in g.trans.items()}
    trans[(x, y0)][j], trans[(x, y1)][j] = g.matrix(x, y1)[j], g.matrix(x, y0)[j]
    return pa.GeneralPA(g.inputs, g.outputs, trans, g.initial)


def sample_words(rng, alphabet, max_len: int, count: int = SPOT_WORDS, min_len: int = 0):
    lengths = rng.integers(min_len, max_len + 1, size=count)
    return [tuple(alphabet[i] for i in rng.integers(len(alphabet), size=k)) for k in lengths]


def sample_pairs(rng, inputs, outputs, max_len: int):
    """Input/output word pairs of equal length."""
    return [(u, tuple(outputs[i] for i in rng.integers(len(outputs), size=len(u))))
            for u in sample_words(rng, inputs, max_len)]


def n_words(letters: int, depth: int, start: int = 0) -> int:
    return sum(letters**k for k in range(start, depth + 1))


def close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-15)


def spread(m: np.ndarray) -> float:
    return float(np.max(m.max(axis=0) - m.min(axis=0)))


# --- reduce: LP-driven reduction and equivalence on large automata ---------------

# States of the MoorePA and of the GeneralPA in each slot of a round.  Each
# MoorePA has REDUCE_PLANTED planted convex states, and its letter matrices
# have half their entries zeroed:
# dense random letter matrices (gen.random_moore_pa) mix so fast that the
# averaged basis is ill-conditioned, and `reduce_avg` then keeps a planted
# state in about one automaton in 100 (see "Known defect" in the README);
# such inputs would fail their checks at this commit.
REDUCE_SIZES = (24, 28, 32, 36, 40)
REDUCE_PLANTED = 3
REDUCE_SPARSITY = 0.5
REDUCE_ROUNDS = 3


def _keep(held: dict, reduce_fn):
    """Run a reduction and keep its result for the equivalence operation that follows."""
    def run():
        held["reduction"] = reduce_fn()
        return held["reduction"]
    return run


def _moore_reduction_check(a, n_min, words):
    def check(r):
        return r.n_states == n_min and all(
            abs(pa.avg_reaction(r, u) - pa.avg_reaction(a, u)) <= REDUCTION_TOL for u in words)
    return check


def _general_reduction_check(g, pairs):
    def check(r):
        return r.n_states == g.n_states and all(
            abs(pa.reaction(r, u, v) - pa.reaction(g, u, v)) <= REDUCTION_TOL
            for u, v in pairs)
    return check


def _verdict(expected: bool):
    return lambda got: got is expected


def build_reduce(seed: int) -> Workload:
    """Each slot: reduce, then test the original against its reduction and a perturbed copy.

    The equivalence against the reduction uses the result of the reduction
    just before it, as a user verifying a reduction would.  The MoorePA is
    also tested against a relabelled copy of itself.
    """
    ops = []
    k = REDUCE_PLANTED
    for r in range(REDUCE_ROUNDS):
        for slot, n in enumerate(REDUCE_SIZES):
            rng = np.random.default_rng([seed, r, slot])
            a = pa.MoorePA(
                gen.INPUTS[:2],
                {x: gen.random_stochastic(rng, n - k, REDUCE_SPARSITY) for x in gen.INPUTS[:2]},
                gen.random_distribution(rng, n - k), rng.random(n - k))
            for _ in range(k):
                a = gen.plant_convex_state(rng, a)
            # plant_convex_state appends each removable state last, where the
            # top-down scan finds it with its first LP; real inputs are not
            # ordered that way.  Spreading the k planted states over the
            # order makes each pass of the fixed point rescan from the top.
            a = permute_states(rng, a, planted=k)
            g = gen.random_general_pa(rng, n, 3, 3)
            words = sample_words(rng, a.inputs, 16)
            pairs = sample_pairs(rng, g.inputs, g.outputs, 12)
            moore, general = {"n": n, "letters": 2}, {"n": n, "letters": "3x3"}
            held_a, held_g = {}, {}
            ops += [
                Op("reduce_avg", {**moore, "removable": k, "expected_states": n - k},
                   _keep(held_a, lambda a=a: pa.reduce_avg(a)),
                   _moore_reduction_check(a, n - k, words)),
                Op("avg_equivalent", {**moore, "against": "its reduction", "expected": True},
                   lambda a=a, h=held_a: pa.avg_equivalent(a, h["reduction"]), _verdict(True)),
                Op("avg_equivalent", {**moore, "against": "perturbed copy", "expected": False},
                   lambda a=a, b=perturb_moore(a): pa.avg_equivalent(a, b), _verdict(False)),
                Op("avg_equivalent", {**moore, "against": "relabelled copy", "expected": True},
                   lambda a=a, b=permute_states(rng, a): pa.avg_equivalent(a, b), _verdict(True)),
                Op("reduce", {**general, "removable": 0, "expected_states": n},
                   _keep(held_g, lambda g=g: pa.reduce(g)),
                   _general_reduction_check(g, pairs)),
                Op("equivalent", {**general, "against": "its reduction", "expected": True},
                   lambda g=g, h=held_g: pa.equivalent(g, h["reduction"]), _verdict(True)),
                Op("equivalent", {**general, "against": "perturbed copy", "expected": False},
                   lambda g=g, b=perturb_general(g): pa.equivalent(g, b), _verdict(False)),
            ]
    return Workload("reduce", ops, 7 * len(REDUCE_SIZES), 2.7)


# --- words: deep word tabulation on small automata --------------------------------

WORDS_DEPTH = 9       # 3 letters: 29524 words per table
WORDS_ROUNDS = 12
GENERAL_DEPTH = 6     # 2x2 letter pairs: 5461 pairs
LA_DEPTH = 12         # 2 letters: 8191 words
DFA_CHECK_LEN = 8
DFA_DELTA = 0.002
DFA_RATIO = 0.4       # contraction of each letter map of the two-map automaton
DFA_SPAN = 0.5        # distance between the two maps' fixed points
CONTRACTION_LEN = 7
CYCLE_STATES = 6


def cycle_automaton(rng, n: int) -> pa.MoorePA:
    """Three letters, each a lazy walk around one n-cycle; letter c leaves state 0 surely.

    Letter c's deterministic row gives it spread 1, so the letterwise
    contraction test fails and `stability_check` scans word layers.  Every
    word of length n is entrywise positive and some shorter word is not, so
    the verdict is a positive layer at length n, whatever the weights.
    """
    trans = {}
    for x in gen.INPUTS:
        stay = rng.uniform(0.2, 0.8, n)
        m = np.zeros((n, n))
        m[np.arange(n), np.arange(n)] = stay
        m[np.arange(n), (np.arange(n) + 1) % n] = 1.0 - stay
        if x == "c":
            m[0] = 0.0
            m[0, 1] = 1.0
        trans[x] = m
    return pa.MoorePA(gen.INPUTS, trans, gen.random_distribution(rng, n), rng.random(n))


def stability_oracle(a: pa.MoorePA):
    """Stability verdict by batched products, and the word matrices it must inspect.

    Recomputes `stability_check` independently: each layer's word matrices
    come from one stacked product with the previous layer, in shortlex order.
    """
    zero = pa.get_default().zero
    letters = np.stack([a.matrix(x) for x in a.inputs])
    if max(spread(m) for m in letters) < 1.0 - zero:
        return ("stable_all", None), 0
    n, k = a.n_states, len(a.inputs)
    layer = np.eye(n)[None]
    touched = 0
    for length in range(1, n * n + 1):
        if k**length > 1 << 16:
            break
        layer = np.matmul(layer[:, None], letters[None]).reshape(-1, n, n)
        positive = layer.min(axis=(1, 2)) > zero
        if positive.all():
            return ("positive_word_stable", length), touched + len(layer)
        touched += int(np.argmin(positive)) + 1
    return ("unknown", None), touched


def _table_check(a, depth, words):
    entries = n_words(len(a.inputs), depth)

    def check(table):
        return len(table) == entries and all(close(table[u], pa.avg_reaction(a, u)) for u in words)
    return check


def _members_check(a, cut, depth, words):
    def check(members):
        found = set(members)
        return (
            len(found) == len(members)
            and all(len(u) <= depth for u in members)
            and all((u in found) == (pa.avg_reaction(a, u) > cut) for u in words)
        )
    return check


def _reaction_table_check(g, depth, pairs):
    entries = n_words(len(g.inputs) * len(g.outputs), depth)

    def check(table):
        return len(table.values) == entries and all(
            close(table.values[(u, v)], pa.reaction(g, u, v)) for u, v in pairs
        )
    return check


def _realize_check(l, depth, words):
    entries = n_words(len(l.inputs), depth)

    def check(result):
        table, realized = result
        scale = max(1.0, max(abs(v) for v in table.values.values()))
        return (
            len(table.values) == entries
            and all(close(table.value(u), pa.la_reaction(l, u)) for u in words)
            and realized.dim <= l.dim
            and all(abs(pa.la_reaction(realized, u) - table.value(u)) <= 1e-9 * scale
                    for u in words)
        )
    return check


def _dfa_check(p, cut, shape):
    words = list(words_upto(p.inputs, DFA_CHECK_LEN))

    def check(result):
        raw, minimized = result
        shape["words"] = raw.n_states * len(p.inputs)
        truth = [pa.member(p, cut, u) for u in words]
        return (
            minimized.n_states <= raw.n_states
            and all(raw.accepts(u) == t for u, t in zip(words, truth))
            and all(minimized.accepts(u) == t for u, t in zip(words, truth))
        )
    return check


def _contraction_check(q, words):
    c_min = min(float(q.matrix(x).min()) for x in q.inputs)

    def check(result):
        c, bound = result
        return c == c_min and all(
            spread(q.word_matrix(u)) <= bound(len(u)) + 1e-12 for u in words
        )
    return check


def _la_table_then_realize(l):
    table = pa.la_table(l, LA_DEPTH)
    return table, pa.realize(table)


def _extract_then_minimize(p, cut):
    raw = pa.extract_dfa(p, cut, DFA_DELTA, minimize=False)
    return raw, pa.dfa_minimize(raw)


def two_map_automaton(rng):
    """Positive 2-state, 2-letter automaton whose cut point is isolated by construction.

    With p the probability of state 0, letter x maps p to q_x + RATIO (p - q_x).
    The fixed points lie SPAN apart and the initial distribution sits on q_a,
    so every reachable p lies in the Cantor set of the two maps, which leaves
    the middle gap of width SPAN (1 - 2 RATIO) empty.  The cut point is the
    reaction at the middle of that gap, at least SPAN (1/2 - RATIO) / 2 =
    0.0125 from every reaction, so DFA_DELTA = 0.002 isolation holds, and the
    extraction always meets 128 representatives.
    """
    q_a = rng.uniform(0.05, 0.95 - DFA_SPAN)
    q_b = q_a + DFA_SPAN
    trans = {
        x: np.array([[DFA_RATIO + (1 - DFA_RATIO) * q, (1 - DFA_RATIO) * (1 - q)],
                     [(1 - DFA_RATIO) * q, 1 - (1 - DFA_RATIO) * q]])
        for x, q in zip(gen.INPUTS[:2], (q_a, q_b))
    }
    lam = np.array([rng.uniform(0.0, 0.25), rng.uniform(0.75, 1.0)])[rng.permutation(2)]
    a = pa.MoorePA(gen.INPUTS[:2], trans, np.array([q_a, 1 - q_a]), lam)
    mid = (q_a + q_b) / 2.0
    return a, float(np.array([mid, 1 - mid]) @ lam)


def build_words(seed: int) -> Workload:
    ops = []
    for r in range(WORDS_ROUNDS):
        rng = np.random.default_rng([seed, r])
        n = 4 + r % 3
        deep = {"n": n, "letters": 3, "depth": WORDS_DEPTH, "words": n_words(3, WORDS_DEPTH)}

        a = gen.random_moore_pa(rng, n, 3)
        ops.append(Op("avg_reaction_table", dict(deep),
                      lambda a=a: pa.avg_reaction_table(a, WORDS_DEPTH),
                      _table_check(a, WORDS_DEPTH, sample_words(rng, a.inputs, WORDS_DEPTH))))

        b = gen.random_moore_pa(rng, n, 3)
        cut = float(np.mean(b.lam))
        ops.append(Op("enumerate_members", {**deep, "cutpoint": cut},
                      lambda b=b, cut=cut: pa.enumerate_members(b, cut, WORDS_DEPTH),
                      _members_check(b, cut, WORDS_DEPTH,
                                     sample_words(rng, b.inputs, WORDS_DEPTH))))

        # outputs in [0, 0.5] keep every reaction 0.25 away from the cut 0.75,
        # so the scan visits every word and reports clear
        c0 = gen.random_moore_pa(rng, n, 3)
        c = pa.MoorePA(c0.inputs, c0.trans, c0.initial, 0.5 * c0.lam)
        ops.append(Op("isolation_scan", {**deep, "expected": "clear"},
                      lambda c=c: pa.isolation_scan(c, 0.75, 0.2, WORDS_DEPTH),
                      lambda report: report.status == "clear"))

        for _ in range(2):
            g = gen.random_general_pa(rng, 3 + r % 3, 2, 2)
            pairs = sample_pairs(rng, g.inputs, g.outputs, GENERAL_DEPTH)
            ops.append(Op("reaction_table",
                          {"n": g.n_states, "letters": "2x2", "depth": GENERAL_DEPTH,
                           "words": n_words(4, GENERAL_DEPTH)},
                          lambda g=g: pa.reaction_table(g, GENERAL_DEPTH),
                          _reaction_table_check(g, GENERAL_DEPTH, pairs)))

        l = gen.random_la(rng, 3 + r % 2, 2)
        ops.append(Op("la_table_realize",
                      {"n": l.dim, "letters": 2, "depth": LA_DEPTH, "words": n_words(2, LA_DEPTH),
                       "expected": f"dim <= {l.dim}"},
                      lambda l=l: _la_table_then_realize(l),
                      _realize_check(l, LA_DEPTH, sample_words(rng, l.inputs, LA_DEPTH))))

        p, cut = two_map_automaton(rng)
        shape = {"n": 2, "letters": 2, "cutpoint": cut, "delta": DFA_DELTA,
                 "expected": f"agrees with member() up to length {DFA_CHECK_LEN}"}
        ops.append(Op("extract_dfa", shape,
                      lambda p=p, cut=cut: _extract_then_minimize(p, cut),
                      _dfa_check(p, cut, shape)))

        q = pa.MoorePA(gen.INPUTS, {x: gen.random_positive_stochastic(rng, 4) for x in gen.INPUTS},
                       gen.random_distribution(rng, 4), rng.random(4))
        ops.append(Op("contraction_bound",
                      {"n": 4, "letters": 3, "depth": CONTRACTION_LEN,
                       "words": n_words(3, CONTRACTION_LEN, start=1)},
                      lambda q=q: pa.contraction_bound(q, CONTRACTION_LEN),
                      _contraction_check(q, sample_words(rng, q.inputs, CONTRACTION_LEN, min_len=1))))

        s = cycle_automaton(rng, CYCLE_STATES)
        expected, touched = stability_oracle(s)
        ops.append(Op("stability_check",
                      {"n": CYCLE_STATES, "letters": 3, "words": touched, "expected": list(expected)},
                      lambda s=s: pa.stability_check(s),
                      lambda report, e=expected: (report.status, report.word_length) == e))
    return Workload("words", ops, len(ops) // WORDS_ROUNDS, 0.7)


# --- cli_small: the command-line front end on small files --------------------------

# The inputs the golden transcripts were recorded with (tests/test_acceptance.py).
CANTOR_REACT_INPUTS = ("", "0", "2", "20", "02", "22", "202", "0220", "22022", "202202")
RABIN_KS = range(1, 11)
CLI_ROUNDS = 3


def call_cli(argv):
    """Run ``cli.main`` in-process; return its exit code and standard output."""
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _lines(*lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _write_inputs(seed: int, work: Path) -> dict[str, str]:
    rng = np.random.default_rng([seed, 0])
    moore = gen.random_moore_pa(rng, 4, 2)
    base = gen.random_moore_pa(rng, 4, 2)
    planted = permute_states(rng, gen.plant_convex_state(rng, base))
    positive = pa.MoorePA(gen.INPUTS[:2],
                          {x: gen.random_positive_stochastic(rng, 3) for x in gen.INPUTS[:2]},
                          gen.random_distribution(rng, 3), rng.random(3))
    chain = pa.MarkovChain(("a", "b"), gen.random_stochastic(rng, 3), ("a", "b", "a"),
                           gen.random_distribution(rng, 3))
    objects = {
        "moore": moore,
        "moore_bad": perturb_moore(moore),
        "base": base,
        "planted": planted,
        "positive": positive,
        "general": gen.random_general_pa(rng, 3, 2, 2),
        "table": pa.la_table(gen.random_la(rng, 2, 2), 6),
        "la": gen.random_la(rng, 2, 2),
        "chain": chain,
    }
    paths = {}
    for name, obj in objects.items():
        paths[name] = str(work / f"{name}.json")
        pio.save(obj, paths[name])
    return paths


def _expected_commands(root: Path, work: Path, files: dict[str, str]):
    """(argv, expected exit code, expected stdout) for one round of commands."""
    data, golden = root / "tests" / "data", root / "tests" / "golden"
    cantor, rabin, three = (str(data / f) for f in ("cantor.json", "rabin.json", "three_state.json"))
    fmt, fmt_word = cli.fmt, cli.fmt_word
    load = pio.load
    cmds = []

    lines = (golden / "cantor_react.txt").read_text().splitlines()
    cmds += [(["react", cantor, "--input", u], 0, _lines(line))
             for u, line in zip(CANTOR_REACT_INPUTS, lines, strict=True)]
    lines = (golden / "rabin_react.txt").read_text().splitlines()
    cmds += [(["react", rabin, "--input", "x" * k, "--output", "y" * k], 0, _lines(line))
             for k, line in zip(RABIN_KS, lines, strict=True)]
    lines = (golden / "cantor_extract.txt").read_text().splitlines()
    cmds.append((["extract-dfa", cantor, "--cutpoint", "0.5", "--delta", "0.16666666666666666"],
                 0, _lines(lines[0])))
    cmds.append((["lang", "enum", cantor, "--cutpoint", "0.5", "--max-len", "3"],
                 0, _lines(*lines[1:])))

    for path in (cantor, rabin, three, files["moore"]):
        obj = load(path)
        cmds.append((["validate", path], 0,
                     _lines(f"ok: kind={pio.to_document(obj)['kind']} states={obj.initial.size}")))

    moore = load(files["moore"])
    cmds.append((["react", files["moore"], "--input", "abba"], 0,
                 _lines(fmt(pa.avg_reaction(moore, ("a", "b", "b", "a"))))))
    general = load(files["general"])
    cmds.append((["react", files["general"], "--input", "aba", "--output", "pqq"], 0,
                 _lines(fmt(pa.reaction(general, ("a", "b", "a"), ("p", "q", "q"))))))

    for name, path in (("planted", files["planted"]), ("three", three)):
        obj = load(path)
        reduced = pa.reduce_avg(obj)
        cmds.append((["reduce", path, "-o", str(work / f"{name}_reduced.json")], 0,
                     _lines(f"states: {obj.n_states} -> {reduced.n_states}")))

    for a_path, b_path in ((files["planted"], files["base"]), (files["moore"], files["moore_bad"])):
        same = pa.avg_equivalent(load(a_path), load(b_path))
        cmds.append((["equiv", a_path, b_path], 0 if same else 1,
                     _lines("equivalent" if same else "not equivalent")))

    cut = float(np.mean(moore.lam))
    members = pa.enumerate_members(moore, cut, 5)
    cmds.append((["lang", "enum", files["moore"], "--cutpoint", repr(cut), "--max-len", "5"], 0,
                 _lines(*(fmt_word(u) for u in members))))

    for path, cutpoint, delta, max_len in ((cantor, 0.5, 0.1666, 8), (files["moore"], cut, 0.01, 6)):
        report = pa.isolation_scan(load(path), cutpoint, delta, max_len)
        text = (f"refuted: u={fmt_word(report.witness)} f={fmt(report.witness_value)}"
                if report.refuted else f"clear up to {max_len} (delta={fmt(delta)})")
        cmds.append((["isolate", path, "--cutpoint", repr(cutpoint), "--delta", repr(delta),
                      "--max-len", str(max_len)], 1 if report.refuted else 0, _lines(text)))

    positive = load(files["positive"])
    pcut = float(np.mean(positive.lam))
    raw = pa.extract_dfa(positive, pcut, 0.01, minimize=False)
    minimized = pa.extract_dfa(positive, pcut, 0.01)
    bound = pa.extraction_state_bound(positive.n_states, 0.01)
    cmds.append((["extract-dfa", files["positive"], "--cutpoint", repr(pcut), "--delta", "0.01"], 0,
                 _lines(f"states: raw={raw.n_states} minimized={minimized.n_states} "
                        f"bound={fmt(bound)}")))

    for path in (cantor, files["positive"]):
        ok, witness = pa.ergodic_test(load(path))
        cmds.append((["ergodic", path], 0 if ok else 1,
                     _lines("ergodic" if ok else f"not ergodic (witness: {witness})")))
        report = pa.stability_check(load(path))
        if report.status == "stable_all":
            code, text = 0, "stable (all letter matrices contract)"
        elif report.status == "positive_word_stable":
            code, text = 0, f"stable (positive words, l={report.word_length})"
        else:
            code, text = 1, "unknown"
        cmds.append((["stable", path], code, _lines(text)))

    realized = pa.realize(load(files["table"]))
    cmds.append((["la", "realize", files["table"], "-o", str(work / "realized.json")], 0,
                 _lines(f"dim: {realized.dim}")))
    expr = pa.to_sexpr(pa.la_to_rational_expr(load(files["la"])))
    cmds.append((["la", "expr", files["la"]], 0, _lines(expr)))
    chain = load(files["chain"])
    cmds.append((["mc", "eval", files["chain"], "--input", "abba"], 0,
                 _lines(fmt(pa.mc_function(chain, ("a", "b", "b", "a"))))))
    return cmds


def build_cli(seed: int, root: Path, work: Path) -> Workload:
    files = _write_inputs(seed, work)
    cmds = _expected_commands(root, work, files)
    ops = []
    for argv, code, text in cmds:
        words = 2 if argv[0] in ("lang", "la", "mc") else 1
        command = " ".join(argv[:words])
        shape = {"file": Path(argv[words]).name, "expected_exit": code}
        ops.append(Op(command, shape, lambda argv=argv: call_cli(argv),
                      lambda got, want=(code, text): got == want))
    # the same commands three times over, so that the list has over 100 operations
    return Workload("cli_small", ops * CLI_ROUNDS, len(ops), 0.2)


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """The workload's operation list for this seed; cli_small writes its inputs to `work`."""
    if name == "reduce":
        return build_reduce(seed)
    if name == "words":
        return build_words(seed)
    if name == "cli_small":
        return build_cli(seed, root, work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("reduce", "words", "cli_small")
