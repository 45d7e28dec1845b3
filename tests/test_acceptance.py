"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances and time budgets are pinned here, not configurable.
"""
import contextlib
import io as stdio
import json
import time
from pathlib import Path

import numpy as np
import pytest

from probautomata import (
    Dfa,
    GeneralPA,
    MarkovChain,
    MoorePA,
    RandomSequence,
    StringFunctionTable,
    avg_equivalent,
    avg_reaction,
    contraction_bound,
    definite_rep,
    e_f_dimension,
    extract_dfa,
    io as pio,
    la_reaction,
    la_table,
    la_to_pa_affine,
    la_language_pa,
    member,
    reaction,
    reaction_table,
    realize,
    reduce_avg,
)
from probautomata.cli import main
from probautomata.linauto import (
    LinearAutomaton,
    la_convolution,
    la_iterate,
    la_product,
    la_reverse,
    la_scale,
    la_sum,
)
from probautomata.moorepa import find_convex_state_avg

from gen import (
    plant_convex_state,
    plant_unreachable_state,
    random_general_pa,
    random_la,
    random_moore_pa,
    random_positive_stochastic,
)
from oracles import (
    cantor_base3,
    conv_power_sum,
    enumerate_words,
    grid_convex_certificate,
    table_convolve,
)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def criterion(number: int, name: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"[acceptance] criterion {number:02d} PASS {name} ({elapsed:.2f}s)")


def _cantor() -> MoorePA:
    return pio.load(str(DATA / "cantor.json"))


def _rabin() -> GeneralPA:
    return pio.load(str(DATA / "rabin.json"))


def test_criterion_01_cantor_golden():
    with criterion(1, "cantor ternary reactions |u| <= 6", 1.0):
        cantor = _cantor()
        for u in enumerate_words(("0", "2"), 6):
            assert abs(avg_reaction(cantor, u) - cantor_base3(u)) <= 1e-12


def test_criterion_02_rabin_golden():
    with criterion(2, "rabin-style reaction formula k <= 10", 1.0):
        rabin = _rabin()
        for k in range(11):
            expected = 0.5**k * (1.0 + 0.5 * k)
            got = reaction(rabin, ("x",) * k, ("y",) * k)
            assert abs(got - expected) <= 1e-12


def test_criterion_03_normalization():
    with criterion(3, "100 random general PA normalize over outputs", 10.0):
        rng = np.random.default_rng(20260808)
        for _ in range(100):
            a = random_general_pa(
                rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            )
            table = reaction_table(a, 4)
            sums: dict = {}
            for (u, v), val in table.values.items():
                sums[u] = sums.get(u, 0.0) + val
            for u, total in sums.items():
                assert abs(total - 1.0) <= 1e-9, (u, total)


def test_criterion_04_reduction_soundness():
    with criterion(4, "100 inflated Moore PA reduce soundly", 30.0):
        rng = np.random.default_rng(404)
        for _ in range(100):
            base = random_moore_pa(rng, int(rng.integers(2, 4)), 2)
            inflated = plant_unreachable_state(rng, plant_convex_state(rng, base))
            reduced = reduce_avg(inflated)
            reduced.validate()
            assert reduced.n_states <= inflated.n_states - 2
            assert avg_equivalent(inflated, reduced)
            for u in enumerate_words(inflated.inputs, 4):
                assert abs(
                    avg_reaction(inflated, u) - avg_reaction(reduced, u)
                ) <= 1e-9


def test_criterion_05_lp_vs_grid_oracle():
    with criterion(5, "convex-state LP agrees with the simplex grid", 30.0):
        rng = np.random.default_rng(505)
        instances = []
        while len(instances) < 10:  # planted convex state, must be detected
            instances.append(plant_convex_state(rng, random_moore_pa(rng, 2, 2)))
        while len(instances) < 20:  # free instances with a clean grid margin
            a = random_moore_pa(rng, 3, 2)
            from probautomata.moorepa import avg_basis_matrix

            basis, _ = avg_basis_matrix(a)
            margins = []
            for s in range(3):
                hit = grid_convex_certificate(basis, s, slack=np.inf)
                margins.append(hit[1])
            if min(margins) >= 0.05:  # keep only clearly-non-convex draws
                instances.append(a)
        for a in instances:
            from probautomata.moorepa import avg_basis_matrix

            basis, _ = avg_basis_matrix(a)
            scale = max(1.0, float(np.max(np.abs(basis))))
            grid_found = any(
                grid_convex_certificate(basis, s, slack=np.inf)[1] <= 2e-3 * scale
                for s in range(a.n_states)
            )
            lp_hit = find_convex_state_avg(a)
            assert (lp_hit is not None) == grid_found
            if lp_hit is not None:
                s, coeffs = lp_hit
                others = [i for i in range(a.n_states) if i != s]
                residual = float(np.max(np.abs(basis[s] - coeffs @ basis[others])))
                assert residual <= 1e-6


def test_criterion_06_la_homomorphisms():
    with criterion(6, "50 random LA pairs satisfy the six identities", 30.0):
        rng = np.random.default_rng(606)
        for _ in range(50):
            l1 = random_la(rng, int(rng.integers(1, 4)), 2)
            l2 = random_la(rng, int(rng.integers(1, 4)), 2)
            words = enumerate_words(l1.inputs, 4)
            f1 = {u: la_reaction(l1, u) for u in words}
            f2 = {u: la_reaction(l2, u) for u in words}
            checks = {
                "sum": (la_sum(l1, l2), lambda u: f1[u] + f2[u]),
                "product": (la_product(l1, l2), lambda u: f1[u] * f2[u]),
            }
            conv_oracle = table_convolve(f1, f2, words)
            checks["conv"] = (la_convolution(l1, l2), conv_oracle.__getitem__)
            checks["scale"] = (la_scale(2.5, l1), lambda u: 2.5 * f1[u])
            checks["reverse"] = (
                la_reverse(l1),
                lambda u: f1[tuple(reversed(u))],
            )
            xi = l1.initial
            denom = float(xi @ xi)
            lam0 = l1.lam if denom == 0.0 else l1.lam - (float(xi @ l1.lam) / denom) * xi
            l0 = LinearAutomaton(l1.inputs, dict(l1.trans), l1.initial, lam0)
            f0 = {u: la_reaction(l0, u) for u in words}
            iter_oracle = conv_power_sum(f0, words, 4)
            checks["iterate"] = (la_iterate(l0), iter_oracle.__getitem__)
            for automaton, oracle in checks.values():
                for u in words:
                    assert abs(la_reaction(automaton, u) - oracle(u)) <= 1e-9


def test_criterion_07_hankel_realization():
    with criterion(7, "50 random LA realize at Hankel rank", 30.0):
        rng = np.random.default_rng(707)
        for _ in range(50):
            dim = int(rng.integers(1, 5))
            l = random_la(rng, dim, 2)
            table = la_table(l, 2 * dim)
            rebuilt = realize(table, rank_bound=dim)
            rank = e_f_dimension(table)
            assert rebuilt.dim == max(rank, 1)
            assert rank <= dim
            for u in enumerate_words(l.inputs, 2 * dim):
                assert abs(la_reaction(rebuilt, u) - table.value(u)) <= 1e-8


def test_criterion_08_ring_inverses():
    with criterion(8, "30 random tables invert and iterate in the ring", 10.0):
        rng = np.random.default_rng(808)
        alphabet = ("a", "b")
        words = enumerate_words(alphabet, 5)
        for _ in range(30):
            values = {u: float(rng.uniform(-1.0, 1.0)) for u in words}
            head = float(rng.uniform(0.3, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            values[()] = head
            f = StringFunctionTable(alphabet, 5, values)
            product = f.convolve(f.inverse())
            for u in words:
                expected = 1.0 if u == () else 0.0
                assert abs(product.value(u) - expected) <= 1e-9
            zero_head = dict(values)
            zero_head[()] = 0.0
            f0 = StringFunctionTable(alphabet, 5, zero_head)
            iterated = f0.iterate()
            oracle = conv_power_sum(zero_head, words, 5)
            for u in words:
                assert abs(iterated.value(u) - oracle[u]) <= 1e-9


def test_criterion_09_contraction():
    with criterion(9, "50 positive families obey the spread decay bound", 10.0):
        rng = np.random.default_rng(909)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            a = MoorePA(
                ("a", "b"),
                {x: random_positive_stochastic(rng, n) for x in ("a", "b")},
                np.full(n, 1.0 / n),
                rng.random(n),
            )
            contraction_bound(a, check_len=5)  # raises on any violation


def test_criterion_10_dfa_extraction():
    with criterion(10, "cantor extraction gives the 2-state ends-in-2 DFA", 5.0):
        cantor = _cantor()
        delta = 1.0 / 6.0
        raw = extract_dfa(cantor, 0.5, delta, minimize=False)
        assert raw.n_states <= (1.0 + 1.0 / delta) ** (cantor.n_states - 1)
        assert raw.n_states <= 49
        minimized = extract_dfa(cantor, 0.5, delta)
        assert minimized.n_states == 2
        reference = Dfa(("0", "2"), 2, 0, {"0": (0, 0), "2": (1, 1)}, frozenset({1}))
        for u in enumerate_words(("0", "2"), 8):
            assert minimized.accepts(u) == reference.accepts(u)
            assert minimized.accepts(u) == member(cantor, 0.5, u)


def test_criterion_11_definiteness():
    with criterion(11, "symmetric mixer is 12-definite at delta 0.1", 5.0):
        mixer = MoorePA(
            ("a",),
            {"a": np.array([[0.9, 0.1], [0.1, 0.9]])},
            np.array([1.0, 0.0]),
            np.array([1.0, 0.0]),
        )
        rep = definite_rep(mixer, 0.4, 0.1)
        assert rep is not None
        assert rep.k == 12
        for length in range(12, 15):
            u = ("a",) * length
            assert rep.member(u) == member(mixer, 0.4, u)


def test_criterion_12_embeddings():
    with criterion(12, "20 random LA embed affinely and by language", 30.0):
        rng = np.random.default_rng(1212)
        for _ in range(20):
            l = random_la(rng, int(rng.integers(1, 4)), 2)
            n = l.dim
            pa, a = la_to_pa_affine(l)
            pa.validate()
            words = enumerate_words(l.inputs, 4)
            for u in words:
                expected = a ** (len(u) + 1) * la_reaction(l, u) + 1.0 / (n + 2)
                assert abs(avg_reaction(pa, u) - expected) <= 1e-9
            values = sorted(la_reaction(l, u) for u in words)
            gaps = [(values[i + 1] - values[i], i) for i in range(len(values) - 1)]
            if gaps and max(gaps)[0] > 1e-6:
                width, i = max(gaps)
                cut = (values[i] + values[i + 1]) / 2.0
            else:
                cut = values[-1] + 1.0
            lang_pa, lang_cut = la_language_pa(l, cut)
            lang_pa.validate()
            assert lang_pa.n_states == n + 4
            for u in words:
                assert member(lang_pa, lang_cut, u) == (la_reaction(l, u) > cut)


CANTOR_REACT_INPUTS = ["", "0", "2", "20", "02", "22", "202", "0220", "22022", "202202"]
RABIN_KS = list(range(1, 11))


def _run_cli(argv) -> str:
    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"CLI failed: {argv}"
    return buf.getvalue()


def cli_transcripts() -> dict[str, str]:
    cantor = str(DATA / "cantor.json")
    rabin = str(DATA / "rabin.json")
    out = {}
    out["cantor_react.txt"] = "".join(
        _run_cli(["react", cantor, "--input", u]) for u in CANTOR_REACT_INPUTS
    )
    out["rabin_react.txt"] = "".join(
        _run_cli(["react", rabin, "--input", "x" * k, "--output", "y" * k])
        for k in RABIN_KS
    )
    out["cantor_extract.txt"] = _run_cli(
        ["extract-dfa", cantor, "--cutpoint", "0.5", "--delta", "0.16666666666666666"]
    ) + _run_cli(["lang", "enum", cantor, "--cutpoint", "0.5", "--max-len", "3"])
    return out


def test_criterion_13_cli_roundtrip_and_transcripts(tmp_path):
    with criterion(13, "CLI round-trips and golden transcripts match", 5.0):
        transcripts = cli_transcripts()
        # the transcripts are anchored to the paper formulas, not just frozen
        cantor_lines = transcripts["cantor_react.txt"].splitlines()
        for u, line in zip(CANTOR_REACT_INPUTS, cantor_lines):
            assert float(line) == pytest.approx(cantor_base3(tuple(u)), abs=1e-12)
        rabin_lines = transcripts["rabin_react.txt"].splitlines()
        for k, line in zip(RABIN_KS, rabin_lines):
            assert float(line) == pytest.approx(0.5**k * (1 + 0.5 * k), abs=1e-12)
        for name, text in transcripts.items():
            expected = (GOLDEN / name).read_text()
            assert text == expected, f"transcript {name} drifted"
        # round-trip: load -> save -> load is value-identical for all kinds
        samples = [
            _rabin(),
            _cantor(),
            LinearAutomaton(
                ("a",), {"a": np.array([[0.5, -0.25], [0.0, 1.5]])},
                np.array([1.0, -1.0]), np.array([2.0, 0.5]),
            ),
            MarkovChain(
                ("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"),
                np.array([1.0, 0.0]),
            ),
            Dfa(("0", "2"), 2, 0, {"0": (0, 0), "2": (1, 1)}, frozenset({1})),
            StringFunctionTable(("a",), 2, {(): 1.0, ("a",): 0.5, ("a", "a"): 0.25}),
            RandomSequence(("a", "b"), 1, {(): 1.0, ("a",): 0.5, ("b",): 0.5}),
        ]
        for obj in samples:
            path = tmp_path / "sample.json"
            pio.save(obj, str(path))
            reloaded = pio.load(str(path))
            again = tmp_path / "sample2.json"
            pio.save(reloaded, str(again))
            assert json.loads(path.read_text()) == json.loads(again.read_text())
