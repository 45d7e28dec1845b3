#!/usr/bin/env python3
"""Closed-loop benchmark of probautomata: one client, one operation at a time.

    python3 bench/run.py --workload reduce --seed 1 --seconds 30 --trace 0

``--trace 0`` cycles through the workload's operation list (at least 100
operations) for ``--seconds`` of operation time, each operation at least
three times, with no tracing installed, and reports the end-to-end metrics
over each operation's median latency, scaled to a reference host speed
(see ``hostspeed.py``).  ``--trace 1`` runs a fixed number of operations twice, first
untraced and then with every traced public function wrapped, and reports the
per-layer metrics; the count is fixed so that call counts repeat exactly for
a seed.  Each operation's result is checked outside the timed interval; a
failed check or an exception counts as an error and the run goes on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
describes the run.  The operation list and, for traced runs, the spans are
written under ``bench/out/``.
"""
from __future__ import annotations

import os

# Every automaton has at most 40 states, so BLAS threads only add scheduler
# noise; pin them before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_OPS = 100        # distinct operations, so that at least 10 latencies lie beyond p90
MIN_REPEATS = 3      # each operation runs at least this often; its latency is the median run
SETUP_SAMPLES = 9    # set-ups in fresh processes; setup_s is their median
BRACKET = 50         # kernel runs just before and just after each of those set-ups
MAX_FAILURES_SHOWN = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    "linalg.lp_solve.calls",
    "linalg.lp_solve.self_s",
    "linalg.convex_combination_certificate.calls",
    "linalg.convex_combination_certificate.accept_ratio",
    "linalg.Subspace.try_add.calls",
    "linalg.Subspace.try_add.accept_ratio",
    "linalg.Subspace.try_add.self_s",
    "generalpa.basis_matrix.calls",
    "generalpa.basis_matrix.self_s",
    "generalpa.reachable_part.self_s",
    "generalpa.find_convex_state.calls",
    "generalpa.reduce.self_s",
    "generalpa.equivalent.self_s",
    "moorepa.avg_basis_matrix.calls",
    "moorepa.avg_basis_matrix.self_s",
    "moorepa.moore_reachable_part.self_s",
    "moorepa.find_convex_state_avg.calls",
    "moorepa.reduce_avg.self_s",
    "moorepa.reduce_avg.states_removed",
    "moorepa.avg_equivalent.self_s",
    "generalpa.reaction_table.self_s",
    "generalpa.reaction_table.entries",
    "moorepa.avg_reaction_table.self_s",
    "moorepa.avg_reaction_table.entries",
    "linauto.la_table.self_s",
    "linauto.hankel_basis.self_s",
    "linauto.realize.self_s",
    "languages.enumerate_members.self_s",
    "languages.isolation_scan.self_s",
    "languages.extract_dfa.self_s",
    "languages.extract_dfa.raw_states",
    "languages.contraction_bound.self_s",
    "languages.stability_check.self_s",
    "dfa.dfa_minimize.self_s",
    "cli.main.calls",
    "cli.main.self_s",
    "cli.build_parser.self_s",
    "io.load.self_s",
    "io.save.self_s",
    "trace.ops",
    "trace.op_s",
    "trace.overhead_ratio",
)

# Span groups whose share of traced operation time shows which layer a workload isolates.
SHARES = {
    "lp_and_subspace": ("linalg.lp_solve", "linalg.Subspace.try_add"),
    "tabulation_and_scans": (
        "moorepa.avg_reaction_table", "generalpa.reaction_table", "linauto.la_table",
        "languages.enumerate_members", "languages.isolation_scan", "languages.extract_dfa",
        "languages.contraction_bound", "languages.stability_check",
    ),
    "parser_and_load": ("cli.build_parser", "io.load"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout() -> None:
    if not (ROOT / "src" / "probautomata" / "__init__.py").is_file():
        fail(f"no probautomata checkout around {BENCH}: src/probautomata is missing")
    if not (ROOT / "tests" / "gen.py").is_file():
        fail(f"no probautomata checkout around {BENCH}: tests/gen.py is missing")


def load_modules():
    """Import probautomata from this checkout, the tests/gen.py generators and the workloads."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.append(str(ROOT / "tests"))
    package = importlib.import_module("probautomata")
    if not Path(package.__file__).resolve().is_relative_to(src):
        fail(f"probautomata was imported from {package.__file__}, not from {src}")
    return importlib.import_module("workloads")


# --- one operation -------------------------------------------------------------

class Run:
    """Latencies and failures of one pass over operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raised = 0
        self.failed = 0
        self.failures: list[str] = []

    @property
    def busy_s(self) -> float:
        return math.fsum(self.latencies)

    def ops_per_s(self) -> float:
        return (len(self.latencies) - self.raised) / self.busy_s

    def execute(self, index: int, op, tracer=None) -> None:
        error = None
        start = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.run_op(index, op.run)
        except Exception:  # a failed operation is counted and the run goes on
            error = traceback.format_exc(limit=3)
        self.latencies.append(time.perf_counter() - start)
        if error is None:
            try:
                if not op.check(result):
                    error = "check failed"
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        else:
            self.raised += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_SHOWN:
                self.failures.append(f"op {index} {op.kind} {op.shape}: {error}")


def describe(ops, latencies) -> dict:
    """Per operation kind: how many ran, their median latency and the mean words touched."""
    ops = list(ops)
    kinds: dict[str, list] = {}
    times: dict[str, list] = {}
    for op, t in zip(ops, latencies, strict=True):
        kinds.setdefault(op.kind, []).append(op.shape)
        times.setdefault(op.kind, []).append(t)
    out = {}
    for kind, shapes in kinds.items():
        entry = {"ops": len(shapes), "p50_ms": 1e3 * statistics.median(times[kind])}
        words = [s["words"] for s in shapes if isinstance(s.get("words"), int)]
        if words:
            entry["words_mean"] = statistics.fmean(words)
        out[kind] = entry
    reductions = [op.shape for op in ops if "removable" in op.shape]
    if reductions:
        out["removable_share_of_reductions"] = (
            sum(1 for s in reductions if s["removable"] > 0) / len(reductions))
    return out


# --- modes -----------------------------------------------------------------------

def setup(args, work: Path):
    """Build and warm up the workload; return it and the times of the import and of the rest."""
    start = time.perf_counter()
    workloads = load_modules()
    imported = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, ROOT, work)
    seen = set()
    for op in wl.ops:  # warm-up: the first operation of each kind, untimed
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()
    return wl, {"import_s": imported - start, "rest_s": time.perf_counter() - imported}


def child_setup_s(args) -> float:
    """Set-up time of the same workload and seed in a fresh interpreter, at reference speed.

    The import is scaled by a reference import timed just before, and the
    rest of set-up by the kernel's median time over the BRACKET runs just
    before and the BRACKET runs just after the child process.
    """
    import hostspeed

    reference_import_s = hostspeed.time_reference_import()
    before = [hostspeed.time_kernel() for _ in range(BRACKET)]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=False,
    )
    after = [hostspeed.time_kernel() for _ in range(BRACKET)]
    if proc.returncode != 0:
        fail(f"set-up in a fresh process failed:\n{proc.stderr}")
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    return (times["import_s"] * hostspeed.IMPORT_NOMINAL_S / reference_import_s
            + times["rest_s"] * hostspeed.NOMINAL_S / statistics.median(before + after))


def timed(args, wl):
    """Cycle through the operation list for --seconds, each operation at least MIN_REPEATS times.

    The host's speed drifts, so a fixed reference kernel runs before each
    operation and each latency is scaled to the kernel's nominal speed
    (`hostspeed`); set-up times are scaled likewise (see there).  Each operation's
    latency is the median of its scaled repeats, and the throughput and
    percentiles are taken over those.  The unscaled throughput is in the run
    description.
    """
    import hostspeed

    if len(wl.ops) < MIN_OPS:
        fail(f"{wl.name} has {len(wl.ops)} operations; percentiles need {MIN_OPS}")
    setup_samples = [child_setup_s(args) for _ in range(SETUP_SAMPLES)]
    run = Run()
    kernel_s = []
    n = len(wl.ops)
    index = 0
    while run.busy_s < args.seconds or index < MIN_REPEATS * n:
        kernel_s.append(hostspeed.time_kernel())
        run.execute(index, wl.ops[index % n])
        index += 1
    scaled = [t * f for t, f in zip(run.latencies, hostspeed.scales(kernel_s))]
    per_op = [statistics.median(scaled[i::n]) for i in range(n)]
    ms = [1e3 * t for t in per_op]
    attempted = len(run.latencies)
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n / math.fsum(per_op),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
        "ok_rate": (attempted - run.failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "latency_samples": n,
        "executions": attempted,
        "repeats_per_op_min": attempted // n,
        "unscaled_ops_per_s": run.ops_per_s(),
        "kernel_median_s": statistics.median(kernel_s),
        "error_rate": run.failed / attempted,
        "setup_samples_s": setup_samples,
        "ops": describe(wl.ops, per_op),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, run, metrics, info


def scaled_pass(ops, tracer=None):
    """Run each operation once; return the run and its throughput at reference speed."""
    import hostspeed

    run = Run()
    kernel_s = []
    for index, op in enumerate(ops):
        kernel_s.append(hostspeed.time_kernel())
        run.execute(index, op, tracer)
    scaled_s = math.fsum(t * f for t, f in zip(run.latencies, hostspeed.scales(kernel_s)))
    return run, len(ops) / scaled_s


def traced(args, wl):
    from tracing import Tracer, installed_wrappers, write_spans

    rounds = max(1, round(args.seconds / 2.0 / wl.round_s))
    count = rounds * wl.round_len
    ops = [wl.ops[i % len(wl.ops)] for i in range(count)]
    plain, plain_rate = scaled_pass(ops)
    tracer = Tracer()
    tracer.install()
    try:
        run, traced_rate = scaled_pass(ops, tracer)
    finally:
        tracer.restore()
    left = installed_wrappers()
    if left:
        fail(f"tracing wrappers left installed: {left}")
    write_spans(tracer, OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz")

    self_s, counts = tracer.self_times(), tracer.counts
    op_s = tracer.op_time()
    values = {
        "trace.ops": count,
        "trace.op_s": op_s,
        "trace.overhead_ratio": traced_rate / plain_rate,
    }
    for name in PER_LAYER:
        if name in values:
            continue
        span, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = self_s.get(span, 0.0)
        elif stat == "accept_ratio":
            calls = counts[span]["calls"]
            values[name] = counts[span]["accepted"] / calls if calls else 0.0
        else:
            values[name] = counts[span][stat]
    shares = {group: sum(self_s.get(s, 0.0) for s in spans) / op_s
              for group, spans in SHARES.items()}
    info = {
        "traced_ops": count,
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "share_of_op_time": shares,
        "error_rate": (plain.failed + run.failed) / (2 * count),
        "ops": describe(ops, plain.latencies),
    }
    plain.failures += run.failures
    plain.failed += run.failed
    metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}
    return 2 * count, plain, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("reduce", "words", "cli_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)  # BENCHMARK.json's run_seconds
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the unscaled set-up times and exit")
    args = parser.parse_args(argv)

    check_checkout()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        wl, setup_times = setup(args, Path(work))
        if args.setup_only:
            print(json.dumps(setup_times))
            return 0
        if args.trace:
            attempted, run, metrics, info = traced(args, wl)
        else:
            attempted, run, metrics, info = timed(args, wl)

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": [{"index": i, "kind": op.kind, **op.shape} for i, op in enumerate(wl.ops)],
    }
    (OUT / f"{args.workload}-seed{args.seed}.ops.json").write_text(json.dumps(manifest, indent=1))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, one client",
        "wait_time": "none measured: single-threaded library with no queues",
        **info,
        "failures": run.failures,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
