"""Host-speed reference for the untraced run.

The host this benchmark was written on changes speed by 15-25% over
stretches of seconds to minutes, with no change in the program, and plain
throughput of 30-second runs spread by 15-20% (quartile distance over
median) across runs.  The timed
loop runs `kernel` before each operation; each operation's latency is then
scaled by ``NOMINAL_S`` over the kernel's recent time, which reports it in
milliseconds at a fixed reference speed.  The kernel is numpy plus Python
dict and tuple work, the same mix the library does, and does not use the
library, so a change to the library cannot move it.

Set-up is timed in fresh processes, in two parts.  The import of the
library reads and unmarshals files, and its speed drifts apart from the
kernel's, so it is scaled by a reference import (numpy and the standard
modules the library uses, without the library) timed in a fresh process
just before.  The rest of set-up is computation, scaled by the kernel's
median over runs made just before and just after the set-up's process.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# The kernel's median time on the host the recorded baseline was measured on.
NOMINAL_S = 4.5e-4
WINDOW = 10  # executions on each side of an operation whose kernel times are pooled
# The reference import's median time on that host.
IMPORT_NOMINAL_S = 0.1
_REFERENCE_IMPORT = ("import time; t = time.perf_counter(); "
                     "import argparse, dataclasses, enum, json, numpy; "
                     "print(time.perf_counter() - t)")

_rng = np.random.default_rng(0)
_LETTERS = tuple((x, m / m.sum(axis=1, keepdims=True)) for x, m in
                 (("a", _rng.random((5, 5))), ("b", _rng.random((5, 5)))))
_START = np.full(5, 0.2)
_OUT = _rng.random(5)


def kernel() -> dict:
    """Prefix tabulation of a fixed 5-state, 2-letter automaton to depth 6 (126 words)."""
    values = {}
    frontier = [((), _START)]
    for _ in range(6):
        nxt = []
        for u, row in frontier:
            for x, m in _LETTERS:
                row2 = row @ m
                values[u + (x,)] = float(row2 @ _OUT)
                nxt.append((u + (x,), row2))
        frontier = nxt
    return values


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def time_reference_import() -> float:
    """Time the reference import in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _REFERENCE_IMPORT],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def scales(kernel_s: list[float]) -> list[float]:
    """Per execution: NOMINAL_S over the median kernel time of its neighbourhood."""
    return [
        NOMINAL_S / statistics.median(kernel_s[max(0, i - WINDOW): i + WINDOW + 1])
        for i in range(len(kernel_s))
    ]
