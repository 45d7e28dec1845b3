"""Span tracing of probautomata's public functions, installed from outside.

`Tracer.install` replaces every binding of each traced function, wherever a
caller can resolve it: the defining module, every module that imported it by
name (``languages.avg_reaction_table``, ``cli.reduce_general``), the package
re-exports in ``probautomata/__init__.py``, and class attributes for methods
(``Subspace.try_add``).  A call is therefore recorded once, whichever path it
takes.  `Tracer.restore` puts every original back.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
written out by `write_spans` after the run.  A span's self time is its
duration minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

PACKAGE = "probautomata"


def _accepted(counts, args, kwargs, result):
    counts["accepted"] += result is not None and result is not False


def _table_entries(counts, args, kwargs, result):
    counts["entries"] += len(result.values)


def _dict_entries(counts, args, kwargs, result):
    counts["entries"] += len(result)


def _raw_states(counts, args, kwargs, result):
    minimize = kwargs.get("minimize", args[3] if len(args) > 3 else True)
    if not minimize:
        counts["raw_states"] += result.n_states


def _states_removed(counts, args, kwargs, result):
    counts["states_removed"] += args[0].n_states - result.n_states


# (module, attribute path, counter hook).  A hook adds work counts taken from
# the call's arguments and result to the span name's counters.
TARGETS = (
    ("linalg", "lp_solve", None),
    ("linalg", "convex_combination_certificate", _accepted),
    ("linalg", "Subspace.try_add", _accepted),
    ("generalpa", "basis_matrix", None),
    ("generalpa", "reachable_part", None),
    ("generalpa", "find_convex_state", None),
    ("generalpa", "reduce", None),
    ("generalpa", "equivalent", None),
    ("generalpa", "reaction_table", _table_entries),
    ("moorepa", "avg_basis_matrix", None),
    ("moorepa", "moore_reachable_part", None),
    ("moorepa", "find_convex_state_avg", None),
    ("moorepa", "reduce_avg", _states_removed),
    ("moorepa", "avg_equivalent", None),
    ("moorepa", "avg_reaction_table", _dict_entries),
    ("linauto", "la_table", None),
    ("linauto", "hankel_basis", None),
    ("linauto", "realize", None),
    ("languages", "enumerate_members", None),
    ("languages", "isolation_scan", None),
    ("languages", "extract_dfa", _raw_states),
    ("languages", "contraction_bound", None),
    ("languages", "stability_check", None),
    ("dfa", "dfa_minimize", None),
    ("cli", "main", None),
    ("cli", "build_parser", None),
    ("io", "load", None),
    ("io", "save", None),
)

SPAN_FIELDS = ("name", "start", "end", "parent", "op")


class Tracer:
    """Records nested spans around the traced functions while `op` is set."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # --- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, parent, self.op))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)

    def run_op(self, op_id: int, fn):
        """Run one operation under a root span named ``op``."""
        self.op = op_id
        index = self.begin("op")
        try:
            return fn()
        finally:
            self.end(index)
            self.op = None

    def _wrap(self, fn, name: str, hook):
        counts = self.counts[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            counts["calls"] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__bench_traced__ = True
        return traced

    # --- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, hook in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(original, name, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            for holder in list(sys.modules.values()):
                namespace = getattr(holder, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # --- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return totals

    def op_time(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == "op")


def installed_wrappers() -> list[str]:
    """Bindings of any loaded module that still hold a tracing wrapper."""
    found = []
    for module_name, holder in list(sys.modules.items()):
        namespace = getattr(holder, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if getattr(value, "__bench_traced__", False):
                found.append(f"{module_name}.{key}")
    subspace = sys.modules[f"{PACKAGE}.linalg"].Subspace
    if getattr(subspace.__dict__["try_add"], "__bench_traced__", False):
        found.append(f"{PACKAGE}.linalg.Subspace.try_add")
    return found


def write_spans(tracer: Tracer, path) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
