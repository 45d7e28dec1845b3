"""Byte-identity of `io.dumps` for the tables the library builds.

Each golden file under tests/golden/tables/ is the serialized form of one
seeded table; a change to table storage must leave every byte unchanged.
Regenerate a file only for an intended change of its table:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
import test_table_goldens as g; g.record()"
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import gen
from probautomata import MarkovChain, io as pio
from probautomata import iid_sequence, la_table, mc_sequence, transform

GOLDEN = Path(__file__).parent / "golden" / "tables"


def _chain(seed: int) -> MarkovChain:
    rng = np.random.default_rng(seed)
    return MarkovChain(("a", "b"), gen.random_stochastic(rng, 3), ("a", "b", "a"),
                       gen.random_distribution(rng, 3))


def _transform(seed: int):
    rng = np.random.default_rng(seed)
    zeta = iid_sequence(gen.INPUTS[:2], gen.random_distribution(rng, 2), 3)
    return transform(zeta, gen.random_general_pa(rng, 3, 2, 2))


TABLES = {
    "la_table_seed11.json": lambda: la_table(gen.random_la(np.random.default_rng(11), 3, 2), 6),
    "la_table_seed12.json": lambda: la_table(gen.random_la(np.random.default_rng(12), 2, 3), 6),
    "mc_sequence_depth0.json": lambda: mc_sequence(_chain(21), 0),
    "mc_sequence_depth4.json": lambda: mc_sequence(_chain(21), 4),
    "iid_sequence.json": lambda: iid_sequence(("x", "y", "z"), [0.2, 0.3, 0.5], 3),
    "transform.json": lambda: _transform(31),
}


def record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, build in TABLES.items():
        (GOLDEN / name).write_text(pio.dumps(build()), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(TABLES))
def test_saved_table_is_byte_identical(name):
    assert pio.dumps(TABLES[name]()) == (GOLDEN / name).read_text(encoding="utf-8")
