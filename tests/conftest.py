import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from probautomata import MoorePA

settings.register_profile("soak", max_examples=300, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture
def cantor():
    """Two-state automaton whose reaction reads the input as a ternary fraction."""
    return MoorePA(
        inputs=("0", "2"),
        trans={
            "0": np.array([[1.0, 0.0], [2.0 / 3.0, 1.0 / 3.0]]),
            "2": np.array([[1.0 / 3.0, 2.0 / 3.0], [0.0, 1.0]]),
        },
        initial=np.array([1.0, 0.0]),
        lam=np.array([0.0, 1.0]),
    ).validate()


@pytest.fixture
def lstsq_calls(monkeypatch):
    """A list that grows by one entry with each `np.linalg.lstsq` call."""
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    return calls
