"""The two thresholds: `rel` reaches every relative decision, and `DEFAULT` is the one default.

Each kind of relative decision gets one case: a validation slack, negative
drift, an equivalence decision and a convex certificate, each on an input
that the default refuses and that `rel` = 1e-6 accepts, while `zero` leaves
it alone.
"""
import importlib
import inspect
import pkgutil
from dataclasses import fields

import numpy as np
import pytest

import probautomata
from probautomata import MoorePA, Tolerances, avg_equivalent, linalg
from probautomata.tolerances import DEFAULT


def _one_state(out: float) -> MoorePA:
    return MoorePA(("x",), {"x": [[1.0]]}, [1.0], [out])


SITES = {
    # a distribution whose mass is 1 + 1e-8
    "slack": lambda tol: linalg.is_distribution(np.array([0.5, 0.5 + 1e-8]), tol),
    # a stochastic row with an entry of -1e-8
    "drift": lambda tol: linalg.is_stochastic(np.array([[-1e-8, 1.0 + 1e-8]]), tol),
    # outputs 1e-7 apart, relative
    "equivalence": lambda tol: avg_equivalent(_one_state(0.5), _one_state(0.5 * (1.0 + 1e-7)), tol),
    # a row 1e-7 off the midpoint of the other two
    "certificate": lambda tol: linalg.convex_combination_certificate(
        np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5 + 1e-7]]), 2, tol) is not None,
}


def test_tolerances_has_two_fields():
    assert [f.name for f in fields(Tolerances)] == ["zero", "rel"]
    assert DEFAULT == Tolerances(zero=1e-12, rel=1e-9)
    assert probautomata.get_default() is DEFAULT


@pytest.mark.parametrize("site", sorted(SITES))
def test_rel_reaches_every_relative_decision(site):
    decide = SITES[site]
    assert not decide(DEFAULT)
    assert not decide(Tolerances(zero=1e-6))
    assert decide(Tolerances(rel=1e-6))


def _public_callables():
    """Every public function, class and method of the package's modules, once each."""
    seen = {}
    for info in pkgutil.iter_modules(probautomata.__path__):
        module = importlib.import_module(f"probautomata.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                seen[f"{module.__name__}.{name}"] = obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        seen[f"{module.__name__}.{name}.{attr}"] = member
    return seen


def test_every_tol_parameter_defaults_to_default():
    with_tol = {}
    for name, obj in _public_callables().items():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "tol" in params:
            with_tol[name] = params["tol"].default
    assert len(with_tol) >= 50
    assert {name for name, default in with_tol.items() if default is not DEFAULT} == set()
