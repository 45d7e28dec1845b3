"""The traced names of `bench/tracing.py` against the package.

The bench tracer wraps each (module, attribute) of its TARGETS by rebinding
every name that holds the function, so a target that no longer resolves,
or two targets that are one object, break the traced bench run.  This
checks the same table in the tier-1 suite.
"""
import importlib
import importlib.util
from pathlib import Path

import probautomata  # noqa: F401  (loads every module the targets name)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.PACKAGE, tracing.TARGETS


def _resolve(package, module_name, attr):
    obj = importlib.import_module(f"{package}.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_target_resolves_to_its_own_function():
    package, targets = _targets()
    objects = [_resolve(package, module_name, attr) for module_name, attr, _ in targets]
    assert len(objects) == 28 and all(callable(obj) for obj in objects)
    assert len({id(obj) for obj in objects}) == len(objects)


def test_languages_reaches_the_traced_reaction_table():
    package, _ = _targets()
    languages = importlib.import_module(f"{package}.languages")
    moorepa = importlib.import_module(f"{package}.moorepa")
    assert languages.avg_reaction_table is moorepa.avg_reaction_table
