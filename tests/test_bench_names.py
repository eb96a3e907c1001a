"""The names perfbench/run.py reports per layer are public vlcpos functions.

The bench traces a function only when it is listed in its module's __all__
(see perfbench/child.py), so a name that drops out of __all__ would make its
per-layer count or time read as zero instead of failing.
"""

import inspect
import sys
from importlib import import_module
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

TRACED = (*run.COUNTED, *run.TIMED, *(f"reporting.{table}" for table in run.TABLES))


@pytest.mark.parametrize("traced", TRACED)
def test_traced_name_is_a_public_function(traced):
    layer, name = traced.split(".")
    module = import_module(f"vlcpos.{layer}")
    assert name in module.__all__
    function = getattr(module, name)
    assert inspect.isfunction(function) and function.__module__ == module.__name__
