"""The names perfbench/run.py reports per layer are public vlcpos functions,
and every public vlcpos function has a caller in src/ or is one of them.

The bench traces a function only when it is listed in its module's __all__
(see perfbench/child.py), so a name that drops out of __all__ would make its
per-layer count or time read as zero instead of failing.
"""

import ast
import inspect
import sys
from importlib import import_module
from pathlib import Path

import pytest

import vlcpos

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


SRC = Path(vlcpos.__file__).resolve().parent
MODULES = [import_module(f"vlcpos.{path.stem}") for path in sorted(SRC.glob("[!_]*.py"))]
PUBLIC_FUNCTIONS = [
    f"{module.__name__.split('.')[1]}.{name}"
    for module in MODULES
    for name in getattr(module, "__all__", ())
    if inspect.isfunction(getattr(module, name))
    and getattr(module, name).__module__ == module.__name__
]


def _referenced_outside_own_def():
    """Names that src/vlcpos loads anywhere but inside a def of the same name."""

    names = set()

    def visit(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = enclosing | {child.name}
            # A bare name, or an attribute such as module.name.
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name is not None and name not in inner:
                names.add(name)
            visit(child, inner)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return names


REFERENCED = _referenced_outside_own_def()


@pytest.mark.parametrize("public", PUBLIC_FUNCTIONS)
def test_public_function_has_a_caller_in_src_or_is_traced(public):
    # A public function that only tests call is a second code path to keep in
    # step; it belongs in the tests as an oracle, or goes.
    assert public.split(".")[1] in REFERENCED or public in TRACED
