"""The public surface: ``zetawalk.__all__`` and the names the benchmark looks up.

``perfbench/`` is parsed as source text, never imported, so nothing is
written there.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import zetawalk

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8")).body


PATCHES = next(
    ast.literal_eval(node.value)
    for node in _parse("tracing.py")
    if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["PATCHES"]
)
WORKER_IMPORTS = [
    (node.module, alias.name)
    for node in _parse("worker.py")
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zetawalk")
    for alias in node.names
]


def test_all_is_explicit_and_has_no_modules():
    assert len(zetawalk.__all__) == len(set(zetawalk.__all__)) == 50
    assert not hasattr(zetawalk, "sato_ihara_graph")
    for name in zetawalk.__all__:
        assert not isinstance(getattr(zetawalk, name), types.ModuleType), name


def _public_callables():
    """Each callable in ``__all__`` and each public method of each class there."""
    for name in zetawalk.__all__:
        obj = getattr(zetawalk, name)
        if callable(obj):
            yield name, obj
        if isinstance(obj, type):
            for attr in vars(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def test_the_exact_core_has_no_field_parameter():
    """Nor a ``check`` or ``tol`` parameter, nor an ``order`` that defaults to None."""
    for name in ("QQ", "CC", "RationalField", "ComplexField"):
        assert not hasattr(zetawalk, name), name
    for name, obj in _public_callables():
        if isinstance(obj, type):
            assert not hasattr(obj, "field"), name
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # exception classes that keep the builtin constructor
            continue
        assert not {"field", "check", "tol"} & set(params), name
        assert "order" not in params or params["order"].default is not None, name


@pytest.mark.parametrize("path, attr, span", PATCHES)
def test_tracing_patch_targets_resolve(path, attr, span):
    # a module, or a class given as module.Class, as the tracer resolves it
    try:
        owner = importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        owner = getattr(importlib.import_module(module), cls)
    assert attr in vars(owner)


@pytest.mark.parametrize("module, name", WORKER_IMPORTS)
def test_worker_imports_resolve(module, name):
    assert hasattr(importlib.import_module(module), name)
