"""The program interface ``perfbench/`` drives must exist in ``src``.

perfbench runs from its own directory against the checkout's ``src``
and is not part of this suite, so a rename or deletion here only shows
when a benchmark run crashes: every ``--trace 1`` run imports each of
:data:`perfbench.layers.LAYERS` before its first operation.  These
tests read perfbench's files without changing them and check that
every layer target resolves, every ``repro`` name they import exists,
and every call they make into a ``repro`` module binds to its
signature.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def _resolve(module_name: str, qualname: str):
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers_under_test", PERFBENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _repro_calls(path: Path):
    """``(alias.attr, call node, module name)`` for calls into ``repro`` modules."""
    tree = ast.parse(path.read_text())
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("repro")
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in aliases
        ):
            alias = node.func.value.id
            yield f"{alias}.{node.func.attr}", node, aliases[alias]


def test_perfbench_sources_are_present():
    assert (PERFBENCH / "layers.py") in SOURCES
    assert (PERFBENCH / "workloads.py") in SOURCES


def test_every_layer_target_resolves():
    layers = _load_layers()
    assert layers.LAYERS
    for layer in layers.LAYERS:
        module_name, qualname = layer.target.split(":")
        assert callable(_resolve(module_name, qualname)), layer.target


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_repro_name_exists(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                _resolve(node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    importlib.import_module(alias.name)


def test_workload_calls_bind_to_the_program():
    calls = list(_repro_calls(PERFBENCH / "workloads.py"))
    names = {name for name, _node, _module in calls}
    # The entry points the workloads drive must be among the calls seen.
    assert {"pipeline.run_ixp_study", "stream.StreamStudy"} <= names
    for name, node, module_name in calls:
        fn = _resolve(module_name, node.func.attr)
        args = [object()] * len(node.args)
        kwargs = {kw.arg: object() for kw in node.keywords if kw.arg is not None}
        signature = inspect.signature(fn)
        if any(kw.arg is None for kw in node.keywords):  # a **mapping
            signature.bind_partial(*args, **kwargs)
        else:
            signature.bind(*args, **kwargs)
