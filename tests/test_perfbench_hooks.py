"""The names the benchmark in ``perfbench/`` binds must exist in ``src/``.

``perfbench/tracing.py`` wraps the layer functions listed in its
``LAYERS`` table and raises when one is gone, and
``perfbench/workload.py`` imports program names directly.  Both files
are read here without being changed or run, so a rename in ``src/``
fails this test instead of breaking ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pathlib
import types

import pytest

from repro.exceptions import ConfigurationError
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.registry import make_router
from repro.service.loop import run_serve

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _resolve(module_name: str, dotted: str):
    """``module_name`` then each part of ``dotted`` in turn; a part may
    be a submodule that is not yet imported."""
    value = importlib.import_module(module_name)
    for part in dotted.split("."):
        if not hasattr(value, part) and isinstance(value, types.ModuleType):
            importlib.import_module(f"{value.__name__}.{part}")
        value = getattr(value, part)
    return value


@pytest.mark.parametrize(
    "module_name, attr", [(layer[0], layer[1]) for layer in _layers()]
)
def test_traced_layers_resolve(module_name, attr):
    if "." in attr:
        # A method is patched in its class's own namespace.
        class_name, method = attr.split(".")
        owner = _resolve(module_name, class_name)
        assert method in vars(owner), f"{module_name}.{attr} is gone"
    else:
        assert callable(_resolve(module_name, attr))


def _workload_bindings():
    """``(module, name)`` for every name ``workload.py`` imports from
    ``repro``, plus every attribute chain it reads off an imported
    ``repro`` module (``loop.run_serve``)."""
    tree = ast.parse((PERFBENCH / "workload.py").read_text())
    bindings = []
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            for alias in node.names:
                bindings.append((node.module, alias.name))
                modules[alias.asname or alias.name] = (
                    node.module, alias.name
                )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        value = node
        while isinstance(value, ast.Attribute):
            chain.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in modules:
            module_name, name = modules[value.id]
            bindings.append(
                (module_name, ".".join([name, *reversed(chain)]))
            )
    return sorted(set(bindings))


def test_workload_imports_resolve():
    bindings = _workload_bindings()
    assert ("repro.routing.compiled", "active_routing_core") in bindings
    assert ("repro.service", "loop.run_serve") in bindings
    missing = []
    for module_name, dotted in bindings:
        try:
            _resolve(module_name, dotted)
        except (AttributeError, ImportError):
            missing.append(f"{module_name}: {dotted}")
    assert not missing, missing


def _run_serve_calls():
    """Every ``loop.run_serve(...)`` call in ``workload.py``."""
    tree = ast.parse((PERFBENCH / "workload.py").read_text())
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run_serve"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "loop"
    ]


def test_workload_run_serve_call_binds():
    """perfbench's call, argument for argument, still binds to
    ``run_serve``'s signature, and the one positional constant it
    passes is the re-plan value ``run_serve`` accepts."""
    calls = _run_serve_calls()
    assert calls, "workload.py no longer calls loop.run_serve"
    signature = inspect.signature(run_serve)
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        bound = signature.bind(
            *(ast.unparse(a) for a in call.args),
            **{k.arg: ast.unparse(k.value) for k in call.keywords},
        )
        if "replan" in bound.arguments:
            assert bound.arguments["replan"] == repr("incremental")


def test_run_serve_rejects_a_retired_replan_mode():
    network = QuantumNetwork()
    with pytest.raises(ConfigurationError, match="replan"):
        run_serve(
            network, LinkModel(), SwapModel(), make_router("q-cast"), [],
            10.0, 0.0, "resnapshot",
        )
