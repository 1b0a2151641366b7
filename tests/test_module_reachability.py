"""Every ``src/repro`` module is reached from an entry point or is a
named oracle.

A static walk over ``import`` statements (parsed with :mod:`ast`, never
executed) starts at the roots below:

* the three ``__main__`` modules (``python -m repro``,
  ``python -m repro.experiments``, ``python -m repro.lint``);
* the self-registering packages whose ``__init__`` imports its members
  (lint rules, baseline routers, topology generators);
* the ``repro`` modules that ``perfbench/workload.py`` imports.

``from pkg import name`` resolves *name* through ``pkg/__init__.py`` to
the module that defines it.  Reaching a module marks its parent
packages as reached (importing it runs them), but an ``__init__``'s
top-level imports of its own submodules are re-exports and are not
followed.  Whatever stays unreached must be an oracle: a module no
entry point runs, kept only because the named test checks a contract
of the system against it.  A new module nothing reaches fails here
until it is wired in or named in :data:`ORACLES`.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, Optional, Set

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD = ROOT / "perfbench" / "workload.py"

ENTRY_POINTS = (
    "repro.__main__",
    "repro.experiments.__main__",
    "repro.lint.__main__",
    "repro.lint.rules",
    "repro.routing.baselines",
    "repro.network.topology",
)

#: Unreached module -> the test that uses it as an oracle.
ORACLES: Dict[str, str] = {
    "repro.simulation.exact":
        "tests/test_flow_rate_properties.py::test_equation1_vs_exact",
    "repro.quantum.stabilizer":
        "tests/test_quantum_properties.py"
        "::test_tracker_matches_stabilizer_on_random_fusions",
    "repro.quantum.states":
        "tests/test_quantum_properties.py"
        "::test_tracker_matches_stabilizer_on_random_fusions",
    "repro.quantum.tracker":
        "tests/test_quantum_properties.py"
        "::test_tracker_matches_stabilizer_on_random_fusions",
    "repro.quantum.fusion":
        "tests/test_quantum_properties.py::test_star_fusion_any_arity",
    "repro.simulation.quantum_engine":
        "tests/test_simulation.py::TestQuantumEngine"
        "::test_agrees_with_connectivity_on_single_path",
    "repro.service.residual":
        "tests/test_residual_oracle.py::test_ledger_entry_equals_residual_view",
}


def _module_paths() -> Dict[str, pathlib.Path]:
    paths = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _parse(module: str) -> ast.Module:
    return ast.parse(MODULES[module].read_text(), str(MODULES[module]))


def _absolute(module: str, node: ast.ImportFrom) -> str:
    """The absolute module name an ``ImportFrom`` in *module* names."""
    if not node.level:
        return node.module or ""
    package = module if _is_package(module) else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _resolve(package: str, name: str) -> Optional[str]:
    """The module defining *name* when imported ``from package``."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if package not in MODULES:
        return None
    if not _is_package(package):
        return package
    for node in _parse(package).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(_absolute(package, node), alias.name)
    return package


def _targets(module: str, reexports: bool) -> Iterator[str]:
    """The modules *module*'s imports reach.

    A package's top-level imports of its own submodules count only
    when *reexports* is set.
    """
    tree = _parse(module)
    top_level = set(map(id, tree.body)) if _is_package(module) else set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            if (not reexports and id(node) in top_level
                    and source.startswith(f"{module}.")):
                continue
            names = [_resolve(source, alias.name) for alias in node.names]
        else:
            continue
        yield from (name for name in names if name in MODULES)


def _perfbench_roots() -> Set[str]:
    roots = set()
    for node in ast.walk(ast.parse(WORKLOAD.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            roots.update(
                _resolve(node.module, alias.name) for alias in node.names
            )
    return {root for root in roots if root in MODULES}


def reached_modules() -> Set[str]:
    reached: Set[str] = set()
    stack = [*ENTRY_POINTS, *_perfbench_roots()]
    while stack:
        module = stack.pop()
        if module in reached:
            continue
        reached.add(module)
        parent = module.rpartition(".")[0]
        if parent:
            stack.append(parent)
        # A self-registering package imports its members to register
        # them, so a root's re-exports are real edges.
        stack.extend(_targets(module, reexports=module in ENTRY_POINTS))
    return reached


def test_only_named_oracles_are_unreached():
    unreached = set(MODULES) - reached_modules()
    assert unreached == set(ORACLES)
    for node_id in ORACLES.values():
        path, *names = node_id.split("::")
        scope = ast.parse((ROOT / path).read_text()).body
        for name in names:
            found = [
                node for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name == name
            ]
            assert found, f"{node_id} names no test"
            scope = found[0].body
