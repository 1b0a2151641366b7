"""Outside-in per-layer tracing: wrappers installed around the program's
public layer functions from the benchmark's own files.

Nothing in ``src/`` changes.  :func:`install` replaces each layer
function listed in :data:`LAYERS` with a wrapper, at every place a
caller binds the name (``from x import f`` copies the function into the
importing module, so a function is patched in each loaded ``repro``
module that holds it) or on its class for methods.

Three wrapper kinds:

``span``
    A layer boundary worth a span record: name, start, end, parent span
    and op id, kept in memory and written when the run ends.
``agg``
    A hot layer (thousands of calls per op): timed and counted like a
    span, so its parent's self time excludes it, but no record is kept.
``count``
    A hot leaf whose call count is the metric (ledger probes): counted
    only; its time stays in the caller's self time.

A layer's self time is its duration minus the time of the wrapped
layers it called.  Re-entering the layer that is already innermost
(``search_widths`` falling back to per-width ``run_search``) is part of
the outer call, not a new one.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import sys
import types
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

SPAN, AGG, COUNT = "span", "agg", "count"

#: (module, attribute, layer name, kind).  A dotted attribute is a
#: method patched on its class; a plain one is a function patched at
#: every binding site in the loaded ``repro`` modules.
LAYERS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.network.builder", "build_network", "network.build", SPAN),
    ("repro.network.demands", "generate_demands", "network.build", SPAN),
    ("repro.service.arrivals", "poisson_events", "service.timelines", SPAN),
    ("repro.service.faults", "fault_events", "service.timelines", SPAN),
    ("repro.routing.compiled", "CompiledNetwork.__init__",
     "routing.compiled.compile", SPAN),
    ("repro.routing.compiled", "CompiledNetwork.run_search",
     "routing.compiled.search", AGG),
    ("repro.routing.compiled", "WidthSearchBatch.search_widths",
     "routing.compiled.search", AGG),
    ("repro.routing.alg2_path_selection", "select_paths",
     "routing.alg2.select_paths", SPAN),
    ("repro.routing.alg3_merge", "admit_paths_efficiency",
     "routing.alg3.admit", SPAN),
    ("repro.routing.alg3_merge", "admit_paths", "routing.alg3.admit", SPAN),
    ("repro.routing.alg3_merge", "_evaluate_candidate",
     "routing.alg3.trial_merge", COUNT),
    ("repro.routing.flow_graph", "FlowLikeGraph.entanglement_rate",
     "routing.flow_graph.eq1", AGG),
    ("repro.routing.flow_graph", "FlowLikeGraph.copy",
     "routing.flow_graph.copy", COUNT),
    ("repro.routing.allocation", "QubitLedger.has_at_least",
     "routing.allocation.probes", COUNT),
    ("repro.routing.allocation", "QubitLedger.reserve",
     "routing.allocation.reserve", COUNT),
    ("repro.routing.allocation", "QubitLedger.release",
     "routing.allocation.release", COUNT),
    ("repro.routing.alg4_residual", "assign_remaining_qubits",
     "routing.alg4.assign", SPAN),
    ("repro.routing.nfusion", "AlgNFusion.route",
     "routing.router.alg-n-fusion", SPAN),
    ("repro.routing.baselines.qcast_n", "QCastNRouter.route",
     "routing.router.q-cast-n", SPAN),
    ("repro.routing.baselines.b1", "B1Router.route", "routing.router.b1", SPAN),
    ("repro.routing.baselines.qcast", "QCastRouter.route",
     "routing.router.q-cast", SPAN),
    ("repro.simulation.vectorized", "VectorizedProcessSimulator.plan_estimate",
     "simulation.mc.estimate", SPAN),
    ("repro.service.loop", "ServeSession.route_arrival",
     "service.route_arrival", SPAN),
    ("repro.service.loop", "ServeSession.release_flow",
     "service.release_flow", SPAN),
    ("repro.service.loop", "run_serve", "service.event_loop", SPAN),
)


class Tracer:
    """Span records, per-layer self time and call counts of one run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Result tallies: searches answered/found, paths admitted.
        self.tally: Dict[str, int] = {
            "search.answered": 0, "search.found": 0, "admit.paths": 0,
        }
        self.gc_s = 0.0
        self.gc_full = 0
        self.op = -1
        self._stack: List[list] = []
        self._current_span = -1
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_start: Optional[float] = None

    def reset(self) -> None:
        """Zero every total; span records and patches stay."""
        for table in (self.calls, self.tally):
            for key in table:
                table[key] = 0
        for key in self.self_s:
            self.self_s[key] = 0.0
        self.gc_s = 0.0
        self.gc_full = 0

    def exclude(self, seconds: float) -> None:
        """Take *seconds* of the benchmark's own work, done inside a
        wrapped layer, out of that layer's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    # -- wrappers ------------------------------------------------------

    def _timed(self, name: str, fn: Callable, record: bool) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        tally = self.tally
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        search = name == "routing.compiled.search"
        admit = name == "routing.alg3.admit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = self._current_span
            span_id = -1
            if record:
                span_id = len(spans)
                spans.append(None)
                self._current_span = span_id
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if record:
                    spans[span_id] = (name, start, end, parent, self.op)
                    self._current_span = parent
            if search:
                if isinstance(result, dict):
                    tally["search.answered"] += len(result)
                    tally["search.found"] += sum(
                        1 for found in result.values() if found is not None
                    )
                else:
                    tally["search.answered"] += 1
                    tally["search.found"] += result is not None
            elif admit:
                tally["admit.paths"] += result
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name: str, kind: str, fn: Callable) -> Callable:
        if kind == COUNT:
            return self._counted(name, fn)
        return self._timed(name, fn, record=kind == SPAN)

    # -- garbage collector ---------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_s += perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_full += 1

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS`; raises if a name is gone."""
        for module_name, attr, name, kind in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, self._wrap(name, kind, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, kind, original)
            for site in _binding_sites(original):
                for site_attr, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, site_attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def write_spans(self, path: str) -> None:
        """Write the span records as JSON lines."""
        with open(path, "w") as handle:
            for record in self.spans:
                if record is None:
                    continue
                name, start, end, parent, op = record
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def _binding_sites(function: object) -> List[types.ModuleType]:
    """Loaded ``repro`` modules holding *function* under some name."""
    return [
        module
        for module_name, module in sorted(sys.modules.items())
        if module is not None
        and (module_name == "repro" or module_name.startswith("repro."))
        and any(value is function for value in vars(module).values())
    ]
