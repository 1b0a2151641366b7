"""Entanglement routing: metrics, the paper's Algorithms 1-4 and baselines.

Public entry points:

* :class:`~repro.routing.nfusion.AlgNFusion` — the paper's ALG-N-FUSION
  (Algorithms 1-4 composed), producing a :class:`~repro.routing.plan.RoutingPlan`.
* :mod:`repro.routing.baselines` — Q-CAST, Q-CAST-N, B1 and MCF
  comparators.
* :mod:`repro.routing.registry` — the router spec/registry API:
  :class:`~repro.routing.registry.RouterSpec`,
  :func:`~repro.routing.registry.make_router` and
  :func:`~repro.routing.registry.register_router` address any router by
  key + parameters instead of a hand-built object.
* :func:`~repro.routing.metrics.path_entanglement_rate` and
  :class:`~repro.routing.flow_graph.FlowLikeGraph` — the routing metrics
  (paper Section III-C, Equation 1).
* :mod:`repro.routing.compiled` — the CSR snapshot and native search
  kernel that Algorithms 1 and 2 run on by default.

Every router's ``route`` takes an optional ledger, rate cache and
banned nodes/edges as keywords; :mod:`repro.service.loop` routes each
arriving demand through it on the session's ledger and cache.
"""

from repro.routing.metrics import (
    ChannelRateCache,
    channel_rate,
    path_entanglement_rate,
    path_entanglement_rate_nonuniform,
)
from repro.routing.compiled import (
    ROUTING_CORE_ENV,
    CompiledNetwork,
    WidthSearchBatch,
    active_routing_core,
    snapshot_for,
)
from repro.routing.paths import PathCandidate, validate_path
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.plan import RoutingPlan
from repro.routing.alg1_largest_rate import largest_entanglement_rate_path
from repro.routing.alg2_path_selection import select_paths
from repro.routing.alg3_merge import merge_paths
from repro.routing.alg4_residual import assign_remaining_qubits
from repro.routing.nfusion import AlgNFusion, RoutingResult
from repro.routing.baselines import (
    B1Router,
    MCFRouter,
    QCastNRouter,
    QCastRouter,
)
from repro.routing.registry import (
    Router,
    RouterSpec,
    RouterSpecError,
    make_router,
    parse_router_specs,
    register_router,
    router_class,
    router_keys,
)
from repro.routing.report import render_plan_report

__all__ = [
    "ChannelRateCache",
    "ROUTING_CORE_ENV",
    "CompiledNetwork",
    "WidthSearchBatch",
    "active_routing_core",
    "snapshot_for",
    "channel_rate",
    "path_entanglement_rate",
    "path_entanglement_rate_nonuniform",
    "PathCandidate",
    "validate_path",
    "QubitLedger",
    "FlowLikeGraph",
    "RoutingPlan",
    "largest_entanglement_rate_path",
    "select_paths",
    "merge_paths",
    "assign_remaining_qubits",
    "AlgNFusion",
    "RoutingResult",
    "QCastRouter",
    "QCastNRouter",
    "B1Router",
    "MCFRouter",
    "Router",
    "RouterSpec",
    "RouterSpecError",
    "make_router",
    "parse_router_specs",
    "register_router",
    "router_class",
    "router_keys",
    "render_plan_report",
]
