"""B1 — Patil et al.'s single-pair GHZ protocol, extended to many pairs.

The paper extends [21] (distance-independent entanglement generation with
space-time multiplexed GHZ measurements) "from single pair to multiple
pairs.  For each pair, we run the algorithm once and remove the occupied
resources."  [21] studies 3- and 4-fusion on a lattice for one user pair,
so the extension implemented here gives each demand, in arrival order, a
flow-like graph built from at most two paths of width at most two on the
*residual* network (switch fusion arity therefore stays <= 4, matching
[21]'s measurement capability), then permanently removes those qubits.

What B1 lacks relative to ALG-N-FUSION — and what the evaluation isolates:
no cross-demand coordination (demands are served in arrival order rather
than widest/best first), no arity beyond 4, and no residual-qubit pass.
This substitution is recorded in the README's "Implementation decisions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.network.demands import DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg2_path_selection import select_paths
from repro.routing.alg3_merge import merge_paths
from repro.routing.allocation import QubitLedger
from repro.routing.metrics import ChannelRateCache, rate_cache_for
from repro.routing.nfusion import RoutingResult
from repro.routing.plan import RoutingPlan
from repro.routing.registry import RouterSpecError, register_router


@register_router("b1")
@dataclass
class B1Router:
    """Sequential per-pair n-fusion routing with [21]'s fusion-arity cap."""

    max_paths: int = 2
    max_width: int = 2
    max_fusion_arity: int = 4
    name: str = "B1"

    def __post_init__(self):
        if min(self.max_paths, self.max_width) < 1:
            raise RouterSpecError(
                "max_paths and max_width must be >= 1, got "
                f"{self.max_paths} and {self.max_width}"
            )

    def _violates_arity_cap(self, network, flow) -> bool:
        """True when any switch would fuse more links than [21] allows."""
        return any(
            flow.fusion_arity(node) > self.max_fusion_arity
            for node in flow.nodes()
            if network.node(node).is_switch
        )

    def route(
        self,
        network: QuantumNetwork,
        demands: DemandSet,
        link_model: Optional[LinkModel] = None,
        swap_model: Optional[SwapModel] = None,
        *,
        ledger: Optional[QubitLedger] = None,
        rate_cache: Optional[ChannelRateCache] = None,
        banned_nodes: FrozenSet[int] = frozenset(),
        banned_edges: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> RoutingResult:
        """Serve demands one at a time on the residual network."""
        link_model = link_model or LinkModel()
        swap_model = swap_model or SwapModel()
        ledger = ledger or QubitLedger(network)
        plan = RoutingPlan()
        rate_cache = rate_cache_for(network, link_model, rate_cache)

        for demand in demands:
            path_set = select_paths(
                network,
                link_model,
                swap_model,
                demand,
                h=self.max_paths,
                max_width=self.max_width,
                ledger=ledger,
                rate_cache=rate_cache,
                banned_nodes=banned_nodes,
                banned_edges=banned_edges,
            )
            if not path_set:
                continue
            single = DemandSet([demand])
            # [21]'s switches perform at most 4-qubit GHZ measurements, so
            # merged flows must keep every switch's fusion arity <= 4 and
            # at most two branch paths.  Try progressively smaller
            # candidate sets until the caps hold.
            attempts = [
                path_set,
                {w: paths[:1] for w, paths in path_set.items()},
                {
                    w: paths[:1]
                    for w, paths in path_set.items()
                    if w == min(path_set)
                },
            ]
            for candidate_set in attempts:
                flow = merge_paths(
                    network, link_model, swap_model, single,
                    {demand.demand_id: candidate_set}, ledger,
                ).flow_for(demand.demand_id)
                if flow is None:
                    continue
                if (
                    flow.num_paths <= self.max_paths
                    and not self._violates_arity_cap(network, flow)
                ):
                    plan.add_flow(flow)
                    break
                # Admission charged each edge its final width: refund it.
                ledger.release_edges(
                    (u, v, width)
                    for (u, v), width in flow.edge_widths().items()
                )

        return RoutingResult.from_plan(
            self.name, plan, network, link_model, swap_model, ledger,
            rate_cache,
        )
