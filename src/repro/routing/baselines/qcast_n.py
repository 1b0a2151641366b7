"""Q-CAST-N — Q-Cast path selection evaluated under n-fusion.

The paper's description: "We apply Q-Cast to get paths.  Then, we use
Equation 1 to evaluate the network performance, assuming all paths take
n-fusion."  Q-Cast serves each request with one uniform-width path chosen
greedily by expected throughput.  Here the selection step searches, per
demand, over all widths for the (path, width) pair with the best n-fusion
rate, admits the globally best pair, charges qubits, and repeats.  Paths
are never merged into flow-like graphs and leftovers are not re-spent —
those are the two ALG-N-FUSION innovations this baseline lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.network.demands import Demand, DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg1_largest_rate import largest_entanglement_rate_path
from repro.routing.alg2_path_selection import default_max_width
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache
from repro.routing.nfusion import RoutingResult
from repro.routing.plan import RoutingPlan
from repro.routing.registry import RouterSpecError, register_router


def greedy_single_paths(
    name: str,
    network: QuantumNetwork,
    demands: DemandSet,
    widths: Sequence[int],
    link_model: Optional[LinkModel] = None,
    swap_model: Optional[SwapModel] = None,
) -> RoutingResult:
    """Q-Cast's greedy loop: admit the globally best (path, width) pair
    over all unrouted demands and *widths*, charge its qubits, repeat
    until no unrouted demand has a feasible path."""
    link_model = link_model or LinkModel()
    swap_model = swap_model or SwapModel()
    ledger = QubitLedger(network)
    plan = RoutingPlan()
    rate_cache = ChannelRateCache(network, link_model)
    unrouted: Dict[int, Demand] = {d.demand_id: d for d in demands}

    while unrouted:
        best: Optional[Tuple[float, int, int, Tuple[int, ...]]] = None
        for demand in unrouted.values():
            for width in widths:
                found = largest_entanglement_rate_path(
                    network,
                    link_model,
                    swap_model,
                    demand.source,
                    demand.destination,
                    width=width,
                    ledger=ledger,
                    rate_cache=rate_cache,
                )
                if found is None:
                    continue
                nodes, rate = found
                if best is None or rate > best[0]:
                    best = (rate, demand.demand_id, width, nodes)
        if best is None:
            break
        _, demand_id, width, nodes = best
        demand = unrouted.pop(demand_id)
        for a, b in zip(nodes, nodes[1:]):
            ledger.reserve_edge(a, b, width)
        flow = FlowLikeGraph(demand_id, demand.source, demand.destination)
        flow.add_path(nodes, width=width)
        plan.add_flow(flow)

    return RoutingResult.from_plan(
        name, plan, network, link_model, swap_model, ledger, rate_cache
    )


@register_router("q-cast-n", aliases=("qcast-n",))
@dataclass
class QCastNRouter:
    """Greedy uniform-width single-path router under n-fusion semantics."""

    max_width: Optional[int] = None
    name: str = "Q-CAST-N"

    def __post_init__(self):
        if self.max_width is not None and self.max_width < 1:
            raise RouterSpecError(
                f"max_width must be None or >= 1, got {self.max_width}"
            )

    def route(
        self,
        network: QuantumNetwork,
        demands: DemandSet,
        link_model: Optional[LinkModel] = None,
        swap_model: Optional[SwapModel] = None,
    ) -> RoutingResult:
        """Route every demand over its best uniform-width path, greedily."""
        max_width = self.max_width or default_max_width(network)
        return greedy_single_paths(
            self.name, network, demands, range(max_width, 0, -1),
            link_model, swap_model,
        )
