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

import heapq
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Set, Tuple

from repro.network.demands import DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg1_largest_rate import largest_entanglement_rate_path
from repro.routing.alg2_path_selection import default_max_width
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache, rate_cache_for
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
    *,
    ledger: Optional[QubitLedger] = None,
    rate_cache: Optional[ChannelRateCache] = None,
    banned_nodes: FrozenSet[int] = frozenset(),
    banned_edges: FrozenSet[Tuple[int, int]] = frozenset(),
) -> RoutingResult:
    """Q-Cast's greedy loop: admit the globally best (path, width) pair
    over all unrouted demands and *widths*, charge its qubits, repeat
    until no unrouted demand has a feasible path.

    Ties go to the earliest demand, then the earliest width in *widths*.
    The loop is lazy (Minoux's accelerated greedy, the CELF scheme): one
    Algorithm-1 search per (demand, width) seeds a heap keyed
    ``(-rate, demand position * len(widths) + width position)``, and
    each entry remembers the ``ledger.version`` it was searched at.  A
    popped entry of a routed demand is dropped; a stale one is searched
    again and pushed back (dropped when no path is left); a fresh one is
    admitted.  This admits exactly what re-searching every pair each
    round would: Algorithm 1 is an exact max-product search and the
    ledger only shrinks here, so a pair's best rate never rises and a
    ``None`` stays ``None``.  Every stale key is therefore a lower bound
    on its pair's current key, and a fresh entry on top of the heap
    holds the path a full re-search would pick now.  The keywords are
    the :class:`~repro.routing.registry.Router` protocol's.
    """
    link_model = link_model or LinkModel()
    swap_model = swap_model or SwapModel()
    ledger = ledger or QubitLedger(network)
    plan = RoutingPlan()
    rate_cache = rate_cache_for(network, link_model, rate_cache)
    ordered = list(demands)
    widths = tuple(widths)

    def search(
        order: int,
    ) -> Optional[Tuple[float, int, int, Tuple[int, ...]]]:
        demand_pos, width_pos = divmod(order, len(widths))
        demand = ordered[demand_pos]
        found = largest_entanglement_rate_path(
            network,
            link_model,
            swap_model,
            demand.source,
            demand.destination,
            width=widths[width_pos],
            ledger=ledger,
            banned_nodes=banned_nodes,
            banned_edges=banned_edges,
            rate_cache=rate_cache,
        )
        if found is None:
            return None
        nodes, rate = found
        return (-rate, order, ledger.version, nodes)

    heap = [
        entry
        for entry in map(search, range(len(ordered) * len(widths)))
        if entry is not None
    ]
    heapq.heapify(heap)
    routed: Set[int] = set()
    while heap:
        _, order, version, nodes = heapq.heappop(heap)
        demand_pos, width_pos = divmod(order, len(widths))
        if demand_pos in routed:
            continue
        if version != ledger.version:
            entry = search(order)
            if entry is not None:
                heapq.heappush(heap, entry)
            continue
        routed.add(demand_pos)
        demand, width = ordered[demand_pos], widths[width_pos]
        for a, b in zip(nodes, nodes[1:]):
            ledger.reserve_edge(a, b, width)
        flow = FlowLikeGraph(
            demand.demand_id, demand.source, demand.destination
        )
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
        *,
        ledger: Optional[QubitLedger] = None,
        rate_cache: Optional[ChannelRateCache] = None,
        banned_nodes: FrozenSet[int] = frozenset(),
        banned_edges: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> RoutingResult:
        """Route every demand over its best uniform-width path, greedily."""
        ledger = ledger or QubitLedger(network)
        max_width = self.max_width or default_max_width(network, ledger)
        return greedy_single_paths(
            self.name, network, demands, range(max_width, 0, -1),
            link_model, swap_model, ledger=ledger, rate_cache=rate_cache,
            banned_nodes=banned_nodes, banned_edges=banned_edges,
        )
