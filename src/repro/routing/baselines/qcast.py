"""Q-CAST — classic BSM-based entanglement routing.

The paper defines its Q-CAST series as "a special version of ALG-N-FUSION
where N = 2": a switch performs only Bell-state measurements, so it can
dedicate exactly two qubits to any one demanded state.  Consequently every
state is served by a single width-1 path, there are no flow-like graphs,
and leftover qubits cannot widen channels (a third link at a switch would
need a 3-fusion).  This mirrors the greedy highest-throughput-path-first
structure of Shi & Qian's Q-Cast.

Routing is Q-CAST-N's greedy loop
(:func:`~repro.routing.baselines.qcast_n.greedy_single_paths`) run at
width 1: repeatedly find, over all still-unrouted demands, the feasible
width-1 path with the largest entanglement rate, admit it, charge its
qubits, and continue until no demand has a feasible path.  The loop
re-searches a demand only when the ledger changed since its last
search and its stale rate still leads; because admissions only take
qubits, a demand's best rate can only fall, so the skipped searches
could not have changed the pick (see ``greedy_single_paths``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.network.demands import DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.baselines.qcast_n import greedy_single_paths
from repro.routing.metrics import ChannelRateCache
from repro.routing.nfusion import RoutingResult
from repro.routing.registry import register_router


@register_router("q-cast", aliases=("qcast",))
@dataclass
class QCastRouter:
    """Greedy width-1 classic-swapping router (the Q-CAST baseline)."""

    name: str = "Q-CAST"

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
        """Route every demand over its best width-1 path, greedily."""
        return greedy_single_paths(
            self.name, network, demands, (1,), link_model, swap_model,
            ledger=ledger, rate_cache=rate_cache,
            banned_nodes=banned_nodes, banned_edges=banned_edges,
        )
