"""The residual-view oracle of the serving loop's re-plan.

The serving loop re-plans an arrival through ``router.route`` on its
session ledger, rate cache and down elements.  The slow way to the same
plan is kept here as the oracle: copy the network with each switch's
capacity set to the ledger's remaining count and the banned elements'
edges gone, route the copy cold, then charge the flows to the ledger.
Nothing in the program routes through it; the differential tests and
the serve benchmarks compare against it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.network.demands import DemandSet
from repro.network.edge import EdgeKey
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.metrics import ChannelRateCache


def residual_view(
    network: QuantumNetwork,
    ledger: QubitLedger,
    banned_edges: FrozenSet[EdgeKey] = frozenset(),
    banned_nodes: FrozenSet[int] = frozenset(),
) -> QuantumNetwork:
    """A copy of *network* whose switch capacities are the ledger's
    remaining counts (users stay unlimited, lengths are preserved).

    A banned edge disappears; a banned node keeps its place (so node
    orderings and the default max width match the full network's) but
    loses every incident edge, which routes exactly like a search ban.
    """
    view = QuantumNetwork()
    for node_id in network.nodes():
        node = network.node(node_id)
        if node.qubit_capacity is not None:
            node = dataclasses.replace(
                node, qubit_capacity=int(ledger.remaining(node_id))
            )
        view.add_node(node)
    for u, v in network.edge_keys():
        if (u, v) in banned_edges:
            continue
        if u in banned_nodes or v in banned_nodes:
            continue
        view.add_edge(u, v, network.edge_length(u, v))
    return view


@dataclass
class ResidualViewRouter:
    """*inner* routed cold on :func:`residual_view`, its plan charged to
    the caller's ledger: the oracle of ``inner.route`` with a ledger."""

    inner: object

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
        banned_edges: FrozenSet[EdgeKey] = frozenset(),
    ):
        """Route on the view; *rate_cache* is unused (the view is new)."""
        ledger = ledger or QubitLedger(network)
        view = residual_view(network, ledger, banned_edges, banned_nodes)
        result = self.inner.route(view, demands, link_model, swap_model)
        for flow in result.plan.flows():
            for node in flow.nodes():
                ledger.reserve(node, flow.qubits_used_at(node))
        return result
