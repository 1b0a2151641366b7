"""Algorithm 1 — Largest Entanglement Rate path for a fixed width.

A modified Dijkstra that *maximises* the multiplicative entanglement-rate
metric instead of minimising additive length.  Correctness rests on the
metric being monotonically non-increasing along any extension (every factor
— channel rate or swap probability — is in [0, 1]), the property the paper
sketches in Section IV-C-2.

Constraints enforced while relaxing:

* intermediate nodes must be switches (users only terminate states);
* an intermediate switch must hold at least ``2 * width`` free qubits
  (*width* towards each side), a switch endpoint at least ``width``;
* banned node/edge sets support Yen's deviations in Algorithm 2.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro.exceptions import RoutingError
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.metrics import ChannelRateCache, rate_cache_for

EdgeKey = Tuple[int, int]


def _ekey(a: int, b: int) -> EdgeKey:
    return (a, b) if a < b else (b, a)


def canonical_edge_keys(edges: FrozenSet[EdgeKey]) -> FrozenSet[EdgeKey]:
    """*edges* with every key as ``(min, max)``, the order both cores
    look bans up in, so a ban reads the same in either endpoint order."""
    return frozenset(_ekey(a, b) for a, b in edges) if edges else edges


def check_endpoints(
    network: QuantumNetwork, source: int, destination: int
) -> None:
    """Raise :class:`~repro.exceptions.RoutingError` unless *source* and
    *destination* are distinct nodes of *network*."""
    if source == destination:
        raise RoutingError("source and destination must differ")
    if not network.has_node(source) or not network.has_node(destination):
        raise RoutingError(
            f"endpoints ({source}, {destination}) must exist in the network"
        )


def largest_entanglement_rate_path(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    source: int,
    destination: int,
    width: int,
    ledger: Optional[QubitLedger] = None,
    banned_nodes: FrozenSet[int] = frozenset(),
    banned_edges: FrozenSet[EdgeKey] = frozenset(),
    rate_cache: Optional[ChannelRateCache] = None,
) -> Optional[Tuple[Tuple[int, ...], float]]:
    """Find the path from *source* to *destination* with the largest
    entanglement rate at channel width *width*.

    ``ledger`` supplies remaining qubit counts (defaults to full
    capacities, matching Algorithm 2's resource-reuse rule).
    ``rate_cache`` fixes the routing core and shares memoised channel
    rates across calls — Yen's loop in Algorithm 2 re-relaxes the same
    edges many times per demand; it must be bound to this *network* and
    *link_model*.
    A ``banned_edges`` key may name its endpoints in either order.
    Returns ``(nodes, rate)`` or ``None`` when no feasible path exists.
    The only validation site of Algorithm 1's arguments on either core.
    """
    if width < 1:
        raise RoutingError(f"width must be >= 1, got {width}")
    check_endpoints(network, source, destination)
    rate_cache = rate_cache_for(network, link_model, rate_cache)
    if source in banned_nodes or destination in banned_nodes:
        return None
    if ledger is None:
        ledger = QubitLedger(network)
    if rate_cache.compiled_snapshot is not None:
        # Same search over the CSR snapshot; bit-identical paths/rates
        # (parity enforced by tests/test_routing_cores.py).
        return rate_cache.compiled_snapshot.run_search(
            source, destination, width, swap_model.fusion_success(2),
            ledger, banned_nodes, banned_edges,
        )
    banned_edges = canonical_edge_keys(banned_edges)
    # Endpoint feasibility: each endpoint commits `width` qubits.
    if not ledger.has_at_least(source, width):
        return None
    if not ledger.has_at_least(destination, width):
        return None

    best: Dict[int, float] = {source: 1.0}
    predecessor: Dict[int, int] = {}
    visited: Set[int] = set()
    counter = itertools.count()
    heap = [(-1.0, next(counter), source)]

    while heap:
        negative_rate, _, node = heapq.heappop(heap)
        rate = -negative_rate
        if node in visited:
            continue
        visited.add(node)
        if node == destination:
            break
        if node != source:
            # Extending through `node` makes it an intermediate relay:
            # it must be a switch with 2*width free qubits, and it pays
            # the fusion success factor.
            if network.node(node).is_user:
                continue
            if not ledger.has_at_least(node, 2 * width):
                continue
            rate *= swap_model.success_probability(2)
        for neighbor in network.neighbors(node):
            if neighbor in visited or neighbor in banned_nodes:
                continue
            if _ekey(node, neighbor) in banned_edges:
                continue
            if neighbor != destination:
                if network.node(neighbor).is_user:
                    continue
                if not ledger.has_at_least(neighbor, 2 * width):
                    # A switch that cannot relay is only reachable as an
                    # endpoint; since the destination is handled above,
                    # such a switch is a dead end for this width.
                    continue
            candidate = rate * rate_cache.rate(node, neighbor, width)
            if candidate > best.get(neighbor, 0.0):
                best[neighbor] = candidate
                predecessor[neighbor] = node
                heapq.heappush(heap, (-candidate, next(counter), neighbor))

    if destination not in best or destination not in visited:
        return None
    nodes = [destination]
    while nodes[-1] != source:
        nodes.append(predecessor[nodes[-1]])
    nodes.reverse()
    return tuple(nodes), best[destination]
