"""Algorithm 2 — Paths Selection: h best paths per width via Yen + Alg. 1.

For every width from ``max_width`` down to 1, the routine finds the *h*
paths with the largest entanglement rate between the demand's endpoints,
using Yen's k-shortest-path deviation scheme with Algorithm 1 as the
underlying single-path solver (the paper plugs its Algorithm 1 into Yen's
structure the same way).

Resources may be reused freely across candidate paths — the paper lets the
path set over-subscribe the network because admission happens later in
Algorithm 3.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.exceptions import RoutingError
from repro.network.demands import Demand
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg1_largest_rate import (
    _ekey,
    canonical_edge_keys,
    check_endpoints,
    largest_entanglement_rate_path,
)
from repro.routing.allocation import QubitLedger
from repro.routing.compiled import compiled_select_paths
from repro.routing.metrics import (
    ChannelRateCache,
    path_entanglement_rate,
    rate_cache_for,
)
from repro.routing.paths import PathCandidate

EdgeKey = Tuple[int, int]


def select_paths(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    demand: Demand,
    h: int = 3,
    max_width: Optional[int] = None,
    ledger: Optional[QubitLedger] = None,
    max_hops: Optional[int] = None,
    rate_cache: Optional[ChannelRateCache] = None,
    banned_nodes: FrozenSet[int] = frozenset(),
    banned_edges: FrozenSet[EdgeKey] = frozenset(),
) -> Dict[int, List[PathCandidate]]:
    """Select up to *h* candidate paths per width for one demand.

    Returns ``{width: [PathCandidate, ...]}`` with paths sorted by
    decreasing rate.  Widths whose best path is infeasible are omitted.
    ``max_hops`` drops candidates longer than that many hops.
    ``rate_cache`` fixes the routing core and shares memoised channel
    rates across the whole selection (and, when a router passes one,
    across demands); it must be bound to this *network* and
    *link_model*.
    ``banned_nodes``/``banned_edges`` exclude elements from every
    candidate — the serving loop passes its down-element sets here so
    fault state is a search-time mask (bit-identical to the elements
    being absent) instead of a topology mutation.  An edge key may name
    its endpoints in either order.  The only validation site of
    Algorithm 2's arguments on either core.
    """
    if h < 1:
        raise RoutingError(f"h must be >= 1, got {h}")
    if max_width is None:
        max_width = default_max_width(network)
    if max_width < 1:
        raise RoutingError(f"max_width must be >= 1, got {max_width}")
    check_endpoints(network, demand.source, demand.destination)
    rate_cache = rate_cache_for(network, link_model, rate_cache)
    if demand.source in banned_nodes or demand.destination in banned_nodes:
        return {}
    if ledger is None:
        ledger = QubitLedger(network)
    if rate_cache.compiled_snapshot is not None:
        # One CSR snapshot and its search memo serve every width and
        # every Yen deviation; results are bit-identical.  The snapshot
        # canonicalises the bans itself, once per fault state.
        result = compiled_select_paths(
            rate_cache.compiled_snapshot, swap_model, demand, h, max_width,
            ledger, banned_nodes, banned_edges,
        )
    else:
        banned_edges = canonical_edge_keys(banned_edges)
        result = {}
        for width in range(max_width, 0, -1):
            paths = _yen_best_paths(
                network, link_model, swap_model, demand, width, h, ledger,
                rate_cache, banned_nodes, banned_edges,
            )
            if paths:
                result[width] = paths
    if max_hops is not None:
        result = {
            width: kept
            for width, paths in result.items()
            if (kept := [p for p in paths if p.hops <= max_hops])
        }
    return result


def default_max_width(
    network: QuantumNetwork, ledger: Optional[QubitLedger] = None
) -> int:
    """The largest width worth trying: an intermediate switch needs
    ``2 * width`` qubits, so half the largest switch capacity — or, given
    a *ledger*, half the largest remaining switch count (what a network
    whose capacities are the residual would report)."""
    switches = network.switches()
    if ledger is None:
        counts = [network.qubit_capacity(s) for s in switches]
    else:
        counts = ledger.remaining_counts(switches)
    capacities = [count for count in counts if count is not None]
    if not capacities:
        return 1
    return max(1, max(capacities) // 2)


def _yen_best_paths(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    demand: Demand,
    width: int,
    h: int,
    ledger: QubitLedger,
    rate_cache: Optional[ChannelRateCache] = None,
    banned_nodes: FrozenSet[int] = frozenset(),
    banned_edges: FrozenSet[EdgeKey] = frozenset(),
) -> List[PathCandidate]:
    """Yen's algorithm with Algorithm 1 as the shortest-path subroutine:
    the reference core's Algorithm 2 at one width.

    :func:`yen_deviation_loop` drives the reference Algorithm 1 and
    scores stitched paths with
    :func:`~repro.routing.metrics.path_entanglement_rate`.  The caller's
    *banned_nodes*/*banned_edges* union with each deviation's own bans.
    """

    def search(spur_node, banned_node_ids, banned_edge_keys):
        return largest_entanglement_rate_path(
            network,
            link_model,
            swap_model,
            spur_node,
            demand.destination,
            width,
            ledger,
            banned_nodes=banned_nodes | frozenset(banned_node_ids),
            banned_edges=banned_edges | frozenset(banned_edge_keys),
            rate_cache=rate_cache,
        )

    def path_rate(nodes):
        try:
            return path_entanglement_rate(
                network, link_model, swap_model, nodes, width, rate_cache
            )
        except RoutingError:  # pragma: no cover - spur paths are valid
            return None

    first = search(demand.source, (), ())
    if first is None:
        return []
    accepted = yen_deviation_loop(first, h, search, path_rate)
    return [
        PathCandidate(demand.demand_id, nodes, width, rate)
        for nodes, rate in accepted
    ]


def yen_deviation_loop(first, h, search, path_rate):
    """Yen's k-best deviation scheme around a single-path solver.

    ``first`` is the solver's ``(nodes, rate)`` for the full demand;
    ``search(spur_node, banned_node_ids, banned_edge_keys)`` returns
    the best ``(nodes, rate)`` under those bans or ``None``;
    ``path_rate(nodes)`` scores a stitched root+spur candidate (``None``
    skips it).  Returns the accepted ``(nodes, rate)`` list, best first.

    This is the oracle of the compiled core's native Yen loop
    (``yen_paths`` in ``kernel.c``), which repeats the
    orchestration that bit-parity depends on: banned-edge accumulation,
    dedup, the candidate heap and its tie-break counters.
    """
    accepted: List[Tuple[Tuple[int, ...], float]] = [first]
    seen = {first[0]}
    counter = itertools.count()
    candidates: List[Tuple[float, int, Tuple[int, ...]]] = []

    while len(accepted) < h:
        previous_nodes = accepted[-1][0]
        for deviation_index in range(len(previous_nodes) - 1):
            root = previous_nodes[: deviation_index + 1]
            spur_node = previous_nodes[deviation_index]
            banned_edges = set()
            for path_nodes, _ in accepted:
                if tuple(path_nodes[: deviation_index + 1]) == root:
                    banned_edges.add(
                        _ekey(
                            path_nodes[deviation_index],
                            path_nodes[deviation_index + 1],
                        )
                    )
            spur = search(spur_node, root[:-1], banned_edges)
            if spur is None:
                continue
            total_nodes = root[:-1] + spur[0]
            if total_nodes in seen:
                continue
            seen.add(total_nodes)
            total_rate = path_rate(total_nodes)
            if total_rate is None:  # pragma: no cover - spur paths are valid
                continue
            heapq.heappush(
                candidates, (-total_rate, next(counter), total_nodes)
            )
        if not candidates:
            break
        negative_rate, _, nodes = heapq.heappop(candidates)
        accepted.append((nodes, -negative_rate))

    return accepted
