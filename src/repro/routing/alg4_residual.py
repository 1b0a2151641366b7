"""Algorithm 4 — Remaining Qubits Assignment.

After Algorithm 3 a few qubits usually remain in switches (width rounding,
rejected paths).  Algorithm 4 converts them into extra parallel links: for
every edge whose endpoints both still hold a free qubit, the extra link is
granted to the demand whose flow-like graph gains the most entanglement
rate from widening that edge, repeating until the edge's endpoints run dry
or no demand benefits.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.metrics import ChannelRateCache
from repro.routing.plan import RoutingPlan

EdgeKey = Tuple[int, int]

#: Gains below this threshold are treated as zero (floating-point guard).
_MIN_GAIN = 1e-15


def assign_remaining_qubits(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    plan: RoutingPlan,
    ledger: QubitLedger,
    rate_cache: Optional[ChannelRateCache] = None,
) -> List[Tuple[EdgeKey, int]]:
    """Run Algorithm 4, widening edges of *plan* in place.

    Returns the list of ``(edge, demand_id)`` assignments made, in order.
    Residual scoring re-evaluates Equation 1 once per (edge, flow)
    candidate, so the per-(edge, width) channel rates repeat heavily;
    ``rate_cache`` (created here when not handed down from the caller's
    search phase) memoises them without changing any result.
    """
    assignments: List[Tuple[EdgeKey, int]] = []
    flows = plan.flows()
    if not flows:
        return assignments
    if rate_cache is None:
        rate_cache = ChannelRateCache(network, link_model)
    # Only edges used by some flow can absorb an extra link; a link on an
    # unused edge has no state to join.
    candidate_edges = sorted(
        {edge for flow in flows for edge in flow.edges()}
    )
    for u, v in candidate_edges:
        while ledger.can_reserve_edge(u, v, 1):
            best_gain = 0.0
            best_flow = None
            for flow in flows:
                if not flow.contains_edge(u, v):
                    continue
                # Memoised by the flow until it is widened.
                base = flow.entanglement_rate(
                    network, link_model, swap_model, rate_cache=rate_cache
                )
                widened = flow.entanglement_rate(
                    network, link_model, swap_model,
                    extra_widths={(u, v) if u < v else (v, u): 1},
                    rate_cache=rate_cache,
                )
                gain = widened - base
                if gain > best_gain + _MIN_GAIN:
                    best_gain = gain
                    best_flow = flow
            if best_flow is None:
                break
            ledger.reserve_edge(u, v, 1)
            best_flow.widen_edge(u, v)
            assignments.append(((u, v) if u < v else (v, u), best_flow.demand_id))
    return assignments
