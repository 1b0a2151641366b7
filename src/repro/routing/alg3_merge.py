"""Algorithm 3 — Paths Merge: admit paths and build flow-like graphs.

Two admission policies are provided:

* :func:`admit_paths` — the paper's literal pseudocode: widths from the
  largest down ("wider is preferred"); within a width, candidates across
  all demands sorted by decreasing rate ("shorter is preferred").
* :func:`admit_paths_efficiency` — marginal-efficiency greedy: repeatedly
  admit the candidate with the largest *rate gain per switch qubit
  consumed*.  The paper's pseudocode leaves contention between demands
  unspecified, and the literal sweep lets early wide paths starve later
  demands; efficiency admission preserves all four of the paper's stated
  preferences (shorter, wider, merged, n-fused) while spending the qubit
  budget where it buys the most entanglement rate.  The README's
  "Implementation decisions" records this choice and the ablation bench
  compares both.

In both policies a path is admitted only when every edge is either already
part of the same demand's flow-like graph (the new path is a branch; the
shared edge's qubits are reused and not charged again) or fundable from
both endpoints' free qubits.  Merges that would make the flow orientation
cyclic are rejected (Equation 1 requires an acyclic flow).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.exceptions import CapacityError, RoutingError
from repro.network.demands import Demand, DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache
from repro.routing.paths import PathCandidate
from repro.routing.plan import RoutingPlan

PathSets = Dict[int, Dict[int, List[PathCandidate]]]


def merge_paths(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    demands: DemandSet,
    path_sets: PathSets,
    ledger: QubitLedger,
) -> RoutingPlan:
    """Run Algorithm 3 over per-demand path sets, consuming *ledger*.

    ``path_sets`` maps ``demand_id -> {width -> [PathCandidate...]}`` as
    produced by :func:`~repro.routing.alg2_path_selection.select_paths`.
    """
    flows: Dict[int, FlowLikeGraph] = {}
    admit_paths(network, demands, path_sets, flows, ledger)
    plan = RoutingPlan()
    for flow in flows.values():
        plan.add_flow(flow)
    return plan


def admit_paths(
    network: QuantumNetwork,
    demands: DemandSet,
    path_sets: PathSets,
    flows: Dict[int, FlowLikeGraph],
    ledger: QubitLedger,
) -> int:
    """One Algorithm 3 admission sweep over *path_sets*, extending *flows*
    in place and consuming *ledger*.  Returns the number of paths admitted.

    Exposed separately so the orchestrator can run *refill* sweeps: after
    the first sweep, candidates re-selected against the residual ledger are
    admitted with the same widest/best-first policy.
    """
    demand_by_id = {d.demand_id: d for d in demands}
    unknown = set(path_sets) - set(demand_by_id)
    if unknown:
        raise RoutingError(f"path sets reference unknown demands {sorted(unknown)}")
    admitted = 0
    for width in range(_max_width(path_sets), 0, -1):
        candidates = [
            path
            for per_width in path_sets.values()
            for path in per_width.get(width, ())
        ]
        candidates.sort(key=lambda c: (-c.rate, c.demand_id, c.nodes))
        for candidate in candidates:
            if _try_admit(network, demand_by_id[candidate.demand_id],
                          candidate, flows, ledger):
                admitted += 1
    return admitted


def admit_paths_efficiency(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    demands: DemandSet,
    path_sets: PathSets,
    flows: Dict[int, FlowLikeGraph],
    ledger: QubitLedger,
    rate_cache: Optional[ChannelRateCache] = None,
) -> int:
    """Marginal-efficiency greedy admission sweep (see module docstring).

    Repeatedly admits the candidate maximising ``rate gain / switch qubits
    consumed`` until no candidate both fits the ledger and improves its
    demand's rate.  Returns the number of paths admitted.  ``rate_cache``
    memoises per-(edge, width) channel rates across the many Equation-1
    evaluations of the candidate loop; results are unchanged.
    """
    demand_by_id = {d.demand_id: d for d in demands}
    unknown = set(path_sets) - set(demand_by_id)
    if unknown:
        raise RoutingError(f"path sets reference unknown demands {sorted(unknown)}")
    pool: List[PathCandidate] = [
        path
        for per_width in path_sets.values()
        for paths in per_width.values()
        for path in paths
    ]
    admitted = 0
    # A candidate's charges, cycle feasibility and rate gain are pure
    # functions of its demand's current flow — not of the ledger — yet
    # the scan below revisits every candidate after every admission.
    # Memoise that structural evaluation per flow version (bumped when a
    # demand's flow changes) and re-check only the cheap ledger
    # feasibility each scan; every value replayed from the memo is
    # identical to a fresh evaluation, so the admission sequence is
    # unchanged.
    base_rates: Dict[int, float] = {}
    versions: Dict[int, int] = {}
    struct_memo: Dict[int, Tuple[int, Dict[int, int], int, float]] = {}
    # Candidates found unadmittable are *parked* — dropped from the
    # active scan under the flow version they were rejected at.  Exact,
    # not heuristic: a candidate's charges and gain are pure functions
    # of its demand's flow version, and the ledger only ever shrinks
    # within one sweep (reservations stick, failed trials restore), so
    # "cycle / no gain / doesn't fit" can only be revisited by the
    # demand's version bumping — which un-parks that demand's
    # candidates.  Indices into the (immutable) pool stand in for the
    # candidates everywhere, keeping scan order — and therefore the
    # admission sequence and every tie-break — identical to scanning
    # the full pool, without re-hashing candidate dataclasses.
    #
    # A candidate without an evaluation at its flow's version probes the
    # ledger with its charges *before* the costly trial merge, and is
    # parked unevaluated when the ledger cannot fund it.  Parking it
    # after an evaluation would have the same effect at the same scan
    # position: it returns only when its demand's version bumps, and
    # that bump invalidates any memoised evaluation anyway.
    parked_by_demand: Dict[int, List[int]] = {}
    active: List[int] = list(range(len(pool)))
    while active:
        best_index = -1
        best_efficiency = 0.0
        best_gain = 0.0
        keep: List[int] = []
        for index in active:
            candidate = pool[index]
            version = versions.get(candidate.demand_id, 0)
            entry = struct_memo.get(index)
            if entry is None or entry[0] != version:
                needed, cost = _charge_totals(
                    network, flows.get(candidate.demand_id), candidate
                )
                gain = None
                if _ledger_funds(ledger, needed):
                    gain = _evaluate_candidate(
                        network, link_model, swap_model, candidate, flows,
                        rate_cache, base_rates,
                    )
                entry = None
                if gain is not None:
                    entry = struct_memo[index] = (version, needed, cost, gain)
            elif not _ledger_funds(ledger, entry[1]):
                entry = None
            if entry is None:
                parked_by_demand.setdefault(
                    candidate.demand_id, []
                ).append(index)
                continue
            _, _, cost, gain = entry
            keep.append(index)
            efficiency = gain / max(cost, 1)
            better = efficiency > best_efficiency + 1e-15
            tie_break = (
                best_index >= 0
                and abs(efficiency - best_efficiency) <= 1e-15
                and gain > best_gain
            )
            if better or tie_break:
                best_index = index
                best_efficiency = efficiency
                best_gain = gain
        active = keep
        if best_index < 0 or best_gain <= 1e-12:
            break
        candidate = pool[best_index]
        active.remove(best_index)
        if _try_admit(network, demand_by_id[candidate.demand_id], candidate,
                      flows, ledger):
            admitted += 1
            demand_id = candidate.demand_id
            base_rates.pop(demand_id, None)
            versions[demand_id] = versions.get(demand_id, 0) + 1
            unparked = parked_by_demand.pop(demand_id, None)
            if unparked:
                active.extend(unparked)
                active.sort()
    return admitted


def _charge_totals(
    network: QuantumNetwork,
    flow: Optional[FlowLikeGraph],
    candidate: PathCandidate,
) -> Tuple[Dict[int, int], int]:
    """Per-node qubit charges of admitting *candidate* to *flow*, and
    their switch-qubit total (the efficiency denominator)."""
    needed: Dict[int, int] = {}
    cost = 0
    for u, v, amount in _edge_charges(flow, candidate):
        for node in (u, v):
            needed[node] = needed.get(node, 0) + amount
            if network.node(node).is_switch:
                cost += amount
    return needed, cost


def _ledger_funds(ledger: QubitLedger, needed: Dict[int, int]) -> bool:
    """True iff every node still holds the qubits *needed* charges it."""
    for node, count in needed.items():
        if not ledger.has_at_least(node, count):
            return False
    return True


def _evaluate_candidate(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    candidate: PathCandidate,
    flows: Dict[int, FlowLikeGraph],
    rate_cache: Optional[ChannelRateCache] = None,
    base_rates: Optional[Dict[int, float]] = None,
) -> Optional[float]:
    """Equation-1 rate gain of admitting *candidate* to its flow now.

    Returns ``None`` when the candidate can never be admitted at this
    flow state (the merge would create a cycle, or it does not improve
    its demand's rate).  Everything here depends only on the flow, so
    the caller may cache the result until that flow changes.
    ``base_rates`` memoises each demand's current rate across one
    admission scan (the caller drops an entry when its flow changes).
    """
    flow = flows.get(candidate.demand_id)
    if flow is None:
        trial = FlowLikeGraph(
            candidate.demand_id, candidate.nodes[0], candidate.nodes[-1]
        )
        base_rate = 0.0
    else:
        trial = flow.copy()
        base_rate = (
            None if base_rates is None
            else base_rates.get(candidate.demand_id)
        )
        if base_rate is None:
            base_rate = flow.entanglement_rate(
                network, link_model, swap_model, rate_cache=rate_cache
            )
            if base_rates is not None:
                base_rates[candidate.demand_id] = base_rate
    try:
        trial.add_path(candidate.nodes, candidate.width)
    except RoutingError:
        return None
    gain = trial.entanglement_rate(
        network, link_model, swap_model, rate_cache=rate_cache
    ) - base_rate
    if gain <= 0.0:
        return None
    return gain


def _max_width(path_sets: PathSets) -> int:
    widths = [w for per_width in path_sets.values() for w in per_width]
    return max(widths) if widths else 0


def _edge_charges(
    flow: Optional[FlowLikeGraph], candidate: PathCandidate
) -> List[Tuple[int, int, int]]:
    """Qubit charges ``(u, v, amount)`` for admitting *candidate*.

    New edges cost the full width at each endpoint; edges shared with the
    demand's existing flow cost only the upgrade delta (zero when the
    existing channel is already at least as wide).
    """
    charges = []
    for u, v in candidate.edges():
        if flow is not None and flow.contains_edge(u, v):
            delta = candidate.width - flow.edge_width(u, v)
            if delta > 0:
                charges.append((u, v, delta))
        else:
            charges.append((u, v, candidate.width))
    return charges


def _try_admit(
    network: QuantumNetwork,
    demand: Demand,
    candidate: PathCandidate,
    flows: Dict[int, FlowLikeGraph],
    ledger: QubitLedger,
) -> bool:
    """Admit one candidate path if resources (or shared edges) allow."""
    flow = flows.get(demand.demand_id)
    snapshot = ledger.snapshot()
    try:
        for u, v, amount in _edge_charges(flow, candidate):
            ledger.reserve_edge(u, v, amount)
    except CapacityError:
        ledger.restore(snapshot)
        return False
    if flow is None:
        flow = FlowLikeGraph(demand.demand_id, demand.source, demand.destination)
        flows[demand.demand_id] = flow
        flow.add_path(candidate.nodes, candidate.width)
        return True
    try:
        flow.add_path(candidate.nodes, candidate.width)
    except RoutingError:
        # Directed-cycle merge: reject the candidate, refund its qubits.
        ledger.restore(snapshot)
        return False
    return True
