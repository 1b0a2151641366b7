"""Differential tests: the lazy admission loops against the eager ones.

Q-CAST and Q-CAST-N admit from a lazy heap of (demand, width) searches
(``greedy_single_paths``), and Algorithm 3's efficiency admission keys
its candidates by a gain bound and evaluates only those whose bound can
still win (``admit_paths_efficiency``).  Both are claimed to admit
exactly what the loops they replace admitted.  Those loops live here,
copied verbatim, as the oracles: the eager Q-CAST loop, the rescan of
the whole pool after every admission (``scan_admit_paths_efficiency``)
and the scan that evaluated every candidate before its ledger check
(``eager_admit_paths_efficiency``).  The oracles merge through the
checked ``FlowLikeGraph.add_path`` (with its cycle DFS) and probe the
ledger before every admission, as those loops did.  Hypothesis routes random Waxman
instances through each and compares the plans, the per-demand rates,
the leftover qubits and the order of every ledger reservation with
``==``; it also checks every gain the lazy loop evaluates against the
bound it was keyed by, and the drop lemma the lazy loop relies on.

``fixed_p`` link models give every channel of one width the same rate,
so exact rate ties between demands, widths and paths are common and the
tie rules are exercised, not just the ordering.
"""

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import CapacityError, RoutingError
from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.network.node import QuantumSwitch, QuantumUser
from repro.routing import alg3_merge, nfusion
from repro.routing.alg1_largest_rate import largest_entanglement_rate_path
from repro.routing.alg3_merge import (
    BOUND_SLACK,
    admit_paths_efficiency,
    PathSets,
    _edge_charges,
)
from repro.routing.allocation import QubitLedger
from repro.routing.baselines.qcast_n import greedy_single_paths
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache
from repro.routing.nfusion import AlgNFusion, RoutingResult
from repro.routing.paths import PathCandidate
from repro.routing.plan import RoutingPlan
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng


# -- oracle: the eager Q-CAST/Q-CAST-N loop ---------------------------------

def eager_greedy_single_paths(
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


# -- oracle: the Algorithm 3 efficiency rescan ------------------------------

def scan_admit_paths_efficiency(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    demands: DemandSet,
    path_sets: PathSets,
    flows: Dict[int, FlowLikeGraph],
    ledger: QubitLedger,
    rate_cache: Optional[ChannelRateCache] = None,
) -> int:
    """Marginal-efficiency greedy admission sweep that rescans the whole
    active pool after every admission, probing the ledger before it
    evaluates a candidate."""
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
                    gain = checked_evaluate_candidate(
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
        if checked_try_admit(demand_by_id[candidate.demand_id], candidate,
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


def checked_evaluate_candidate(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    candidate: PathCandidate,
    flows: Dict[int, FlowLikeGraph],
    rate_cache: Optional[ChannelRateCache] = None,
    base_rates: Optional[Dict[int, float]] = None,
) -> Optional[float]:
    """Equation-1 rate gain of admitting *candidate* to its flow now,
    through a checked trial merge; ``None`` for a cyclic merge or no
    gain.  ``base_rates`` memoises each demand's current rate."""
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


def checked_try_admit(
    demand: Demand,
    candidate: PathCandidate,
    flows: Dict[int, FlowLikeGraph],
    ledger: QubitLedger,
) -> bool:
    """Admit one candidate path if resources (or shared edges) allow,
    through the checked merge."""
    flow = flows.get(demand.demand_id)
    charges = _edge_charges(flow, candidate)
    try:
        ledger.reserve_edges(charges)
    except CapacityError:
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
        ledger.release_edges(charges)
        return False
    return True


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


# -- oracle: the eager Algorithm 3 efficiency scan --------------------------

def eager_admit_paths_efficiency(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    demands: DemandSet,
    path_sets: PathSets,
    flows: Dict[int, FlowLikeGraph],
    ledger: QubitLedger,
    rate_cache: Optional[ChannelRateCache] = None,
) -> int:
    """Marginal-efficiency greedy admission sweep, evaluating every
    candidate before it checks the ledger."""
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
    base_rates: Dict[int, float] = {}
    versions: Dict[int, int] = {}
    struct_memo: Dict[
        int,
        Tuple[int, Optional[Tuple[Dict[int, int], float, int]]],
    ] = {}
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
            cached = struct_memo.get(index)
            if cached is not None and cached[0] == version:
                evaluation = cached[1]
            else:
                evaluation = eager_evaluate_candidate(
                    network, link_model, swap_model, candidate, flows,
                    rate_cache, base_rates,
                )
                struct_memo[index] = (version, evaluation)
            if evaluation is None:
                parked_by_demand.setdefault(
                    candidate.demand_id, []
                ).append(index)
                continue
            needed, gain, cost = evaluation
            feasible = True
            for node, count in needed.items():
                if not ledger.has_at_least(node, count):
                    feasible = False
                    break
            if not feasible:
                parked_by_demand.setdefault(
                    candidate.demand_id, []
                ).append(index)
                continue
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
        if checked_try_admit(demand_by_id[candidate.demand_id], candidate,
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


def eager_evaluate_candidate(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    candidate: PathCandidate,
    flows: Dict[int, FlowLikeGraph],
    rate_cache: Optional[ChannelRateCache] = None,
    base_rates: Optional[Dict[int, float]] = None,
) -> Optional[Tuple[Dict[int, int], float, int]]:
    """``(needed, gain, cost)`` of admitting *candidate* to its flow now,
    or ``None`` for a cyclic merge or no gain."""
    flow = flows.get(candidate.demand_id)
    needed: Dict[int, int] = {}
    cost = 0
    for u, v, amount in _edge_charges(flow, candidate):
        for node in (u, v):
            needed[node] = needed.get(node, 0) + amount
            if network.node(node).is_switch:
                cost += amount
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
    return needed, gain, cost


# -- instances and comparison -----------------------------------------------

LINK_MODELS = st.sampled_from((
    LinkModel(fixed_p=0.4),
    LinkModel(fixed_p=0.9),
    LinkModel(fixed_p=1.0),
    LinkModel(),
))
SWAP_MODELS = st.sampled_from((
    SwapModel(q=0.9),
    SwapModel(q=1.0),
    SwapModel(q=0.9, per_qubit=True),
))


@st.composite
def waxman_instances(draw):
    config = NetworkConfig(
        num_switches=draw(st.integers(10, 30)),
        average_degree=draw(st.sampled_from((3.0, 5.0, 8.0))),
        qubit_capacity=draw(st.integers(2, 10)),
        num_users=draw(st.integers(3, 8)),
    )
    rng = ensure_rng(draw(st.integers(0, 2**31 - 1)))
    network = build_network(config, rng)
    demands = generate_demands(network, draw(st.integers(1, 12)), rng)
    return network, demands


@contextmanager
def recorded_reservations():
    """Record every ``QubitLedger.reserve_edge`` call, in order: the
    admission sequence, with each admitted edge and width."""
    calls: List[Tuple[int, int, int]] = []
    original = QubitLedger.reserve_edge

    def reserve_edge(ledger, u, v, width):
        calls.append((u, v, width))
        return original(ledger, u, v, width)

    with mock.patch.object(QubitLedger, "reserve_edge", reserve_edge):
        yield calls


def _outcome(route):
    """Route under a reservation recorder; everything the comparison
    asserts, as one comparable value."""
    with recorded_reservations() as reservations:
        result = route()
    flows = [
        (flow.demand_id, tuple(flow.paths), sorted(flow.edge_widths().items()))
        for flow in result.plan.flows()
    ]
    return {
        "flows": flows,
        "demand_rates": result.demand_rates,
        "total_rate": result.total_rate,
        "remaining_qubits": result.remaining_qubits,
        "reservations": reservations,
    }


WIDTH_RANGES = st.one_of(
    st.integers(1, 4).map(lambda top: tuple(range(top, 0, -1))),
    st.integers(1, 4).map(lambda top: tuple(range(1, top + 1))),
    st.sampled_from(((1,), (2,), (3, 1), (1, 3, 2))),
)


@settings(max_examples=100, deadline=None)
@given(
    instance=waxman_instances(),
    widths=WIDTH_RANGES,
    link=LINK_MODELS,
    swap=SWAP_MODELS,
)
def test_lazy_single_path_greedy_matches_eager(instance, widths, link, swap):
    network, demands = instance
    lazy = _outcome(lambda: greedy_single_paths(
        "lazy", network, demands, widths, link, swap
    ))
    eager = _outcome(lambda: eager_greedy_single_paths(
        "lazy", network, demands, widths, link, swap
    ))
    assert lazy == eager


@contextmanager
def checked_gain_bounds():
    """Assert that every gain the lazy loop evaluates is within the bound
    its heap key was computed from, at the same flow state.  Yields the
    ``(gain, bound, path product)`` of every evaluation with a gain."""
    bounds: Dict[int, Tuple[float, float]] = {}
    seen: List[Tuple[float, float, float]] = []
    real_bound = alg3_merge._gain_bound
    real_evaluate = alg3_merge._evaluate_candidate

    def gain_bound(candidate, keys, product, *rest):
        bound = real_bound(candidate, keys, product, *rest)
        bounds[id(candidate)] = (bound, product)
        return bound

    def evaluate(network, link_model, swap_model, candidate, *rest):
        gain = real_evaluate(network, link_model, swap_model, candidate, *rest)
        if gain is not None:
            bound, product = bounds[id(candidate)]
            assert gain <= bound + BOUND_SLACK, (gain, bound)
            seen.append((gain, bound, product))
        return gain

    with mock.patch.object(alg3_merge, "_gain_bound", gain_bound), \
            mock.patch.object(alg3_merge, "_evaluate_candidate", evaluate):
        yield seen


@settings(max_examples=300, deadline=None)
@given(
    instance=waxman_instances(),
    max_width=st.sampled_from((None, 1, 2, 3, 4)),
    refill_rounds=st.sampled_from((0, 2)),
    link=LINK_MODELS,
    swap=SWAP_MODELS,
)
def test_ledger_first_admission_matches_eager(
    instance, max_width, refill_rounds, link, swap
):
    """ALG-N-FUSION end to end (Steps I-III, refill sweeps included, so
    later sweeps start from non-empty flows) with the lazy heap, the
    rescan and the eager scan; every gain the heap evaluates is within
    its bound."""
    network, demands = instance
    router = AlgNFusion(max_width=max_width, refill_rounds=refill_rounds)
    with checked_gain_bounds():
        lazy = _outcome(lambda: router.route(network, demands, link, swap))
    for oracle in (scan_admit_paths_efficiency, eager_admit_paths_efficiency):
        with mock.patch.object(nfusion, "admit_paths_efficiency", oracle):
            assert _outcome(
                lambda: router.route(network, demands, link, swap)
            ) == lazy


def _detour_network() -> QuantumNetwork:
    """Users 0 and 1 joined by switches 2, 3 (``0-2-3-1``), by a detour
    from switch 2 through switches 4..9 (``2-4-...-9-1``) and by switch
    10, which links the source, switch 5 and the destination."""
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(9000.0, 0.0)))
    for node in range(2, 11):
        network.add_node(QuantumSwitch(node, Point(1000.0 * node, 1.0), 10))
    for u, v in zip((0, 2, 3), (2, 3, 1)):
        network.add_edge(u, v)
    detour = (2, 4, 5, 6, 7, 8, 9, 1)
    for u, v in zip(detour, detour[1:]):
        network.add_edge(u, v)
    for u, v in ((0, 10), (5, 10), (10, 1)):
        network.add_edge(u, v)
    return network


SHORT = (0, 2, 3, 1)
DETOUR = (0, 2, 4, 5, 6, 7, 8, 9, 1)


@pytest.mark.parametrize("first, second, leave", [
    # Widens the shared edge (0, 2), which lifts the old branch too.
    ((SHORT, 1), (DETOUR, 2), None),
    # Shares (0, 2) at width 3: the product prices that edge at width 1.
    ((DETOUR, 3), (SHORT, 1), None),
    # A plain branch off node 2: the destination's second parent is exempt.
    ((SHORT, 1), (DETOUR, 1), 2),
    # Follows the detour to switch 5, then leaves it through switch 10.
    ((DETOUR, 1), ((0, 2, 4, 5, 10, 1), 1), 5),
    # Shares nothing: it leaves at the source.
    ((SHORT, 1), ((0, 10, 1), 1), 0),
])
def test_gain_bound_guard(first, second, leave):
    """Admit *first*, then *second*, to one demand.  When the guard lets
    the second path only add a branch that widens nothing, its gain is
    bounded by ``product * (1 - P(a))``, P(a) the flow's Equation-1
    value where it leaves the flow (exact at the source); otherwise by
    ``1 - rate`` (the first case is the counterexample that forbids
    exempting the destination while a shared edge widens: gain 0.0426
    against a product of 0.0135)."""
    network = _detour_network()
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    demands = DemandSet([Demand(0, 0, 1)])
    flows: Dict[int, FlowLikeGraph] = {}
    ledger = QubitLedger(network)
    (nodes, width), (second_nodes, second_width) = first, second
    admit_paths_efficiency(
        network, link, swap, demands,
        {0: {width: [PathCandidate(0, nodes, width, 0.5)]}}, flows, ledger,
    )
    values = dict(flows[0].node_rates(network, link, swap))
    base_rate = values[0]
    candidate = PathCandidate(0, second_nodes, second_width, 0.5)
    with checked_gain_bounds() as seen:
        admitted = admit_paths_efficiency(
            network, link, swap, demands, {0: {second_width: [candidate]}},
            flows, ledger,
        )
    assert admitted == 1
    [(gain, bound, product)] = seen
    if leave is None:
        assert gain > product
        assert bound == 1.0 - base_rate
    else:
        assert bound == product * (1.0 - values[leave])
        assert bound < min(product, 1.0 - base_rate)
    if leave == 0:
        assert gain == pytest.approx(bound, rel=1e-12)


def test_gain_bound_is_zero_for_a_path_already_in_the_flow():
    """A candidate whose every edge is in its flow at least as wide
    (here the admitted path at narrower widths) changes nothing: it is
    keyed by a bound of 0 and admitted never."""
    network = _detour_network()
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    demands = DemandSet([Demand(0, 0, 1)])
    flows: Dict[int, FlowLikeGraph] = {}
    ledger = QubitLedger(network)
    admit_paths_efficiency(
        network, link, swap, demands,
        {0: {3: [PathCandidate(0, DETOUR, 3, 0.5)]}}, flows, ledger,
    )
    real_bound = alg3_merge._gain_bound
    bounds = []

    def gain_bound(*args):
        bounds.append(real_bound(*args))
        return bounds[-1]

    narrower = {w: [PathCandidate(0, DETOUR, w, 0.5)] for w in (1, 2)}
    with mock.patch.object(alg3_merge, "_gain_bound", gain_bound), \
            checked_gain_bounds():
        admitted = admit_paths_efficiency(
            network, link, swap, demands, {0: narrower}, flows, ledger,
        )
    assert admitted == 0
    assert bounds == [0.0, 0.0]


def test_gain_bound_slack_is_absolute():
    """A gain is the difference of two rounded rates.  A 12-hop branch
    at ``fixed_p=0.05`` (product about 7.6e-17) off a flow of rate about
    0.37 gains one ulp of that rate: more than the product itself, far
    beyond a relative slack on it, and within the absolute one."""
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(2000.0, 0.0)))
    detour = [0] + list(range(3, 14)) + [1]
    for node in range(2, 14):
        network.add_node(QuantumSwitch(node, Point(100.0 * node, 1.0), 64))
    for u, v in [(0, 2), (2, 1)] + list(zip(detour, detour[1:])):
        network.add_edge(u, v)
    link, swap = LinkModel(fixed_p=0.05), SwapModel(q=0.9)
    demands = DemandSet([Demand(0, 0, 1)])
    flows: Dict[int, FlowLikeGraph] = {}
    ledger = QubitLedger(network)
    admit_paths_efficiency(
        network, link, swap, demands,
        {0: {20: [PathCandidate(0, (0, 2, 1), 20, 0.5)]}}, flows, ledger,
    )
    branch = PathCandidate(0, tuple(detour), 1, 0.0)
    with checked_gain_bounds() as seen:
        admitted = admit_paths_efficiency(
            network, link, swap, demands, {0: {1: [branch]}}, flows, ledger,
        )
    assert admitted == 0
    [(gain, bound, product)] = seen
    assert gain > product * (1.0 + 1e-12)
    assert gain <= bound + BOUND_SLACK


@pytest.mark.parametrize("admitted_first", [False, True])
def test_admission_refuses_a_candidate_off_its_demands_endpoints(admitted_first):
    """A candidate that does not end at its demand's destination is
    refused when its pool is built, whether or not the demand already
    has a flow (it used to be dropped silently after a trial merge
    once the demand had one)."""
    network = _detour_network()
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    demands = DemandSet([Demand(0, 0, 1)])
    flows: Dict[int, FlowLikeGraph] = {}
    ledger = QubitLedger(network)
    if admitted_first:
        admit_paths_efficiency(
            network, link, swap, demands,
            {0: {1: [PathCandidate(0, SHORT, 1, 0.5)]}}, flows, ledger,
        )
    before = ledger.snapshot()
    stray = PathCandidate(0, (0, 2, 4, 5), 1, 0.5)
    with pytest.raises(RoutingError, match="endpoints"):
        admit_paths_efficiency(
            network, link, swap, demands, {0: {1: [stray]}}, flows, ledger,
        )
    assert ledger.snapshot() == before
    assert [flow.paths for flow in flows.values()] == (
        [[SHORT]] if admitted_first else []
    )


def test_gain_tie_break_matches_the_scan():
    """Two candidates of exactly equal efficiency: a branch of demand 0
    (gain 0.25 for 2 qubits) before a width-2 path of demand 1 (gain 0.5
    for 4).  The scan's tie rule admits the later, larger gain first;
    the heap must pop both before it picks."""
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(2000.0, 0.0)))
    network.add_node(QuantumSwitch(2, Point(1000.0, 1.0), 10))
    network.add_node(QuantumSwitch(3, Point(1000.0, -1.0), 10))
    for u, v in ((0, 2), (2, 1), (0, 3), (3, 1)):
        network.add_edge(u, v)
    link, swap = LinkModel(fixed_p=1.0), SwapModel(q=0.5)
    demands = DemandSet([Demand(0, 0, 1), Demand(1, 0, 1)])

    def admission(admit):
        flows: Dict[int, FlowLikeGraph] = {}
        ledger = QubitLedger(network)
        admit(network, link, swap, demands,
              {0: {1: [PathCandidate(0, (0, 2, 1), 1, 0.5)]}}, flows, ledger)
        path_sets = {
            0: {1: [PathCandidate(0, (0, 3, 1), 1, 0.5)]},
            1: {2: [PathCandidate(1, (0, 2, 1), 2, 0.5)]},
        }
        with recorded_reservations() as reservations:
            admit(network, link, swap, demands, path_sets, flows, ledger)
        return reservations

    lazy = admission(admit_paths_efficiency)
    assert lazy[0] == (0, 2, 2)
    assert lazy == admission(scan_admit_paths_efficiency)


@contextmanager
def checked_drop_lemma():
    """Assert, around every admission of each efficiency sweep, that no
    pool candidate's slack grows: the least ``remaining - charge`` over
    the switches on its path, charges taken against its demand's flow."""
    real_admit = alg3_merge.admit_paths_efficiency
    real_admit_winner = alg3_merge._admit
    sweep = {}

    def slacks():
        network, pool, flows, ledger = sweep["state"]
        result = []
        for candidate in pool:
            needed, _ = _charge_totals(
                network, flows.get(candidate.demand_id), candidate
            )
            result.append(min(
                (ledger.remaining(node) - needed.get(node, 0)
                 for node in candidate.nodes
                 if network.node(node).is_switch),
                default=float("inf"),
            ))
        return result

    def admit(network, link_model, swap_model, demands, path_sets, flows,
              ledger, rate_cache=None):
        pool = [
            path
            for per_width in path_sets.values()
            for paths in per_width.values()
            for path in paths
        ]
        sweep["state"] = (network, pool, flows, ledger)
        sweep["slacks"] = slacks()
        return real_admit(network, link_model, swap_model, demands,
                          path_sets, flows, ledger, rate_cache)

    def admit_winner(*args):
        real_admit_winner(*args)
        after = slacks()
        assert all(
            new <= old for new, old in zip(after, sweep["slacks"])
        )
        sweep["slacks"] = after

    with mock.patch.object(nfusion, "admit_paths_efficiency", admit), \
            mock.patch.object(alg3_merge, "_admit", admit_winner):
        yield


@settings(max_examples=100, deadline=None)
@given(
    instance=waxman_instances(),
    max_width=st.sampled_from((None, 1, 2, 3, 4)),
    refill_rounds=st.sampled_from((0, 2)),
    link=LINK_MODELS,
    swap=SWAP_MODELS,
)
def test_admission_never_raises_a_candidates_slack(
    instance, max_width, refill_rounds, link, swap
):
    """The drop lemma: within a sweep an unfunded candidate stays
    unfunded, so the lazy loop may drop it for good."""
    network, demands = instance
    router = AlgNFusion(max_width=max_width, refill_rounds=refill_rounds)
    with checked_drop_lemma():
        router.route(network, demands, link, swap)
