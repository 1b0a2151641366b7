"""Differential tests: the lazy admission loops against the eager ones.

Q-CAST and Q-CAST-N admit from a lazy heap of (demand, width) searches
(``greedy_single_paths``), and Algorithm 3's efficiency admission probes
the ledger before it evaluates a candidate (``admit_paths_efficiency``).
Both are claimed to admit exactly what the eager loops they replace
admitted.  The eager loops live here, copied verbatim, as the oracles:
hypothesis routes random Waxman instances through both and compares the
plans, the per-demand rates, the leftover qubits and the order of every
ledger reservation with ``==``.

``fixed_p`` link models give every channel of one width the same rate,
so exact rate ties between demands, widths and paths are common and the
tie rules are exercised, not just the ordering.
"""

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.exceptions import RoutingError
from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing import nfusion
from repro.routing.alg1_largest_rate import largest_entanglement_rate_path
from repro.routing.alg3_merge import PathSets, _edge_charges, _try_admit
from repro.routing.allocation import QubitLedger
from repro.routing.baselines.qcast_n import greedy_single_paths
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache
from repro.routing.nfusion import AlgNFusion, RoutingResult
from repro.routing.paths import PathCandidate
from repro.routing.plan import RoutingPlan
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


@settings(max_examples=60, deadline=None)
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
    later sweeps start from non-empty flows) with either admission scan."""
    network, demands = instance
    router = AlgNFusion(max_width=max_width, refill_rounds=refill_rounds)
    lazy = _outcome(lambda: router.route(network, demands, link, swap))
    with mock.patch.object(
        nfusion, "admit_paths_efficiency", eager_admit_paths_efficiency
    ):
        eager = _outcome(lambda: router.route(network, demands, link, swap))
    assert lazy == eager
