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

Both policies, B1 (through :func:`merge_paths`) and MCF price a path
with :func:`path_charges`: each edge costs both endpoints the width it
lacks in the demand's flow, so a shared edge costs only its upgrade.  A
path is funded when every node's summed charge fits its remaining
count, exactly when reserving edge by edge with rollback would succeed.
:func:`admit_path` merges it first and charges only an acyclic merge
(Equation 1 requires an acyclic flow); a cyclic one changes nothing.

Efficiency admission is a lazy greedy (Minoux 1978; CELF, Leskovec et
al. 2007) that admits the same paths in the same order, with the same
floats, as a rescan of the whole pool after every admission:

* **Drop lemma.**  Admitting a path P to demand d lowers the charge of a
  candidate C of d at a node v by at most what P consumed at v (a shared
  edge's charge falls by at most P's charge on it), and within a sweep
  no node's count grows.  So each node's ``remaining - charge`` never
  grows, and a candidate the ledger cannot fund is dropped for good.
  After an admission only the candidates needing a switch P drained are
  probed again, at that switch; a candidate of d has its charges
  recomputed only when it shares an edge that P widened or added.  A
  live candidate is therefore always funded, and the winner is charged
  from the flow widths admission holds, with no ledger probe.
* **Bound.**  A candidate's gain is at most ``1 - (its demand's rate)``,
  as Equation-1 rates are at most 1.  The merge only adds a branch when
  every interior node's flow parents are a subset of {its predecessor
  on the path}, when the destination's are too if the candidate widens
  a shared edge (widening lifts the old branches as well), and when no
  shared edge is wider than the candidate.  Then the gain is also at
  most the path product: the channel rates at the candidate's width
  times ``fusion_success(2 * width)`` per interior switch (such a switch
  fuses at least ``2 * width`` links, and the swap factor never grows
  with the arity).
* **Leave-point bound.**  Take a branch-only candidate that widens no
  shared edge, so every shared edge has exactly its width w.  Its
  shared edges form a prefix S = v0 -> ... -> vj = a, the point where
  it leaves the flow: an interior vi in the flow (vi != S) has a flow
  parent, which the guard makes v(i-1), so the edge into vi is a flow
  edge, and by induction so is every edge before it.  After a, every
  interior node is new.  Let P(x) be the flow's Equation-1 value at x
  (P(D) = 1) and P'(x) the merged flow's.  The branch a -> ... -> D has
  value rho, its edges' rates at w times ``fusion_success(2 * w)`` per
  switch (each new node fuses exactly 2w links); a's other children
  keep their values, so P'(a) - P(a) = (1 - P(a)) * rho.  The guard
  leaves v0 .. v(j-1) as a's only ancestors, each the single parent of
  the next, and for x = vi with child c = v(i+1), ``P(x) = 1 - F * (1 -
  r * q_c * P(c))`` with F <= 1 from x's other children, which do not
  change.  Only a's arity grows (by w, to at least 2w), so q_c can only
  fall, and ``P'(x) - P(x) <= max(0, r * q'_c * (P'(c) - P(c)))`` with
  r the rate at width w and q'_c <= ``fusion_success(2 * w)`` for a
  switch (1 for a user, as in the product).  Chaining from a to S, the
  gain is at most ``product * (1 - P(a))``: exact at a = S for a
  disjoint branch, and never looser than ``min(product, 1 - rate)`` at
  a = S.  P(a) comes from the walk that gives the demand's rate
  (:meth:`~repro.routing.flow_graph.FlowLikeGraph.node_rates`).  A
  path whose every edge is already in the flow, at least as wide,
  changes no width and no child set (or closes a cycle), so whatever
  the guard says its gain is 0.
* **Slack.**  A computed gain is the difference of two rounded rates,
  so it can exceed a bound by rounding even when the bound is tiny (a
  gain of one ulp of the rate against a product below it).  Keys carry
  the absolute ``BOUND_SLACK``.
* **Spliced order.**  Candidates were checked once, when the pool was
  built, and merge through
  :meth:`~repro.routing.flow_graph.FlowLikeGraph.merge_path`, which
  decides acyclicity from the flow's memoised topological order.  If
  the path's flow nodes appear in it in increasing positions, splice
  each run of new nodes right after the flow node before it on the
  path.  Old nodes keep their relative order, so old edges still point
  forward; a path edge between flow nodes points forward by the
  positions; an edge into a run's first node follows its predecessor,
  within a run the nodes keep path order, and a run's last node sits
  before the next flow node on the path, whose position exceeds the
  run's anchor.  Every edge of the merged graph points forward, so it
  is acyclic and the spliced list is its topological order.  A path
  whose flow nodes are out of order falls back to one DFS, which
  decides exactly.  Equation 1 reads each node's children only, so the
  walk order does not move a float.
* **Heap and window.**  When a demand's flow changes its candidates are
  keyed by ``(bound + BOUND_SLACK) / max(cost, 1)``, re-bounded from
  the parent map the flow keeps; a bound-keyed entry on top of the heap
  is evaluated exactly (trial merge plus Equation 1) and pushed back,
  or parked until its flow changes when the merge is cyclic or gains
  nothing.  Exact entries are popped in descending order until the next
  key falls more than ``WINDOW`` below the lowest one popped.  The
  rescan's order-dependent rule (``> best + 1e-15``, or a larger gain
  within 1e-15) replayed over the popped set in pool order then picks
  what it would pick over the whole pool: a candidate below the window
  can neither win nor break a tie.  The winner's gain was evaluated at
  its flow's current version, so its merge is acyclic.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import RoutingError
from repro.network.demands import Demand, DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache, rate_cache_for
from repro.routing.paths import PathCandidate
from repro.routing.plan import RoutingPlan

PathSets = Dict[int, Dict[int, List[PathCandidate]]]

#: Absolute slack on a gain bound: a gain is the difference of two
#: rounded Equation-1 rates, so rounding can put it an ulp of the rate
#: above a bound however small the bound is.
BOUND_SLACK = 1e-12
#: Selection window below the lowest exact efficiency popped: twice the
#: tie tolerance, so rounding at the window edge cannot hide a tie.
WINDOW = 2e-15


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

    Candidates go widest first, then by decreasing rate (ties by demand
    id and nodes); each the ledger funds is admitted unless its merge is
    cyclic.  Exposed separately so the orchestrator can run *refill*
    sweeps, which admit re-selected candidates in this same order.
    """
    demand_by_id, pool = _checked_pool(demands, path_sets)
    pool.sort(key=lambda c: (-c.width, -c.rate, c.demand_id, c.nodes))
    widths = {demand_id: flow.edge_widths() for demand_id, flow in flows.items()}
    admitted = 0
    for candidate in pool:
        keys = candidate.edges()
        shared = widths.setdefault(candidate.demand_id, {})
        nodes, width = candidate.nodes, candidate.width
        needed = path_charges(nodes, width, keys, shared)
        if any(ledger.remaining(node) < count for node, count in needed.items()):
            continue
        if admit_path(demand_by_id[candidate.demand_id], nodes, width, keys,
                      shared, flows, ledger) is not None:
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
    demand_by_id, pool = _checked_pool(demands, path_sets)
    rate_cache = rate_cache_for(network, link_model, rate_cache)
    switch = {
        node: network.node(node).is_switch
        for node in dict.fromkeys(node for path in pool for node in path.nodes)
    }
    # Per pool index: static edge keys and path product, then the
    # charges against the demand's flow and their switch-qubit total
    # (the efficiency denominator), recomputed when it changes.
    keys = [candidate.edges() for candidate in pool]
    products = [
        _path_product(swap_model, rate_cache, switch, path, path_keys)
        for path, path_keys in zip(pool, keys)
    ]
    # Each demand's edge widths, kept equal to its flow's by the
    # admissions below (the only mutations during a sweep).
    widths = {demand_id: flow.edge_widths() for demand_id, flow in flows.items()}
    charges = [
        path_charges(
            path.nodes, path.width, path_keys, widths.get(path.demand_id, {})
        )
        for path, path_keys in zip(pool, keys)
    ]
    costs = [
        sum(map(needed.__getitem__, filter(switch.__getitem__, needed)))
        for needed in charges
    ]
    # Unfundable candidates are dropped for good (the drop lemma).  The
    # ledger does not change before the first admission, so each node's
    # count is read once (a user's is unlimited).
    remaining = {node: ledger.remaining(node) for node in switch}
    alive = [
        all(remaining[node] >= count for node, count in needed.items())
        for needed in charges
    ]
    by_demand: Dict[int, List[int]] = {}
    by_node: Dict[int, List[int]] = {}
    for index, candidate in enumerate(pool):
        if alive[index]:
            by_demand.setdefault(candidate.demand_id, []).append(index)
            for node in charges[index]:
                if switch[node]:
                    by_node.setdefault(node, []).append(index)
    # Heap entries are (-key, index, stamp, gain), gain None while the key
    # is a bound; bumping a candidate's stamp retires its entries.
    heap: List[Tuple[float, int, int, Optional[float]]] = []
    stamps = [0] * len(pool)
    base_rates: Dict[int, float] = {}

    def push_bounds(demand_id: int) -> None:
        """Key every live candidate of *demand_id* by its gain bound."""
        flow = flows.get(demand_id)
        values: Dict[int, float] = {}
        parents: Dict[int, Set[int]] = {}
        base_rate = 0.0
        if flow is not None:
            values = flow.node_rates(
                network, link_model, swap_model, rate_cache
            )
            parents = flow.parent_map()
            base_rate = values.get(flow.source, 0.0)
        base_rates[demand_id] = base_rate
        shared = widths.get(demand_id, {})
        for index in by_demand[demand_id]:
            if alive[index]:
                stamps[index] += 1
                bound = _gain_bound(
                    pool[index], keys[index], products[index], base_rate,
                    shared, parents, values,
                )
                key = (bound + BOUND_SLACK) / max(costs[index], 1)
                heapq.heappush(heap, (-key, index, stamps[index], None))

    for demand_id in by_demand:
        push_bounds(demand_id)
    admitted = 0
    while True:
        popped = []
        floor = -math.inf
        while heap:
            entry = heap[0]
            negative_key, index, stamp, gain = entry
            if stamp != stamps[index]:
                heapq.heappop(heap)
                continue
            if -negative_key < floor:
                break
            heapq.heappop(heap)
            if gain is None:
                # Cyclic or gainless: parked until its flow changes.
                demand_id = pool[index].demand_id
                gain = _evaluate_candidate(
                    network, link_model, swap_model, pool[index],
                    flows.get(demand_id), base_rates[demand_id], rate_cache,
                )
                if gain is not None:
                    efficiency = gain / max(costs[index], 1)
                    heapq.heappush(heap, (-efficiency, index, stamp, gain))
                continue
            popped.append(entry)
            floor = -negative_key - WINDOW
        best_index = -1
        best_efficiency = 0.0
        best_gain = 0.0
        for negative_key, index, _, gain in sorted(popped, key=itemgetter(1)):
            efficiency = -negative_key
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
        if best_index < 0 or best_gain <= 1e-12:
            break
        for entry in popped:
            if entry[1] != best_index:
                heapq.heappush(heap, entry)
        alive[best_index] = False
        stamps[best_index] += 1
        candidate = pool[best_index]
        demand_id = candidate.demand_id
        # Live candidates are funded (the drop lemma), and the winner's
        # gain was evaluated at this flow version: its merge is acyclic.
        widened = admit_path(
            demand_by_id[demand_id], candidate.nodes, candidate.width,
            keys[best_index], widths.setdefault(demand_id, {}), flows, ledger,
        )
        assert widened is not None, "the winner's merge was checked acyclic"
        admitted += 1
        # Charges read the flow only on the candidate's own edges, and
        # the admission widened only the edges it was charged for.
        for index in by_demand[demand_id]:
            if alive[index] and not widened.keys().isdisjoint(keys[index]):
                path = pool[index]
                needed = charges[index] = path_charges(
                    path.nodes, path.width, keys[index], widths[demand_id]
                )
                costs[index] = sum(map(
                    needed.__getitem__, filter(switch.__getitem__, needed)
                ))
        # Only the switches this admission drained can refuse anyone.
        for node in charges[best_index]:
            if not switch[node]:
                continue
            left = ledger.remaining(node)
            live = by_node[node] = [
                index for index in by_node[node] if alive[index]
            ]
            for index in live:
                if charges[index].get(node, 0) > left:
                    alive[index] = False
                    stamps[index] += 1
        push_bounds(demand_id)
    return admitted


def _checked_pool(
    demands: DemandSet, path_sets: PathSets
) -> Tuple[Dict[int, Demand], List[PathCandidate]]:
    """Demands by id and every candidate of *path_sets*, each checked
    once, here: its demand must be known and its endpoints the demand's
    (the merges after this trust both)."""
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
    for candidate in pool:
        demand = demand_by_id.get(candidate.demand_id)
        if demand is None:
            raise RoutingError(
                f"candidate {candidate.nodes} references unknown demand "
                f"{candidate.demand_id}"
            )
        nodes = candidate.nodes
        if nodes[0] != demand.source or nodes[-1] != demand.destination:
            raise RoutingError(
                f"candidate {nodes} does not connect demand "
                f"{demand.demand_id}'s endpoints "
                f"({demand.source}, {demand.destination})"
            )
    return demand_by_id, pool


def path_charges(
    nodes: Tuple[int, ...],
    width: int,
    keys: Tuple[Tuple[int, int], ...],
    widths: Dict[Tuple[int, int], int],
) -> Dict[int, int]:
    """Qubits admitting the path *nodes* (edge *keys*) at *width*
    charges each node, per node, against its demand's flow edge
    *widths*: every edge costs both endpoints the width it lacks in the
    flow (module docstring)."""
    needed: Dict[int, int] = {}
    for i, key in enumerate(keys):
        amount = width - widths.get(key, 0)
        if amount > 0:
            a, b = nodes[i], nodes[i + 1]
            needed[a] = needed.get(a, 0) + amount
            needed[b] = needed.get(b, 0) + amount
    return needed


def _path_product(
    swap_model: SwapModel,
    rate_cache: ChannelRateCache,
    switch: Dict[int, bool],
    candidate: PathCandidate,
    keys: Tuple[Tuple[int, int], ...],
) -> float:
    """Rate of *candidate* (edge *keys*) alone at its width, with every
    interior switch fusing ``2 * width`` links: its gain bound as a
    branch.  The compiled core reads the snapshot's rate column, the
    reference core its rate memo; both hold the same floats."""
    nodes, width = candidate.nodes, candidate.width
    product = 1.0
    snapshot = rate_cache.compiled_snapshot
    if snapshot is not None:
        column = snapshot.width_lists[width]
        edge_index = snapshot.edge_index
        for key in keys:
            product *= column[edge_index[key]]
    else:
        for u, v in keys:
            product *= rate_cache.rate(u, v, width)
    fusion = swap_model.fusion_success(2 * width)
    for node in nodes[1:-1]:
        if switch[node]:
            product *= fusion
    return product


def _gain_bound(
    candidate: PathCandidate,
    keys: Tuple[Tuple[int, int], ...],
    product: float,
    base_rate: float,
    widths: Dict[Tuple[int, int], int],
    parents: Dict[int, Set[int]],
    values: Dict[int, float],
) -> float:
    """Upper bound on the Equation-1 gain of merging *candidate* into a
    flow of rate *base_rate*, edge *widths*, node *parents* and per-node
    Equation-1 *values*: at most ``1 - base_rate``; when the merge only
    adds a branch (the no-reconvergence guard) at most the path
    *product*, and when it also widens no shared edge at most ``product
    * (1 - P(a))`` for the node a where it leaves the flow; 0 when every
    edge is in the flow at least as wide (module docstring)."""
    bound = 1.0 - base_rate
    if not widths:
        # No flow yet: a = S, where P is 0.
        return min(bound, product)
    width = candidate.width
    widens = wider = False
    leave = -1
    for i, key in enumerate(keys):
        shared = widths.get(key)
        if shared is None:
            if leave < 0:
                leave = i
        elif shared > width:
            wider = True
        elif shared < width:
            widens = True
    if leave < 0 and not widens:
        # Every edge is in the flow at least as wide: the merge changes
        # no width and no child set, or closes a cycle.
        return 0.0
    if wider:
        return bound
    nodes = candidate.nodes
    for i in range(1, len(nodes) if widens else len(nodes) - 1):
        above = parents.get(nodes[i])
        if above and (len(above) > 1 or nodes[i - 1] not in above):
            return bound
    if widens:
        return min(bound, product)
    return min(bound, product * (1.0 - values.get(nodes[leave], 0.0)))


def _evaluate_candidate(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    candidate: PathCandidate,
    flow: Optional[FlowLikeGraph],
    base_rate: float,
    rate_cache: ChannelRateCache,
) -> Optional[float]:
    """Equation-1 rate gain of merging *candidate* (checked when its pool
    was built) into *flow*, its demand's flow of rate *base_rate*
    (``None``: no flow yet, rate 0).

    Returns ``None`` when the candidate can never be admitted at this
    flow state (the merge would create a cycle, or it does not improve
    its demand's rate).  Everything here depends only on the flow, so
    the caller may cache the result until that flow changes.
    """
    if flow is None:
        trial = FlowLikeGraph(
            candidate.demand_id, candidate.nodes[0], candidate.nodes[-1]
        )
    else:
        trial = flow.copy()
    if not trial.merge_path(candidate.nodes, candidate.width):
        return None
    gain = trial.entanglement_rate(
        network, link_model, swap_model, rate_cache=rate_cache
    ) - base_rate
    if gain <= 0.0:
        return None
    return gain


def admit_path(
    demand: Demand,
    nodes: Tuple[int, ...],
    width: int,
    keys: Tuple[Tuple[int, int], ...],
    widths: Dict[Tuple[int, int], int],
    flows: Dict[int, FlowLikeGraph],
    ledger: QubitLedger,
) -> Optional[Dict[Tuple[int, int], int]]:
    """Admit the path *nodes* at *width* (a loopless walk between the
    endpoints, width >= 1, funded per :func:`path_charges`: all checked
    by the caller) to *demand*'s flow in *flows*, a new one when there
    is none: the admission step of both policies, B1 and MCF.

    Merges first: returns ``None``, changing nothing, when the merge
    would close a directed cycle.  Otherwise reserves, in path order and
    under each edge's canonical key (*keys*), the width the edge lacks
    in the flow's edge *widths*, updates *widths* and returns the
    widened edges with their new width."""
    flow = flows.get(demand.demand_id)
    if flow is None:
        flow = FlowLikeGraph(
            demand.demand_id, demand.source, demand.destination
        )
    if not flow.merge_path(nodes, width):
        return None
    flows[demand.demand_id] = flow
    widened = {key: width for key in keys if widths.get(key, 0) < width}
    ledger.reserve_edges([
        (u, v, width - widths.get((u, v), 0)) for u, v in widened
    ])
    widths.update(widened)
    return widened
