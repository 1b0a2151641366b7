"""MCF — multicommodity-flow LP baseline (extension).

Chakraborty et al. ([37] in the paper) route entanglement by solving a
multicommodity-flow linear program.  This baseline adapts that approach
to the paper's model as an additional comparator:

* **Variables** — directed per-demand arc flows ``f[d, (a, b)] >= 0``
  measuring how many parallel links demand *d* places on edge ``{a, b}``
  in direction ``a -> b``.
* **Constraints** — flow conservation at switches (per demand), a source
  out-flow of at most ``max_width`` per demand, and switch qubit
  capacities shared across demands (each unit of flow through a switch
  consumes one qubit per incident direction).
* **Objective** — maximise total delivered flow minus a per-arc cost
  ``-log(p_e * q)``, the LP surrogate for the multiplicative rate metric.

The fractional solution is decomposed into at most ``max_paths`` paths
per demand (greedy max-bottleneck extraction) and admitted through the
same ledger/flow-graph machinery as every other router, so the reported
entanglement rate is computed by the identical Equation 1 code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.exceptions import CapacityError, RoutingError
from repro.network.demands import Demand, DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache, rate_cache_for
from repro.routing.nfusion import RoutingResult
from repro.routing.plan import RoutingPlan
from repro.routing.registry import register_router

Arc = Tuple[int, int]


@register_router("mcf")
@dataclass
class MCFRouter:
    """LP-relaxation multicommodity-flow router."""

    max_width: int = 3
    max_paths: int = 3
    cost_weight: float = 0.15
    name: str = "MCF"

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
        banned_edges: FrozenSet[Arc] = frozenset(),
    ) -> RoutingResult:
        """Solve the LP over *ledger*'s remaining switch capacities and
        the arcs off banned elements, decompose, admit, report rates."""
        try:
            from scipy.optimize import linprog
        except ImportError as exc:  # pragma: no cover - scipy is a test dep
            raise RoutingError(
                "MCFRouter requires scipy; install the [test] extra"
            ) from exc
        link_model = link_model or LinkModel()
        swap_model = swap_model or SwapModel()
        rate_cache = rate_cache_for(network, link_model, rate_cache)
        ledger = ledger or QubitLedger(network)
        demand_list = list(demands)
        arcs = self._arcs(network, banned_nodes, banned_edges)
        arc_index = {arc: i for i, arc in enumerate(arcs)}
        num_demands = len(demand_list)
        num_vars = num_demands * len(arcs)

        def var(d: int, arc: Arc) -> int:
            return d * len(arcs) + arc_index[arc]

        objective = np.zeros(num_vars)
        q = swap_model.success_probability(2)
        for d in range(num_demands):
            for arc in arcs:
                a, b = arc
                p = link_model.success_probability(network.edge_length(a, b))
                cost = -math.log(max(p, 1e-9) * max(q, 1e-9))
                objective[var(d, arc)] = self.cost_weight * cost
        # Reward delivered flow: subtract 1 per unit of source out-flow.
        for d, demand in enumerate(demand_list):
            for arc in arcs:
                if arc[0] == demand.source:
                    objective[var(d, arc)] -= 1.0
                if arc[1] == demand.source:
                    objective[var(d, arc)] += 1.0

        a_eq, b_eq = self._conservation(network, demand_list, arcs, var)
        a_ub, b_ub = self._capacities(network, demand_list, arcs, var, ledger)
        bounds = [(0.0, float(self.max_width))] * num_vars
        solution = linprog(
            objective,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
        flows_vector = (
            solution.x if solution.status == 0 and solution.x is not None
            else np.zeros(num_vars)
        )

        plan = RoutingPlan()
        for d, demand in enumerate(demand_list):
            arc_flow = {
                arc: float(flows_vector[var(d, arc)])
                for arc in arcs
                if flows_vector[var(d, arc)] > 1e-6
            }
            flow_graph = self._decompose_and_admit(
                network, demand, arc_flow, ledger
            )
            if flow_graph is not None:
                plan.add_flow(flow_graph)

        return RoutingResult.from_plan(
            self.name, plan, network, link_model, swap_model, ledger,
            rate_cache,
        )

    # ------------------------------------------------------------------

    def _arcs(self, network, banned_nodes, banned_edges) -> List[Arc]:
        arcs: List[Arc] = []
        for edge in network.edges():
            if edge.key in banned_edges or {edge.u, edge.v} & banned_nodes:
                continue
            arcs.append((edge.u, edge.v))
            arcs.append((edge.v, edge.u))
        return arcs

    def _conservation(self, network, demand_list, arcs, var):
        """Per-demand conservation at switches; users only source/sink.

        Built sparsely: the constraint matrix has one row per
        (demand, switch) pair but only ``degree`` nonzeros per row.
        """
        from scipy.sparse import csr_matrix

        data: List[float] = []
        row_idx: List[int] = []
        col_idx: List[int] = []
        rhs: List[float] = []
        num_vars = len(demand_list) * len(arcs)
        row = 0
        for d, demand in enumerate(demand_list):
            for node in network.switches():
                for arc in arcs:
                    if arc[0] == node:
                        data.append(1.0)
                        row_idx.append(row)
                        col_idx.append(var(d, arc))
                    elif arc[1] == node:
                        data.append(-1.0)
                        row_idx.append(row)
                        col_idx.append(var(d, arc))
                rhs.append(0.0)
                row += 1
            # Forbid relaying through other users.
            for user in network.users():
                if user in (demand.source, demand.destination):
                    continue
                for arc in arcs:
                    if user in arc:
                        data.append(1.0)
                        row_idx.append(row)
                        col_idx.append(var(d, arc))
                rhs.append(0.0)
                row += 1
        if row == 0:
            return None, None
        matrix = csr_matrix(
            (data, (row_idx, col_idx)), shape=(row, num_vars)
        )
        return matrix, np.array(rhs)

    def _capacities(self, network, demand_list, arcs, var, ledger):
        from scipy.sparse import csr_matrix

        data: List[float] = []
        row_idx: List[int] = []
        col_idx: List[int] = []
        rhs: List[float] = []
        num_vars = len(demand_list) * len(arcs)
        row = 0
        for node in network.switches():
            for d in range(len(demand_list)):
                for arc in arcs:
                    if node in arc:
                        # Each unit of undirected width at this switch
                        # costs one qubit; arcs double-count direction, so
                        # weight by 1/2 per direction.
                        data.append(0.5)
                        row_idx.append(row)
                        col_idx.append(var(d, arc))
            rhs.append(float(ledger.remaining(node)))
            row += 1
        # Cap the per-demand source out-flow at max_width.
        for d, demand in enumerate(demand_list):
            for arc in arcs:
                if arc[0] == demand.source:
                    data.append(1.0)
                    row_idx.append(row)
                    col_idx.append(var(d, arc))
                elif arc[1] == demand.source:
                    data.append(-1.0)
                    row_idx.append(row)
                    col_idx.append(var(d, arc))
            rhs.append(float(self.max_width))
            row += 1
        matrix = csr_matrix(
            (data, (row_idx, col_idx)), shape=(row, num_vars)
        )
        return matrix, np.array(rhs)

    def _decompose_and_admit(
        self,
        network: QuantumNetwork,
        demand: Demand,
        arc_flow: Dict[Arc, float],
        ledger: QubitLedger,
    ) -> Optional[FlowLikeGraph]:
        """Greedy max-bottleneck path extraction + ledger admission."""
        flow_graph: Optional[FlowLikeGraph] = None
        remaining = dict(arc_flow)
        for _ in range(self.max_paths):
            path = self._extract_path(network, demand, remaining)
            if path is None:
                break
            bottleneck = min(
                remaining[(a, b)] for a, b in zip(path, path[1:])
            )
            width = max(1, int(round(bottleneck)))
            for a, b in zip(path, path[1:]):
                remaining[(a, b)] -= bottleneck
                if remaining[(a, b)] <= 1e-6:
                    del remaining[(a, b)]
            candidate = flow_graph or FlowLikeGraph(
                demand.demand_id, demand.source, demand.destination
            )
            # A shared edge costs only the width it gains.
            charges = [
                (a, b, width - candidate.edge_width(a, b))
                if candidate.contains_edge(a, b) else (a, b, width)
                for a, b in zip(path, path[1:])
            ]
            charges = [charge for charge in charges if charge[2] > 0]
            try:
                ledger.reserve_edges(charges)
            except CapacityError:
                continue
            try:
                # A rejected merge leaves the candidate untouched.
                candidate.add_path(tuple(path), width)
            except RoutingError:
                ledger.release_edges(charges)
                continue
            flow_graph = candidate
        return flow_graph

    def _extract_path(
        self,
        network: QuantumNetwork,
        demand: Demand,
        remaining: Dict[Arc, float],
    ) -> Optional[List[int]]:
        """Widest path through the residual fractional flow (BFS over
        arcs with positive flow, max-bottleneck via binary relaxation)."""
        # Simple approach: repeatedly follow the highest-flow outgoing arc
        # with loop avoidance; fall back to BFS if greedy stalls.
        path = self._greedy_walk(network, demand, remaining)
        if path is not None:
            return path
        return self._bfs_walk(network, demand, remaining)

    def _greedy_walk(self, network, demand, remaining):
        path = [demand.source]
        seen = {demand.source}
        current = demand.source
        for _ in range(network.num_nodes):
            if current == demand.destination:
                return path
            candidates = [
                (flow, arc)
                for arc, flow in remaining.items()
                if arc[0] == current and arc[1] not in seen
            ]
            if not candidates:
                return None
            _, best = max(candidates, key=lambda item: item[0])
            current = best[1]
            path.append(current)
            seen.add(current)
        return None

    def _bfs_walk(self, network, demand, remaining):
        parents = {demand.source: None}
        frontier = [demand.source]
        while frontier:
            node = frontier.pop(0)
            if node == demand.destination:
                path = [node]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                path.reverse()
                return path
            for arc in remaining:
                if arc[0] == node and arc[1] not in parents:
                    parents[arc[1]] = node
                    frontier.append(arc[1])
        return None
