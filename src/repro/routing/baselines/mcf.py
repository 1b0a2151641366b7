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
per demand (greedy max-bottleneck extraction), each priced and admitted
by Algorithm 3's step (``alg3_merge``'s ``path_charges`` and
``admit_path``, as in ALG-N-FUSION and B1), so the reported entanglement
rate is computed by the identical Equation 1 code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.exceptions import RoutingError
from repro.network.demands import Demand, DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg3_merge import admit_path, path_charges
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache, rate_cache_for
from repro.routing.nfusion import RoutingResult
from repro.routing.plan import RoutingPlan
from repro.routing.registry import RouterSpecError, register_router

Arc = Tuple[int, int]


@register_router("mcf")
@dataclass
class MCFRouter:
    """LP-relaxation multicommodity-flow router."""

    max_width: int = 3
    max_paths: int = 3
    cost_weight: float = 0.15
    name: str = "MCF"

    def __post_init__(self):
        if min(self.max_width, self.max_paths) < 1:
            raise RouterSpecError(
                "max_width and max_paths must be >= 1, got "
                f"{self.max_width} and {self.max_paths}"
            )
        if self.cost_weight < 0:  # the arc cost would become a reward
            raise RouterSpecError(
                f"cost_weight must be >= 0, got {self.cost_weight}"
            )

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
        incident = self._incidence(network, arcs)
        num_arcs = len(arcs)
        num_vars = len(demand_list) * num_arcs

        objective = self._objective(
            network, demand_list, arcs, incident, link_model, swap_model
        )
        a_eq, b_eq = self._conservation(
            network, demand_list, incident, num_arcs
        )
        a_ub, b_ub = self._capacities(
            network, demand_list, incident, num_arcs, ledger
        )
        solution = linprog(
            objective,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0.0, float(self.max_width)),
            method="highs",
        )
        flows_vector = (
            solution.x if solution.status == 0 and solution.x is not None
            else np.zeros(num_vars)
        )

        plan = RoutingPlan()
        for d, demand in enumerate(demand_list):
            block = flows_vector[d * num_arcs:(d + 1) * num_arcs].tolist()
            arc_flow = {
                arc: value for arc, value in zip(arcs, block) if value > 1e-6
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

    @staticmethod
    def _incidence(
        network: QuantumNetwork, arcs: List[Arc]
    ) -> Dict[int, Tuple[List[int], List[float]]]:
        """Per node, its arcs' positions in *arcs* (in arcs order) and
        their signs: ``+1.0`` leaving the node, ``-1.0`` entering it."""
        incident: Dict[int, Tuple[List[int], List[float]]] = {
            node: ([], []) for node in network.nodes()
        }
        for position, (a, b) in enumerate(arcs):
            for node, sign in ((a, 1.0), (b, -1.0)):
                positions, signs = incident[node]
                positions.append(position)
                signs.append(sign)
        return incident

    def _objective(
        self, network, demand_list, arcs, incident, link_model, swap_model
    ) -> np.ndarray:
        """Per-arc cost ``-log(p_e * q)`` for every demand, minus one per
        unit of the demand's net source out-flow."""
        q = max(swap_model.success_probability(2), 1e-9)
        costs = []
        for a, b in arcs:
            p = link_model.success_probability(network.edge_length(a, b))
            costs.append(self.cost_weight * -math.log(max(p, 1e-9) * q))
        objective = np.array(costs * len(demand_list), dtype=float)
        for d, demand in enumerate(demand_list):
            positions, signs = incident[demand.source]
            for position, sign in zip(positions, signs):
                objective[d * len(arcs) + position] -= sign
        return objective

    def _conservation(self, network, demand_list, incident, num_arcs):
        """Per-demand conservation at switches; users only source/sink.

        Built sparsely: the constraint matrix has one row per
        (demand, switch) pair but only ``degree`` nonzeros per row.
        """
        rows = _Triplets(len(demand_list) * num_arcs)
        switches = network.switches()
        users = network.users()
        for d, demand in enumerate(demand_list):
            offset = d * num_arcs
            for node in switches:
                positions, signs = incident[node]
                rows.add(offset, positions, signs)
                rows.close(0.0)
            # Forbid relaying through other users.
            for user in users:
                if user in (demand.source, demand.destination):
                    continue
                positions, _ = incident[user]
                rows.add(offset, positions, [1.0] * len(positions))
                rows.close(0.0)
        if not rows.rhs:
            return None, None
        return rows.matrix()

    def _capacities(self, network, demand_list, incident, num_arcs, ledger):
        rows = _Triplets(len(demand_list) * num_arcs)
        for node in network.switches():
            positions, _ = incident[node]
            # Each unit of undirected width at this switch costs one
            # qubit; arcs double-count direction, so weight by 1/2 per
            # direction.  One row sums over every demand.
            halves = [0.5] * len(positions)
            for d in range(len(demand_list)):
                rows.add(d * num_arcs, positions, halves)
            rows.close(float(ledger.remaining(node)))
        # Cap the per-demand source out-flow at max_width.
        for d, demand in enumerate(demand_list):
            positions, signs = incident[demand.source]
            rows.add(d * num_arcs, positions, signs)
            rows.close(float(self.max_width))
        return rows.matrix()

    def _decompose_and_admit(
        self,
        network: QuantumNetwork,
        demand: Demand,
        arc_flow: Dict[Arc, float],
        ledger: QubitLedger,
    ) -> Optional[FlowLikeGraph]:
        """Greedy max-bottleneck path extraction, each path admitted by
        Algorithm 3's step when *ledger* funds it (module docstring)."""
        flows: Dict[int, FlowLikeGraph] = {}
        widths: Dict[Arc, int] = {}
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
            # Both walks (the greedy one's seen set, the BFS parents)
            # give a loopless source-to-destination path, and width is
            # at least 1: what admit_path's merge takes unchecked.
            nodes = tuple(path)
            keys = tuple(
                (a, b) if a < b else (b, a) for a, b in zip(path, path[1:])
            )
            needed = path_charges(nodes, width, keys, widths)
            if all(ledger.remaining(n) >= c for n, c in needed.items()):
                admit_path(demand, nodes, width, keys, widths, flows, ledger)
        return flows.get(demand.demand_id)

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


class _Triplets:
    """COO triplets of a sparse constraint matrix, built row by row."""

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.data: List[float] = []
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.rhs: List[float] = []

    def add(
        self, offset: int, positions: List[int], values: List[float]
    ) -> None:
        """Append *values* at columns ``offset + position`` to the open
        row."""
        self.data.extend(values)
        self.rows.extend([len(self.rhs)] * len(positions))
        self.cols.extend([offset + position for position in positions])

    def close(self, rhs: float) -> None:
        """Close the open row with right-hand side *rhs*."""
        self.rhs.append(rhs)

    def matrix(self):
        """``(csr_matrix, rhs array)`` of the closed rows."""
        from scipy.sparse import csr_matrix

        matrix = csr_matrix(
            (self.data, (self.rows, self.cols)),
            shape=(len(self.rhs), self.num_vars),
        )
        return matrix, np.array(self.rhs)
