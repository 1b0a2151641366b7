"""Tests for the multicommodity-flow LP baseline."""

import math
from typing import List
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("scipy")

from repro.exceptions import CapacityError, RoutingError
from repro.experiments.scenarios import parse_scenario
from repro.experiments.harness import sample_seeds
from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.network.graph import QuantumNetwork
from repro.network.node import QuantumSwitch, QuantumUser
from repro.network.registry import topology_keys
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.baselines.mcf import MCFRouter
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.nfusion import AlgNFusion
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng

from tests.conftest import make_diamond_network, make_line_network


@pytest.fixture
def models():
    return LinkModel(fixed_p=0.5), SwapModel(q=0.9)


class TestMCFRouter:
    def test_routes_line_demand(self, line_network, models):
        link, swap = models
        demands = DemandSet([Demand(0, 3, 4)])
        result = MCFRouter().route(line_network, demands, link, swap)
        assert result.num_routed == 1
        flow = result.plan.flow_for(0)
        assert flow.paths[0] == (3, 0, 1, 2, 4)
        assert result.total_rate > 0

    def test_uses_both_diamond_arms(self, models):
        link, swap = models
        network = make_diamond_network()
        demands = DemandSet([Demand(0, 0, 1)])
        result = MCFRouter(max_width=4).route(network, demands, link, swap)
        flow = result.plan.flow_for(0)
        assert flow is not None
        # The LP should spread flow across both arms (a flow-like graph)
        # or at least widen one of them beyond width 1.
        widths = list(flow.edge_widths().values())
        assert flow.num_paths == 2 or max(widths) >= 2

    def test_capacity_respected(self, models):
        link, swap = models
        rng = ensure_rng(31)
        network = build_network(NetworkConfig(num_switches=25, num_users=4), rng)
        demands = generate_demands(network, 6, rng)
        result = MCFRouter().route(network, demands, link, swap)
        usage = result.plan.qubits_used()
        for switch in network.switches():
            assert usage.get(switch, 0) <= network.qubit_capacity(switch)

    def test_rates_are_probabilities(self, models):
        link, swap = models
        rng = ensure_rng(32)
        network = build_network(NetworkConfig(num_switches=25, num_users=4), rng)
        demands = generate_demands(network, 5, rng)
        result = MCFRouter().route(network, demands, link, swap)
        for rate in result.demand_rates.values():
            assert 0.0 <= rate <= 1.0

    def test_beats_nothing_route_when_disconnected(self, models):
        link, swap = models
        network = make_line_network()
        network.remove_edge(1, 2)
        demands = DemandSet([Demand(0, 3, 4)])
        result = MCFRouter().route(network, demands, link, swap)
        assert result.num_routed == 0
        assert result.total_rate == 0.0

    def test_alg_n_fusion_outperforms_lp_rounding(self, models):
        """The paper's algorithm should beat the LP surrogate (which
        optimises a linear proxy and loses to rounding)."""
        link, swap = models
        rng = ensure_rng(33)
        network = build_network(NetworkConfig(num_switches=30, num_users=6), rng)
        demands = generate_demands(network, 8, rng)
        mcf = MCFRouter().route(network, demands, link, swap).total_rate
        alg = AlgNFusion().route(network, demands, link, swap).total_rate
        assert alg >= mcf


class _ScanAssembly(MCFRouter):
    """The LP assembly that scanned every arc per (demand, node) row and
    priced every arc once per demand, verbatim: the assembly oracle."""

    def objective(self, network, demand_list, arcs, link_model, swap_model):
        arc_index = {arc: i for i, arc in enumerate(arcs)}
        num_demands = len(demand_list)
        num_vars = num_demands * len(arcs)

        def var(d, arc):
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
        return objective, var

    def _conservation(self, network, demand_list, arcs, var):
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


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestLPAssembly:
    """The per-node incidence assembly emits the scan assembly's triplets,
    so the LP, its solution and the plans are unchanged."""

    @pytest.mark.parametrize("banned", [False, True])
    def test_lp_matches_scan_assembly(self, banned):
        setting = parse_scenario("paper-default").setting(
            num_networks=1, seed=101
        )
        rng = ensure_rng(sample_seeds(setting)[0])
        network = build_network(setting.network, rng)
        demand_list = list(generate_demands(network, setting.num_states, rng))
        link, swap = setting.link_model(), setting.swap_model()
        ledger = QubitLedger(network)
        ledger.reserve_edges([(u, v, 1) for u, v in network.edge_keys()[:20]])
        banned_nodes, banned_edges = frozenset(), frozenset()
        if banned:
            banned_nodes = frozenset(network.switches()[::7])
            banned_edges = frozenset(network.edge_keys()[::5])
        router, oracle = MCFRouter(), _ScanAssembly()
        arcs = router._arcs(network, banned_nodes, banned_edges)
        assert arcs == oracle._arcs(network, banned_nodes, banned_edges)
        incident = router._incidence(network, arcs)

        want_objective, var = oracle.objective(
            network, demand_list, arcs, link, swap
        )
        got_objective = router._objective(
            network, demand_list, arcs, incident, link, swap
        )
        assert got_objective.tobytes() == want_objective.tobytes()

        got = router._conservation(network, demand_list, incident, len(arcs))
        want = oracle._conservation(network, demand_list, arcs, var)
        _assert_same_csr(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()

        got = router._capacities(
            network, demand_list, incident, len(arcs), ledger
        )
        want = oracle._capacities(network, demand_list, arcs, var, ledger)
        _assert_same_csr(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()


class _RefundingAdmission(MCFRouter):
    """The admission step that charged a decomposed path with
    ``reserve_edges`` (its ``CapacityError`` the funding test), merged
    it with the checked ``add_path`` and refunded a cyclic merge,
    verbatim: the admission oracle."""

    def _decompose_and_admit(self, network, demand, arc_flow, ledger):
        flow_graph = None
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


def _admission_outcome(router, network, demands, link, swap):
    """Flows (paths, edge widths), bit-exact demand rates and leftover
    counts of one route of *router* on a fresh ledger."""
    ledger = QubitLedger(network)
    result = router.route(network, demands, link, swap, ledger=ledger)
    flows = [
        (flow.demand_id, tuple(flow.paths), sorted(flow.edge_widths().items()))
        for flow in result.plan.flows()
    ]
    rates = {d: rate.hex() for d, rate in result.demand_rates.items()}
    return flows, rates, ledger.remaining_counts(list(network.nodes()))


class TestAdmission:
    """MCF prices each decomposed path with Algorithm 3's
    ``path_charges`` and admits it through ``admit_path``: the flows and
    counts the reserve-then-refund step left, with no refund."""

    @pytest.mark.parametrize("key", topology_keys())
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("qubits", ("", ",qubits=4"))
    def test_mcf_admission_matches_reserve_then_refund(
        self, key, seed, qubits
    ):
        spec = parse_scenario(f"{key}:switches=25,users=6,states=8{qubits}")
        rng = ensure_rng(seed)
        network = build_network(spec.network_config(), rng)
        demands = generate_demands(network, spec.num_states, rng)
        link, swap = LinkModel(), SwapModel(q=spec.swap_q)
        with mock.patch.object(
            QubitLedger, "release", autospec=True,
            side_effect=QubitLedger.release,
        ) as released:
            got = _admission_outcome(MCFRouter(), network, demands, link, swap)
        assert released.call_count == 0
        assert got == _admission_outcome(
            _RefundingAdmission(), network, demands, link, swap
        )

    @staticmethod
    def _square(capacity_a: int = 10, capacity_b: int = 10):
        """Users 0 (S) and 1 (D); switches 2 (a) and 3 (b) with edges
        S-a, a-b, b-D, S-b and a-D; a and b hold *capacity_a* and
        *capacity_b* qubits."""
        network = QuantumNetwork()
        network.add_node(QuantumUser(0, Point(0.0, 0.0)))
        network.add_node(QuantumUser(1, Point(3000.0, 0.0)))
        network.add_node(QuantumSwitch(2, Point(1000.0, 1.0), capacity_a))
        network.add_node(QuantumSwitch(3, Point(2000.0, 1.0), capacity_b))
        for u, v in ((0, 2), (2, 3), (3, 1), (0, 3), (2, 1)):
            network.add_edge(u, v)
        return network

    @staticmethod
    def _admitted(router, network, arc_flow):
        """Flow and leftover switch counts of admitting *arc_flow* for
        demand 0 -> 1, and the ledger's (reserve, release) call counts."""
        ledger = QubitLedger(network)
        with mock.patch.object(
            QubitLedger, "reserve", autospec=True,
            side_effect=QubitLedger.reserve,
        ) as reserved, mock.patch.object(
            QubitLedger, "release", autospec=True,
            side_effect=QubitLedger.release,
        ) as released:
            flow = router._decompose_and_admit(
                network, Demand(0, 0, 1), arc_flow, ledger
            )
        shape = None if flow is None else (flow.paths, flow.edge_widths())
        return (shape, ledger.remaining_counts([2, 3]),
                (reserved.call_count, released.call_count))

    def test_a_cyclic_second_path_is_refused_without_a_charge(self):
        """S-a-b-D at width 2 is admitted; S-b-a-D (width 1, funded: it
        shares a-b at width 2) would close the cycle a -> b -> a and is
        skipped without touching the ledger."""
        network = self._square()
        arc_flow = {
            (0, 2): 2.0, (2, 3): 2.0, (3, 1): 2.0,
            (0, 3): 1.0, (3, 2): 1.0, (2, 1): 1.0,
        }
        first = MCFRouter(max_paths=1)._decompose_and_admit(
            network, Demand(0, 0, 1), dict(arc_flow), QubitLedger(network)
        )
        assert first.paths == [(0, 2, 3, 1)]
        shape = ([(0, 2, 3, 1)], {(0, 2): 2, (2, 3): 2, (1, 3): 2})
        # Three edges charge both endpoints once each.
        assert self._admitted(MCFRouter(), network, dict(arc_flow)) == (
            shape, [6, 6], (6, 0)
        )
        # The oracle reserved S-b and a-D and gave them back.
        assert self._admitted(_RefundingAdmission(), network, arc_flow) == (
            shape, [6, 6], (10, 4)
        )

    def test_an_unfundable_path_is_refused_without_a_charge(self):
        """S-b-D at width 2 needs 4 of b's 3 qubits: no flow, and the
        ledger is never charged (the oracle reserved S-b, failed on b-D
        and rolled S-b back)."""
        network = self._square(capacity_b=3)
        arc_flow = {(0, 3): 2.0, (3, 1): 2.0}
        assert self._admitted(MCFRouter(), network, dict(arc_flow)) == (
            None, [10, 3], (0, 0)
        )
        assert self._admitted(_RefundingAdmission(), network, arc_flow) == (
            None, [10, 3], (3, 2)
        )

    def test_a_shared_edge_charges_only_its_upgrade(self):
        """S-a-b-D at width 1 leaves a one of its 3 qubits; S-a-D shares
        S-a at width 1, so it costs a only the qubit of a-D and is
        admitted."""
        network = self._square(capacity_a=3)
        arc_flow = {(0, 2): 2.0, (2, 3): 1.0, (3, 1): 1.0, (2, 1): 1.0}
        shape = (
            [(0, 2, 3, 1), (0, 2, 1)],
            {(0, 2): 1, (2, 3): 1, (1, 3): 1, (1, 2): 1},
        )
        assert self._admitted(MCFRouter(), network, dict(arc_flow)) == (
            shape, [0, 8], (8, 0)
        )
        assert self._admitted(_RefundingAdmission(), network, arc_flow) == (
            shape, [0, 8], (8, 0)
        )
