"""Tests for the multicommodity-flow LP baseline."""

import math
from typing import List

import numpy as np
import pytest

pytest.importorskip("scipy")

from repro.experiments.scenarios import parse_scenario
from repro.experiments.harness import sample_seeds
from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.baselines.mcf import MCFRouter
from repro.routing.nfusion import AlgNFusion
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
