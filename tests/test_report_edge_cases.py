"""Additional edge-case coverage: reports, stabilizer inputs, graphs."""

import numpy as np
import pytest

from repro.exceptions import QuantumStateError
from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.network.graph import QuantumNetwork
from repro.network.node import NodeKind, QuantumSwitch, QuantumUser
from repro.quantum.noise import LinkModel, SwapModel
from repro.quantum.stabilizer import StabilizerTableau
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.nfusion import AlgNFusion
from repro.routing.report import render_flow, render_plan_report
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng

from tests.conftest import make_diamond_network


class TestRenderFlow:
    def test_branch_nodes_listed(self, diamond_network):
        flow = FlowLikeGraph(0, 0, 1)
        flow.add_path([0, 2, 3, 1], width=2)
        flow.add_path([0, 4, 5, 1], width=1)
        lines = render_flow(flow, diamond_network)
        assert any("2 paths" in line for line in lines)
        assert any("branch nodes" in line for line in lines)
        assert any("widths=[2, 2, 2]" in line for line in lines)

    def test_single_path_no_branch_line(self, diamond_network):
        flow = FlowLikeGraph(0, 0, 1)
        flow.add_path([0, 2, 3, 1], width=1)
        lines = render_flow(flow, diamond_network)
        assert not any("branch nodes" in line for line in lines)

    def test_full_report_math_consistency(self, diamond_network):
        demands = DemandSet([Demand(0, 0, 1)])
        link, swap = LinkModel(fixed_p=0.5), SwapModel(q=0.9)
        result = AlgNFusion().route(diamond_network, demands, link, swap)
        report = render_plan_report(diamond_network, demands, result, link, swap)
        # The rate printed must match the result object.
        assert f"{result.total_rate:.4g}"[:5] in report.replace("\n", " ")


class TestPlanReport:
    def test_report_contents(self):
        rng = ensure_rng(77)
        network = build_network(NetworkConfig(num_switches=25, num_users=4), rng)
        demands = generate_demands(network, 5, rng)
        link, swap = LinkModel(fixed_p=0.5), SwapModel(q=0.9)
        result = AlgNFusion().route(network, demands, link, swap)
        report = render_plan_report(network, demands, result, link, swap)
        assert "ALG-N-FUSION routing plan" in report
        assert "total entanglement rate" in report
        assert "demands routed" in report
        for demand_id in result.demand_rates:
            assert f"demand {demand_id}:" in report

    def test_report_lists_unrouted(self):
        rng = ensure_rng(78)
        network = build_network(NetworkConfig(num_switches=25, num_users=4), rng)
        demands = generate_demands(network, 5, rng)
        # max_hops=1 makes every demand unroutable.
        result = AlgNFusion(max_hops=1).route(
            network, demands, LinkModel(fixed_p=0.5), SwapModel()
        )
        report = render_plan_report(network, demands, result)
        assert "unrouted demands" in report
        assert "busiest switch" in report and "none" in report


class TestStabilizerEdgeCases:
    def test_contains_pauli_wrong_shape(self):
        t = StabilizerTableau(2, np.random.default_rng(0))
        with pytest.raises(QuantumStateError):
            t.contains_pauli([1], [0])

    def test_y_gate_on_superposition(self):
        # Y|+> = -i|->; measuring X must give 1.
        t = StabilizerTableau(1, np.random.default_rng(0))
        t.h(0)
        t.y(0)
        assert t.measure_x(0) == 1

    def test_s_dagger_via_three_s(self):
        # S^3 = S†; S† S = I on |+>.
        t = StabilizerTableau(1, np.random.default_rng(0))
        t.h(0)
        t.s(0)
        for _ in range(3):
            t.s(0)
        t.h(0)
        assert t.measure_z(0) == 0

    def test_ghz_query_on_remote_subset_of_chain(self):
        # A 4-qubit cluster-like chain of CNOTs is NOT a GHZ state.
        t = StabilizerTableau(4, np.random.default_rng(0))
        t.h(0)
        t.cnot(0, 1)
        t.h(2)
        t.cnot(2, 3)
        assert not t.is_ghz_up_to_pauli([0, 1, 2, 3])


class TestGraphEdgeCases:
    def test_empty_kind_average_degree(self):
        network = QuantumNetwork()
        network.add_node(QuantumSwitch(0, Point(0, 0), 5))
        assert network.average_degree(NodeKind.USER) == 0.0

    def test_two_node_network(self):
        network = QuantumNetwork()
        network.add_node(QuantumUser(0, Point(0, 0)))
        network.add_node(QuantumSwitch(1, Point(3, 4), 5))
        network.add_edge(0, 1)
        assert network.is_connected()
        assert network.hop_distance(0, 1) == 1
        assert network.edge_length(0, 1) == 5.0

    def test_flow_children_of_leaf(self, diamond_network):
        flow = FlowLikeGraph(0, 0, 1)
        flow.add_path([0, 2, 3, 1], width=1)
        assert flow.children_of(1) == []
        assert flow.children_of(99) == []
