"""Unit tests for nodes, edges and the QuantumNetwork graph."""

import pytest

from repro.exceptions import (
    ConfigurationError,
    EdgeNotFoundError,
    NodeNotFoundError,
    TopologyError,
)
from repro.network.edge import Edge, edge_key
from repro.network.graph import QuantumNetwork
from repro.network.node import Node, NodeKind, QuantumSwitch, QuantumUser
from repro.utils.geometry import Point


class TestNode:
    def test_user_has_unlimited_capacity(self):
        user = QuantumUser(0, Point(0, 0))
        assert user.is_user
        assert user.qubit_capacity is None

    def test_switch_capacity(self):
        switch = QuantumSwitch(1, Point(0, 0), 10)
        assert switch.is_switch
        assert switch.qubit_capacity == 10

    def test_switch_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            QuantumSwitch(1, Point(0, 0), 0)

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Node(-1, NodeKind.USER, Point(0, 0))


class TestEdge:
    def test_canonical_ordering(self):
        assert Edge(2, 1, 5.0) == Edge(1, 2, 5.0)
        assert Edge(2, 1, 5.0).key == (1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Edge(1, 1, 0.0)
        with pytest.raises(ConfigurationError):
            edge_key(3, 3)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            Edge(0, 1, -1.0)

    def test_other_endpoint(self):
        edge = Edge(1, 2, 3.0)
        assert edge.other_endpoint(1) == 2
        assert edge.other_endpoint(2) == 1
        with pytest.raises(ConfigurationError):
            edge.other_endpoint(9)


def small_network():
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0, 0)))
    network.add_node(QuantumSwitch(1, Point(3, 4), 10))
    network.add_node(QuantumSwitch(2, Point(6, 8), 10))
    network.add_edge(0, 1)
    network.add_edge(1, 2)
    return network


class TestQuantumNetwork:
    def test_add_and_query(self):
        net = small_network()
        assert net.num_nodes == 3
        assert net.num_edges == 2
        assert net.users() == [0]
        assert net.switches() == [1, 2]
        assert net.neighbors(1) == [0, 2]
        assert net.degree(1) == 2
        assert 0 in net
        assert 9 not in net

    def test_edge_length_defaults_to_euclidean(self):
        net = small_network()
        assert net.edge_length(0, 1) == pytest.approx(5.0)
        assert net.edge_length(1, 2) == pytest.approx(5.0)

    def test_explicit_edge_length(self):
        net = small_network()
        net.add_edge(0, 2, length=42.0)
        assert net.edge_length(0, 2) == 42.0

    def test_duplicate_node_rejected(self):
        net = small_network()
        with pytest.raises(TopologyError):
            net.add_node(QuantumUser(0, Point(9, 9)))

    def test_duplicate_edge_rejected(self):
        net = small_network()
        with pytest.raises(TopologyError):
            net.add_edge(1, 0)

    def test_missing_node_queries(self):
        net = small_network()
        with pytest.raises(NodeNotFoundError):
            net.node(99)
        with pytest.raises(NodeNotFoundError):
            net.neighbors(99)
        with pytest.raises(NodeNotFoundError):
            net.add_edge(0, 99)

    def test_missing_edge_queries(self):
        net = small_network()
        with pytest.raises(EdgeNotFoundError):
            net.edge(0, 2)
        with pytest.raises(EdgeNotFoundError):
            net.remove_edge(0, 2)

    def test_remove_edge(self):
        net = small_network()
        net.remove_edge(0, 1)
        assert not net.has_edge(0, 1)
        assert net.neighbors(0) == []

    def test_connected_components(self):
        net = small_network()
        assert net.is_connected()
        net.remove_edge(0, 1)
        components = net.connected_components()
        assert len(components) == 2
        assert components[0] == {1, 2}

    def test_hop_distance(self):
        net = small_network()
        assert net.hop_distance(0, 2) == 2
        assert net.hop_distance(0, 0) == 0
        net.remove_edge(1, 2)
        assert net.hop_distance(0, 2) is None

    def test_average_degree_by_kind(self):
        net = small_network()
        assert net.average_degree(NodeKind.USER) == 1.0
        assert net.average_degree(NodeKind.SWITCH) == pytest.approx(1.5)

    def test_copy_is_independent(self):
        net = small_network()
        clone = net.copy()
        clone.remove_edge(0, 1)
        assert net.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_induced_subgraph(self):
        net = small_network()
        sub = net.induced_subgraph([1, 2])
        assert sub.nodes() == [1, 2]
        assert sub.has_edge(1, 2)
        assert not sub.has_node(0)

    def test_edges_listing_sorted(self):
        net = small_network()
        keys = net.edge_keys()
        assert keys == sorted(keys)


class TestAddEdges:
    def test_matches_add_edge_one_by_one(self):
        pairs = [(2, 0), (0, 1), (1, 2)]
        bulk = QuantumNetwork()
        single = QuantumNetwork()
        for net in (bulk, single):
            net.add_node(QuantumUser(0, Point(0.1, 0.7)))
            net.add_node(QuantumSwitch(1, Point(3.3, 4.9), 10))
            net.add_node(QuantumSwitch(2, Point(6.2, 8.4), 10))
        bulk.add_edges(pairs)
        for u, v in pairs:
            single.add_edge(u, v)
        assert bulk.edges() == single.edges()
        assert [e.length for e in bulk.edges()] == [
            e.length for e in single.edges()
        ]
        assert all(bulk.neighbors(n) == single.neighbors(n) for n in range(3))
        assert bulk.topology_version == single.topology_version

    def test_version_rises_by_edges_inserted(self):
        net = small_network()
        net.add_node(QuantumSwitch(3, Point(1, 1), 10))
        before = net.topology_version
        net.add_edges([(0, 2), (3, 0), (3, 2)])
        assert net.topology_version == before + 3
        net.add_edges([])
        assert net.topology_version == before + 3

    @pytest.mark.parametrize(
        "pairs,error",
        [
            ([(0, 2), (2, 2)], ConfigurationError),  # self-loop
            ([(0, 2), (0, 99)], NodeNotFoundError),  # unknown node
            ([(0, 2), (1, 0)], TopologyError),  # existing edge
            ([(0, 2), (2, 0)], TopologyError),  # repeated in the batch
        ],
    )
    def test_rejects_as_add_edge_does_and_inserts_nothing(self, pairs, error):
        net = small_network()
        before = (net.edge_keys(), net.topology_version)
        with pytest.raises(error):
            net.add_edges(pairs)
        assert (net.edge_keys(), net.topology_version) == before
        one_by_one = small_network()
        with pytest.raises(error):
            for u, v in pairs:
                one_by_one.add_edge(u, v)
