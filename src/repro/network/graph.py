"""The quantum network graph.

A thin, dependency-free undirected graph specialised for this library:
nodes are :class:`~repro.network.node.Node` records (users or switches with
positions and qubit capacities) and edges carry Euclidean lengths.  The
routing algorithms only need adjacency iteration, edge lookup and a few
whole-graph queries, so the implementation favours clarity over generality.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import (
    EdgeNotFoundError,
    NodeNotFoundError,
    TopologyError,
)
from repro.network.edge import Edge, EdgeKey, edge_key
from repro.network.node import Node, NodeKind
from repro.utils.geometry import Point


class QuantumNetwork:
    """An undirected quantum network of users and switches."""

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._edges: Dict[EdgeKey, Edge] = {}
        self._adjacency: Dict[int, Set[int]] = {}
        # Bumped on every structural change.  Nodes and edges are frozen
        # dataclasses, so an unchanged version guarantees an unchanged
        # network — derived caches (the compiled routing snapshot) key
        # on it to survive across routing calls and invalidate exactly
        # when the topology mutates.
        self._topology_version = 0

    @property
    def topology_version(self) -> int:
        """Monotone counter of structural mutations (see ``__init__``)."""
        return self._topology_version

    # ------------------------------------------------------------------
    # Construction

    def add_node(self, node: Node) -> None:
        """Insert *node*; node ids must be unique."""
        if node.node_id in self._nodes:
            raise TopologyError(f"node {node.node_id} already exists")
        self._nodes[node.node_id] = node
        self._adjacency[node.node_id] = set()
        self._topology_version += 1

    def add_edge(self, u: int, v: int, length: Optional[float] = None) -> Edge:
        """Insert an undirected edge; defaults the length to the Euclidean
        distance between the endpoint positions."""
        self._require_node(u)
        self._require_node(v)
        key = edge_key(u, v)
        if key in self._edges:
            raise TopologyError(f"edge {key} already exists")
        if length is None:
            length = self._nodes[u].position.distance_to(self._nodes[v].position)
        edge = Edge(u, v, length)
        self._edges[key] = edge
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._topology_version += 1
        return edge

    def add_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Insert one edge per ``(u, v)`` pair, in order, each as
        :meth:`add_edge` would with its default Euclidean length.

        Every pair is checked before any is inserted: a missing node, a
        self-loop, an existing edge or a pair repeated within *pairs*
        raises as ``add_edge`` does and leaves the network unchanged.
        The topology version rises by one per inserted edge.
        """
        new: Dict[EdgeKey, Edge] = {}
        for u, v in pairs:
            pu = self._require_node(u).position
            pv = self._require_node(v).position
            key = edge_key(u, v)
            if key in self._edges or key in new:
                raise TopologyError(f"edge {key} already exists")
            new[key] = Edge(u, v, pu.distance_to(pv))
        self._edges.update(new)
        adjacency = self._adjacency
        for u, v in new:
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._topology_version += len(new)

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the edge between *u* and *v*."""
        key = edge_key(u, v)
        if key not in self._edges:
            raise EdgeNotFoundError(f"edge {key} does not exist")
        del self._edges[key]
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._topology_version += 1

    def copy(self) -> "QuantumNetwork":
        """Shallow structural copy (nodes/edges are immutable records)."""
        clone = QuantumNetwork()
        clone._nodes = dict(self._nodes)
        clone._edges = dict(self._edges)
        clone._adjacency = {k: set(v) for k, v in self._adjacency.items()}
        return clone

    # ------------------------------------------------------------------
    # Node queries

    def _require_node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(f"node {node_id} does not exist") from None

    def node(self, node_id: int) -> Node:
        """The node record for *node_id*."""
        return self._require_node(node_id)

    def has_node(self, node_id: int) -> bool:
        """True iff *node_id* exists."""
        return node_id in self._nodes

    def nodes(self) -> List[int]:
        """All node ids, ascending."""
        return sorted(self._nodes)

    def switches(self) -> List[int]:
        """Ids of all switch nodes, ascending."""
        return sorted(
            nid for nid, n in self._nodes.items() if n.kind is NodeKind.SWITCH
        )

    def users(self) -> List[int]:
        """Ids of all quantum-user nodes, ascending."""
        return sorted(nid for nid, n in self._nodes.items() if n.kind is NodeKind.USER)

    def position(self, node_id: int) -> Point:
        """Deployment position of *node_id*."""
        return self._require_node(node_id).position

    def qubit_capacity(self, node_id: int) -> Optional[int]:
        """Qubit capacity of *node_id* (``None`` = unlimited, for users)."""
        return self._require_node(node_id).qubit_capacity

    @property
    def num_nodes(self) -> int:
        """Total node count."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Total edge count."""
        return len(self._edges)

    # ------------------------------------------------------------------
    # Edge / adjacency queries

    def neighbors(self, node_id: int) -> List[int]:
        """Sorted neighbour ids of *node_id*."""
        self._require_node(node_id)
        return sorted(self._adjacency[node_id])

    def degree(self, node_id: int) -> int:
        """Number of incident edges of *node_id*."""
        self._require_node(node_id)
        return len(self._adjacency[node_id])

    def average_degree(self, kind: Optional[NodeKind] = None) -> float:
        """Mean degree over all nodes (or only nodes of the given *kind*)."""
        ids = [
            nid
            for nid, n in self._nodes.items()
            if kind is None or n.kind is kind
        ]
        if not ids:
            return 0.0
        return sum(len(self._adjacency[nid]) for nid in ids) / len(ids)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff an edge between *u* and *v* exists."""
        if u == v:
            return False
        return edge_key(u, v) in self._edges

    def edge(self, u: int, v: int) -> Edge:
        """The edge between *u* and *v*."""
        key = edge_key(u, v)
        try:
            return self._edges[key]
        except KeyError:
            raise EdgeNotFoundError(f"edge {key} does not exist") from None

    def edge_length(self, u: int, v: int) -> float:
        """Euclidean length of the edge between *u* and *v*."""
        return self.edge(u, v).length

    def edges(self) -> List[Edge]:
        """All edges, sorted by canonical key."""
        return [self._edges[k] for k in sorted(self._edges)]

    def edge_keys(self) -> List[EdgeKey]:
        """All canonical edge keys, ascending."""
        return sorted(self._edges)

    # ------------------------------------------------------------------
    # Whole-graph queries

    def connected_components(self) -> List[Set[int]]:
        """Connected components, each a set of node ids, largest first."""
        remaining = set(self._nodes)
        components: List[Set[int]] = []
        while remaining:
            root = next(iter(remaining))
            component = {root}
            frontier = [root]
            while frontier:
                current = frontier.pop()
                for nbr in self._adjacency[current]:
                    if nbr not in component:
                        component.add(nbr)
                        frontier.append(nbr)
            remaining -= component
            components.append(component)
        return sorted(components, key=len, reverse=True)

    def is_connected(self) -> bool:
        """True iff the graph has a single connected component."""
        return len(self.connected_components()) <= 1

    def hop_distance(self, source: int, target: int) -> Optional[int]:
        """Unweighted shortest hop count from *source* to *target*, or
        ``None`` if they are disconnected."""
        self._require_node(source)
        self._require_node(target)
        if source == target:
            return 0
        dist = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for current in frontier:
                for nbr in self._adjacency[current]:
                    if nbr not in dist:
                        dist[nbr] = dist[current] + 1
                        if nbr == target:
                            return dist[nbr]
                        next_frontier.append(nbr)
            frontier = next_frontier
        return None

    def induced_subgraph(self, node_ids: Iterable[int]) -> "QuantumNetwork":
        """The subgraph induced by *node_ids* (copies node/edge records)."""
        keep = set(node_ids)
        sub = QuantumNetwork()
        for nid in sorted(keep):
            sub.add_node(self._require_node(nid))
        for (u, v), edge in self._edges.items():
            if u in keep and v in keep:
                sub.add_edge(u, v, edge.length)
        return sub

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantumNetwork(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"users={len(self.users())})"
        )
