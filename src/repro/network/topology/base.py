"""Shared helpers for topology generation."""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, TopologyError
from repro.network.graph import QuantumNetwork
from repro.network.node import QuantumSwitch, QuantumUser
from repro.utils.geometry import Point
from repro.utils.rng import RandomState, ensure_rng

#: Paper default: a 10k x 10k unit (km) deployment area.
DEFAULT_AREA = 10_000.0

#: Paper default: 10 communication qubits per switch.
DEFAULT_QUBIT_CAPACITY = 10

#: Default number of quantum users attached to the backbone.
DEFAULT_NUM_USERS = 10

#: Default number of access links per user.  Users need several access
#: switches so one saturated switch does not strand every demand of the
#: user (switch qubits are the binding network resource).
DEFAULT_USER_LINKS = 4


def random_positions(
    rng: RandomState, count: int, area: float
) -> List[Point]:
    """Sample *count* uniform positions in an *area* x *area* square."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    xs = rng.uniform(0.0, area, size=count)
    ys = rng.uniform(0.0, area, size=count)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys)]


def add_switches(
    network: QuantumNetwork,
    positions: Sequence[Point],
    qubit_capacity: int,
) -> List[int]:
    """Add one switch per position; returns the new node ids."""
    ids = []
    for position in positions:
        node_id = network.num_nodes
        network.add_node(QuantumSwitch(node_id, position, qubit_capacity))
        ids.append(node_id)
    return ids


class SwitchPairs:
    """Every switch pair ``i < j`` in ascending order, as index arrays.

    The Waxman, Aiello, random-geometric and Erdős–Rényi generators make
    one keep decision per pair; the pair order fixes which draw decides
    which pair, so it is part of every generated network.
    """

    def __init__(
        self, switch_ids: Sequence[int], positions: Sequence[Point]
    ) -> None:
        self._switch_ids = np.asarray(switch_ids)
        self._positions = positions
        self.first, self.second = np.triu_indices(len(switch_ids), k=1)

    def __len__(self) -> int:
        return len(self.first)

    def distances(self) -> np.ndarray:
        """Euclidean distance of each pair, in pair order."""
        xs = np.array([p.x for p in self._positions])
        ys = np.array([p.y for p in self._positions])
        dx = xs[self.first] - xs[self.second]
        dy = ys[self.first] - ys[self.second]
        return np.sqrt(dx * dx + dy * dy)

    def connect(self, network: QuantumNetwork, keep: np.ndarray) -> None:
        """Add an edge for every pair whose *keep* entry is true, in
        ascending pair order."""
        ids = self._switch_ids
        network.add_edges(
            zip(
                ids[self.first[keep]].tolist(),
                ids[self.second[keep]].tolist(),
            )
        )


def connect_components(network: QuantumNetwork) -> int:
    """Make the graph connected by adding, per extra component, the
    shortest edge joining it to the main component.

    Random graph families occasionally produce disconnected samples; the
    paper's evaluation implicitly requires connectivity, so generators call
    this as a repair step.  Returns the number of edges added.
    """
    components = network.connected_components()
    added = 0
    while len(components) > 1:
        main, other = components[0], components[1]
        best: Optional[Tuple[float, int, int]] = None
        for u in other:
            pu = network.position(u)
            for v in main:
                d = pu.distance_to(network.position(v))
                if best is None or d < best[0]:
                    best = (d, u, v)
        if best is None:  # pragma: no cover - components are non-empty
            raise TopologyError("cannot connect empty components")
        network.add_edge(best[1], best[2], best[0])
        added += 1
        components = network.connected_components()
    return added


def attach_users(
    network: QuantumNetwork,
    num_users: int,
    rng: RandomState,
    area: float = DEFAULT_AREA,
    links_per_user: int = DEFAULT_USER_LINKS,
) -> List[int]:
    """Place *num_users* quantum users uniformly and connect each to its
    nearest switches.

    Users never connect to users (paper rule).  Each user gets
    ``links_per_user`` edges to its nearest distinct switches, which keeps
    users reachable even when one access switch is depleted.
    """
    check_num_users(num_users)
    switches = network.switches()
    if not switches:
        raise TopologyError("cannot attach users: the network has no switches")
    links_per_user = max(1, min(links_per_user, len(switches)))
    switch_points = [network.position(s) for s in switches]
    user_ids = []
    for position in random_positions(rng, num_users, area):
        node_id = network.num_nodes
        network.add_node(QuantumUser(node_id, position))
        # Point.distance_to's hypot; the stable sort keeps ties ascending.
        x, y = position.x, position.y
        distances = [math.hypot(x - p.x, y - p.y) for p in switch_points]
        nearest = sorted(range(len(switches)), key=distances.__getitem__)
        network.add_edges(
            (node_id, switches[k]) for k in nearest[:links_per_user]
        )
        user_ids.append(node_id)
    return user_ids


def check_num_users(num_users: int) -> None:
    """Validate a user count: a demand needs two distinct users."""
    if num_users < 2:
        raise ConfigurationError(f"num_users must be >= 2, got {num_users}")


def check_backbone_arguments(num_switches: int, qubit_capacity: int) -> None:
    """Validate the arguments shared by every backbone generator."""
    if num_switches < 2:
        raise ConfigurationError(
            f"num_switches must be >= 2, got {num_switches}"
        )
    if qubit_capacity < 1:
        raise ConfigurationError(
            f"qubit_capacity must be >= 1, got {qubit_capacity}"
        )
