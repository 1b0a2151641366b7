"""Deterministic and classical random topologies used by tests/examples.

* :func:`grid_network` — the lattice the n-fusion prior work ([20], [21])
  analysed; useful for reproducing their distance-independence intuition.
* :func:`ring_network` — minimal cyclic topology for worked examples.
* :func:`erdos_renyi_network` — G(n, p) control without geometric locality.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ConfigurationError
from repro.network.graph import QuantumNetwork
from repro.network.topology.base import (
    DEFAULT_AREA,
    DEFAULT_NUM_USERS,
    DEFAULT_QUBIT_CAPACITY,
    DEFAULT_USER_LINKS,
    SwitchPairs,
    add_switches,
    attach_users,
    check_backbone_arguments,
    connect_components,
    random_positions,
)
from repro.utils.geometry import Point
from repro.utils.rng import RandomState, ensure_rng


def grid_network(
    side: int = 10,
    area: float = DEFAULT_AREA,
    qubit_capacity: int = DEFAULT_QUBIT_CAPACITY,
    num_users: int = DEFAULT_NUM_USERS,
    user_links: int = DEFAULT_USER_LINKS,
    rng: Optional[RandomState] = None,
) -> QuantumNetwork:
    """A *side* x *side* switch lattice with users attached at random."""
    if side < 2:
        raise ConfigurationError(f"side must be >= 2, got {side}")
    check_backbone_arguments(side * side, qubit_capacity)
    rng = ensure_rng(rng)
    network = QuantumNetwork()
    spacing = area / (side + 1)
    positions = [
        Point(spacing * (col + 1), spacing * (row + 1))
        for row in range(side)
        for col in range(side)
    ]
    switch_ids = add_switches(network, positions, qubit_capacity)
    for row in range(side):
        for col in range(side):
            here = switch_ids[row * side + col]
            if col + 1 < side:
                network.add_edge(here, switch_ids[row * side + col + 1])
            if row + 1 < side:
                network.add_edge(here, switch_ids[(row + 1) * side + col])
    attach_users(network, num_users, rng, area, links_per_user=user_links)
    return network


def ring_network(
    num_switches: int = 12,
    area: float = DEFAULT_AREA,
    qubit_capacity: int = DEFAULT_QUBIT_CAPACITY,
    num_users: int = DEFAULT_NUM_USERS,
    user_links: int = DEFAULT_USER_LINKS,
    rng: Optional[RandomState] = None,
) -> QuantumNetwork:
    """A simple cycle of switches with users attached at random."""
    check_backbone_arguments(num_switches, qubit_capacity)
    rng = ensure_rng(rng)
    import math

    network = QuantumNetwork()
    radius = 0.45 * area
    center = area / 2.0
    positions = [
        Point(
            center + radius * math.cos(2.0 * math.pi * i / num_switches),
            center + radius * math.sin(2.0 * math.pi * i / num_switches),
        )
        for i in range(num_switches)
    ]
    switch_ids = add_switches(network, positions, qubit_capacity)
    for i in range(num_switches):
        network.add_edge(switch_ids[i], switch_ids[(i + 1) % num_switches])
    attach_users(network, num_users, rng, area, links_per_user=user_links)
    return network


def erdos_renyi_network(
    num_switches: int = 100,
    average_degree: float = 10.0,
    area: float = DEFAULT_AREA,
    qubit_capacity: int = DEFAULT_QUBIT_CAPACITY,
    num_users: int = DEFAULT_NUM_USERS,
    user_links: int = DEFAULT_USER_LINKS,
    rng: Optional[RandomState] = None,
) -> QuantumNetwork:
    """G(n, p) backbone with p chosen to hit *average_degree*."""
    check_backbone_arguments(num_switches, qubit_capacity)
    if average_degree <= 0 or average_degree >= num_switches:
        raise ConfigurationError(
            f"average_degree must be in (0, num_switches), got {average_degree}"
        )
    rng = ensure_rng(rng)
    network = QuantumNetwork()
    positions = random_positions(rng, num_switches, area)
    switch_ids = add_switches(network, positions, qubit_capacity)
    p = average_degree / (num_switches - 1)
    pairs = SwitchPairs(switch_ids, positions)
    pairs.connect(network, rng.uniform(size=len(pairs)) < p)
    connect_components(network)
    attach_users(network, num_users, rng, area, links_per_user=user_links)
    return network
