"""Additional topology families: Barabási-Albert and random geometric.

Not used by the paper's evaluation, but standard comparison families for
entanglement-routing studies; the examples and the robustness benches use
them to probe topology sensitivity beyond Figure 7's three generators.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

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
from repro.utils.rng import RandomState, ensure_rng


def barabasi_albert_network(
    num_switches: int = 100,
    attachments: int = 5,
    area: float = DEFAULT_AREA,
    qubit_capacity: int = DEFAULT_QUBIT_CAPACITY,
    num_users: int = DEFAULT_NUM_USERS,
    user_links: int = DEFAULT_USER_LINKS,
    rng: Optional[RandomState] = None,
) -> QuantumNetwork:
    """Preferential-attachment backbone (average degree ~ 2 * attachments).

    Each new switch attaches to ``attachments`` existing switches chosen
    with probability proportional to their current degree.
    """
    check_backbone_arguments(num_switches, qubit_capacity)
    if attachments < 1 or attachments >= num_switches:
        raise ConfigurationError(
            f"attachments must be in [1, num_switches), got {attachments}"
        )
    rng = ensure_rng(rng)
    network = QuantumNetwork()
    positions = random_positions(rng, num_switches, area)
    switch_ids = add_switches(network, positions, qubit_capacity)

    # Repeated-nodes list implements preferential attachment in O(E).
    repeated: List[int] = []
    seed_count = attachments + 1
    for i in range(seed_count):
        for j in range(i + 1, seed_count):
            network.add_edge(switch_ids[i], switch_ids[j])
            repeated.extend((switch_ids[i], switch_ids[j]))
    for i in range(seed_count, num_switches):
        new = switch_ids[i]
        targets: set = set()
        while len(targets) < attachments:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            targets.add(pick)
        for target in targets:
            network.add_edge(new, target)
            repeated.extend((new, target))
    attach_users(network, num_users, rng, area, links_per_user=user_links)
    return network


def random_geometric_network(
    num_switches: int = 100,
    radius: Optional[float] = None,
    area: float = DEFAULT_AREA,
    qubit_capacity: int = DEFAULT_QUBIT_CAPACITY,
    num_users: int = DEFAULT_NUM_USERS,
    user_links: int = DEFAULT_USER_LINKS,
    rng: Optional[RandomState] = None,
) -> QuantumNetwork:
    """r-disk graph: switches within *radius* of each other are linked.

    ``radius`` defaults to the connectivity threshold
    ``area * sqrt(2 * ln(n) / (pi * n))`` scaled by 1.2, which keeps
    samples connected with high probability; the repair step covers the
    rest.  Physically this models a maximum fibre span.
    """
    check_backbone_arguments(num_switches, qubit_capacity)
    rng = ensure_rng(rng)
    if radius is None:
        radius = 1.2 * area * float(
            np.sqrt(2.0 * np.log(num_switches) / (np.pi * num_switches))
        )
    if radius <= 0:
        raise ConfigurationError(f"radius must be > 0, got {radius}")
    network = QuantumNetwork()
    positions = random_positions(rng, num_switches, area)
    switch_ids = add_switches(network, positions, qubit_capacity)
    pairs = SwitchPairs(switch_ids, positions)
    pairs.connect(network, pairs.distances() <= radius)
    connect_components(network)
    attach_users(network, num_users, rng, area, links_per_user=user_links)
    return network
