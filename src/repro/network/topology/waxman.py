"""Waxman random-graph backbone (the paper's default generator).

Waxman's model connects nodes *u*, *v* with probability
``beta * exp(-d(u, v) / (L * scale))`` where ``d`` is the Euclidean
distance and ``L`` the maximum possible distance.  The paper fixes the
average switch degree (default 10) rather than *beta*, so we solve for the
*beta* that makes the expected degree match the target and then sample.

Sampling works on whole arrays: the distances, probabilities and one
uniform draw per pair are computed over all n(n-1)/2 switch pairs at
once (:class:`~repro.network.topology.base.SwitchPairs`), and the kept
pairs are inserted in ascending pair order with one
:meth:`~repro.network.graph.QuantumNetwork.add_edges` call.  Pair order
fixes which draw decides which pair, so it is part of what a seed
reproduces (``tests/test_topologies.py`` pins the generated networks).
"""

from __future__ import annotations

import math
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


def waxman_network(
    num_switches: int = 100,
    average_degree: float = 10.0,
    area: float = DEFAULT_AREA,
    qubit_capacity: int = DEFAULT_QUBIT_CAPACITY,
    num_users: int = DEFAULT_NUM_USERS,
    distance_scale: float = 0.4,
    user_links: int = DEFAULT_USER_LINKS,
    rng: Optional[RandomState] = None,
) -> QuantumNetwork:
    """Generate a Waxman-backbone quantum network with users attached.

    Parameters mirror the paper's evaluation defaults: 100 switches in a
    10k x 10k area, average switch degree 10, 10 qubits per switch.
    ``distance_scale`` is the Waxman locality parameter (larger = longer
    edges become likelier).
    """
    check_backbone_arguments(num_switches, qubit_capacity)
    if average_degree <= 0 or average_degree >= num_switches:
        raise ConfigurationError(
            f"average_degree must be in (0, num_switches), got {average_degree}"
        )
    rng = ensure_rng(rng)
    network = QuantumNetwork()
    positions = random_positions(rng, num_switches, area)
    switch_ids = add_switches(network, positions, qubit_capacity)

    pairs = SwitchPairs(switch_ids, positions)
    max_distance = area * math.sqrt(2.0)
    locality = np.exp(-pairs.distances() / (distance_scale * max_distance))

    # Solve beta so that expected total degree = num_switches * avg_degree.
    target_edges = average_degree * num_switches / 2.0
    total_locality = float(locality.sum())
    if total_locality <= 0:  # pragma: no cover - exp() is positive
        raise ConfigurationError("degenerate Waxman locality weights")
    beta = min(1.0, target_edges / total_locality)
    probabilities = np.minimum(1.0, beta * locality)

    draws = rng.uniform(size=probabilities.shape)
    pairs.connect(network, draws < probabilities)
    connect_components(network)
    attach_users(network, num_users, rng, area, links_per_user=user_links)
    return network
