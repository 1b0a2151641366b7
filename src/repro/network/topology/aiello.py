"""Aiello-style scale-free power-law backbone.

The paper cites Volchenkov & Blanchard's algorithm for power-law random
graphs.  We implement the closest well-defined equivalent available from
first principles: a Chung-Lu expected-degree model whose weights are drawn
from a truncated power law ``P(k) ~ k^-gamma`` and rescaled so the expected
average degree matches the requested target.  The result is a heavy-tailed,
hub-dominated topology with geometric edge lengths, which is the property
the paper's Figure 7 comparison exercises.
"""

from __future__ import annotations

from typing import Optional

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


def aiello_power_law_network(
    num_switches: int = 100,
    average_degree: float = 10.0,
    area: float = DEFAULT_AREA,
    qubit_capacity: int = DEFAULT_QUBIT_CAPACITY,
    num_users: int = DEFAULT_NUM_USERS,
    gamma: float = 2.5,
    user_links: int = DEFAULT_USER_LINKS,
    rng: Optional[RandomState] = None,
) -> QuantumNetwork:
    """Generate a scale-free power-law quantum network.

    ``gamma`` is the power-law exponent of the degree distribution
    (2 < gamma <= 3 is the realistic scale-free regime).
    """
    check_backbone_arguments(num_switches, qubit_capacity)
    if gamma <= 1.0:
        raise ConfigurationError(f"gamma must be > 1, got {gamma}")
    if average_degree <= 0 or average_degree >= num_switches:
        raise ConfigurationError(
            f"average_degree must be in (0, num_switches), got {average_degree}"
        )
    rng = ensure_rng(rng)
    network = QuantumNetwork()
    positions = random_positions(rng, num_switches, area)
    switch_ids = add_switches(network, positions, qubit_capacity)

    # Truncated power-law weights via inverse-transform sampling on
    # k in [1, sqrt(n)]; the cap keeps the Chung-Lu probabilities sane.
    k_min, k_max = 1.0, max(2.0, float(np.sqrt(num_switches) * 2.0))
    u = rng.uniform(size=num_switches)
    exponent = 1.0 - gamma
    weights = (
        (k_max**exponent - k_min**exponent) * u + k_min**exponent
    ) ** (1.0 / exponent)
    weights *= average_degree / weights.mean()

    total = float(weights.sum())
    pairs = SwitchPairs(switch_ids, positions)
    probabilities = np.minimum(
        1.0, weights[pairs.first] * weights[pairs.second] / total
    )
    draws = rng.uniform(size=probabilities.shape)
    pairs.connect(network, draws < probabilities)
    connect_components(network)
    attach_users(network, num_users, rng, area, links_per_user=user_links)
    return network
