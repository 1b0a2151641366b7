"""High-level network construction from a single configuration record."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.network.graph import QuantumNetwork
from repro.network.registry import topology_entry
from repro.network.topology.base import (
    DEFAULT_AREA,
    DEFAULT_NUM_USERS,
    DEFAULT_QUBIT_CAPACITY,
    DEFAULT_USER_LINKS,
    check_backbone_arguments,
    check_num_users,
)
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters describing one network sample.

    Defaults reproduce the paper's evaluation setting (Section V-A):
    Waxman topology, 10k x 10k area, 100 switches, average degree 10,
    10 qubits per switch.
    """

    generator: str = "waxman"
    num_switches: int = 100
    average_degree: float = 10.0
    area: float = DEFAULT_AREA
    qubit_capacity: int = DEFAULT_QUBIT_CAPACITY
    num_users: int = DEFAULT_NUM_USERS
    user_links: int = DEFAULT_USER_LINKS

    def __post_init__(self) -> None:
        if not 0 < self.average_degree < math.inf:
            raise ConfigurationError(
                "average_degree must be a finite number > 0, "
                f"got {self.average_degree}"
            )
        check_backbone_arguments(self.num_switches, self.qubit_capacity)
        check_num_users(self.num_users)

    def with_updates(self, **kwargs) -> "NetworkConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


def build_network(
    config: NetworkConfig, rng: Optional[RandomState] = None
) -> QuantumNetwork:
    """Instantiate one network sample from *config*.

    Dispatches through the topology registry
    (:mod:`repro.network.registry`): any registered generator key or
    alias is a valid ``config.generator``; an unknown key raises a
    ``ValueError`` naming every supported generator.  ``grid`` rounds
    ``num_switches`` down to a square.
    """
    rng = ensure_rng(rng)
    return topology_entry(config.generator).builder(config, rng)
