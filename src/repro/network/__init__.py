"""Quantum network model: nodes, links, the network graph and topologies.

The network follows the paper's Section III model:

* **Quantum users** request end-to-end entangled states; they have
  effectively unlimited communication qubits and connect only to switches.
* **Quantum switches** relay entanglement via n-fusion; each holds a
  limited number of communication qubits (the binding resource).
* **Quantum links** connect adjacent nodes over fibre; a *channel* of
  width w places w parallel links on one edge for one demanded state.
* Topology generators, addressed through a registry
  (:mod:`repro.network.registry`): Waxman (the paper's default),
  Watts-Strogatz, Aiello power-law, Barabasi-Albert, random-geometric,
  grid, ring and Erdos-Renyi — ``register_topology`` adds new families.
"""

from repro.network.node import Node, NodeKind, QuantumSwitch, QuantumUser
from repro.network.edge import Edge, edge_key
from repro.network.graph import QuantumNetwork
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.network.builder import NetworkConfig, build_network
from repro.network.registry import (
    TopologyKeyError,
    normalize_topology,
    register_topology,
    topology_keys,
)
from repro.network.serialization import load_instance, save_instance
from repro.network.topology import (
    aiello_power_law_network,
    barabasi_albert_network,
    erdos_renyi_network,
    grid_network,
    random_geometric_network,
    ring_network,
    watts_strogatz_network,
    waxman_network,
)

#: Names re-exported lazily from :mod:`repro.routing.compiled`.  The
#: CSR snapshot is conceptually a network-layer artifact, but it lives
#: beside the kernels that consume it; a top-level import here would
#: cycle (routing imports the network modules), so resolve on access.
_COMPILED_EXPORTS = ("CompiledNetwork",)


def __getattr__(name):
    if name in _COMPILED_EXPORTS:
        import repro.routing.compiled as _compiled

        return getattr(_compiled, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Node",
    "NodeKind",
    "CompiledNetwork",
    "QuantumSwitch",
    "QuantumUser",
    "Edge",
    "edge_key",
    "QuantumNetwork",
    "Demand",
    "DemandSet",
    "generate_demands",
    "NetworkConfig",
    "build_network",
    "load_instance",
    "save_instance",
    "waxman_network",
    "watts_strogatz_network",
    "aiello_power_law_network",
    "grid_network",
    "ring_network",
    "erdos_renyi_network",
    "barabasi_albert_network",
    "random_geometric_network",
    "TopologyKeyError",
    "normalize_topology",
    "register_topology",
    "topology_keys",
]
