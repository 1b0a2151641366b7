"""JSON (de)serialisation of networks and demand sets.

Experiments become portable artefacts: a topology sampled once can be
saved next to its measured results and re-loaded bit-exactly later, which
is how the repository pins regression baselines.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.exceptions import ConfigurationError
from repro.network.demands import Demand, DemandSet
from repro.network.graph import QuantumNetwork
from repro.network.node import Node, NodeKind
from repro.utils.geometry import Point

FORMAT_VERSION = 1


def network_to_dict(network: QuantumNetwork) -> Dict:
    """Plain-dict representation of *network* (JSON-ready)."""
    return {
        "format_version": FORMAT_VERSION,
        "nodes": [
            {
                "id": node_id,
                "kind": network.node(node_id).kind.value,
                "x": network.position(node_id).x,
                "y": network.position(node_id).y,
                "qubit_capacity": network.qubit_capacity(node_id),
            }
            for node_id in network.nodes()
        ],
        "edges": [
            {"u": edge.u, "v": edge.v, "length": edge.length}
            for edge in network.edges()
        ],
    }


def network_from_dict(data: Dict) -> QuantumNetwork:
    """Rebuild a network from :func:`network_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported network format version {version!r}"
        )
    network = QuantumNetwork()
    for entry in data["nodes"]:
        try:
            kind = NodeKind(entry["kind"])
            node = Node(
                node_id=int(entry["id"]),
                kind=kind,
                position=Point(float(entry["x"]), float(entry["y"])),
                qubit_capacity=(
                    None
                    if entry["qubit_capacity"] is None
                    else int(entry["qubit_capacity"])
                ),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"malformed node entry {entry!r}") from exc
        network.add_node(node)
    for entry in data["edges"]:
        try:
            network.add_edge(
                int(entry["u"]), int(entry["v"]), float(entry["length"])
            )
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(f"malformed edge entry {entry!r}") from exc
    return network


def demands_to_dict(demands: DemandSet) -> Dict:
    """Plain-dict representation of a demand set."""
    return {
        "format_version": FORMAT_VERSION,
        "demands": [
            {
                "id": demand.demand_id,
                "source": demand.source,
                "destination": demand.destination,
            }
            for demand in demands
        ],
    }


def demands_from_dict(data: Dict) -> DemandSet:
    """Rebuild a demand set from :func:`demands_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported demands format version {version!r}"
        )
    demands = []
    for entry in data["demands"]:
        try:
            demands.append(
                Demand(
                    int(entry["id"]),
                    int(entry["source"]),
                    int(entry["destination"]),
                )
            )
        except (KeyError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed demand entry {entry!r}"
            ) from exc
    return DemandSet(demands)


def save_instance(
    path: Union[str, Path],
    network: QuantumNetwork,
    demands: DemandSet,
) -> None:
    """Write a (network, demands) instance as one JSON file."""
    payload = {
        "network": network_to_dict(network),
        "demands": demands_to_dict(demands),
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))


def load_instance(path: Union[str, Path]):
    """Load a (network, demands) instance saved by :func:`save_instance`."""
    try:
        payload = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"{path} is not an instance file: {exc}"
        ) from exc
    try:
        network_data = payload["network"]
        demand_data = payload["demands"]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed instance file {path}") from exc
    return network_from_dict(network_data), demands_from_dict(demand_data)
