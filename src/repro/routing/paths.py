"""Path candidate records produced by Algorithms 1 and 2."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.exceptions import RoutingError
from repro.network.graph import QuantumNetwork


@dataclass(frozen=True)
class PathCandidate:
    """A candidate route for one demanded state.

    Attributes
    ----------
    demand_id:
        The demand this path serves.
    nodes:
        Node ids from source user to destination user inclusive.
    width:
        Channel width the path was constructed for (uniform at selection
        time; Algorithm 4 may widen individual edges later).
    rate:
        Analytic entanglement rate of the path at this width.
    """

    demand_id: int
    nodes: Tuple[int, ...]
    width: int
    rate: float

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise RoutingError(f"path must have >= 2 nodes, got {self.nodes}")
        if len(set(self.nodes)) != len(self.nodes):
            raise RoutingError(f"path must be loopless, got {self.nodes}")
        if self.width < 1:
            raise RoutingError(f"width must be >= 1, got {self.width}")
        if not 0.0 <= self.rate <= 1.0:
            raise RoutingError(f"rate must be in [0, 1], got {self.rate}")

    @classmethod
    def _trusted(
        cls, demand_id: int, nodes: Tuple[int, ...], width: int, rate: float
    ) -> "PathCandidate":
        """The candidate, built without :meth:`__post_init__`'s checks
        for a producer that guarantees them (the native Yen loop); it
        equals, and hashes like, the checked construction.  Fields are
        set one by one, as the frozen ``__init__`` does: writing
        ``__dict__`` would give each instance a dict of its own, twice
        the memory."""
        path = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(path, "demand_id", demand_id)
        setattr_(path, "nodes", nodes)
        setattr_(path, "width", width)
        setattr_(path, "rate", rate)
        return path

    @property
    def source(self) -> int:
        """First node (the source user)."""
        return self.nodes[0]

    @property
    def destination(self) -> int:
        """Last node (the destination user)."""
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        """Number of edges."""
        return len(self.nodes) - 1

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical (min, max) keys of the path's edges, in path order."""
        return tuple(
            (a, b) if a < b else (b, a) for a, b in zip(self.nodes, self.nodes[1:])
        )


def validate_path(network: QuantumNetwork, nodes: Sequence[int]) -> None:
    """Raise unless *nodes* is a loopless path over existing edges whose
    intermediate nodes are all switches."""
    nodes = list(nodes)
    if len(nodes) < 2:
        raise RoutingError(f"path must have >= 2 nodes, got {nodes}")
    if len(set(nodes)) != len(nodes):
        raise RoutingError(f"path must be loopless, got {nodes}")
    for a, b in zip(nodes, nodes[1:]):
        if not network.has_edge(a, b):
            raise RoutingError(f"path uses missing edge ({a}, {b})")
    for node in nodes[1:-1]:
        if network.node(node).is_user:
            raise RoutingError(
                f"path relays through user {node}; users may only be endpoints"
            )
