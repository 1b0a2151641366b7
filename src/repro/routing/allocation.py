"""Qubit allocation ledger.

Tracks the remaining communication qubits of every node while routes are
being admitted.  Users have unlimited qubits (the paper's assumption), so
only switches are really constrained; the ledger still answers queries for
users so callers need no special cases.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import AllocationError, CapacityError
from repro.network.graph import QuantumNetwork


class QubitLedger:
    """Remaining-qubit bookkeeping over one network."""

    def __init__(self, network: QuantumNetwork):
        self._network = network
        self._remaining: Dict[int, Optional[int]] = {}
        for node_id in network.nodes():
            self._remaining[node_id] = network.qubit_capacity(node_id)
        # Bumped whenever a remaining count changes: the one signal that
        # cached derivations of the counts (the compiled core's relay
        # flags) are stale.
        self.version = 0

    def remaining(self, node_id: int) -> float:
        """Remaining qubits of *node_id* (``math.inf`` for users)."""
        value = self._lookup(node_id)
        return math.inf if value is None else value

    def has_at_least(self, node_id: int, count: int) -> bool:
        """True iff *node_id* still holds at least *count* qubits."""
        if count < 0:
            raise AllocationError(f"count must be >= 0, got {count}")
        value = self._lookup(node_id)
        return value is None or value >= count

    def remaining_counts(self, node_ids: Sequence[int]) -> List[Optional[int]]:
        """Remaining qubits of every node in *node_ids*, in order
        (``None`` = unlimited), read in one pass with no per-node
        Python call; an unknown node raises
        :class:`~repro.exceptions.AllocationError`."""
        try:
            return list(map(self._remaining.__getitem__, node_ids))
        except KeyError as missing:
            raise AllocationError(
                f"node {missing.args[0]} is not in the ledger"
            ) from None

    def reserve(self, node_id: int, count: int) -> None:
        """Consume *count* qubits of *node_id*; raises on overdraft."""
        if count < 0:
            raise AllocationError(f"count must be >= 0, got {count}")
        value = self._lookup(node_id)
        if value is None:
            return
        if value < count:
            raise CapacityError(
                f"node {node_id} has {value} qubits left, cannot reserve {count}"
            )
        if count:
            self._remaining[node_id] = value - count
            self.version += 1

    def release(self, node_id: int, count: int) -> None:
        """Return *count* qubits to *node_id*; raises if the release would
        exceed the node's physical capacity."""
        if count < 0:
            raise AllocationError(f"count must be >= 0, got {count}")
        value = self._lookup(node_id)
        if value is None:
            return
        capacity = self._network.qubit_capacity(node_id)
        if capacity is not None and value + count > capacity:
            raise AllocationError(
                f"releasing {count} qubits would take node {node_id} above its "
                f"capacity of {capacity}"
            )
        if count:
            self._remaining[node_id] = value + count
            self.version += 1

    def reserve_edge(self, u: int, v: int, width: int) -> None:
        """Consume *width* qubits at each endpoint of edge (*u*, *v*).

        Atomic: both endpoints are looked up first, so an unknown one
        raises before anything is reserved, and if the second endpoint
        lacks qubits the first endpoint's reservation is rolled back
        before raising.
        """
        self._lookup(u)
        self._lookup(v)
        self.reserve(u, width)
        try:
            self.reserve(v, width)
        except CapacityError:
            self.release(u, width)
            raise

    def reserve_edges(self, charges: Iterable[Tuple[int, int, int]]) -> None:
        """Reserve every ``(u, v, width)`` charge, or refund the ones
        taken and re-raise: the counts end where they started."""
        taken: List[Tuple[int, int, int]] = []
        try:
            for u, v, width in charges:
                self.reserve_edge(u, v, width)
                taken.append((u, v, width))
        except (AllocationError, CapacityError):
            self.release_edges(reversed(taken))
            raise

    def release_edges(self, charges: Iterable[Tuple[int, int, int]]) -> None:
        """Return *width* qubits at both endpoints of every charge."""
        for u, v, width in charges:
            self.release(u, width)
            self.release(v, width)

    def can_reserve_edge(self, u: int, v: int, width: int) -> bool:
        """True iff both endpoints can supply *width* qubits."""
        return self.has_at_least(u, width) and self.has_at_least(v, width)

    def snapshot(self) -> Dict[int, Optional[int]]:
        """Copy of the remaining-qubit map (None = unlimited)."""
        return dict(self._remaining)

    def restore(self, snapshot: Dict[int, Optional[int]]) -> None:
        """Restore a map previously produced by :meth:`snapshot`."""
        if set(snapshot) != set(self._remaining):
            raise AllocationError("snapshot does not match this ledger's nodes")
        if snapshot != self._remaining:
            self._remaining = dict(snapshot)
            self.version += 1

    def total_free_switch_qubits(self) -> int:
        """Total remaining qubits across all switches."""
        return sum(
            value
            for node_id, value in self._remaining.items()
            if value is not None
        )

    def copy(self) -> "QubitLedger":
        """Independent copy of this ledger over the same network."""
        clone = QubitLedger(self._network)
        clone._remaining = dict(self._remaining)
        return clone

    def _lookup(self, node_id: int) -> Optional[int]:
        try:
            return self._remaining[node_id]
        except KeyError:
            raise AllocationError(f"node {node_id} is not in the ledger") from None
