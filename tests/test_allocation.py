"""Unit tests for the qubit allocation ledger."""

import math

import pytest

from repro.exceptions import AllocationError, CapacityError
from repro.routing.allocation import QubitLedger

from tests.conftest import make_line_network


@pytest.fixture
def ledger():
    return QubitLedger(make_line_network(num_switches=2, capacity=4))


class TestLedger:
    def test_initial_capacities(self, ledger):
        assert ledger.remaining(0) == 4
        assert ledger.remaining(2) == math.inf  # user

    def test_reserve_and_release(self, ledger):
        ledger.reserve(0, 3)
        assert ledger.remaining(0) == 1
        ledger.release(0, 2)
        assert ledger.remaining(0) == 3

    def test_overdraft_raises(self, ledger):
        with pytest.raises(CapacityError):
            ledger.reserve(0, 5)
        assert ledger.remaining(0) == 4

    def test_over_release_raises(self, ledger):
        with pytest.raises(AllocationError):
            ledger.release(0, 1)

    def test_user_reservations_are_free(self, ledger):
        ledger.reserve(2, 10_000)
        assert ledger.remaining(2) == math.inf
        ledger.release(2, 10_000)

    def test_reserve_edge_atomic(self, ledger):
        ledger.reserve(1, 3)  # leaves 1 at node 1
        with pytest.raises(CapacityError):
            ledger.reserve_edge(0, 1, 2)
        # The failed edge reservation must roll back node 0.
        assert ledger.remaining(0) == 4

    def test_reserve_edge_unknown_endpoint_reserves_nothing(self, ledger):
        version = ledger.version
        with pytest.raises(AllocationError):
            ledger.reserve_edge(0, 99999, 2)
        assert ledger.remaining(0) == 4
        assert ledger.version == version

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_reserve_edges_overdraft_at_kth_charge_changes_nothing(self, k):
        # User 4 - switches 0..3 - user 5; the k-th charge overdraws.
        ledger = QubitLedger(make_line_network(num_switches=4, capacity=4))
        ledger.reserve(3, 1)
        charges = [(4, 0, 2), (0, 1, 2), (1, 2, 2), (2, 3, 2)][:k]
        charges.append((k, k + 1, 5) if k < 3 else (3, 5, 5))
        prior = ledger.snapshot()
        with pytest.raises(CapacityError):
            ledger.reserve_edges(charges)
        assert ledger.snapshot() == prior

    def test_reserve_edges_unknown_node_changes_nothing(self, ledger):
        prior = ledger.snapshot()
        with pytest.raises(AllocationError):
            ledger.reserve_edges([(2, 0, 1), (0, 1, 1), (1, 99999, 1)])
        assert ledger.snapshot() == prior

    def test_reserve_edges_then_release_edges(self, ledger):
        prior = ledger.snapshot()
        charges = [(2, 0, 1), (0, 1, 3)]
        ledger.reserve_edges(charges)
        assert (ledger.remaining(0), ledger.remaining(1)) == (0, 1)
        ledger.release_edges(charges)
        assert ledger.snapshot() == prior

    def test_can_reserve_edge(self, ledger):
        assert ledger.can_reserve_edge(0, 1, 4)
        assert not ledger.can_reserve_edge(0, 1, 5)
        assert ledger.can_reserve_edge(2, 0, 4)  # user side unlimited

    def test_snapshot_restore(self, ledger):
        snap = ledger.snapshot()
        ledger.reserve(0, 4)
        ledger.restore(snap)
        assert ledger.remaining(0) == 4

    def test_restore_rejects_foreign_snapshot(self, ledger):
        with pytest.raises(AllocationError):
            ledger.restore({0: 1})

    def test_total_free_switch_qubits(self, ledger):
        assert ledger.total_free_switch_qubits() == 8
        ledger.reserve(0, 2)
        assert ledger.total_free_switch_qubits() == 6

    def test_copy_is_independent(self, ledger):
        clone = ledger.copy()
        clone.reserve(0, 4)
        assert ledger.remaining(0) == 4

    def test_unknown_node_raises(self, ledger):
        with pytest.raises(AllocationError):
            ledger.remaining(77)

    def test_negative_counts_rejected(self, ledger):
        with pytest.raises(AllocationError):
            ledger.reserve(0, -1)
        with pytest.raises(AllocationError):
            ledger.has_at_least(0, -1)
