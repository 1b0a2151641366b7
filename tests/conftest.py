"""Shared fixtures: small deterministic networks and models."""

from __future__ import annotations

import pytest

from repro.network.demands import Demand, DemandSet
from repro.network.graph import QuantumNetwork
from repro.network.node import QuantumSwitch, QuantumUser
from repro.quantum.noise import LinkModel, SwapModel
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng


def make_line_network(num_switches: int = 3, capacity: int = 10,
                      spacing: float = 1000.0) -> QuantumNetwork:
    """User - switch - ... - switch - user, all on a line.

    Node ids: 0..num_switches-1 are switches, then num_switches is the
    source user and num_switches+1 the destination user.
    """
    network = QuantumNetwork()
    for i in range(num_switches):
        network.add_node(
            QuantumSwitch(i, Point(spacing * (i + 1), 0.0), capacity)
        )
    source = num_switches
    destination = num_switches + 1
    network.add_node(QuantumUser(source, Point(0.0, 0.0)))
    network.add_node(
        QuantumUser(destination, Point(spacing * (num_switches + 1), 0.0))
    )
    network.add_edge(source, 0)
    for i in range(num_switches - 1):
        network.add_edge(i, i + 1)
    network.add_edge(num_switches - 1, destination)
    return network


def make_diamond_network(capacity: int = 10) -> QuantumNetwork:
    """Two disjoint switch paths between two users (a 'diamond').

    Ids: users 0 (source) and 1 (destination); switches 2, 3 on the upper
    path and 4, 5 on the lower path.
    """
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(3000.0, 0.0)))
    network.add_node(QuantumSwitch(2, Point(1000.0, 1000.0), capacity))
    network.add_node(QuantumSwitch(3, Point(2000.0, 1000.0), capacity))
    network.add_node(QuantumSwitch(4, Point(1000.0, -1000.0), capacity))
    network.add_node(QuantumSwitch(5, Point(2000.0, -1000.0), capacity))
    network.add_edge(0, 2)
    network.add_edge(2, 3)
    network.add_edge(3, 1)
    network.add_edge(0, 4)
    network.add_edge(4, 5)
    network.add_edge(5, 1)
    return network


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every call into the native kernel's two search entries, as
    ``(entry, args)`` with entry ``"search"`` or ``"yen"``, recorded by
    wrapping the loaded :data:`repro.routing._native.KERNEL` for the
    test.  Skips the test when no kernel is loaded."""
    from repro.routing import _native

    kernel = _native.KERNEL
    if kernel is None:
        pytest.skip("native kernel unavailable")
    calls = []

    def counted(name, entry):
        def call(*args):
            calls.append((name, args))
            return entry(*args)

        return call

    monkeypatch.setattr(_native, "KERNEL", kernel._replace(
        search=counted("search", kernel.search),
        yen=counted("yen", kernel.yen),
    ))
    return calls


@pytest.fixture
def line_network() -> QuantumNetwork:
    return make_line_network()


@pytest.fixture
def diamond_network() -> QuantumNetwork:
    return make_diamond_network()


@pytest.fixture
def uniform_link_model() -> LinkModel:
    return LinkModel(fixed_p=0.5)


@pytest.fixture
def swap_model() -> SwapModel:
    return SwapModel(q=0.9)


@pytest.fixture
def rng():
    return ensure_rng(12345)


@pytest.fixture
def line_demand(line_network) -> Demand:
    users = line_network.users()
    return Demand(0, users[0], users[1])


@pytest.fixture
def diamond_demand() -> Demand:
    return Demand(0, 0, 1)
