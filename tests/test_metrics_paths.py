"""Unit tests for routing metrics and path records."""

import dataclasses

import pytest

from repro.exceptions import RoutingError
from repro.network.demands import Demand
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.metrics import (
    channel_rate,
    path_entanglement_rate,
    path_entanglement_rate_nonuniform,
)
from repro.routing.paths import PathCandidate, validate_path

from tests.conftest import make_line_network


class TestChannelRate:
    def test_matches_formula(self, line_network):
        link = LinkModel(fixed_p=0.4)
        assert channel_rate(line_network, link, 3, 0, 2) == pytest.approx(
            1 - 0.6**2
        )

    def test_length_based(self, line_network):
        link = LinkModel(alpha=1e-3)
        p = link.success_probability(line_network.edge_length(0, 1))
        assert channel_rate(line_network, link, 0, 1, 1) == pytest.approx(p)


class TestPathRate:
    def test_line_formula(self, line_network):
        # Path: user 3 - switches 0,1,2 - user 4 (5 nodes, 4 edges).
        link = LinkModel(fixed_p=0.5)
        swap = SwapModel(q=0.9)
        nodes = [3, 0, 1, 2, 4]
        expected = (0.5**4) * (0.9**3)
        assert path_entanglement_rate(
            line_network, link, swap, nodes, width=1
        ) == pytest.approx(expected)

    def test_width_raises_rate(self, line_network):
        link = LinkModel(fixed_p=0.3)
        swap = SwapModel(q=0.9)
        nodes = [3, 0, 1, 2, 4]
        rates = [
            path_entanglement_rate(line_network, link, swap, nodes, w)
            for w in (1, 2, 3, 4)
        ]
        assert rates == sorted(rates)

    def test_users_pay_no_swap_factor(self, line_network):
        link = LinkModel(fixed_p=1.0)
        swap = SwapModel(q=0.5)
        nodes = [3, 0, 1, 2, 4]
        # Only the three switches pay q.
        assert path_entanglement_rate(
            line_network, link, swap, nodes, 1
        ) == pytest.approx(0.5**3)

    def test_single_edge_path(self, line_network):
        link = LinkModel(fixed_p=0.7)
        swap = SwapModel(q=0.1)
        assert path_entanglement_rate(
            line_network, link, swap, [3, 0], 1
        ) == pytest.approx(0.7)

    def test_nonuniform_widths(self, line_network):
        link = LinkModel(fixed_p=0.5)
        swap = SwapModel(q=1.0)
        nodes = [3, 0, 1]
        widths = {(0, 3): 1, (0, 1): 2}
        assert path_entanglement_rate_nonuniform(
            line_network, link, swap, nodes, widths
        ) == pytest.approx(0.5 * 0.75)

    def test_missing_width_raises(self, line_network):
        link = LinkModel(fixed_p=0.5)
        swap = SwapModel(q=1.0)
        with pytest.raises(RoutingError):
            path_entanglement_rate_nonuniform(
                line_network, link, swap, [3, 0, 1], {(0, 3): 1}
            )

    def test_short_path_rejected(self, line_network):
        with pytest.raises(RoutingError):
            path_entanglement_rate(
                line_network, LinkModel(), SwapModel(), [3], 1
            )

    def test_monotone_decrease_with_extension(self):
        """The paper's Algorithm 1 correctness property: extending a path
        never increases its rate."""
        network = make_line_network(num_switches=6)
        link = LinkModel(fixed_p=0.6)
        swap = SwapModel(q=0.9)
        source = 6  # user
        prefix = [source, 0]
        previous = path_entanglement_rate(network, link, swap, prefix, 1)
        for nxt in (1, 2, 3, 4):
            prefix = prefix + [nxt]
            current = path_entanglement_rate(network, link, swap, prefix, 1)
            assert current <= previous
            previous = current


class TestPathCandidate:
    def test_properties(self):
        c = PathCandidate(0, (9, 1, 2, 8), 2, 0.5)
        assert c.source == 9
        assert c.destination == 8
        assert c.hops == 3
        assert c.edges() == ((1, 9), (1, 2), (2, 8))

    def test_validation(self):
        with pytest.raises(RoutingError):
            PathCandidate(0, (1,), 1, 0.5)
        with pytest.raises(RoutingError):
            PathCandidate(0, (1, 2, 1), 1, 0.5)
        with pytest.raises(RoutingError):
            PathCandidate(0, (1, 2), 0, 0.5)
        with pytest.raises(RoutingError):
            PathCandidate(0, (1, 2), 1, 1.5)

    def test_trusted_construction_equals_checked(self):
        """The unchecked constructor the compiled Yen loop uses builds
        the same value as the checked one: equal, equal hash and repr,
        still frozen."""
        args = (3, (9, 1, 2, 8), 2, 0.5)
        checked = PathCandidate(*args)
        trusted = PathCandidate._trusted(*args)
        assert type(trusted) is PathCandidate
        assert trusted == checked
        assert hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)
        assert {trusted, checked} == {checked}
        assert trusted != PathCandidate(3, (9, 1, 2, 8), 2, 0.25)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trusted.rate = 0.25  # type: ignore[misc]

    def test_validate_path_against_network(self, line_network):
        validate_path(line_network, [3, 0, 1, 2, 4])
        validate_path(line_network, [0, 3])  # a bare edge is a valid path
        with pytest.raises(RoutingError):
            validate_path(line_network, [3, 1, 2])  # missing edge 3-1

    def test_validate_path_rejects_user_relay(self, diamond_network):
        diamond_network.add_edge(2, 4)
        with pytest.raises(RoutingError):
            validate_path(diamond_network, [2, 0, 4])  # user 0 as relay
