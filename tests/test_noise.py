"""Unit tests for link / swap success models."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.quantum.noise import (
    LinkModel,
    SwapModel,
    channel_success,
    channel_success_probability,
    link_success_probability,
)


class TestLinkSuccessProbability:
    def test_exponential_decay(self):
        assert link_success_probability(0.0) == 1.0
        assert link_success_probability(10_000.0, alpha=1e-4) == pytest.approx(
            math.exp(-1.0)
        )

    def test_monotone_in_length(self):
        values = [link_success_probability(L) for L in (0, 100, 1000, 10000)]
        assert values == sorted(values, reverse=True)

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            link_success_probability(-1.0)

    def test_bad_alpha_raises(self):
        with pytest.raises(ConfigurationError):
            link_success_probability(1.0, alpha=0.0)


class TestChannelSuccessProbability:
    def test_width_one_is_p(self):
        assert channel_success_probability(0.3, 1) == pytest.approx(0.3)

    def test_formula(self):
        assert channel_success_probability(0.3, 3) == pytest.approx(
            1 - 0.7**3
        )

    def test_zero_width_is_zero(self):
        assert channel_success_probability(0.5, 0) == 0.0

    def test_p_one_saturates(self):
        assert channel_success_probability(1.0, 2) == 1.0

    def test_monotone_in_width(self):
        values = [channel_success_probability(0.2, w) for w in range(1, 8)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_tiny_p_approximates_wp(self):
        # The paper's small-p approximation: 1-(1-p)^w ~ w*p.
        p, w = 1e-6, 5
        assert channel_success_probability(p, w) == pytest.approx(w * p, rel=1e-4)

    def test_invalid_p_raises(self):
        with pytest.raises(ConfigurationError):
            channel_success_probability(1.2, 1)

    @pytest.mark.parametrize(
        "p, width", [(-0.1, 1), (1.5, 2), (0.5, -1), (0.5, 1.0), (0.5, True)]
    )
    def test_checked_wrapper_still_raises(self, p, width):
        """The compiled core's rate columns call the unchecked helper;
        the public function keeps rejecting bad input."""
        with pytest.raises(ConfigurationError):
            channel_success_probability(p, width)

    def test_unchecked_helper_gives_the_same_floats(self):
        for p in (1e-6, 0.3, 0.9, 1.0, 0.0):
            for width in range(6):
                assert channel_success(p, width).hex() == (
                    channel_success_probability(p, width).hex()
                )


class TestLinkModel:
    def test_fixed_p_overrides_length(self):
        model = LinkModel(fixed_p=0.25)
        assert model.success_probability(0.0) == 0.25
        assert model.success_probability(99999.0) == 0.25

    def test_length_based(self):
        model = LinkModel(alpha=1e-3)
        assert model.success_probability(1000.0) == pytest.approx(math.exp(-1.0))

    def test_channel_probability(self):
        model = LinkModel(fixed_p=0.5)
        assert model.channel_probability(1.0, 2) == pytest.approx(0.75)

    def test_invalid_fixed_p(self):
        with pytest.raises(ConfigurationError):
            LinkModel(fixed_p=2.0)

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            LinkModel(alpha=-1.0)


class TestSwapModel:
    def test_constant_q(self):
        model = SwapModel(q=0.8)
        assert model.success_probability(2) == 0.8
        assert model.success_probability(5) == 0.8

    def test_zero_arity_is_certain(self):
        assert SwapModel(q=0.5).success_probability(0) == 1.0

    def test_arity_one(self):
        assert SwapModel(q=0.5).success_probability(1) == 0.5

    def test_per_qubit_extension(self):
        model = SwapModel(q=0.9, per_qubit=True)
        assert model.success_probability(3) == pytest.approx(0.81)

    def test_invalid_q(self):
        with pytest.raises(ConfigurationError):
            SwapModel(q=-0.1)

    @pytest.mark.parametrize("arity", [-1, 2.0, True, "2"])
    def test_checked_wrapper_still_raises(self, arity):
        """Equation 1's compiled walk calls the unchecked
        ``fusion_success``; ``success_probability`` keeps rejecting bad
        arities."""
        with pytest.raises(ConfigurationError):
            SwapModel(q=0.9).success_probability(arity)

    def test_unchecked_helper_gives_the_same_floats(self):
        for model in (SwapModel(q=0.7), SwapModel(q=0.9, per_qubit=True)):
            for arity in range(8):
                assert model.fusion_success(arity).hex() == (
                    model.success_probability(arity).hex()
                )
