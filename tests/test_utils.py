"""Unit tests for shared utilities (rng, validation, geometry, tables)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.service.arrivals import EVENT_STREAM_BASE
from repro.service.faults import FAULT_STREAM_BASE
from repro.utils.geometry import Point, bounding_box_diagonal, euclidean_distance
from repro.utils.rng import (
    ensure_rng,
    random_subset,
    spawn_rng,
    stream_rng,
    stream_rngs,
)
from repro.utils.tables import AsciiTable, format_series
from repro.utils.validation import (
    check_in_range,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
    check_type,
)


class TestRng:
    def test_ensure_rng_from_int_is_deterministic(self):
        a = ensure_rng(42)
        b = ensure_rng(42)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_ensure_rng_passthrough(self):
        g = np.random.default_rng(1)
        assert ensure_rng(g) is g

    def test_ensure_rng_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_ensure_rng_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            ensure_rng("not-a-seed")

    def test_spawn_rng_children_differ(self):
        parent = ensure_rng(7)
        children = spawn_rng(parent, 3)
        draws = [c.integers(0, 10**9) for c in children]
        assert len(set(draws)) == 3

    def test_spawn_rng_reproducible(self):
        a = [c.integers(0, 10**9) for c in spawn_rng(ensure_rng(7), 3)]
        b = [c.integers(0, 10**9) for c in spawn_rng(ensure_rng(7), 3)]
        assert a == b

    def test_spawn_rng_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            spawn_rng(ensure_rng(0), 0)

    def test_random_subset(self):
        items = list(range(20))
        chosen = random_subset(ensure_rng(3), items, 5)
        assert len(chosen) == 5
        assert len(set(chosen)) == 5
        assert set(chosen) <= set(items)

    def test_random_subset_too_many(self):
        with pytest.raises(ConfigurationError):
            random_subset(ensure_rng(3), [1, 2], 3)


# ----------------------------------------------------------------------
# Batched substreams against numpy's own spawn-key derivation

#: The word-size edges of a stream index, and the fault and arrival
#: families as the serving loop derives them.
NUMPY_DIFFERENTIAL_STREAMS = (
    0, 2**31, 2**32 - 1,
    *range(FAULT_STREAM_BASE, FAULT_STREAM_BASE + 700),
    *range(EVENT_STREAM_BASE, EVENT_STREAM_BASE + 50),
)


def numpy_stream(seed, stream):
    """The oracle: substream *stream* of *seed* seeded by numpy."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(stream,))
    )


def next_draws(rng):
    return (
        rng.random(),
        rng.exponential(2.5),
        tuple(rng.choice(7, size=2, replace=False)),
    )


def assert_stream_rngs_match_numpy(seed):
    rngs = stream_rngs(seed, NUMPY_DIFFERENTIAL_STREAMS)
    assert len(rngs) == len(NUMPY_DIFFERENTIAL_STREAMS)
    for stream, rng in zip(NUMPY_DIFFERENTIAL_STREAMS, rngs):
        oracle = numpy_stream(seed, stream)
        assert rng.bit_generator.state == oracle.bit_generator.state, stream
        assert next_draws(rng) == next_draws(oracle), stream


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 - 1, 2**128 - 1])
def test_stream_rngs_match_numpy_at_edge_seeds(seed):
    assert_stream_rngs_match_numpy(seed)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**63 - 1))
def test_stream_rngs_match_numpy_at_int64_seeds(seed):
    assert_stream_rngs_match_numpy(seed)


def test_stream_rng_is_the_one_stream_batch():
    batch = stream_rngs(11, [5, 9])
    assert [next_draws(stream_rng(11, s)) for s in (5, 9)] == [
        next_draws(rng) for rng in batch
    ]
    assert stream_rngs(11, []) == []
    assert next_draws(stream_rng(np.int64(11), np.uint32(9))) == next_draws(
        numpy_stream(11, 9)
    )


def test_stream_rngs_cannot_spawn():
    with pytest.raises(TypeError):
        stream_rng(3, 4).spawn(1)


class TestValidation:
    def test_check_probability_accepts_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf"), "x", True])
    def test_check_probability_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_probability("p", bad)

    def test_check_positive(self):
        assert check_positive("x", 2.5) == 2.5
        for bad in (0, -1, float("nan")):
            with pytest.raises(ConfigurationError):
                check_positive("x", bad)

    def test_check_positive_int(self):
        assert check_positive_int("n", 3) == 3
        for bad in (0, -2, 1.5, True):
            with pytest.raises(ConfigurationError):
                check_positive_int("n", bad)

    def test_check_non_negative_int(self):
        assert check_non_negative_int("n", 0) == 0
        with pytest.raises(ConfigurationError):
            check_non_negative_int("n", -1)

    def test_check_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5.0
        with pytest.raises(ConfigurationError):
            check_in_range("x", 11, 0, 10)

    def test_check_type(self):
        check_type("s", "abc", str)
        with pytest.raises(ConfigurationError):
            check_type("s", 3, str)


class TestGeometry:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0
        assert euclidean_distance(Point(1, 1), Point(1, 1)) == 0.0

    def test_diagonal(self):
        assert bounding_box_diagonal(3, 4) == 5.0

    def test_points_are_hashable(self):
        assert Point(1.0, 2.0) == Point(1.0, 2.0)
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2


class TestTables:
    def test_render_alignment(self):
        table = AsciiTable(["name", "value"])
        table.add_row(["a", 1.23456])
        table.add_row(["long-name", 2])
        text = table.render()
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.235" in text  # 4 significant digits

    def test_row_width_mismatch(self):
        table = AsciiTable(["a"])
        with pytest.raises(ValueError):
            table.add_row([1, 2])

    def test_format_series(self):
        text = format_series("x", [1, 2], {"alg": [0.5, 0.75]})
        assert "x" in text and "alg" in text
        assert "0.75" in text
