"""Differential tests: the native relax loop against the Python kernel.

``CompiledNetwork._native_search`` (``kernel.c`` through ctypes) must
return exactly what ``CompiledNetwork._kernel`` returns — the same index
path and the same rate bits — on any CSR graph, masked row, relay flags
and banned sets.  The graphs below are drawn to hit the cases where the
two could part ways: hub rows of 32+ slots, exact rate ties from equal
edge lengths (so the push-counter tie-break decides), banned nodes,
all-false relay flags, an unreachable destination and a destination
adjacent to the source.  Several searches run back to back on one
snapshot, so scratch left dirty by one search would show in the next.
The loader tests cover the build into a cold cache and the fallback
when no compiler exists.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.graph import QuantumNetwork
from repro.network.node import QuantumSwitch
from repro.quantum.noise import LinkModel
from repro.routing import _native
from repro.routing.compiled import compile_network, native_kernel_active
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng

LINK = LinkModel()

#: Few distinct lengths, so many edges share a rate exactly.
LENGTHS = (500.0, 1000.0, 2000.0)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=48))
    density = draw(st.sampled_from((0.05, 0.15, 0.4)))
    rng = ensure_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    }
    if n >= 34 and draw(st.booleans()):
        hub = draw(st.integers(min_value=0, max_value=n - 1))
        edges |= {(min(hub, v), max(hub, v)) for v in range(n) if v != hub}
    if draw(st.booleans()):
        edges.add((0, 1))  # destination 1 adjacent to source 0
    if draw(st.booleans()):
        edges = {e for e in edges if 1 not in e}  # destination unreachable
    network = QuantumNetwork()
    for i in range(n):
        network.add_node(QuantumSwitch(i, Point(float(i), 0.0), 10))
    # One length for every edge makes all equal-hop paths tie exactly.
    lengths = st.sampled_from(LENGTHS)
    if draw(st.booleans()):
        lengths = st.just(draw(lengths))
    for u, v in sorted(edges):
        network.add_edge(u, v, draw(lengths))
    mode = draw(st.sampled_from(("all-false", "all-true", "mixed")))
    if mode == "mixed":
        flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        flags = [mode == "all-true"] * n
    return network, np.asarray(flags, dtype=bool)


@pytest.mark.skipif(
    not native_kernel_active(), reason="native kernel unavailable"
)
@settings(max_examples=150, deadline=None)
@given(
    instance=graphs(),
    width=st.integers(min_value=1, max_value=3),
    swap2=st.sampled_from((1.0, 0.9, 0.5)),
    data=st.data(),
)
def test_native_matches_python_kernel(instance, width, swap2, data):
    network, flags = instance
    n = network.num_nodes
    snapshot = compile_network(network, LINK)
    queries = [(0, 1)] + data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda q: q[0] != q[1]),
            max_size=4,
        )
    )
    for source, destination in queries:
        banned = data.draw(
            st.frozensets(
                st.integers(min_value=0, max_value=n - 1).filter(
                    lambda i: i not in (source, destination)
                ),
                max_size=max(0, min(6, n - 2)),
            )
        )
        banned_edges = data.draw(
            st.frozensets(
                st.integers(min_value=0, max_value=snapshot.num_edges - 1),
                max_size=3,
            )
            if snapshot.num_edges
            else st.just(frozenset())
        )
        masked, address = snapshot._masked_row_rates(
            width, flags, 0, destination, banned_edges
        )
        native = snapshot._native_search(
            _native.KERNEL, source, destination, address, flags, swap2,
            banned,
        )
        python = snapshot._kernel(
            source, destination, masked.tolist(), flags.tolist(), swap2,
            sorted(banned),
        )
        assert native == python
        if native is not None:
            assert native[1].hex() == python[1].hex()
            assert type(native[1]) is float


def test_loader_builds_into_a_fresh_cache(tmp_path, monkeypatch):
    """A cold cache is built (under a temporary name, then moved into
    place) and loaded; later loads reuse the file."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    target = tmp_path / "cache" / "kernel.so"
    monkeypatch.setattr(_native, "cache_path", lambda: target)
    assert _native.load() is not None
    assert [p.name for p in target.parent.iterdir()] == ["kernel.so"]
    stamp = target.stat().st_mtime_ns
    assert _native.load() is not None
    assert target.stat().st_mtime_ns == stamp


def test_loader_falls_back_without_a_compiler(tmp_path, monkeypatch):
    monkeypatch.setattr(
        _native, "cache_path", lambda: tmp_path / "cache" / "kernel.so"
    )
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    assert _native.load() is None
