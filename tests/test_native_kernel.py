"""Differential tests: the native kernel against its Python oracles.

``CompiledNetwork._native_search`` (``kernel.c`` through ctypes) must
return exactly what ``CompiledNetwork._kernel`` returns — the same index
path and the same rate bits — on any CSR graph, width, relay flags,
banned nodes and banned edges.  ``CompiledNetwork._native_yen`` must
return exactly what ``yen_deviation_loop`` returns when the native
search drives it.  The graphs below are drawn to hit the cases where
they could part ways: hub rows of 32+ slots, exact rate ties from equal
edge lengths (so the push-counter tie-breaks decide), banned nodes and
edges, all-false relay flags, user nodes, an unreachable destination
and a destination adjacent to the source.  Several calls run back to
back on one snapshot, so scratch left dirty by one would show in the
next.  The loader tests cover the build into a cold cache and the
fallback when no compiler exists.
"""

from __future__ import annotations

import array
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.graph import QuantumNetwork
from repro.network.node import QuantumSwitch, QuantumUser
from repro.quantum.noise import LinkModel
from repro.routing import _native
from repro.routing.compiled import (
    _compiled_path_rate,
    compile_network,
    native_kernel_active,
    yen_deviation_loop,
)
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng

LINK = LinkModel()

#: Few distinct lengths, so many edges share a rate exactly.
LENGTHS = (500.0, 1000.0, 2000.0)

native_only = pytest.mark.skipif(
    not native_kernel_active(), reason="native kernel unavailable"
)


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
    # A few users: the Yen scorer multiplies no swap factor for them.
    users = draw(st.frozensets(st.integers(0, n - 1), max_size=3))
    network = QuantumNetwork()
    for i in range(n):
        if i in users:
            network.add_node(QuantumUser(i, Point(float(i), 0.0)))
        else:
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


@native_only
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
        rates = snapshot.width_rates(width)
        native = snapshot._native_search(
            _native.KERNEL, source, destination, rates, flags, swap2,
            banned, banned_edges,
        )
        python = snapshot._kernel(
            source, destination, rates.tolist(), flags.tolist(), swap2,
            sorted(banned), banned_edges,
        )
        assert native == python
        if native is not None:
            assert native[1].hex() == python[1].hex()
            assert type(native[1]) is float


@native_only
@settings(max_examples=150, deadline=None)
@given(
    instance=graphs(),
    width=st.integers(min_value=1, max_value=3),
    swap2=st.sampled_from((1.0, 0.9, 0.5)),
    h=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_native_yen_matches_python_yen(instance, width, swap2, h, data):
    """``repro_yen_paths`` returns what ``yen_deviation_loop`` returns
    when the native search drives it: the same paths in the same order,
    the same rate bits.  Session bans reach every spur search."""
    network, flags = instance
    n = network.num_nodes
    snapshot = compile_network(network, LINK)
    kernel = _native.KERNEL
    rates = snapshot.width_rates(width)
    rate_list = rates.tolist()
    edge_index = snapshot.edge_index
    queries = [(0, 1)] + data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda q: q[0] != q[1]),
            max_size=3,
        )
    )
    for source, destination in queries:
        banned = data.draw(
            st.frozensets(
                st.integers(min_value=0, max_value=n - 1).filter(
                    lambda i: i not in (source, destination)
                ),
                max_size=max(0, min(4, n - 2)),
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
        first = snapshot._native_search(
            kernel, source, destination, rates, flags, swap2, banned,
            banned_edges,
        )
        if first is None:
            continue

        def search(spur_source, spur_nodes, spur_edges):
            found = snapshot._native_search(
                kernel, spur_source, destination, rates, flags, swap2,
                banned | frozenset(spur_nodes),
                banned_edges | frozenset(edge_index[e] for e in spur_edges),
            )
            return None if found is None else (tuple(found[0]), found[1])

        # Node ids are the snapshot's indices here, so the id-keyed
        # scorer and the index paths line up.
        python = yen_deviation_loop(
            (tuple(first[0]), first[1]), h, search,
            lambda nodes: _compiled_path_rate(
                snapshot, nodes, rate_list, swap2
            ),
        )
        native = snapshot._native_yen(
            kernel, first[0], first[1], h, rates, flags, swap2,
            array.array("q", sorted(banned)),
            array.array("q", sorted(banned_edges)),
        )
        assert [tuple(nodes) for nodes, _ in native] == [
            nodes for nodes, _ in python
        ]
        assert [rate.hex() for _, rate in native] == [
            rate.hex() for _, rate in python
        ]


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
