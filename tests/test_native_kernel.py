"""Differential tests: the native kernel against the reference core.

``CompiledNetwork._native_search`` (``kernel.c``'s batched first
search, through ctypes) must return exactly what the reference
Algorithm 1, ``largest_entanglement_rate_path``, returns — the same
path and the same rate bits — on any graph, width, relay flags, banned
nodes and banned edges.  ``CompiledNetwork._native_yen`` must return
exactly what the reference Algorithm 2 at one width,
``_yen_best_paths``, returns, and so must each width of a multi-width
Yen batch, whose widths after the first run under a floor from their
predecessor's paths.  The differentials are derandomized, so every run
draws the same examples.
The drawn relay flags reach the reference core through a
``QubitLedger``: a switch that may not relay keeps exactly ``width``
free qubits, so it can still be an endpoint.  The graphs below are
drawn to hit the cases where the two could part ways: hub rows of 32+
slots, exact rate ties from equal edge lengths (so the push-counter
tie-breaks decide), banned nodes and edges, all-false relay flags, user
nodes, an unreachable destination and a destination adjacent to the
source.  Yen's loop also runs on lattices with one edge length, where
many paths tie exactly, and with ``h`` up to 80, past any small buffer
of the best queued rates that its spur bound keeps.  Several calls run
back to back on one snapshot, so scratch left dirty by one would show
in the next.  Hand-built cases cover what a batch of widths adds: a
batch that mixes found and missing widths, one where the memo answers
some widths, session bans, and ``h`` above the number of paths; a
work-count test pins the number of native calls.  Hand-built floor
cases cover a predecessor with fewer than ``h`` paths or with a path
that does not relay, widths out of descending order, exact ``fixed_p``
ties at the floor, session bans and ``h`` = 1,000,000.  The loader tests
cover the build into a cold cache and the fallback when no compiler
exists.
"""

from __future__ import annotations

import os
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.experiments.scenarios import parse_scenario
from repro.network.builder import build_network
from repro.network.demands import Demand, generate_demands
from repro.network.graph import QuantumNetwork
from repro.network.node import QuantumSwitch, QuantumUser
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing import _native
from repro.routing.alg1_largest_rate import largest_entanglement_rate_path
from repro.routing.alg2_path_selection import (
    _yen_best_paths,
    default_max_width,
    select_paths,
    yen_deviation_loop,
)
from repro.routing.allocation import QubitLedger
from repro.routing.compiled import (
    ROUTING_CORE_ENV,
    CompiledNetwork,
    WidthSearchBatch,
    native_kernel_active,
    snapshot_for,
)
from repro.routing.metrics import ChannelRateCache
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng
from tests.conftest import make_diamond_network

LINK = LinkModel()
SWAP = SwapModel(q=0.9)

#: Settings shared by the derandomized differentials.  Shrinking is left
#: out: it draws no new examples, so the same failures are caught, but
#: shrinking one failing Yen example took 49 s to report against 0.85 s
#: without it.
DIFFERENTIAL = settings(
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)

#: Qubits per switch: enough to relay at every drawn width.
CAPACITY = 10

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
            network.add_node(QuantumSwitch(i, Point(float(i), 0.0), CAPACITY))
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


@st.composite
def tie_heavy_grids(draw):
    """A rows x cols lattice (ids row-major) with one edge length, so
    every path of a given hop count has the same rate; mostly relaying
    switches, a few users."""
    rows = draw(st.integers(min_value=2, max_value=5))
    cols = draw(st.integers(min_value=2, max_value=6))
    n = rows * cols
    users = draw(st.frozensets(st.integers(0, n - 1), max_size=2))
    network = QuantumNetwork()
    for i in range(n):
        point = Point(float(i % cols), float(i // cols))
        if i in users:
            network.add_node(QuantumUser(i, point))
        else:
            network.add_node(QuantumSwitch(i, point, CAPACITY))
    length = draw(st.sampled_from(LENGTHS))
    for i in range(n):
        if i % cols + 1 < cols:
            network.add_edge(i, i + 1, length)
        if i + cols < n:
            network.add_edge(i, i + cols, length)
    if draw(st.booleans()):
        flags = [True] * n
    else:
        flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return network, np.asarray(flags, dtype=bool)


def reference_setup(network, flags, width):
    """A reference-core rate cache, and a ledger that leaves exactly
    *width* free qubits on each switch whose drawn flag is false."""
    with mock.patch.dict(os.environ, {ROUTING_CORE_ENV: "reference"}):
        cache = ChannelRateCache(network, LINK)
    assert cache.compiled_snapshot is None
    ledger = QubitLedger(network)
    for node in network.switches():
        if not flags[node]:
            ledger.reserve(node, CAPACITY - width)
    return cache, ledger


def draw_bans(data, snapshot, source, destination, max_nodes):
    """Banned node indices and edge ids that spare both endpoints."""
    n = snapshot.num_nodes
    banned = data.draw(
        st.frozensets(
            st.integers(min_value=0, max_value=n - 1).filter(
                lambda i: i not in (source, destination)
            ),
            max_size=max(0, min(max_nodes, n - 2)),
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
    return banned, banned_edges


def edge_keys(snapshot, edge_ids):
    """The reference core's edge keys for snapshot edge ids."""
    return frozenset(snapshot.edge_keys[e] for e in edge_ids)


def columns(rates, flags):
    """The kernel's per-width request: the rate column's and the relay
    flags' addresses (the arrays must outlive the call)."""
    return [rates.ctypes.data, flags.ctypes.data]


def draw_queries(data, n, max_size):
    return [(0, 1)] + data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda q: q[0] != q[1]),
            max_size=max_size,
        )
    )


@native_only
@settings(DIFFERENTIAL, max_examples=150)
@given(
    instance=graphs(),
    width=st.integers(min_value=1, max_value=3),
    swap2=st.sampled_from((1.0, 0.9, 0.5)),
    data=st.data(),
)
def test_native_search_matches_reference_alg1(instance, width, swap2, data):
    """``repro_relax_search`` returns what the reference Algorithm 1
    returns under the same ledger and bans.  Node ids are the
    snapshot's indices here, so the paths compare directly."""
    network, drawn = instance
    snapshot = CompiledNetwork(network, LINK)
    cache, ledger = reference_setup(network, drawn, width)
    flags = snapshot.relay_state(ledger, width)[0]
    assert flags.tolist() == [
        bool(flag) and not user
        for flag, user in zip(drawn, snapshot.is_user)
    ]
    rates = snapshot.width_rates(width)
    for source, destination in draw_queries(data, network.num_nodes, 4):
        banned, banned_edges = draw_bans(
            data, snapshot, source, destination, 6
        )
        native = snapshot._native_search(
            _native.KERNEL, source, destination, columns(rates, flags),
            swap2, snapshot._bans_for(banned, banned_edges),
        )[0]
        reference = largest_entanglement_rate_path(
            network, LINK, SwapModel(q=swap2), source, destination, width,
            ledger, banned_nodes=banned,
            banned_edges=edge_keys(snapshot, banned_edges),
            rate_cache=cache,
        )
        if reference is None:
            assert native is None
            continue
        assert native is not None
        assert tuple(native[0]) == reference[0]
        assert native[1].hex() == reference[1].hex()
        assert type(native[1]) is float


@native_only
@settings(DIFFERENTIAL, max_examples=200)
@given(
    instance=st.one_of(graphs(), tie_heavy_grids()),
    width=st.integers(min_value=1, max_value=3),
    swap2=st.sampled_from((1.0, 0.9, 0.5)),
    h=st.one_of(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=60, max_value=80),
    ),
    data=st.data(),
)
def test_native_yen_matches_reference_yen(instance, width, swap2, h, data):
    """The native Yen loop returns what the reference Algorithm 2
    returns at one width: the same paths in the same order, the same
    rate bits, with or without spur searches cut by the spur bound.
    Session bans reach every spur search."""
    network, drawn = instance
    snapshot = CompiledNetwork(network, LINK)
    cache, ledger = reference_setup(network, drawn, width)
    flags = snapshot.relay_state(ledger, width)[0]
    swap_model = SwapModel(q=swap2)
    kernel = _native.KERNEL
    rates = snapshot.width_rates(width)
    for source, destination in draw_queries(data, network.num_nodes, 3):
        banned, banned_edges = draw_bans(
            data, snapshot, source, destination, 4
        )
        reference = _yen_best_paths(
            network, LINK, swap_model, Demand(0, source, destination), width,
            h, ledger, cache, banned, edge_keys(snapshot, banned_edges),
        )
        bans = snapshot._bans_for(banned, banned_edges)
        first = snapshot._native_search(
            kernel, source, destination, columns(rates, flags), swap2, bans,
        )[0]
        if first is None:
            assert reference == []
            continue
        native = snapshot._native_yen(
            kernel, [(*columns(rates, flags), first[0], first[1])], h,
            swap2, bans,
        )[0]
        assert [tuple(nodes) for nodes, _ in native] == [
            path.nodes for path in reference
        ]
        assert [rate.hex() for _, rate in native] == [
            path.rate.hex() for path in reference
        ]


#: Free qubits a switch whose drawn flag is false keeps in the multi-width
#: differential: it relays up to width ``count // 2``.
PARTIAL_COUNTS = (1, 2, 3, 4, 5, 6)


@native_only
@settings(DIFFERENTIAL, max_examples=120)
@given(
    instance=st.one_of(graphs(), tie_heavy_grids()),
    widths=st.lists(
        st.integers(min_value=1, max_value=4), min_size=2, max_size=4,
        unique=True,
    ),
    descending=st.booleans(),
    swap2=st.sampled_from((1.0, 0.9, 0.5)),
    h=st.one_of(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=60, max_value=80),
    ),
    data=st.data(),
)
def test_native_yen_widths_match_reference_yen(
    instance, widths, descending, swap2, h, data
):
    """One native Yen call over a batch of widths returns, width by
    width, what the reference Algorithm 2 returns at that width alone,
    rate bits included.  Widths after the first run under the floor
    their predecessor's paths set; the batch is in descending order
    (as ``select_paths`` sends it) or in the drawn order, and switches
    relay up to different widths, so a predecessor's path may not relay
    at the next width.  Session bans reach every width."""
    network, drawn = instance
    if descending:
        widths = sorted(widths, reverse=True)
    snapshot = CompiledNetwork(network, LINK)
    with mock.patch.dict(os.environ, {ROUTING_CORE_ENV: "reference"}):
        cache = ChannelRateCache(network, LINK)
    ledger = QubitLedger(network)
    for node in network.switches():
        if not drawn[node]:
            keep = data.draw(st.sampled_from(PARTIAL_COUNTS))
            ledger.reserve(node, CAPACITY - keep)
    swap_model = SwapModel(q=swap2)
    kernel = _native.KERNEL
    for source, destination in draw_queries(data, network.num_nodes, 2):
        banned, banned_edges = draw_bans(
            data, snapshot, source, destination, 4
        )
        bans = snapshot._bans_for(banned, banned_edges)
        requests, expected = [], []
        for width in widths:
            reference = _yen_best_paths(
                network, LINK, swap_model, Demand(0, source, destination),
                width, h, ledger, cache, banned,
                edge_keys(snapshot, banned_edges),
            )
            first = None
            if ledger.has_at_least(source, width) and ledger.has_at_least(
                destination, width
            ):
                request = columns(
                    snapshot.width_rates(width),
                    snapshot.relay_state(ledger, width)[0],
                )
                first = snapshot._native_search(
                    kernel, source, destination, request, swap2, bans,
                )[0]
            if first is None:
                assert reference == []
                continue
            requests.append((*request, first[0], first[1]))
            expected.append(reference)
        if not requests:
            continue
        native = snapshot._native_yen(kernel, requests, h, swap2, bans)
        assert len(native) == len(expected)
        for paths, reference in zip(native, expected):
            assert [(tuple(nodes), rate.hex()) for nodes, rate in paths] == [
                (path.nodes, path.rate.hex()) for path in reference
            ]


#: Hand-built spur-bound cases: (edge rates, swap2, h, expected accepted
#: paths).  Node 0 is the source and node 1 the destination, both users.
#:
#: - ``one-ulp``: the best path 0-2-3-4-1, then two candidates:
#:   0-7-1 from the source and 0-2-3-4-5-6-1 from node 4, whose rate is
#:   1 ulp above 0-7-1's while its search's frontier bound (the same
#:   factors grouped another way) rounds 1 ulp below it.  Only the
#:   slack keeps the second path, which wins.
#: - ``need-th``: with h = 3, two candidates are queued (0-5-1 at 0.648
#:   and 0-2-6-1 at 0.377) when the spur from node 3 finds 0-2-3-4-1 at
#:   0.594: below the best queued rate but above the second, so the
#:   cut must come from the need-th best, not the best.
SPUR_BOUND_CASES = {
    "one-ulp": (
        {
            (0, 2): 0.6582516075840807, (2, 3): 0.9916202483060043,
            (3, 4): 0.8553297490856684, (1, 4): 1.0,
            (4, 5): 0.9206657722400552, (5, 6): 0.7336741174412647,
            (1, 6): 0.6828239564018601, (0, 7): 0.16894870815790644,
            (1, 7): 1.0,
        },
        0.9, 2,
        [(0, 2, 3, 4, 1), (0, 2, 3, 4, 5, 6, 1)],
    ),
    "need-th": (
        {
            (0, 2): 0.95, (2, 3): 0.95, (1, 3): 0.95,
            (0, 5): 0.8, (1, 5): 0.9,
            (2, 6): 0.7, (1, 6): 0.7,
            (3, 4): 0.95, (1, 4): 0.95,
        },
        0.9, 3,
        [(0, 2, 3, 1), (0, 5, 1), (0, 2, 3, 4, 1)],
    ),
}


def rated_snapshot(keys):
    """A snapshot over users 0 and 1 and switches 2.. joined by the
    edges *keys*; the cases below set each edge's rate directly."""
    n = 1 + max(max(key) for key in keys)
    network = QuantumNetwork()
    for i in range(n):
        point = Point(float(i), 0.0)
        if i < 2:
            network.add_node(QuantumUser(i, point))
        else:
            network.add_node(QuantumSwitch(i, point, CAPACITY))
    for u, v in keys:
        network.add_edge(u, v, 1000.0)
    return CompiledNetwork(network, LINK)


def rate_column(snapshot, edge_rates):
    """The per-edge rate column of ``{edge key: rate}``."""
    rates = np.zeros(snapshot.num_edges)
    for key, rate in edge_rates.items():
        rates[snapshot.edge_index[key]] = rate
    return rates


def unbounded_yen(snapshot, rates, flags, swap2, h):
    """The oracle of one width: the first path from 0 to 1 and what the
    unbounded ``yen_deviation_loop`` accepts around the same native
    search, scored by the Yen scorer's operations."""
    kernel = _native.KERNEL

    def search(spur, banned_nodes, banned_edges):
        return snapshot._native_search(
            kernel, spur, 1, columns(rates, flags), swap2,
            snapshot._bans_for(
                frozenset(banned_nodes),
                frozenset(snapshot.edge_index[key] for key in banned_edges),
            ),
        )[0]

    def path_rate(nodes):
        rate = 1.0
        for a, b in zip(nodes, nodes[1:]):
            rate *= float(rates[snapshot.edge_index[(min(a, b), max(a, b))]])
        for _ in nodes[1:-1]:
            rate *= swap2
        return rate

    first = search(0, (), ())
    return first, yen_deviation_loop(first, h, search, path_rate)


@native_only
@pytest.mark.parametrize("case", sorted(SPUR_BOUND_CASES))
def test_native_yen_spur_bound_edge_cases(case):
    """The spur bound keeps a candidate whose frontier bound rounds
    below the need-th best queued rate while its own rate is above it,
    and takes its threshold from the need-th best queued rate: the
    native Yen loop accepts what the unbounded ``yen_deviation_loop``
    accepts around the same native search, rate bits included."""
    edge_rates, swap2, h, expected = SPUR_BOUND_CASES[case]
    snapshot = rated_snapshot(edge_rates)
    rates = rate_column(snapshot, edge_rates)
    flags = ~np.asarray(snapshot.is_user)
    first, reference = unbounded_yen(snapshot, rates, flags, swap2, h)
    assert [nodes for nodes, _ in reference] == expected
    native = snapshot._native_yen(
        _native.KERNEL, [(*columns(rates, flags), first[0], first[1])], h,
        swap2, snapshot._bans_for(frozenset(), frozenset()),
    )[0]
    assert [(tuple(nodes), rate.hex()) for nodes, rate in native] == [
        (nodes, rate.hex()) for nodes, rate in reference
    ]


#: Three routes from user 0 to user 1: 0-2-1, 0-3-1 and 0-4-5-1.
FLOOR_EDGES = ((0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (4, 5), (1, 5))


def floor_rates(near, far):
    """Rates of FLOOR_EDGES: 0-2-1 at *near* per edge, 0-3-1 a little
    below it, and 0-4-5-1 at *far* per edge."""
    return dict(zip(FLOOR_EDGES, (near, near, near, near - 0.05, far, far,
                                  far)))


#: Hand-built floor cases: (columns, h, expected accepted paths per
#: column), each column an (edge rates, switches that do not relay)
#: pair, run as one batch in the order given with swap2 = 0.9.  In each,
#: a wrong floor would cut 0-4-5-1 or 0-3-1 from the second column:
#:
#: - ``rescored``: the first column's rates are higher, so a floor from
#:   its own rates, not rescored at the second column's, is too high.
#: - ``fewer-than-h``: the first column finds 2 paths for h = 3 (switch
#:   4 does not relay), so it sets no floor.
#: - ``not-relaying``: 0-3-1, the first column's second path, does not
#:   relay in the second column (switch 3), so it sets no floor.
FLOOR_CASES = {
    "rescored": (
        [(floor_rates(0.95, 0.6), ()), (floor_rates(0.9, 0.5), ())], 2,
        [[(0, 2, 1), (0, 3, 1)], [(0, 2, 1), (0, 3, 1)]],
    ),
    "fewer-than-h": (
        [(floor_rates(0.9, 0.5), (4,)), (floor_rates(0.9, 0.5), ())], 3,
        [[(0, 2, 1), (0, 3, 1)], [(0, 2, 1), (0, 3, 1), (0, 4, 5, 1)]],
    ),
    "not-relaying": (
        [(floor_rates(0.9, 0.5), ()), (floor_rates(0.9, 0.5), (3,))], 2,
        [[(0, 2, 1), (0, 3, 1)], [(0, 2, 1), (0, 4, 5, 1)]],
    ),
}


@native_only
@pytest.mark.parametrize("case", sorted(FLOOR_CASES))
def test_native_yen_floor_edge_cases(case):
    """A width's floor comes from its predecessor's paths rescored at
    this width, only when all h of them relay here: one native batch
    accepts, column by column, what the unbounded ``yen_deviation_loop``
    accepts on that column alone, rate bits included."""
    cases, h, expected = FLOOR_CASES[case]
    swap2 = 0.9
    snapshot = rated_snapshot(FLOOR_EDGES)
    requests, references, arrays = [], [], []
    for edge_rates, silent in cases:
        rates = rate_column(snapshot, edge_rates)
        flags = ~np.asarray(snapshot.is_user)
        flags[list(silent)] = False
        arrays.append((rates, flags))  # alive through the native call
        first, reference = unbounded_yen(snapshot, rates, flags, swap2, h)
        requests.append((*columns(rates, flags), first[0], first[1]))
        references.append(reference)
    assert [[nodes for nodes, _ in ref] for ref in references] == expected
    native = snapshot._native_yen(
        _native.KERNEL, requests, h, swap2,
        snapshot._bans_for(frozenset(), frozenset()),
    )
    assert [
        [(tuple(nodes), rate.hex()) for nodes, rate in paths]
        for paths in native
    ] == [
        [(nodes, rate.hex()) for nodes, rate in reference]
        for reference in references
    ]


# ----------------------------------------------------------------------
# Batches of widths: hand-built cases


def caches(network):
    """A reference-core and a compiled-core rate cache over *network*."""
    with mock.patch.dict(os.environ, {ROUTING_CORE_ENV: "reference"}):
        reference = ChannelRateCache(network, LINK)
    with mock.patch.dict(os.environ, {ROUTING_CORE_ENV: "compiled"}):
        compiled = ChannelRateCache(network, LINK)
    assert reference.compiled_snapshot is None
    assert compiled.compiled_snapshot is not None
    return reference, compiled


def graded_diamond():
    """The diamond (users 0 and 1; upper arm 0-2-3-1, lower arm
    0-4-5-1) with a ledger under which the upper switches relay up to
    width 2 and the lower ones only at width 1."""
    network = make_diamond_network()
    ledger = QubitLedger(network)
    for node, keep in ((2, 4), (3, 4), (4, 2), (5, 2)):
        ledger.reserve(node, CAPACITY - keep)
    return network, ledger


def reference_searches(network, cache, source, destination, widths, ledger):
    """The reference core's Algorithm 1 at each of *widths*."""
    return {
        width: largest_entanglement_rate_path(
            network, LINK, SWAP, source, destination, width, ledger,
            rate_cache=cache,
        )
        for width in widths
    }


def sweep(snapshot, source, destination, widths, ledger):
    """``WidthSearchBatch.search_widths`` without bans."""
    return WidthSearchBatch(
        snapshot, SWAP, source, destination, widths, ledger
    ).search_widths()


def searched_widths(kernel_calls):
    """The width count of every first-search call so far."""
    return [args[1] for entry, args in kernel_calls if entry == "search"]


@native_only
def test_batch_mixes_found_and_missing_widths(kernel_calls):
    """One first-search call answers widths the kernel finds a path for
    and widths it does not, in the order asked; a width whose endpoint
    lacks qubits never reaches the kernel.  The Yen batch then runs only
    the feasible widths, in one call."""
    network, ledger = graded_diamond()
    reference, compiled = caches(network)
    snapshot = compiled.compiled_snapshot
    # Width 3 has no relay: the kernel itself reports no path, between
    # two widths that have one.
    widths = (1, 3, 2)
    found = sweep(snapshot, 0, 1, widths, ledger)
    assert list(found) == list(widths)
    assert found[3] is None and found[1] and found[2]
    assert found == reference_searches(network, reference, 0, 1, widths,
                                       ledger)
    assert searched_widths(kernel_calls) == [3]
    # Switch 3 as the destination keeps 4 qubits: width 5 fails its
    # endpoint check before any search.
    widths = (5, 1, 2, 3)
    found = sweep(snapshot, 0, 3, widths, ledger)
    assert found == reference_searches(network, reference, 0, 3, widths,
                                       ledger)
    assert found[5] is None
    assert searched_widths(kernel_calls) == [3, 3]
    kernel_calls.clear()
    demand = Demand(0, 0, 1)
    selected = select_paths(network, LINK, SWAP, demand, h=3, max_width=3,
                            ledger=ledger, rate_cache=compiled)
    assert selected == select_paths(network, LINK, SWAP, demand, h=3,
                                    max_width=3, ledger=ledger,
                                    rate_cache=reference)
    assert sorted(selected) == [1, 2]
    assert [entry for entry, _ in kernel_calls] == ["yen"]
    assert kernel_calls[0][1][1] == 2


@native_only
def test_batch_sends_only_memo_misses(kernel_calls):
    """Widths the search memo answers stay out of the batch: the rest
    go to the kernel in one call, and the merged answer keeps the
    widths' order and matches the reference core."""
    network, ledger = graded_diamond()
    reference, compiled = caches(network)
    snapshot = compiled.compiled_snapshot
    sweep(snapshot, 0, 1, (2,), ledger)
    assert searched_widths(kernel_calls) == [1]
    widths = (3, 2, 1)
    found = sweep(snapshot, 0, 1, widths, ledger)
    assert list(found) == list(widths)
    assert found == reference_searches(network, reference, 0, 1, widths,
                                       ledger)
    assert searched_widths(kernel_calls) == [1, 2]
    assert sweep(snapshot, 0, 1, widths, ledger) == found
    assert searched_widths(kernel_calls) == [1, 2]


def ladder(rows=3, cols=4):
    """A rows x cols switch lattice with one edge length, user 100
    attached to the first column and user 101 to the last."""
    network = QuantumNetwork()
    for i in range(rows * cols):
        network.add_node(
            QuantumSwitch(i, Point(float(i % cols), float(i // cols)),
                          CAPACITY)
        )
    network.add_node(QuantumUser(100, Point(-1.0, 0.0)))
    network.add_node(QuantumUser(101, Point(float(cols), 0.0)))
    for i in range(rows * cols):
        if i % cols + 1 < cols:
            network.add_edge(i, i + 1, 1000.0)
        if i + cols < rows * cols:
            network.add_edge(i, i + cols, 1000.0)
    for row in range(rows):
        network.add_edge(100, row * cols, 1000.0)
        network.add_edge(101, row * cols + cols - 1, 1000.0)
    return network


@native_only
def test_batch_under_session_bans(kernel_calls):
    """Session bans reach every width of both batches: the first
    searches and each Yen spur search, as on the reference core."""
    network = ladder()
    reference, compiled = caches(network)
    demand = Demand(0, 100, 101)
    banned_nodes = frozenset({1, 6})
    banned_edges = frozenset({(8, 9), (4, 100)})

    def select(cache, nodes, edges):
        return select_paths(network, LINK, SWAP, demand, h=4, max_width=3,
                            ledger=QubitLedger(network), rate_cache=cache,
                            banned_nodes=nodes, banned_edges=edges)

    banned = select(compiled, banned_nodes, banned_edges)
    assert banned == select(reference, banned_nodes, banned_edges)
    assert sorted(banned) == [1, 2, 3]
    assert [entry for entry, _ in kernel_calls] == ["search", "yen"]
    for paths in banned.values():
        assert len(paths) == 4
        for path in paths:
            assert not banned_nodes & set(path.nodes)
            hops = {frozenset(hop) for hop in zip(path.nodes, path.nodes[1:])}
            assert not hops & {frozenset(edge) for edge in banned_edges}
    # The bans change the selection, so the comparison is not vacuous.
    assert select(compiled, frozenset(), frozenset()) != banned


@native_only
def test_batch_with_h_above_the_path_count(kernel_calls):
    """``h`` far above the number of simple paths: every width's Yen
    loop stops when its candidates run out, inside one call."""
    network = make_diamond_network()
    reference, compiled = caches(network)
    demand = Demand(0, 0, 1)
    selected = select_paths(network, LINK, SWAP, demand, h=50, max_width=3,
                            rate_cache=compiled)
    assert selected == select_paths(network, LINK, SWAP, demand, h=50,
                                    max_width=3, rate_cache=reference)
    assert {width: len(paths) for width, paths in selected.items()} == {
        3: 2, 2: 2, 1: 2,
    }
    assert [entry for entry, _ in kernel_calls] == ["search", "yen"]


@native_only
@pytest.mark.parametrize("widths", [(1, 2, 3), (2, 1, 3), (1, 3, 2)])
def test_native_yen_floor_out_of_order_widths(widths):
    """A Yen batch whose widths are not in descending order: each
    width's loop accepts what the reference core accepts at that width
    alone, although a narrower predecessor's paths cross switches that
    do not relay at the wider width (so they set no floor there)."""
    h = 4
    network = ladder()
    ledger = QubitLedger(network)
    # Switches 1 and 5 relay only at width 1, switch 2 up to width 2.
    for node, keep in ((1, 2), (5, 3), (2, 4)):
        ledger.reserve(node, CAPACITY - keep)
    reference, _ = caches(network)
    snapshot = CompiledNetwork(network, LINK)
    kernel = _native.KERNEL
    swap2 = SWAP.fusion_success(2)
    bans = snapshot._bans_for(frozenset(), frozenset())
    index_of = snapshot.index_of
    requests, expected = [], []
    for width in widths:
        request = columns(
            snapshot.width_rates(width), snapshot.relay_state(ledger, width)[0]
        )
        nodes, rate = snapshot._native_search(
            kernel, index_of[100], index_of[101], request, swap2, bans,
        )[0]
        requests.append((*request, [index_of[node] for node in nodes], rate))
        expected.append(_yen_best_paths(
            network, LINK, SWAP, Demand(0, 100, 101), width, h, ledger,
            reference,
        ))
    native = snapshot._native_yen(kernel, requests, h, swap2, bans)
    assert [
        [(tuple(nodes), rate.hex()) for nodes, rate in paths]
        for paths in native
    ] == [
        [(path.nodes, path.rate.hex()) for path in paths]
        for paths in expected
    ]
    # Width 1 finds h paths, some through switch 1 or 5.
    narrow = expected[widths.index(1)]
    assert len(narrow) == h
    assert any({1, 5} & set(path.nodes) for path in narrow)


@native_only
@pytest.mark.parametrize("banned", [False, True], ids=["open", "bans"])
def test_native_yen_floor_fixed_p_ties(banned):
    """With a fixed link probability every edge has one rate per width,
    so paths of one hop count tie exactly, at the floor too (the h-th
    path ties the one before it).  A compiled ``select_paths``, whose
    Yen batch runs widths 3, 2 and 1 with each floor set by the width
    before, matches the reference core, with and without session
    bans."""
    network = ladder()
    link = LinkModel(fixed_p=0.4)
    demand = Demand(0, 100, 101)
    banned_nodes = frozenset({6}) if banned else frozenset()
    banned_edges = frozenset({(0, 1), (100, 8)}) if banned else frozenset()

    def select(core):
        with mock.patch.dict(os.environ, {ROUTING_CORE_ENV: core}):
            cache = ChannelRateCache(network, link)
        return select_paths(
            network, link, SWAP, demand, h=5, max_width=3,
            rate_cache=cache, banned_nodes=banned_nodes,
            banned_edges=banned_edges,
        )

    compiled = select("compiled")
    assert compiled == select("reference")
    assert sorted(compiled) == [1, 2, 3]
    for paths in compiled.values():
        assert len(paths) == 5
        assert paths[-1].rate == paths[-2].rate
        for path in paths:
            assert not banned_nodes & set(path.nodes)
            assert not banned_edges & set(path.edges())


@native_only
def test_native_yen_floor_huge_h():
    """``h`` = 1,000,000, far above the number of simple paths: no width
    finds h paths, so none sets a floor; the batch matches the reference
    core, and the kernel holds memory for the paths found, not for h."""
    h = 1_000_000
    network = ladder(2, 3)
    reference, compiled = caches(network)
    demand = Demand(0, 100, 101)
    selected = select_paths(network, LINK, SWAP, demand, h=h, max_width=3,
                            rate_cache=compiled)
    assert selected == select_paths(network, LINK, SWAP, demand, h=h,
                                    max_width=3, rate_cache=reference)
    found = sum(len(paths) for paths in selected.values())
    assert sorted(selected) == [1, 2, 3] and 3 < found < h
    held = compiled.compiled_snapshot._kernel_context.output.held
    assert 0 < held < 4096 * found


@native_only
def test_kernel_call_counts(kernel_calls):
    """A compiled ``select_paths`` makes at most two native calls (one
    first-search batch, one Yen batch); ``run_search`` makes one call
    per memo miss, and a memo hit makes none."""
    spec = parse_scenario("waxman:switches=40,users=8,states=8")
    rng = ensure_rng(11)
    network = build_network(spec.network_config(), rng)
    demands = generate_demands(network, spec.num_states, rng)
    _, cache = caches(network)
    ledger = QubitLedger(network)
    per_select = []
    for demand in demands:
        before = len(kernel_calls)
        selected = select_paths(network, LINK, SWAP, demand, h=3,
                                ledger=ledger, rate_cache=cache)
        calls = [entry for entry, _ in kernel_calls[before:]]
        assert calls in ([], ["search"], ["yen"], ["search", "yen"])
        assert ("yen" in calls) == bool(selected)
        per_select.append(len(calls))
    assert max(per_select) == 2

    snapshot = snapshot_for(network, LINK)
    swap2 = SWAP.fusion_success(2)
    queries = list(dict.fromkeys(
        (d.source, d.destination, w) for d in demands for w in (1, 4)
    ))
    fresh = CompiledNetwork(network, LINK)
    kernel_calls.clear()
    for source, destination, width in queries:
        fresh.run_search(source, destination, width, swap2, ledger)
    assert searched_widths(kernel_calls) == [1] * len(queries)
    for source, destination, width in queries:
        fresh.run_search(source, destination, width, swap2, ledger)
    assert len(kernel_calls) == len(queries)
    # The selections above memoised every first search of the shared
    # snapshot: a repeated sweep makes no call.
    kernel_calls.clear()
    widths = range(default_max_width(network), 0, -1)
    for demand in demands:
        sweep(snapshot, demand.source, demand.destination, widths, ledger)
    assert kernel_calls == []


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
