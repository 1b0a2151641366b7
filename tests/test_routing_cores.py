"""Parity suite for the compiled routing core.

The compiled core (CSR snapshots + array kernels, the default) must
match the reference object-graph implementations **bit-for-bit** —
same paths, same floats, same plans — across topology families, seeds,
banned node/edge sets, widths, partially consumed ledgers and
``extra_widths`` probes.  Any drift here is a correctness bug, not a
tolerance issue, so every comparison is exact equality.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import os
import pathlib
import pickle
import shutil
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import CapacityError, ConfigurationError
from repro.experiments.scenarios import parse_scenario
from repro.network import CompiledNetwork
from repro.network.builder import build_network
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.network.graph import QuantumNetwork
from repro.network.node import Node, NodeKind, QuantumSwitch, QuantumUser
from repro.network.serialization import load_instance
from repro.quantum.noise import LinkModel, SwapModel, channel_success
from repro.routing.alg1_largest_rate import largest_entanglement_rate_path
from repro.routing.alg2_path_selection import default_max_width, select_paths
from repro.routing.allocation import QubitLedger
from repro.routing import _native, compiled as compiled_core
from repro.routing.compiled import (
    ROUTING_CORE_ENV,
    WidthSearchBatch,
    active_routing_core,
    compiled_select_paths,
    native_kernel_active,
    snapshot_for,
)
from repro.exceptions import RoutingError
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache
from repro.routing.registry import make_router, parse_router_specs, router_keys
from repro.service.loop import ServeSession
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng

LINK = LinkModel(fixed_p=0.4)
SWAP = SwapModel(q=0.9)

#: Scenario-registry workloads the parity sweeps run over — one spec
#: per structurally distinct family (geometric, lattice, power-law,
#: uniform-random), shrunk to keep the suite fast.
SCENARIOS = (
    "waxman:switches=30,users=6,states=6",
    "grid:switches=25,users=6,states=6",
    "aiello:switches=30,users=6,states=6",
    "erdos-renyi:switches=30,users=6,states=6",
)

SEEDS = (7, 20230601)

REGRESSION_INSTANCE = (
    pathlib.Path(__file__).parent / "data" / "regression_instance.json"
)

#: For tests of the compiled core itself: it runs on the native kernel,
#: and without one routing takes the reference core instead.
native_only = pytest.mark.skipif(
    not native_kernel_active(), reason="native kernel unavailable"
)


@contextlib.contextmanager
def routing_core(name):
    """Run a block under ``REPRO_ROUTING_CORE=name``."""
    previous = os.environ.get(ROUTING_CORE_ENV)
    os.environ[ROUTING_CORE_ENV] = name
    try:
        yield
    finally:
        if previous is None:
            del os.environ[ROUTING_CORE_ENV]
        else:
            os.environ[ROUTING_CORE_ENV] = previous


def _instance(scenario: str, seed: int):
    spec = parse_scenario(scenario)
    rng = ensure_rng(seed)
    network = build_network(spec.network_config(), rng)
    demands = generate_demands(network, spec.num_states, rng)
    return network, demands


def _plan_shape(result):
    """The exact admitted structure: per-demand paths and edge widths."""
    return {
        flow.demand_id: (tuple(flow.paths), tuple(sorted(
            flow.edge_widths().items()
        )))
        for flow in result.plan.flows()
    }


# ----------------------------------------------------------------------
# Core selection


@native_only
def test_default_core_is_compiled(monkeypatch):
    monkeypatch.delenv(ROUTING_CORE_ENV, raising=False)
    assert active_routing_core() == "compiled"


def test_invalid_core_rejected(monkeypatch):
    monkeypatch.setenv(ROUTING_CORE_ENV, "vectorised")
    with pytest.raises(ConfigurationError, match="REPRO_ROUTING_CORE"):
        active_routing_core()


@native_only
def test_core_env_read_per_call(monkeypatch):
    monkeypatch.setenv(ROUTING_CORE_ENV, "reference")
    assert active_routing_core() == "reference"
    monkeypatch.setenv(ROUTING_CORE_ENV, "compiled")
    assert active_routing_core() == "compiled"


def _three_node_line(edge_length):
    """Users 0 and 1 joined through switch 2 by two equal edges."""
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(2 * edge_length, 0.0)))
    network.add_node(QuantumSwitch(2, Point(edge_length, 0.0), 10))
    network.add_edge(0, 2, edge_length)
    network.add_edge(2, 1, edge_length)
    return network


@pytest.mark.parametrize("core", ["reference", "compiled"])
def test_pinned_core_rejects_foreign_rate_cache(core):
    """A rate cache describes one (network, link model) pair; every
    routing entry point refuses it for another pair instead of reading
    the wrong channels (or, on one core, silently ignoring it)."""
    near = _three_node_line(1000.0)
    far = _three_node_line(5000.0)
    link = LinkModel()
    flow = FlowLikeGraph(0, 0, 1)
    flow.add_path((0, 2, 1), width=1)
    with routing_core(core):
        foreign = (
            ChannelRateCache(near, link),
            ChannelRateCache(far, LinkModel(fixed_p=0.9)),
        )
        for cache in foreign:
            with pytest.raises(RoutingError, match="rate_cache"):
                largest_entanglement_rate_path(
                    far, link, SWAP, 0, 1, 1, rate_cache=cache
                )
            with pytest.raises(RoutingError, match="rate_cache"):
                select_paths(far, link, SWAP, Demand(0, 0, 1), rate_cache=cache)
            with pytest.raises(RoutingError, match="rate_cache"):
                flow.entanglement_rate(far, link, SWAP, rate_cache=cache)
        # An equal link model is the same pair.
        own = ChannelRateCache(far, LinkModel())
        expected = largest_entanglement_rate_path(far, link, SWAP, 0, 1, 1)
        assert largest_entanglement_rate_path(
            far, link, SWAP, 0, 1, 1, rate_cache=own
        ) == expected
        assert flow.entanglement_rate(
            far, link, SWAP, rate_cache=own
        ) == flow.entanglement_rate(far, link, SWAP)


@native_only
def test_pinned_core_compiled_cache_ignores_reference_env():
    """A cache built on the compiled core keeps routing on it: the core
    is read once, when the cache is built."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    snapshot = snapshot_for(network, LINK)
    with routing_core("compiled"):
        cache = ChannelRateCache(network, LINK)
    before = len(snapshot._search_memo)
    with routing_core("reference"):
        select_paths(network, LINK, SWAP, demands[0], h=2, rate_cache=cache)
    assert len(snapshot._search_memo) > before


def test_pinned_core_reference_cache_never_compiles():
    """A cache built on the reference core keeps every entry point on
    the reference core, so the network never gains a snapshot."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    demand = demands[0]
    with routing_core("reference"):
        cache = ChannelRateCache(network, LINK)
    assert cache.compiled_snapshot is None
    with routing_core("compiled"):
        selected = select_paths(
            network, LINK, SWAP, demand, h=2, rate_cache=cache
        )
        best = largest_entanglement_rate_path(
            network, LINK, SWAP, demand.source, demand.destination, 1,
            rate_cache=cache,
        )
        flow = FlowLikeGraph(demand.demand_id, demand.source, demand.destination)
        flow.add_path(best[0], width=1)
        flow.entanglement_rate(network, LINK, SWAP, rate_cache=cache)
    assert selected
    assert not network.__dict__.get("_compiled_snapshots")


def test_pinned_core_reference_routers_never_compile(monkeypatch):
    """The reference core is an independent oracle: routing every
    registered router on it constructs no CompiledNetwork."""
    network, demands = _instance("paper-default", SEEDS[0])

    def refuse(self, *args, **kwargs):
        raise AssertionError("the reference core compiled a snapshot")

    monkeypatch.setattr(CompiledNetwork, "__init__", refuse)
    with routing_core("reference"):
        for key in router_keys():
            assert make_router(key).route(network, demands, LINK, SWAP).plan


def test_pinned_core_invalid_env_rejected_by_route(monkeypatch):
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    monkeypatch.setenv(ROUTING_CORE_ENV, "vectorised")
    with pytest.raises(ConfigurationError, match="REPRO_ROUTING_CORE"):
        make_router("alg-n-fusion").route(network, demands, LINK, SWAP)


# ----------------------------------------------------------------------
# Snapshot layer


def test_snapshot_matches_reference_rates():
    network, _ = _instance(SCENARIOS[0], SEEDS[0])
    link = LinkModel()  # length-based probabilities, the realistic case
    snapshot = CompiledNetwork(network, link)
    cache = ChannelRateCache(network, link)
    for width in (1, 2, 5):
        column = snapshot.width_rates(width)
        for (u, v), eid in snapshot.edge_index.items():
            assert column[eid] == cache.rate(u, v, width)
    assert snapshot.num_nodes == network.num_nodes
    assert snapshot.num_edges == network.num_edges


def test_rate_columns_match_channel_success_bits():
    """Each width column takes every edge's logarithm once and reuses it
    across widths: the rates keep ``channel_success``'s bits, down to
    probabilities of 0, 1 and subnormal size."""
    probabilities = [0.0, 5e-324, 1e-17, 1e-9, 0.25, 0.5, 0.999999, 1.0]
    rng = ensure_rng(3)
    probabilities += [float(p) for p in rng.random(64)]
    lists = compiled_core._RateLists(probabilities)
    for width in (1, 2, 3, 7, 40):
        assert [rate.hex() for rate in lists[width]] == [
            channel_success(p, width).hex() for p in probabilities
        ]


def test_snapshot_shared_through_rate_cache():
    network, _ = _instance(SCENARIOS[0], SEEDS[0])
    cache = ChannelRateCache(network, LINK)
    first = snapshot_for(network, LINK)
    assert isinstance(first, CompiledNetwork)
    assert snapshot_for(network, LINK) is first
    # A cache bound to a different link model must not leak its snapshot.
    assert snapshot_for(network, LinkModel(fixed_p=0.9)) is not first


# ----------------------------------------------------------------------
# Algorithm 1 parity


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", SEEDS)
def test_alg1_parity_random_banned_sets(scenario, seed):
    network, demands = _instance(scenario, seed)
    rng = ensure_rng(seed + 1)
    switches = network.switches()
    edges = network.edge_keys()
    ledger = QubitLedger(network)
    # Consume some qubits so the feasibility checks actually bite.
    for node in switches[::3]:
        ledger.reserve(node, min(2, int(ledger.remaining(node))))
    for trial in range(12):
        demand = demands[trial % len(demands)]
        width = 1 + trial % 3
        banned_nodes = frozenset(
            int(s) for s in rng.choice(switches, size=3, replace=False)
        )
        picked = rng.choice(len(edges), size=4, replace=False)
        banned_edges = frozenset(edges[int(i)] for i in picked)
        results = {}
        for core in ("reference", "compiled"):
            with routing_core(core):
                results[core] = largest_entanglement_rate_path(
                    network, LINK, SWAP, demand.source, demand.destination,
                    width, ledger, banned_nodes=banned_nodes,
                    banned_edges=banned_edges,
                )
        assert results["reference"] == results["compiled"]


def _short_long_diamond():
    """Users 0 and 1 joined through switch 2 (short edges) or switch 3
    (long edges): banning either edge of the short route reroutes."""
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(2000.0, 0.0)))
    network.add_node(QuantumSwitch(2, Point(1000.0, 0.0), 10))
    network.add_node(QuantumSwitch(3, Point(1000.0, 1000.0), 10))
    network.add_edge(0, 2, 1000.0)
    network.add_edge(2, 1, 1000.0)
    network.add_edge(0, 3, 3000.0)
    network.add_edge(3, 1, 3000.0)
    return network


@pytest.mark.parametrize("core", ["reference", "compiled"])
def test_reversed_banned_edge_keys_are_honoured(core):
    """An edge ban reads the same in either endpoint order, in a single
    search and in Algorithm 2's selection."""
    network = _short_long_diamond()
    link = LinkModel()
    demand = Demand(0, 0, 1)
    with routing_core(core):
        unbanned = largest_entanglement_rate_path(
            network, link, SWAP, 0, 1, 1
        )
        assert unbanned[0] == (0, 2, 1)
        for key in ((0, 2), (2, 0), (1, 2), (2, 1)):
            found = largest_entanglement_rate_path(
                network, link, SWAP, 0, 1, 1, banned_edges=frozenset({key})
            )
            assert found[0] == (0, 3, 1)
            assert select_paths(
                network, link, SWAP, demand, h=2, max_width=2,
                banned_edges=frozenset({key}),
            ) == select_paths(
                network, link, SWAP, demand, h=2, max_width=2,
                banned_edges=frozenset({(0, 2)}),
            )
        # A key that names no edge of the network stays a no-op.
        assert largest_entanglement_rate_path(
            network, link, SWAP, 0, 1, 1, banned_edges=frozenset({(3, 2)})
        ) == unbanned


def test_alg1_parity_infeasible_cases(diamond_network):
    ledger = QubitLedger(diamond_network)
    for node in (2, 3, 4, 5):
        ledger.reserve(node, 10)  # drain every switch
    for core in ("reference", "compiled"):
        with routing_core(core):
            assert largest_entanglement_rate_path(
                diamond_network, LINK, SWAP, 0, 1, 1, ledger
            ) is None
            # Banned endpoint short-circuits identically.
            assert largest_entanglement_rate_path(
                diamond_network, LINK, SWAP, 0, 1, 1,
                banned_nodes=frozenset({0}),
            ) is None


# ----------------------------------------------------------------------
# Algorithm 2 parity


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", SEEDS)
def test_alg2_parity(scenario, seed):
    network, demands = _instance(scenario, seed)
    ledger = QubitLedger(network)
    for node in network.switches()[::4]:
        ledger.reserve(node, min(3, int(ledger.remaining(node))))
    max_width = min(3, default_max_width(network))
    for demand in demands[:3]:
        per_core = {}
        for core in ("reference", "compiled"):
            with routing_core(core):
                per_core[core] = select_paths(
                    network, LINK, SWAP, demand, h=3, max_width=max_width,
                    ledger=ledger,
                )
        # PathCandidate is a frozen dataclass: equality covers nodes,
        # width and the exact float rate of every selected path.
        assert per_core["reference"] == per_core["compiled"]


def test_alg2_parity_max_hops(line_network):
    demand = Demand(0, *line_network.users())
    per_core = {}
    for core in ("reference", "compiled"):
        with routing_core(core):
            per_core[core] = select_paths(
                line_network, LINK, SWAP, demand, h=2, max_width=2,
                max_hops=4,
            )
    assert per_core["reference"] == per_core["compiled"]


# ----------------------------------------------------------------------
# Equation 1 parity


@pytest.mark.parametrize("scenario", SCENARIOS[:2])
def test_equation1_parity_with_extra_width_probes(scenario):
    network, demands = _instance(scenario, SEEDS[0])
    with routing_core("compiled"):
        result = make_router("alg-n-fusion").route(network, demands, LINK, SWAP)
    # A cache fixes the core it was built under: one per core, each
    # built inside its own block, keeps the comparison cross-core.
    caches = {}
    for core in ("reference", "compiled"):
        with routing_core(core):
            caches[core] = ChannelRateCache(network, LINK)
    assert caches["reference"].compiled_snapshot is None
    arity_swap = SwapModel(q=0.9, per_qubit=True)  # arity-sensitive
    for flow in result.plan.flows():
        probes = [None] + [{edge: 1} for edge in flow.edges()]
        if len(flow.edges()) >= 2:
            probes.append({edge: 2 for edge in flow.edges()[:2]})
        for extra in probes:
            for swap_model in (SWAP, arity_swap):
                rates = {}
                for core in ("reference", "compiled"):
                    with routing_core(core):
                        rates[core] = flow.entanglement_rate(
                            network, LINK, swap_model,
                            extra_widths=extra, rate_cache=caches[core],
                        )
                assert rates["reference"] == rates["compiled"]
                # The rate cache is an optimisation, never a semantic.
                with routing_core("compiled"):
                    assert flow.entanglement_rate(
                        network, LINK, swap_model, extra_widths=extra
                    ) == rates["compiled"]


def test_equation1_extra_widths_keys_validated():
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(2000.0, 0.0)))
    network.add_node(QuantumSwitch(2, Point(1000.0, 0.0), 10))
    network.add_edge(0, 2)
    network.add_edge(2, 1)
    flow = FlowLikeGraph(0, 0, 1)
    flow.add_path((0, 2, 1), width=1)
    arity_swap = SwapModel(q=0.9, per_qubit=True)
    for core in ("reference", "compiled"):
        with routing_core(core):

            def rate(extra):
                return flow.entanglement_rate(
                    network, LINK, arity_swap, extra_widths=extra
                )

            assert rate(None) == pytest.approx(0.1440)
            widened = rate({(0, 2): 1})
            assert widened == pytest.approx(0.20736)
            # A reversed key widens the channel, not just the arity.
            assert rate({(2, 0): 1}) == widened
            for bad in ({(5, 6): 1}, {(0, 1): 1}, {(0, 2): 0}, {(2, 0): -1}):
                with pytest.raises(RoutingError):
                    rate(bad)


#: Edge lengths for the synthetic Equation-1 flows: distinct link
#: probabilities under the length-based LinkModel (0.98 down to 0.55).
EDGE_LENGTHS = st.sampled_from((200.0, 1000.0, 2500.0, 6000.0))

#: Longer edges for the fan-outs (link probabilities 0.14 down to
#: 0.007): with up to 100 parallel branches, short edges would drive the
#: failure product below one ulp of 1.0 and every rate would round to
#: exactly 1.0, hiding any product-order drift.
FANOUT_EDGE_LENGTHS = st.sampled_from((20000.0, 30000.0, 40000.0, 50000.0))


def _draw_extras(data, flow):
    """A canonical ``extra_widths`` probe over a few of *flow*'s edges."""
    edges = flow.edges()
    chosen = data.draw(
        st.lists(st.sampled_from(edges), unique=True, max_size=4)
    )
    return {edge: data.draw(st.integers(1, 3)) for edge in chosen}


def _assert_equation1_differential(network, flow, extras):
    """The compiled walk, bare and through a rate cache carrying the
    compiled snapshot, equals the reference recursion bit for bit."""
    link = LinkModel()
    with routing_core("compiled"):
        cache = ChannelRateCache(network, link)
    assert cache.compiled_snapshot is snapshot_for(network, link)
    for swap_model in (SWAP, SwapModel(q=0.9, per_qubit=True)):
        with routing_core("reference"):
            expected = flow.entanglement_rate(
                network, link, swap_model, extra_widths=extras
            )
        with routing_core("compiled"):
            bare = flow.entanglement_rate(
                network, link, swap_model, extra_widths=extras
            )
            cached = flow.entanglement_rate(
                network, link, swap_model, extra_widths=extras,
                rate_cache=cache,
            )
        assert bare == expected
        assert cached == expected


@native_only
@pytest.mark.parametrize(
    "min_relays, max_relays",
    [(2, 15), (16, 31), (32, 100)],
    ids=["under-32-edges", "32-to-62-edges", "64-plus-edges"],
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equation1_differential_wide_fanout(min_relays, max_relays, data):
    relays = data.draw(st.integers(min_relays, max_relays))
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(0.0, 0.0)))
    flow = FlowLikeGraph(0, 0, 1)
    for relay in range(2, relays + 2):
        # A user relay terminates instead of fusing: its swap factor is 1.
        if data.draw(st.integers(0, 3)) == 0:
            network.add_node(QuantumUser(relay, Point(0.0, 0.0)))
        else:
            network.add_node(QuantumSwitch(relay, Point(0.0, 0.0), 10))
        network.add_edge(0, relay, data.draw(FANOUT_EDGE_LENGTHS))
        network.add_edge(relay, 1, data.draw(FANOUT_EDGE_LENGTHS))
        flow.add_path((0, relay, 1), width=data.draw(st.integers(1, 3)))
    assert len(flow.edges()) == 2 * relays
    _assert_equation1_differential(network, flow, _draw_extras(data, flow))


@native_only
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equation1_differential_reconvergent(data):
    switches = data.draw(st.integers(3, 24))
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(0.0, 0.0)))
    for node in range(2, switches + 2):
        network.add_node(QuantumSwitch(node, Point(0.0, 0.0), 50))
    relay_lists = data.draw(st.lists(
        st.lists(
            st.integers(2, switches + 1), min_size=1, max_size=8,
            unique=True,
        ),
        min_size=2, max_size=12,
    ))
    paths = [(0, *relays, 1) for relays in relay_lists]
    for path in paths:
        for u, v in zip(path, path[1:]):
            if not network.has_edge(u, v):
                network.add_edge(u, v, data.draw(EDGE_LENGTHS))
    flow = FlowLikeGraph(0, 0, 1)
    for path in paths:
        try:
            flow.add_path(path, width=data.draw(st.integers(1, 3)))
        except RoutingError:
            pass  # the merge would close a directed cycle
    _assert_equation1_differential(network, flow, _draw_extras(data, flow))


def test_fusion_arity_cache_tracks_mutations():
    flow = FlowLikeGraph(0, 0, 1)
    flow.add_path((0, 2, 3, 1), width=2)

    def brute_force(node):
        return sum(
            width
            for (a, b), width in flow.edge_widths().items()
            if node in (a, b)
        )

    assert all(flow.fusion_arity(n) == brute_force(n) for n in flow.nodes())
    flow.add_path((0, 4, 5, 1), width=1)
    assert all(flow.fusion_arity(n) == brute_force(n) for n in flow.nodes())
    flow.widen_edge(2, 3)
    assert flow.fusion_arity(2) == brute_force(2) == 5
    # Re-adding an existing path is a width upgrade and must invalidate.
    flow.add_path((0, 4, 5, 1), width=3)
    assert flow.fusion_arity(4) == brute_force(4) == 6
    assert flow.fusion_arity(99) == 0


# ----------------------------------------------------------------------
# Whole-router parity


# ----------------------------------------------------------------------
# remove_path / capacity release (the serving loop's departure path)


def _incident_width(flow, node):
    return sum(
        width
        for (a, b), width in flow.edge_widths().items()
        if node in (a, b)
    )


def test_remove_path_released_width_accounting():
    flow = FlowLikeGraph(0, 0, 1)
    flow.add_path((0, 2, 3, 1), width=2)
    flow.add_path((0, 4, 3, 1), width=1)
    flow.widen_edge(2, 3)  # an Alg-4 extra rides on the removed path
    before = flow.edge_widths()
    released = flow.remove_path((0, 2, 3, 1))
    after = flow.edge_widths()
    # Conservation: every edge's width is split between released and kept.
    for key, width in before.items():
        assert released.get(key, 0) + after.get(key, 0) == width
    # Edges only the removed path covered go entirely, extras included.
    assert released[(0, 2)] == 2
    assert released[(2, 3)] == 3
    assert (0, 2) not in after and (2, 3) not in after
    # The shared edge drops to the surviving path's width.
    assert released[(1, 3)] == 1 and after[(1, 3)] == 1
    assert flow.paths == [(0, 4, 3, 1)]
    # The arity cache tracks the removal exactly.
    for node in (0, 1, 2, 3, 4):
        assert flow.fusion_arity(node) == _incident_width(flow, node)
    from repro.exceptions import RoutingError

    with pytest.raises(RoutingError):
        flow.remove_path((0, 2, 3, 1))


def test_remove_path_matches_rebuilt_flow():
    # Removing a path must leave exactly the flow that would have been
    # built without it (no widen extras involved).
    flow = FlowLikeGraph(3, 0, 1)
    flow.add_path((0, 2, 1), width=3)
    flow.add_path((0, 4, 5, 1), width=2)
    flow.add_path((0, 2, 5, 1), width=1)
    flow.remove_path((0, 4, 5, 1))
    rebuilt = FlowLikeGraph(3, 0, 1)
    rebuilt.add_path((0, 2, 1), width=3)
    rebuilt.add_path((0, 2, 5, 1), width=1)
    assert flow.edge_widths() == rebuilt.edge_widths()
    assert flow.paths == rebuilt.paths


@pytest.mark.parametrize("scenario", SCENARIOS[:2])
def test_remove_path_rate_parity_across_cores(scenario):
    network, demands = _instance(scenario, SEEDS[0])
    with routing_core("compiled"):
        result = make_router("alg-n-fusion").route(network, demands, LINK, SWAP)
    flows = [f for f in result.plan.flows() if f.num_paths >= 2]
    assert flows, "parity sweep needs at least one multi-path flow"
    for flow in flows[:3]:
        probe = flow.copy()
        # Interleave departure-style removal with a widen in between.
        probe.remove_path(probe.paths[0])
        first_edge = probe.edges()[0]
        probe.widen_edge(*first_edge)
        rates = {}
        for core in ("reference", "compiled"):
            with routing_core(core):
                rates[core] = probe.entanglement_rate(network, LINK, SWAP)
        assert rates["reference"] == rates["compiled"]
        # Draining every path leaves a zero-rate, zero-edge flow.
        for path in probe.paths:
            probe.remove_path(path)
        assert probe.edge_widths() == {}
        assert probe.entanglement_rate(network, LINK, SWAP) == 0.0


def test_relay_feasibility_journal_parity():
    network, _ = _instance(SCENARIOS[0], SEEDS[0])
    cache = ChannelRateCache(network, LINK)
    snapshot = snapshot_for(network, LINK)
    ledger = QubitLedger(network)
    switches = network.switches()

    def expected(width):
        return [
            (not user) and ledger.has_at_least(nid, 2 * width)
            for user, nid in zip(snapshot.is_user, snapshot.node_ids)
        ]

    def flags(width):
        return list(snapshot.relay_state(ledger, width)[0])

    for width in (1, 2):
        assert flags(width) == expected(width)
    # Reserve/release sequences move the ledger's version: flags rebuild.
    rng = ensure_rng(SEEDS[0] + 1)
    for trial in range(40):
        node = switches[int(rng.integers(len(switches)))]
        free = int(ledger.remaining(node))
        if trial % 3 == 2 and free < 10:
            ledger.release(node, 1)
        elif free:
            ledger.reserve(node, min(2, free))
        for width in (1, 2):
            assert flags(width) == expected(width)
    # restore() moves the version too: derived flags must follow it.
    baseline = ledger.snapshot()
    ledger.reserve(switches[0], int(ledger.remaining(switches[0])))
    assert flags(1) == expected(1)
    ledger.restore(baseline)
    assert flags(1) == expected(1)
    # A long reserve/release run (the version far past any small
    # counter) still leaves flags equal to a fresh check.
    node = switches[0]
    for _ in range(1200):
        ledger.reserve(node, 1)
        ledger.release(node, 1)
    assert flags(1) == expected(1)
    assert flags(2) == expected(2)


def test_ledger_version_tracks_count_changes():
    """``QubitLedger.version`` moves exactly when a remaining count may
    have changed: never on a query, a zero count, an overdraft or a
    restore to the current state; ``copy()`` is independent."""
    network, _ = _instance(SCENARIOS[0], SEEDS[0])
    ledger = QubitLedger(network)
    switch, other = network.switches()[:2]
    user = network.users()[0]
    free = int(ledger.remaining(switch))
    version = ledger.version

    def unchanged():
        return ledger.version == version

    ledger.remaining(switch)
    ledger.has_at_least(switch, 1)
    ledger.can_reserve_edge(switch, other, 1)
    ledger.snapshot()
    ledger.total_free_switch_qubits()
    assert unchanged()
    ledger.reserve(switch, 0)
    ledger.release(switch, 0)
    ledger.reserve(user, 5)
    ledger.release(user, 5)
    assert unchanged()
    with pytest.raises(CapacityError):
        ledger.reserve(switch, free + 1)
    assert unchanged()
    ledger.restore(ledger.snapshot())
    assert unchanged()

    baseline = ledger.snapshot()
    ledger.reserve(switch, 2)
    assert ledger.version > version
    version = ledger.version
    ledger.release(switch, 1)
    assert ledger.version > version
    version = ledger.version
    ledger.restore(baseline)
    assert ledger.version > version
    assert ledger.remaining(switch) == free

    version = ledger.version
    clone = ledger.copy()
    clone.reserve(switch, 2)
    assert unchanged()
    assert ledger.remaining(switch) == free
    assert clone.remaining(switch) == free - 2


def _probed_relay_flags(snapshot, ledger, width):
    """Relay flags as a per-node ``has_at_least`` probe derives them."""
    return np.fromiter(
        (
            (not user) and ledger.has_at_least(nid, 2 * width)
            for user, nid in zip(snapshot.is_user, snapshot.node_ids)
        ),
        dtype=bool,
        count=snapshot.num_nodes,
    )


@settings(max_examples=60, deadline=None)
@given(
    capacities=st.lists(
        st.integers(min_value=0, max_value=9), min_size=1, max_size=8
    ),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.sampled_from(("reserve", "release", "restore", "query")),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=25,
    ),
)
def test_relay_counts_flags_match_per_node_probes(capacities, steps):
    """Flags derived from the per-version count vector, and their bytes,
    equal the per-node ``has_at_least`` derivation at every width, for
    two ledgers alternating on one snapshot through random reserve,
    release and restore sequences.  The network has two users, switches
    of the drawn capacities (zero included) and an unlimited switch."""
    network = QuantumNetwork()
    network.add_node(QuantumUser(0, Point(0.0, 0.0)))
    network.add_node(QuantumUser(1, Point(1.0, 0.0)))
    network.add_node(Node(2, NodeKind.SWITCH, Point(2.0, 0.0), None))
    for i, capacity in enumerate(capacities, start=3):
        network.add_node(Node(i, NodeKind.SWITCH, Point(float(i), 0.0), capacity))
    for i in range(1, network.num_nodes):
        network.add_edge(i - 1, i, 1000.0)
    snapshot = CompiledNetwork(network, LINK)
    ledgers = [QubitLedger(network), QubitLedger(network)]
    baselines = [ledger.snapshot() for ledger in ledgers]
    widths = range(1, max(capacities) // 2 + 2)
    nodes = network.nodes()

    def check():
        for ledger in ledgers:
            for width in widths:
                flags, key = snapshot.relay_state(ledger, width)
                expected = _probed_relay_flags(snapshot, ledger, width)
                assert flags.dtype == expected.dtype
                assert flags.tolist() == expected.tolist()
                assert key == expected.tobytes()

    check()
    for which, action, pick, count in steps:
        ledger = ledgers[which]
        node = nodes[pick % len(nodes)]
        if action == "reserve":
            ledger.reserve(node, min(count, ledger.remaining(node)))
        elif action == "release":
            capacity = network.qubit_capacity(node)
            if capacity is not None:
                ledger.release(
                    node, min(count, capacity - int(ledger.remaining(node)))
                )
        elif action == "restore":
            ledger.restore(baselines[which])
        check()
    assert snapshot.relay_state(ledgers[0], 1)[0][2]  # unlimited relays
    assert not snapshot.relay_state(ledgers[0], 1)[0][:2].any()  # users


@native_only
def test_session_bans_are_never_answered_stale():
    """Resolved bans are memoised per pair of frozenset objects: a
    session's edge going down and up again, a reversed edge key and a
    mutable set changed in place each get a fresh, correct answer (the
    reference core's selection under the same bans)."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    with routing_core("compiled"):
        session = ServeSession(
            network, LINK, SWAP, make_router("alg-n-fusion")
        )
    snapshot = session.rate_cache.compiled_snapshot
    assert snapshot is not None

    def select(demand, banned_edges):
        return select_paths(
            network, LINK, SWAP, demand, h=3, max_width=2,
            ledger=session.ledger, rate_cache=session.rate_cache,
            banned_nodes=session.down_switches, banned_edges=banned_edges,
        )

    def reference(demand, banned_edges):
        with routing_core("reference"):
            return select_paths(
                network, LINK, SWAP, demand, h=3, max_width=2,
                ledger=session.ledger, banned_nodes=session.down_switches,
                banned_edges=banned_edges,
            )

    checked = 0
    for demand in demands:
        before = select(demand, session.down_edges)
        if not before:
            continue
        nodes = before[max(before)][0].nodes
        edge = (min(nodes[:2]), max(nodes[:2]))
        assert session.mark_edge(edge, True)
        down = select(demand, session.down_edges)
        assert down == reference(demand, session.down_edges)
        assert down != before
        assert snapshot.resolve_bans(
            session.down_switches, session.down_edges
        )[1] == {snapshot.edge_index[edge]}
        assert session.mark_edge(edge, False)
        assert select(demand, session.down_edges) == before
        reversed_key = frozenset({(edge[1], edge[0])})
        assert select(demand, reversed_key) == down
        assert select(demand, session.down_edges) == before
        in_place = {edge}
        assert snapshot.resolve_bans((), in_place)[1] == {
            snapshot.edge_index[edge]
        }
        in_place.clear()
        assert snapshot.resolve_bans((), in_place)[1] == frozenset()
        checked += 1
    assert checked


@native_only
def test_routed_network_survives_a_pickle_round_trip():
    """A network routed on the compiled core pickles (its memoised
    snapshot drops the ledger-bound relay caches) and the copy routes to
    the same plan and the same rate bits."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    router = make_router("alg-n-fusion")
    with routing_core("compiled"):
        first = router.route(network, demands, LINK, SWAP)
        clone = pickle.loads(pickle.dumps(network))
        assert clone.__dict__["_compiled_snapshots"]
        again = router.route(clone, demands, LINK, SWAP)
    assert _plan_shape(again) == _plan_shape(first)
    assert {d: r.hex() for d, r in again.demand_rates.items()} == {
        d: r.hex() for d, r in first.demand_rates.items()
    }


@native_only
def test_batched_search_memo_follows_relay_flag_flips(kernel_calls):
    """The search memo keys on the relay flags' bytes: a reservation
    that flips no flag leaves a repeated sweep answered from the memo,
    and one that flips a flag on the found path searches afresh."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    snapshot = CompiledNetwork(network, LINK)
    ledger = QubitLedger(network)

    def searched():
        # Widths searched so far: one kernel call answers a batch.
        return sum(args[1] for entry, args in kernel_calls
                   if entry == "search")

    demand = demands[0]
    widths = (2, 1)

    def search_widths():
        return WidthSearchBatch(
            snapshot, SWAP, demand.source, demand.destination, widths, ledger
        ).search_widths()

    first = search_widths()
    assert first[1] is not None and len(first[1][0]) > 2
    assert searched() == len(widths)

    # One qubit off a switch with plenty left: no width's flag flips.
    relay = first[1][0][1]
    spare = next(
        s for s in network.switches()
        if s != relay and ledger.remaining(s) >= 2 * max(widths) + 1
    )
    ledger.reserve(spare, 1)
    assert search_widths() == first
    assert searched() == len(widths)

    # Draining a relay of the width-1 path flips its flag at every width.
    ledger.reserve(relay, int(ledger.remaining(relay)) - 1)
    again = search_widths()
    assert searched() > len(widths)
    with routing_core("reference"):
        for width in widths:
            assert again[width] == largest_entanglement_rate_path(
                network, LINK, SWAP, demand.source, demand.destination,
                width, ledger,
            )
    assert again[1] is None or relay not in again[1][0]


# ----------------------------------------------------------------------
# The compiled core's search entries (run_search, WidthSearchBatch)


@native_only
@pytest.mark.parametrize("scenario", SCENARIOS[:2])
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_search_matches_reference_per_width(scenario, seed):
    """``WidthSearchBatch.search_widths`` answers every width exactly as
    the reference core's per-width Algorithm 1 — including banned sets
    and a partially consumed ledger."""
    network, demands = _instance(scenario, seed)
    rng = ensure_rng(seed + 2)
    switches = network.switches()
    edges = network.edge_keys()
    ledger = QubitLedger(network)
    for node in switches[::3]:
        ledger.reserve(node, min(2, int(ledger.remaining(node))))
    snapshot = snapshot_for(network, LINK)
    widths = (1, 2, 3)
    for trial in range(8):
        demand = demands[trial % len(demands)]
        banned_nodes = frozenset(
            int(s) for s in rng.choice(switches, size=2, replace=False)
        )
        picked = rng.choice(len(edges), size=3, replace=False)
        banned_edges = frozenset(edges[int(i)] for i in picked)
        batched = WidthSearchBatch(
            snapshot, SWAP, demand.source, demand.destination, widths, ledger
        ).search_widths(*snapshot.resolve_bans(banned_nodes, banned_edges))
        assert set(batched) == set(widths)
        with routing_core("reference"):
            for width in widths:
                expected = largest_entanglement_rate_path(
                    network, LINK, SWAP, demand.source, demand.destination,
                    width, ledger, banned_nodes=banned_nodes,
                    banned_edges=banned_edges,
                )
                assert batched[width] == expected


@native_only
def test_batched_search_drained_ledger(diamond_network):
    ledger = QubitLedger(diamond_network)
    for node in (2, 3, 4, 5):
        ledger.reserve(node, 10)
    snapshot = snapshot_for(diamond_network, LINK)
    batched = WidthSearchBatch(
        snapshot, SWAP, 0, 1, (1, 2), ledger
    ).search_widths()
    assert batched == {1: None, 2: None}
    # A banned endpoint selects nothing, on either core.
    for core in ("reference", "compiled"):
        with routing_core(core):
            assert select_paths(
                diamond_network, LINK, SWAP, Demand(0, 0, 1), h=2,
                max_width=2, banned_nodes=frozenset({1}),
            ) == {}
            assert select_paths(
                diamond_network, LINK, SWAP, Demand(0, 0, 1), h=2,
                max_width=2,
            )


@native_only
def test_batch_matches_its_own_single_width_searches():
    network, demands = _instance(SCENARIOS[1], SEEDS[0])
    ledger = QubitLedger(network)
    snapshot = snapshot_for(network, LINK)
    demand = demands[0]
    batch = WidthSearchBatch(
        snapshot, SWAP, demand.source, demand.destination, (1, 2, 3), ledger
    )
    swept = batch.search_widths()
    for width in (1, 2, 3):
        assert swept[width] == snapshot.run_search(
            demand.source, demand.destination, width, batch.swap2, ledger
        )


def test_batch_rejects_invalid_construction():
    """The endpoints a search or a ``WidthSearchBatch`` is built from are
    checked at the two public entry points, on both cores: equal or
    unknown endpoints raise before any search."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    demand = demands[0]
    source, destination = demand.source, demand.destination
    unknown = max(network.nodes()) + 1
    for core in ("reference", "compiled"):
        with routing_core(core):
            with pytest.raises(RoutingError, match="must differ"):
                largest_entanglement_rate_path(
                    network, LINK, SWAP, source, source, 1
                )
            for bad in ((source, unknown), (unknown, destination)):
                with pytest.raises(RoutingError, match="must exist"):
                    largest_entanglement_rate_path(
                        network, LINK, SWAP, *bad, 1
                    )
                with pytest.raises(RoutingError, match="must exist"):
                    select_paths(
                        network, LINK, SWAP, Demand(0, *bad), h=2, max_width=2
                    )


def test_batch_search_rejects_width_outside_batch():
    """A width, ``h`` or ``max_width`` below 1 is an error at the two
    public entry points on both cores, raised before any search — not a
    silent ``None`` that leaves a stray rate column on the snapshot."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    demand = demands[0]
    source, destination = demand.source, demand.destination
    for core in ("reference", "compiled"):
        with routing_core(core):
            for width in (0, -1):
                with pytest.raises(RoutingError, match="width must be >= 1"):
                    largest_entanglement_rate_path(
                        network, LINK, SWAP, source, destination, width
                    )
                with pytest.raises(RoutingError, match="max_width must be"):
                    select_paths(
                        network, LINK, SWAP, demand, h=2, max_width=width
                    )
                with pytest.raises(RoutingError, match="h must be >= 1"):
                    select_paths(
                        network, LINK, SWAP, demand, h=width, max_width=2
                    )
            assert largest_entanglement_rate_path(
                network, LINK, SWAP, source, destination, 1
            ) is not None
    assert sorted(snapshot_for(network, LINK).width_lists) == [1]


def test_compiled_entry_points_need_the_native_kernel(
    diamond_network, monkeypatch
):
    """Called directly without a loaded kernel, every compiled-core
    entry point raises a ``RoutingError`` that names the kernel (the
    routing entry points take the reference core instead)."""
    snapshot = CompiledNetwork(diamond_network, LINK)
    ledger = QubitLedger(diamond_network)
    demand = Demand(0, 0, 1)
    monkeypatch.setattr(_native, "KERNEL", None)
    calls = (
        lambda: WidthSearchBatch(
            snapshot, SWAP, 0, 1, (1, 2), ledger
        ).search_widths(),
        lambda: compiled_select_paths(
            snapshot, SWAP, demand, 3, 2, ledger, frozenset(), frozenset()
        ),
        lambda: snapshot.run_search(0, 1, 1, 0.9, ledger),
    )
    for call in calls:
        with pytest.raises(RoutingError, match="native search kernel"):
            call()


# ----------------------------------------------------------------------
# Native kernel vs the reference core (its oracle and fallback)


@native_only
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", SEEDS)
def test_fused_frontier_matches_per_width_standalone(scenario, seed):
    """A batch sweep on the native kernel answers exactly like
    per-width standalone searches on the reference core — across
    topologies, seeds, banned node/edge sets and a partially consumed
    ledger.  A fresh snapshot keeps an earlier test's search memo from
    masking a kernel divergence."""
    network, demands = _instance(scenario, seed)
    rng = ensure_rng(seed + 5)
    switches = network.switches()
    edges = network.edge_keys()
    ledger = QubitLedger(network)
    for node in switches[::4]:
        ledger.reserve(node, min(2, int(ledger.remaining(node))))
    default_snapshot = CompiledNetwork(network, LINK)
    with routing_core("reference"):
        cache = ChannelRateCache(network, LINK)
    assert cache.compiled_snapshot is None
    widths = (1, 2, 3, 5)
    for trial in range(6):
        demand = demands[trial % len(demands)]
        banned_nodes = frozenset(
            int(s) for s in rng.choice(switches, size=2, replace=False)
        )
        picked = rng.choice(len(edges), size=3, replace=False)
        banned_edges = frozenset(edges[int(i)] for i in picked)
        swept = WidthSearchBatch(
            default_snapshot, SWAP, demand.source, demand.destination,
            widths, ledger,
        ).search_widths(
            *default_snapshot.resolve_bans(banned_nodes, banned_edges)
        )
        standalone = {
            width: largest_entanglement_rate_path(
                network, LINK, SWAP, demand.source, demand.destination,
                width, ledger, banned_nodes=banned_nodes,
                banned_edges=banned_edges, rate_cache=cache,
            )
            for width in widths
        }
        assert swept == standalone


def test_native_kernel_active_with_compiler(diamond_network, monkeypatch):
    """With a C compiler on PATH the native kernel must load and a
    routing call must get a compiled snapshot: a silent fallback to the
    reference core would otherwise keep the whole suite green.  Without
    the kernel, routing runs on the reference core and compiles no
    snapshot."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the reference core is expected")
    monkeypatch.delenv(ROUTING_CORE_ENV, raising=False)
    assert native_kernel_active()
    assert active_routing_core() == "compiled"
    cache = ChannelRateCache(diamond_network, LINK)
    assert cache.compiled_snapshot is not None
    monkeypatch.setattr(_native, "KERNEL", None)
    assert not native_kernel_active()
    assert active_routing_core() == "reference"
    network, demands = load_instance(REGRESSION_INSTANCE)
    assert ChannelRateCache(network, LINK).compiled_snapshot is None
    result = make_router("alg-n-fusion").route(network, demands, LINK, SWAP)
    assert result.total_rate > 0
    assert "_compiled_snapshots" not in network.__dict__


@native_only
def test_fused_frontier_drained_relays(diamond_network):
    """Feasible endpoints but drained relay switches: the kernel itself
    (not the endpoint short-circuit) must report no path for every
    width of the batch."""
    ledger = QubitLedger(diamond_network)
    for node in (2, 3, 4, 5):
        ledger.reserve(node, int(ledger.remaining(node)))
    snapshot = CompiledNetwork(diamond_network, LINK)
    batch = WidthSearchBatch(
        snapshot, SWAP, 0, 1, (1, 2, 3), ledger
    )
    assert batch.search_widths() == {1: None, 2: None, 3: None}


@native_only
def test_generator_bans_match_frozensets():
    """Banned sets passed to ``run_search`` as generators are read
    exactly once: it answers as with frozensets (a membership test must
    not consume part of the generator)."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    snapshot = CompiledNetwork(network, LINK)
    ledger = QubitLedger(network)
    swap2 = SWAP.fusion_success(2)
    edges = network.edge_keys()
    checked = 0
    for demand in demands:

        def search(*bans):
            return snapshot.run_search(
                demand.source, demand.destination, 1, swap2, ledger, *bans
            )

        first = search()
        if first is None or len(first[0]) < 4:
            continue
        nodes = frozenset(first[0][1:3])
        banned_edges = frozenset(edges[:5])
        assert search(
            (n for n in nodes), (e for e in banned_edges)
        ) == search(nodes, banned_edges)
        # Banning a relay of the best path must change the answer, so
        # the comparison above is not vacuous.
        assert search(iter(nodes)) != first
        checked += 1
    assert checked


@native_only
def test_snapshot_copy_owns_its_native_buffers():
    """A deep copy of a used snapshot must not reuse the original's
    native scratch: it answers correctly after the original is gone."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    demand = demands[0]
    snapshot = CompiledNetwork(network, LINK)
    ledger = QubitLedger(network)
    expected = WidthSearchBatch(
        snapshot, SWAP, demand.source, demand.destination, (1, 2), ledger
    ).search_widths()
    clone = copy.deepcopy(snapshot)
    assert clone._kernel_context is None
    del snapshot
    gc.collect()
    clone._search_memo.clear()
    assert WidthSearchBatch(
        clone, SWAP, demand.source, demand.destination, (1, 2), ledger
    ).search_widths() == expected


@native_only
def test_snapshot_memory_per_ban_set_stays_small():
    """Each distinct banned-edge set costs a search-memo entry and
    nothing the size of the network: growth per query stays well under
    one CSR row of float64 rates."""
    network, demands = _instance("waxman:switches=120,users=6,states=6", 7)
    demand = demands[0]
    snapshot = CompiledNetwork(network, LinkModel())
    ledger = QubitLedger(network)
    swap2 = SWAP.fusion_success(2)

    def search(banned_edges):
        return snapshot.run_search(
            demand.source, demand.destination, 1, swap2, ledger,
            banned_edges=banned_edges,
        )

    edges = network.edge_keys()
    search((edges[0], edges[-1]))
    queries = 300
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(queries):
            search((edges[i], edges[i + 1]))
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    nnz = snapshot.adj_nodes.size
    assert nnz > 1000
    assert growth / queries < nnz * 2


@pytest.mark.parametrize("key", sorted(router_keys()))
def test_fallback_kernel_plans_match_native(key, monkeypatch):
    """With the native kernel unavailable, routing falls back to the
    reference core, and every router produces the same plan on the
    regression fixture as with the kernel."""
    results = {}
    for native in (True, False):
        with monkeypatch.context() as patch:
            if not native:
                patch.setattr(_native, "KERNEL", None)
            # A fresh copy per side: snapshots (and their search memos)
            # persist on the network object.
            fresh, fresh_demands = load_instance(REGRESSION_INSTANCE)
            results[native] = make_router(key).route(
                fresh, fresh_demands, LINK, SWAP
            )
            if not native:
                assert "_compiled_snapshots" not in fresh.__dict__
    native, fallback = results[True], results[False]
    assert native.total_rate == fallback.total_rate
    assert native.demand_rates == fallback.demand_rates
    assert _plan_shape(native) == _plan_shape(fallback)
    assert native.remaining_qubits == fallback.remaining_qubits


def test_fallback_kernel_plans_match_native_with_session_bans(monkeypatch):
    """Session bans reach every spur search of the native Yen loop as
    they reach the reference core's: serving-style one-demand
    ``route`` calls under banned nodes and edges, sharing one ledger and one rate
    cache, admit the same plans with the native kernel as without it
    (on the reference core)."""
    scenario, seed = SCENARIOS[0], SEEDS[0]
    network, _ = _instance(scenario, seed)
    banned_edges = frozenset(network.edge_keys()[::6])
    banned_nodes = frozenset(network.switches()[::9])
    router = make_router("alg-n-fusion")

    def serve(bans):
        # A fresh network per run: snapshots and their memos persist on it.
        fresh, demands = _instance(scenario, seed)
        ledger = QubitLedger(fresh)
        cache = ChannelRateCache(fresh, LINK)
        plans = []
        for demand in demands:
            result = router.route(
                fresh, DemandSet([demand]), LINK, SWAP, ledger=ledger,
                rate_cache=cache,
                banned_nodes=bans[0], banned_edges=bans[1],
            )
            plans.append((result.demand_rates, _plan_shape(result)))
        return plans, ledger.snapshot()

    with monkeypatch.context() as patch:
        patch.setattr(_native, "KERNEL", None)
        fallback = serve((banned_nodes, banned_edges))
    native = serve((banned_nodes, banned_edges))
    assert native == fallback
    # The bans change the plans, so the comparison is not vacuous.
    assert native != serve((frozenset(), frozenset()))


def test_large_h_exhausts_paths_with_bounded_native_memory(monkeypatch):
    """``h`` far above the number of simple paths: the Yen loop stops
    when it runs out of candidates, the native route admits exactly the
    reference core's plan (the no-kernel fallback), and the native
    workspace holds memory for the paths found, not for ``h`` (under
    one byte per unit of ``h``)."""
    h = 1_000_000
    spec = parse_router_specs(f"alg-n-fusion:h={h}")[0]
    results = {}
    for native in (True, False):
        with monkeypatch.context() as patch:
            if not native:
                patch.setattr(_native, "KERNEL", None)
            network, demands = _instance("grid:switches=9,users=4,states=2", 3)
            results[native] = spec.build().route(network, demands, LINK, SWAP)
            selected = select_paths(network, LINK, SWAP, demands[0], h=h)
            assert 3 < max(len(paths) for paths in selected.values()) < h
            if native and active_routing_core() == "compiled":
                context = snapshot_for(network, LINK)._kernel_context
                assert 0 < context.output.held < h
    native, fallback = results[True], results[False]
    assert native.total_rate == fallback.total_rate
    assert native.demand_rates == fallback.demand_rates
    assert _plan_shape(native) == _plan_shape(fallback)
    assert native.remaining_qubits == fallback.remaining_qubits


# ----------------------------------------------------------------------
# Persistent snapshots (topology_version keyed)


@native_only
def test_routed_network_is_freed_without_the_cyclic_collector():
    """The snapshot a network memoises holds relay-flag ledgers weakly,
    so a routed network, its snapshot and the snapshot's memo are freed
    when the last reference goes, not at the next full collection."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    with routing_core("compiled"):
        make_router("alg-n-fusion").route(network, demands, LINK, SWAP)
    assert network.__dict__["_compiled_snapshots"]
    alive = weakref.ref(network)
    gc.disable()
    try:
        del network, demands
        assert alive() is None
    finally:
        gc.enable()


@native_only
def test_search_and_snapshot_memos_stay_bounded(monkeypatch):
    """Both compiled-core memos are wholesale-cleared at their limit:
    the search memo never outgrows ``_SEARCH_MEMO_LIMIT`` (answers stay
    those of a fresh snapshot), and a network never holds more than
    ``_SNAPSHOT_MEMO_LIMIT`` snapshots."""
    monkeypatch.setattr(compiled_core, "_SEARCH_MEMO_LIMIT", 4)
    network, _ = _instance(SCENARIOS[0], SEEDS[0])
    snapshot = CompiledNetwork(network, LINK)
    ledger = QubitLedger(network)
    users = network.users()
    queries = [
        (source, destination, width)
        for i, source in enumerate(users)
        for destination in users[i + 1:]
        for width in (1, 2)
    ]
    assert len(queries) >= 10
    for source, destination, width in queries:
        found = snapshot.run_search(source, destination, width, 0.9, ledger)
        assert len(snapshot._search_memo) <= 4
        assert found == CompiledNetwork(network, LINK).run_search(
            source, destination, width, 0.9, ledger
        )

    sizes = []
    for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        snapshot_for(network, LinkModel(fixed_p=p))
        sizes.append(len(network._compiled_snapshots))
    assert max(sizes) == compiled_core._SNAPSHOT_MEMO_LIMIT == 4


def test_persistent_snapshot_survives_calls_and_tracks_mutations():
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    first = snapshot_for(network, LINK)
    # Reused across calls and across rate caches: the snapshot lives on
    # the network keyed by (link model, topology_version).
    assert snapshot_for(network, LINK) is first
    assert snapshot_for(network, LINK) is first
    # A different link model gets its own snapshot.
    assert snapshot_for(network, LinkModel(fixed_p=0.9)) is not first

    with routing_core("compiled"):
        router = make_router("alg-n-fusion")
        before = router.route(network, demands, LINK, SWAP)
        again = router.route(network, demands, LINK, SWAP)
    # Warm calls (memoised snapshot + search memo) stay bit-identical.
    assert again.total_rate == before.total_rate
    assert again.demand_rates == before.demand_rates
    assert _plan_shape(again) == _plan_shape(before)

    # A structural mutation bumps topology_version and invalidates.
    u, v = network.edge_keys()[0]
    length = network.edge(u, v).length
    version = network.topology_version
    network.remove_edge(u, v)
    assert network.topology_version == version + 1
    assert snapshot_for(network, LINK) is not first
    results = {}
    for core in ("reference", "compiled"):
        with routing_core(core):
            results[core] = make_router("alg-n-fusion").route(
                network, demands, LINK, SWAP
            )
    assert results["reference"].demand_rates == results["compiled"].demand_rates
    assert _plan_shape(results["reference"]) == _plan_shape(results["compiled"])

    # Restoring the edge restores the original answers bit-for-bit
    # (through a fresh snapshot — versions never roll back).
    network.add_edge(u, v, length)
    with routing_core("compiled"):
        restored = make_router("alg-n-fusion").route(network, demands, LINK, SWAP)
    assert restored.total_rate == before.total_rate
    assert restored.demand_rates == before.demand_rates
    assert _plan_shape(restored) == _plan_shape(before)


# ----------------------------------------------------------------------
# Cycle check and walk order (spliced order, else one DFS per merge)


def _directed_edges(paths):
    return {(a, b) for nodes in paths for a, b in zip(nodes, nodes[1:])}


def _oracle_has_cycle(edges):
    """Exact three-colour DFS over a set of directed edges."""
    children = {}
    for a, b in edges:
        children.setdefault(a, set()).add(b)
    state = {}
    for root in list(children):
        if state.get(root):
            continue
        stack = [(root, iter(sorted(children.get(root, ()))))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                mark = state.get(child)
                if mark == 1:
                    return True
                if mark is None:
                    state[child] = 1
                    stack.append((child, iter(sorted(children.get(child, ())))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
    return False


def _assert_topological(flow):
    """The memoised walk order covers the flow and every edge points
    forward in it."""
    order = flow._topological_order()
    assert sorted(order) == flow.nodes()
    position = {node: i for i, node in enumerate(order)}
    for a, b in _directed_edges(flow.paths):
        assert position[a] < position[b]


def test_cycle_check_randomised_against_dfs_oracle():
    """Mixed add/remove/widen/upgrade sequences: add_path accepts exactly
    the merges a from-scratch DFS accepts, and the walk order stays a
    topological order of the live graph."""
    rng = ensure_rng(1234)
    flow = FlowLikeGraph(0, 0, 1)
    intermediates = list(range(2, 10))
    accepted = 0
    rejected = 0
    for trial in range(300):
        action = int(rng.integers(10))
        if action < 6 or not flow.paths:
            size = int(rng.integers(1, 4))
            middle = [
                int(n)
                for n in rng.choice(intermediates, size=size, replace=False)
            ]
            candidate = tuple([0] + middle + [1])
            should_cycle = _oracle_has_cycle(
                _directed_edges(flow.paths) | _directed_edges([candidate])
            )
            if should_cycle:
                with pytest.raises(RoutingError, match="directed cycle"):
                    flow.add_path(candidate, width=1 + trial % 3)
                rejected += 1
                # A rejected merge must leave the graph untouched.
                assert candidate not in flow.paths
            else:
                flow.add_path(candidate, width=1 + trial % 3)
                accepted += 1
        elif action < 8:
            victim = flow.paths[int(rng.integers(len(flow.paths)))]
            flow.remove_path(victim)
        elif flow.edge_widths():
            keys = sorted(flow.edge_widths())
            edge = keys[int(rng.integers(len(keys)))]
            flow.widen_edge(*edge)
        # Invariants after every operation: the live graph is acyclic,
        # the walk order is topological and the arity memo matches a
        # full rescan.
        assert not _oracle_has_cycle(_directed_edges(flow.paths))
        _assert_topological(flow)
        for node in flow.nodes():
            assert flow.fusion_arity(node) == _incident_width(flow, node)
    assert accepted >= 30 and rejected >= 30


def test_cycle_check_exact_after_repeated_splices():
    """Forty nodes spliced in turn between the source and the same node,
    then a backwards and a forwards merge: acceptance and rejection stay
    exact."""
    flow = FlowLikeGraph(0, 0, 1)
    flow.add_path((0, 2, 1), width=1)
    # Repeatedly splice a new node between the source and node 2.
    chain = [0, 2]
    for fresh in range(100, 140):
        chain.insert(1, fresh)
        flow.add_path(tuple(chain + [1]), width=1)
        assert not _oracle_has_cycle(_directed_edges(flow.paths))
        _assert_topological(flow)
    # Ordering semantics must be intact: a backwards edge is still
    # rejected, a forwards one accepted.
    flow.add_path((0, 2, 3, 1), width=1)
    with pytest.raises(RoutingError, match="directed cycle"):
        flow.add_path((0, 3, 2, 1), width=1)
    flow.add_path((0, 100, 3, 1), width=2)
    assert not _oracle_has_cycle(_directed_edges(flow.paths))
    _assert_topological(flow)


# ----------------------------------------------------------------------
# Whole-router parity


@pytest.mark.parametrize("key", sorted(router_keys()))
def test_router_parity_across_cores(key):
    network, demands = _instance(SCENARIOS[0], SEEDS[1])
    results = {}
    for core in ("reference", "compiled"):
        with routing_core(core):
            results[core] = make_router(key).route(
                network, demands, LINK, SWAP
            )
    reference, compiled = results["reference"], results["compiled"]
    assert reference.total_rate == compiled.total_rate
    assert reference.demand_rates == compiled.demand_rates
    assert _plan_shape(reference) == _plan_shape(compiled)
    assert reference.remaining_qubits == compiled.remaining_qubits
