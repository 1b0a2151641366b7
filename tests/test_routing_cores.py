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
import shutil

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.scenarios import parse_scenario
from repro.network import CompiledNetwork, compile_network
from repro.network.builder import build_network
from repro.network.demands import Demand, generate_demands
from repro.network.serialization import load_instance
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg1_largest_rate import largest_entanglement_rate_path
from repro.routing.alg2_path_selection import default_max_width, select_paths
from repro.routing.allocation import QubitLedger
from repro.routing import _native
from repro.routing.compiled import (
    FUSED_WIDTH_MIN_DEFAULT,
    FUSED_WIDTH_MIN_ENV,
    ROUTING_CORE_ENV,
    WidthSearchBatch,
    active_routing_core,
    fused_width_min,
    native_kernel_active,
    search_widths,
    snapshot_for,
)
from repro.exceptions import RoutingError
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache
from repro.routing.registry import make_router, router_keys
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


def test_default_core_is_compiled(monkeypatch):
    monkeypatch.delenv(ROUTING_CORE_ENV, raising=False)
    assert active_routing_core() == "compiled"


def test_invalid_core_rejected(monkeypatch):
    monkeypatch.setenv(ROUTING_CORE_ENV, "vectorised")
    with pytest.raises(ConfigurationError, match="REPRO_ROUTING_CORE"):
        active_routing_core()


def test_core_env_read_per_call(monkeypatch):
    monkeypatch.setenv(ROUTING_CORE_ENV, "reference")
    assert active_routing_core() == "reference"
    monkeypatch.setenv(ROUTING_CORE_ENV, "compiled")
    assert active_routing_core() == "compiled"


# ----------------------------------------------------------------------
# Snapshot layer


def test_snapshot_matches_reference_rates():
    network, _ = _instance(SCENARIOS[0], SEEDS[0])
    link = LinkModel()  # length-based probabilities, the realistic case
    snapshot = compile_network(network, link)
    cache = ChannelRateCache(network, link)
    for width in (1, 2, 5):
        column = snapshot.width_rates(width)
        for (u, v), eid in snapshot.edge_index.items():
            assert column[eid] == cache.rate(u, v, width)
    assert snapshot.num_nodes == network.num_nodes
    assert snapshot.num_edges == network.num_edges


def test_snapshot_shared_through_rate_cache():
    network, _ = _instance(SCENARIOS[0], SEEDS[0])
    cache = ChannelRateCache(network, LINK)
    first = snapshot_for(network, LINK, cache)
    assert isinstance(first, CompiledNetwork)
    assert snapshot_for(network, LINK, cache) is first
    # A cache bound to a different link model must not leak its snapshot.
    assert snapshot_for(network, LinkModel(fixed_p=0.9), cache) is not first


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
    cache = ChannelRateCache(network, LINK)
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
                            extra_widths=extra, rate_cache=cache,
                        )
                assert rates["reference"] == rates["compiled"]
                # The rate cache is an optimisation, never a semantic.
                with routing_core("compiled"):
                    assert flow.entanglement_rate(
                        network, LINK, swap_model, extra_widths=extra
                    ) == rates["compiled"]


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
    snapshot = snapshot_for(network, LINK, cache)
    ledger = QubitLedger(network)
    switches = network.switches()

    def expected(width):
        return [
            (not user) and ledger.has_at_least(nid, 2 * width)
            for user, nid in zip(snapshot.is_user, snapshot.node_ids)
        ]

    for width in (1, 2):
        assert list(snapshot.relay_feasible(ledger, width)) == expected(width)
    # Incremental reserve/release sequences patch flags via the journal.
    rng = ensure_rng(SEEDS[0] + 1)
    for trial in range(40):
        node = switches[int(rng.integers(len(switches)))]
        free = int(ledger.remaining(node))
        if trial % 3 == 2 and free < 10:
            ledger.release(node, 1)
        elif free:
            ledger.reserve(node, min(2, free))
        for width in (1, 2):
            assert list(snapshot.relay_feasible(ledger, width)) == expected(width)
    # restore() bumps the epoch: derived flags must follow wholesale.
    baseline = ledger.snapshot()
    ledger.reserve(switches[0], int(ledger.remaining(switches[0])))
    assert list(snapshot.relay_feasible(ledger, 1)) == expected(1)
    ledger.restore(baseline)
    assert list(snapshot.relay_feasible(ledger, 1)) == expected(1)
    # Journal compaction (epoch bump mid-stream) keeps patching exact.
    node = switches[0]
    for _ in range(1200):
        ledger.reserve(node, 1)
        ledger.release(node, 1)
    assert list(snapshot.relay_feasible(ledger, 1)) == expected(1)
    assert list(snapshot.relay_feasible(ledger, 2)) == expected(2)


# ----------------------------------------------------------------------
# Batched width search (the kernel-facing API)


@pytest.mark.parametrize("scenario", SCENARIOS[:2])
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_search_matches_reference_per_width(scenario, seed):
    """``search_widths`` answers every width exactly as the reference
    core's per-width Algorithm 1 — including banned sets and a partially
    consumed ledger."""
    network, demands = _instance(scenario, seed)
    rng = ensure_rng(seed + 2)
    switches = network.switches()
    edges = network.edge_keys()
    ledger = QubitLedger(network)
    for node in switches[::3]:
        ledger.reserve(node, min(2, int(ledger.remaining(node))))
    snapshot = snapshot_for(network, LINK, None)
    widths = (1, 2, 3)
    for trial in range(8):
        demand = demands[trial % len(demands)]
        banned_nodes = frozenset(
            int(s) for s in rng.choice(switches, size=2, replace=False)
        )
        picked = rng.choice(len(edges), size=3, replace=False)
        banned_edges = frozenset(edges[int(i)] for i in picked)
        batched = search_widths(
            snapshot, SWAP, demand, widths, ledger=ledger,
            banned_nodes=banned_nodes, banned_edges=banned_edges,
        )
        assert set(batched) == set(widths)
        with routing_core("reference"):
            for width in widths:
                expected = largest_entanglement_rate_path(
                    network, LINK, SWAP, demand.source, demand.destination,
                    width, ledger, banned_nodes=banned_nodes,
                    banned_edges=banned_edges,
                )
                assert batched[width] == expected


def test_batched_search_drained_ledger(diamond_network):
    ledger = QubitLedger(diamond_network)
    for node in (2, 3, 4, 5):
        ledger.reserve(node, 10)
    snapshot = snapshot_for(diamond_network, LINK, None)
    batched = search_widths(
        snapshot, SWAP, Demand(0, 0, 1), (1, 2), ledger=ledger
    )
    assert batched == {1: None, 2: None}
    # Banned endpoints short-circuit per width, like the reference core.
    fresh = QubitLedger(diamond_network)
    assert search_widths(
        snapshot, SWAP, Demand(0, 0, 1), (1,), ledger=fresh,
        banned_nodes=frozenset({1}),
    ) == {1: None}


def test_batch_matches_its_own_single_width_searches():
    network, demands = _instance(SCENARIOS[1], SEEDS[0])
    ledger = QubitLedger(network)
    snapshot = snapshot_for(network, LINK, None)
    demand = demands[0]
    batch = WidthSearchBatch(
        snapshot, SWAP, demand.source, demand.destination, (1, 2, 3), ledger
    )
    swept = batch.search_widths()
    for width in (1, 2, 3):
        assert swept[width] == batch.search(width)


def test_batch_rejects_invalid_construction(diamond_network):
    snapshot = snapshot_for(diamond_network, LINK, None)
    with pytest.raises(RoutingError, match="must differ"):
        WidthSearchBatch(snapshot, SWAP, 0, 0, (1,))
    with pytest.raises(RoutingError, match="must exist"):
        WidthSearchBatch(snapshot, SWAP, 0, 99, (1,))
    with pytest.raises(RoutingError, match="width"):
        WidthSearchBatch(snapshot, SWAP, 0, 1, (1, 0))


# ----------------------------------------------------------------------
# Native relax loop vs the Python kernel (its oracle and fallback)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", SEEDS)
def test_fused_frontier_matches_per_width_standalone(
    scenario, seed, monkeypatch
):
    """A batch sweep on the default kernel answers exactly like
    per-width standalone searches on the Python fallback kernel —
    across topologies, seeds, banned node/edge sets and a partially
    consumed ledger.  Fresh snapshots on each side keep the search memo
    from masking a kernel divergence."""
    network, demands = _instance(scenario, seed)
    rng = ensure_rng(seed + 5)
    switches = network.switches()
    edges = network.edge_keys()
    ledger = QubitLedger(network)
    for node in switches[::4]:
        ledger.reserve(node, min(2, int(ledger.remaining(node))))
    default_snapshot = compile_network(network, LINK)
    fallback_snapshot = compile_network(network, LINK)
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
            banned_nodes=banned_nodes, banned_edges=banned_edges
        )
        with monkeypatch.context() as patch:
            patch.setattr(_native, "KERNEL", None)
            batch = WidthSearchBatch(
                fallback_snapshot, SWAP, demand.source, demand.destination,
                widths, ledger,
            )
            standalone = {
                width: batch.search(width, None, banned_nodes, banned_edges)
                for width in widths
            }
        assert swept == standalone


def test_native_kernel_active_with_compiler(diamond_network, monkeypatch):
    """With a C compiler on PATH the native kernel must load, and every
    search must run through it: a silent fallback would otherwise keep
    the whole suite green."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler: the Python fallback is expected")
    assert native_kernel_active()

    def fail(*args):
        raise AssertionError("the Python fallback kernel ran")

    monkeypatch.setattr(CompiledNetwork, "_kernel", fail)
    batch = WidthSearchBatch(
        compile_network(diamond_network, LINK), SWAP, 0, 1, (1, 2), None
    )
    swept = batch.search_widths()
    assert swept[1] is not None and swept[2] is not None
    monkeypatch.setattr(_native, "KERNEL", None)
    assert not native_kernel_active()


def test_fused_frontier_drained_relays(diamond_network):
    """Feasible endpoints but drained relay switches: the kernel itself
    (not the endpoint short-circuit) must report no path for every
    width of the batch."""
    ledger = QubitLedger(diamond_network)
    for node in (2, 3, 4, 5):
        ledger.reserve(node, int(ledger.remaining(node)))
    snapshot = compile_network(diamond_network, LINK)
    batch = WidthSearchBatch(
        snapshot, SWAP, 0, 1, (1, 2, 3), ledger
    )
    assert batch.search_widths() == {1: None, 2: None, 3: None}


def test_generator_bans_match_frozensets():
    """Banned sets passed as generators are read exactly once: the
    batch, sweep and snapshot entry points answer as with frozensets
    (a membership test must not consume part of the generator)."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    snapshot = compile_network(network, LINK)
    edges = network.edge_keys()
    checked = 0
    for demand in demands:
        batch = WidthSearchBatch(
            snapshot, SWAP, demand.source, demand.destination, (1, 2), None
        )
        first = batch.search(1)
        if first is None or len(first[0]) < 4:
            continue
        nodes = frozenset(first[0][1:3])
        banned_edges = frozenset(edges[:5])
        assert batch.search(
            1, None, iter(nodes), iter(banned_edges)
        ) == batch.search(1, None, nodes, banned_edges)
        assert batch.search_widths(
            None, (n for n in nodes), (e for e in banned_edges)
        ) == batch.search_widths(None, nodes, banned_edges)
        assert snapshot.run_search(
            demand.source, demand.destination, 1, batch.swap2, None,
            iter(nodes), iter(banned_edges),
        ) == snapshot.run_search(
            demand.source, demand.destination, 1, batch.swap2, None,
            nodes, banned_edges,
        )
        # Banning a relay of the best path must change the answer, so
        # the comparison above is not vacuous.
        assert batch.search(1, None, iter(nodes)) != first
        checked += 1
    assert checked


def test_snapshot_copy_owns_its_native_buffers():
    """A deep copy of a used snapshot must not reuse the original's
    native scratch or masked-row addresses: it answers correctly after
    the original is gone."""
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    demand = demands[0]
    snapshot = compile_network(network, LINK)
    expected = WidthSearchBatch(
        snapshot, SWAP, demand.source, demand.destination, (1, 2), None
    ).search_widths()
    clone = copy.deepcopy(snapshot)
    assert clone._native_scratch is None and not clone._masked_row_cache
    del snapshot
    gc.collect()
    clone._search_memo.clear()
    assert WidthSearchBatch(
        clone, SWAP, demand.source, demand.destination, (1, 2), None
    ).search_widths() == expected


@pytest.mark.parametrize("key", sorted(router_keys()))
def test_fallback_kernel_plans_match_native(key, monkeypatch):
    """With the native kernel unavailable, every router produces the
    same plan on the regression fixture as with it."""
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
    native, fallback = results[True], results[False]
    assert native.total_rate == fallback.total_rate
    assert native.demand_rates == fallback.demand_rates
    assert _plan_shape(native) == _plan_shape(fallback)
    assert native.remaining_qubits == fallback.remaining_qubits


def test_fused_width_min_knob(monkeypatch):
    monkeypatch.delenv(FUSED_WIDTH_MIN_ENV, raising=False)
    assert fused_width_min() == FUSED_WIDTH_MIN_DEFAULT
    monkeypatch.setenv(FUSED_WIDTH_MIN_ENV, "5")
    assert fused_width_min() == 5
    for bad in ("abc", "1", "0", "-3", "2.5"):
        monkeypatch.setenv(FUSED_WIDTH_MIN_ENV, bad)
        with pytest.raises(ConfigurationError, match=FUSED_WIDTH_MIN_ENV):
            fused_width_min()


# ----------------------------------------------------------------------
# Persistent snapshots (topology_version keyed)


def test_persistent_snapshot_survives_calls_and_tracks_mutations():
    network, demands = _instance(SCENARIOS[0], SEEDS[0])
    first = snapshot_for(network, LINK, None)
    # Reused across calls and across rate caches: the snapshot lives on
    # the network keyed by (link model, topology_version).
    assert snapshot_for(network, LINK, None) is first
    assert snapshot_for(network, LINK, ChannelRateCache(network, LINK)) is first
    # A different link model gets its own snapshot.
    assert snapshot_for(network, LinkModel(fixed_p=0.9), None) is not first

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
    assert snapshot_for(network, LINK, None) is not first
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
# Incremental cycle check (position-map fast path + DFS fallback)


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


def test_cycle_check_randomised_against_dfs_oracle():
    """Mixed add/remove/widen/upgrade sequences: the incremental check
    accepts exactly the merges a from-scratch DFS accepts."""
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
        # Invariants after every operation: the live graph is acyclic
        # and the arity memo matches a full rescan.
        assert not _oracle_has_cycle(_directed_edges(flow.paths))
        for node in flow.nodes():
            assert flow.fusion_arity(node) == _incident_width(flow, node)
    assert accepted >= 30 and rejected >= 30


def test_cycle_check_survives_position_gap_exhaustion():
    """Thousands of between-anchor insertions exhaust the integer gaps
    of the position map; the lazy renumber must keep both acceptance and
    rejection exact."""
    flow = FlowLikeGraph(0, 0, 1)
    flow.add_path((0, 2, 1), width=1)
    # Repeatedly splice a new node between the source and node 2: each
    # insertion bisects the same positional gap.
    chain = [0, 2]
    for fresh in range(100, 140):
        chain.insert(1, fresh)
        flow.add_path(tuple(chain + [1]), width=1)
        assert not _oracle_has_cycle(_directed_edges(flow.paths))
    # After any renumbering, ordering semantics must be intact: a
    # backwards edge is still rejected, a forwards one accepted.
    flow.add_path((0, 2, 3, 1), width=1)
    with pytest.raises(RoutingError, match="directed cycle"):
        flow.add_path((0, 3, 2, 1), width=1)
    flow.add_path((0, 100, 3, 1), width=2)
    assert not _oracle_has_cycle(_directed_edges(flow.paths))


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
