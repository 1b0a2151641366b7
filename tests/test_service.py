"""Tests for the online serving subsystem (repro.service).

Covers the arrival-spec grammar, stateless event-stream determinism,
worker-count invariance and residual-view-oracle parity of the
deterministic metrics,
Little's-law sanity of the steady-state averages, trace record/replay
and the serve result cache.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.experiments.scenarios import parse_scenario
from repro.network.builder import build_network
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.compiled import (
    ROUTING_CORE_ENV,
    CompiledNetwork,
    active_routing_core,
)
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.registry import RouterSpec, make_router
from repro.service import arrivals
from repro.service.arrivals import (
    EVENT_STREAM_BASE,
    ArrivalEvent,
    ArrivalSpec,
    ArrivalSpecError,
    HoldSpec,
    parse_arrivals,
    poisson_events,
    read_trace,
    write_trace,
)
from repro.service.loop import ServeSession, latency_summary, run_serve
from repro.service.residual import ResidualViewRouter, residual_view
from repro.service.runner import run_serve_experiment, serve_key
from repro.network.demands import Demand
from repro.utils.rng import ensure_rng, stream_rng, stream_rngs
from tests.conftest import make_diamond_network

LINK = LinkModel(fixed_p=0.4)
SWAP = SwapModel(q=0.9)

#: Small, fast workload shared by the loop-level tests.
SCENARIO = "waxman:switches=30,users=6,states=5"
ARRIVALS = "poisson:rate=1.0,hold=exp:mean=10"


def _small_instance(seed=7):
    spec = parse_scenario(SCENARIO)
    network = build_network(spec.network_config(), ensure_rng(seed))
    return network


def _online_router():
    """ALG-N-FUSION without Algorithm 4 — the serve default."""
    return make_router("alg-n-fusion", include_alg4=False)


# ----------------------------------------------------------------------
# Arrival spec grammar


class TestArrivalGrammar:
    def test_round_trip(self):
        for text in (
            "poisson",
            "poisson:rate=0.5",
            "poisson:rate=2.5,hold=fixed:mean=12.0",
            "poisson:hold=exp:mean=45.0",
            "trace:file=runs/monday.trace",
        ):
            spec = parse_arrivals(text)
            assert parse_arrivals(spec.to_string()) == spec

    def test_canonical_default(self):
        assert ArrivalSpec().to_string() == "poisson"
        assert parse_arrivals("poisson:rate=2.0,hold=exp:mean=30") == (
            ArrivalSpec()
        )

    def test_acceptance_spelling(self):
        spec = parse_arrivals("poisson:rate=2.0,hold=exp:mean=30")
        assert spec.rate == 2.0
        assert spec.hold == HoldSpec("exp", 30.0)

    def test_hold_round_trip(self):
        for text in ("exp:mean=30", "fixed:mean=1.5"):
            hold = HoldSpec.from_string(text)
            assert HoldSpec.from_string(hold.to_string()) == hold

    @pytest.mark.parametrize(
        "bad",
        [
            "gamma:rate=1",
            "poisson:rate=0",
            "poisson:rate=-1",
            "poisson:burst=3",
            "poisson:rate=1,rate=2",
            "poisson:hold=normal:mean=3",
            "poisson:hold=exp:mean=0",
            "poisson:hold=exp:scale=3",
            "trace",
            "trace:rate=1,file=x",
            "trace:hold=exp:mean=3,file=x",
            "poisson:file=x",
            "",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ArrivalSpecError):
            parse_arrivals(bad)

    def test_poisson_config_dict_is_stable(self):
        spec = parse_arrivals("poisson:rate=0.5,hold=fixed:mean=2.0")
        assert spec.config_dict() == {
            "kind": "poisson",
            "rate": 0.5,
            "hold": {"dist": "fixed", "mean": 2.0},
        }

    def test_trace_config_dict_hashes_contents(self, tmp_path):
        a = tmp_path / "a.trace"
        b = tmp_path / "b.trace"
        a.write_text("x")
        b.write_text("x")
        dict_a = ArrivalSpec(kind="trace", file=str(a)).config_dict()
        dict_b = ArrivalSpec(kind="trace", file=str(b)).config_dict()
        assert dict_a == dict_b  # path does not matter, contents do
        b.write_text("y")
        assert ArrivalSpec(kind="trace", file=str(b)).config_dict() != dict_a


# ----------------------------------------------------------------------
# Event streams


class TestPoissonEvents:
    def test_stateless_and_deterministic(self):
        spec = parse_arrivals(ARRIVALS)
        first = poisson_events(spec, 1234, 6, 50.0)
        second = poisson_events(spec, 1234, 6, 50.0)
        assert first == second
        assert first != poisson_events(spec, 1235, 6, 50.0)

    def test_well_formed(self):
        spec = parse_arrivals(ARRIVALS)
        events = poisson_events(spec, 99, 6, 80.0)
        assert events, "expected some arrivals over 80 time units"
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 <= t < 80.0 for t in times)
        for event in events:
            assert event.source_index != event.dest_index
            assert 0 <= event.source_index < 6
            assert 0 <= event.dest_index < 6
            assert event.hold > 0

    def test_prefix_stability(self):
        # A shorter horizon yields exactly the longer run's prefix: the
        # k-th event never depends on how many events follow it.
        spec = parse_arrivals(ARRIVALS)
        short = poisson_events(spec, 42, 6, 20.0)
        long = poisson_events(spec, 42, 6, 60.0)
        assert long[: len(short)] == short

    @pytest.mark.parametrize(
        "duration", [float("nan"), float("inf"), 0.0, -5.0]
    )
    def test_rejects_bad_duration(self, duration):
        # The stream ends at the first arrival past the horizon, which
        # a non-finite horizon never has.
        with pytest.raises(ArrivalSpecError, match="duration"):
            poisson_events(parse_arrivals(ARRIVALS), 42, 6, duration)


#: Pinned arrival streams: sha256 prefix and event count per (spec,
#: users, duration, seed).  ``serve`` is perfbench's serve-faults
#: stream; ``dense`` runs to about 500 events with fixed holds (which
#: draw nothing); ``sparse`` expects under one event, so some seeds
#: have none; ``busy`` runs to about 6,000 events, past one block of
#: derived substreams.  A change to how substreams are derived must
#: keep every stream; never re-record them to pass.
ARRIVAL_DIGEST_CASES = {
    "serve": ("poisson:rate=0.3,hold=exp:mean=30", 10, 60.0),
    "dense": ("poisson:rate=2.0,hold=fixed:mean=10", 4, 250.0),
    "sparse": ("poisson:rate=0.02,hold=exp:mean=5", 2, 30.0),
    "busy": ("poisson:rate=20.0,hold=exp:mean=1", 3, 300.0),
}
ARRIVAL_DIGESTS = {
    ("serve", 0): ("49e5a76e6f81cfa804ccf861b18d77d8", 18),
    ("serve", 1): ("5dd9beaaf291731721bd79bca62d0599", 18),
    ("serve", 2): ("c132a945362ad78715d002c9cf5385d0", 24),
    ("serve", 2**63 - 1): ("11f4e7d98cbd5d2e9da803d3bfb1b3c2", 20),
    ("dense", 0): ("23c1e07814018190ee9662a569c11725", 497),
    ("dense", 1): ("e8410bba2eef90bf33c7bd500438e425", 503),
    ("dense", 2): ("ab33176f6741341f27d7afae5d2fa066", 514),
    ("dense", 2**63 - 1): ("ddb2b329f480ef299e682811f471d672", 507),
    ("sparse", 0): ("e3b0c44298fc1c149afbf4c8996fb924", 0),
    ("sparse", 1): ("e3b0c44298fc1c149afbf4c8996fb924", 0),
    ("sparse", 2): ("c16fe4c1683594aaea0537fcc5e98a06", 1),
    ("sparse", 2**63 - 1): ("e3b0c44298fc1c149afbf4c8996fb924", 0),
    ("busy", 0): ("1f6f67eed5e18efbd5f860a709502094", 6016),
    ("busy", 1): ("c9ea53c3a2ce554a44207dc81e0382a2", 5973),
    ("busy", 2): ("1e9bef533830a750600cf94bcfb0ce70", 6029),
    ("busy", 2**63 - 1): ("038155a99209a4c87ce18b2ee2ce294f", 6057),
}


def arrival_stream_digest(events):
    """sha256 over every event's exact time, user indices and hold."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(
            f"{event.time.hex()} {event.source_index} {event.dest_index} "
            f"{event.hold.hex()}\n".encode()
        )
    return digest.hexdigest()


def test_arrival_timeline_digests():
    expected_cases = {
        (name, seed)
        for name in ARRIVAL_DIGEST_CASES
        for seed in (0, 1, 2, 2**63 - 1)
    }
    assert set(ARRIVAL_DIGESTS) == expected_cases
    mismatched = []
    for (name, seed), expected in sorted(ARRIVAL_DIGESTS.items()):
        text, users, duration = ARRIVAL_DIGEST_CASES[name]
        events = poisson_events(parse_arrivals(text), seed, users, duration)
        got = (arrival_stream_digest(events)[:32], len(events))
        if got != expected:
            mismatched.append((name, seed))
    assert mismatched == []


def test_event_substreams_are_derived_in_doubling_blocks(monkeypatch):
    blocks = []

    def recording_stream_rngs(seed, streams):
        blocks.append(streams)
        return stream_rngs(seed, streams)

    monkeypatch.setattr(arrivals, "stream_rngs", recording_stream_rngs)
    # rate * duration = 0.004: a first block of 2, then 4, 8, ... up to
    # MAX_EVENT_BLOCK, each starting where the last ended.
    spec = parse_arrivals("poisson:rate=0.001,hold=exp:mean=5")
    rngs = arrivals._event_rngs(spec, 5, 4.0)
    drawn = [next(rngs).random() for _ in range(3 * arrivals.MAX_EVENT_BLOCK)]
    sizes = [len(block) for block in blocks]
    assert sizes[:3] == [2, 4, 8]
    assert sizes[-2:] == [arrivals.MAX_EVENT_BLOCK] * 2
    assert [s for block in blocks for s in block][: len(drawn)] == list(
        range(EVENT_STREAM_BASE, EVENT_STREAM_BASE + len(drawn))
    )
    assert drawn[:40:7] == [
        stream_rng(5, EVENT_STREAM_BASE + k).random() for k in range(0, 40, 7)
    ]


# ----------------------------------------------------------------------
# Serving loop


class TestServeLoop:
    def test_session_release_restores_ledger(self):
        network = _small_instance()
        session = ServeSession(
            network, LINK, SWAP,
            _online_router(),
        )
        users = network.users()
        baseline = session.ledger.snapshot()
        flows = []
        for demand_id in range(3):
            demand = Demand(demand_id, users[0], users[demand_id + 1])
            routed = session.route_arrival(demand)
            if routed is not None:
                flows.append(routed[0])
        assert flows, "expected at least one admission"
        assert session.ledger.snapshot() != baseline
        for flow in flows:
            session.release_flow(flow)
        assert session.ledger.snapshot() == baseline

    def test_release_flow_restores_shared_and_widened_edges(self):
        """A flow whose paths share an edge and whose edges carry
        ``widen_edge`` extras (on a shared edge and on a private one)
        releases, in one pass, exactly what admission charged."""
        network = make_diamond_network()
        network.add_edge(2, 5)
        session = ServeSession(network, LINK, SWAP, _online_router())
        baseline = session.ledger.snapshot()
        flow = FlowLikeGraph(0, 0, 1)
        flow.add_path((0, 2, 3, 1), 2)
        flow.add_path((0, 2, 5, 1), 1)
        flow.widen_edge(0, 2, 2)
        flow.widen_edge(5, 1)
        assert flow.edge_widths()[(0, 2)] == 4
        session.ledger.reserve_edges(
            (u, v, width) for (u, v), width in flow.edge_widths().items()
        )
        assert session.ledger.snapshot() != baseline
        session.release_flow(flow)
        assert session.ledger.snapshot() == baseline

    def test_residual_view_reflects_ledger(self):
        network = _small_instance()
        ledger = QubitLedger(network)
        switch = network.switches()[0]
        ledger.reserve(switch, 4)
        view = residual_view(network, ledger)
        assert view.qubit_capacity(switch) == int(ledger.remaining(switch))
        assert view.users() == network.users()
        assert view.edge_keys() == network.edge_keys()
        for u, v in network.edge_keys()[:5]:
            assert view.edge_length(u, v) == network.edge_length(u, v)
        for user in network.users():
            assert view.qubit_capacity(user) is None

    def test_replan_modes_bit_identical(self):
        """Serving through each router's ledger entry and through the
        residual-view oracle (a rebuilt network routed cold, its plan
        charged to the session ledger) gives the same metrics."""
        network = _small_instance()
        spec = parse_arrivals(ARRIVALS)
        events = poisson_events(spec, 7, len(network.users()), 40.0)
        for key in ("alg-n-fusion:include_alg4=false", "q-cast-n", "b1",
                    "q-cast", "mcf"):
            router = RouterSpec.from_string(key).build()
            session, oracle = (
                run_serve(
                    network, LINK, SWAP, served, events, 40.0, 5.0
                ).metrics
                for served in (router, ResidualViewRouter(router))
            )
            assert session == oracle, key
            assert session.admitted > 0, key

    def test_baseline_router_serves_on_the_session_snapshot(
        self, monkeypatch
    ):
        """A baseline re-plans warm: every arrival searches the session's
        one compiled snapshot, and no residual copy is compiled."""
        if active_routing_core() != "compiled":
            pytest.skip("the reference core compiles no snapshot")
        network = _small_instance()
        spec = parse_arrivals(ARRIVALS)
        events = poisson_events(spec, 7, len(network.users()), 25.0)
        compiled = []
        original = CompiledNetwork.__init__

        def counting(snapshot, graph, *args, **kwargs):
            compiled.append(graph)
            original(snapshot, graph, *args, **kwargs)

        monkeypatch.setattr(CompiledNetwork, "__init__", counting)
        run = run_serve(
            network, LINK, SWAP, make_router("b1"), events, 25.0, 5.0,
        )
        assert run.metrics.admitted > 0
        assert compiled == [network]

    def test_cores_bit_identical(self, monkeypatch):
        network = _small_instance()
        spec = parse_arrivals(ARRIVALS)
        events = poisson_events(spec, 7, len(network.users()), 30.0)
        per_core = {}
        for core in ("reference", "compiled"):
            monkeypatch.setenv(ROUTING_CORE_ENV, core)
            per_core[core] = run_serve(
                network, LINK, SWAP,
                _online_router(),
                events, 30.0, 5.0,
            ).metrics
        assert per_core["reference"] == per_core["compiled"]

    def test_littles_law(self):
        # The time-averaged held count must track Little's law,
        # L = lambda_admitted * W.  Both sides only count admitted
        # flows, so the identity holds whatever the admission ratio
        # (some Waxman user pairs are infeasible regardless of
        # capacity); the only error terms are the window edges.
        scenario = parse_scenario(
            "waxman:switches=30,users=6,qubits=40,states=5"
        )
        network = build_network(scenario.network_config(), ensure_rng(11))
        spec = parse_arrivals("poisson:rate=0.5,hold=exp:mean=10")
        duration, warmup = 260.0, 20.0
        events = poisson_events(spec, 11, len(network.users()), duration)
        run = run_serve(
            network, LINK, SWAP,
            _online_router(),
            events, duration, warmup,
        )
        metrics = run.metrics
        assert metrics.arrivals > 50
        assert metrics.admitted > 30
        expected_held = (
            metrics.admitted / (duration - warmup) * metrics.mean_hold
        )
        assert metrics.mean_held == pytest.approx(expected_held, rel=0.25)

    def test_rejects_bad_window(self):
        network = _small_instance()
        router = _online_router()
        with pytest.raises(ConfigurationError):
            run_serve(network, LINK, SWAP, router, [], 0.0, 0.0)
        with pytest.raises(ConfigurationError):
            run_serve(network, LINK, SWAP, router, [], 10.0, 10.0)
        for duration in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="duration"):
                run_serve(network, LINK, SWAP, router, [], duration, 0.0)

    def test_rejects_out_of_range_user_index(self):
        network = _small_instance()
        router = _online_router()
        events = [ArrivalEvent(time=1.0, source_index=0,
                               dest_index=99, hold=5.0)]
        with pytest.raises(ConfigurationError, match="user index"):
            run_serve(network, LINK, SWAP, router, events, 10.0, 0.0)


# ----------------------------------------------------------------------
# Latency summary (wall-clock half; deterministic in its inputs)


class TestLatencySummary:
    def test_empty(self):
        assert latency_summary([]) == {
            "count": 0, "p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0,
        }

    def test_nearest_rank(self):
        values = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
        stats = latency_summary(values)
        assert stats["count"] == 100
        assert stats["p50_ms"] == pytest.approx(50.0)
        assert stats["p99_ms"] == pytest.approx(99.0)
        assert stats["mean_ms"] == pytest.approx(50.5)

    def test_single_value(self):
        stats = latency_summary([0.002])
        assert stats["p50_ms"] == stats["p99_ms"] == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Trace record / replay


class TestTrace:
    def test_round_trip(self, tmp_path):
        spec = parse_arrivals(ARRIVALS)
        replications = [
            poisson_events(spec, seed, 6, 40.0) for seed in (5, 6)
        ]
        path = tmp_path / "events.trace"
        write_trace(path, replications)
        assert read_trace(path) == replications
        # Re-recording identical events is byte-identical.
        other = tmp_path / "again.trace"
        write_trace(other, replications)
        assert other.read_bytes() == path.read_bytes()

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not json\n")
        with pytest.raises(ArrivalSpecError):
            read_trace(path)
        path.write_text('{"format": "other", "version": 1, '
                        '"replications": 1}\n')
        with pytest.raises(ArrivalSpecError):
            read_trace(path)
        with pytest.raises(ArrivalSpecError):
            read_trace(tmp_path / "missing.trace")

    def test_rejects_time_regression(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            '{"format": "repro-serve-trace", "version": 1, '
            '"replications": 1}\n'
            '{"replication": 0, "time": 5.0, "source": 0, "dest": 1, '
            '"hold": 1.0}\n'
            '{"replication": 0, "time": 4.0, "source": 0, "dest": 1, '
            '"hold": 1.0}\n'
        )
        with pytest.raises(ArrivalSpecError, match="non-decreasing"):
            read_trace(path)

    def test_replay_matches_recording(self, tmp_path):
        trace = tmp_path / "run.trace"
        recorded = run_serve_experiment(
            scenario=SCENARIO,
            arrivals=ARRIVALS,
            duration=30.0,
            warmup=5.0,
            replications=2,
            seed=7,
            record_trace=str(trace),
        )
        replayed = run_serve_experiment(
            scenario=SCENARIO,
            arrivals=f"trace:file={trace}",
            duration=30.0,
            warmup=5.0,
            seed=7,
        )
        assert replayed.replications == 2
        assert replayed.rows == recorded.rows


# ----------------------------------------------------------------------
# Replication runner


class TestRunner:
    @pytest.mark.parametrize("duration, warmup", [
        (float("nan"), 5.0),
        (float("inf"), 5.0),
        (-5.0, 0.0),
        (30.0, float("nan")),
        (30.0, float("inf")),
        (30.0, -1.0),
        (30.0, 30.0),
    ])
    def test_rejects_bad_horizon(self, duration, warmup):
        # Checked on entry, before any event stream is generated.
        with pytest.raises(ConfigurationError, match="duration|warmup"):
            run_serve_experiment(
                scenario=SCENARIO, arrivals=ARRIVALS, duration=duration,
                warmup=warmup, replications=1, seed=7, workers=1,
            )

    def test_worker_count_invariance(self):
        reports = {
            workers: run_serve_experiment(
                scenario=SCENARIO,
                arrivals=ARRIVALS,
                duration=30.0,
                warmup=5.0,
                replications=2,
                seed=7,
                workers=workers,
            )
            for workers in (1, 4)
        }
        assert reports[1].rows == reports[4].rows
        assert reports[1].to_text() == reports[4].to_text()

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(
            scenario=SCENARIO, arrivals=ARRIVALS, duration=30.0,
            warmup=5.0, replications=2, seed=7, cache=cache,
        )
        cold = run_serve_experiment(**kwargs)
        assert cold.latencies_s, "cold run must measure latencies"
        warm = run_serve_experiment(**kwargs)
        assert warm.rows == cold.rows
        assert not warm.latencies_s  # nothing executed
        assert warm.cached == {0: 2}

    def test_key_sensitivity(self):
        scenario = parse_scenario(SCENARIO)
        router = _online_router()
        arrivals = parse_arrivals(ARRIVALS)
        base = serve_key(scenario, router, arrivals, 30.0, 5.0, 1234)
        assert serve_key(scenario, router, arrivals, 30.0, 5.0, 1235) != base
        assert serve_key(scenario, router, arrivals, 31.0, 5.0, 1234) != base
        assert serve_key(
            scenario, router, parse_arrivals("poisson:rate=1.5"),
            30.0, 5.0, 1234,
        ) != base
        assert serve_key(
            scenario, make_router("b1"), arrivals, 30.0, 5.0, 1234
        ) != base

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            run_serve_experiment(
                scenario=SCENARIO, arrivals=ARRIVALS, replications=0,
            )
        with pytest.raises(ConfigurationError):
            run_serve_experiment(
                scenario=SCENARIO,
                arrivals="trace:file=whatever.trace",
                record_trace="out.trace",
            )

    def test_report_counts_window_only(self):
        report = run_serve_experiment(
            scenario=SCENARIO, arrivals=ARRIVALS, duration=30.0,
            warmup=5.0, replications=1, seed=7,
        )
        metrics = report.metrics_for(0)[0]
        assert metrics.arrivals + metrics.rejected >= metrics.admitted
        assert metrics.rejected == metrics.arrivals - metrics.admitted
        assert 0.0 <= metrics.admission_ratio <= 1.0
