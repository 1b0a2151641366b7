"""Fault-injection subsystem tests (repro.service.faults + loop).

Covers the fault/repair spec grammars, the deterministic backoff
helper, fault-timeline statelessness and prefix-stability (mirroring
the arrival-stream contracts), trace record/replay validation, the
serving loop's disruption/repair accounting (ledger restore parity,
dense-fault crash-freedom, bit-parity with the residual-view oracle
and across routing cores under active faults)
and the replicated runner's fault-aware report.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.cache import ResultCache
from repro.experiments.scenarios import parse_scenario
from repro.network.builder import build_network
from repro.network.demands import Demand
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.compiled import ROUTING_CORE_ENV
from repro.routing.registry import RouterSpec, make_router
from repro.service.arrivals import (
    ArrivalEvent,
    parse_arrivals,
    poisson_events,
    validate_events,
)
from repro.service.faults import (
    BackoffSpec,
    FaultEvent,
    FaultSpec,
    FaultSpecError,
    RepairSpec,
    fault_events,
    parse_faults,
    parse_repair,
    read_fault_trace,
    write_fault_trace,
)
from repro.service.loop import ServeSession, run_serve
from repro.service.residual import ResidualViewRouter
from repro.service.runner import run_serve_experiment, serve_key
from repro.utils.retry import backoff_delay, backoff_delays
from repro.utils.rng import ensure_rng

LINK = LinkModel(fixed_p=0.4)
SWAP = SwapModel(q=0.9)

SCENARIO = "waxman:switches=30,users=6,states=5"
ARRIVALS = "poisson:rate=1.0,hold=exp:mean=10"

#: Mean up-times far below the mean holding time: every held flow is
#: expected to lose an element well before it departs.
DENSE_FAULTS = "faults:link_mtbf=2.0,link_mttr=1.0,switch_p=0.2,switch_mttr=2.0"


def _small_instance(seed=7):
    spec = parse_scenario(SCENARIO)
    return build_network(spec.network_config(), ensure_rng(seed))


def _online_router():
    return make_router("alg-n-fusion", include_alg4=False)


#: Every registered router, ALG-N-FUSION as served by default.
SERVE_ROUTERS = (
    "alg-n-fusion:include_alg4=false", "q-cast-n", "b1", "q-cast", "mcf",
)


def _timeline(network, text=DENSE_FAULTS, seed=7, duration=40.0):
    return fault_events(
        parse_faults(text), seed, len(network.edge_keys()),
        len(network.switches()), duration,
    )


# ----------------------------------------------------------------------
# Fault spec grammar


class TestFaultGrammar:
    def test_round_trip(self):
        for text in (
            "faults:link_mtbf=300.0",
            "faults:link_mtbf=300.0,link_mttr=15.0",
            "faults:switch_p=0.01",
            "faults:switch_mtbf=800.0,switch_mttr=40.0",
            "faults:link_mtbf=200.0,switch_mtbf=800.0",
            "trace:file=runs/outage.trace",
        ):
            spec = parse_faults(text)
            assert parse_faults(spec.to_string()) == spec

    def test_defaults_stay_out_of_to_string(self):
        spec = parse_faults("faults:link_mtbf=300,link_mttr=30")
        assert spec.to_string() == "faults:link_mtbf=300.0"

    @pytest.mark.parametrize(
        "bad",
        [
            "faults",  # no failure process at all
            "faults:link_mttr=5",  # mttr alone is not a process either
            "faults:link_mtbf=0",
            "faults:link_mtbf=-3",
            "faults:link_mtbf=abc",
            "faults:switch_p=0",
            "faults:switch_p=1.5",
            "faults:switch_p=0.1,switch_mtbf=10",  # two spellings at once
            "faults:link_mtbf=10,file=x",
            "faults:bogus=1",
            "faults:link_mtbf=10,link_mtbf=10",
            "trace",
            "trace:link_mtbf=10,file=x",
            "outage:link_mtbf=10",
            "",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(FaultSpecError):
            parse_faults(bad)

    def test_switch_p_is_a_hazard(self):
        assert parse_faults(
            "faults:switch_p=0.01"
        ).effective_switch_mtbf() == pytest.approx(100.0)
        assert parse_faults(
            "faults:switch_mtbf=250"
        ).effective_switch_mtbf() == 250.0
        assert parse_faults(
            "faults:link_mtbf=10"
        ).effective_switch_mtbf() is None

    def test_config_dict_is_stable(self):
        spec = parse_faults("faults:link_mtbf=120,switch_p=0.01")
        assert spec.config_dict() == {
            "kind": "faults",
            "link_mtbf": 120.0,
            "link_mttr": 30.0,
            "switch_mtbf": None,
            "switch_p": 0.01,
            "switch_mttr": 30.0,
        }

    def test_trace_config_dict_hashes_contents(self, tmp_path):
        path = tmp_path / "outage.trace"
        write_fault_trace(path, [[FaultEvent(1.0, "link_down", 0)]])
        first = parse_faults(f"trace:file={path}").config_dict()
        write_fault_trace(path, [[FaultEvent(2.0, "link_down", 0)]])
        second = parse_faults(f"trace:file={path}").config_dict()
        assert first["kind"] == second["kind"] == "trace"
        assert first["trace_sha256"] != second["trace_sha256"]


class TestRepairGrammar:
    def test_round_trip(self):
        for text in (
            "drop",
            "reroute",
            "reroute:retries=0",
            "reroute:retries=5",
            "reroute:backoff=fixed:base=2.0",
            "reroute:retries=3,backoff=exp:base=0.5",
        ):
            spec = parse_repair(text)
            assert parse_repair(spec.to_string()) == spec

    def test_default_is_reroute(self):
        assert RepairSpec() == parse_repair("reroute")
        assert RepairSpec().to_string() == "reroute"

    def test_delays_follow_backoff(self):
        def schedule(text):
            spec = parse_repair(text)
            return [spec.delay(k) for k in range(spec.retries)]

        assert schedule("reroute:retries=3") == [1.0, 2.0, 4.0]
        assert schedule("reroute:retries=2,backoff=fixed:base=2.5") == [
            2.5, 2.5,
        ]
        assert schedule("drop") == []

    @pytest.mark.parametrize("text", [
        "reroute:retries=40",
        "reroute:retries=5,backoff=fixed:base=2.5",
        "reroute:retries=1023,backoff=exp:base=1.5",
    ])
    def test_delay_is_the_schedule_entry(self, text):
        spec = parse_repair(text)
        base, growth = spec.backoff.base, spec.backoff.kind == "exp"
        assert [spec.delay(k) for k in range(spec.retries)] == [
            base * 2.0**k if growth else base for k in range(spec.retries)
        ]

    def test_long_fixed_schedule_parses_without_materialising(self):
        """A million fixed retries would take ~8 MB as a tuple."""
        tracemalloc.start()
        try:
            spec = parse_repair("reroute:retries=1000000,backoff=fixed:base=1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spec.delay(999_999) == 1.0
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "bad",
        [
            "drop:retries=1",
            "drop:backoff=exp:base=1",
            "reroute:retries=-1",
            "reroute:retries=x",
            "reroute:backoff=linear:base=1",
            "reroute:backoff=exp:base=0",
            "reroute:backoff=exp",
            "reroute:backoff=exp:rate=2",
            "reroute:bogus=1",
            "reroute:retries=100000000",  # 2**k overflows the schedule
            "repair",
            "",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(FaultSpecError):
            parse_repair(bad)

    def test_backoff_round_trip(self):
        for text in ("exp:base=1.0", "fixed:base=0.25"):
            spec = BackoffSpec.from_string(text)
            assert BackoffSpec.from_string(spec.to_string()) == spec


class TestBackoffDelays:
    def test_exponential_growth(self):
        assert backoff_delays("exp", 1.0, 4) == (1.0, 2.0, 4.0, 8.0)
        assert backoff_delays("exp", 0.5, 2) == (0.5, 1.0)

    def test_fixed(self):
        assert backoff_delays("fixed", 3.0, 3) == (3.0, 3.0, 3.0)

    def test_zero_retries(self):
        assert backoff_delays("exp", 1.0, 0) == ()

    def test_single_delay_is_the_schedule_entry(self):
        for kind in ("exp", "fixed"):
            assert tuple(
                backoff_delay(kind, 1.5, k) for k in range(40)
            ) == backoff_delays(kind, 1.5, 40)
        assert backoff_delay("exp", 1.0, 1024) == math.inf
        assert backoff_delay("fixed", 1.0, 1024) == 1.0

    def test_rejects(self):
        with pytest.raises(ConfigurationError):
            backoff_delays("linear", 1.0, 2)
        with pytest.raises(ConfigurationError):
            backoff_delays("exp", 0.0, 2)
        with pytest.raises(ConfigurationError):
            backoff_delays("exp", 1.0, -1)


# ----------------------------------------------------------------------
# Fault timelines: the same statelessness contract as arrivals


class TestFaultEvents:
    SPEC = "faults:link_mtbf=20,link_mttr=5,switch_p=0.05,switch_mttr=5"

    def test_stateless_and_deterministic(self):
        spec = parse_faults(self.SPEC)
        first = fault_events(spec, 1234, 40, 30, 100.0)
        second = fault_events(spec, 1234, 40, 30, 100.0)
        assert first == second
        assert first != fault_events(spec, 1235, 40, 30, 100.0)

    def test_well_formed(self):
        spec = parse_faults(self.SPEC)
        events = fault_events(spec, 99, 40, 30, 120.0)
        assert events, "expected some faults over 120 time units"
        keys = [e.sort_key() for e in events]
        assert keys == sorted(keys)
        assert all(0 <= e.time < 120.0 for e in events)
        # Per element the kinds strictly alternate, starting down.
        for family, count in (("link", 40), ("switch", 30)):
            for element in range(count):
                kinds = [
                    e.kind for e in events
                    if e.element == element and e.kind.startswith(family)
                ]
                for position, kind in enumerate(kinds):
                    expected = "down" if position % 2 == 0 else "up"
                    assert kind == f"{family}_{expected}"

    def test_prefix_stability_in_duration(self):
        # Extending the horizon appends events without moving earlier
        # ones: element timelines are pure functions of (seed, element).
        spec = parse_faults(self.SPEC)
        short = fault_events(spec, 42, 40, 30, 40.0)
        long = fault_events(spec, 42, 40, 30, 120.0)
        assert [e for e in long if e.time < 40.0] == short

    def test_element_streams_are_independent(self):
        # One element's timeline never depends on how many other
        # elements exist: substreams are addressed per element.
        spec = parse_faults(self.SPEC)
        small = fault_events(spec, 7, 10, 5, 80.0)
        large = fault_events(spec, 7, 40, 30, 80.0)
        for family, limit in (("link", 10), ("switch", 5)):
            subset = [
                e for e in large
                if e.kind.startswith(family) and e.element < limit
            ]
            own = [e for e in small if e.kind.startswith(family)]
            assert subset == own

    @pytest.mark.parametrize(
        "duration", [float("nan"), float("inf"), 0.0, -5.0]
    )
    def test_rejects_bad_duration(self, duration):
        with pytest.raises(FaultSpecError, match="duration"):
            fault_events(parse_faults(self.SPEC), 7, 10, 5, duration)

    def test_trace_kind_cannot_generate(self, tmp_path):
        path = tmp_path / "t.trace"
        write_fault_trace(path, [[]])
        spec = parse_faults(f"trace:file={path}")
        with pytest.raises(FaultSpecError, match="cannot generate"):
            fault_events(spec, 7, 10, 5, 10.0)

    def test_event_validation(self):
        with pytest.raises(FaultSpecError):
            FaultEvent(-1.0, "link_down", 0)
        with pytest.raises(FaultSpecError):
            FaultEvent(1.0, "meteor_strike", 0)
        with pytest.raises(FaultSpecError):
            FaultEvent(1.0, "link_down", -2)

    def test_trusted_events_equal_checked(self):
        """Generated timelines skip the checked constructor: their events
        equal, and hash like, checked ones, and stay frozen."""
        events = fault_events(
            parse_faults("faults:link_mtbf=60,link_mttr=15,switch_p=0.01"),
            3, 30, 10, 120.0,
        )
        assert events
        for event in events:
            checked = FaultEvent(event.time, event.kind, event.element)
            assert type(event) is FaultEvent
            assert event == checked and hash(event) == hash(checked)
            assert repr(event) == repr(checked)
        with pytest.raises(dataclasses.FrozenInstanceError):
            events[0].time = 0.0  # type: ignore[misc]


#: Pinned fault timelines: sha256 prefix and event count per (spec,
#: (edges, switches), seed) at a 60-unit horizon.  The element counts
#: are paper-default's (615 edges, 100 switches) and
#: ``waxman:switches=200``'s (1,077, 200).  A change to how substreams
#: are derived must keep every timeline; never re-record them to pass.
FAULT_DIGEST_SPECS = {
    "link": "faults:link_mtbf=60,link_mttr=15",
    "switch": "faults:switch_p=0.01,switch_mttr=30",
    "both": "faults:link_mtbf=60,link_mttr=15,switch_p=0.01",
}
FAULT_DIGESTS = {
    ("link", (615, 100), 0): ("ca1cb56010d74f860f9c1cd85e09f51d", 857),
    ("link", (615, 100), 1): ("d219f31bd2878104e0660aaf41d2c257", 888),
    ("link", (615, 100), 2): ("894b7c5b02b844adb4169c923e96a492", 896),
    ("link", (615, 100), 2**63 - 1): ("776684fa14ff082c6971b3d2367af841", 898),
    ("link", (1077, 200), 0): ("0f5bd04d131027edc9e857fb127c6da6", 1510),
    ("link", (1077, 200), 1): ("2f295c8fff79393b0fb95ded7f5418f0", 1558),
    ("link", (1077, 200), 2): ("a1b0659b9bb067bea0e552b89b727741", 1662),
    ("link", (1077, 200), 2**63 - 1): ("831288b59df1385e33a5792e4580d58d", 1595),
    ("switch", (615, 100), 0): ("d8bd70039966c1c052ec07e448bd38e7", 76),
    ("switch", (615, 100), 1): ("e69f695136a1d0312660f3de619ddc27", 87),
    ("switch", (615, 100), 2): ("dd11d8c0d74f2c308ffdcd52c76873e6", 63),
    ("switch", (615, 100), 2**63 - 1): ("b298af68757f246f3aee00b3758bdb52", 93),
    ("switch", (1077, 200), 0): ("7e17d6ec448a826cb584bb666f00bb4e", 153),
    ("switch", (1077, 200), 1): ("2fa98d357438184ae6251202ffbdf7a4", 187),
    ("switch", (1077, 200), 2): ("7135dce092910b597ca5c225aab7e8c1", 166),
    ("switch", (1077, 200), 2**63 - 1): ("e969c9a082f67fd0ad5a0adccd62c355", 170),
    ("both", (615, 100), 0): ("4e0aae25406832bf890334fd694cc60f", 933),
    ("both", (615, 100), 1): ("79d3540a41c45d21c99b5d38b723b08b", 975),
    ("both", (615, 100), 2): ("371e8c52a5ea2392710290cce144f62e", 959),
    ("both", (615, 100), 2**63 - 1): ("1755976a2c72fe8d0a3b06cdac728cc3", 991),
    ("both", (1077, 200), 0): ("bc264f4efdb58ee128640efac00a272a", 1663),
    ("both", (1077, 200), 1): ("1b581dbc94b7115bd5535a75ab073d67", 1745),
    ("both", (1077, 200), 2): ("788dc4f1d284befe86ccce9e79cfa624", 1828),
    ("both", (1077, 200), 2**63 - 1): ("d8346fb66511b8e06efe9d481b21d26f", 1765),
}


def fault_timeline_digest(events):
    """sha256 over every event's exact time, kind and element."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(
            f"{event.time.hex()} {event.kind} {event.element}\n".encode()
        )
    return digest.hexdigest()


def test_fault_timeline_digests():
    expected_cases = {
        (name, counts, seed)
        for name in FAULT_DIGEST_SPECS
        for counts in ((615, 100), (1077, 200))
        for seed in (0, 1, 2, 2**63 - 1)
    }
    assert set(FAULT_DIGESTS) == expected_cases
    mismatched = []
    for (name, (edges, switches), seed), expected in sorted(
        FAULT_DIGESTS.items()
    ):
        events = fault_events(
            parse_faults(FAULT_DIGEST_SPECS[name]), seed, edges, switches,
            60.0,
        )
        got = (fault_timeline_digest(events)[:32], len(events))
        if got != expected:
            mismatched.append((name, (edges, switches), seed))
    assert mismatched == []


# ----------------------------------------------------------------------
# Fault trace files


class TestFaultTrace:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "outage.trace"
        spec = parse_faults("faults:link_mtbf=10,link_mttr=3")
        replications = [
            fault_events(spec, seed, 12, 8, 50.0) for seed in (3, 4)
        ]
        write_fault_trace(path, replications)
        assert read_fault_trace(path) == replications

    def test_rejects_missing_and_empty(self, tmp_path):
        with pytest.raises(FaultSpecError, match="cannot read"):
            read_fault_trace(tmp_path / "absent.trace")
        empty = tmp_path / "empty.trace"
        empty.write_text("")
        with pytest.raises(FaultSpecError, match="empty"):
            read_fault_trace(empty)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(FaultSpecError, match="repro-fault-trace"):
            read_fault_trace(path)

    def _with_line(self, tmp_path, line):
        path = tmp_path / "edited.trace"
        header = (
            '{"format": "repro-fault-trace", "replications": 1, '
            '"version": 1}'
        )
        path.write_text(header + "\n" + line + "\n")
        return path

    def test_rejects_unsorted_times_naming_line(self, tmp_path):
        path = self._with_line(
            tmp_path,
            '{"element": 0, "kind": "link_down", "replication": 0, '
            '"time": 5.0}\n'
            '{"element": 1, "kind": "link_down", "replication": 0, '
            '"time": 2.0}',
        )
        with pytest.raises(FaultSpecError, match="line 3"):
            read_fault_trace(path)

    def test_rejects_bool_replication_naming_line(self, tmp_path):
        path = self._with_line(
            tmp_path,
            '{"element": 0, "kind": "link_down", "replication": true, '
            '"time": 1.0}',
        )
        with pytest.raises(FaultSpecError, match="line 2"):
            read_fault_trace(path)

    def test_rejects_unknown_replication_naming_line(self, tmp_path):
        path = self._with_line(
            tmp_path,
            '{"element": 0, "kind": "link_down", "replication": 3, '
            '"time": 1.0}',
        )
        with pytest.raises(FaultSpecError, match="line 2"):
            read_fault_trace(path)

    def test_rejects_bad_kind_naming_line(self, tmp_path):
        path = self._with_line(
            tmp_path,
            '{"element": 0, "kind": "meteor", "replication": 0, '
            '"time": 1.0}',
        )
        with pytest.raises(FaultSpecError, match="line 2"):
            read_fault_trace(path)


# ----------------------------------------------------------------------
# Programmatic event validation (arrival side of the satellite)


class TestArrivalValidation:
    def test_validate_events_accepts_sorted(self):
        events = poisson_events(parse_arrivals(ARRIVALS), 7, 6, 20.0)
        validate_events(events)

    def test_validate_events_names_offender(self):
        events = [
            ArrivalEvent(time=3.0, source_index=0, dest_index=1, hold=1.0),
            ArrivalEvent(time=1.0, source_index=0, dest_index=1, hold=1.0),
        ]
        with pytest.raises(ConfigurationError, match="event 1"):
            validate_events(events)

    def test_run_serve_rejects_unsorted_events(self):
        network = _small_instance()
        events = [
            ArrivalEvent(time=3.0, source_index=0, dest_index=1, hold=1.0),
            ArrivalEvent(time=1.0, source_index=0, dest_index=1, hold=1.0),
        ]
        with pytest.raises(ConfigurationError, match="time-sorted"):
            run_serve(network, LINK, SWAP, _online_router(), events,
                      10.0, 0.0)


# ----------------------------------------------------------------------
# Serving under faults


class TestServeWithFaults:
    def test_fault_timeline_must_be_sorted(self):
        network = _small_instance()
        faults = [
            FaultEvent(5.0, "link_down", 0),
            FaultEvent(2.0, "link_up", 0),
        ]
        with pytest.raises(ConfigurationError, match="time-sorted"):
            run_serve(network, LINK, SWAP, _online_router(), [],
                      10.0, 0.0, faults=faults)

    def test_fault_element_must_exist(self):
        network = _small_instance()
        faults = [FaultEvent(1.0, "switch_down", 10_000)]
        with pytest.raises(ConfigurationError, match="10000"):
            run_serve(network, LINK, SWAP, _online_router(), [],
                      10.0, 0.0, faults=faults)

    def test_dense_faults_disrupt_every_flow_without_crashing(self):
        # Element up-times are far below holding times, so every
        # admitted flow is disrupted at least once (deterministically,
        # at this seed) — and the loop must degrade gracefully, never
        # raise.
        network = _small_instance()
        events = poisson_events(
            parse_arrivals(ARRIVALS), 7, len(network.users()), 40.0
        )
        run = run_serve(
            network, LINK, SWAP, _online_router(), events, 40.0, 5.0,
            faults=_timeline(network),
            repair="reroute:retries=2,backoff=exp:base=0.5",
        )
        m = run.metrics
        assert m.admitted > 0
        assert m.disruptions >= m.admitted
        assert m.repaired + m.dropped == m.disruptions
        assert m.repair_ratio == pytest.approx(m.repaired / m.disruptions)
        assert len(run.repair_latencies_s) >= m.disruptions

    def test_drop_policy_counts_every_disruption(self):
        network = _small_instance()
        events = poisson_events(
            parse_arrivals(ARRIVALS), 7, len(network.users()), 40.0
        )
        run = run_serve(
            network, LINK, SWAP, _online_router(), events, 40.0, 5.0,
            faults=_timeline(network), repair="drop",
        )
        m = run.metrics
        assert m.disruptions > 0
        assert m.dropped == m.disruptions
        assert m.repaired == 0
        assert run.repair_latencies_s == []

    def test_zero_retry_reroute_never_crashes(self):
        network = _small_instance()
        events = poisson_events(
            parse_arrivals(ARRIVALS), 7, len(network.users()), 40.0
        )
        run = run_serve(
            network, LINK, SWAP, _online_router(), events, 40.0, 5.0,
            faults=_timeline(network), repair="reroute:retries=0",
        )
        m = run.metrics
        assert m.repaired + m.dropped == m.disruptions

    def test_faults_degrade_throughput(self):
        network = _small_instance()
        events = poisson_events(
            parse_arrivals(ARRIVALS), 7, len(network.users()), 40.0
        )
        clean = run_serve(
            network, LINK, SWAP, _online_router(), events, 40.0, 5.0,
        )
        faulty = run_serve(
            network, LINK, SWAP, _online_router(), events, 40.0, 5.0,
            faults=_timeline(network),
        )
        assert faulty.metrics.throughput < clean.metrics.throughput

    def test_modes_bit_identical_under_faults(self):
        """The session path and the residual-view oracle (a rebuilt
        network without the down elements, routed cold) serve the same
        stream identically for every router, disruptions and repairs
        included."""
        network = _small_instance()
        events = poisson_events(
            parse_arrivals(ARRIVALS), 7, len(network.users()), 40.0
        )
        faults = _timeline(network)
        for key in SERVE_ROUTERS:
            router = RouterSpec.from_string(key).build()
            session, oracle = (
                run_serve(
                    network, LINK, SWAP, served, events, 40.0, 5.0,
                    faults=faults,
                ).metrics
                for served in (router, ResidualViewRouter(router))
            )
            assert session == oracle, key
            assert session.disruptions > 0, key

    def test_cores_bit_identical_under_faults(self, monkeypatch):
        network = _small_instance()
        events = poisson_events(
            parse_arrivals(ARRIVALS), 7, len(network.users()), 30.0
        )
        faults = _timeline(network, duration=30.0)
        per_core = {}
        for core in ("reference", "compiled"):
            monkeypatch.setenv(ROUTING_CORE_ENV, core)
            per_core[core] = run_serve(
                network, LINK, SWAP, _online_router(), events, 30.0, 5.0,
                faults=faults,
            ).metrics
        assert per_core["reference"] == per_core["compiled"]

    def test_up_events_restore_routability(self):
        # Down every edge, reject an arrival, bring them back up and
        # the same arrival routes again.
        network = _small_instance()
        num_edges = len(network.edge_keys())
        downs = [FaultEvent(1.0, "link_down", e) for e in range(num_edges)]
        ups = [FaultEvent(5.0, "link_up", e) for e in range(num_edges)]
        events = [
            ArrivalEvent(time=2.0, source_index=0, dest_index=1, hold=1.0),
            ArrivalEvent(time=6.0, source_index=0, dest_index=1, hold=1.0),
        ]
        run = run_serve(
            network, LINK, SWAP, _online_router(), events, 10.0, 0.0,
            faults=downs + ups,
        )
        assert run.metrics.arrivals == 2
        assert run.metrics.admitted == 1


# ----------------------------------------------------------------------
# Ledger restore parity


class TestLedgerRestoreOnDisruption:
    def test_disruption_release_equals_never_admitted(self):
        # Session A admits d1 and d2, then releases d2 the way a
        # disruption does; session B admits only d1.  Their ledgers —
        # and their routing decisions for the next arrival — must be
        # indistinguishable.
        network = _small_instance()
        users = network.users()
        d1 = Demand(0, users[0], users[1])
        d2 = Demand(1, users[2], users[3])
        d3 = Demand(2, users[4], users[5])

        a = ServeSession(network, LINK, SWAP, _online_router())
        routed_a1 = a.route_arrival(d1)
        routed_a2 = a.route_arrival(d2)
        assert routed_a1 is not None and routed_a2 is not None
        a.release_flow(routed_a2[0])

        b = ServeSession(network, LINK, SWAP, _online_router())
        routed_b1 = b.route_arrival(d1)
        assert routed_b1 is not None

        assert a.ledger.snapshot() == b.ledger.snapshot()

        routed_a3 = a.route_arrival(d3)
        routed_b3 = b.route_arrival(d3)
        assert (routed_a3 is None) == (routed_b3 is None)
        if routed_a3 is not None:
            flow_a, rate_a = routed_a3
            flow_b, rate_b = routed_b3
            assert rate_a == rate_b
            assert flow_a.edge_widths() == flow_b.edge_widths()
        assert a.ledger.snapshot() == b.ledger.snapshot()


# ----------------------------------------------------------------------
# Replicated runner under faults


class TestRunnerWithFaults:
    FAULTS = "faults:link_mtbf=30,link_mttr=10,switch_p=0.02"

    def _report(self, tmp_path, workers=1, **kwargs):
        return run_serve_experiment(
            scenario=SCENARIO,
            arrivals=ARRIVALS,
            duration=40.0,
            warmup=5.0,
            replications=2,
            seed=3,
            workers=workers,
            cache=ResultCache(tmp_path / f"cache-{workers}"),
            faults=self.FAULTS,
            **kwargs,
        )

    def test_worker_count_invariance(self, tmp_path):
        reports = [
            self._report(tmp_path, workers=workers) for workers in (1, 4)
        ]
        assert reports[0].to_text() == reports[1].to_text()

    def test_report_surfaces_fault_columns(self, tmp_path):
        report = self._report(tmp_path)
        text = report.to_text()
        assert "faults=" in text and "repair=" in text
        assert "disrupt" in text and "repaired" in text
        assert "degradation" in text
        assert report.baseline_throughput is not None
        latency = report.latency_text()
        assert "recovery latency" in latency

    def test_fault_free_report_text_is_unchanged(self, tmp_path):
        report = run_serve_experiment(
            scenario=SCENARIO,
            arrivals=ARRIVALS,
            duration=30.0,
            warmup=5.0,
            replications=1,
            seed=3,
            workers=1,
            cache=ResultCache(tmp_path / "clean"),
        )
        text = report.to_text()
        assert "faults=" not in text
        assert "disrupt" not in text
        assert report.baseline_throughput is None

    def test_repair_requires_faults(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fault"):
            run_serve_experiment(
                scenario=SCENARIO,
                arrivals=ARRIVALS,
                duration=20.0,
                replications=1,
                workers=1,
                cache=ResultCache(tmp_path / "r"),
                repair="drop",
            )

    def test_key_sensitivity(self):
        scenario = parse_scenario(SCENARIO)
        router = _online_router()
        arrivals = parse_arrivals(ARRIVALS)
        base = serve_key(scenario, router, arrivals, 40.0, 5.0, 3)
        faults = parse_faults(self.FAULTS)
        faulted = serve_key(
            scenario, router, arrivals, 40.0, 5.0, 3, faults=faults
        )
        dropped = serve_key(
            scenario, router, arrivals, 40.0, 5.0, 3, faults=faults,
            repair=parse_repair("drop"),
        )
        assert len({base, faulted, dropped}) == 3
        # Fault-free keys ignore the repair default: cache continuity.
        assert base == serve_key(
            scenario, router, arrivals, 40.0, 5.0, 3, faults=None,
            repair=None,
        )

    def test_fault_trace_replay(self, tmp_path):
        # Record the generated timelines, replay them from the trace:
        # identical deterministic report.
        network = _small_instance(seed=3)
        spec = parse_faults(self.FAULTS)
        from repro.experiments.harness import sample_seeds
        from repro.experiments.scenarios import ScenarioSpec

        setting = ScenarioSpec.coerce(SCENARIO).setting(num_networks=2, seed=3)
        seeds = sample_seeds(setting)
        timelines = []
        for sample_seed in seeds:
            sampled = build_network(
                ScenarioSpec.coerce(SCENARIO).network_config(),
                ensure_rng(sample_seed),
            )
            timelines.append(
                fault_events(
                    spec, sample_seed, len(sampled.edge_keys()),
                    len(sampled.switches()), 40.0,
                )
            )
        path = tmp_path / "replay.trace"
        write_fault_trace(path, timelines)
        direct = self._report(tmp_path)
        replayed = run_serve_experiment(
            scenario=SCENARIO,
            arrivals=ARRIVALS,
            duration=40.0,
            warmup=5.0,
            replications=2,
            seed=3,
            workers=1,
            cache=ResultCache(tmp_path / "replay-cache"),
            faults=f"trace:file={path}",
        )
        for router_index in range(len(direct.labels)):
            assert (
                direct.metrics_for(router_index)
                == replayed.metrics_for(router_index)
            )
