"""Multi-seed replication runner for the online serving loop.

Fans one serve configuration out over ``replications`` independently
sampled networks — the sample seeds come from the exact harness
derivation the sweep grids use (:func:`sample_seeds`), so replication r
of a serve run rebuilds the same network as sample r of any sweep on
the same scenario/seed.  Replications execute through
:func:`parallel_map`; each one's event stream is addressed statelessly
from its sample seed, so the report is bit-identical whatever the
worker count.

Deterministic per-replication metrics round-trip through the shared
:class:`~repro.experiments.cache.ResultCache` under a ``serve``-kind
key (scenario + router + arrivals + duration + warmup + sample seed).
The key has no re-planning mode: every router re-plans through its one
``route`` entry, and entries written when a residual-view mode existed
stay valid because that path planned identically.  Re-plan latencies
are wall-clock and are never cached (cache hits report no latency).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.experiments.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    default_result_cache,
    payload_key,
    router_fingerprint,
)
from repro.experiments.config import default_workers
from repro.experiments.harness import parallel_map, sample_seeds
from repro.experiments.runner import reject_duplicate_labels
from repro.experiments.scenarios import ScenarioSpec
from repro.network.builder import build_network
from repro.service.arrivals import (
    ArrivalEvent,
    ArrivalSpec,
    poisson_events,
    read_trace,
    write_trace,
)
from repro.service.faults import (
    FaultEvent,
    FaultSpec,
    RepairSpec,
    fault_events,
    read_fault_trace,
)
from repro.service.loop import (
    ServeMetrics,
    check_horizon,
    latency_summary,
    run_serve,
)
from repro.utils.rng import ensure_rng

#: Cache entry kind tag for serve results.
SERVE_KIND = "serve"


def router_label(router) -> str:
    """The series label a router will report, knowable upfront."""
    label = getattr(router, "algorithm_label", None)
    if label is None:
        label = getattr(router, "name", None)
    return label if label is not None else type(router).__name__


def serve_key(
    scenario: ScenarioSpec,
    router,
    arrivals: ArrivalSpec,
    duration: float,
    warmup: float,
    sample_seed: int,
    faults: Optional[FaultSpec] = None,
    repair: Optional[RepairSpec] = None,
) -> str:
    """Content hash addressing one replication's deterministic metrics.

    Fault-free runs hash the exact pre-fault payload (no ``faults``
    key at all), so existing cache entries stay addressable; a fault
    spec extends the payload with its own identity and the repair
    policy (repair decisions change the metrics, so it must key).
    """
    payload = {
        "cache_format_version": CACHE_FORMAT_VERSION,
        "kind": SERVE_KIND,
        "scenario": scenario.config_dict(),
        "router": router_fingerprint(router),
        "arrivals": arrivals.config_dict(),
        "duration": duration,
        "warmup": warmup,
        "sample_seed": sample_seed,
    }
    if faults is not None:
        payload["faults"] = faults.config_dict()
        payload["repair"] = (
            repair if repair is not None else RepairSpec()
        ).config_dict()
    return payload_key(payload)


@dataclass(frozen=True)
class ServeTask:
    """One replication of one router's serving run (picklable unit)."""

    scenario: ScenarioSpec
    router: object
    router_index: int
    replication: int
    sample_seed: int
    arrivals: ArrivalSpec
    events: Optional[Tuple[ArrivalEvent, ...]]
    duration: float
    warmup: float
    collect_events: bool = False
    faults: Optional[FaultSpec] = None
    fault_timeline: Optional[Tuple[FaultEvent, ...]] = None
    repair: Optional[RepairSpec] = None


def _execute_serve_task(task: ServeTask) -> Dict:
    """Run one replication: rebuild its network, serve its events."""
    rng = ensure_rng(task.sample_seed)
    network = build_network(task.scenario.network_config(), rng)
    setting = task.scenario.setting()
    if task.events is not None:
        events = list(task.events)
    else:
        events = poisson_events(
            task.arrivals, task.sample_seed, len(network.users()),
            task.duration,
        )
    if task.fault_timeline is not None:
        timeline = list(task.fault_timeline)
    elif task.faults is not None:
        timeline = fault_events(
            task.faults, task.sample_seed, len(network.edge_keys()),
            len(network.switches()), task.duration,
        )
    else:
        timeline = []
    run = run_serve(
        network,
        setting.link_model(),
        setting.swap_model(),
        task.router,
        events,
        task.duration,
        task.warmup,
        faults=timeline,
        repair=task.repair,
    )
    result = {
        "router_index": task.router_index,
        "replication": task.replication,
        "metrics": dataclasses.asdict(run.metrics),
        "latencies_s": run.latencies_s,
        "repair_latencies_s": run.repair_latencies_s,
    }
    if task.collect_events:
        result["events"] = events
    return result


@dataclass(frozen=True)
class ServeReport:
    """The full serve run: per-replication metrics plus latency stats.

    ``rows`` maps ``(router_index, replication)`` to deterministic
    metrics; ``latencies_s`` pools re-plan latencies per router over
    the replications that actually executed (cache hits contribute
    none); ``cached`` counts hits per router.
    """

    scenario: ScenarioSpec
    arrivals: ArrivalSpec
    duration: float
    warmup: float
    replications: int
    seed: Optional[int]
    labels: List[str]
    rows: Dict[Tuple[int, int], ServeMetrics]
    latencies_s: Dict[int, List[float]]
    cached: Dict[int, int]
    faults: Optional[FaultSpec] = None
    repair: Optional[RepairSpec] = None
    repair_latencies_s: Dict[int, List[float]] = field(default_factory=dict)
    baseline_throughput: Optional[Dict[int, float]] = None

    def metrics_for(self, router_index: int) -> List[ServeMetrics]:
        """One router's metrics, in replication order."""
        return [
            self.rows[(router_index, replication)]
            for replication in range(self.replications)
        ]

    def mean_metrics_for(self, router_index: int) -> ServeMetrics:
        """One router's replication-aggregated row (counters summed,
        ratios and time averages meaned)."""
        series = self.metrics_for(router_index)
        n = len(series)
        return ServeMetrics(
            arrivals=sum(m.arrivals for m in series),
            admitted=sum(m.admitted for m in series),
            rejected=sum(m.rejected for m in series),
            admission_ratio=sum(m.admission_ratio for m in series) / n,
            throughput=sum(m.throughput for m in series) / n,
            mean_held=sum(m.mean_held for m in series) / n,
            mean_hold=sum(m.mean_hold for m in series) / n,
            disruptions=sum(m.disruptions for m in series),
            repaired=sum(m.repaired for m in series),
            dropped=sum(m.dropped for m in series),
            repair_ratio=sum(m.repair_ratio for m in series) / n,
        )

    def to_text(self) -> str:
        """Deterministic stdout report (header, per-replication rows,
        per-router means) — a pure function of the run's spec.

        Without faults the text is byte-identical to the pre-fault
        report; an active fault spec extends the header and adds the
        disruption/repair columns plus a per-router degradation line
        against the fault-free companion run.
        """
        header_line = (
            "online serve: "
            f"scenario={self.scenario.to_string()} "
            f"arrivals={self.arrivals.to_string()} "
            f"duration={self.duration!r} warmup={self.warmup!r} "
            f"replications={self.replications} seed={self.seed}"
        )
        if self.faults is not None:
            repair = self.repair if self.repair is not None else RepairSpec()
            header_line += (
                f" faults={self.faults.to_string()} "
                f"repair={repair.to_string()}"
            )
        lines = [header_line]
        width = max(len(label) for label in self.labels) + 2
        header = (
            f"{'router':<{width}}{'rep':>5}{'arrivals':>10}"
            f"{'admitted':>10}{'ratio':>9}{'throughput':>13}"
            f"{'mean-held':>11}{'mean-hold':>11}"
        )
        if self.faults is not None:
            header += f"{'disrupt':>9}{'repaired':>10}{'dropped':>9}"
        lines.append(header)
        lines.append("-" * len(header))

        def row(label: str, rep: str, m: ServeMetrics) -> str:
            text = (
                f"{label:<{width}}{rep:>5}{m.arrivals:>10}"
                f"{m.admitted:>10}{m.admission_ratio:>9.4f}"
                f"{m.throughput:>13.6f}{m.mean_held:>11.4f}"
                f"{m.mean_hold:>11.4f}"
            )
            if self.faults is not None:
                text += (
                    f"{m.disruptions:>9}{m.repaired:>10}{m.dropped:>9}"
                )
            return text

        for router_index, label in enumerate(self.labels):
            series = self.metrics_for(router_index)
            for replication, metrics in enumerate(series):
                lines.append(row(label, str(replication), metrics))
            mean = self.mean_metrics_for(router_index)
            lines.append(row(label, "mean", mean))
            if (
                self.baseline_throughput is not None
                and router_index in self.baseline_throughput
            ):
                base = self.baseline_throughput[router_index]
                degradation = (
                    (base - mean.throughput) / base * 100.0 if base else 0.0
                )
                lines.append(
                    f"{label}: fault-free throughput {base:.6f} -> "
                    f"{mean.throughput:.6f} under faults "
                    f"(degradation {degradation:.2f}%)"
                )
        return "\n".join(lines)

    def latency_text(self) -> str:
        """Wall-clock latency report (stderr only, never cached)."""
        lines = []
        for router_index, label in enumerate(self.labels):
            pooled = self.latencies_s.get(router_index, [])
            if not pooled:
                lines.append(
                    f"re-plan latency [{label}]: all "
                    f"{self.replications} replication(s) served from "
                    "cache; latency not re-measured"
                )
                continue
            stats = latency_summary(pooled)
            note = ""
            if self.cached.get(router_index):
                note = (
                    f" ({self.cached[router_index]} cached replication(s) "
                    "excluded)"
                )
            lines.append(
                f"re-plan latency [{label}]: "
                f"n={stats['count']} p50={stats['p50_ms']:.2f}ms "
                f"p99={stats['p99_ms']:.2f}ms "
                f"mean={stats['mean_ms']:.2f}ms{note}"
            )
        if self.faults is None:
            return "\n".join(lines)
        for router_index, label in enumerate(self.labels):
            pooled = self.repair_latencies_s.get(router_index, [])
            if not pooled:
                lines.append(
                    f"recovery latency [{label}]: no repair "
                    "attempts measured (cache hits or no disruptions)"
                )
                continue
            stats = latency_summary(pooled)
            lines.append(
                f"recovery latency [{label}]: "
                f"n={stats['count']} p50={stats['p50_ms']:.2f}ms "
                f"p99={stats['p99_ms']:.2f}ms "
                f"mean={stats['mean_ms']:.2f}ms"
            )
        return "\n".join(lines)


def _metrics_from_entry(entry: Dict) -> Optional[ServeMetrics]:
    """Reconstruct cached metrics, rejecting malformed entries."""
    fields = {f.name for f in dataclasses.fields(ServeMetrics)}
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict) or set(metrics) != fields:
        return None
    values = {}
    for name in (
        "arrivals", "admitted", "rejected",
        "disruptions", "repaired", "dropped",
    ):
        value = metrics[name]
        if not isinstance(value, int) or isinstance(value, bool):
            return None
        values[name] = value
    for name in (
        "admission_ratio", "throughput", "mean_held", "mean_hold",
        "repair_ratio",
    ):
        value = metrics[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        values[name] = float(value)
    return ServeMetrics(**values)


def run_serve_experiment(
    scenario: Union[str, ScenarioSpec] = "paper-default",
    routers: Optional[Sequence] = None,
    arrivals: Union[str, ArrivalSpec, None] = None,
    duration: float = 200.0,
    warmup: float = 20.0,
    replications: int = 3,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    record_trace: Optional[str] = None,
    faults: Union[str, FaultSpec, None] = None,
    repair: Union[str, RepairSpec, None] = None,
) -> ServeReport:
    """Serve one scenario under one arrival process, replicated.

    ``routers`` defaults to ALG-N-FUSION *without* Algorithm 4: the
    batch end-stage spends every leftover qubit widening the current
    plan, which in continuous operation would let each admitted flow
    starve all later arrivals.  ``seed`` defaults to the harness seed;
    ``replications`` is overridden by a trace's recorded count.
    ``record_trace`` writes the (Poisson) event streams to a replayable
    trace file and forces fresh execution (a cache hit has no events).

    ``faults`` turns on fault injection (a :class:`FaultSpec` or its
    string form); ``repair`` picks the recovery policy and defaults to
    ``reroute`` when faults are active.  A fault run also serves the
    same configuration fault-free (one recursive call, sharing the
    cache and workers) so the report can state throughput degradation.
    """
    from repro.routing.registry import parse_router_specs

    scenario = ScenarioSpec.coerce(scenario)
    arrivals = ArrivalSpec.coerce(arrivals)
    faults = FaultSpec.coerce(faults) if faults is not None else None
    if repair is not None and faults is None:
        raise ConfigurationError(
            "a repair policy needs an active fault spec; pass faults="
        )
    if faults is not None:
        repair = RepairSpec.coerce(repair)
    check_horizon(duration, warmup)
    if routers is None:
        routers = [
            spec.build()
            for spec in parse_router_specs("alg-n-fusion:include_alg4=false")
        ]
    routers = [
        router.build() if hasattr(router, "build") else router
        for router in routers
    ]
    reject_duplicate_labels(routers)
    if workers is None:
        workers = default_workers()
    if cache is None:
        cache = default_result_cache()

    trace_events: Optional[List[List[ArrivalEvent]]] = None
    if arrivals.kind == "trace":
        if record_trace is not None:
            raise ConfigurationError(
                "cannot --record-trace from a trace replay; it would "
                "copy the input file"
            )
        trace_events = read_trace(arrivals.file)
        replications = len(trace_events)
    fault_traces: Optional[List[List[FaultEvent]]] = None
    if faults is not None and faults.kind == "trace":
        fault_traces = read_fault_trace(faults.file)
        if trace_events is not None and len(fault_traces) != replications:
            raise ConfigurationError(
                f"fault trace records {len(fault_traces)} replication(s) "
                f"but the arrival trace records {replications}"
            )
        replications = len(fault_traces)
    if replications < 1:
        raise ConfigurationError(
            f"replications must be >= 1, got {replications}"
        )

    setting = scenario.setting(num_networks=replications, seed=seed)
    seeds = sample_seeds(setting)
    labels = [router_label(router) for router in routers]

    rows: Dict[Tuple[int, int], ServeMetrics] = {}
    cached: Dict[int, int] = {}
    tasks: List[ServeTask] = []
    keys: Dict[Tuple[int, int], str] = {}
    for router_index, router in enumerate(routers):
        for replication, sample_seed in enumerate(seeds):
            key = serve_key(
                scenario, router, arrivals, duration, warmup, sample_seed,
                faults=faults, repair=repair,
            )
            keys[(router_index, replication)] = key
            if cache is not None and record_trace is None:
                entry = cache.get_json(key, SERVE_KIND)
                metrics = (
                    _metrics_from_entry(entry) if entry is not None else None
                )
                if metrics is not None:
                    rows[(router_index, replication)] = metrics
                    cached[router_index] = cached.get(router_index, 0) + 1
                    continue
            tasks.append(
                ServeTask(
                    scenario=scenario,
                    router=router,
                    router_index=router_index,
                    replication=replication,
                    sample_seed=sample_seed,
                    arrivals=arrivals,
                    events=(
                        tuple(trace_events[replication])
                        if trace_events is not None
                        else None
                    ),
                    duration=duration,
                    warmup=warmup,
                    collect_events=(
                        record_trace is not None and router_index == 0
                    ),
                    faults=faults,
                    fault_timeline=(
                        tuple(fault_traces[replication])
                        if fault_traces is not None
                        else None
                    ),
                    repair=repair,
                )
            )

    results = parallel_map(_execute_serve_task, tasks, workers)

    latencies: Dict[int, List[float]] = {}
    repair_latencies: Dict[int, List[float]] = {}
    recorded: Dict[int, List[ArrivalEvent]] = {}
    for task, result in zip(tasks, results):
        position = (result["router_index"], result["replication"])
        metrics = ServeMetrics(**result["metrics"])
        rows[position] = metrics
        latencies.setdefault(result["router_index"], []).extend(
            result["latencies_s"]
        )
        repair_latencies.setdefault(result["router_index"], []).extend(
            result["repair_latencies_s"]
        )
        if "events" in result:
            recorded[result["replication"]] = result["events"]
        if cache is not None:
            cache.put_json(
                keys[position], SERVE_KIND,
                {"metrics": result["metrics"]},
            )

    if record_trace is not None:
        write_trace(
            record_trace,
            [recorded[r] for r in range(replications)],
        )

    baseline_throughput: Optional[Dict[int, float]] = None
    if faults is not None:
        # The degradation line needs the fault-free companion run; it
        # shares cache and workers, so repeated fault runs pay for the
        # baseline once.
        baseline = run_serve_experiment(
            scenario=scenario,
            routers=routers,
            arrivals=arrivals,
            duration=duration,
            warmup=warmup,
            replications=replications,
            seed=seed,
            workers=workers,
            cache=cache,
        )
        baseline_throughput = {
            router_index: baseline.mean_metrics_for(router_index).throughput
            for router_index in range(len(routers))
        }

    return ServeReport(
        scenario=scenario,
        arrivals=arrivals,
        duration=duration,
        warmup=warmup,
        replications=replications,
        seed=seed if seed is not None else setting.seed,
        labels=labels,
        rows=rows,
        latencies_s=latencies,
        cached=cached,
        faults=faults,
        repair=repair,
        repair_latencies_s=repair_latencies,
        baseline_throughput=baseline_throughput,
    )
