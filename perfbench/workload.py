"""One benchmark workload, run in its own process by ``run.py``.

Phases, in order:

1. imports, then ``gc.collect()``;
2. set-up, repeated :data:`SETUP_REPEATS` times with a ``gc.collect()``
   before each: every input of the run is generated from the workload
   seed — networks, demands, arrival streams and fault timelines;
3. ``gc.collect()``, then the op phase: a fixed set of units (sweep
   samples or serve replications), sized from ``--seconds`` and never
   from the machine's speed;
4. :data:`SETUP_REPEATS` more set-ups, timed and discarded, so that
   ``setup_s`` samples the machine at two moments a run apart;
5. output checks outside every timer (sweeps re-run their first op on
   the reference routing core), then one JSON line on stdout.

Every timed stretch is bracketed by the speed probe (:class:`Clock`) and
reported at reference machine speed; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import networkx
import numpy
from repro.experiments.estimators import estimate_plan, parse_estimator
from repro.experiments.harness import sample_seeds
from repro.experiments.scenarios import parse_scenario
from repro.network import builder, demands as demand_model
from repro.routing.compiled import (
    ROUTING_CORE_ENV,
    active_routing_core,
    fused_width_min,
)
from repro.routing.registry import parse_router_specs
from repro.service import arrivals, faults, loop
from repro.service.arrivals import parse_arrivals
from repro.service.faults import parse_faults, parse_repair
from repro.utils.rng import ensure_rng

from tracing import Tracer

#: Set-ups timed before the op phase, and again after it; ``setup_s``
#: is the fastest of them.
SETUP_REPEATS = 4

#: Iterations of the speed probe's pure-Python loop.
PROBE_LOOPS = 10_000

#: The probe's time on the reference machine, a 2-core Xeon at its
#: fastest.  Reported times are rescaled to this speed.
PROBE_REFERENCE_S = 0.6e-3

#: Machine speed at a probe is the median of the probes this many
#: places either side of it: one probe is noisy, the drift is slow.
PROBE_WINDOW = 16

#: Published in every result so a later claim can be re-checked on a
#: seed nobody tuned against (choosing-metrics section 6.3).
HELDOUT_SEED = 7919

SWEEP_PAPER = "sweep-paper"
SWEEP_LARGE_MC = "sweep-large-mc"
SERVE_FAULTS = "serve-faults"

#: Per workload: inputs, op definition and size.  A run serves
#: ``round(seconds * units_per_s)`` units (sweep samples or serve
#: replications), sized so that the op phase takes about ``--seconds``
#: on the reference machine.
WORKLOADS: Dict[str, dict] = {
    SWEEP_PAPER: {
        "scenario": "paper-default",
        "routers": "alg-n-fusion,q-cast-n,b1,q-cast",
        "estimator": None,
        "units_per_s": 1.8,
    },
    SWEEP_LARGE_MC: {
        "scenario": "waxman:switches=200",
        "routers": "alg-n-fusion",
        "estimator": "mc:trials=2000,link_survival=0.9,switch_survival=0.95",
        "units_per_s": 1.6,
    },
    # Many short sessions rather than a few long ones: op cost depends
    # strongly on the sampled network, so more networks per run steady
    # the timings from seed to seed.
    SERVE_FAULTS: {
        "scenario": "paper-default",
        "routers": "alg-n-fusion:include_alg4=false",
        "arrivals": "poisson:rate=0.3,hold=exp:mean=30",
        "faults": "faults:link_mtbf=60,link_mttr=15,switch_p=0.01",
        "repair": "reroute:retries=2,backoff=exp:base=0.5",
        "duration": 60.0,
        "warmup": 15.0,
        "units_per_s": 0.64,
    },
}

#: Toy sizes for the self-tests: every layer still runs.
TOY = {
    SWEEP_PAPER: {"units": 2},
    SWEEP_LARGE_MC: {"units": 2},
    SERVE_FAULTS: {"units": 1},
}

#: Layers each workload must enter at least once (trace coverage guard).
EXPECTED_LAYERS = {
    SWEEP_PAPER: (
        "network.build", "routing.compiled.compile", "routing.compiled.search",
        "routing.alg2.select_paths", "routing.alg3.admit",
        "routing.alg3.trial_merge", "routing.flow_graph.eq1",
        "routing.flow_graph.copy", "routing.allocation.probes",
        "routing.allocation.reserve", "routing.alg4.assign",
        "routing.router.alg-n-fusion", "routing.router.q-cast-n",
        "routing.router.b1", "routing.router.q-cast",
    ),
    SWEEP_LARGE_MC: (
        "network.build", "routing.compiled.compile", "routing.compiled.search",
        "routing.alg2.select_paths", "routing.alg3.admit",
        "routing.alg3.trial_merge", "routing.flow_graph.eq1",
        "routing.allocation.probes", "routing.allocation.reserve",
        "routing.alg4.assign", "routing.router.alg-n-fusion",
        "simulation.mc.estimate",
    ),
    SERVE_FAULTS: (
        "network.build", "service.timelines", "routing.compiled.compile",
        "routing.compiled.search", "routing.alg2.select_paths",
        "routing.alg3.admit", "routing.alg3.trial_merge",
        "routing.flow_graph.eq1", "routing.allocation.probes",
        "routing.allocation.reserve", "routing.allocation.release",
        "service.route_arrival", "service.release_flow",
        "service.event_loop",
    ),
}

#: Layers whose time and calls are spent in set-up, reported per set-up.
SETUP_LAYERS = ("network.build", "service.timelines")

#: One timed stretch: (seconds, first probe, last probe), the probes
#: given as indices into ``Clock.probes``.
Stretch = Tuple[float, int, int]


class Clock:
    """Times stretches of work and probes machine speed around each.

    The probe is a fixed pure-Python loop, run once after every timed
    stretch.  A stretch is recorded with the probes just before and just
    after it.  On a shared machine whose speed drifts by tens of percent
    within a minute, the probe slows with the program, so ``seconds *
    PROBE_REFERENCE_S / probe`` is the stretch's time at reference
    speed, where ``probe`` is the machine speed around the stretch
    (:meth:`at_reference`).  The probe runs outside every timed
    stretch, and the program cannot change it.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.probes: List[float] = []
        #: Probe time spent so far, to take out of enclosing walls.
        self.spent = 0.0
        self._smoothed: List[float] = []
        self.probe()

    def probe(self) -> float:
        t0 = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        elapsed = perf_counter() - t0
        self.probes.append(elapsed)
        self.spent += elapsed
        if self.tracer is not None:
            self.tracer.exclude(elapsed)
        return elapsed

    def close(self, seconds: float) -> Stretch:
        """Record a stretch of *seconds* that just ended."""
        self.probe()
        return seconds, len(self.probes) - 2, len(self.probes) - 1

    def call(self, fn: Callable, *args):
        """``fn(*args)`` and its stretch."""
        t0 = perf_counter()
        result = fn(*args)
        return result, self.close(perf_counter() - t0)


    def at_reference(self, stretches: List[Stretch]) -> float:
        """Seconds of *stretches* at reference machine speed."""
        if len(self._smoothed) != len(self.probes):
            probes = self.probes
            self._smoothed = [
                statistics.median(
                    probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
                )
                for i in range(len(probes))
            ]
        smoothed = self._smoothed
        return sum(
            s * PROBE_REFERENCE_S
            / statistics.fmean(smoothed[first:last + 1])
            for s, first, last in stretches
        )


def unscaled(stretches: List[Stretch]) -> float:
    """Seconds of *stretches* as measured."""
    return sum(s for s, _, _ in stretches)


class RunState:
    """What the op phase accumulates: timings, failures and quality sums."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.clock = Clock(tracer)
        #: Per unit: its ops, each a list of stretches.
        self.ops: Dict[int, List[List[Stretch]]] = {}
        #: Per unit: its wall time, probes excluded, as stretches.
        self.walls: Dict[int, List[Stretch]] = {}
        self.attempted = 0
        self.failed = 0
        self.rates: List[float] = []
        self.routed = 0
        self.offered = 0
        self.disruptions = 0
        self.repaired = 0
        #: Op-phase wall time, probes and explicit collections excluded.
        self.wall = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def latencies(self, seconds=None) -> List[float]:
        seconds = seconds or self.clock.at_reference
        return [seconds(op) for unit in sorted(self.ops)
                for op in self.ops[unit]]

    def busy(self, seconds=None) -> float:
        seconds = seconds or self.clock.at_reference
        return sum(seconds(wall) for wall in self.walls.values())


# ----------------------------------------------------------------------
# Output checks


def plan_problems(network, result) -> List[str]:
    """Capacity and rate violations of one routing result."""
    problems = []
    for node, used in result.plan.qubits_used().items():
        capacity = network.qubit_capacity(node)
        if capacity is not None and used > capacity:
            problems.append(
                f"{result.algorithm}: node {node} uses {used} of {capacity} "
                "qubits"
            )
    for demand_id, rate in result.demand_rates.items():
        if not (math.isfinite(rate) and rate >= 0.0):
            problems.append(
                f"{result.algorithm}: demand {demand_id} rate {rate!r}"
            )
    if not (math.isfinite(result.total_rate) and result.total_rate >= 0.0):
        problems.append(f"{result.algorithm}: total rate {result.total_rate!r}")
    return problems


# ----------------------------------------------------------------------
# Sweeps: one op = one fresh sample routed cold by every router


class Sweep:
    def __init__(self, config: dict):
        self.config = config
        self.scenario = parse_scenario(config["scenario"])
        self.router_specs = parse_router_specs(config["routers"])
        self.routers = [spec.build() for spec in self.router_specs]
        self.estimator = (
            parse_estimator(config["estimator"])
            if config["estimator"] else None
        )
        self.first = None

    def build(self, sample_seed: int):
        rng = ensure_rng(sample_seed)
        network = builder.build_network(self.setting.network, rng)
        demands = demand_model.generate_demands(
            network, self.setting.num_states, rng
        )
        return network, demands

    def setup(self, seed: int, units: int, clock: Clock):
        """Per sample: its seed, network and demands; and the stretches
        that built them."""
        self.setting = self.scenario.setting(num_networks=units, seed=seed)
        pool, stretches = [], []
        for sample_seed in sample_seeds(self.setting):
            (network, demands), stretch = clock.call(self.build, sample_seed)
            pool.append((sample_seed, network, demands))
            stretches.append(stretch)
        return pool, stretches

    @staticmethod
    def digest(pool) -> str:
        h = hashlib.sha256()
        for sample_seed, network, demands in pool:
            h.update(repr((sample_seed, network.edge_keys(), [
                (d.source, d.destination) for d in demands
            ])).encode())
        return h.hexdigest()[:16]

    def route_all(self, network, demands):
        link = self.setting.link_model()
        swap = self.setting.swap_model()
        return [router.route(network, demands, link, swap)
                for router in self.routers]

    def run(self, pool, state: RunState, tracer: Optional[Tracer]) -> None:
        link = self.setting.link_model()
        swap = self.setting.swap_model()
        clock = state.clock
        spent = clock.spent
        start = perf_counter()
        for index in range(len(pool)):
            sample_seed, network, demands = pool[index]
            pool[index] = None
            if tracer is not None:
                tracer.op = index
            state.attempted += 1
            # One op: every router's route(), then the estimate; each
            # call is its own timed stretch.
            stretches = []
            try:
                results = []
                for router in self.routers:
                    result, stretch = clock.call(
                        router.route, network, demands, link, swap
                    )
                    results.append(result)
                    stretches.append(stretch)
                estimate = None
                if self.estimator is not None:
                    estimate, stretch = clock.call(
                        estimate_plan, self.estimator, network,
                        results[0].plan, link, swap, sample_seed,
                    )
                    stretches.append(stretch)
            except Exception:
                state.fail(f"op {index}: {traceback.format_exc()}")
                continue
            state.ops[index] = [stretches]
            state.walls[index] = stretches
            problems = [
                problem for result in results
                for problem in plan_problems(network, result)
            ]
            if estimate is not None and not (
                math.isfinite(estimate.mean) and estimate.mean >= 0.0
            ):
                problems.append(f"MC estimate {estimate.mean!r}")
            if problems:
                state.fail(f"op {index}: " + "; ".join(problems[:3]))
            lead = results[0]
            state.rates.append(
                estimate.mean if estimate is not None else lead.total_rate
            )
            state.routed += lead.num_routed
            state.offered += len(demands)
            if index == 0:
                self.first = [r.demand_rates for r in results]
            # Dropped outside the op timer: a routed instance holds its
            # snapshot and search memo (hundreds of MB over a run).
            del network, demands, results, estimate
        state.wall += perf_counter() - start - (clock.spent - spent)

    def reference_check(self, state: RunState) -> None:
        """Re-run the first op on the reference core; rates must match."""
        if self.first is None:
            state.fail("reference check: first op did not complete")
            return
        network, demands = self.build(sample_seeds(self.setting)[0])
        previous = os.environ.get(ROUTING_CORE_ENV)
        os.environ[ROUTING_CORE_ENV] = "reference"
        try:
            reference = self.route_all(network, demands)
        finally:
            if previous is None:
                del os.environ[ROUTING_CORE_ENV]
            else:
                os.environ[ROUTING_CORE_ENV] = previous
        for spec, ref, rates in zip(self.router_specs, reference,
                                    self.first):
            if ref.demand_rates != rates:
                state.fail(
                    f"reference check: {spec} demand_rates differ on the "
                    "reference core"
                )


# ----------------------------------------------------------------------
# Serve: one op = one ServeSession.route_arrival (arrival or repair)


class Serve:
    def __init__(self, config: dict):
        self.config = config
        self.scenario = parse_scenario(config["scenario"])
        self.router = parse_router_specs(config["routers"])[0].build()
        self.arrivals = parse_arrivals(config["arrivals"])
        self.faults = parse_faults(config["faults"])
        self.repair = parse_repair(config["repair"])

    def build(self, sample_seed: int):
        duration = self.config["duration"]
        network = builder.build_network(
            self.setting.network, ensure_rng(sample_seed)
        )
        events = arrivals.poisson_events(
            self.arrivals, sample_seed, len(network.users()), duration
        )
        timeline = faults.fault_events(
            self.faults, sample_seed, len(network.edge_keys()),
            len(network.switches()), duration,
        )
        return sample_seed, network, events, timeline

    def setup(self, seed: int, units: int, clock: Clock):
        """The replications' inputs, derived as the serve runner does:
        replication r serves sample r of the scenario at *seed*; and the
        stretches that built them."""
        self.setting = self.scenario.setting(num_networks=units, seed=seed)
        pool, stretches = [], []
        for sample_seed in sample_seeds(self.setting):
            inputs, stretch = clock.call(self.build, sample_seed)
            pool.append(inputs)
            stretches.append(stretch)
        return pool, stretches

    @staticmethod
    def digest(pool) -> str:
        h = hashlib.sha256()
        for sample_seed, network, events, timeline in pool:
            h.update(repr((sample_seed, network.edge_keys(), [
                (e.time, e.source_index, e.dest_index, e.hold) for e in events
            ], [(f.time, f.kind, f.element) for f in timeline])).encode())
        return h.hexdigest()[:16]

    def _install_op_timer(self, state: RunState):
        """Time every ``route_arrival`` from outside and check its result."""
        original = loop.ServeSession.route_arrival
        clock = state.clock

        def route_arrival(session, demand):
            state.attempted += 1
            try:
                routed, stretch = clock.call(original, session, demand)
            except Exception as error:
                state.fail(f"route_arrival raised {error!r}")
                error.counted = True
                raise
            self.ops.append([stretch])
            if routed is not None:
                flow, rate = routed
                if not (math.isfinite(rate) and rate >= 0.0):
                    state.fail(f"arrival rate {rate!r}")
                for node in flow.nodes():
                    capacity = session.network.qubit_capacity(node)
                    if capacity is not None and (
                        flow.qubits_used_at(node) > capacity
                        or session.ledger.remaining(node) < 0
                    ):
                        state.fail(f"node {node} over capacity")
            return routed

        loop.ServeSession.route_arrival = route_arrival
        return original

    def run(self, pool, state: RunState, tracer: Optional[Tracer]) -> None:
        original = self._install_op_timer(state)
        link = self.setting.link_model()
        swap = self.setting.swap_model()
        clock = state.clock
        paused = 0.0
        spent = clock.spent
        start = perf_counter()
        try:
            for index in range(len(pool)):
                if index:
                    # The previous session's heap: collected here, not
                    # inside the next replication's first ops.
                    t0 = perf_counter()
                    collect(tracer)
                    paused += perf_counter() - t0
                _, network, events, timeline = pool[index]
                pool[index] = None
                if tracer is not None:
                    tracer.op = index
                self.ops = []
                first_probe = len(clock.probes) - 1
                unit_spent = clock.spent
                try:
                    t0 = perf_counter()
                    run = loop.run_serve(
                        network, link, swap, self.router, events,
                        self.config["duration"], self.config["warmup"],
                        "incremental", faults=timeline, repair=self.repair,
                    )
                    t1 = perf_counter()
                except Exception as error:
                    if not getattr(error, "counted", False):
                        state.fail(f"replication {index}: "
                                   f"{traceback.format_exc()}")
                    continue
                state.ops[index] = self.ops
                # The replication's wall time, at the machine speed over
                # its ops: it includes the event loop between them.
                state.walls[index] = [(
                    t1 - t0 - (clock.spent - unit_spent),
                    first_probe, len(clock.probes) - 1,
                )]
                metrics = run.metrics
                if metrics.admitted + metrics.rejected != metrics.arrivals:
                    state.fail(f"replication {index}: admitted + rejected "
                               "!= arrivals")
                if metrics.repaired + metrics.dropped != metrics.disruptions:
                    state.fail(f"replication {index}: repaired + dropped "
                               "!= disruptions")
                if not (math.isfinite(metrics.throughput)
                        and metrics.throughput >= 0.0):
                    state.fail(f"replication {index}: throughput "
                               f"{metrics.throughput!r}")
                state.rates.append(metrics.throughput)
                state.routed += metrics.admitted
                state.offered += metrics.arrivals
                state.disruptions += metrics.disruptions
                state.repaired += metrics.repaired
                del network, events, timeline, run
        finally:
            loop.ServeSession.route_arrival = original
        state.wall += (perf_counter() - start - paused
                       - (clock.spent - spent))

    def reference_check(self, state: RunState) -> None:
        """Serve has no reference re-run; its invariants are checked per
        replication."""


# ----------------------------------------------------------------------
# Metrics


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``
    inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timings(state: RunState, seconds=None) -> Dict[str, float]:
    latencies = state.latencies(seconds)
    return {
        "ops_per_s": len(latencies) / state.busy(seconds),
        "op_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "op_p90_ms": percentile(latencies, 0.90) * 1000.0,
    }


def end_to_end(state: RunState, setups: List[List[Stretch]],
               rss_mb: float) -> Dict[str, float]:
    return {
        "setup_s": min(state.clock.at_reference(setup) for setup in setups),
        **timings(state),
        "peak_rss_mb": rss_mb,
        "rate_mean": statistics.fmean(state.rates),
        "admission_ratio": state.routed / state.offered,
    }


def per_layer(tracer: Tracer, setup: Dict[str, Dict[str, float]],
              state: RunState, ops: int,
              rss_after_setup: float) -> Dict[str, float]:
    calls = tracer.calls
    self_ms = {name: s * 1000.0 for name, s in tracer.self_s.items()}

    def per_op_calls(name: str) -> float:
        return calls.get(name, 0) / ops

    def per_op_ms(name: str) -> float:
        return self_ms.get(name, 0.0) / ops

    tally = tracer.tally
    layered_ms = sum(self_ms.values())
    metrics = {
        "network.build.calls": setup["network.build"]["calls"],
        "network.build.ms": setup["network.build"]["ms"],
        "service.timelines.ms": setup["service.timelines"]["ms"],
        "routing.compiled.compile.calls":
            per_op_calls("routing.compiled.compile"),
        "routing.compiled.compile.ms": per_op_ms("routing.compiled.compile"),
        "routing.compiled.search.calls": tally["search.answered"] / ops,
        "routing.compiled.search.ms": per_op_ms("routing.compiled.search"),
        "routing.compiled.search.found_ratio": ratio(
            tally["search.found"], tally["search.answered"]),
        "routing.alg2.select_paths.calls":
            per_op_calls("routing.alg2.select_paths"),
        "routing.alg2.select_paths.ms": per_op_ms("routing.alg2.select_paths"),
        "routing.alg3.admit.calls": per_op_calls("routing.alg3.admit"),
        "routing.alg3.admit.ms": per_op_ms("routing.alg3.admit"),
        "routing.alg3.admit.yield": ratio(
            tally["admit.paths"], calls.get("routing.alg3.trial_merge", 0)),
        "routing.flow_graph.eq1.calls": per_op_calls("routing.flow_graph.eq1"),
        "routing.flow_graph.eq1.ms": per_op_ms("routing.flow_graph.eq1"),
        "routing.flow_graph.copy.calls":
            per_op_calls("routing.flow_graph.copy"),
        "routing.allocation.probes": per_op_calls("routing.allocation.probes"),
        "routing.allocation.reserve.calls":
            per_op_calls("routing.allocation.reserve"),
        "routing.allocation.release.calls":
            per_op_calls("routing.allocation.release"),
        "routing.alg4.assign.ms": per_op_ms("routing.alg4.assign"),
        "routing.router.alg-n-fusion.ms":
            per_op_ms("routing.router.alg-n-fusion"),
        "routing.router.q-cast-n.ms": per_op_ms("routing.router.q-cast-n"),
        "routing.router.b1.ms": per_op_ms("routing.router.b1"),
        "routing.router.q-cast.ms": per_op_ms("routing.router.q-cast"),
        "simulation.mc.estimate.calls": per_op_calls("simulation.mc.estimate"),
        "simulation.mc.estimate.ms": per_op_ms("simulation.mc.estimate"),
        "service.route_arrival.ms": per_op_ms("service.route_arrival"),
        "service.release_flow.calls": per_op_calls("service.release_flow"),
        "service.release_flow.ms": per_op_ms("service.release_flow"),
        "service.event_loop.ms": per_op_ms("service.event_loop"),
        "service.disruptions": state.disruptions / ops,
        "service.repair_ratio": ratio(state.repaired, state.disruptions),
        "runtime.gc.ms": tracer.gc_s * 1000.0 / ops,
        "runtime.gc.full_collections": tracer.gc_full,
        "runtime.rss_after_setup_mb": rss_after_setup,
        "trace.unattributed.ms": (state.wall * 1000.0 - layered_ms) / ops,
    }
    return metrics


def collect(tracer: Optional[Tracer]) -> None:
    """An explicit full collection, kept out of the traced GC totals."""
    if tracer is None:
        gc.collect()
        return
    saved = tracer.gc_s, tracer.gc_full
    gc.collect()
    tracer.gc_s, tracer.gc_full = saved


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metadata(args, units: int, digest: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(os.getcwd()):
            sha = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_digest": source_digest(),
        "routing_core": active_routing_core(),
        "fused_width_min": fused_width_min(),
        "units": units,
        "input_digest": digest,
        "repro_env": {k: v for k, v in sorted(os.environ.items())
                      if k.startswith("REPRO_")},
    }


def source_digest() -> str:
    """Digest of ``src/`` — identifies the code in a checkout without
    git."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------


def timed_setup(workload, seed: int, units: int, clock: Clock,
                setups: List[List[Stretch]]):
    """One set-up after a full collection; its stretches join
    *setups*."""
    gc.collect()
    pool, stretches = workload.setup(seed, units, clock)
    setups.append(stretches)
    return pool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="self-test sizes")
    parser.add_argument("--spans", help="write span records to this file")
    args = parser.parse_args(argv)

    config = dict(WORKLOADS[args.workload])
    if args.toy:
        config.update(TOY[args.workload])
    units = config.get("units") or max(
        1, round(args.seconds * config["units_per_s"])
    )
    workload = (Serve if args.workload == SERVE_FAULTS else Sweep)(config)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    state = RunState(tracer)
    setups: List[List[Stretch]] = []
    pool = None
    for _ in range(SETUP_REPEATS):
        pool = None
        pool = timed_setup(workload, args.seed, units, state.clock, setups)
    setup_layers = {}
    if tracer is not None:
        for name in SETUP_LAYERS:
            setup_layers[name] = {
                "calls": tracer.calls.get(name, 0) / SETUP_REPEATS,
                "ms": tracer.self_s.get(name, 0.0) * 1000.0 / SETUP_REPEATS,
            }
    digest = workload.digest(pool)
    rss_after_setup = peak_rss_mb()

    gc.collect()
    if tracer is not None:
        tracer.reset()
    workload.run(pool, state, tracer)
    rss_mb = peak_rss_mb()
    del pool
    ops = len(state.latencies())

    result = {"attempted": state.attempted, "failed": 0, "ops": ops,
              "busy_s": state.busy() if ops else 0.0}
    if tracer is not None:
        tracer.uninstall()
        layer_metrics = per_layer(tracer, setup_layers, state, max(1, ops),
                                  rss_after_setup)
        entered = dict(tracer.calls)
        for name, totals in setup_layers.items():
            entered[name] = totals["calls"]
        missing = [name for name in EXPECTED_LAYERS[args.workload]
                   if not entered.get(name)]
        if missing:
            state.fail("trace coverage: never entered " + ", ".join(missing))
        result["per_layer"] = layer_metrics
        result["calls"] = dict(sorted(entered.items()))
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        for _ in range(SETUP_REPEATS):
            timed_setup(workload, args.seed, units, state.clock, setups)
    workload.reference_check(state)
    if not ops or not state.rates:
        state.fail("no op completed")
        result["end_to_end"] = {}
    else:
        result["end_to_end"] = end_to_end(state, setups, rss_mb)
    result["failed"] = state.failed
    result["meta"] = metadata(args, units, digest)
    result["meta"]["ops"] = ops
    if ops:
        # The same timings as measured, before rescaling.
        result["meta"]["unscaled"] = {
            "setup_s": min(unscaled(setup) for setup in setups),
            **timings(state, unscaled),
        }
    probes = state.clock.probes
    result["meta"]["probe_ms"] = {
        "reference": PROBE_REFERENCE_S * 1000.0,
        "fastest": min(probes) * 1000.0,
        "median": statistics.median(probes) * 1000.0,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
