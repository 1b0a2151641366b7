"""Benchmark: the serving loop's re-plan against the residual-view oracle.

Serves the same Poisson arrival stream on the paper-default scenario
twice and times the whole serving loop: once through the router's own
``route`` on the session ledger, rate cache and bans (the program's one
re-plan path), and once through
:class:`~repro.service.residual.ResidualViewRouter`, which rebuilds a
residual network per arrival and routes it cold.  The two plan
identically — asserted on the full deterministic metrics — so the only
thing the session path buys is speed: it must stay measurably
(>= 1.3x) faster than rebuilding a residual network per arrival, or
the session-long snapshot, relay flags and search memo have regressed
into pure overhead.

Results land in ``benchmarks/results/serve.txt`` plus a
machine-readable ``serve.json`` twin (per-path wall time, re-plan
latency percentiles, speedup).
"""

import dataclasses
import time

from repro.experiments.config import is_full_run
from repro.experiments.scenarios import parse_scenario
from repro.network.builder import build_network
from repro.routing.registry import make_router
from repro.service.arrivals import parse_arrivals, poisson_events
from repro.service.faults import fault_events, parse_faults
from repro.service.loop import latency_summary, run_serve
from repro.service.residual import ResidualViewRouter
from repro.utils.rng import ensure_rng
from repro.utils.tables import AsciiTable

from conftest import report

SCENARIO = "paper-default"
ARRIVALS = "poisson:rate=2.0,hold=exp:mean=30"
SEED = 7
WARMUP = 20.0

#: Per-path timing: best of ROUNDS full serving-loop runs.
ROUNDS = 3

#: The session path's acceptance bar over the residual-view oracle.
MIN_SPEEDUP = 1.3

#: The two re-plan paths: the program's, then the oracle.
MODES = ("incremental", "resnapshot")


def _served_router(mode):
    router = make_router("alg-n-fusion", include_alg4=False)
    return router if mode == "incremental" else ResidualViewRouter(router)

#: Standard fault load for the repair bench: element up-times on the
#: order of the mean holding time, so a sizeable fraction of held flows
#: is disrupted and the repair path dominates the loop.
FAULTS = "faults:link_mtbf=60,link_mttr=15,switch_p=0.01"
REPAIR = "reroute:retries=2,backoff=exp:base=0.5"


def test_serve_incremental_vs_resnapshot():
    duration = 400.0 if is_full_run() else 120.0
    scenario = parse_scenario(SCENARIO)
    network = build_network(scenario.network_config(), ensure_rng(SEED))
    setting = scenario.setting()
    arrivals = parse_arrivals(ARRIVALS)
    events = poisson_events(arrivals, SEED, len(network.users()), duration)

    timings = {}
    runs = {}
    for mode in MODES:
        best = float("inf")
        for _ in range(ROUNDS):
            router = _served_router(mode)
            start = time.perf_counter()
            run = run_serve(
                network,
                setting.link_model(),
                setting.swap_model(),
                router,
                events,
                duration,
                WARMUP,
            )
            best = min(best, time.perf_counter() - start)
        timings[mode] = best
        runs[mode] = run

    # Decision parity: the session path must agree with the oracle on
    # every deterministic metric.
    assert (
        runs["incremental"].metrics == runs["resnapshot"].metrics
    ), "the session re-plan diverged from the residual-view oracle"

    speedup = timings["resnapshot"] / timings["incremental"]
    metrics = runs["incremental"].metrics

    table = AsciiTable(
        ["mode", "loop (s)", "p50 (ms)", "p99 (ms)", "speedup"]
    )
    summaries = {}
    for mode in MODES:
        summaries[mode] = latency_summary(runs[mode].latencies_s)
        table.add_row([
            mode,
            f"{timings[mode]:.3f}",
            f"{summaries[mode]['p50_ms']:.2f}",
            f"{summaries[mode]['p99_ms']:.2f}",
            f"{speedup:.2f}x" if mode == "incremental" else "1.00x",
        ])
    report(
        "serve",
        f"Online serving: session re-plan (incremental) vs residual-view "
        f"oracle (resnapshot)\n"
        f"scenario={SCENARIO} arrivals={ARRIVALS} duration={duration!r} "
        f"warmup={WARMUP!r} seed={SEED} (best of {ROUNDS})\n"
        + table.render()
        + f"\narrivals={metrics.arrivals} admitted={metrics.admitted} "
        f"ratio={metrics.admission_ratio:.4f} "
        f"throughput={metrics.throughput:.6f}",
        data={
            "scenario": SCENARIO,
            "arrivals": ARRIVALS,
            "duration": duration,
            "warmup": WARMUP,
            "seed": SEED,
            "rounds": ROUNDS,
            "speedup": speedup,
            "modes": {
                mode: {
                    "loop_seconds": timings[mode],
                    "latency": summaries[mode],
                }
                for mode in MODES
            },
            "metrics": dataclasses.asdict(metrics),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"the session re-plan is only {speedup:.2f}x faster than the "
        f"residual-view oracle (bar: {MIN_SPEEDUP}x)"
    )


def test_serve_repair_incremental_vs_resnapshot():
    """Fault-injected twin of the serve bench.

    Under an active fault load every disruption triggers a repair
    re-route, so the residual-view oracle rebuilds a residual network
    per repair attempt on top of per arrival.  The session path patches
    banned-element masks in place and must beat it by the same >= 1.3x
    bar — the repair fast path is the whole point of session state
    surviving disruptions.
    """
    duration = 400.0 if is_full_run() else 120.0
    scenario = parse_scenario(SCENARIO)
    network = build_network(scenario.network_config(), ensure_rng(SEED))
    setting = scenario.setting()
    arrivals = parse_arrivals(ARRIVALS)
    events = poisson_events(arrivals, SEED, len(network.users()), duration)
    faults = fault_events(
        parse_faults(FAULTS), SEED, len(network.edge_keys()),
        len(network.switches()), duration,
    )

    timings = {}
    runs = {}
    for mode in MODES:
        best = float("inf")
        for _ in range(ROUNDS):
            router = _served_router(mode)
            start = time.perf_counter()
            run = run_serve(
                network,
                setting.link_model(),
                setting.swap_model(),
                router,
                events,
                duration,
                WARMUP,
                faults=faults,
                repair=REPAIR,
            )
            best = min(best, time.perf_counter() - start)
        timings[mode] = best
        runs[mode] = run

    metrics = runs["incremental"].metrics
    assert (
        metrics == runs["resnapshot"].metrics
    ), "the session re-plan diverged from the residual-view oracle under faults"
    assert metrics.disruptions > 0, (
        "fault load produced no disruptions; the bench is not exercising "
        "the repair path"
    )

    speedup = timings["resnapshot"] / timings["incremental"]

    table = AsciiTable(
        ["mode", "loop (s)", "repair p50 (ms)", "repair p99 (ms)", "speedup"]
    )
    summaries = {}
    for mode in MODES:
        summaries[mode] = latency_summary(runs[mode].repair_latencies_s)
        table.add_row([
            mode,
            f"{timings[mode]:.3f}",
            f"{summaries[mode]['p50_ms']:.2f}",
            f"{summaries[mode]['p99_ms']:.2f}",
            f"{speedup:.2f}x" if mode == "incremental" else "1.00x",
        ])
    report(
        "serve_faults",
        f"Online serving under faults: session repair (incremental) vs "
        f"residual-view oracle (resnapshot)\n"
        f"scenario={SCENARIO} arrivals={ARRIVALS} faults={FAULTS} "
        f"repair={REPAIR}\nduration={duration!r} warmup={WARMUP!r} "
        f"seed={SEED} (best of {ROUNDS})\n"
        + table.render()
        + f"\narrivals={metrics.arrivals} admitted={metrics.admitted} "
        f"disruptions={metrics.disruptions} repaired={metrics.repaired} "
        f"dropped={metrics.dropped} "
        f"repair_ratio={metrics.repair_ratio:.4f} "
        f"throughput={metrics.throughput:.6f}",
        data={
            "scenario": SCENARIO,
            "arrivals": ARRIVALS,
            "faults": FAULTS,
            "repair": REPAIR,
            "duration": duration,
            "warmup": WARMUP,
            "seed": SEED,
            "rounds": ROUNDS,
            "speedup": speedup,
            "modes": {
                mode: {
                    "loop_seconds": timings[mode],
                    "repair_latency": summaries[mode],
                }
                for mode in MODES
            },
            "metrics": dataclasses.asdict(metrics),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"session repair is only {speedup:.2f}x faster than the "
        f"residual-view oracle (bar: {MIN_SPEEDUP}x)"
    )
