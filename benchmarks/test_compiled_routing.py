"""Benchmark: compiled vs reference routing core on the regression fixture.

Times every pinned router on the frozen regression instance under both
values of ``REPRO_ROUTING_CORE`` and records the sequential speedups in
``benchmarks/results/compiled_routing.txt`` plus a machine-readable twin
``compiled_routing.json`` (like ``serve.json``) so the perf trajectory
is trackable across PRs.

The acceptance bar on ALG-N-FUSION is relative to the *previous*
compiled core, whose committed run on this fixture was 2.42x over
reference (64.8 ms / 26.8 ms).  The batched core had to beat that by
1.5x; the fused multi-width frontier + vectorized Equation-1 evaluator
had to beat it by a further 1.25x (the native search kernel that
replaced the fused frontier keeps the same bar), i.e. at least
``2.42 * 1.5 * 1.25 = 4.54`` over reference measured in the same
process — a ratio, so a slow or noisy machine shifts both sides
together instead of failing the bar (the committed run measures ~6.3x).
Rates and per-demand plans must stay bit-identical; both are asserted,
so a kernel regression fails the bench rather than silently eroding
the sweep throughput.
"""

import os
import time

from repro.experiments.regression import build_regression_instance
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.compiled import ROUTING_CORE_ENV
from repro.routing.registry import make_router
from repro.utils.tables import AsciiTable

from conftest import report

LINK = LinkModel(fixed_p=0.4)
SWAP = SwapModel(q=0.9)

#: Registry keys of the routers with pinned regression rates.
ROUTER_KEYS = ("alg-n-fusion", "q-cast", "q-cast-n", "b1")

#: Per-core timing: best of ROUNDS measured route() calls.
ROUNDS = 7

#: Reference-relative speedup of the pre-batching compiled core on
#: ALG-N-FUSION (committed ``compiled_routing.txt`` baseline).
PREVIOUS_COMPILED_SPEEDUP = 2.42

#: The batched core must beat the previous compiled core by this much.
BATCHED_OVER_PREVIOUS = 1.5

#: The fused multi-width frontier + vectorized Equation-1 evaluator
#: must beat the batched core's bar by this much on top.
FUSED_OVER_BATCHED = 1.25


def _best_time(router, network, demands):
    """(cold first-call seconds, best-of-ROUNDS seconds, last result).

    The first call pays every per-network cost — compiling the CSR
    snapshot, building rate columns and masked rows — which later calls
    reuse; reporting it separately keeps the steady-state number honest
    about what a one-shot route() costs.
    """
    start = time.perf_counter()
    result = router.route(network, demands, LINK, SWAP)
    cold = time.perf_counter() - start
    best = cold
    for _ in range(ROUNDS - 1):
        start = time.perf_counter()
        result = router.route(network, demands, LINK, SWAP)
        best = min(best, time.perf_counter() - start)
    return cold, best, result


def test_compiled_routing_speedup():
    network, demands = build_regression_instance()
    previous = os.environ.get(ROUTING_CORE_ENV)
    rows = []
    speedups = {}
    data = {
        "fixture": "regression",
        "rounds": ROUNDS,
        "previous_compiled_speedup": PREVIOUS_COMPILED_SPEEDUP,
        "speedup_floor": (
            PREVIOUS_COMPILED_SPEEDUP * BATCHED_OVER_PREVIOUS
            * FUSED_OVER_BATCHED
        ),
        "routers": {},
    }
    try:
        for key in ROUTER_KEYS:
            cold = {}
            timings = {}
            results = {}
            for core in ("reference", "compiled"):
                os.environ[ROUTING_CORE_ENV] = core
                cold[core], timings[core], results[core] = _best_time(
                    make_router(key), network, demands
                )
            assert (
                results["reference"].total_rate
                == results["compiled"].total_rate
            )
            assert (
                results["reference"].demand_rates
                == results["compiled"].demand_rates
            )
            speedups[key] = timings["reference"] / timings["compiled"]
            rows.append([
                key,
                f"{timings['reference'] * 1000:.1f}",
                f"{timings['compiled'] * 1000:.1f}",
                f"{cold['compiled'] * 1000:.1f}",
                f"{speedups[key]:.2f}x",
                f"{results['compiled'].total_rate:.6f}",
            ])
            data["routers"][key] = {
                "reference_ms": timings["reference"] * 1000,
                "compiled_ms": timings["compiled"] * 1000,
                "compiled_cold_ms": cold["compiled"] * 1000,
                "speedup": speedups[key],
                "total_rate": results["compiled"].total_rate,
            }
    finally:
        if previous is None:
            os.environ.pop(ROUTING_CORE_ENV, None)
        else:
            os.environ[ROUTING_CORE_ENV] = previous
    table = AsciiTable(
        [
            "router", "reference (ms)", "compiled (ms)", "cold (ms)",
            "speedup", "rate",
        ]
    )
    for row in rows:
        table.add_row(row)
    report(
        "compiled_routing",
        "Compiled routing core vs reference (regression fixture, "
        f"sequential, best of {ROUNDS})\n" + table.render(),
        data=data,
    )
    # The acceptance bar: the fused + vectorised core must hold a
    # 1.5 * 1.25 margin over the previous compiled core's committed
    # 2.42x on the paper's router; rates identical (asserted above).
    assert speedups["alg-n-fusion"] >= (
        PREVIOUS_COMPILED_SPEEDUP * BATCHED_OVER_PREVIOUS
        * FUSED_OVER_BATCHED
    )
