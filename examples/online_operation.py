#!/usr/bin/env python3
"""Online operation: serving a Poisson stream of user-pair requests.

Beyond the paper's one-shot evaluation, the serving loop admits each
arriving request against the qubits still free, holds its route for
the request's holding time and releases it on departure.  The same
arrival stream is served by ALG-N-FUSION and by the classic-swapping
Q-CAST, and their admission ratio and time-averaged throughput are
compared (``E[states] held`` is the time-averaged sum of the held
routes' Equation-1 rates).

Run:  python examples/online_operation.py
"""

from repro import (
    AlgNFusion,
    LinkModel,
    NetworkConfig,
    QCastRouter,
    SwapModel,
    build_network,
)
from repro.service.arrivals import parse_arrivals, poisson_events
from repro.service.loop import run_serve
from repro.utils.rng import ensure_rng
from repro.utils.tables import AsciiTable

DURATION, WARMUP = 120.0, 20.0


def main() -> None:
    network = build_network(NetworkConfig(num_switches=40, num_users=8),
                            ensure_rng(1))
    link, swap = LinkModel(fixed_p=0.45), SwapModel(q=0.9)
    spec = parse_arrivals("poisson:rate=1.0,hold=exp:mean=15")
    events = poisson_events(spec, 4, len(network.users()), DURATION)
    print(f"=== online arrivals (Poisson, {DURATION:.0f} time units, "
          f"first {WARMUP:.0f} warm-up) ===")
    table = AsciiTable(
        ["router", "arrived", "admitted", "rejected", "admission",
         "E[states] held"]
    )
    for router in (AlgNFusion(), QCastRouter()):
        metrics = run_serve(
            network, link, swap, router, events, DURATION, WARMUP
        ).metrics
        table.add_row(
            [router.name, metrics.arrivals, metrics.admitted,
             metrics.rejected, metrics.admission_ratio, metrics.throughput]
        )
    print(table.render())
    print(
        "\nSame arrivals, same network: ALG-N-FUSION's wider flow-like "
        "graphs admit fewer requests but hold more expected entanglement."
    )


if __name__ == "__main__":
    main()
