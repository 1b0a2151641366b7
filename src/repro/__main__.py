"""Top-level command line interface.

Usage::

    python -m repro route --switches 50 --states 10 --seed 7
    python -m repro route --algorithm q-cast --report
    python -m repro route --algorithm "alg-n-fusion:h=5,include_alg4=false"
    python -m repro route --save instance.json
    python -m repro simulate instance.json --trials 2000
    python -m repro version

``route`` samples a network + demand set, runs a router and prints the
resulting rates (optionally the full plan report); ``simulate`` loads a
saved instance, routes it and validates the analytic rate with the
vectorised Monte Carlo engine.  ``--algorithm`` takes a router registry
spec — a key from :func:`repro.routing.registry.router_keys`, optionally
with ``:param=val,...`` overrides.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro import __version__
from repro.exceptions import ConfigurationError
from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import generate_demands
from repro.network.serialization import load_instance, save_instance
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.registry import RouterSpec, router_class, router_keys
from repro.routing.report import render_plan_report
from repro.utils.cli import argparse_type, non_negative_seed, positive_int
from repro.simulation.vectorized import VectorizedProcessSimulator
from repro.utils.rng import ensure_rng

#: Canonical key -> class view of the router registry (kept as a module
#: attribute for discoverability and back-compat).
ROUTERS = {key: router_class(key) for key in router_keys()}


@argparse_type
def _algorithm_spec(text: str) -> str:
    """Argparse validator: *text* must parse as a router spec.

    Returns the original string (the spec is rebuilt at use time) so
    ``args.algorithm`` stays printable/comparable; argparse_type keeps
    the registry's detailed message in the usage error.
    """
    RouterSpec.from_string(text)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Entanglement routing over quantum networks (GHZ fusion).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser("route", help="sample an instance and route it")
    route.add_argument("--generator", default="waxman")
    route.add_argument("--switches", type=int, default=50)
    route.add_argument("--users", type=int, default=8)
    route.add_argument("--degree", type=float, default=10.0)
    route.add_argument("--qubits", type=int, default=10)
    route.add_argument("--states", type=int, default=10)
    route.add_argument("--seed", type=non_negative_seed, default=0)
    route.add_argument("--p", type=float, default=None,
                       help="uniform link success probability (default: "
                            "length-based e^{-alpha L})")
    route.add_argument("--q", type=float, default=0.9,
                       help="fusion success probability")
    route.add_argument("--algorithm", type=_algorithm_spec,
                       default="alg-n-fusion", metavar="SPEC",
                       help="router registry spec key[:param=val,...] "
                            f"(keys: {', '.join(router_keys())})")
    route.add_argument("--report", action="store_true",
                       help="print the full per-demand plan report")
    route.add_argument("--save", metavar="PATH",
                       help="save the sampled instance as JSON")

    simulate = sub.add_parser(
        "simulate", help="route a saved instance and Monte Carlo check it"
    )
    simulate.add_argument("instance", help="instance JSON from route --save")
    simulate.add_argument("--algorithm", type=_algorithm_spec,
                          default="alg-n-fusion", metavar="SPEC",
                          help="router registry spec key[:param=val,...]")
    simulate.add_argument("--trials", type=positive_int, default=2000)
    simulate.add_argument("--p", type=float, default=None)
    simulate.add_argument("--q", type=float, default=0.9)
    simulate.add_argument("--seed", type=non_negative_seed, default=0)

    sub.add_parser("version", help="print the library version")
    return parser


def _models(args) -> tuple:
    link = LinkModel(fixed_p=args.p) if args.p is not None else LinkModel()
    return link, SwapModel(q=args.q)


def cmd_route(args) -> int:
    config = NetworkConfig(
        generator=args.generator,
        num_switches=args.switches,
        num_users=args.users,
        average_degree=args.degree,
        qubit_capacity=args.qubits,
    )
    rng = ensure_rng(args.seed)
    network = build_network(config, rng)
    demands = generate_demands(network, args.states, rng)
    if args.save:
        save_instance(args.save, network, demands)
        print(f"instance saved to {args.save}")
    link, swap = _models(args)
    router = RouterSpec.from_string(args.algorithm).build()
    result = router.route(network, demands, link, swap)
    if args.report:
        print(render_plan_report(network, demands, result, link, swap))
    else:
        print(f"{result.algorithm}: total rate {result.total_rate:.4f}, "
              f"routed {result.num_routed}/{len(demands)} demands")
    return 0


def cmd_simulate(args) -> int:
    network, demands = load_instance(args.instance)
    link, swap = _models(args)
    router = RouterSpec.from_string(args.algorithm).build()
    result = router.route(network, demands, link, swap)
    engine = VectorizedProcessSimulator(
        network, link, swap, ensure_rng(args.seed)
    )
    estimate = engine.plan_estimate(result.plan, trials=args.trials)
    low, high = estimate.confidence_interval()
    print(f"{result.algorithm}: analytic rate {result.total_rate:.4f}")
    print(
        f"monte carlo ({args.trials} trials): {estimate.mean:.4f} "
        f"(95% CI [{low:.4f}, {high:.4f}])"
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    command = {"route": cmd_route, "simulate": cmd_simulate}[args.command]
    try:
        return command(args)
    except (ConfigurationError, OSError) as exc:
        # A bad size or a missing instance file is a usage error: one
        # line and exit status 2, not a traceback.
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
