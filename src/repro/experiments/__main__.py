"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig8a
    python -m repro.experiments fig9b --full --workers 4
    python -m repro.experiments fig9b-ext --full --cache-dir .sweep-cache
    python -m repro.experiments fig7 --routers alg-n-fusion,q-cast
    python -m repro.experiments fig7 --routers "alg-n-fusion:include_alg4=false"
    python -m repro.experiments fig7 --shard 0/2 --cache-dir .sweep-cache
    python -m repro.experiments fig8a --mc-overlay
    python -m repro.experiments fig8a --estimator mc:trials=2000
    python -m repro.experiments fig8a --scenario "grid:switches=64,users=8"
    python -m repro.experiments fig9c --scenarios paper-grid,paper-erdos-renyi
    python -m repro.experiments topology-compare --workers 4
    python -m repro.experiments mc-validate --routers alg-n-fusion
    python -m repro.experiments all --workers 4 --cache-dir .sweep-cache
    python -m repro.experiments regen-regression
    python -m repro.experiments serve --scenario paper-default \
        --arrivals poisson:rate=2.0,hold=exp:mean=30 --duration 200 --seed 7
    python -m repro.experiments serve --record-trace run.trace
    python -m repro.experiments serve --arrivals trace:file=run.trace
    python -m repro.experiments serve --faults faults:link_mtbf=120,switch_p=0.01
    python -m repro.experiments serve --faults faults:link_mtbf=60 \
        --repair reroute:retries=4,backoff=exp:base=0.5

Each experiment id names one callable: the figure sweeps are the rows
of :data:`repro.experiments.figures.FIGURES`, the tables and studies
their own functions, and ``serve`` is
:func:`repro.service.runner.run_serve_experiment`.  One rule routes
the flags: a flag reaches an experiment iff its callable takes the
keyword the flag fills (see :func:`_set_flags`; ``**kwargs`` takes
every keyword), and each other flag that is set prints one ``note:
--X has no effect on 'NAME'`` line to stderr.  ``--scenarios`` goes to
a callable taking ``scenarios``; one taking only ``scenario`` runs once
per listed workload.

``--full`` runs at paper scale (equivalent to REPRO_FULL=1); the default
quick mode shrinks networks and averaging for fast turnaround.
``--workers N`` fans each sweep's (setting, sample, router) task grid
out over N processes — the merged series are bit-identical to a
sequential run.  ``--cache-dir`` reuses previously computed (setting,
router, estimator) results from a content-addressed on-disk cache
(``REPRO_CACHE_DIR`` sets the default).

``--routers`` replaces a figure's default series with registry specs:
comma-separated ``key[:param=val,...]`` entries (``python -m
repro.experiments routers`` lists the keys).  ``--shard i/n`` runs only
the i-th of n deterministic slices of the (setting, router) grid;
complementary shards — on any machines — merge losslessly through a
shared ``--cache-dir``, and any later run against that cache reports
the complete series.

``--scenario`` swaps the workload under any grid experiment: a preset
name (``python -m repro.experiments scenarios`` lists them) or a
``topology[:param=val,...]`` spec such as
``"aiello:switches=100,states=20,q=0.85"``; the experiment's own sweep
axis applies on top of the scenario.  ``--scenarios A,B,...`` runs the
experiment once per workload; for ``topology-compare`` it instead
selects the table's scenario columns (default: every topology-family
preset), producing the cross-family rate table the paper never ran.

``--estimator`` selects how each routed plan becomes a rate:
``analytic`` (Equation 1, the default) or
``mc[:trials=N][,engine=vectorized|reference][,antithetic=true]``
(Monte-Carlo re-evaluation through the Phase-III process simulation;
antithetic pairing shrinks the stderr at equal trials).
``--mc-overlay [SPEC]`` keeps the analytic series and appends ``[MC]``
validation columns next to them (fig7/fig8/fig9/topology-compare);
``mc-validate`` renders a per-sample analytic-vs-MC table with stderr
and relative-error columns for any ``--routers`` set.

``--profile`` wraps the run in cProfile and prints the top 25 functions
to stderr — by cumulative time, or self time with
``--profile-sort tottime`` (``--profile-out FILE`` additionally dumps
the raw stats for pstats/snakeviz) — so perf work starts from data
rather than guesses.

``serve`` runs the online routing service (``repro.service``): demands
arrive continuously (``--arrivals``), hold capacity for their holding
time and release it on departure; each arrival re-plans against the
residual capacity through the router's ``route`` entry.  Steady-state
throughput / admission ratio go to stdout (cached, bit-identical for
any ``--workers`` and routing core); p50/p99 re-plan latency goes to
stderr and is never cached.  ``--record-trace FILE`` captures the event streams for replay
via ``--arrivals trace:file=FILE``.

``--faults`` injects link/switch failures while serving (per-element
renewal processes addressed statelessly from the sample seed, or a
``trace:file=PATH`` replay); down events disrupt overlapping held
flows, which ``--repair`` re-routes with bounded backoff retries (or
drops).  The report gains disruption/repair/drop columns, a throughput
degradation line against the fault-free companion run, and stderr
recovery-latency percentiles.

``regen-regression`` rewrites the pinned regression fixture under
``tests/data/`` bit-exactly from its frozen recipe.
"""

from __future__ import annotations

import argparse
import cProfile
import inspect
import pstats
import sys
from typing import Callable, Dict, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments import (
    alg4_ablation,
    headline_ratios,
    lattice_distance_study,
    mc_validate,
    protocol_coherence_study,
    topology_compare,
)
from repro.experiments.cache import ResultCache, default_result_cache
from repro.experiments.config import is_full_run
from repro.experiments.estimators import parse_estimator
from repro.experiments.figures import FIGURES
from repro.experiments.harness import parse_shard
from repro.experiments.regression import regenerate_regression_fixture
from repro.experiments.runner import reject_duplicate_labels
from repro.experiments.scenarios import (
    SCENARIO_PRESETS,
    parse_scenario,
    parse_scenario_names,
    scenario_param_names,
)
from repro.network.registry import topology_keys
from repro.routing.registry import parse_router_specs, router_keys
from repro.service.arrivals import parse_arrivals
from repro.service.faults import parse_faults, parse_repair
from repro.service.loop import check_horizon
from repro.service.runner import run_serve_experiment
from repro.utils.cli import (
    argparse_type,
    non_negative_float,
    non_negative_int,
    non_negative_seed,
    positive_float,
    positive_int,
)

EXPERIMENTS: Dict[str, Callable] = {
    **FIGURES,
    "headline": headline_ratios,
    "ablation": alg4_ablation,
    "protocol": protocol_coherence_study,
    "lattice": lattice_distance_study,
    "mc-validate": mc_validate,
    "topology-compare": topology_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            *EXPERIMENTS, "serve", "all", "list", "routers", "scenarios",
            "regen-regression",
        ],
        help=(
            "experiment id (figN / headline / ablation / protocol / "
            "lattice / mc-validate / topology-compare), 'serve', 'all', "
            "'list', 'routers', 'scenarios' or 'regen-regression'"
        ),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at paper scale instead of the quick default",
    )
    parser.add_argument(
        "--workers",
        type=non_negative_int,
        default=None,
        metavar="N",
        help=(
            "evaluate sweep tasks across N worker processes "
            "(default: REPRO_WORKERS or sequential); results are "
            "bit-identical to a sequential run"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "reuse per-(setting, router, estimator) results from this "
            "content-addressed cache directory (default: "
            "REPRO_CACHE_DIR when set)"
        ),
    )
    parser.add_argument(
        "--routers",
        type=argparse_type(parse_router_specs),
        default=None,
        metavar="SPEC[,SPEC...]",
        help=(
            "router specs to sweep instead of the figure's default "
            "series: comma-separated key[:param=val,...] entries, e.g. "
            "'alg-n-fusion:include_alg4=false,q-cast'"
        ),
    )
    scenario_group = parser.add_mutually_exclusive_group()
    scenario_group.add_argument(
        "--scenario",
        type=argparse_type(parse_scenario),
        default=None,
        metavar="SPEC",
        help=(
            "base workload for the experiment: a preset name (see "
            "'scenarios') or topology[:param=val,...], e.g. "
            "'aiello:switches=100,states=20,q=0.85'; the experiment's "
            "sweep axis applies on top"
        ),
    )
    scenario_group.add_argument(
        "--scenarios",
        type=argparse_type(parse_scenario_names),
        default=None,
        metavar="SPEC[,SPEC...]",
        help=(
            "comma-separated scenario specs/presets: topology-compare "
            "uses them as its table columns; any other grid experiment "
            "runs once per scenario"
        ),
    )
    parser.add_argument(
        "--shard",
        type=argparse_type(parse_shard),
        default=None,
        metavar="I/N",
        help=(
            "run only the I-th of N deterministic slices of the "
            "(setting, router) grid; complementary shards merge through "
            "a shared --cache-dir"
        ),
    )
    parser.add_argument(
        "--estimator",
        type=argparse_type(parse_estimator),
        default=None,
        metavar="SPEC",
        help=(
            "how each routed plan becomes a rate: 'analytic' "
            "(Equation 1, default) or 'mc[:trials=N][,engine="
            "vectorized|reference][,antithetic=true]' "
            "(Monte-Carlo re-evaluation); mc-validate defaults to an "
            "mc spec sized for the run scale"
        ),
    )
    parser.add_argument(
        "--mc-overlay",
        nargs="?",
        const="mc",
        default=None,
        metavar="SPEC",
        help=(
            "append Monte-Carlo '[MC]' columns next to the analytic "
            "series (fig7/fig8/fig9/topology-compare); the optional "
            "SPEC is an mc estimator spec, default 'mc' (500 trials, "
            "vectorized engine)"
        ),
    )
    serve_group = parser.add_argument_group(
        "serve", "online-serving options (the 'serve' experiment only)"
    )
    serve_group.add_argument(
        "--arrivals",
        type=argparse_type(parse_arrivals),
        default=None,
        metavar="SPEC",
        help=(
            "arrival process: poisson[:rate=R,hold=DIST:mean=M] or "
            "trace:file=PATH (default "
            "'poisson:rate=2.0,hold=exp:mean=30.0')"
        ),
    )
    serve_group.add_argument(
        "--duration",
        type=positive_float,
        default=None,
        metavar="T",
        help="serving horizon in simulated time units (default 200)",
    )
    serve_group.add_argument(
        "--warmup",
        type=non_negative_float,
        default=None,
        metavar="T",
        help=(
            "measurement starts at this simulated time; earlier "
            "arrivals still occupy capacity (default 20)"
        ),
    )
    serve_group.add_argument(
        "--replications",
        type=positive_int,
        default=None,
        metavar="N",
        help=(
            "independently sampled networks to serve (default 3; a "
            "trace replay uses its recorded count)"
        ),
    )
    serve_group.add_argument(
        "--seed",
        type=non_negative_seed,
        default=None,
        metavar="SEED",
        help="replication seed (default: the harness seed, 20230601)",
    )
    serve_group.add_argument(
        "--record-trace",
        default=None,
        metavar="FILE",
        help=(
            "write the generated arrival streams to FILE for "
            "trace:file=FILE replay (forces fresh execution)"
        ),
    )
    serve_group.add_argument(
        "--faults",
        type=argparse_type(parse_faults),
        default=None,
        metavar="SPEC",
        help=(
            "inject link/switch failures while serving: "
            "faults:link_mtbf=T[,link_mttr=T][,switch_mtbf=T|switch_p=P]"
            "[,switch_mttr=T] or trace:file=PATH (default: no faults)"
        ),
    )
    serve_group.add_argument(
        "--repair",
        type=argparse_type(parse_repair),
        default=None,
        metavar="SPEC",
        help=(
            "recovery policy for disrupted flows: 'drop' or "
            "'reroute[:retries=N,backoff=exp|fixed:base=B]' (default "
            "'reroute'; needs --faults)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run the experiment under cProfile and print the top 25 "
            "functions to stderr when it finishes, ordered by "
            "--profile-sort"
        ),
    )
    parser.add_argument(
        "--profile-sort",
        choices=("cumulative", "tottime"),
        default="cumulative",
        help=(
            "pstats sort key for the --profile report: 'cumulative' "
            "(default; where the time goes, call tree included) or "
            "'tottime' (self time only; where the time is spent)"
        ),
    )
    parser.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help=(
            "also dump the raw cProfile stats to FILE (readable with "
            "pstats / snakeviz); implies --profile"
        ),
    )
    return parser


def _note(name: str, flag: str, reason: Optional[str] = None) -> None:
    suffix = f" ({reason})" if reason is not None else ""
    print(f"note: {flag} has no effect on {name!r}{suffix}", file=sys.stderr)


def _takes(fn: Callable, keyword: str) -> bool:
    """Whether *fn* accepts *keyword* (``**kwargs`` accepts every one)."""
    parameters = inspect.signature(fn).parameters
    return keyword in parameters or any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def _runner(name: str) -> Callable:
    return run_serve_experiment if name == "serve" else EXPERIMENTS[name]


def _set_flags(args, cache, mc_overlay) -> Dict[str, Tuple[str, object]]:
    """Each flag set on the command line -> (keyword it fills, value)."""
    flags = {
        "--full": ("quick", False if args.full else None),
        "--workers": ("workers", args.workers),
        "--cache-dir": ("cache", cache),
        "--routers": ("routers", args.routers),
        "--scenario": ("scenario", args.scenario),
        "--scenarios": ("scenarios", args.scenarios),
        "--shard": ("shard", args.shard),
        "--estimator": ("estimator", args.estimator),
        "--mc-overlay": ("mc_overlay", mc_overlay),
        "--arrivals": ("arrivals", args.arrivals),
        "--duration": ("duration", args.duration),
        "--warmup": ("warmup", args.warmup),
        "--replications": ("replications", args.replications),
        "--seed": ("seed", args.seed),
        "--record-trace": ("record_trace", args.record_trace),
        "--faults": ("faults", args.faults),
        "--repair": ("repair", args.repair),
    }
    return {
        flag: option for flag, option in flags.items()
        if option[1] is not None
    }


def run_one(
    name: str, quick: bool, flags: Dict[str, Tuple[str, object]]
) -> None:
    """Run one experiment with the flags its callable takes.

    *flags* maps each set flag to the (keyword, value) it fills (see
    :func:`_set_flags`).  A flag reaches the experiment iff its callable
    takes the keyword; every other flag prints one "has no effect"
    note.  ``--scenarios`` goes to a callable taking ``scenarios``;
    one taking only ``scenario`` runs once per listed workload.
    """
    fn = _runner(name)
    kwargs = {"quick": quick} if _takes(fn, "quick") else {}
    scenarios = None
    for flag, (keyword, value) in flags.items():
        if _takes(fn, keyword):
            kwargs[keyword] = value
        elif keyword == "scenarios" and _takes(fn, "scenario"):
            scenarios = value
        else:
            _note(name, flag)
    estimator = kwargs.get("estimator")
    if name == "mc-validate" and estimator is not None and not estimator.is_mc:
        # Reachable via `all --estimator analytic`: the other
        # experiments honour the analytic spec, the validation table
        # keeps its MC default instead of failing the run.
        _note(
            name, "--estimator",
            "mc-validate always pairs analytic with MC; using its "
            "default mc spec",
        )
        del kwargs["estimator"]
    for scenario in [None] if scenarios is None else scenarios:
        if scenarios is not None:
            print(f"--- scenario: {scenario} ---")
            kwargs["scenario"] = scenario
        result = fn(**kwargs)
        print(result.to_text())
        print()
        if name == "serve":
            print(result.latency_text(), file=sys.stderr)
            if "record_trace" in kwargs:
                print(
                    f"trace written to {kwargs['record_trace']}",
                    file=sys.stderr,
                )


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        print("serve")
        return 0
    if args.experiment == "routers":
        for key in router_keys():
            print(key)
        return 0
    if args.experiment == "scenarios":
        print("presets:")
        for name, spec in SCENARIO_PRESETS.items():
            print(f"  {name} = {spec}")
        print(f"topology keys: {', '.join(topology_keys())}")
        print(
            "spec grammar: topology[:param=val,...] with parameters "
            f"{', '.join(scenario_param_names())}"
        )
        return 0
    if args.experiment == "regen-regression":
        path = regenerate_regression_fixture()
        print(f"regenerated {path}")
        return 0
    runners = [
        _runner(name) for name in (
            EXPERIMENTS if args.experiment == "all" else [args.experiment]
        )
    ]
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    if (
        args.shard is not None
        and cache is None
        and default_result_cache() is None
        and any(_takes(fn, "shard") for fn in runners)
    ):
        print(
            "note: --shard without --cache-dir (or REPRO_CACHE_DIR) "
            "computes a partial result that cannot merge with other "
            "shards",
            file=sys.stderr,
        )
    mc_overlay = None
    if args.mc_overlay is not None:
        try:
            mc_overlay = parse_estimator(args.mc_overlay)
            if not mc_overlay.is_mc:
                raise ValueError(
                    f"--mc-overlay needs a Monte-Carlo estimator spec, "
                    f"got {args.mc_overlay!r}"
                )
        except ValueError as exc:
            return _error(str(exc))
    if (
        args.experiment == "mc-validate"
        and args.estimator is not None
        and not args.estimator.is_mc
    ):
        return _error(
            "mc-validate needs a Monte-Carlo --estimator "
            "(e.g. mc:trials=1000); it always renders the analytic "
            "column alongside"
        )
    if args.experiment == "serve":
        if args.scenarios is not None:
            return _error("serve takes a single --scenario, not --scenarios")
        if args.repair is not None and args.faults is None:
            return _error(
                "--repair picks the recovery policy for injected "
                "faults; pass --faults as well"
            )
        defaults = inspect.signature(run_serve_experiment).parameters
        try:
            check_horizon(
                defaults["duration"].default
                if args.duration is None else args.duration,
                defaults["warmup"].default
                if args.warmup is None else args.warmup,
            )
        except ConfigurationError as exc:
            return _error(str(exc))
    if args.routers is not None and any(
        _takes(fn, "routers") for fn in runners
    ):
        # Label collisions only arise from user-supplied specs; check
        # them here so the run fails as a clean usage error before any
        # routing work (runner re-checks as a backstop).
        try:
            reject_duplicate_labels(
                [spec.build() for spec in args.routers]
            )
        except ValueError as exc:
            return _error(str(exc))
    if args.experiment == "all" and args.scenarios is not None:
        return _error(
            "--scenarios multiplies every experiment; run 'all' with a "
            "single --scenario, or one experiment with --scenarios"
        )
    quick = not (args.full or is_full_run())
    flags = _set_flags(args, cache, mc_overlay)

    def run_experiments() -> int:
        # A configuration only a run can check (a trace file's replay
        # options or replication count) is a usage error too.
        try:
            if args.experiment != "all":
                run_one(args.experiment, quick, flags)
                return 0
            for name in EXPERIMENTS:
                if name == "fig9b-ext" and quick:
                    # Quick-mode fig9b-ext is bit-identical to fig9b,
                    # which the loop just ran; recomputing it adds
                    # nothing.
                    print(
                        "note: skipping 'fig9b-ext' in quick mode "
                        "(identical to fig9b; run with --full for the "
                        "800/1600 points)",
                        file=sys.stderr,
                    )
                    continue
                print(f"=== {name} ===")
                run_one(name, quick, flags)
        except ConfigurationError as exc:
            return _error(str(exc))
        return 0

    if not args.profile and args.profile_out is None:
        return run_experiments()
    # Perf PRs start from data: profile the run as-is (worker processes
    # profile as pool waiting time — use sequential runs to see the
    # routing internals) and report the top of the --profile-sort tree.
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = run_experiments()
    finally:
        profiler.disable()
        if args.profile_out is not None:
            profiler.dump_stats(args.profile_out)
            print(f"profile stats written to {args.profile_out}",
                  file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats(args.profile_sort).print_stats(25)
    return status


if __name__ == "__main__":
    sys.exit(main())
