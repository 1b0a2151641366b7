"""Entanglement-routing benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics in one fresh workload
process.  ``--trace 1`` runs the workload twice, each in a fresh
process: once untraced, once with the per-layer wrappers of
``perfbench/tracing.py`` installed, and reports the per-layer metrics;
the two runs must agree exactly on every deterministic output.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``
for the workloads, metrics and the noise hazards the design avoids.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-paper", "sweep-large-mc", "serve-faults")

#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "rate_mean": "states/slot",
    "admission_ratio": "ratio",
}

#: Deterministic end-to-end outputs: identical traced and untraced.
DETERMINISTIC = ("rate_mean", "admission_ratio")


def layer_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", ".yield", ".overhead")):
        return "ratio"
    return "count"


def child_env(explicit: Dict[str, str]) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(explicit)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # One BLAS/OpenMP thread, and a fixed hash seed so set and dict
    # layouts (and with them timings) do not change from run to run.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, env: Dict[str, str], deadline: float, trace: bool,
              spans: Optional[str] = None) -> dict:
    """One workload process; returns its JSON report."""
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
    ]
    if args.toy:
        command.append("--toy")
    if spans:
        command += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the workload process")
    try:
        completed = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(
            f"workload process exceeded {timeout:.0f} s and was killed"
        ) from None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"workload process exited with code {completed.returncode}"
        )
    return json.loads(lines[-1])


def parse_env(pairs: List[str]) -> Dict[str, str]:
    explicit = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name.startswith("REPRO_"):
            raise SystemExit(f"--env takes REPRO_NAME=VALUE, got {pair!r}")
        explicit[name] = value
    return explicit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Entanglement-routing benchmark (see perfbench/README.md)"
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--env", action="append", default=[], metavar="REPRO_NAME=VALUE",
        help="run under a non-default REPRO_* knob (repeatable); any "
        "REPRO_* variable already in the environment must be passed here",
    )
    parser.add_argument("--toy", action="store_true",
                        help="self-test sizes; not a measurement")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (src/repro not "
              "found)", file=sys.stderr)
        return 2
    explicit = parse_env(args.env)
    stray = sorted(
        name for name, value in os.environ.items()
        if name.startswith("REPRO_") and explicit.get(name) != value
    )
    if stray:
        print("perfbench: refusing to run under REPRO_* knobs not passed "
              "with --env: " + ", ".join(stray), file=sys.stderr)
        return 2
    env = child_env(explicit)

    try:
        if args.trace:
            out_dir = ".perfbench_out"
            os.makedirs(out_dir, exist_ok=True)
            plain = run_child(args, env, deadline, trace=False)
            traced = run_child(
                args, env, deadline, trace=True,
                spans=os.path.join(
                    out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"
                ),
            )
            report = traced
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            for name in DETERMINISTIC:
                if plain["end_to_end"].get(name) != traced["end_to_end"].get(
                        name):
                    print(f"FAILED: {name} differs traced vs untraced",
                          file=sys.stderr)
                    failed += 1
            values = dict(traced["per_layer"])
            values["trace.overhead"] = (
                traced["busy_s"] / plain["busy_s"]
            )
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in values.items()}
        else:
            report = run_child(args, env, deadline, trace=False)
            attempted = report["attempted"]
            failed = report["failed"]
            metrics = {
                name: {"value": report["end_to_end"][name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()
                if name in report["end_to_end"]
            }
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    print("# meta " + json.dumps(report["meta"], sort_keys=True))
    print(f"# {args.workload}: {report['ops']} ops completed, "
          f"{attempted} attempted, {failed} failed")
    if report.get("calls"):
        print("# calls " + json.dumps(report["calls"], sort_keys=True))
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>14.6g} {entry['unit']}")
    correct = failed == 0 and len(metrics) > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
