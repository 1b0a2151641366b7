"""Self-tests of the benchmark at toy size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every check passes.  Not named ``test_*.py`` on purpose:
these runs take minutes and must stay out of tier-1 ``pytest``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures: List[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def bench(workload: str, seed: int, trace: int,
          cwd: str = ROOT) -> Tuple[int, List[str]]:
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-3000:])
    return completed.returncode, completed.stdout.strip().splitlines()


def result_of(lines: List[str]) -> dict:
    return json.loads(lines[-1])


def meta_of(lines: List[str]) -> dict:
    for line in lines:
        if line.startswith("# meta "):
            return json.loads(line[len("# meta "):])
    return {}


def git_status() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected: Dict[int, Dict[str, str]] = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    status_before = git_status()

    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for seed, trace in ((1, 0), (1, 0), (2, 0), (1, 1), (1, 1)):
            code, lines = bench(workload, seed, trace)
            check(code == 0, f"{workload} seed {seed} trace {trace}: exit 0")
            if code != 0:
                break
            runs.setdefault((seed, trace), []).append(lines)
            result = result_of(lines)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} seed {seed} trace {trace}: correct, no "
                  "failed ops")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            check(printed == expected[trace],
                  f"{workload} trace {trace}: every named metric printed "
                  "with its unit")
            table = [line.split() for line in lines[:-1]
                     if line and not line.startswith("#")]
            check(sorted((row[0], row[-1]) for row in table)
                  == sorted(expected[trace].items()),
                  f"{workload} trace {trace}: metric table lists every "
                  "metric with its unit")
        else:
            first, second = (result_of(r)["metrics"] for r in runs[(1, 0)])
            for name in ("rate_mean", "admission_ratio"):
                check(first[name]["value"] == second[name]["value"],
                      f"{workload}: {name} repeats exactly")
            first, second = (result_of(r)["metrics"] for r in runs[(1, 1)])
            counts = [n for n in first if n.endswith(".calls")
                      or n == "routing.allocation.probes"]
            check(all(first[n]["value"] == second[n]["value"]
                      for n in counts),
                  f"{workload}: per-layer call counts repeat exactly")
            digests = {meta_of(r)["input_digest"]
                       for key in ((1, 0), (2, 0)) for r in runs[key]}
            check(len(digests) == 2,
                  f"{workload}: a different seed yields different inputs")

    status_after = git_status()
    if status_before is None:
        print("skip no git: tracked-file check needs a git checkout")
    else:
        check(status_before == status_after, "runs wrote no tracked file")

    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    check(collected.returncode == 5,
          "pytest collects nothing from perfbench/")
    collected = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    check("perfbench" not in collected.stdout,
          "tier-1 pytest collection includes nothing from perfbench/")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(completed.returncode != 0 and '"correct"' not in completed.stdout,
          "without the program, exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
