"""Shared helpers for the benchmark harness.

Every figure/table benchmark regenerates the paper's rows/series, prints
them (visible with ``pytest -s`` or in the benchmark logs) and writes them
to ``.bench_results/`` at the repository root, which git ignores.  Only
``pytest --record-results`` rewrites the tracked reference copies under
``benchmarks/results/``, so an ordinary test run leaves the work tree
clean.  Set ``REPRO_FULL=1`` for paper-scale runs; the default quick
mode shrinks network counts so the whole harness runs in minutes.

The sweeps honour ``REPRO_WORKERS`` (worker processes) and
``REPRO_CACHE_DIR`` (content-addressed result cache), so the nightly CI
tier re-runs paper-scale figures incrementally: a warm cache turns an
unchanged figure into a read.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).parent

#: Tracked reference results, rewritten only under ``--record-results``.
RESULTS_DIR = _BENCH_DIR / "results"

#: Default destination of :func:`report`; listed in ``.gitignore``.
LOCAL_RESULTS_DIR = _BENCH_DIR.parent / ".bench_results"

# Set from the command line in pytest_configure.
_record_results = False


def pytest_addoption(parser):
    parser.addoption(
        "--record-results",
        action="store_true",
        default=False,
        help="rewrite the tracked files under benchmarks/results/ "
        "(default: write results to .bench_results/, which git ignores)",
    )


def pytest_configure(config):
    global _record_results
    _record_results = bool(config.getoption("record_results", False))


@pytest.fixture(scope="session", autouse=True)
def lint_speed_guard():
    """The repo linter must stay cheap: <5s over the full ``src/`` tree.

    The ``static-analysis`` CI job and pre-push habits both assume
    ``python -m repro.lint src`` is effectively free; a rule that grows
    a quadratic scan would silently erode that.  Asserting here (the
    bench tier runs nightly at full scale) keeps the budget honest —
    and re-checks that the shipped tree stays lint-clean.
    """
    import time

    from repro.lint.engine import run_lint

    src = _BENCH_DIR.parent / "src"
    start = time.perf_counter()
    report = run_lint([src])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, (
        f"repro.lint took {elapsed:.2f}s over {report.files_checked} "
        "files; the linter must stay under 5s to be run on every push"
    )
    assert report.ok(), "src/ tree has lint findings:\n" + "\n".join(
        d.render() for d in report.diagnostics
    )
    yield


def pytest_collection_modifyitems(items):
    """Mark every benchmark test ``slow`` so the quick tier can deselect
    the whole tree with ``-m "not slow"``.

    The hook sees the whole session's items, so restrict the marker to
    tests collected under ``benchmarks/``.
    """
    for item in items:
        if _BENCH_DIR in item.path.parents:
            item.add_marker(pytest.mark.slow)


def report(name: str, text: str, data=None) -> None:
    """Print *text* and persist it as ``<name>.txt`` in the results
    directory: ``.bench_results/`` by default, ``benchmarks/results/``
    under ``--record-results``.

    When *data* is given (any JSON-serializable value), a
    machine-readable twin lands at ``<name>.json`` so dashboards
    and regression diffs can consume the numbers without scraping the
    rendered table.
    """
    results_dir = RESULTS_DIR if _record_results else LOCAL_RESULTS_DIR
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        (results_dir / f"{name}.json").write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
    print(f"\n{text}\n")
