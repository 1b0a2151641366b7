"""Cross-family topology comparison — the table the paper never ran.

The paper's evaluation fixes the workload to the Waxman family
(Section V-A; Figure 7 adds Watts-Strogatz and Aiello).  With the
scenario axis in place, the full cross product — every router × every
registered topology family under the paper's hardware defaults — is
one sweep: each scenario preset is a sweep point, and the routers'
series read across families.  Sharding, ``--workers`` parallelism,
the result cache and estimator selection all compose with the scenario
axis exactly as with any other sweep, bit-identically across execution
plans.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.config import is_full_run
from repro.experiments.runner import SweepResult, run_sweep, standard_specs
from repro.experiments.scenarios import ScenarioSpec

#: The default family grid: the paper's scenario plus every other
#: registered topology family under the paper's hardware defaults.
DEFAULT_COMPARE_SCENARIOS = (
    "paper-default",
    "paper-watts-strogatz",
    "paper-aiello",
    "paper-barabasi-albert",
    "paper-random-geometric",
    "paper-grid",
    "paper-erdos-renyi",
    "paper-ring",
)


def topology_compare(
    quick: Optional[bool] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    routers: Optional[Sequence] = None,
    shard: Optional[Tuple[int, int]] = None,
    estimator=None,
    mc_overlay=None,
    scenarios: Optional[Sequence] = None,
) -> SweepResult:
    """Entanglement rate of every router across topology families.

    ``scenarios`` (specs, preset names or spec strings; default: every
    family preset) is the x axis; ``routers`` defaults to all five
    registered routers (the paper's four series plus the MCF LP
    extension).  ``workers``/``cache``/``shard``/``estimator``/
    ``mc_overlay`` behave exactly as in
    :func:`~repro.experiments.runner.run_sweep`.
    """
    if quick is None:
        quick = not is_full_run()
    chosen = list(
        scenarios if scenarios is not None else DEFAULT_COMPARE_SCENARIOS
    )
    labels = [
        entry if isinstance(entry, str) else entry.to_string()
        for entry in chosen
    ]
    settings = []
    for entry in chosen:
        setting = ScenarioSpec.coerce(entry).setting()
        if quick:
            setting = setting.scaled_for_quick_run()
        settings.append(setting)
    return run_sweep(
        title=(
            "Topology comparison: entanglement rate vs. network family "
            "(beyond the paper's Waxman evaluation)"
        ),
        x_label="scenario",
        x_values=labels,
        settings=settings,
        routers=(
            standard_specs(include_mcf=True) if routers is None else routers
        ),
        workers=workers,
        cache=cache,
        shard=shard,
        estimator=estimator,
        mc_overlay=mc_overlay,
    )
