"""Monte-Carlo validation of Equation 1 as a first-class sweep.

The paper's headline figures are analytic (Equation-1) sweeps; the
reproduction's credibility rests on checking that analytic rate against
the ground-truth Phase-III process simulation.  :func:`mc_validate`
runs that check through the ordinary task harness: the
``(setting, sample, router)`` grid is evaluated once under a
Monte-Carlo estimator — whose outcomes carry the analytic rate their
routing produced as a by-product, so no second routing pass is needed —
and each outcome renders as a per-sample table row with
standard-error and relative-error columns.

Because both passes are plain harness runs, the validation inherits
everything the harness gives: ``--workers`` parallelism, ``--shard``
partitioning and the content-addressed result cache (analytic and MC
series key separately), all bit-identical across execution plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentSetting, is_full_run
from repro.experiments.estimators import EstimatorSpec, EstimatorSpecError
from repro.experiments.runner import run_outcomes, standard_specs
from repro.experiments.scenarios import as_setting
from repro.utils.tables import AsciiTable

#: The validation point: the paper's default network at a mid-range
#: uniform link probability, away from both saturation and starvation.
VALIDATION_FIXED_P = 0.35
VALIDATION_SEED = 4242

#: Trial counts for quick (CI-sized) and full (paper-scale) runs.
QUICK_TRIALS = 500
FULL_TRIALS = 3000


def validation_setting(quick: bool, scenario=None) -> ExperimentSetting:
    """The standard validation setting (scaled down for quick runs).

    ``scenario`` replaces the paper-default workload; the validation
    still pins its own seed, and a scenario without an explicit uniform
    ``p`` keeps the standard mid-range validation point.
    """
    if scenario is None:
        setting = ExperimentSetting(
            fixed_p=VALIDATION_FIXED_P, seed=VALIDATION_SEED
        )
    else:
        setting = as_setting(scenario)
        updates = {"seed": VALIDATION_SEED}
        if setting.fixed_p is None:
            updates["fixed_p"] = VALIDATION_FIXED_P
        setting = setting.with_updates(**updates)
    return setting.scaled_for_quick_run() if quick else setting


@dataclass(frozen=True)
class McValidationRow:
    """One (router, sample) comparison of analytic vs Monte Carlo."""

    algorithm: str
    sample_index: int
    analytic_rate: float
    mc_rate: float
    stderr: float
    trials: int

    @property
    def rel_err(self) -> float:
        """|MC - analytic| relative to the analytic rate."""
        return abs(self.mc_rate - self.analytic_rate) / max(
            self.analytic_rate, 1e-9
        )


@dataclass(frozen=True)
class McValidationResult:
    """The rendered analytic-vs-MC comparison."""

    title: str
    estimator: EstimatorSpec
    rows: Tuple[McValidationRow, ...]

    @property
    def worst_rel_err(self) -> Optional[float]:
        """Largest relative error across rows (``None`` when a sharded
        run holds no complete pair yet)."""
        if not self.rows:
            return None
        return max(row.rel_err for row in self.rows)

    def to_text(self) -> str:
        """Render the per-sample table plus a worst-case footer."""
        table = AsciiTable(
            ["algorithm", "sample", "analytic rate", "monte carlo",
             "stderr", "rel err"]
        )
        for row in self.rows:
            table.add_row([
                row.algorithm,
                row.sample_index,
                row.analytic_rate,
                row.mc_rate,
                row.stderr,
                row.rel_err,
            ])
        worst = self.worst_rel_err
        footer = (
            f"estimator: {self.estimator}; worst relative error: "
            f"{'n/a' if worst is None else f'{worst:.4g}'}"
        )
        return f"{self.title}\n{table.render()}\n{footer}"


def mc_validate(
    quick: Optional[bool] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    routers: Optional[Sequence] = None,
    shard: Optional[Tuple[int, int]] = None,
    estimator: Union[None, str, EstimatorSpec] = None,
    setting: Optional[ExperimentSetting] = None,
    scenario=None,
) -> McValidationResult:
    """Analytic-vs-Monte-Carlo comparison over one setting's task grid.

    ``routers`` accepts any specs/strings/instances (default: the
    paper's benchmark set); ``estimator`` must be a Monte-Carlo spec
    (default ``mc:trials=500`` quick / ``mc:trials=3000`` full, on the
    vectorised engine).  ``workers``/``cache``/``shard`` behave exactly
    as in :func:`~repro.experiments.runner.run_settings`; in a sharded
    run, rows for series another shard owns appear once that shard has
    populated the shared cache.  ``scenario`` validates Equation 1 on a
    different workload (see :func:`validation_setting`); an explicit
    ``setting`` wins over it.
    """
    if quick is None:
        quick = not is_full_run()
    if setting is None:
        setting = validation_setting(quick, scenario)
    if estimator is None:
        estimator = EstimatorSpec.mc(
            trials=QUICK_TRIALS if quick else FULL_TRIALS
        )
    else:
        estimator = EstimatorSpec.coerce(estimator)
    if not estimator.is_mc:
        raise EstimatorSpecError(
            f"mc-validate needs a Monte-Carlo estimator, got {estimator}"
        )
    specs = list(routers) if routers is not None else standard_specs()

    mc = run_outcomes(
        [setting], specs, workers=workers, cache=cache, shard=shard,
        estimator=estimator,
    )

    rows = []
    for outcome in sorted(mc, key=lambda o: (o.router_index, o.sample_index)):
        rows.append(
            McValidationRow(
                algorithm=outcome.algorithm,
                sample_index=outcome.sample_index,
                analytic_rate=outcome.analytic_rate,
                mc_rate=outcome.total_rate,
                stderr=outcome.stderr,
                trials=outcome.trials,
            )
        )
    return McValidationResult(
        title=(
            "Monte Carlo validation of Equation 1 "
            "(branch-independence approximation)"
        ),
        estimator=estimator,
        rows=tuple(rows),
    )
