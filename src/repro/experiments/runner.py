"""Sweep runner: evaluate router specs across experiment settings.

The runner is a thin orchestration layer over
:mod:`repro.experiments.harness`: it expands settings × samples ×
routers into tasks, satisfies what it can from an optional
:class:`~repro.experiments.cache.ResultCache`, executes the rest inline
or across worker processes, and merges outcomes deterministically.  The
produced series are bit-identical for any ``workers`` value and for
warm-vs-cold caches.

Routers are addressed as :class:`~repro.routing.registry.RouterSpec`
values (spec strings and registered router instances are coerced via
:meth:`~repro.routing.registry.RouterSpec.coerce`), so a sweep's router
set can come from a CLI flag, a config file or a cache key as easily as
from code.  Likewise each run evaluates under an
:class:`~repro.experiments.estimators.EstimatorSpec` — the analytic
Equation-1 rate by default, or a Monte-Carlo re-evaluation of every
routed plan (``"mc:trials=N,engine=vectorized|reference"``) — and
estimator identity is part of each cache key.  A ``shard=(index,
count)`` selector restricts execution to a deterministic slice of the
(setting, router) grid; complementary shards running anywhere merge
losslessly through a shared cache directory.

The (setting, router) series — every sample of one router at one
setting — is the one unit of cache, shard and work: a series is a
cache hit, a miss this shard owns (which runs), or a miss another shard
owns (which is skipped), and each run series is stored as one entry.
A Monte-Carlo overlay needs a single Monte-Carlo pass when the base
estimator is analytic (each outcome carries its analytic rate, and the
analytic series is stored too) or equals the overlay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.experiments.cache import ResultCache, default_result_cache
from repro.experiments.config import ExperimentSetting, default_workers
from repro.experiments.estimators import (
    ANALYTIC,
    EstimatorSpec,
    EstimatorSpecError,
)
from repro.experiments.harness import (
    TaskOutcome,
    enumerate_tasks,
    execute_task,
    merge_outcomes,
    parallel_map,
    shard_member,
    validate_shard,
)
from repro.experiments.scenarios import as_setting
from repro.routing.registry import Router, RouterSpec
from repro.utils.tables import format_series


def standard_specs(
    include_alg3_only: bool = False,
    include_mcf: bool = False,
) -> List[RouterSpec]:
    """The paper's benchmark set as specs, in its reporting order.

    ``include_alg3_only`` appends the "Alg-3" ablation series (Figure
    7); ``include_mcf`` appends the multicommodity-flow LP extension.
    """
    specs = [
        RouterSpec.create("alg-n-fusion"),
        RouterSpec.create("q-cast"),
        RouterSpec.create("q-cast-n"),
        RouterSpec.create("b1"),
    ]
    if include_mcf:
        specs.append(RouterSpec.create("mcf"))
    if include_alg3_only:
        specs.append(RouterSpec.create("alg-n-fusion", include_alg4=False))
    return specs


def _specs(routers: Optional[Sequence]) -> List[RouterSpec]:
    """*routers* as specs, defaulting to :func:`standard_specs`."""
    return [
        RouterSpec.coerce(router)
        for router in (routers if routers is not None else standard_specs())
    ]


def run_outcomes(
    settings: Sequence[ExperimentSetting],
    routers: Optional[Sequence] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    shard: Optional[Tuple[int, int]] = None,
    estimator: Union[None, str, EstimatorSpec] = None,
) -> List[TaskOutcome]:
    """Every (setting, sample, router) outcome, in deterministic order.

    This is the sweep core :func:`run_settings` averages over; callers
    that need per-sample data — Monte-Carlo stderr columns, validation
    tables — consume it directly.  ``estimator`` selects how each routed
    plan becomes a rate (``None``/``"analytic"`` or an ``mc:...`` spec);
    estimator identity is part of the cache key, so analytic and MC
    results of the same grid coexist in one cache directory.

    Outcomes come back sorted by ``(setting, sample, router)`` and are
    bit-identical for any ``workers`` value, for warm-vs-cold caches and
    across complementary shards merged through a shared cache.  In a
    sharded run, series neither owned by this shard nor already cached
    are absent.

    ``settings`` entries may be :class:`ExperimentSetting` values or
    scenarios (:class:`~repro.experiments.scenarios.ScenarioSpec`
    values, preset names or spec strings) — the workload axis is
    addressable exactly like the router and estimator axes.
    """
    cached, fresh = _cached_and_fresh(
        settings, routers, workers, cache, shard, estimator
    )
    return sorted(cached + fresh, key=lambda o: o.key)


def _cached_and_fresh(
    settings: Sequence[ExperimentSetting],
    routers: Optional[Sequence],
    workers: Optional[int],
    cache: Optional[ResultCache],
    shard: Optional[Tuple[int, int]],
    estimator: Union[None, str, EstimatorSpec],
) -> Tuple[List[TaskOutcome], List[TaskOutcome]]:
    """:func:`run_outcomes`' outcomes, unsorted and split into those read
    from the cache and those routed (and stored) by this call."""
    settings = [as_setting(setting) for setting in settings]
    estimator = EstimatorSpec.coerce(estimator)
    built: List[Router] = [spec.build() for spec in _specs(routers)]
    reject_duplicate_labels(built)
    if shard is not None:
        validate_shard(shard)
    if workers is None:
        workers = default_workers()
    if cache is None:
        cache = default_result_cache()

    # One walk over the (setting, router) series: a cache hit expands
    # into outcomes here, a miss this shard owns runs, and a miss
    # another shard owns is skipped (a later run sharing the cache
    # directory merges it in).
    cached_outcomes: List[TaskOutcome] = []
    owned: Set[Tuple[int, int]] = set()
    for setting_index, setting in enumerate(settings):
        for router_index, router in enumerate(built):
            entry = None
            if cache is not None:
                entry = cache.get(cache.key_for(setting, router, estimator))
            if entry is not None and len(entry["rates"]) == setting.num_networks:
                cached_outcomes.extend(
                    TaskOutcome(
                        setting_index=setting_index,
                        sample_index=sample_index,
                        router_index=router_index,
                        algorithm=entry["algorithm"],
                        total_rate=rate,
                        stderr=entry["stderrs"][sample_index],
                        trials=entry["trials"],
                        analytic_rate=entry["analytic_rates"][sample_index],
                    )
                    for sample_index, rate in enumerate(entry["rates"])
                )
            elif shard is None or shard_member(
                shard, setting_index, router_index, len(built)
            ):
                owned.add((setting_index, router_index))

    tasks = [
        task
        for task in enumerate_tasks(settings, [built] * len(settings), estimator)
        if (task.setting_index, task.router_index) in owned
    ]
    fresh_outcomes = parallel_map(execute_task, tasks, workers)
    if cache is not None:
        _store_fresh(cache, settings, built, fresh_outcomes, estimator)
    return cached_outcomes, fresh_outcomes


def run_settings(
    settings: Sequence[ExperimentSetting],
    routers: Optional[Sequence] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    shard: Optional[Tuple[int, int]] = None,
    estimator: Union[None, str, EstimatorSpec] = None,
) -> List[Dict[str, float]]:
    """Mean network entanglement rate per algorithm at each setting.

    Each setting's ``num_networks`` samples draw fresh topologies and
    demand sets from the setting's seed; every router sees the same
    samples, so the comparison is paired.  ``routers`` may mix
    :class:`RouterSpec` values, spec strings and registered router
    instances.  ``workers > 1`` fans the (setting, sample, router) task
    grid out over that many processes; ``cache`` short-circuits
    (setting, router, estimator) series already on disk (``None`` falls
    back to the ``REPRO_CACHE_DIR`` environment default).
    ``workers=None`` reads the ``REPRO_WORKERS`` environment default.
    ``estimator`` selects analytic Equation-1 rates (the default) or a
    Monte-Carlo re-evaluation of each routed plan (``"mc:trials=N"``).

    ``shard=(index, count)`` executes only the grid slice the shard
    owns; series owned by other shards are still *read* from the cache
    when present, so once every shard has run against a shared cache
    directory any further run returns the complete merged result.
    Series neither owned nor cached are simply absent from the returned
    mappings.
    """
    settings = [as_setting(setting) for setting in settings]
    outcomes = run_outcomes(
        settings,
        routers,
        workers=workers,
        cache=cache,
        shard=shard,
        estimator=estimator,
    )
    return merge_outcomes(len(settings), outcomes)


def reject_duplicate_labels(built: Sequence) -> None:
    """Fail before any routing work when two routers will report the
    same series label.

    ``merge_outcomes`` catches this too, but only after the sweep has
    executed — a potentially hours-long waste for ``--full`` runs.
    Routers expose the label either as ``algorithm_label`` (when it is
    not simply the name, e.g. AlgNFusion's Alg-3-only suffix) or as
    ``name``; routers exposing neither are left to the backstop.
    """
    owners: Dict[str, int] = {}
    for index, router in enumerate(built):
        label = getattr(
            router, "algorithm_label", getattr(router, "name", None)
        )
        if label is None:
            continue
        owner = owners.setdefault(label, index)
        if owner != index:
            raise ValueError(
                f"duplicate algorithm label {label!r}: routers {owner} and "
                f"{index} both report it — give each router a distinct "
                "name (e.g. ':name=VARIANT') so their series stay separate"
            )


def _store_fresh(
    cache: ResultCache,
    settings: Sequence[ExperimentSetting],
    routers: Sequence,
    outcomes: Sequence[TaskOutcome],
    estimator: EstimatorSpec,
) -> None:
    """Persist each (setting, router) series of *outcomes*, given in
    sample order, under *estimator*'s key.

    An analytic entry holds the outcomes' analytic rates with stderr
    0.0 and trials 0, so a Monte-Carlo pass backfills the analytic
    series it routed with exactly what a plain analytic run writes.
    """
    series: Dict[Tuple[int, int], List[TaskOutcome]] = {}
    for outcome in outcomes:
        series.setdefault(
            (outcome.setting_index, outcome.router_index), []
        ).append(outcome)
    for (setting_index, router_index), ordered in series.items():
        key = cache.key_for(
            settings[setting_index], routers[router_index], estimator
        )
        analytic_rates = [outcome.analytic_rate for outcome in ordered]
        if not estimator.is_mc:
            cache.put(key, ordered[0].algorithm, analytic_rates)
            continue
        cache.put(
            key,
            ordered[0].algorithm,
            [outcome.total_rate for outcome in ordered],
            stderrs=[outcome.stderr for outcome in ordered],
            trials=ordered[0].trials,
            analytic_rates=analytic_rates,
        )


def run_setting(
    setting: ExperimentSetting,
    routers: Optional[Sequence] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    shard: Optional[Tuple[int, int]] = None,
    estimator: Union[None, str, EstimatorSpec] = None,
) -> Dict[str, float]:
    """Mean network entanglement rate per algorithm at one setting.

    See :func:`run_settings` for the execution model; this is the
    single-setting convenience wrapper.
    """
    return run_settings(
        [setting],
        routers,
        workers=workers,
        cache=cache,
        shard=shard,
        estimator=estimator,
    )[0]


@dataclass
class SweepResult:
    """A figure-style sweep: one x-axis, one series per algorithm."""

    title: str
    x_label: str
    x_values: List
    series: Dict[str, List[float]] = field(default_factory=dict)
    _points_added: int = field(default=0, init=False, repr=False)

    def add_point(self, rates: Mapping[str, float]) -> None:
        """Append one sweep point's per-algorithm rates.

        Algorithms absent at this point — e.g. series owned by another
        shard of a partitioned run — are padded with NaN so every column
        stays aligned with ``x_values``.
        """
        index = self._points_added
        self._points_added = index + 1
        for name, value in rates.items():
            column = self.series.setdefault(name, [])
            column.extend([float("nan")] * (index - len(column)))
            column.append(value)
        for column in self.series.values():
            column.extend([float("nan")] * (index + 1 - len(column)))

    def to_text(self) -> str:
        """Render as the rows/series the paper's figure shows."""
        body = format_series(self.x_label, self.x_values, self.series)
        return f"{self.title}\n{body}"

    def series_for(self, algorithm: str) -> List[float]:
        """One algorithm's series."""
        return list(self.series[algorithm])


#: Suffix appended to a series name for its Monte-Carlo overlay column.
MC_OVERLAY_SUFFIX = " [MC]"


def run_sweep(
    title: str,
    x_label: str,
    x_values: Sequence,
    settings: Sequence[ExperimentSetting],
    routers: Optional[Sequence] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    shard: Optional[Tuple[int, int]] = None,
    estimator: Union[None, str, EstimatorSpec] = None,
    mc_overlay: Union[None, str, EstimatorSpec] = None,
) -> SweepResult:
    """Evaluate *settings* (one per x value) into a :class:`SweepResult`.

    All settings' tasks are pooled into one grid before execution, so a
    multi-worker run keeps every process busy across the whole sweep
    rather than barriering at each x value.

    ``estimator`` evaluates the whole sweep under one estimator;
    ``mc_overlay`` additionally evaluates the same grid under a
    Monte-Carlo estimator and appends its series as ``"<name> [MC]"``
    columns next to the base ones, so every figure can carry MC
    validation points.  With an analytic base (the default) the overlay
    needs no extra routing: every MC outcome carries the analytic rate
    its routing produced, so one pass yields both columns.
    """
    if len(x_values) != len(settings):
        raise ValueError(
            f"{len(x_values)} x values but {len(settings)} settings"
        )
    settings = [as_setting(setting) for setting in settings]
    base_spec = EstimatorSpec.coerce(estimator)
    overlay_spec = None
    if mc_overlay is not None:
        overlay_spec = EstimatorSpec.coerce(mc_overlay)
        if not overlay_spec.is_mc:
            raise EstimatorSpecError(
                f"mc_overlay must be a Monte-Carlo estimator, got "
                f"{overlay_spec}"
            )
    # One Monte-Carlo pass serves both column sets when the base is
    # analytic (every MC outcome carries the analytic rate its routing
    # produced) or equals the overlay; otherwise each estimator runs.
    passes = [base_spec]
    if overlay_spec is not None and base_spec in (ANALYTIC, overlay_spec):
        passes = [overlay_spec]
    elif overlay_spec is not None:
        passes.append(overlay_spec)
    runs = []
    routed = []
    for spec in passes:
        cached, fresh = _cached_and_fresh(
            settings, routers, workers, cache, shard, spec
        )
        runs.append(sorted(cached + fresh, key=lambda o: o.key))
        routed.append(fresh)
    backfill = passes[0] != base_spec
    base_points = merge_outcomes(
        len(settings),
        runs[0],
        value=(lambda o: o.analytic_rate) if backfill else None,
    )
    overlay_points = None
    if overlay_spec is not None:
        overlay_points = merge_outcomes(len(settings), runs[-1])
    store = cache if cache is not None else default_result_cache()
    if backfill and store is not None:
        # The analytic series came for free with the MC routing; store
        # it under its own key too, so a later plain analytic run of
        # this grid is a cache read, not a re-route.  Series the MC
        # pass read from the cache were backfilled when they were
        # routed, and are not written again.
        _store_fresh(store, settings, _specs(routers), routed[0], ANALYTIC)
    sweep = SweepResult(title=title, x_label=x_label, x_values=list(x_values))
    for index, rates in enumerate(base_points):
        point = dict(rates)
        if overlay_points is not None:
            for name, value in overlay_points[index].items():
                point[f"{name}{MC_OVERLAY_SUFFIX}"] = value
        sweep.add_point(point)
    return sweep
