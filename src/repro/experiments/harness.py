"""Task-based execution layer for experiment sweeps.

A figure or table sweep is an embarrassingly parallel grid: every
``(setting, sample_index, router)`` triple is one independent unit of
work whose inputs are fully determined by the setting's pre-spawned
sample seed.  The setting axis is scenario-addressable — grid entry
points accept :class:`~repro.experiments.scenarios.ScenarioSpec`
values (or their string/preset spellings) anywhere they accept
settings, so the workload is a sweepable dimension like the router and
estimator.  This module makes that grid explicit:

* :func:`enumerate_tasks` expands settings × samples × routers into
  :class:`SweepTask` records, pre-spawning each sample's RNG seed with
  the exact derivation the sequential runner used (so results are
  bit-identical whatever the execution order);
* :func:`execute_task` runs one task; :func:`parallel_map` maps it
  inline or on a ``ProcessPoolExecutor`` (``workers``), returning
  outcomes in task order;
* :func:`shard_tasks` / :func:`shard_member` partition the grid
  deterministically into ``n`` shards so independent runs (e.g. on
  different machines) each own a disjoint slice and merge through the
  shared content-addressed result cache;
* :func:`merge_outcomes` folds outcomes back into per-setting
  ``{algorithm: mean rate}`` mappings, rejecting duplicate algorithm
  labels that would silently average two routers into one series.

Workers rebuild each sample's network and demand set from its seed; a
small per-process memo shares the instance between the routers evaluated
on the same sample, mirroring the sequential runner's behaviour.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentSetting
from repro.experiments.estimators import ANALYTIC, EstimatorSpec, estimate_plan
from repro.network.builder import build_network
from repro.network.demands import generate_demands
from repro.utils.rng import ensure_rng, spawn_seeds


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: route *router* on one sampled instance
    and evaluate the plan under *estimator*.

    ``sample_seed`` is the pre-spawned seed of the sample's generator;
    rebuilding ``ensure_rng(sample_seed)`` and drawing the network then
    the demands reproduces the sequential runner's instance bit-exactly.
    Monte-Carlo estimators draw from the seed's disjoint estimation
    substream, so the instance is the same whatever the estimator.
    """

    setting_index: int
    sample_index: int
    router_index: int
    sample_seed: int
    setting: ExperimentSetting
    router: object
    estimator: EstimatorSpec = ANALYTIC

    @property
    def key(self) -> Tuple[int, int, int]:
        """Deterministic merge position (setting, sample, router)."""
        return (self.setting_index, self.sample_index, self.router_index)


@dataclass(frozen=True)
class TaskOutcome:
    """The result of one :class:`SweepTask`.

    ``stderr``/``trials`` carry the Monte-Carlo uncertainty; analytic
    outcomes report ``stderr=0.0, trials=0``.  ``analytic_rate`` is the
    router's own Equation-1 rate, which every execution computes as a
    by-product of routing — a Monte-Carlo run therefore yields the
    analytic-vs-MC pair in one pass instead of routing the instance
    twice.
    """

    setting_index: int
    sample_index: int
    router_index: int
    algorithm: str
    total_rate: float
    stderr: float = 0.0
    trials: int = 0
    analytic_rate: Optional[float] = None

    @property
    def key(self) -> Tuple[int, int, int]:
        """Deterministic merge position (setting, sample, router)."""
        return (self.setting_index, self.sample_index, self.router_index)


def sample_seeds(setting: ExperimentSetting) -> List[int]:
    """The setting's per-sample seeds, in sample order."""
    return spawn_seeds(ensure_rng(setting.seed), setting.num_networks)


def enumerate_tasks(
    settings: Sequence,
    router_lists: Sequence[Sequence],
    estimator: EstimatorSpec = ANALYTIC,
) -> List[SweepTask]:
    """Expand settings × samples × routers into executable tasks.

    ``settings`` entries may be :class:`ExperimentSetting` values or
    scenarios (specs, preset names or spec strings), which coerce to
    settings with the paper's averaging — the scenario is a first-class
    grid axis.  ``router_lists`` holds one router sequence per setting
    (usually the same sequence repeated).  Task order matches the
    sequential runner's loop nesting — samples outer, routers inner — so
    replaying outcomes in task order reproduces its exact accumulation
    order.  Every task in the grid shares one *estimator*.
    """
    from repro.experiments.scenarios import as_setting

    settings = [as_setting(setting) for setting in settings]
    if len(settings) != len(router_lists):
        raise ValueError(
            f"{len(settings)} settings but {len(router_lists)} router lists"
        )
    tasks: List[SweepTask] = []
    for setting_index, (setting, routers) in enumerate(
        zip(settings, router_lists)
    ):
        seeds = sample_seeds(setting)
        for sample_index, seed in enumerate(seeds):
            for router_index, router in enumerate(routers):
                tasks.append(
                    SweepTask(
                        setting_index=setting_index,
                        sample_index=sample_index,
                        router_index=router_index,
                        sample_seed=seed,
                        setting=setting,
                        router=router,
                        estimator=estimator,
                    )
                )
    return tasks


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a CLI ``i/n`` shard selector into ``(index, count)``."""
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError
        shard = (int(index_text), int(count_text))
    except ValueError:
        raise ValueError(
            f"shard must look like i/n with 0 <= i < n (e.g. 0/2), "
            f"got {text!r}"
        ) from None
    return validate_shard(shard)


def validate_shard(shard: Tuple[int, int]) -> Tuple[int, int]:
    """Check a ``(index, count)`` shard selector; returns it unchanged."""
    index, count = shard
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard index must satisfy 0 <= index < count, got "
            f"{index}/{count}"
        )
    return index, count


def shard_member(
    shard: Tuple[int, int],
    setting_index: int,
    router_index: int,
    num_routers: int,
) -> bool:
    """True when *shard* owns the (setting, router) series.

    The partition unit is the whole per-sample series of one (setting,
    router) pair — the same unit the result cache stores — so every
    cache entry is produced by exactly one shard and complementary
    sharded runs merge losslessly through a shared ``--cache-dir``.
    Membership depends only on grid coordinates (round-robin over the
    flattened setting x router grid), never on cache state, so the
    partition is stable across runs and machines.
    """
    index, count = validate_shard(shard)
    return (setting_index * num_routers + router_index) % count == index


def shard_tasks(
    tasks: Sequence[SweepTask],
    shard: Tuple[int, int],
    num_routers: Optional[int] = None,
) -> List[SweepTask]:
    """The subset of *tasks* owned by ``shard = (index, count)``.

    ``num_routers`` is the router count of the full grid; when omitted
    it is inferred from the tasks (valid only when the sequence spans
    the complete grid).
    """
    tasks = list(tasks)
    if num_routers is None:
        num_routers = 1 + max((t.router_index for t in tasks), default=0)
    return [
        task
        for task in tasks
        if shard_member(
            shard, task.setting_index, task.router_index, num_routers
        )
    ]


#: Per-process memo of recently built (network, demands) instances, so
#: the routers evaluated on one sample share a single build.  Keyed by
#: the instance's full recipe; bounded to keep worker memory flat.
_INSTANCE_MEMO: Dict[Tuple, Tuple] = {}
_INSTANCE_MEMO_LIMIT = 4


def _instance_for(task: SweepTask):
    """Build (or recall) the task's sampled network + demand set."""
    key = (task.setting.network, task.setting.num_states, task.sample_seed)
    instance = _INSTANCE_MEMO.get(key)
    if instance is None:
        rng = ensure_rng(task.sample_seed)
        network = build_network(task.setting.network, rng)
        demands = generate_demands(network, task.setting.num_states, rng)
        instance = (network, demands)
        if len(_INSTANCE_MEMO) >= _INSTANCE_MEMO_LIMIT:
            _INSTANCE_MEMO.pop(next(iter(_INSTANCE_MEMO)))
        _INSTANCE_MEMO[key] = instance
    return instance


def execute_task(task: SweepTask) -> TaskOutcome:
    """Run one task: rebuild its instance, route it, estimate the plan.

    The analytic estimator reports the router's own Equation-1 rate;
    Monte-Carlo estimators re-evaluate the routed plan's establishment
    rate empirically, drawing from the sample seed's estimation
    substream so the outcome is identical in any process or shard.
    """
    network, demands = _instance_for(task)
    result = task.router.route(
        network, demands, task.setting.link_model(), task.setting.swap_model()
    )
    if not task.estimator.is_mc:
        return TaskOutcome(
            setting_index=task.setting_index,
            sample_index=task.sample_index,
            router_index=task.router_index,
            algorithm=result.algorithm,
            total_rate=result.total_rate,
            analytic_rate=result.total_rate,
        )
    estimate = estimate_plan(
        task.estimator,
        network,
        result.plan,
        task.setting.link_model(),
        task.setting.swap_model(),
        task.sample_seed,
    )
    return TaskOutcome(
        setting_index=task.setting_index,
        sample_index=task.sample_index,
        router_index=task.router_index,
        algorithm=result.algorithm,
        total_rate=estimate.mean,
        stderr=estimate.stderr,
        trials=estimate.trials,
        analytic_rate=result.total_rate,
    )


def submit_chunksize(num_items: int, workers: int) -> int:
    """Deterministic pool chunk size for a grid of *num_items* tasks.

    Submitting one future per task costs one pickle/IPC round trip per
    task; chunks amortise that.  Four chunks per worker keeps the load
    balanced when task costs vary (large settings next to small ones)
    while cutting the round trips by the chunk size.  Deterministic in
    the grid size alone, so scheduling — and therefore the task-order
    merge — never depends on timing.
    """
    return max(1, num_items // (max(1, workers) * 4))


def merge_outcomes(
    num_settings: int,
    outcomes: Iterable[TaskOutcome],
    value: Optional[Callable[[TaskOutcome], float]] = None,
) -> List[Dict[str, float]]:
    """Fold outcomes into one ``{algorithm: mean rate}`` dict per setting.

    Outcomes are replayed in deterministic ``(setting, sample, router)``
    order, so the mean accumulates per-sample rates exactly as the
    sequential runner did regardless of worker count or cache hits.  Two
    different routers producing the same ``result.algorithm`` label in
    one setting is an error: it would silently average their rates into
    a single series.  ``value`` selects what is averaged (default: the
    outcome's ``total_rate``; e.g. ``analytic_rate`` recovers the
    analytic series from a Monte-Carlo run's outcomes).
    """
    if value is None:
        value = lambda outcome: outcome.total_rate  # noqa: E731
    per_setting: List[Dict[str, List[float]]] = [
        {} for _ in range(num_settings)
    ]
    label_owner: List[Dict[str, int]] = [{} for _ in range(num_settings)]
    for outcome in sorted(outcomes, key=lambda o: o.key):
        owners = label_owner[outcome.setting_index]
        owner = owners.setdefault(outcome.algorithm, outcome.router_index)
        if owner != outcome.router_index:
            raise ValueError(
                f"duplicate algorithm label {outcome.algorithm!r} in "
                f"setting {outcome.setting_index}: routers {owner} and "
                f"{outcome.router_index} both report it — give each router "
                "a distinct name so their series stay separate"
            )
        series = per_setting[outcome.setting_index]
        series.setdefault(outcome.algorithm, []).append(value(outcome))
    return [
        {name: sum(values) / len(values) for name, values in series.items()}
        for series in per_setting
    ]


def parallel_map(
    fn: Callable,
    items: Sequence,
    workers: int = 0,
) -> List:
    """Map a picklable top-level function over *items*, optionally in
    worker processes.

    The sequential fallback (``workers <= 1``) runs inline; results
    always come back in input order, so merging never depends on
    scheduling.  Sweep grids map :func:`execute_task` over their tasks.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        chunksize = submit_chunksize(len(items), workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))
    return [fn(item) for item in items]
