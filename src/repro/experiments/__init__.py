"""Experiment harness: sweeps, figure/table definitions and reporting.

Every figure and table of the paper's evaluation section has a definition
here that regenerates its rows/series; the ``benchmarks/`` tree wraps them
in pytest-benchmark targets.  ``quick=True`` (the default used in CI-sized
runs) shrinks the network count and size; set the environment variable
``REPRO_FULL=1`` — or pass ``quick=False`` — for paper-scale runs.
"""

from repro.experiments.cache import ResultCache, default_result_cache
from repro.experiments.config import ExperimentSetting, default_workers, is_full_run
from repro.experiments.estimators import (
    ANALYTIC,
    EstimatorSpec,
    estimate_plan,
    estimation_rng,
    parse_estimator,
)
from repro.experiments.harness import (
    SweepTask,
    TaskOutcome,
    enumerate_tasks,
    execute_task,
    merge_outcomes,
    parallel_map,
    parse_shard,
    shard_member,
    shard_tasks,
)
from repro.experiments.regression import (
    build_regression_instance,
    regenerate_regression_fixture,
)
from repro.experiments.mc_validate import McValidationResult, mc_validate
from repro.experiments.runner import (
    SweepResult,
    run_outcomes,
    run_setting,
    run_settings,
    run_sweep,
    standard_specs,
)
from repro.experiments.scenarios import (
    PAPER_DEFAULT,
    ScenarioSpec,
    ScenarioSpecError,
    as_setting,
    parse_scenario,
    parse_scenario_names,
    scenario_presets,
)
from repro.experiments.topology_compare import (
    DEFAULT_COMPARE_SCENARIOS,
    topology_compare,
)
from repro.experiments.figures import (
    fig7_generators,
    fig8a_link_probability,
    fig8b_swap_probability,
    fig9a_qubits,
    fig9b_ext_switches,
    fig9b_switches,
    fig9c_states,
    fig9d_degree,
)
from repro.experiments.tables import alg4_ablation, headline_ratios
from repro.experiments.lattice import lattice_distance_study
from repro.experiments.protocol_study import protocol_coherence_study

__all__ = [
    "ANALYTIC",
    "DEFAULT_COMPARE_SCENARIOS",
    "EstimatorSpec",
    "ExperimentSetting",
    "McValidationResult",
    "PAPER_DEFAULT",
    "ResultCache",
    "ScenarioSpec",
    "ScenarioSpecError",
    "as_setting",
    "parse_scenario",
    "parse_scenario_names",
    "scenario_presets",
    "topology_compare",
    "default_result_cache",
    "estimate_plan",
    "estimation_rng",
    "mc_validate",
    "parse_estimator",
    "run_outcomes",
    "default_workers",
    "is_full_run",
    "SweepResult",
    "SweepTask",
    "TaskOutcome",
    "enumerate_tasks",
    "execute_task",
    "merge_outcomes",
    "parallel_map",
    "parse_shard",
    "shard_member",
    "shard_tasks",
    "build_regression_instance",
    "regenerate_regression_fixture",
    "run_setting",
    "run_settings",
    "run_sweep",
    "standard_specs",
    "fig7_generators",
    "fig8a_link_probability",
    "fig8b_swap_probability",
    "fig9a_qubits",
    "fig9b_switches",
    "fig9b_ext_switches",
    "fig9c_states",
    "fig9d_degree",
    "headline_ratios",
    "alg4_ablation",
    "lattice_distance_study",
    "protocol_coherence_study",
]
