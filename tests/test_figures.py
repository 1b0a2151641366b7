"""Structure tests for the per-figure experiment definitions.

The runner's sweep core (``_cached_and_fresh``, under ``run_outcomes``
and ``run_sweep``) is stubbed so each figure's sweep structure (x values,
titles, settings wiring) is checked without paying for real routing.
"""

import inspect
import re

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.config import ExperimentSetting
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
from repro.experiments.harness import TaskOutcome
from repro.experiments.tables import headline_settings


@pytest.fixture
def stub_runner(monkeypatch):
    """Replace the sweep core with a recorder returning fixed rates, all
    of them as cache reads."""
    calls = []
    rates = {"ALG-N-FUSION": 2.0, "Q-CAST": 1.0, "Q-CAST-N": 1.5, "B1": 1.2}

    def fake_cached_and_fresh(settings, routers, workers, cache, shard,
                              estimator):
        calls.extend(settings)
        cached = [
            TaskOutcome(
                setting_index=setting_index,
                sample_index=0,
                router_index=router_index,
                algorithm=name,
                total_rate=rate,
                analytic_rate=rate,
            )
            for setting_index in range(len(settings))
            for router_index, (name, rate) in enumerate(rates.items())
        ]
        return cached, []

    monkeypatch.setattr(
        runner_module, "_cached_and_fresh", fake_cached_and_fresh
    )
    return calls


class TestFigureDefinitions:
    def test_fig7_sweeps_generators(self, stub_runner):
        sweep = fig7_generators(quick=True)
        assert sweep.x_values == ["waxman", "watts_strogatz", "aiello"]
        generators = [s.network.generator for s in stub_runner]
        assert generators == ["waxman", "watts_strogatz", "aiello"]
        assert "Figure 7" in sweep.title

    def test_fig8a_sweeps_p(self, stub_runner):
        sweep = fig8a_link_probability(quick=True)
        assert sweep.x_values == [0.1, 0.2, 0.3, 0.4]
        assert [s.fixed_p for s in stub_runner] == [0.1, 0.2, 0.3, 0.4]

    def test_fig8b_sweeps_q(self, stub_runner):
        sweep = fig8b_swap_probability(quick=True)
        assert sweep.x_values == [0.3, 0.5, 0.7, 0.9]
        assert [s.swap_q for s in stub_runner] == [0.3, 0.5, 0.7, 0.9]

    def test_fig9a_sweeps_capacity(self, stub_runner):
        sweep = fig9a_qubits(quick=True)
        assert sweep.x_values == [6, 8, 10, 12]
        assert [s.network.qubit_capacity for s in stub_runner] == [6, 8, 10, 12]

    def test_fig9b_keeps_paper_switch_counts(self, stub_runner):
        sweep = fig9b_switches(quick=True)
        assert sweep.x_values == [50, 100, 200, 400]
        assert [s.network.num_switches for s in stub_runner] == [50, 100, 200, 400]
        # Quick mode shrinks averaging, never the sweep itself.
        assert all(s.num_networks == 1 for s in stub_runner)

    def test_fig9b_ext_quick_matches_fig9b(self, stub_runner):
        sweep = fig9b_ext_switches(quick=True)
        assert sweep.x_values == [50, 100, 200, 400]
        assert [s.network.num_switches for s in stub_runner] == [
            50, 100, 200, 400,
        ]

    def test_fig9b_ext_full_extends_beyond_paper(self, stub_runner):
        sweep = fig9b_ext_switches(quick=False)
        assert sweep.x_values == [50, 100, 200, 400, 800, 1600]
        by_count = {
            s.network.num_switches: s.num_networks for s in stub_runner
        }
        # Paper-range points keep the paper's averaging; the extended
        # tail runs fewer samples to stay tractable.
        assert by_count[400] == 5
        assert by_count[800] == by_count[1600] == 2

    def test_fig9c_sweeps_states(self, stub_runner):
        sweep = fig9c_states(quick=True)
        assert sweep.x_values == [10, 20, 30, 40]
        assert [s.num_states for s in stub_runner] == [10, 20, 30, 40]

    def test_fig9d_sweeps_degree(self, stub_runner):
        sweep = fig9d_degree(quick=True)
        assert sweep.x_values == [5, 10, 15, 20]
        assert [s.network.average_degree for s in stub_runner] == [
            5.0, 10.0, 15.0, 20.0,
        ]

    def test_quick_mode_shrinks_networks(self, stub_runner):
        fig8a_link_probability(quick=True)
        assert all(s.network.num_switches == 50 for s in stub_runner)

    def test_full_mode_uses_paper_scale(self, stub_runner):
        fig8a_link_probability(quick=False)
        assert all(s.network.num_switches == 100 for s in stub_runner)
        assert all(s.num_networks == 5 for s in stub_runner)

    def test_fig7_quick_scales_after_the_generator(self, stub_runner):
        # A grid base snaps its quick switch count to a square (49);
        # each generator point scales its own count instead.
        fig7_generators(quick=True, scenario="paper-grid")
        assert [s.network.num_switches for s in stub_runner] == [50] * 3

    @pytest.mark.parametrize("scenario", ["paper-grid", "paper-ring"])
    def test_fig9c_quick_keeps_state_counts(self, stub_runner, scenario):
        # Quick scaling caps a base's states at 20; the sweep's points
        # apply after it.
        fig9c_states(quick=True, scenario=scenario)
        assert [s.num_states for s in stub_runner] == [10, 20, 30, 40]
        assert all(s.num_networks == 2 for s in stub_runner)

    def test_series_recorded_per_point(self, stub_runner):
        sweep = fig8b_swap_probability(quick=True)
        for series in sweep.series.values():
            assert len(series) == 4


class TestHeadlineSettings:
    def test_covers_default_and_corners(self):
        settings = headline_settings(quick=True)
        assert len(settings) == 4
        assert settings[0].fixed_p is None
        assert settings[1].fixed_p == 0.1
        assert settings[2].fixed_p == 0.2
        assert settings[3].swap_q == 0.5

    def test_full_mode_scale(self):
        settings = headline_settings(quick=False)
        assert settings[0].network.num_switches == 100


class TestExperimentsCliAll:
    def test_all_runs_every_experiment(self, monkeypatch, capsys):
        import repro.experiments.__main__ as cli

        ran = []

        class FakeResult:
            def to_text(self):
                return "fake"

        for name in list(cli.EXPERIMENTS):
            monkeypatch.setitem(
                cli.EXPERIMENTS, name,
                lambda quick, n=name, **kwargs: (ran.append(n), FakeResult())[1],
            )
        assert cli.main(["all"]) == 0
        # Quick-mode `all` skips fig9b-ext (identical to fig9b).
        assert set(ran) == set(cli.EXPERIMENTS) - {"fig9b-ext"}
        ran.clear()
        assert cli.main(["all", "--full"]) == 0
        assert set(ran) == set(cli.EXPERIMENTS)


#: Every flag with a valid value, and the keyword each one fills.
FLAG_ARGS = {
    "--full": ("quick", []),
    "--workers": ("workers", ["0"]),
    "--cache-dir": ("cache", ["{tmp}"]),
    "--routers": ("routers", ["alg-n-fusion"]),
    "--shard": ("shard", ["0/2"]),
    "--estimator": ("estimator", ["mc:trials=10"]),
    "--mc-overlay": ("mc_overlay", []),
    "--arrivals": ("arrivals", ["poisson:rate=1.0"]),
    "--duration": ("duration", ["50"]),
    "--warmup": ("warmup", ["5"]),
    "--replications": ("replications", ["1"]),
    "--seed": ("seed", ["3"]),
    "--record-trace": ("record_trace", ["{tmp}/run.trace"]),
    "--faults": ("faults", ["faults:link_mtbf=30"]),
    "--repair": ("repair", ["drop"]),
}


class FakeResult:
    def to_text(self):
        return "fake"

    def latency_text(self):
        return "latency"


def _stub(monkeypatch, cli, name, calls):
    """Replace experiment *name* by a recorder with its real signature;
    returns that signature's parameters."""
    parameters = inspect.signature(cli._runner(name)).parameters

    def recorder(**kwargs):
        calls.append(kwargs)
        return FakeResult()

    recorder.__signature__ = inspect.Signature(list(parameters.values()))
    if name == "serve":
        monkeypatch.setattr(cli, "run_serve_experiment", recorder)
    else:
        monkeypatch.setitem(cli.EXPERIMENTS, name, recorder)
    return parameters


#: One experiment per distinct signature; serve rejects --scenarios.
ROUTED = [
    (name, scenario_flag)
    for name in (
        "fig7", "fig9b-ext", "headline", "ablation", "protocol",
        "lattice", "mc-validate", "topology-compare", "serve",
    )
    for scenario_flag in ("--scenario", "--scenarios")
    if (name, scenario_flag) != ("serve", "--scenarios")
]


class TestFlagRouting:
    @pytest.mark.parametrize("name, scenario_flag", ROUTED)
    def test_notes_are_the_flags_not_taken(
        self, monkeypatch, capsys, tmp_path, name, scenario_flag
    ):
        import repro.experiments.__main__ as cli

        calls = []
        parameters = _stub(monkeypatch, cli, name, calls)
        flags = dict(FLAG_ARGS)
        flags[scenario_flag] = (
            scenario_flag[2:],
            ["paper-default,paper-ring" if scenario_flag == "--scenarios"
             else "paper-default"],
        )
        argv = [name]
        for flag, (_, values) in flags.items():
            argv += [flag, *(v.format(tmp=tmp_path) for v in values)]
        assert cli.main(argv) == 0
        notes = re.findall(
            rf"note: (--[a-z-]+) has no effect on '{name}'",
            capsys.readouterr().err,
        )
        not_taken = {
            flag for flag, (keyword, _) in flags.items()
            if keyword not in parameters
        }
        # A callable taking one scenario runs once per --scenarios.
        looped = (
            scenario_flag == "--scenarios"
            and "scenarios" not in parameters
            and "scenario" in parameters
        )
        if looped:
            not_taken.discard("--scenarios")
        assert sorted(notes) == sorted(not_taken)
        assert len(calls) == (2 if looped else 1)
        for kwargs in calls:
            assert set(kwargs) <= set(parameters)

    @pytest.mark.parametrize("env, quick", [
        (None, True), ("0", True), ("1", False),
    ])
    def test_repro_full_reaches_the_experiment(
        self, monkeypatch, env, quick
    ):
        import repro.experiments.__main__ as cli

        if env is None:
            monkeypatch.delenv("REPRO_FULL", raising=False)
        else:
            monkeypatch.setenv("REPRO_FULL", env)
        calls = []
        _stub(monkeypatch, cli, "fig8a", calls)
        assert cli.main(["fig8a"]) == 0
        assert [kwargs["quick"] for kwargs in calls] == [quick]

    @pytest.mark.parametrize("full", [False, True])
    def test_all_skips_fig9b_ext_only_when_quick(
        self, monkeypatch, capsys, full
    ):
        import repro.experiments.__main__ as cli

        monkeypatch.setenv("REPRO_FULL", "1" if full else "0")
        calls = {name: [] for name in cli.EXPERIMENTS}
        for name, recorded in calls.items():
            _stub(monkeypatch, cli, name, recorded)
        assert cli.main(["all"]) == 0
        ran = {name for name, recorded in calls.items() if recorded}
        assert ran == set(calls) - ({"fig9b-ext"} if not full else set())
        quick = [kw["quick"] for rec in calls.values() for kw in rec]
        assert quick and set(quick) == {not full}

    def test_shard_without_cache_only_notes_no_effect(
        self, monkeypatch, capsys
    ):
        import repro.experiments.__main__ as cli

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        _stub(monkeypatch, cli, "lattice", [])
        assert cli.main(["lattice", "--shard", "0/2"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "note: --shard has no effect on 'lattice'"
        ]

    def test_shard_without_cache_warns_where_taken(
        self, monkeypatch, capsys
    ):
        import repro.experiments.__main__ as cli

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        _stub(monkeypatch, cli, "fig8a", [])
        assert cli.main(["fig8a", "--shard", "0/2"]) == 0
        err = capsys.readouterr().err
        assert "cannot merge with other shards" in err
        assert "has no effect" not in err
