"""Tests for the scenario-spec layer: grammar round-trips, presets,
setting derivation, registry-backed quick scaling, cache identity and
the topology-compare sweep's execution-plan invariance."""

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentSetting
from repro.experiments.runner import run_settings
from repro.experiments.scenarios import (
    PAPER_DEFAULT,
    SCENARIO_PRESETS,
    ScenarioSpec,
    ScenarioSpecError,
    as_setting,
    parse_scenario,
    parse_scenario_names,
    scenario_presets,
)
from repro.experiments.topology_compare import topology_compare
from repro.network.builder import NetworkConfig, build_network
from repro.network.registry import topology_keys
from repro.routing.registry import RouterSpec


class TestScenarioGrammar:
    def test_parse_issue_example(self):
        spec = parse_scenario("aiello:switches=100,states=20,q=0.85")
        assert spec.topology == "aiello"
        assert spec.num_switches == 100
        assert spec.num_states == 20
        assert spec.swap_q == 0.85

    @pytest.mark.parametrize(
        "text",
        [
            "waxman",
            "grid:switches=64,users=8",
            "barabasi_albert:degree=6.0,alpha=0.0002",
            "erdos_renyi:p=0.3,q=0.5,states=10",
            "ring:switches=12,user_links=2",
            "random_geometric:area=5000.0,qubits=8",
            "waxman:p=none",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_scenario(text)
        assert ScenarioSpec.from_string(spec.to_string()) == spec

    def test_to_string_omits_defaults(self):
        assert ScenarioSpec().to_string() == "waxman"
        assert parse_scenario("aiello:switches=100").to_string() == "aiello"

    def test_topology_normalizes_aliases_and_dashes(self):
        assert parse_scenario("watts").topology == "watts_strogatz"
        assert parse_scenario("watts-strogatz") == parse_scenario(
            "watts_strogatz"
        )
        assert parse_scenario("ba") == parse_scenario("barabasi_albert")

    def test_unknown_topology_names_supported_keys(self):
        with pytest.raises(ValueError) as err:
            parse_scenario("mystery")
        for key in topology_keys():
            assert key in str(err.value)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "waxman:bogus=3",
            "waxman:states",
            "waxman:states=",
            "waxman:states=abc",
            "waxman:states=20,states=30",
            "waxman:switches=12.5",
            "waxman:q=none",
            "waxman:degree=nan",
            # Range checks run at parse time, not mid-run.
            "waxman:degree=-1",
            "waxman:degree=inf",
            "waxman:q=1.5",
            "waxman:switches=0",
            "waxman:users=1",
            "waxman:p=2",
        ],
    )
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(ScenarioSpecError):
            parse_scenario(text)

    def test_float_params_coerce_from_ints(self):
        assert parse_scenario("waxman:degree=6").average_degree == 6.0
        assert parse_scenario("waxman:q=1").swap_q == 1.0

    def test_as_scenario_coercions(self):
        spec = ScenarioSpec(topology="grid")
        assert ScenarioSpec.coerce(spec) is spec
        assert ScenarioSpec.coerce("grid") == spec
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec.coerce(42)

    def test_parse_scenario_names_continuation(self):
        names = parse_scenario_names("grid:switches=64,users=8,paper-ring")
        assert names == ["grid:switches=64,users=8", "paper-ring"]

    def test_parse_scenario_names_rejects_leading_parameter(self):
        with pytest.raises(ScenarioSpecError):
            parse_scenario_names("switches=64,grid")

    def test_parse_scenario_names_validates_members(self):
        # Unknown topologies surface the registry's ValueError, which
        # argparse_type renders as a normal usage error.
        with pytest.raises(ValueError):
            parse_scenario_names("grid,mystery")


class TestPresets:
    def test_paper_default_is_the_paper_scenario(self):
        assert parse_scenario("paper-default") == PAPER_DEFAULT
        assert PAPER_DEFAULT == ScenarioSpec()

    def test_every_preset_parses_and_builds(self):
        for name in scenario_presets():
            spec = parse_scenario(name)
            network = build_network(spec.network_config(), rng=7)
            assert network.is_connected()

    def test_presets_cover_every_topology_family(self):
        covered = {parse_scenario(name).topology for name in SCENARIO_PRESETS}
        assert covered == set(topology_keys())


class TestSettingDerivation:
    def test_paper_default_setting_equals_hand_built(self):
        assert PAPER_DEFAULT.setting() == ExperimentSetting()

    def test_setting_scenario_round_trip(self):
        spec = parse_scenario("grid:switches=64,users=8,states=5,q=0.7")
        assert spec.setting().scenario() == spec

    def test_setting_averaging_overrides(self):
        setting = PAPER_DEFAULT.setting(num_networks=3, seed=11)
        assert setting.num_networks == 3
        assert setting.seed == 11
        assert setting.scenario() == PAPER_DEFAULT

    def test_as_setting_coercions(self):
        setting = ExperimentSetting()
        assert as_setting(setting) is setting
        assert as_setting("paper-default") == setting
        assert as_setting(PAPER_DEFAULT) == setting

    def test_generator_alias_settings_share_identity(self):
        via_alias = ExperimentSetting(
            network=NetworkConfig(generator="watts")
        )
        assert via_alias.scenario() == parse_scenario("watts_strogatz")


class TestQuickScaling:
    def test_grid_stays_square_after_halving(self):
        quick = as_setting("grid").scaled_for_quick_run()
        side = int(quick.network.num_switches ** 0.5)
        assert side * side == quick.network.num_switches
        assert quick.network.num_switches == 49

    def test_non_grid_scaling_unchanged(self):
        quick = ExperimentSetting().scaled_for_quick_run()
        assert quick.network.num_switches == 50
        assert quick.num_networks == 2


class TestCacheIdentity:
    def test_scenario_and_hand_built_settings_share_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        router = RouterSpec.create("q-cast")
        hand_built = ExperimentSetting(
            network=NetworkConfig(generator="grid", num_switches=64),
            num_states=5,
        )
        via_spec = as_setting("grid:switches=64,states=5")
        assert cache.key_for(hand_built, router) == cache.key_for(
            via_spec, router
        )

    def test_scenario_parameters_change_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        router = RouterSpec.create("q-cast")
        keys = {
            cache.key_for(as_setting(text), router)
            for text in (
                "waxman",
                "waxman:states=21",
                "waxman:q=0.8",
                "grid",
                "ring",
            )
        }
        assert len(keys) == 5


TINY_SCENARIOS = (
    "waxman:switches=20,users=4,states=3,p=0.5",
    "grid:switches=16,users=4,states=3,p=0.5",
    "ring:switches=12,users=4,states=3,p=0.5",
    "erdos_renyi:switches=20,users=4,states=3,p=0.5",
)


class TestScenarioSweeps:
    def test_run_settings_accepts_scenario_strings(self):
        text = TINY_SCENARIOS[1]
        via_string = run_settings([text], routers=["q-cast"])
        via_setting = run_settings([as_setting(text)], routers=["q-cast"])
        assert via_string == via_setting
        assert "Q-CAST" in via_string[0]

    def test_topology_compare_covers_every_family_and_router(self):
        sweep = topology_compare(
            quick=True,
            scenarios=list(TINY_SCENARIOS),
            routers=["alg-n-fusion", "q-cast"],
        )
        assert sweep.x_values == list(TINY_SCENARIOS)
        assert set(sweep.series) == {"ALG-N-FUSION", "Q-CAST"}
        for series in sweep.series.values():
            assert len(series) == len(TINY_SCENARIOS)

    def test_topology_compare_worker_and_shard_invariance(self, tmp_path):
        kwargs = dict(
            quick=True,
            scenarios=list(TINY_SCENARIOS),
            routers=["alg-n-fusion", "q-cast"],
        )
        sequential = topology_compare(workers=1, **kwargs)
        parallel = topology_compare(workers=2, **kwargs)
        assert sequential.to_text() == parallel.to_text()

        cache = ResultCache(tmp_path)
        topology_compare(workers=1, cache=cache, shard=(0, 2), **kwargs)
        merged = topology_compare(
            workers=1, cache=cache, shard=(1, 2), **kwargs
        )
        assert merged.to_text() == sequential.to_text()


class TestScenarioCli:
    def test_scenarios_listing(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "paper-default" in out
        assert "barabasi_albert" in out

    def test_topology_compare_cli(self, capsys):
        from repro.experiments.__main__ import main

        assert main([
            "topology-compare",
            "--scenarios", TINY_SCENARIOS[2],
            "--routers", "q-cast",
        ]) == 0
        out = capsys.readouterr().out
        assert TINY_SCENARIOS[2] in out
        assert "Q-CAST" in out

    def test_scenario_flag_on_grid_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main([
            "fig8a", "--scenario", TINY_SCENARIOS[1],
            "--routers", "q-cast",
        ]) == 0
        assert "Q-CAST" in capsys.readouterr().out

    def test_scenarios_flag_loops_grid_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main([
            "fig8a",
            "--scenarios", f"{TINY_SCENARIOS[1]},{TINY_SCENARIOS[2]}",
            "--routers", "q-cast",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("Figure 8a") == 2
        assert f"--- scenario: {TINY_SCENARIOS[2]} ---" in out

    def test_unknown_scenario_is_a_usage_error(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig8a", "--scenario", "mystery"])

    def test_scenario_and_scenarios_are_mutually_exclusive(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main([
                "fig8a", "--scenario", "grid", "--scenarios", "grid,ring",
            ])
