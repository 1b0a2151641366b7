"""Tests for the first-class Monte-Carlo validation sweep: table
shape, execution-plan invariance (workers/shards/cache) and the CLI
subcommand."""

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentSetting
from repro.experiments.estimators import EstimatorSpecError
from repro.experiments.mc_validate import (
    McValidationResult,
    mc_validate,
    validation_setting,
)
from repro.network.builder import NetworkConfig


def tiny_setting(**kwargs):
    defaults = dict(
        network=NetworkConfig(num_switches=20, num_users=4),
        num_states=4,
        num_networks=2,
        fixed_p=0.5,
        seed=77,
    )
    defaults.update(kwargs)
    return ExperimentSetting(**defaults)


def tiny_validate(**kwargs):
    defaults = dict(
        setting=tiny_setting(),
        estimator="mc:trials=200",
        routers=["alg-n-fusion", "q-cast"],
    )
    defaults.update(kwargs)
    return mc_validate(**defaults)


class TestMcValidate:
    def test_table_shape(self):
        result = tiny_validate()
        assert isinstance(result, McValidationResult)
        # One row per (router, sample) pair, grouped by router.
        assert len(result.rows) == 4
        assert [row.algorithm for row in result.rows] == [
            "ALG-N-FUSION", "ALG-N-FUSION", "Q-CAST", "Q-CAST",
        ]
        for row in result.rows:
            assert row.trials == 200
            assert row.stderr >= 0.0

    def test_rendered_columns(self):
        text = tiny_validate().to_text()
        for column in ("algorithm", "analytic rate", "monte carlo",
                       "stderr", "rel err"):
            assert column in text
        assert "worst relative error" in text

    def test_mc_stays_near_analytic(self):
        result = tiny_validate(estimator="mc:trials=800")
        assert result.worst_rel_err < 0.30

    def test_workers_do_not_change_table(self):
        sequential = tiny_validate(workers=0)
        parallel = tiny_validate(workers=4)
        assert parallel.to_text() == sequential.to_text()

    def test_sharded_runs_merge_bit_identically(self, tmp_path):
        cache = ResultCache(tmp_path)
        tiny_validate(shard=(0, 2), cache=cache)
        merged = tiny_validate(shard=(1, 2), cache=cache)
        unsharded = tiny_validate()
        assert merged.to_text() == unsharded.to_text()

    def test_partial_shard_reports_partial_rows(self, tmp_path):
        cache = ResultCache(tmp_path)
        partial = tiny_validate(shard=(0, 2), cache=cache)
        full = tiny_validate()
        assert 0 < len(partial.rows) < len(full.rows)

    def test_empty_rows_render_na(self):
        result = McValidationResult(
            title="t", estimator=tiny_validate().estimator, rows=()
        )
        assert result.worst_rel_err is None
        assert "n/a" in result.to_text()

    def test_rejects_analytic_estimator(self):
        with pytest.raises(EstimatorSpecError):
            tiny_validate(estimator="analytic")

    def test_default_setting_scales_with_quick(self):
        quick = validation_setting(True)
        full = validation_setting(False)
        assert quick.network.num_switches < full.network.num_switches
        assert quick.seed == full.seed == 4242
        assert quick.fixed_p == full.fixed_p == 0.35


class TestCli:
    def test_mc_validate_subcommand(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["mc-validate", "--routers", "alg-n-fusion"]) == 0
        out = capsys.readouterr().out
        assert "Monte Carlo validation" in out
        assert "ALG-N-FUSION" in out

    def test_mc_validate_rejects_analytic_estimator(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["mc-validate", "--estimator", "analytic"]) == 2
        assert "Monte-Carlo" in capsys.readouterr().err

    def test_mc_overlay_rejects_analytic(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig8a", "--mc-overlay", "analytic"]) == 2
        assert "Monte-Carlo" in capsys.readouterr().err

    def test_all_loop_downgrades_analytic_estimator_to_note(self, capsys):
        """`all --estimator analytic` must not crash when the loop
        reaches mc-validate; the table keeps its MC default."""
        from repro.experiments.__main__ import run_one
        from repro.experiments.estimators import ANALYTIC

        run_one(
            "mc-validate", True,
            {
                "--routers": ("routers", ["alg-n-fusion"]),
                "--estimator": ("estimator", ANALYTIC),
            },
        )
        captured = capsys.readouterr()
        assert "Monte Carlo validation" in captured.out
        assert "has no effect" in captured.err

    def test_estimator_usage_error(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig8a", "--estimator", "mc:engine=gpu"])
