"""Tests for the estimator dimension of the sweep harness: spec
grammar, the estimation RNG substream, cache keying/round-trips and
vectorized-vs-reference engine agreement."""

import json
from unittest import mock

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentSetting
from repro.experiments.estimators import (
    ANALYTIC,
    DEFAULT_MC_TRIALS,
    EstimatorSpec,
    EstimatorSpecError,
    estimate_plan,
    estimation_rng,
    parse_estimator,
)
from repro.experiments.regression import build_regression_instance
from repro.experiments.runner import run_outcomes, run_settings, run_sweep
from repro.network.builder import NetworkConfig
from repro.routing.nfusion import AlgNFusion
from repro.utils.rng import ensure_rng, stream_rng


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


class TestEstimatorSpec:
    def test_analytic_default(self):
        assert ANALYTIC == EstimatorSpec()
        assert not ANALYTIC.is_mc
        assert ANALYTIC.to_string() == "analytic"

    def test_parse_analytic(self):
        assert parse_estimator("analytic") == ANALYTIC
        assert parse_estimator(" ANALYTIC ") == ANALYTIC

    def test_parse_mc_defaults(self):
        spec = parse_estimator("mc")
        assert spec.is_mc
        assert spec.trials == DEFAULT_MC_TRIALS
        assert spec.engine == "vectorized"

    def test_parse_mc_params(self):
        spec = parse_estimator("mc:trials=2000,engine=reference")
        assert spec == EstimatorSpec("mc", 2000, "reference")

    def test_round_trip(self):
        for text in ("analytic", "mc:trials=123,engine=reference"):
            spec = parse_estimator(text)
            assert parse_estimator(spec.to_string()) == spec
            assert str(spec) == spec.to_string()

    @pytest.mark.parametrize("text", [
        "exact",
        "analytic:trials=5",
        "mc:trials=0",
        "mc:trials=abc",
        "mc:engine=gpu",
        "mc:trials",
        "mc:trials=5,trials=6",
        "mc:depth=2",
        "",
    ])
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(EstimatorSpecError):
            parse_estimator(text)

    def test_constructor_validation(self):
        with pytest.raises(EstimatorSpecError):
            EstimatorSpec("analytic", trials=5)
        with pytest.raises(EstimatorSpecError):
            EstimatorSpec("mc", trials=0, engine="vectorized")
        with pytest.raises(EstimatorSpecError):
            EstimatorSpec("mc", trials=10, engine="")

    def test_as_estimator_coercions(self):
        assert EstimatorSpec.coerce(None) == ANALYTIC
        assert EstimatorSpec.coerce("mc") == EstimatorSpec.mc()
        spec = EstimatorSpec.mc(trials=9)
        assert EstimatorSpec.coerce(spec) is spec
        with pytest.raises(EstimatorSpecError):
            EstimatorSpec.coerce(42)


class TestEstimationStream:
    def test_disjoint_from_instance_stream(self):
        """The estimation substream must not replay the sample stream."""
        seed = 123456
        instance_draws = ensure_rng(seed).uniform(size=8)
        estimation_draws = estimation_rng(seed).uniform(size=8)
        assert not (instance_draws == estimation_draws).any()

    def test_stateless_and_deterministic(self):
        a = estimation_rng(99).uniform(size=4)
        b = estimation_rng(99).uniform(size=4)
        assert (a == b).all()

    def test_streams_differ_by_index(self):
        a = stream_rng(7, 0).uniform(size=4)
        b = stream_rng(7, 1).uniform(size=4)
        assert not (a == b).any()

    def test_stream_rng_validation(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            stream_rng(-1, 0)
        with pytest.raises(ConfigurationError):
            stream_rng(1, -1)
        with pytest.raises(ConfigurationError):
            stream_rng("seed", 0)
        # A stream is validated as a seed is: an int, not a bool.
        for stream in (1.5, True, "2", None):
            with pytest.raises(ConfigurationError, match="must be an int"):
                stream_rng(1, stream)
        # Seeds fill at most the four-word pool; a stream is one word.
        stream_rng(2**128 - 1, 2**32 - 1)
        for seed, stream in ((2**128, 0), (1, 2**32)):
            with pytest.raises(ConfigurationError, match="must be in"):
                stream_rng(seed, stream)


class TestMcHarness:
    def test_workers_do_not_change_mc_series(self):
        """MC draws derive from sample seeds, so worker count is moot."""
        settings = [tiny_setting(fixed_p=p) for p in (0.3, 0.6)]
        estimator = "mc:trials=200"
        sequential = run_settings(settings, workers=0, estimator=estimator)
        parallel = run_settings(settings, workers=4, estimator=estimator)
        assert parallel == sequential

    def test_mc_outcomes_carry_uncertainty(self):
        outcomes = run_outcomes(
            [tiny_setting(num_networks=1)],
            ["alg-n-fusion"],
            estimator="mc:trials=150",
        )
        [outcome] = outcomes
        assert outcome.trials == 150
        assert outcome.stderr > 0.0

    def test_mc_outcomes_carry_analytic_pairing(self):
        """Routing yields the analytic rate as a by-product, so one MC
        pass holds the full analytic-vs-MC pair."""
        setting = tiny_setting(num_networks=1)
        [mc] = run_outcomes(
            [setting], ["alg-n-fusion"], estimator="mc:trials=100"
        )
        [analytic] = run_outcomes([setting], ["alg-n-fusion"])
        assert mc.analytic_rate == analytic.total_rate
        assert analytic.analytic_rate == analytic.total_rate

    def test_analytic_outcomes_have_no_uncertainty(self):
        outcomes = run_outcomes(
            [tiny_setting(num_networks=1)], ["alg-n-fusion"]
        )
        [outcome] = outcomes
        assert outcome.trials == 0
        assert outcome.stderr == 0.0

    def test_trials_do_not_perturb_instances(self):
        """Changing the MC budget must not change what is routed.

        The analytic rates are a pure function of the sampled
        instances, so equal analytic outcomes before and after MC runs
        of different sizes prove the instance stream is untouched.
        """
        setting = tiny_setting()
        baseline = run_settings([setting])
        run_settings([setting], estimator="mc:trials=50")
        run_settings([setting], estimator="mc:trials=250")
        assert run_settings([setting]) == baseline

    def test_mc_tracks_analytic(self):
        """At moderate trial counts MC means sit near Equation 1."""
        setting = tiny_setting()
        analytic = run_settings([setting])[0]
        mc = run_settings([setting], estimator="mc:trials=800")[0]
        for name, rate in analytic.items():
            assert mc[name] == pytest.approx(rate, rel=0.25, abs=0.15)

    def test_engines_agree_within_stderr_on_regression_fixture(self):
        """Vectorized and reference estimates of the pinned instance's
        plan agree within their combined reported standard error."""
        network, demands = build_regression_instance()
        result = AlgNFusion().route(network, demands)
        fast = estimate_plan(
            EstimatorSpec.mc(trials=2500), network, result.plan,
            None, None, sample_seed=555,
        )
        slow = estimate_plan(
            EstimatorSpec.mc(trials=1000, engine="reference"),
            network, result.plan, None, None, sample_seed=777,
        )
        combined = (fast.stderr**2 + slow.stderr**2) ** 0.5
        assert abs(fast.mean - slow.mean) <= 4.0 * combined

    def test_engines_agree_at_harness_level(self):
        """Same task grid, same seeds: the two engines' estimates are
        statistically compatible outcome-for-outcome."""
        setting = tiny_setting(num_networks=1)
        fast = run_outcomes(
            [setting], ["alg-n-fusion"], estimator="mc:trials=1500"
        )
        slow = run_outcomes(
            [setting], ["alg-n-fusion"],
            estimator="mc:trials=600,engine=reference",
        )
        for f, s in zip(fast, slow):
            assert f.key == s.key
            combined = (f.stderr**2 + s.stderr**2) ** 0.5
            assert abs(f.total_rate - s.total_rate) <= 5.0 * combined

    def test_estimate_plan_rejects_analytic(self):
        network, demands = build_regression_instance()
        result = AlgNFusion().route(network, demands)
        with pytest.raises(EstimatorSpecError):
            estimate_plan(ANALYTIC, network, result.plan, None, None, 1)


class TestMcCache:
    def test_key_distinguishes_estimators(self, tmp_path):
        cache = ResultCache(tmp_path)
        setting = tiny_setting()
        router = AlgNFusion()
        analytic_key = cache.key_for(setting, router)
        assert analytic_key == cache.key_for(setting, router, ANALYTIC)
        assert analytic_key == cache.key_for(setting, router, "analytic")
        mc_key = cache.key_for(setting, router, "mc:trials=500")
        assert mc_key != analytic_key
        assert mc_key != cache.key_for(setting, router, "mc:trials=600")
        assert mc_key != cache.key_for(
            setting, router, "mc:trials=500,engine=reference"
        )

    def test_mc_cache_round_trip(self, tmp_path):
        """A warm MC run replays the cold run bit-exactly, stderr and
        trials included."""
        cache = ResultCache(tmp_path)
        setting = tiny_setting()
        cold = run_outcomes(
            [setting], cache=cache, estimator="mc:trials=120"
        )
        warm = run_outcomes(
            [setting], cache=cache, estimator="mc:trials=120"
        )
        assert warm == cold
        assert any(outcome.stderr > 0.0 for outcome in cold)

    def test_mc_cache_round_trip_across_processes(self, tmp_path):
        """Workers write the cache; a later sequential process-free run
        reads identical outcomes."""
        cache = ResultCache(tmp_path)
        setting = tiny_setting()
        cold = run_outcomes(
            [setting], workers=2, cache=cache, estimator="mc:trials=90"
        )
        warm = run_outcomes(
            [setting], workers=0, cache=cache, estimator="mc:trials=90"
        )
        assert warm == cold

    def test_entries_store_stderrs_and_trials(self, tmp_path):
        cache = ResultCache(tmp_path)
        setting = tiny_setting(num_networks=1)
        run_outcomes(
            [setting], ["alg-n-fusion"], cache=cache,
            estimator="mc:trials=75",
        )
        [path] = list(tmp_path.glob("*.json"))
        entry = json.loads(path.read_text())
        assert entry["trials"] == 75
        assert len(entry["stderrs"]) == 1

    def test_legacy_entry_without_stderrs_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(tiny_setting(), AlgNFusion())
        cache.put(key, "X", [1.0])
        path = tmp_path / f"{key}.json"
        entry = json.loads(path.read_text())
        del entry["stderrs"]
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_put_rejects_mismatched_stderrs(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put("k", "X", [1.0, 2.0], stderrs=[0.1])

    def test_env_default_cache(self, tmp_path, monkeypatch):
        """REPRO_CACHE_DIR makes runs cache-aware without call-site
        changes."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        setting = tiny_setting(num_networks=1)
        cold = run_settings([setting], ["alg-n-fusion"])
        assert list(tmp_path.glob("*.json"))
        assert run_settings([setting], ["alg-n-fusion"]) == cold


class TestMcOverlay:
    def test_overlay_adds_mc_columns(self):
        settings = [tiny_setting(fixed_p=p) for p in (0.3, 0.6)]
        sweep = run_sweep(
            "t", "p", [0.3, 0.6], settings,
            routers=["alg-n-fusion"],
            mc_overlay="mc:trials=120",
        )
        assert set(sweep.series) == {"ALG-N-FUSION", "ALG-N-FUSION [MC]"}
        assert len(sweep.series_for("ALG-N-FUSION [MC]")) == 2

    def test_overlay_base_columns_match_plain_analytic_run(self):
        """The single-pass overlay derives the analytic columns from
        the MC outcomes; they must equal a plain analytic sweep."""
        settings = [tiny_setting(fixed_p=p) for p in (0.3, 0.6)]
        plain = run_sweep(
            "t", "p", [0.3, 0.6], settings, routers=["alg-n-fusion"]
        )
        overlaid = run_sweep(
            "t", "p", [0.3, 0.6], settings, routers=["alg-n-fusion"],
            mc_overlay="mc:trials=120",
        )
        assert overlaid.series_for("ALG-N-FUSION") == plain.series_for(
            "ALG-N-FUSION"
        )

    def test_overlay_backfills_analytic_cache(self, tmp_path):
        """The overlay's free analytic series lands under the analytic
        cache key as exactly the entry a plain analytic run writes, so a
        later plain analytic run is a pure cache read."""
        cache = ResultCache(tmp_path / "overlay")
        plain_cache = ResultCache(tmp_path / "plain")
        setting = tiny_setting(num_networks=2)
        overlaid = run_sweep(
            "t", "p", [0.5], [setting], routers=["alg-n-fusion"],
            cache=cache, mc_overlay="mc:trials=100",
        )
        run_sweep(
            "t", "p", [0.5], [setting], routers=["alg-n-fusion"],
            cache=plain_cache,
        )
        analytic_key = cache.key_for(
            setting, AlgNFusion(), ANALYTIC
        )
        entry = cache.get(analytic_key)
        assert entry is not None
        assert entry == plain_cache.get(analytic_key)
        assert entry["stderrs"] == [0.0, 0.0]
        assert entry["trials"] == 0
        assert entry["analytic_rates"] == entry["rates"]
        assert sum(entry["rates"]) / 2 == overlaid.series_for(
            "ALG-N-FUSION"
        )[0]

    def test_warm_overlay_writes_no_entry(self, tmp_path):
        """A second overlay run on a warm cache reads every series, the
        backfilled analytic ones included, and writes nothing."""
        cache = ResultCache(tmp_path / "overlay")
        setting = tiny_setting(num_networks=2)

        def overlay():
            return run_sweep(
                "t", "p", [0.5], [setting], routers=["alg-n-fusion", "b1"],
                cache=cache, mc_overlay="mc:trials=100",
            )

        cold = overlay()
        with mock.patch.object(
            ResultCache, "_write", autospec=True
        ) as write:
            warm = overlay()
        assert write.call_count == 0
        assert warm.series == cold.series

    def test_same_base_and_overlay_spec_runs_once(self):
        spec = "mc:trials=150"
        sweep = run_sweep(
            "t", "p", [0.5], [tiny_setting(num_networks=1)],
            routers=["alg-n-fusion"], estimator=spec, mc_overlay=spec,
        )
        assert sweep.series_for("ALG-N-FUSION") == sweep.series_for(
            "ALG-N-FUSION [MC]"
        )

    def test_overlay_must_be_mc(self):
        with pytest.raises(EstimatorSpecError):
            run_sweep(
                "t", "p", [0.3], [tiny_setting()], mc_overlay="analytic"
            )


class TestAntitheticEstimator:
    def test_grammar_round_trip(self):
        spec = parse_estimator("mc:trials=400,antithetic=true")
        assert spec == EstimatorSpec.mc(trials=400, antithetic=True)
        assert spec.to_string() == (
            "mc:trials=400,engine=vectorized,antithetic=true"
        )
        assert parse_estimator(spec.to_string()) == spec

    def test_antithetic_false_is_the_default(self):
        assert parse_estimator("mc:antithetic=false") == parse_estimator("mc")
        assert "antithetic" not in parse_estimator("mc").to_string()

    @pytest.mark.parametrize(
        "text",
        [
            "mc:antithetic=maybe",
            "mc:engine=reference,antithetic=true",
            "mc:trials=501,antithetic=true",
            "analytic:antithetic=true",
        ],
    )
    def test_invalid_antithetic_specs_rejected(self, text):
        with pytest.raises(EstimatorSpecError):
            parse_estimator(text)

    def test_stderr_shrinks_at_equal_trials_on_regression_fixture(self):
        """Antithetic pairs are negatively correlated (establishment is
        monotone in the uniforms), so at equal trial count the reported
        stderr must shrink while the mean stays compatible."""
        network, demands = build_regression_instance()
        result = AlgNFusion().route(network, demands)
        for trials in (500, 2000):
            plain = estimate_plan(
                EstimatorSpec.mc(trials=trials), network, result.plan,
                None, None, sample_seed=12345,
            )
            paired = estimate_plan(
                EstimatorSpec.mc(trials=trials, antithetic=True),
                network, result.plan, None, None, sample_seed=12345,
            )
            assert paired.stderr < plain.stderr
            assert paired.trials == trials
            combined = (plain.stderr**2 + paired.stderr**2) ** 0.5
            assert abs(paired.mean - plain.mean) <= 4.0 * combined

    def test_antithetic_deterministic_across_execution_plans(self):
        setting = tiny_setting(num_networks=2)
        spec = "mc:trials=200,antithetic=true"
        sequential = run_outcomes(
            [setting], ["alg-n-fusion"], estimator=spec, workers=1
        )
        parallel = run_outcomes(
            [setting], ["alg-n-fusion"], estimator=spec, workers=2
        )
        assert sequential == parallel

    def test_antithetic_key_distinct_and_caches(self, tmp_path):
        cache = ResultCache(tmp_path)
        setting = tiny_setting()
        router = AlgNFusion()
        plain_key = cache.key_for(setting, router, "mc:trials=500")
        anti_key = cache.key_for(
            setting, router, "mc:trials=500,antithetic=true"
        )
        assert anti_key != plain_key
        cold = run_settings(
            [setting], ["alg-n-fusion"], cache=cache,
            estimator="mc:trials=200,antithetic=true",
        )
        warm = run_settings(
            [setting], ["alg-n-fusion"], cache=cache,
            estimator="mc:trials=200,antithetic=true",
        )
        assert cold == warm
