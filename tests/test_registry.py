"""Tests for the router spec/registry API and sharded sweeps.

Covers: spec string round-trips, registry lookups and error messages,
``config_dict()`` cache-key stability across processes, spec-vs-instance
sweep bit-identity, and the deterministic shard partition of the
(setting, router) grid merging through a shared result cache.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentSetting
from repro.experiments.harness import (
    enumerate_tasks,
    parse_shard,
    shard_member,
    shard_tasks,
    validate_shard,
)
from repro.experiments.runner import run_settings, run_sweep, standard_specs
from repro.network.builder import NetworkConfig
from repro.routing.baselines import B1Router, MCFRouter, QCastRouter
from repro.routing.nfusion import AlgNFusion
from repro.routing.registry import (
    Router,
    RouterSpec,
    RouterSpecError,
    make_router,
    parse_router_specs,
    register_router,
    router_class,
    router_keys,
)


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


class TestRegistry:
    def test_all_five_routers_registered(self):
        assert router_keys() == [
            "alg-n-fusion", "b1", "mcf", "q-cast", "q-cast-n",
        ]

    def test_make_router_builds_configured_instances(self):
        router = make_router("alg-n-fusion", h=5, include_alg4=False)
        assert isinstance(router, AlgNFusion)
        assert router.h == 5 and router.include_alg4 is False
        assert isinstance(make_router("mcf"), MCFRouter)

    def test_aliases_normalize(self):
        assert router_class("qcast") is QCastRouter
        assert RouterSpec.create("qcast-n").key == "q-cast-n"
        assert RouterSpec.create("  Q-CAST ").key == "q-cast"

    def test_unknown_key_lists_known_routers(self):
        with pytest.raises(RouterSpecError, match="known routers: .*q-cast-n"):
            make_router("dijkstra")

    def test_unknown_param_lists_valid_fields(self):
        with pytest.raises(
            RouterSpecError, match="valid parameters: .*max_width"
        ):
            RouterSpec.create("b1", bogus=1)

    def test_register_router_rejects_duplicate_key(self):
        with pytest.raises(RouterSpecError, match="already registered"):
            @register_router("b1")
            @dataclasses.dataclass
            class Impostor:
                name: str = "B1-IMPOSTOR"

    def test_register_router_rejects_alias_hijacks(self):
        # An alias shadowing an existing key would win every lookup.
        with pytest.raises(RouterSpecError, match="collides"):
            @register_router("my-router", aliases=("b1",))
            @dataclasses.dataclass
            class Hijacker:
                name: str = "HIJACK"
        # An alias another router already owns cannot be redirected.
        with pytest.raises(RouterSpecError, match="already points to"):
            @register_router("my-router", aliases=("qcast",))
            @dataclasses.dataclass
            class AliasThief:
                name: str = "THIEF"
        # A key that is an existing alias cannot be registered either.
        with pytest.raises(RouterSpecError, match="already an alias"):
            @register_router("qcast")
            @dataclasses.dataclass
            class KeyThief:
                name: str = "KEY-THIEF"
        assert "my-router" not in router_keys()  # nothing was mutated
        assert router_class("b1").__name__ == "B1Router"
        assert router_class("qcast").__name__ == "QCastRouter"

    def test_register_router_requires_dataclass(self):
        with pytest.raises(TypeError, match="dataclass"):
            @register_router("plain-class")
            class Plain:
                pass

    def test_routers_satisfy_protocol(self):
        for key in router_keys():
            assert isinstance(make_router(key), Router)


class TestRouterSpec:
    def test_from_string_round_trip(self):
        for text in (
            "alg-n-fusion",
            "alg-n-fusion:include_alg4=false",
            "alg-n-fusion:h=5,include_alg4=false,name=ALG-VARIANT",
            "mcf:cost_weight=0.25,max_paths=2",
            "q-cast-n:max_width=none",
        ):
            spec = RouterSpec.from_string(text)
            assert RouterSpec.from_string(spec.to_string()) == spec

    def test_issue_example_builds(self):
        router = RouterSpec.from_string(
            "alg-n-fusion:include_alg4=false"
        ).build()
        assert isinstance(router, AlgNFusion)
        assert router.include_alg4 is False

    def test_value_types_parse(self):
        spec = RouterSpec.from_string(
            "alg-n-fusion:h=5,include_alg4=true,max_width=none,name=X"
        )
        params = spec.param_dict()
        assert params == {"h": 5, "name": "X"}  # defaults dropped
        spec = RouterSpec.from_string("mcf:cost_weight=0.5")
        assert spec.param_dict() == {"cost_weight": 0.5}

    def test_explicit_defaults_are_canonicalized_away(self):
        assert RouterSpec.create("alg-n-fusion", h=3) == RouterSpec.create(
            "alg-n-fusion"
        )
        assert RouterSpec.create("alg-n-fusion", h=3).to_string() == (
            "alg-n-fusion"
        )

    def test_malformed_strings_rejected(self):
        for text in ("", "alg-n-fusion:h", "alg-n-fusion:=5", ":h=5"):
            with pytest.raises(RouterSpecError):
                RouterSpec.from_string(text)

    def test_unroundtrippable_string_value_rejected_at_construction(self):
        """Every constructible spec must be printable, so separator-
        carrying strings are rejected before a spec exists."""
        for bad in ("A,B", "A:B", "A=B", " padded "):
            with pytest.raises(RouterSpecError, match="round trip"):
                RouterSpec.create("alg-n-fusion", name=bad)
        with pytest.raises(RouterSpecError):
            RouterSpec.from_string("alg-n-fusion:name=A:B")

    def test_numeric_looking_string_params_stay_str(self):
        """name=123 must honour the field's str annotation, not the
        value's shape — the series label feeds string operations."""
        spec = RouterSpec.from_string("alg-n-fusion:name=123")
        assert spec.build().name == "123"
        assert RouterSpec.from_string(spec.to_string()) == spec
        spec = RouterSpec.from_string("alg-n-fusion:name=true")
        assert spec.build().name == "true"

    def test_int_literals_fill_float_fields(self):
        spec = RouterSpec.from_string("mcf:cost_weight=1")
        assert spec.build().cost_weight == 1.0
        assert spec == RouterSpec.create("mcf", cost_weight=1.0)

    def test_numeric_bool_spellings_hash_identically(self, tmp_path):
        """include_alg4=0 and include_alg4=false are the same config
        and must address the same cache entry across shards."""
        zero = RouterSpec.from_string("alg-n-fusion:include_alg4=0")
        word = RouterSpec.from_string("alg-n-fusion:include_alg4=false")
        assert zero == word
        assert zero.config_dict() == word.config_dict()
        cache = ResultCache(tmp_path)
        setting = tiny_setting()
        assert cache.key_for(setting, zero) == cache.key_for(setting, word)

    def test_type_invalid_values_rejected_at_parse_time(self):
        for text in (
            "alg-n-fusion:max_width=abc",
            "alg-n-fusion:h=true",
            "alg-n-fusion:h=none",
            "alg-n-fusion:include_alg4=2",
            "mcf:cost_weight=abc",
        ):
            with pytest.raises(RouterSpecError, match="must be"):
                RouterSpec.from_string(text)
        with pytest.raises(RouterSpecError, match="NaN"):
            RouterSpec.from_string("mcf:cost_weight=nan")

    @pytest.mark.parametrize("text", [
        "alg-n-fusion:max_width=0",
        "alg-n-fusion:h=0",
        "alg-n-fusion:refill_rounds=-3",
        "alg-n-fusion:admission_policy=bogus",
        "alg-n-fusion:max_hops=0",
        "alg-n-fusion:max_hops=-1",
        "q-cast-n:max_width=0",
        "b1:max_paths=0",
        "b1:max_width=0",
        "b1:max_fusion_arity=1",
        "b1:max_fusion_arity=0",
        "mcf:max_width=0",
        "mcf:max_paths=0",
        "mcf:cost_weight=-1",
    ])
    def test_out_of_range_values_rejected_at_parse_time(self, text):
        with pytest.raises(RouterSpecError):
            RouterSpec.from_string(text)
        with pytest.raises(RouterSpecError):
            parse_router_specs(f"q-cast,{text}")

    def test_as_spec_from_instance_keeps_overrides_only(self):
        spec = RouterSpec.coerce(AlgNFusion(include_alg4=False))
        assert spec == RouterSpec.create("alg-n-fusion", include_alg4=False)
        assert RouterSpec.coerce(B1Router()) == RouterSpec.create("b1")

    def test_as_spec_passthrough_and_strings(self):
        spec = RouterSpec.create("q-cast")
        assert RouterSpec.coerce(spec) is spec
        assert RouterSpec.coerce("q-cast") == spec

    def test_as_spec_rejects_unregistered_objects(self):
        with pytest.raises(RouterSpecError):
            RouterSpec.coerce(object())

    def test_as_spec_rejects_unregistered_subclasses(self):
        """A subclass inherits registry_key; coercing it to the base
        spec would silently evaluate the wrong router."""

        @dataclasses.dataclass
        class Tweaked(AlgNFusion):
            pass

        with pytest.raises(RouterSpecError, match="registration"):
            RouterSpec.coerce(Tweaked())
        with pytest.raises(RouterSpecError, match="not a registered"):
            Tweaked().config_dict()

    def test_non_lowercase_keys_rejected_at_registration(self):
        for bad in ("MyRouter", "my router", "with:colon", "a=b", ""):
            with pytest.raises(RouterSpecError, match="invalid router key"):
                @register_router(bad)
                @dataclasses.dataclass
                class Bad:
                    name: str = "BAD"
        with pytest.raises(RouterSpecError, match="invalid router key"):
            @register_router("ok-key", aliases=("QCast",))
            @dataclasses.dataclass
            class BadAlias:
                name: str = "BAD-ALIAS"
        assert "ok-key" not in router_keys()

    def test_parse_router_specs_param_continuation(self):
        specs = parse_router_specs(
            "alg-n-fusion:include_alg4=false,h=5,q-cast"
        )
        assert specs == [
            RouterSpec.create("alg-n-fusion", include_alg4=False, h=5),
            RouterSpec.create("q-cast"),
        ]

    def test_parse_router_specs_rejects_leading_param(self):
        with pytest.raises(RouterSpecError, match="router key"):
            parse_router_specs("include_alg4=false,q-cast")


class TestConfigDict:
    def test_contains_key_and_full_params(self):
        config = AlgNFusion(h=5).config_dict()
        assert config["key"] == "alg-n-fusion"
        assert config["params"]["h"] == 5
        assert config["params"]["include_alg4"] is True  # defaults included

    def test_spec_and_instance_agree(self):
        spec = RouterSpec.create("alg-n-fusion", include_alg4=False)
        assert spec.config_dict() == AlgNFusion(include_alg4=False).config_dict()

    def test_cache_key_identical_for_spec_and_instance(self, tmp_path):
        cache = ResultCache(tmp_path)
        setting = tiny_setting()
        spec = RouterSpec.create("alg-n-fusion", h=5)
        assert cache.key_for(setting, spec) == cache.key_for(
            setting, AlgNFusion(h=5)
        )
        assert cache.key_for(setting, spec) != cache.key_for(
            setting, AlgNFusion()
        )

    def test_cache_key_stable_across_processes(self, tmp_path):
        """The same spec must hash identically in a fresh interpreter —
        the property that makes sharded runs on other machines address
        the same cache entries."""
        cache = ResultCache(tmp_path)
        setting = tiny_setting()
        spec = RouterSpec.from_string("alg-n-fusion:include_alg4=false")
        local_key = cache.key_for(setting, spec)
        script = (
            "from repro.experiments.cache import ResultCache\n"
            "from repro.experiments.config import ExperimentSetting\n"
            "from repro.network.builder import NetworkConfig\n"
            "from repro.routing.registry import RouterSpec\n"
            "setting = ExperimentSetting("
            "network=NetworkConfig(num_switches=20, num_users=4), "
            "num_states=4, num_networks=2, fixed_p=0.5, seed=77)\n"
            "spec = RouterSpec.from_string('alg-n-fusion:include_alg4=false')\n"
            "print(ResultCache('x').key_for(setting, spec))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        other_key = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        ).stdout.strip()
        assert other_key == local_key


class TestSpecsInRunner:
    def test_paired_sweep_specs_match_instances_bitwise(self):
        """The spec-driven path must reproduce the old instance-based
        path bit-exactly."""
        settings = [tiny_setting(fixed_p=p) for p in (0.3, 0.6)]
        by_instance = run_settings(
            settings, [AlgNFusion(include_alg4=False), QCastRouter()]
        )
        by_spec = run_settings(
            settings,
            [
                RouterSpec.create("alg-n-fusion", include_alg4=False),
                RouterSpec.create("q-cast"),
            ],
        )
        by_string = run_settings(
            settings, ["alg-n-fusion:include_alg4=false", "q-cast"]
        )
        assert by_spec == by_instance
        assert by_string == by_instance

    def test_standard_specs_mcf_runs(self):
        rates = run_settings(
            [tiny_setting(num_networks=1)],
            standard_specs(include_mcf=True),
        )[0]
        assert "MCF" in rates


class TestShardSelectors:
    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard("3/4") == (3, 4)
        for text in ("2/2", "-1/2", "0", "a/b", "1/", "/2"):
            with pytest.raises(ValueError):
                parse_shard(text)

    def test_validate_shard(self):
        assert validate_shard((1, 3)) == (1, 3)
        with pytest.raises(ValueError):
            validate_shard((0, 0))

    def test_partition_is_disjoint_and_complete(self):
        settings = [tiny_setting(seed=s) for s in (1, 2, 3)]
        routers = [spec.build() for spec in standard_specs()]
        tasks = enumerate_tasks(settings, [routers] * len(settings))
        count = 3
        shards = [
            shard_tasks(tasks, (i, count), num_routers=len(routers))
            for i in range(count)
        ]
        keys = [task.key for shard in shards for task in shard]
        assert sorted(keys) == [task.key for task in tasks]
        assert len(keys) == len(set(keys))

    def test_partition_keeps_series_whole(self):
        """All samples of one (setting, router) pair land in one shard,
        so every cache entry is produced by exactly one shard."""
        settings = [tiny_setting(seed=s) for s in (1, 2)]
        routers = [spec.build() for spec in standard_specs()]
        tasks = enumerate_tasks(settings, [routers] * len(settings))
        for index in range(3):
            owned = {
                (t.setting_index, t.router_index)
                for t in shard_tasks(tasks, (index, 3), num_routers=len(routers))
            }
            for setting_index, router_index in owned:
                assert shard_member(
                    (index, 3), setting_index, router_index, len(routers)
                )

    def test_membership_independent_of_cache_state(self):
        assert shard_member((0, 2), 0, 0, 4)
        assert not shard_member((1, 2), 0, 0, 4)
        assert shard_member((1, 2), 0, 1, 4)


class TestShardedSweeps:
    def test_shards_merge_bitwise_through_shared_cache(self, tmp_path):
        settings = [tiny_setting(fixed_p=p) for p in (0.3, 0.6)]
        routers = ["alg-n-fusion", "q-cast", "b1"]
        unsharded = run_settings(settings, routers)

        cache = ResultCache(tmp_path)
        partials = [
            run_settings(settings, routers, cache=cache, shard=(i, 2))
            for i in range(2)
        ]
        # Each shard owns a strict, non-empty subset of the series.
        assert all(
            sum(len(rates) for rates in partial) < 2 * len(routers)
            for partial in partials[:1]
        )
        # Once both shards ran, a cache-backed run is complete and
        # bit-identical to the unsharded result.
        merged = run_settings(settings, routers, cache=cache, shard=(0, 2))
        assert merged == unsharded
        assert run_settings(settings, routers, cache=cache) == unsharded

    def test_second_shard_reports_first_shards_cached_series(self, tmp_path):
        settings = [tiny_setting()]
        routers = ["alg-n-fusion", "q-cast"]
        cache = ResultCache(tmp_path)
        first = run_settings(settings, routers, cache=cache, shard=(0, 2))[0]
        second = run_settings(settings, routers, cache=cache, shard=(1, 2))[0]
        assert set(first) == {"ALG-N-FUSION"}
        assert set(second) == {"ALG-N-FUSION", "Q-CAST"}

    def test_sharded_sweep_pads_missing_series_with_nan(self):
        settings = [tiny_setting(fixed_p=p) for p in (0.3, 0.6)]
        # 2 settings x 3 routers sharded 0/2 gives every series a point
        # it does not own, so each column needs NaN padding to stay
        # aligned with the x axis.
        sweep = run_sweep(
            "t", "p", [0.3, 0.6], settings,
            routers=["alg-n-fusion", "q-cast", "b1"], shard=(0, 2),
        )
        assert all(len(s) == 2 for s in sweep.series.values())
        text = sweep.to_text()  # renders despite the missing points
        assert "nan" in text


class TestExperimentsCli:
    def test_fig7_sharded_cli_merges_bit_identically(self, tmp_path, capsys):
        """The acceptance-criteria command: complementary fig7 shards
        through one --cache-dir reproduce the unsharded output."""
        from repro.experiments.__main__ import main

        args = ["fig7", "--routers", "alg-n-fusion:refill_rounds=0,q-cast"]
        assert main(args) == 0
        unsharded = capsys.readouterr().out
        cache_dir = str(tmp_path / "cache")
        assert main([*args, "--shard", "0/2", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main([*args, "--shard", "1/2", "--cache-dir", cache_dir]) == 0
        merged = capsys.readouterr().out
        assert merged == unsharded

    def test_routers_subcommand_lists_keys(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["routers"]) == 0
        assert capsys.readouterr().out.split() == router_keys()

    def test_bad_specs_and_shards_exit_with_usage_error(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig7", "--routers", "warp-drive"])
        with pytest.raises(SystemExit):
            main(["fig7", "--shard", "2/2"])

    def test_duplicate_labels_are_a_clean_cli_error(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["fig7", "--routers", "alg-n-fusion,alg-n-fusion:h=5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "duplicate algorithm label" in err
