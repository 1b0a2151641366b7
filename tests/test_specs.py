"""The shared declarative spec grammar (``repro.specs``).

Covers the uniform surface every grammar derives from its dataclass —
``parse`` / ``to_string`` / ``config_dict`` / ``coerce`` round-trips,
typed and finite values, uniform unknown-parameter and duplicate
errors naming the valid keys — and pins canonical strings,
``config_dict`` values and cache keys against values recorded on the
hand-written per-grammar parsers this grammar replaced, so it can never
silently move a cache entry (``CACHE_FORMAT_VERSION`` intentionally did
not change).
"""

import dataclasses
import json
import string
import typing

import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.experiments.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.experiments.estimators import EstimatorSpec, EstimatorSpecError
from repro.experiments.scenarios import (
    ScenarioSpec,
    ScenarioSpecError,
    as_setting,
)
from repro.network.registry import topology_keys
from repro.routing.registry import RouterSpec, RouterSpecError, router_keys
from repro.service.arrivals import ArrivalSpec, ArrivalSpecError, HoldSpec
from repro.service.faults import (
    BackoffSpec,
    FaultSpec,
    FaultSpecError,
    RepairSpec,
)
from repro.specs import (
    SpecBase,
    SpecError,
    format_value,
    parse_params,
    parse_typed,
    parse_value,
    spec_subclasses,
    split_spec,
    split_spec_list,
)

ALL_SPECS = [
    RouterSpec, ScenarioSpec, EstimatorSpec, ArrivalSpec,
    FaultSpec, RepairSpec,
]
ALL_ERRORS = [
    RouterSpecError, ScenarioSpecError, EstimatorSpecError, ArrivalSpecError,
    FaultSpecError,
]

#: One representative spec string per grammar that exercises parameters.
SAMPLE_STRINGS = {
    RouterSpec: "alg-n-fusion:include_alg4=false,h=5",
    ScenarioSpec: "waxman:switches=30,users=6,states=5",
    EstimatorSpec: "mc:trials=200,engine=vectorized,antithetic=true",
    ArrivalSpec: "poisson:rate=1.5,hold=fixed:mean=12.5",
    FaultSpec: "faults:link_mtbf=120.0,switch_p=0.01",
    RepairSpec: "reroute:retries=4,backoff=fixed:base=2.0",
}

#: One spec string with an unknown parameter per grammar.
UNKNOWN_PARAM_STRINGS = {
    RouterSpec: "alg-n-fusion:bogus=1",
    ScenarioSpec: "waxman:bogus=1",
    EstimatorSpec: "mc:bogus=1",
    ArrivalSpec: "poisson:bogus=1",
    FaultSpec: "faults:bogus=1",
    RepairSpec: "reroute:bogus=1",
}

#: A valid parameter name per grammar (must appear in unknown errors).
A_VALID_PARAM = {
    RouterSpec: "max_width",
    ScenarioSpec: "switches",
    EstimatorSpec: "trials",
    ArrivalSpec: "hold",
    FaultSpec: "link_mtbf",
    RepairSpec: "retries",
}


class TestSharedSurface:
    def test_spec_subclasses_lists_all_six(self):
        assert spec_subclasses() == ALL_SPECS

    def test_all_inherit_spec_base(self):
        for cls in ALL_SPECS:
            assert issubclass(cls, SpecBase)

    def test_all_errors_inherit_spec_error(self):
        for err in ALL_ERRORS:
            assert issubclass(err, SpecError)
            # The historical bases must survive: argparse relies on
            # ValueError, the library's except clauses on
            # ConfigurationError.
            assert issubclass(err, ValueError)
            assert issubclass(err, ConfigurationError)

    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_parse_to_string_round_trip(self, cls):
        spec = cls.parse(SAMPLE_STRINGS[cls])
        assert cls.parse(spec.to_string()) == spec
        assert str(spec) == spec.to_string()
        # parse is an alias of the historical from_string.
        assert cls.from_string(SAMPLE_STRINGS[cls]) == spec

    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_config_dict_round_trip(self, cls):
        spec = cls.parse(SAMPLE_STRINGS[cls])
        again = cls.parse(spec.to_string())
        assert spec.config_dict() == again.config_dict()

    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_unknown_parameter_errors_name_valid_keys(self, cls):
        with pytest.raises(cls.spec_error) as exc:
            cls.parse(UNKNOWN_PARAM_STRINGS[cls])
        message = str(exc.value)
        assert "'bogus'" in message
        assert "valid parameters" in message
        assert A_VALID_PARAM[cls] in message

    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_duplicate_parameter_rejected(self, cls):
        text = SAMPLE_STRINGS[cls]
        key, _, rest = text.partition(":")
        first = rest.split(",")[0]
        with pytest.raises(cls.spec_error, match="duplicate parameter"):
            cls.parse(f"{key}:{first},{first}")

    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_empty_key_rejected(self, cls):
        with pytest.raises(cls.spec_error, match="empty"):
            cls.parse(":oops=1")

    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_malformed_parameter_rejected(self, cls):
        key = SAMPLE_STRINGS[cls].partition(":")[0]
        with pytest.raises(cls.spec_error, match="malformed parameter"):
            cls.parse(f"{key}:notanassignment")

    @pytest.mark.parametrize("cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_coerce(self, cls):
        spec = cls.parse(SAMPLE_STRINGS[cls])
        assert cls.coerce(spec) is spec
        assert cls.coerce(SAMPLE_STRINGS[cls]) == spec
        with pytest.raises(cls.spec_error):
            cls.coerce(42)

    def test_coerce_none_is_the_default_spec(self):
        assert EstimatorSpec.coerce(None) == EstimatorSpec()
        assert ArrivalSpec.coerce(None) == ArrivalSpec()
        assert RepairSpec.coerce(None) == RepairSpec()


class TestValueGrammar:
    def test_parse_value_shapes(self):
        assert parse_value("true") is True
        assert parse_value("False") is False
        assert parse_value("none") is None
        assert parse_value("null") is None
        assert parse_value("42") == 42
        assert parse_value("2.5") == 2.5
        assert parse_value("waxman") == "waxman"

    def test_format_value_inverse(self):
        for value in (True, False, None, 42, 2.5, "waxman"):
            assert parse_value(format_value(value)) == value

    def test_format_value_rejects_unparseable(self):
        with pytest.raises(SpecError, match="round trip"):
            format_value("has,comma")
        with pytest.raises(SpecError, match="round trip"):
            format_value([1, 2])

    def test_split_spec(self):
        assert split_spec("key", "thing") == ("key", None)
        assert split_spec("key:a=1", "thing") == ("key", "a=1")
        assert split_spec("key:", "thing") == ("key", "")
        with pytest.raises(SpecError, match="empty thing key"):
            split_spec(":a=1", "thing")

    def test_parse_params_preserves_order_and_rawness(self):
        params = parse_params("b=2,a=one", text="t", what="thing")
        assert list(params.items()) == [("b", "2"), ("a", "one")]

    def test_parse_params_eq_in_value_partitions_at_first(self):
        params = parse_params("hold=exp:mean=30", text="t", what="thing")
        assert params == {"hold": "exp:mean=30"}

    def test_parse_params_forbid_eq_in_value(self):
        with pytest.raises(SpecError, match="malformed"):
            parse_params(
                "a=b=c", text="t", what="thing", forbid_eq_in_value=True
            )

    def test_parse_params_empty_value_flag(self):
        with pytest.raises(SpecError, match="malformed"):
            parse_params("a=", text="t", what="thing")
        assert parse_params(
            "a=", text="t", what="thing", allow_empty_value=True
        ) == {"a": ""}


    def test_parse_typed_keeps_str_fields_as_written(self):
        assert parse_typed("007", str) == "007"
        assert parse_typed("1e3", typing.Optional[str]) == "1e3"
        assert parse_typed("none", typing.Optional[str]) is None
        assert parse_typed("007", int) == 7

    def test_none_spelled_strings_do_not_survive(self):
        for bad in ("none", "Null"):
            with pytest.raises(RouterSpecError, match="round trip"):
                RouterSpec.create("q-cast", name=bad)

    def test_split_spec_list(self):
        assert split_spec_list(
            "grid:switches=64,users=8, ring", "scenario"
        ) == ["grid:switches=64,users=8", "ring"]
        with pytest.raises(SpecError, match="starts with a parameter"):
            split_spec_list("switches=64,grid", "scenario")


class TestTypedValues:
    """One value rule for every grammar: typed by the field, finite."""

    @pytest.mark.parametrize("cls, text", [
        (ArrivalSpec, "poisson:rate=inf"),
        (ArrivalSpec, "poisson:rate=-inf"),
        (ArrivalSpec, "poisson:rate=nan"),
        (ArrivalSpec, "poisson:hold=exp:mean=inf"),
        (FaultSpec, "faults:link_mtbf=inf"),
        (FaultSpec, "faults:link_mtbf=10,switch_p=nan"),
        (RepairSpec, "reroute:backoff=exp:base=inf"),
        (ScenarioSpec, "waxman:degree=inf"),
        (ScenarioSpec, "waxman:area=inf"),
        (ScenarioSpec, "waxman:degree=1" + "0" * 400),
        (EstimatorSpec, "mc:link_survival=nan"),
        (RouterSpec, "mcf:cost_weight=inf"),
        (RouterSpec, "mcf:cost_weight=-inf"),
    ])
    def test_non_finite_floats_refused_at_parse(self, cls, text):
        with pytest.raises(cls.spec_error, match="finite"):
            cls.parse(text)

    @pytest.mark.parametrize("cls, text", [
        (ScenarioSpec, "waxman:switches=12.5"),
        (ScenarioSpec, "waxman:degree=true"),
        (EstimatorSpec, "mc:trials=1e3"),
        (RepairSpec, "reroute:retries=true"),
        (ArrivalSpec, "poisson:hold=exp:mean=none"),
        (RouterSpec, "alg-n-fusion:h=none"),
    ])
    def test_type_invalid_values_refused_at_parse(self, cls, text):
        with pytest.raises(cls.spec_error, match="must be"):
            cls.parse(text)

    def test_nested_specs_coerce_from_strings(self):
        spec = ArrivalSpec(hold="fixed:mean=2")
        assert spec.hold == HoldSpec("fixed", 2.0)
        assert RepairSpec(backoff="fixed:base=3").backoff == BackoffSpec(
            "fixed", 3.0
        )
        with pytest.raises(ArrivalSpecError, match="needs mean=VALUE"):
            ArrivalSpec(hold="exp")


class TestCacheKeysFrozen:
    """Cache keys must not move: digests recorded on the pre-refactor
    parsers (and ``CACHE_FORMAT_VERSION`` pinned — bumping it would
    mask an accidental identity change as an intentional migration)."""

    FROZEN = [
        (
            ("paper-default", "alg-n-fusion", None),
            "be4fe37efdb44398a3dc2f29a766a2c143a2137581f2edf3f99298e588d15cd6",
        ),
        (
            (
                "aiello:switches=40,states=8,q=0.85",
                "alg-n-fusion:include_alg4=false,h=5",
                "mc:trials=200,antithetic=true",
            ),
            "812151286ca0c497f6b0ca4b47608d52c6de91d01315ff714ac6e6139740a407",
        ),
        (
            (
                "grid:switches=49,users=8,p=0.3",
                "q-cast",
                "mc:trials=100,engine=reference",
            ),
            "1529ddcd5f13b4b5e90feb835a86299b8f229f2678edb4e8741ade26dcb22eca",
        ),
        (
            ("waxman:switches=30,users=6,states=5", "b1", "analytic"),
            "802a92a1a12e105ce54e6b9dea2f3670937fdb031f89f23f2dbfba62d6f54fa0",
        ),
    ]

    def test_cache_format_version_not_bumped(self):
        assert CACHE_FORMAT_VERSION == 4

    @pytest.mark.parametrize(
        "case, digest", FROZEN, ids=[c[0][0] for c in FROZEN]
    )
    def test_key_bytes_identical(self, tmp_path, case, digest):
        scenario, router, estimator = case
        cache = ResultCache(tmp_path)
        assert cache.key_for(as_setting(scenario), router, estimator) == digest

    def test_arrival_config_dict_frozen(self):
        spec = ArrivalSpec.parse("poisson:rate=1.5,hold=fixed:mean=12.5")
        assert spec.config_dict() == {
            "kind": "poisson",
            "rate": 1.5,
            "hold": {"dist": "fixed", "mean": 12.5},
        }


#: Spec strings from the README, the CI serve/fault smoke arguments,
#: perfbench's workload configs and ``SAMPLE_STRINGS``, plus
#: non-canonical spellings, with ``to_string()`` and ``config_dict()``
#: (canonical JSON) as the hand-written per-grammar parsers rendered
#: them.  A trace spec pins its string only: its identity hashes the
#: file.
FROZEN_CORPUS = [
    (RouterSpec, 'alg-n-fusion', 'alg-n-fusion',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "efficiency", "h": 3, "include_alg4": true, "max_hops": null, "max_width": null, "name": "ALG-N-FUSION", "refill_rounds": 2}}'),
    (RouterSpec, 'q-cast', 'q-cast',
     '{"key": "q-cast", "params": {"name": "Q-CAST"}}'),
    (RouterSpec, 'q-cast-n', 'q-cast-n',
     '{"key": "q-cast-n", "params": {"max_width": null, "name": "Q-CAST-N"}}'),
    (RouterSpec, 'b1', 'b1',
     '{"key": "b1", "params": {"max_fusion_arity": 4, "max_paths": 2, "max_width": 2, "name": "B1"}}'),
    (RouterSpec, 'mcf', 'mcf',
     '{"key": "mcf", "params": {"cost_weight": 0.15, "max_paths": 3, "max_width": 3, "name": "MCF"}}'),
    (RouterSpec, 'alg-n-fusion:include_alg4=false,h=5', 'alg-n-fusion:h=5,include_alg4=false',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "efficiency", "h": 5, "include_alg4": false, "max_hops": null, "max_width": null, "name": "ALG-N-FUSION", "refill_rounds": 2}}'),
    (RouterSpec, 'alg-n-fusion:include_alg4=false', 'alg-n-fusion:include_alg4=false',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "efficiency", "h": 3, "include_alg4": false, "max_hops": null, "max_width": null, "name": "ALG-N-FUSION", "refill_rounds": 2}}'),
    (RouterSpec, 'alg-n-fusion:admission_policy=widest_first,name=WF', 'alg-n-fusion:admission_policy=widest_first,name=WF',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "widest_first", "h": 3, "include_alg4": true, "max_hops": null, "max_width": null, "name": "WF", "refill_rounds": 2}}'),
    (RouterSpec, 'alg-n-fusion:refill_rounds=0,name=NO-REFILL', 'alg-n-fusion:name=NO-REFILL,refill_rounds=0',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "efficiency", "h": 3, "include_alg4": true, "max_hops": null, "max_width": null, "name": "NO-REFILL", "refill_rounds": 0}}'),
    (RouterSpec, 'q-cast-n:max_width=1', 'q-cast-n:max_width=1',
     '{"key": "q-cast-n", "params": {"max_width": 1, "name": "Q-CAST-N"}}'),
    (RouterSpec, 'mcf:cost_weight=0.5', 'mcf:cost_weight=0.5',
     '{"key": "mcf", "params": {"cost_weight": 0.5, "max_paths": 3, "max_width": 3, "name": "MCF"}}'),
    (RouterSpec, 'mcf:cost_weight=1', 'mcf:cost_weight=1.0',
     '{"key": "mcf", "params": {"cost_weight": 1.0, "max_paths": 3, "max_width": 3, "name": "MCF"}}'),
    (RouterSpec, 'nfusion:h=3', 'alg-n-fusion',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "efficiency", "h": 3, "include_alg4": true, "max_hops": null, "max_width": null, "name": "ALG-N-FUSION", "refill_rounds": 2}}'),
    (RouterSpec, 'ALG-N-FUSION:include_alg4=0', 'alg-n-fusion:include_alg4=false',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "efficiency", "h": 3, "include_alg4": false, "max_hops": null, "max_width": null, "name": "ALG-N-FUSION", "refill_rounds": 2}}'),
    (RouterSpec, 'alg-n-fusion:name=123', 'alg-n-fusion:name=123',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "efficiency", "h": 3, "include_alg4": true, "max_hops": null, "max_width": null, "name": "123", "refill_rounds": 2}}'),
    (RouterSpec, 'alg-n-fusion:name=true', 'alg-n-fusion:name=true',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "efficiency", "h": 3, "include_alg4": true, "max_hops": null, "max_width": null, "name": "true", "refill_rounds": 2}}'),
    (RouterSpec, 'alg-n-fusion:max_width=none,max_hops=4', 'alg-n-fusion:max_hops=4',
     '{"key": "alg-n-fusion", "params": {"admission_policy": "efficiency", "h": 3, "include_alg4": true, "max_hops": 4, "max_width": null, "name": "ALG-N-FUSION", "refill_rounds": 2}}'),
    (RouterSpec, 'qcast', 'q-cast',
     '{"key": "q-cast", "params": {"name": "Q-CAST"}}'),
    (RouterSpec, 'b1:max_width=1,max_paths=3', 'b1:max_paths=3,max_width=1',
     '{"key": "b1", "params": {"max_fusion_arity": 4, "max_paths": 3, "max_width": 1, "name": "B1"}}'),
    (ScenarioSpec, 'paper-default', 'waxman',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "waxman", "user_links": 4}'),
    (ScenarioSpec, 'paper-grid', 'grid',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "grid", "user_links": 4}'),
    (ScenarioSpec, 'paper-erdos-renyi', 'erdos_renyi',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "erdos_renyi", "user_links": 4}'),
    (ScenarioSpec, 'waxman', 'waxman',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "waxman", "user_links": 4}'),
    (ScenarioSpec, 'grid:switches=64,users=8', 'grid:switches=64,users=8',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 64, "num_users": 8, "qubit_capacity": 10, "swap_q": 0.9, "topology": "grid", "user_links": 4}'),
    (ScenarioSpec, 'waxman:states=30', 'waxman:states=30',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 30, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "waxman", "user_links": 4}'),
    (ScenarioSpec, 'waxman:switches=30,users=6,states=5', 'waxman:switches=30,users=6,states=5',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 5, "num_switches": 30, "num_users": 6, "qubit_capacity": 10, "swap_q": 0.9, "topology": "waxman", "user_links": 4}'),
    (ScenarioSpec, 'waxman:switches=200', 'waxman:switches=200',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 200, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "waxman", "user_links": 4}'),
    (ScenarioSpec, 'aiello:switches=40,states=8,q=0.85', 'aiello:switches=40,states=8,q=0.85',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 8, "num_switches": 40, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.85, "topology": "aiello", "user_links": 4}'),
    (ScenarioSpec, 'grid:switches=49,users=8,p=0.3', 'grid:switches=49,users=8,p=0.3',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": 0.3, "num_states": 20, "num_switches": 49, "num_users": 8, "qubit_capacity": 10, "swap_q": 0.9, "topology": "grid", "user_links": 4}'),
    (ScenarioSpec, 'aiello:switches=100,states=20,q=0.85', 'aiello:q=0.85',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.85, "topology": "aiello", "user_links": 4}'),
    (ScenarioSpec, 'barabasi_albert:degree=6,alpha=2e-4', 'barabasi_albert:degree=6.0,alpha=0.0002',
     '{"alpha": 0.0002, "area": 10000.0, "average_degree": 6.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "barabasi_albert", "user_links": 4}'),
    (ScenarioSpec, 'watts-strogatz:q=1', 'watts_strogatz:q=1.0',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 1.0, "topology": "watts_strogatz", "user_links": 4}'),
    (ScenarioSpec, 'ba', 'barabasi_albert',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "barabasi_albert", "user_links": 4}'),
    (ScenarioSpec, 'waxman:p=none', 'waxman',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "waxman", "user_links": 4}'),
    (ScenarioSpec, 'erdos_renyi:p=0.3,q=0.5,states=10', 'erdos_renyi:states=10,p=0.3,q=0.5',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": 0.3, "num_states": 10, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.5, "topology": "erdos_renyi", "user_links": 4}'),
    (ScenarioSpec, 'random_geometric:area=5000.0,qubits=8', 'random_geometric:area=5000.0,qubits=8',
     '{"alpha": 0.0001, "area": 5000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 8, "swap_q": 0.9, "topology": "random_geometric", "user_links": 4}'),
    (ScenarioSpec, 'ring:switches=12,user_links=2', 'ring:switches=12,user_links=2',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 12, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "ring", "user_links": 2}'),
    (ScenarioSpec, 'waxman:switches=100,degree=10', 'waxman',
     '{"alpha": 0.0001, "area": 10000.0, "average_degree": 10.0, "fixed_p": null, "num_states": 20, "num_switches": 100, "num_users": 10, "qubit_capacity": 10, "swap_q": 0.9, "topology": "waxman", "user_links": 4}'),
    (EstimatorSpec, 'analytic', 'analytic',
     '{"antithetic": false, "engine": "", "kind": "analytic", "trials": 0}'),
    (EstimatorSpec, 'mc', 'mc:trials=500,engine=vectorized',
     '{"antithetic": false, "engine": "vectorized", "kind": "mc", "trials": 500}'),
    (EstimatorSpec, 'mc:trials=3000', 'mc:trials=3000,engine=vectorized',
     '{"antithetic": false, "engine": "vectorized", "kind": "mc", "trials": 3000}'),
    (EstimatorSpec, 'mc:trials=2000,engine=reference', 'mc:trials=2000,engine=reference',
     '{"antithetic": false, "engine": "reference", "kind": "mc", "trials": 2000}'),
    (EstimatorSpec, 'mc:trials=2000,antithetic=true', 'mc:trials=2000,engine=vectorized,antithetic=true',
     '{"antithetic": true, "engine": "vectorized", "kind": "mc", "trials": 2000}'),
    (EstimatorSpec, 'mc:trials=2000,link_survival=0.9', 'mc:trials=2000,engine=vectorized,link_survival=0.9',
     '{"antithetic": false, "engine": "vectorized", "kind": "mc", "link_survival": 0.9, "switch_survival": 1.0, "trials": 2000}'),
    (EstimatorSpec, 'mc:trials=2000,switch_survival=0.95', 'mc:trials=2000,engine=vectorized,switch_survival=0.95',
     '{"antithetic": false, "engine": "vectorized", "kind": "mc", "link_survival": 1.0, "switch_survival": 0.95, "trials": 2000}'),
    (EstimatorSpec, 'mc:trials=2000,link_survival=0.9,switch_survival=0.95', 'mc:trials=2000,engine=vectorized,link_survival=0.9,switch_survival=0.95',
     '{"antithetic": false, "engine": "vectorized", "kind": "mc", "link_survival": 0.9, "switch_survival": 0.95, "trials": 2000}'),
    (EstimatorSpec, 'mc:trials=200,engine=vectorized,antithetic=true', 'mc:trials=200,engine=vectorized,antithetic=true',
     '{"antithetic": true, "engine": "vectorized", "kind": "mc", "trials": 200}'),
    (EstimatorSpec, 'mc:trials=100,engine=reference', 'mc:trials=100,engine=reference',
     '{"antithetic": false, "engine": "reference", "kind": "mc", "trials": 100}'),
    (EstimatorSpec, 'MC:antithetic=false', 'mc:trials=500,engine=vectorized',
     '{"antithetic": false, "engine": "vectorized", "kind": "mc", "trials": 500}'),
    (EstimatorSpec, 'mc:link_survival=1', 'mc:trials=500,engine=vectorized',
     '{"antithetic": false, "engine": "vectorized", "kind": "mc", "trials": 500}'),
    (ArrivalSpec, 'poisson', 'poisson',
     '{"hold": {"dist": "exp", "mean": 30.0}, "kind": "poisson", "rate": 2.0}'),
    (ArrivalSpec, 'poisson:rate=2.0,hold=exp:mean=30', 'poisson',
     '{"hold": {"dist": "exp", "mean": 30.0}, "kind": "poisson", "rate": 2.0}'),
    (ArrivalSpec, 'poisson:rate=1.0,hold=exp:mean=10', 'poisson:rate=1.0,hold=exp:mean=10.0',
     '{"hold": {"dist": "exp", "mean": 10.0}, "kind": "poisson", "rate": 1.0}'),
    (ArrivalSpec, 'poisson:rate=0.3,hold=exp:mean=30', 'poisson:rate=0.3',
     '{"hold": {"dist": "exp", "mean": 30.0}, "kind": "poisson", "rate": 0.3}'),
    (ArrivalSpec, 'poisson:rate=1.5,hold=fixed:mean=12.5', 'poisson:rate=1.5,hold=fixed:mean=12.5',
     '{"hold": {"dist": "fixed", "mean": 12.5}, "kind": "poisson", "rate": 1.5}'),
    (ArrivalSpec, 'poisson:hold=exp:mean=45.0', 'poisson:hold=exp:mean=45.0',
     '{"hold": {"dist": "exp", "mean": 45.0}, "kind": "poisson", "rate": 2.0}'),
    (ArrivalSpec, 'poisson:rate=1,hold=fixed:mean=30', 'poisson:rate=1.0,hold=fixed:mean=30.0',
     '{"hold": {"dist": "fixed", "mean": 30.0}, "kind": "poisson", "rate": 1.0}'),
    (ArrivalSpec, 'poisson:rate=0.5', 'poisson:rate=0.5',
     '{"hold": {"dist": "exp", "mean": 30.0}, "kind": "poisson", "rate": 0.5}'),
    (ArrivalSpec, 'trace:file=runs/monday.trace', 'trace:file=runs/monday.trace',
     None),
    (FaultSpec, 'faults:link_mtbf=300,link_mttr=30,switch_p=0.01', 'faults:link_mtbf=300.0,switch_p=0.01',
     '{"kind": "faults", "link_mtbf": 300.0, "link_mttr": 30.0, "switch_mtbf": null, "switch_mttr": 30.0, "switch_p": 0.01}'),
    (FaultSpec, 'faults:link_mtbf=30,link_mttr=10,switch_p=0.02', 'faults:link_mtbf=30.0,link_mttr=10.0,switch_p=0.02',
     '{"kind": "faults", "link_mtbf": 30.0, "link_mttr": 10.0, "switch_mtbf": null, "switch_mttr": 30.0, "switch_p": 0.02}'),
    (FaultSpec, 'faults:link_mtbf=60,link_mttr=15,switch_p=0.01', 'faults:link_mtbf=60.0,link_mttr=15.0,switch_p=0.01',
     '{"kind": "faults", "link_mtbf": 60.0, "link_mttr": 15.0, "switch_mtbf": null, "switch_mttr": 30.0, "switch_p": 0.01}'),
    (FaultSpec, 'faults:link_mtbf=120.0,switch_p=0.01', 'faults:link_mtbf=120.0,switch_p=0.01',
     '{"kind": "faults", "link_mtbf": 120.0, "link_mttr": 30.0, "switch_mtbf": null, "switch_mttr": 30.0, "switch_p": 0.01}'),
    (FaultSpec, 'faults:switch_p=0.01,switch_mttr=50', 'faults:switch_p=0.01,switch_mttr=50.0',
     '{"kind": "faults", "link_mtbf": null, "link_mttr": 30.0, "switch_mtbf": null, "switch_mttr": 50.0, "switch_p": 0.01}'),
    (FaultSpec, 'faults:link_mtbf=200,switch_mtbf=800', 'faults:link_mtbf=200.0,switch_mtbf=800.0',
     '{"kind": "faults", "link_mtbf": 200.0, "link_mttr": 30.0, "switch_mtbf": 800.0, "switch_mttr": 30.0, "switch_p": null}'),
    (FaultSpec, 'FAULTS:switch_mtbf=250', 'faults:switch_mtbf=250.0',
     '{"kind": "faults", "link_mtbf": null, "link_mttr": 30.0, "switch_mtbf": 250.0, "switch_mttr": 30.0, "switch_p": null}'),
    (FaultSpec, 'trace:file=runs/outage.trace', 'trace:file=runs/outage.trace',
     None),
    (RepairSpec, 'drop', 'drop',
     '{"kind": "drop"}'),
    (RepairSpec, 'reroute', 'reroute',
     '{"backoff": {"base": 1.0, "kind": "exp"}, "kind": "reroute", "retries": 2}'),
    (RepairSpec, 'reroute:retries=2,backoff=exp:base=0.5', 'reroute:backoff=exp:base=0.5',
     '{"backoff": {"base": 0.5, "kind": "exp"}, "kind": "reroute", "retries": 2}'),
    (RepairSpec, 'reroute:retries=4,backoff=fixed:base=2.0', 'reroute:retries=4,backoff=fixed:base=2.0',
     '{"backoff": {"base": 2.0, "kind": "fixed"}, "kind": "reroute", "retries": 4}'),
    (RepairSpec, 'reroute:retries=0', 'reroute:retries=0',
     '{"backoff": {"base": 1.0, "kind": "exp"}, "kind": "reroute", "retries": 0}'),
    (RepairSpec, 'reroute:retries=3,backoff=exp:base=1.0', 'reroute:retries=3',
     '{"backoff": {"base": 1.0, "kind": "exp"}, "kind": "reroute", "retries": 3}'),
    (RepairSpec, 'reroute:backoff=fixed:base=2', 'reroute:backoff=fixed:base=2.0',
     '{"backoff": {"base": 2.0, "kind": "fixed"}, "kind": "reroute", "retries": 2}'),
]


class TestFrozenCorpus:
    @pytest.mark.parametrize(
        "cls, text, canonical, config", FROZEN_CORPUS,
        ids=[f"{case[0].__name__}:{case[1]}" for case in FROZEN_CORPUS],
    )
    def test_canonical_string_and_identity(self, cls, text, canonical,
                                           config):
        spec = cls.parse(text)
        assert spec.to_string() == canonical
        assert cls.parse(canonical) == spec
        if config is not None:
            assert json.dumps(spec.config_dict(), sort_keys=True) == config


# ----------------------------------------------------------------------
# Round trips over generated specs

#: str values: the enumerated ones grammars check, plus labels.
_WORDS = st.sampled_from(
    ["vectorized", "reference", "efficiency", "widest_first", "007", "1e3",
     "TRUE"]
) | st.text(string.ascii_letters + string.digits + "-_./", min_size=1,
            max_size=8)


def _values(hint):
    """Values of annotation *hint*, some out of range (such specs are
    rejected by their grammar and skipped)."""
    if typing.get_origin(hint) is typing.Union:
        inner = next(a for a in typing.get_args(hint) if a is not type(None))
        return st.none() | _values(inner)
    if isinstance(hint, type) and issubclass(hint, SpecBase):
        return _specs(hint)
    return {
        bool: st.booleans(),
        int: st.integers(0, 64),
        float: st.floats(0.001, 1.0),
        str: _WORDS,
    }[hint]


@st.composite
def _specs(draw, cls):
    """A valid spec of grammar *cls* with random parameters set."""
    if cls.spec_kinds is not None:
        keys = list(cls.spec_kinds)
    else:
        keys = router_keys() if cls is RouterSpec else topology_keys()
    key = draw(st.sampled_from(keys))
    hints = cls.spec_hints(key)
    values = dict(cls.spec_kind_defaults.get(key, {}))
    for field in cls.spec_fields(key).values():
        if field.default is dataclasses.MISSING or draw(st.booleans()):
            values[field.name] = draw(_values(hints[field.name]))
    try:
        return cls._build(key, values)
    except SpecError:
        reject()


GRAMMARS = ALL_SPECS + [HoldSpec, BackoffSpec]


@pytest.mark.parametrize("cls", GRAMMARS, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_parse_inverts_to_string(cls, data):
    spec = data.draw(_specs(cls))
    again = cls.parse(spec.to_string())
    assert again == spec
    assert again.to_string() == spec.to_string()
    if getattr(spec, "kind", None) != "trace":
        assert again.config_dict() == spec.config_dict()
