"""Rule-by-rule tests for the repro.lint static-analysis pass.

Each RPL rule gets at least one minimal bad fixture it must fire on and
one minimal good fixture it must stay silent on; the suppression
grammar, JSON schema, CLI exit codes and the "shipped tree is clean"
guarantee are covered separately.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

from repro.lint import ALL_RULES, Diagnostic, parse_suppressions, run_lint
from repro.lint.__main__ import main as lint_main
from repro.lint.diagnostics import ALL_CODES, is_suppressed
from repro.lint.engine import lint_source, module_path_for

REPO_SRC = pathlib.Path(__file__).parent.parent / "src"


def codes(source: str, path: str = "module.py"):
    """The rule codes firing on *source* when linted as *path*."""
    return [d.code for d in lint_source(textwrap.dedent(source), path)]


# ----------------------------------------------------------------------
# RPL001: nondeterminism primitives


class TestRPL001Nondeterminism:
    def test_fires_on_stdlib_random_import(self):
        assert codes("import random\n") == ["RPL001"]

    def test_fires_on_from_random_import(self):
        assert codes("from random import shuffle\n") == ["RPL001"]

    def test_fires_on_numpy_global_state(self):
        assert codes("import numpy as np\nnp.random.seed(0)\n") == ["RPL001"]

    def test_fires_on_wall_clock(self):
        assert codes("import time\nt = time.time()\n") == ["RPL001"]
        assert codes("from time import time\n") == ["RPL001"]

    def test_fires_on_datetime_now(self):
        assert codes(
            "from datetime import datetime\nx = datetime.now()\n"
        ) == ["RPL001"]
        assert codes(
            "import datetime\nx = datetime.datetime.now()\n"
        ) == ["RPL001"]

    def test_fires_on_unseeded_default_rng(self):
        assert codes(
            "import numpy as np\nr = np.random.default_rng()\n"
        ) == ["RPL001"]
        assert codes(
            "from numpy.random import default_rng\nr = default_rng(None)\n"
        ) == ["RPL001"]

    def test_silent_on_seeded_default_rng(self):
        assert codes(
            "import numpy as np\nr = np.random.default_rng(7)\n"
        ) == []

    def test_silent_on_generator_methods(self):
        # Methods on a generator instance are the sanctioned pattern.
        assert codes(
            """
            from repro.utils.rng import ensure_rng
            def f(seed):
                rng = ensure_rng(seed)
                return rng.random() + rng.integers(0, 5)
            """
        ) == []

    def test_fires_on_perf_counter_outside_timing(self):
        # Latency reads go through repro.utils.timing.perf_timer; a raw
        # perf_counter anywhere else is a lint error.
        assert codes("import time\nt = time.perf_counter()\n") == ["RPL001"]
        assert codes("from time import perf_counter\n") == ["RPL001"]
        assert codes("import time\nt = time.monotonic()\n") == ["RPL001"]
        assert codes(
            "from time import monotonic_ns\n"
        ) == ["RPL001"]

    def test_fires_on_sleep(self):
        # Simulated time never sleeps: retry/backoff delays are event
        # timestamps, not wall-clock waits.
        assert codes("import time\ntime.sleep(1.0)\n") == ["RPL001"]
        assert codes("from time import sleep\n") == ["RPL001"]

    def test_sleep_message_points_at_backoff_delays(self):
        diags = lint_source("import time\ntime.sleep(1.0)\n", "module.py")
        assert len(diags) == 1
        assert "backoff_delays" in diags[0].message

    def test_retry_module_lints_clean(self):
        # The deterministic backoff helper exists precisely so repair
        # scheduling never needs a clock; it must satisfy its own rule.
        source = (REPO_SRC / "repro/utils/retry.py").read_text()
        assert codes(source, "src/repro/utils/retry.py") == []

    def test_timing_module_may_read_clocks(self):
        clock = "import time\nt = time.perf_counter()\n"
        assert codes(clock, "src/repro/utils/timing.py") == []
        assert codes(
            "from time import perf_counter\n", "src/repro/utils/timing.py"
        ) == []
        # ... but the exemption covers clocks only, not RNG primitives.
        assert codes(
            "import random\n", "src/repro/utils/timing.py"
        ) == ["RPL001"]

    def test_rng_module_is_exempt(self):
        bad = "import numpy as np\nr = np.random.default_rng()\n"
        assert codes(bad, "src/repro/utils/rng.py") == []
        assert codes(bad, "src/repro/routing/x.py") == ["RPL001"]


# ----------------------------------------------------------------------
# RPL002: unordered iteration


class TestRPL002UnorderedIteration:
    def test_fires_on_for_over_set_call(self):
        src = "def f(xs):\n    for x in set(xs):\n        pass\n"
        assert codes(src, "repro/routing/m.py") == ["RPL002"]

    def test_fires_on_set_literal(self):
        src = "def f():\n    return [x for x in {1, 2, 3}]\n"
        assert codes(src, "repro/experiments/m.py") == ["RPL002"]

    def test_fires_on_set_named_variable(self):
        src = (
            "def f(xs, ys):\n"
            "    seen = set(xs) | set(ys)\n"
            "    return list(seen)\n"
        )
        assert codes(src, "repro/routing/m.py") == ["RPL002"]

    def test_silent_when_sorted(self):
        src = (
            "def f(xs):\n"
            "    for x in sorted(set(xs)):\n"
            "        pass\n"
            "    return sorted({v for v in xs})\n"
        )
        assert codes(src, "repro/routing/m.py") == []

    def test_silent_on_order_insensitive_consumers(self):
        src = (
            "def f(xs):\n"
            "    s = set(xs)\n"
            "    return len(s) + sum(1 for _ in range(len(s)))\n"
        )
        assert codes(src, "repro/routing/m.py") == []

    def test_silent_when_name_reassigned_to_list(self):
        src = (
            "def f(xs):\n"
            "    items = set(xs)\n"
            "    items = sorted(items)\n"
            "    return [x for x in items]\n"
        )
        assert codes(src, "repro/routing/m.py") == []

    def test_scoped_to_routing_and_experiments(self):
        src = "def f(xs):\n    for x in set(xs):\n        pass\n"
        assert codes(src, "repro/quantum/m.py") == []
        assert codes(src, "standalone.py") == []


# ----------------------------------------------------------------------
# RPL003: environment reads


class TestRPL003Environ:
    def test_fires_on_environ_get(self):
        src = "import os\nv = os.environ.get('REPRO_X')\n"
        assert codes(src, "repro/routing/m.py") == ["RPL003"]

    def test_fires_on_getenv_and_from_import(self):
        assert codes("import os\nv = os.getenv('X')\n") == ["RPL003"]
        assert codes("from os import environ\n") == ["RPL003"]

    def test_allowlisted_files_are_exempt(self):
        src = "import os\nv = os.environ.get('REPRO_X')\n"
        assert codes(src, "src/repro/experiments/config.py") == []
        assert codes(src, "src/repro/utils/rng.py") == []

    def test_compiled_core_is_not_exempt(self):
        # PR 6 routed the core-selection read through the config
        # accessor; a direct read creeping back in must fail.
        src = "import os\nv = os.environ.get('REPRO_ROUTING_CORE')\n"
        assert codes(src, "src/repro/routing/compiled.py") == ["RPL003"]


# ----------------------------------------------------------------------
# RPL004: cache-key completeness


_SPEC_TEMPLATE = """
from dataclasses import dataclass, asdict

@dataclass(frozen=True)
class WorkloadSpec:
    kind: str = "analytic"
    trials: int = 0
{extra_field}
    def to_string(self):
        return f"{{self.kind}}:trials={{self.trials}}"

    def config_dict(self):
        return {{"kind": self.kind, "trials": self.trials}}
"""


class TestRPL004CacheKeys:
    def test_fires_on_unkeyed_field(self):
        src = _SPEC_TEMPLATE.format(extra_field="    knob: int = 0\n")
        assert codes(src) == ["RPL004"]

    def test_silent_when_every_field_is_emitted(self):
        src = _SPEC_TEMPLATE.format(extra_field="")
        assert codes(src) == []

    def test_field_keyed_through_module_param_table(self):
        # The ScenarioSpec shape: to_string maps fields through a
        # module-level (param, field) table.
        src = """
            import dataclasses
            from dataclasses import dataclass

            _PARAM_FIELDS = (("switches", "num_switches"),)

            @dataclass
            class TopoSpec:
                num_switches: int = 100

                def config_dict(self):
                    return dataclasses.asdict(self)
            """
        assert codes(src) == []

    def test_unkeyed_scenario_field_fires(self):
        # The acceptance-criteria scenario: a new knob on a Spec class
        # missing from every emission path and param table.
        src = """
            import dataclasses
            from dataclasses import dataclass

            _PARAM_FIELDS = (("switches", "num_switches"),)

            @dataclass
            class TopoSpec:
                num_switches: int = 100
                new_knob: int = 0

                def config_dict(self):
                    return dataclasses.asdict(self)
            """
        assert codes(src) == ["RPL004"]

    def test_non_spec_dataclasses_are_ignored(self):
        src = """
            from dataclasses import dataclass

            @dataclass
            class Record:
                hidden: int = 0

                def config_dict(self):
                    return {}
            """
        assert codes(src) == []

    def test_spec_without_emission_methods_is_ignored(self):
        src = """
            from dataclasses import dataclass

            @dataclass
            class PlainSpec:
                knob: int = 0
            """
        assert codes(src) == []

    def test_spec_base_subclass_audited_without_own_emissions(self):
        # Inheriting every emission from SpecBase must not silence the
        # audit: the inherited config_dict/to_string still feed cache
        # keys, so an unmentioned field is still an unkeyed knob.
        src = """
            from dataclasses import dataclass
            from repro.specs import SpecBase

            @dataclass(frozen=True)
            class ShinySpec(SpecBase):
                spec_what = "shiny"
                knob: int = 0
            """
        assert codes(src) == ["RPL004"]

    def test_spec_base_subclass_silent_when_fields_mentioned(self):
        src = """
            from dataclasses import dataclass
            import repro.specs as specs

            _PARAMS = ("knob",)

            @dataclass(frozen=True)
            class ShinySpec(specs.SpecBase):
                spec_what = "shiny"
                knob: int = 0
            """
        assert codes(src) == []


# ----------------------------------------------------------------------
# RPL005: registry protocol conventions


class TestRPL005Registry:
    def test_fires_on_router_without_route(self):
        src = """
            from dataclasses import dataclass
            from repro.routing.registry import register_router

            @register_router("x")
            @dataclass
            class XRouter:
                name: str = "X"
            """
        assert codes(src) == ["RPL005"]

    def test_fires_on_router_missing_protocol_params(self):
        src = """
            from dataclasses import dataclass
            from repro.routing.registry import register_router

            @register_router("x")
            @dataclass
            class XRouter:
                name: str = "X"

                def route(self, network, demands):
                    pass
            """
        assert codes(src) == ["RPL005"]

    def test_fires_on_non_dataclass_router(self):
        src = """
            from repro.routing.registry import register_router

            @register_router("x")
            class XRouter:
                name = "X"

                def route(self, network, demands, link_model=None,
                          swap_model=None, *, ledger=None,
                          rate_cache=None, banned_nodes=frozenset(),
                          banned_edges=frozenset()):
                    pass
            """
        assert codes(src) == ["RPL005"]

    def test_silent_on_conforming_router(self):
        src = """
            from dataclasses import dataclass
            from repro.routing.registry import register_router

            @register_router("x")
            @dataclass
            class XRouter:
                threshold: float = 0.5
                name: str = "X"

                def route(self, network, demands, link_model=None,
                          swap_model=None, *, ledger=None,
                          rate_cache=None, banned_nodes=frozenset(),
                          banned_edges=frozenset()):
                    pass
            """
        assert codes(src) == []

    def test_fires_on_router_without_ledger_entry(self):
        # The batch-only signature: the serving loop could not hand
        # this router its session ledger, rate cache or bans.
        src = """
            from dataclasses import dataclass
            from repro.routing.registry import register_router

            @register_router("x")
            @dataclass
            class XRouter:
                name: str = "X"

                def route(self, network, demands, link_model=None,
                          swap_model=None):
                    pass
            """
        assert codes(src) == ["RPL005"]

    def test_fires_on_positional_or_required_ledger_parameters(self):
        src = """
            from dataclasses import dataclass
            from repro.routing.registry import register_router

            @register_router("x")
            @dataclass
            class XRouter:
                name: str = "X"

                def route(self, network, demands, link_model=None,
                          swap_model=None, ledger=None, *, rate_cache,
                          banned_nodes=frozenset(),
                          banned_edges=frozenset()):
                    pass
            """
        assert codes(src) == ["RPL005"]

    def test_silent_on_router_forwarding_keywords(self):
        src = """
            from dataclasses import dataclass
            from repro.routing.registry import register_router

            @register_router("x")
            @dataclass
            class XRouter:
                name: str = "X"

                def route(self, network, demands, link_model=None,
                          swap_model=None, **options):
                    pass
            """
        assert codes(src) == []

    def test_fires_on_topology_builder_arity(self):
        src = """
            from repro.network.registry import register_topology

            @register_topology("x")
            def build(config):
                pass
            """
        assert codes(src) == ["RPL005"]

    def test_silent_on_conforming_topology_builder(self):
        src = """
            from repro.network.registry import register_topology

            @register_topology("x", aliases=("y",))
            def build(config, rng):
                pass
            """
        assert codes(src) == []


# ----------------------------------------------------------------------
# RPL006: mutable shared state


class TestRPL006MutableState:
    def test_fires_on_mutable_default_argument(self):
        src = "def f(x, acc=[]):\n    pass\n"
        assert codes(src, "repro/routing/m.py") == ["RPL006"]

    def test_fires_on_module_level_cache(self):
        assert codes("_CACHE = {}\n", "repro/routing/m.py") == ["RPL006"]
        assert codes(
            "_SEEN: dict = dict()\n", "repro/routing/m.py"
        ) == ["RPL006"]

    def test_silent_on_immutable_module_state_and_all(self):
        src = "_MEMO = (None, 'compiled')\n__all__ = ['a', 'b']\n"
        assert codes(src, "repro/routing/m.py") == []

    def test_silent_on_none_default(self):
        src = "def f(x, acc=None):\n    acc = acc or []\n    pass\n"
        assert codes(src, "repro/routing/m.py") == []

    def test_scoped_to_routing(self):
        assert codes("_CACHE = {}\n", "repro/experiments/m.py") == []


# ----------------------------------------------------------------------
# Suppressions


class TestNoqaSuppressions:
    def test_single_code_suppression(self):
        assert codes("import random  # repro: noqa[RPL001]\n") == []

    def test_multi_code_comment(self):
        src = "_CACHE = {}  # repro: noqa[RPL001, RPL006]\n"
        assert codes(src, "repro/routing/m.py") == []

    def test_bare_noqa_suppresses_everything(self):
        assert codes("import random  # repro: noqa\n") == []

    def test_wrong_code_does_not_suppress(self):
        assert codes(
            "import random  # repro: noqa[RPL006]\n"
        ) == ["RPL001"]

    def test_malformed_code_suppresses_nothing(self):
        assert codes(
            "import random  # repro: noqa[bogus]\n"
        ) == ["RPL001"]

    def test_plain_flake8_noqa_is_not_ours(self):
        # The repo grammar is namespaced; a bare flake8 noqa must not
        # silence repro rules.
        assert codes("import random  # noqa\n") == ["RPL001"]

    def test_parse_suppressions_shapes(self):
        parsed = parse_suppressions(
            "a = 1\n"
            "b = 2  # repro: noqa[RPL001,RPL004]\n"
            "c = 3  # repro: noqa\n"
        )
        assert parsed == {
            2: frozenset({"RPL001", "RPL004"}),
            3: ALL_CODES,
        }

    def test_is_suppressed_matches_line_and_code(self):
        diag = Diagnostic("m.py", 2, 1, "RPL001", "x")
        assert is_suppressed(diag, {2: frozenset({"RPL001"})})
        assert not is_suppressed(diag, {1: frozenset({"RPL001"})})
        assert not is_suppressed(diag, {2: frozenset({"RPL002"})})
        assert is_suppressed(diag, {2: ALL_CODES})


# ----------------------------------------------------------------------
# Engine, CLI and report schema


class TestEngineAndCli:
    def test_module_path_normalisation(self):
        assert module_path_for(
            pathlib.Path("src/repro/routing/x.py")
        ) == "repro/routing/x.py"
        assert module_path_for(
            pathlib.Path("/abs/checkout/src/repro/utils/rng.py")
        ) == "repro/utils/rng.py"
        assert module_path_for(pathlib.Path("elsewhere/m.py")) \
            == "elsewhere/m.py"

    def test_syntax_error_reports_rpl000(self):
        assert codes("def broken(:\n") == ["RPL000"]

    def test_select_restricts_rules(self):
        source = "import random\n_C = {}\n"
        diags = lint_source(source, "repro/routing/m.py", select=["RPL006"])
        assert [d.code for d in diags] == ["RPL006"]

    def test_run_lint_over_directory(self, tmp_path):
        pkg = tmp_path / "repro" / "routing"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import random\n")
        (pkg / "good.py").write_text("x = 1\n")
        report = run_lint([tmp_path])
        assert report.files_checked == 2
        assert [d.code for d in report.diagnostics] == ["RPL001"]
        assert not report.ok()

    def test_run_lint_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_lint([tmp_path / "nope"])

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert lint_main([str(good)]) == 0
        assert lint_main([str(bad)]) == 1
        assert lint_main([str(tmp_path / "absent.py")]) == 2
        out = capsys.readouterr().out
        assert "RPL001" in out

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out

    def test_json_output_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert lint_main([str(bad), "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert isinstance(payload["diagnostics"], list)
        entry = payload["diagnostics"][0]
        assert set(entry) == {"path", "line", "column", "code", "message"}
        assert entry["code"] == "RPL001"
        assert entry["line"] == 1
        assert entry["path"].endswith("bad.py")

    def test_json_output_clean_tree(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []

    def test_diagnostics_sort_stably(self):
        source = "import random\nimport os\nv = os.environ['X']\n"
        diags = lint_source(source, "repro/routing/m.py")
        assert [d.code for d in diags] == ["RPL001", "RPL003"]
        assert diags == sorted(diags)

    def test_rule_codes_are_unique_and_stable(self):
        assert [r.code for r in ALL_RULES] == [
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
        ]


# ----------------------------------------------------------------------
# The shipped tree itself


class TestShippedTree:
    def test_src_tree_is_lint_clean(self):
        report = run_lint([REPO_SRC])
        assert report.files_checked > 50
        assert report.ok(), "\n".join(
            d.render() for d in report.diagnostics
        )
