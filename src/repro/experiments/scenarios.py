"""Scenario specs: the workload as a first-class, parseable sweep axis.

A **scenario** is one complete workload description — topology family +
its parameters, the demand model (states, users) and the quantum
hardware parameters (link alpha / uniform p, fusion q, qubit capacity).
The paper evaluates one scenario family (Waxman, Section V-A);
:class:`ScenarioSpec` makes every registered topology family reachable
from the same grammar the router and estimator axes already use::

    paper-default                          (a named preset)
    aiello:switches=100,states=20,q=0.85
    grid:switches=64,users=8,p=0.3
    barabasi_albert:degree=6,alpha=2e-4

Specs parse (:func:`parse_scenario`), serialize
(:meth:`ScenarioSpec.to_string`, a canonical round-trip), convert to
the :class:`~repro.experiments.config.ExperimentSetting` the sweep
harness consumes (:meth:`ScenarioSpec.setting`), and expose a stable
:meth:`ScenarioSpec.config_dict` identity that the result cache keys
settings by — so a scenario is addressable from a CLI flag, a cache
key or a config file exactly like a router or estimator.

Named presets (``scenario_presets()``) pin the paper's hardware
defaults on every topology family; ``paper-default`` is the paper's own
Waxman evaluation scenario.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentSetting
from repro.network.builder import NetworkConfig
from repro.network.registry import normalize_topology
from repro.network.topology.base import (
    DEFAULT_AREA,
    DEFAULT_NUM_USERS,
    DEFAULT_QUBIT_CAPACITY,
    DEFAULT_USER_LINKS,
)
from repro.quantum.noise import DEFAULT_ALPHA, LinkModel, SwapModel
from repro.specs import SpecBase, SpecError, split_spec_list


class ScenarioSpecError(SpecError):
    """A scenario topology key, parameter or spec string is invalid.

    Subclasses :class:`ValueError` so ``argparse`` type callables can
    surface the message as a normal usage error.
    """


#: ExperimentSetting's averaging defaults, read off the dataclass so
#: scenario-derived settings can never drift from hand-built ones.
_SETTING_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ExperimentSetting)
}


@dataclass(frozen=True)
class ScenarioSpec(SpecBase):
    """One workload: topology + demand model + hardware parameters.

    Defaults are the paper's Section V-A scenario (Waxman, 100 switches,
    average degree 10, 10 qubits/switch, 10 users, 20 demanded states,
    length-based link success ``e^{-alpha L}``, fusion ``q = 0.9``).
    The averaging knobs (``num_networks``, ``seed``) deliberately live
    on :class:`~repro.experiments.config.ExperimentSetting`, not here:
    a scenario describes the workload, not how often it is sampled.
    """

    topology: str = "waxman"
    num_switches: int = 100
    average_degree: float = 10.0
    area: float = DEFAULT_AREA
    qubit_capacity: int = DEFAULT_QUBIT_CAPACITY
    num_users: int = DEFAULT_NUM_USERS
    user_links: int = DEFAULT_USER_LINKS
    num_states: int = 20
    alpha: float = DEFAULT_ALPHA
    fixed_p: Optional[float] = None
    swap_q: float = 0.9

    spec_what = "scenario"
    spec_error = ScenarioSpecError
    spec_key = "topology"
    #: Spec-string names of the renamed fields; ``area``, ``user_links``
    #: and ``alpha`` keep their own.
    spec_names = {
        "num_switches": "switches",
        "average_degree": "degree",
        "qubit_capacity": "qubits",
        "num_users": "users",
        "num_states": "states",
        "fixed_p": "p",
        "swap_q": "q",
    }

    def __post_init__(self):
        super().__post_init__()
        # Normalizing here (aliases, -/_) makes equal workloads equal
        # specs — and hash identically into cache keys — however they
        # were spelled; unknown topologies fail at parse time with the
        # registry's key listing.
        object.__setattr__(self, "topology", normalize_topology(self.topology))
        # Range checks are the network and hardware models' own, run
        # here so a bad value is a spec error, not a failure mid-run.
        try:
            self.network_config()
            LinkModel(alpha=self.alpha, fixed_p=self.fixed_p)
            SwapModel(q=self.swap_q)
        except ConfigurationError as exc:
            raise ScenarioSpecError(
                f"invalid scenario {self.to_string()!r}: {exc}"
            ) from None

    @classmethod
    def from_string(cls, text: str) -> "ScenarioSpec":
        """Parse a preset name (:func:`scenario_presets`) or
        ``topology[:param=val,...]``."""
        return super().from_string(
            SCENARIO_PRESETS.get(text.strip().lower(), text)
        )

    # ------------------------------------------------------------------
    # Conversions

    def network_config(self) -> NetworkConfig:
        """The :class:`NetworkConfig` this scenario's topology implies."""
        return NetworkConfig(
            generator=self.topology,
            num_switches=self.num_switches,
            average_degree=self.average_degree,
            area=self.area,
            qubit_capacity=self.qubit_capacity,
            num_users=self.num_users,
            user_links=self.user_links,
        )

    def setting(
        self,
        num_networks: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> ExperimentSetting:
        """The :class:`ExperimentSetting` evaluating this scenario.

        ``num_networks``/``seed`` default to the paper's averaging (the
        ``ExperimentSetting`` defaults), so
        ``ScenarioSpec().setting() == ExperimentSetting()`` holds
        field-for-field.
        """
        return ExperimentSetting(
            network=self.network_config(),
            num_states=self.num_states,
            alpha=self.alpha,
            fixed_p=self.fixed_p,
            swap_q=self.swap_q,
            num_networks=(
                _SETTING_DEFAULTS["num_networks"]
                if num_networks is None
                else num_networks
            ),
            seed=_SETTING_DEFAULTS["seed"] if seed is None else seed,
        )

    @classmethod
    def from_setting(cls, setting: ExperimentSetting) -> "ScenarioSpec":
        """The scenario a setting evaluates (inverse of :meth:`setting`,
        dropping the averaging knobs)."""
        network = setting.network
        return cls(
            topology=network.generator,
            num_switches=network.num_switches,
            average_degree=network.average_degree,
            area=network.area,
            qubit_capacity=network.qubit_capacity,
            num_users=network.num_users,
            user_links=network.user_links,
            num_states=setting.num_states,
            alpha=setting.alpha,
            fixed_p=setting.fixed_p,
            swap_q=setting.swap_q,
        )

    def with_updates(self, **kwargs) -> "ScenarioSpec":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: The paper's own evaluation workload (Section V-A).
PAPER_DEFAULT = ScenarioSpec()

#: Named presets: the paper's hardware defaults on each topology family.
#: ``paper-default`` is the paper's Waxman scenario; the rest answer
#: "what if the paper had evaluated on family X" with everything else
#: held at the Section V-A values.
SCENARIO_PRESETS: Dict[str, str] = {
    "paper-default": "waxman",
    **{f"paper-{key.replace('_', '-')}": key for key in (
        "waxman",
        "watts_strogatz",
        "aiello",
        "barabasi_albert",
        "random_geometric",
        "grid",
        "ring",
        "erdos_renyi",
    )},
}


def scenario_presets() -> List[str]:
    """All preset names, in definition order."""
    return list(SCENARIO_PRESETS)


def scenario_param_names() -> List[str]:
    """The grammar's parameter names, in canonical order."""
    return list(ScenarioSpec.param_fields())


#: Parse a preset name or a ``topology[:param=val,...]`` spec.
parse_scenario = ScenarioSpec.parse


def parse_scenario_names(text: str) -> List[str]:
    """Split a CLI ``--scenarios`` value into individual scenario tokens.

    A segment containing ``=`` before any ``:`` continues the previous
    scenario's parameter list, so ``"grid:switches=64,users=8,ring"`` is
    two scenarios.  Every token is validated by :func:`parse_scenario`;
    the original spellings are returned so tables can label columns the
    way the user wrote them.
    """
    names = split_spec_list(text, "scenario", ScenarioSpecError)
    for name in names:
        parse_scenario(name)
    return names


def as_setting(
    value: Union[str, ScenarioSpec, ExperimentSetting]
) -> ExperimentSetting:
    """Coerce a scenario (spec, preset or string) or an existing
    :class:`ExperimentSetting` to a setting.

    This is the harness-side coercion that lets ``run_settings`` /
    ``run_sweep`` take scenario strings directly in their ``settings``
    sequences.
    """
    if isinstance(value, ExperimentSetting):
        return value
    return ScenarioSpec.coerce(value).setting()
