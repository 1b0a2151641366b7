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
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.config import ExperimentSetting
from repro.network.builder import NetworkConfig
from repro.network.registry import normalize_topology, topology_keys
from repro.network.topology.base import (
    DEFAULT_AREA,
    DEFAULT_NUM_USERS,
    DEFAULT_QUBIT_CAPACITY,
    DEFAULT_USER_LINKS,
)
from repro.quantum.noise import DEFAULT_ALPHA
import repro.specs as specs
from repro.specs import SpecBase, SpecError


class ScenarioSpecError(SpecError):
    """A scenario topology key, parameter or spec string is invalid.

    Subclasses :class:`ValueError` so ``argparse`` type callables can
    surface the message as a normal usage error.
    """


#: Spec-grammar parameter name -> dataclass field, in the canonical
#: order ``to_string`` emits.
_PARAM_FIELDS = (
    ("switches", "num_switches"),
    ("degree", "average_degree"),
    ("area", "area"),
    ("qubits", "qubit_capacity"),
    ("users", "num_users"),
    ("user_links", "user_links"),
    ("states", "num_states"),
    ("alpha", "alpha"),
    ("p", "fixed_p"),
    ("q", "swap_q"),
)
_FIELD_BY_PARAM = dict(_PARAM_FIELDS)
_PARAM_BY_FIELD = {field: param for param, field in _PARAM_FIELDS}

#: ExperimentSetting's averaging defaults, read off the dataclass so
#: scenario-derived settings can never drift from hand-built ones.
_SETTING_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ExperimentSetting)
}


# ----------------------------------------------------------------------
# Value grammar (the router/estimator spec grammar, restricted to the
# numeric/none shapes scenario fields take).


def _parse_value(text: str):
    """The shared value grammar restricted to scenario field shapes:
    numbers and ``none`` (booleans and strings parse fine but are then
    rejected by the field validators below)."""
    value = specs.parse_value(text)
    if value is None or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    ):
        return value
    raise ScenarioSpecError(
        f"scenario parameter value {text!r} must be a number or 'none'"
    )


def _format_value(value) -> str:
    if value is None:
        return "none"
    return repr(value) if isinstance(value, float) else str(value)


def _require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioSpecError(
            f"scenario parameter {_PARAM_BY_FIELD.get(name, name)!r} must "
            f"be an int, got {value!r}"
        )
    return value


def _require_float(name: str, value) -> float:
    # NaN is refused too: it breaks spec equality (nan != nan).
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or math.isnan(value)
    ):
        raise ScenarioSpecError(
            f"scenario parameter {_PARAM_BY_FIELD.get(name, name)!r} must "
            f"be a number, got {value!r}"
        )
    return float(value)


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

    def __post_init__(self):
        # Normalizing here (aliases, -/_) makes equal workloads equal
        # specs — and hash identically into cache keys — however they
        # were spelled; unknown topologies fail at parse time with the
        # registry's key listing.
        object.__setattr__(self, "topology", normalize_topology(self.topology))
        for check, fields in (
            (_require_int, ("num_switches", "qubit_capacity", "num_users",
                            "user_links", "num_states")),
            (_require_float, ("average_degree", "area", "alpha", "swap_q")),
        ):
            for name in fields:
                object.__setattr__(self, name, check(name, getattr(self, name)))
        if self.fixed_p is not None:
            object.__setattr__(
                self, "fixed_p", _require_float("fixed_p", self.fixed_p)
            )

    # ------------------------------------------------------------------
    # Parsing / serialization

    @classmethod
    def from_string(cls, text: str) -> "ScenarioSpec":
        """Parse ``topology[:param=val,...]`` (see module docstring)."""
        key, rest = cls._split_spec(text)
        params: Dict[str, object] = {}
        if rest is not None:
            raw = cls._parse_params(
                rest, text=text, valid=[p for p, _ in _PARAM_FIELDS]
            )
            params = {
                _FIELD_BY_PARAM[name]: _parse_value(value)
                for name, value in raw.items()
            }
        return cls(topology=key, **params)

    def to_string(self) -> str:
        """Canonical ``topology[:param=val,...]`` form (non-default
        parameters only, fixed order); round-trips via
        :meth:`from_string`."""
        rendered = [
            f"{_PARAM_BY_FIELD[f.name]}={_format_value(getattr(self, f.name))}"
            for f in dataclasses.fields(self)
            if f.name != "topology" and getattr(self, f.name) != f.default
        ]
        if not rendered:
            return self.topology
        return f"{self.topology}:{','.join(rendered)}"

    # ------------------------------------------------------------------
    # Conversions

    # __str__ and config_dict (the topology key plus every workload
    # parameter) come from SpecBase.

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
    return [param for param, _ in _PARAM_FIELDS]


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse a preset name or a ``topology[:param=val,...]`` spec."""
    name = text.strip().lower()
    if name in SCENARIO_PRESETS:
        return ScenarioSpec.from_string(SCENARIO_PRESETS[name])
    return ScenarioSpec.from_string(text)


def parse_scenario_names(text: str) -> List[str]:
    """Split a CLI ``--scenarios`` value into individual scenario tokens.

    The value is comma-separated; a segment containing ``=`` before any
    ``:`` continues the previous scenario's parameter list, so
    ``"grid:switches=64,users=8,ring"`` is two scenarios.  Every token
    is validated by :func:`parse_scenario`; the original spellings are
    returned so tables can label columns the way the user wrote them.
    """
    groups: List[List[str]] = []
    for segment in text.split(","):
        colon, eq = segment.find(":"), segment.find("=")
        continues = eq != -1 and (colon == -1 or eq < colon)
        if continues:
            if not groups:
                raise ScenarioSpecError(
                    f"--scenarios value {text!r} starts with a parameter "
                    f"({segment!r}) instead of a topology key or preset"
                )
            groups[-1].append(segment)
        else:
            groups.append([segment])
    names = [",".join(group).strip() for group in groups]
    for name in names:
        parse_scenario(name)
    return names


def as_scenario(value: Union[str, ScenarioSpec]) -> ScenarioSpec:
    """Coerce a spec, preset name or spec string to a :class:`ScenarioSpec`."""
    if isinstance(value, ScenarioSpec):
        return value
    if isinstance(value, str):
        return parse_scenario(value)
    raise ScenarioSpecError(
        f"scenario must be a spec string, preset name or ScenarioSpec, "
        f"got {type(value).__name__}"
    )


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
    return as_scenario(value).setting()
