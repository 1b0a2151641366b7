"""Figures 7, 8 and 9 — the paper's evaluation sweeps as one table.

Each figure varies one parameter of a base workload (the paper default,
or a ``scenario``) and plots every router's entanglement rate.  A
:class:`Figure` row in :data:`FIGURES` holds what tells the figures
apart: the title, the x axis, ``point(base, x)`` (the setting evaluated
at x), the default router set where it differs, and the quick-scaling
policy.  :func:`run_figure` runs any row; each row is also callable
with the same keywords, so ``fig7_generators(quick=True)`` and
``FIGURES["fig7"](quick=True)`` are the same sweep.

* fig7: topology generator (Waxman, Watts-Strogatz, Aiello), with the
  extra "Alg-3" series (ALG-N-FUSION without Algorithm 4) that shows
  Algorithm 4's share of the rate;
* fig8a / fig8b: uniform link success probability p / swapping
  success probability q;
* fig9a / fig9b / fig9c / fig9d: qubits per switch / number of
  switches / demanded states / average switch degree;
* fig9b-ext: fig9b plus 800 and 1600 switches, in full runs only
  (averaging ``EXTENDED_TAIL_NETWORKS`` samples there).

The quick-scaling order matters where the point and the scaling touch
the same field.  Figure 7's generator decides the quick switch count
(grids snap to squares), so scaling follows the point; Figure 9c's
state counts must survive the quick cap of 20 states, so scaling comes
first.  Figures 9b and 9b-ext keep their switch counts in quick runs
and average one network per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentSetting, is_full_run
from repro.experiments.runner import SweepResult, run_sweep, standard_specs
from repro.experiments.scenarios import as_setting

#: Quick-scaling policies: scale the point's setting, scale the base
#: before the point applies, or keep the scale and average one network.
SCALE_AFTER = "after"
SCALE_BEFORE = "before"
AVERAGING_ONLY = "averaging"

#: Averaging for the 800/1600-switch tail: fewer samples keep the
#: nightly full tier tractable while the paper-range points retain the
#: paper's averaging (and share cache entries with plain fig9b).
EXTENDED_TAIL_NETWORKS = 2


def _network(field: str, convert=lambda x: x):
    """``point`` overriding one :class:`NetworkConfig` field."""
    return lambda base, x: base.with_updates(
        network=base.network.with_updates(**{field: convert(x)})
    )


def _setting(field: str):
    """``point`` overriding one :class:`ExperimentSetting` field."""
    return lambda base, x: base.with_updates(**{field: x})


def run_figure(
    figure: Figure,
    quick: Optional[bool] = None,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    routers: Optional[Sequence] = None,
    shard: Optional[Tuple[int, int]] = None,
    estimator=None,
    mc_overlay=None,
    scenario=None,
) -> SweepResult:
    """Run one figure's sweep.

    ``quick`` defaults to the environment (``REPRO_FULL``).  ``routers``
    (specs, spec strings or instances) overrides the figure's default
    series; ``shard=(i, n)`` runs only that slice of the (setting,
    router) grid (see :func:`repro.experiments.runner.run_settings`).
    ``estimator`` evaluates the sweep analytically (default) or by
    Monte Carlo; ``mc_overlay`` appends ``[MC]`` validation columns
    next to the analytic series.  ``scenario`` (a
    :class:`~repro.experiments.scenarios.ScenarioSpec`, preset name or
    spec string) replaces the paper-default base workload; the swept
    parameter overrides the scenario's value at each x value.
    """
    if quick is None:
        quick = not is_full_run()
    values, settings = figure.settings(quick, scenario)
    return run_sweep(
        title=figure.title,
        x_label=figure.x_label,
        x_values=list(values),
        settings=settings,
        routers=(
            standard_specs(include_alg3_only=figure.include_alg3_only)
            if routers is None
            else routers
        ),
        workers=workers,
        cache=cache,
        shard=shard,
        estimator=estimator,
        mc_overlay=mc_overlay,
    )


@dataclass(frozen=True)
class Figure:
    """One sweep of the evaluation: a row of :data:`FIGURES`."""

    title: str
    x_label: str
    x_values: Tuple
    point: Callable[[ExperimentSetting, object], ExperimentSetting]
    quick_scaling: str
    full_only_x_values: Tuple = ()
    include_alg3_only: bool = False

    def settings(
        self, quick: bool, scenario=None
    ) -> Tuple[Tuple, Tuple[ExperimentSetting, ...]]:
        """The x values and the setting evaluated at each."""
        base = (
            as_setting(scenario) if scenario is not None
            else ExperimentSetting()
        )
        if quick and self.quick_scaling == SCALE_BEFORE:
            base = base.scaled_for_quick_run()
        values = self.x_values
        if not quick:
            values += self.full_only_x_values
        settings = []
        for x in values:
            setting = self.point(base, x)
            if quick and self.quick_scaling == SCALE_AFTER:
                setting = setting.scaled_for_quick_run()
            elif quick and self.quick_scaling == AVERAGING_ONLY:
                setting = setting.with_updates(num_networks=1)
            elif x in self.full_only_x_values:
                setting = setting.with_updates(
                    num_networks=EXTENDED_TAIL_NETWORKS
                )
            settings.append(setting)
        return values, tuple(settings)

    # Each row is callable with run_figure's keywords (the figure
    # bound), so the CLI routes its flags by the row's signature.
    __call__ = run_figure


_SWITCHES = dict(
    x_label="switches",
    x_values=(50, 100, 200, 400),
    point=_network("num_switches"),
    quick_scaling=AVERAGING_ONLY,
)

#: Every figure sweep by experiment id, in the paper's order.
FIGURES: Dict[str, Figure] = {
    "fig7": Figure(
        title="Figure 7: entanglement rate vs. network generation method",
        x_label="generator",
        x_values=("waxman", "watts_strogatz", "aiello"),
        point=_network("generator"),
        quick_scaling=SCALE_AFTER,
        include_alg3_only=True,
    ),
    "fig8a": Figure(
        title="Figure 8a: entanglement rate vs. link success probability p",
        x_label="p",
        x_values=(0.1, 0.2, 0.3, 0.4),
        point=_setting("fixed_p"),
        quick_scaling=SCALE_AFTER,
    ),
    "fig8b": Figure(
        title="Figure 8b: entanglement rate vs. swapping success probability q",
        x_label="q",
        x_values=(0.3, 0.5, 0.7, 0.9),
        point=_setting("swap_q"),
        quick_scaling=SCALE_AFTER,
    ),
    "fig9a": Figure(
        title="Figure 9a: entanglement rate vs. qubits per switch",
        x_label="qubits",
        x_values=(6, 8, 10, 12),
        point=_network("qubit_capacity"),
        quick_scaling=SCALE_BEFORE,
    ),
    "fig9b": Figure(
        title="Figure 9b: entanglement rate vs. number of switches",
        **_SWITCHES,
    ),
    "fig9b-ext": Figure(
        title=(
            "Figure 9b (extended): entanglement rate vs. number of "
            "switches"
        ),
        full_only_x_values=(800, 1600),
        **_SWITCHES,
    ),
    "fig9c": Figure(
        title="Figure 9c: entanglement rate vs. number of demanded states",
        x_label="states",
        x_values=(10, 20, 30, 40),
        point=_setting("num_states"),
        quick_scaling=SCALE_BEFORE,
    ),
    "fig9d": Figure(
        title="Figure 9d: entanglement rate vs. average switch degree",
        x_label="degree",
        x_values=(5, 10, 15, 20),
        point=_network("average_degree", float),
        quick_scaling=SCALE_BEFORE,
    ),
}

fig7_generators = FIGURES["fig7"]
fig8a_link_probability = FIGURES["fig8a"]
fig8b_swap_probability = FIGURES["fig8b"]
fig9a_qubits = FIGURES["fig9a"]
fig9b_switches = FIGURES["fig9b"]
fig9b_ext_switches = FIGURES["fig9b-ext"]
fig9c_states = FIGURES["fig9c"]
fig9d_degree = FIGURES["fig9d"]

__all__ = [
    "FIGURES",
    "Figure",
    "run_figure",
    "fig7_generators",
    "fig8a_link_probability",
    "fig8b_swap_probability",
    "fig9a_qubits",
    "fig9b_switches",
    "fig9b_ext_switches",
    "fig9c_states",
    "fig9d_degree",
]
