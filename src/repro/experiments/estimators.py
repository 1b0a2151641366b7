"""Pluggable sweep estimators: analytic Equation 1 vs Monte Carlo.

The sweep harness evaluates each ``(setting, sample, router)`` task
under an **estimator** — the procedure that turns a routing plan into a
rate.  Two kinds exist:

* ``analytic`` — the paper's Equation-1 rate the router itself reports
  (``result.total_rate``); exact under branch independence, free.
* ``mc`` — a Monte-Carlo estimate of the plan's true establishment
  rate from the Phase-III process simulation, parameterised by a trial
  count and an engine (``vectorized``, the numpy batch engine, or
  ``reference``, the trial-at-a-time pure-Python simulator the
  vectorised one is validated against).

Estimator identity is part of the result-cache key and of the task
grid, so MC points shard, parallelise and cache exactly like analytic
ones.  The spec grammar mirrors router specs::

    analytic
    mc                                  (trials=500, engine=vectorized)
    mc:trials=3000
    mc:trials=2000,engine=reference
    mc:trials=2000,antithetic=true      (paired antithetic trials)
    mc:trials=2000,link_survival=0.9    (robustness: random edge loss)
    mc:trials=2000,switch_survival=0.95 (robustness: random switch loss)

``antithetic=true`` evaluates the trials as antithetic pairs (each
uniform draw ``u`` is mirrored by ``1 - u`` in its pair partner): flow
establishment is monotone in the underlying uniforms, so the pairs are
negatively correlated and the standard error shrinks at equal trial
count.  Pairing is only implemented on the vectorised engine and needs
an even trial count; the reported stderr is computed over pair means,
which is the statistically valid estimator under pairing.

``link_survival``/``switch_survival`` (defaults ``1.0``) put the plan
under random infrastructure loss: each trial independently keeps every
network edge with probability ``link_survival`` and every switch with
probability ``switch_survival`` — one network-wide mask shared by all
of the plan's flows, so a lost edge fails every flow crossing it in
that trial, the correlated-failure structure a real outage has.  The
estimate is then the plan's expected rate *given* that element
reliability, which is how ``topology-compare`` ranks topology families
by robustness rather than peak rate.  Both engines implement the masks
identically-in-distribution; ``1.0`` draws nothing, so the default
estimator's stream is untouched.

Estimation draws come from :func:`estimation_rng` — a stateless
substream of the task's sample seed — so the instance-generation stream
is untouched whatever the trial count, and the same task always sees
the same draws in any process, worker or shard.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from repro.network.graph import QuantumNetwork
from repro.specs import SpecBase, SpecError
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.plan import RoutingPlan
from repro.simulation.monte_carlo import MonteCarloEstimate, estimate_plan_rate
from repro.simulation.vectorized import VectorizedProcessSimulator
from repro.utils.rng import RandomState, stream_rng


class EstimatorSpecError(SpecError):
    """An estimator kind, parameter or spec string is invalid.

    Subclasses :class:`ValueError` so ``argparse`` type callables can
    surface the message as a normal usage error.
    """


MC_ENGINES = ("vectorized", "reference")

#: Default Monte-Carlo trial count when a spec says just ``mc``.
DEFAULT_MC_TRIALS = 500

#: Substream index reserved for estimation draws (``0x4D43`` = "MC");
#: instance generation uses the sample seed's root stream.
ESTIMATION_STREAM = 0x4D43


@dataclass(frozen=True)
class EstimatorSpec(SpecBase):
    """How a task's routing plan is turned into a rate.

    ``trials``/``engine``/``antithetic`` and the survival masks are
    meaningful only for ``kind="mc"`` and are pinned to their defaults
    for ``analytic``, so equal estimators are equal dataclasses (and
    hash identically into cache keys).  A parsed ``mc`` defaults to
    ``DEFAULT_MC_TRIALS`` vectorized trials.
    """

    kind: str = "analytic"
    trials: int = 0
    engine: str = ""
    antithetic: bool = False
    link_survival: float = 1.0
    switch_survival: float = 1.0

    spec_what = "estimator"
    spec_error = EstimatorSpecError
    spec_key = "kind"
    spec_kinds = {
        "analytic": (),
        "mc": (
            "trials", "engine", "antithetic",
            "link_survival", "switch_survival",
        ),
    }
    spec_kind_defaults = {
        "mc": {"trials": DEFAULT_MC_TRIALS, "engine": "vectorized"},
    }

    def __post_init__(self):
        super().__post_init__()
        for name in ("link_survival", "switch_survival"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise EstimatorSpecError(
                    f"estimator {name} must be in (0, 1], got {value!r}"
                )
        if not self.is_mc:
            return
        if self.trials < 1:
            raise EstimatorSpecError(
                f"mc estimator trials must be an int >= 1, got "
                f"{self.trials!r}"
            )
        if self.engine not in MC_ENGINES:
            raise EstimatorSpecError(
                f"unknown mc engine {self.engine!r}; known engines: "
                f"{', '.join(MC_ENGINES)}"
            )
        if self.antithetic:
            if self.engine != "vectorized":
                raise EstimatorSpecError(
                    "antithetic pairing is only implemented on the "
                    f"vectorized engine, got engine={self.engine!r}"
                )
            if self.trials % 2:
                raise EstimatorSpecError(
                    "antithetic pairing needs an even trial count, got "
                    f"trials={self.trials}"
                )

    @property
    def is_mc(self) -> bool:
        """True for Monte-Carlo estimators."""
        return self.kind == "mc"

    @property
    def has_survival_masks(self) -> bool:
        """True when trials sample random infrastructure loss."""
        return self.link_survival != 1.0 or self.switch_survival != 1.0

    @classmethod
    def mc(
        cls,
        trials: int = DEFAULT_MC_TRIALS,
        engine: str = "vectorized",
        antithetic: bool = False,
        link_survival: float = 1.0,
        switch_survival: float = 1.0,
    ) -> "EstimatorSpec":
        """A Monte-Carlo spec with keyword defaults."""
        return cls(
            "mc", trials, engine, antithetic, link_survival, switch_survival
        )

    def config_dict(self) -> Dict:
        """Stable, JSON-ready identity for cache keys: every field.

        The survival fields joined the spec after cache keys were
        frozen, so the loss-free default omits them — every pre-existing
        entry keeps its address — and they key only when they bite.
        """
        data = dataclasses.asdict(self)
        if not self.has_survival_masks:
            del data["link_survival"]
            del data["switch_survival"]
        return data


#: The default estimator: the router's own analytic Equation-1 rate.
ANALYTIC = EstimatorSpec()

#: Parse a CLI ``--estimator`` value.
parse_estimator = EstimatorSpec.parse


def estimation_rng(sample_seed: int) -> RandomState:
    """The estimation stream of one sample seed.

    A stateless substream (:func:`repro.utils.rng.stream_rng`), disjoint
    from the sample's instance-generation stream, so the networks and
    demands a seed produces are identical whether or not — and however
    hard — the sample is Monte-Carlo estimated.
    """
    return stream_rng(sample_seed, ESTIMATION_STREAM)


def estimate_plan(
    spec: EstimatorSpec,
    network: QuantumNetwork,
    plan: RoutingPlan,
    link_model: Optional[LinkModel],
    swap_model: Optional[SwapModel],
    sample_seed: int,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of *plan*'s rate under *spec*.

    Draws come from the sample seed's estimation stream, so the estimate
    is a pure function of ``(spec, instance recipe)`` — identical in any
    process, worker or shard.
    """
    if not spec.is_mc:
        raise EstimatorSpecError(
            f"estimate_plan needs an mc estimator, got {spec}"
        )
    rng = estimation_rng(sample_seed)
    if spec.engine == "reference":
        estimate = estimate_plan_rate(
            network, plan, link_model, swap_model,
            trials=spec.trials, rng=rng,
            link_survival=spec.link_survival,
            switch_survival=spec.switch_survival,
        )
    else:
        simulator = VectorizedProcessSimulator(
            network, link_model, swap_model, rng
        )
        estimate = simulator.plan_estimate(
            plan, spec.trials, antithetic=spec.antithetic,
            link_survival=spec.link_survival,
            switch_survival=spec.switch_survival,
        )
    # Plain floats so outcomes equal their JSON-cached round trip
    # type-for-type (numpy scalars leak from the vectorised engine).
    return MonteCarloEstimate(
        float(estimate.mean), float(estimate.stderr), int(estimate.trials)
    )
