"""Phase I-III entanglement-process simulation.

The routing layer's entanglement rate (paper Eq. 1) is an *analytic
approximation* (it treats branch subtrees of a flow-like graph as
independent).  This package provides the ground truth:

* :class:`~repro.simulation.sampler.TrialSampler` — samples one Phase III
  outcome: per-channel link successes and per-switch fusion successes.
* :class:`~repro.simulation.engine.EntanglementProcessSimulator` — the
  reference semantics: a state is established iff the surviving channels
  and switches still connect the demand's users.
* :class:`~repro.simulation.vectorized.VectorizedProcessSimulator` — the
  same semantics over batches of trials; the engine the experiments and
  the CLI run.
* :class:`~repro.simulation.monte_carlo.MonteCarloEstimate` — mean / CI
  aggregation helpers.

Two oracles no entry point runs, kept for the tests that check against
them:

* :func:`~repro.simulation.exact.exact_flow_rate` — Equation 1's
  exact-enumeration reference.
* :class:`~repro.simulation.quantum_engine.QuantumProtocolSimulator` — a
  protocol-level simulation that executes the fusions on the symbolic
  :class:`~repro.quantum.tracker.EntanglementTracker` (with heralded-retry
  adaptivity), tying the connectivity engine to the quantum substrate.
"""

from repro.simulation.sampler import TrialSample, TrialSampler
from repro.simulation.engine import EntanglementProcessSimulator
from repro.simulation.quantum_engine import QuantumProtocolSimulator
from repro.simulation.monte_carlo import MonteCarloEstimate, estimate_plan_rate
from repro.simulation.vectorized import VectorizedProcessSimulator
from repro.simulation.exact import exact_flow_rate

__all__ = [
    "TrialSample",
    "TrialSampler",
    "EntanglementProcessSimulator",
    "QuantumProtocolSimulator",
    "MonteCarloEstimate",
    "estimate_plan_rate",
    "VectorizedProcessSimulator",
    "exact_flow_rate",
]
