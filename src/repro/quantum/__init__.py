"""Quantum substrate: success models and the n-fusion oracles.

The probabilistic success models (link ``p = e^{-alpha * L}``, swap
``q``) in :mod:`repro.quantum.noise` are what routing and simulation
run on.  The rest of the package is an oracle chain that pins the
n-fusion semantics the connectivity Monte Carlo engine assumes:

* :class:`~repro.quantum.stabilizer.StabilizerTableau` with the
  operations of :mod:`repro.quantum.fusion` — an exact
  Aaronson-Gottesman CHP-style Clifford simulator verifying that
  Bell-pair generation, BSM swapping, n-GHZ fusion and Pauli removal
  behave as the paper claims;
* :class:`~repro.quantum.tracker.EntanglementTracker` (groups are
  :class:`~repro.quantum.states.GHZGroup`) — a symbolic tracker of
  "which qubits form a GHZ group", checked against the tableau in
  ``tests/test_quantum_properties.py`` and driving
  :class:`~repro.simulation.quantum_engine.QuantumProtocolSimulator`.
"""

from repro.quantum.stabilizer import StabilizerTableau
from repro.quantum.states import GHZGroup, ghz_state_vector_signature
from repro.quantum.fusion import (
    bell_state_measurement,
    ghz_measurement,
    pauli_x_removal,
    prepare_bell_pair,
    prepare_ghz,
)
from repro.quantum.tracker import EntanglementTracker
from repro.quantum.noise import (
    LinkModel,
    SwapModel,
    channel_success_probability,
    link_success_probability,
)

__all__ = [
    "StabilizerTableau",
    "GHZGroup",
    "ghz_state_vector_signature",
    "prepare_bell_pair",
    "prepare_ghz",
    "bell_state_measurement",
    "ghz_measurement",
    "pauli_x_removal",
    "EntanglementTracker",
    "LinkModel",
    "SwapModel",
    "link_success_probability",
    "channel_success_probability",
]
