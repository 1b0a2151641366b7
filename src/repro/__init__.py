"""repro — entanglement routing over quantum networks with GHZ measurements.

A from-scratch reproduction of Zeng et al., "Entanglement Routing over
Quantum Networks Using Greenberger-Horne-Zeilinger Measurements"
(ICDCS 2023).  The package provides:

* :mod:`repro.quantum` — the link/swap success models, plus an exact
  stabilizer simulator and the GHZ-group tracker that pin the n-fusion
  semantics the simulators assume.
* :mod:`repro.network` — the network model (users, switches, links) and
  topology generators (Waxman, Watts-Strogatz, Aiello, ...).
* :mod:`repro.routing` — the paper's ALG-N-FUSION (Algorithms 1-4), the
  flow-like-graph rate metric (Equation 1), the Q-CAST / Q-CAST-N / B1 /
  MCF baselines, and the router registry
  (:func:`~repro.routing.registry.make_router`,
  :class:`~repro.routing.registry.RouterSpec`) addressing all of them by
  key + parameters.
* :mod:`repro.simulation` — Monte Carlo simulation of the three-phase
  entanglement process, validating the analytic rates.
* :mod:`repro.experiments` — definitions that regenerate every figure and
  table of the paper's evaluation.
* :mod:`repro.service` — the online serving loop: arriving user pairs
  are routed against the residual qubits, under optional link and
  switch faults.

Quickstart::

    from repro import (AlgNFusion, NetworkConfig, build_network,
                       generate_demands)
    network = build_network(NetworkConfig(num_switches=50), rng=1)
    demands = generate_demands(network, num_states=10, rng=2)
    result = AlgNFusion().route(network, demands)
    print(result.total_rate)
"""

from repro.exceptions import (
    AllocationError,
    CapacityError,
    ConfigurationError,
    EdgeNotFoundError,
    ExperimentError,
    FusionError,
    MeasurementError,
    NodeNotFoundError,
    NoPathError,
    QuantumStateError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from repro.network import (
    Demand,
    DemandSet,
    NetworkConfig,
    QuantumNetwork,
    build_network,
    generate_demands,
)
from repro.quantum import (
    EntanglementTracker,
    GHZGroup,
    LinkModel,
    StabilizerTableau,
    SwapModel,
)
from repro.routing import (
    AlgNFusion,
    B1Router,
    FlowLikeGraph,
    MCFRouter,
    QCastNRouter,
    QCastRouter,
    Router,
    RouterSpec,
    RouterSpecError,
    RoutingPlan,
    RoutingResult,
    make_router,
    parse_router_specs,
    register_router,
    render_plan_report,
    router_keys,
)
from repro.simulation import (
    EntanglementProcessSimulator,
    MonteCarloEstimate,
    QuantumProtocolSimulator,
    VectorizedProcessSimulator,
    estimate_plan_rate,
    exact_flow_rate,
)
from repro.protocol import HardwareTimings, ProtocolSimulator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "CapacityError",
    "RoutingError",
    "NoPathError",
    "AllocationError",
    "QuantumStateError",
    "MeasurementError",
    "FusionError",
    "SimulationError",
    "ExperimentError",
    # network
    "QuantumNetwork",
    "NetworkConfig",
    "build_network",
    "Demand",
    "DemandSet",
    "generate_demands",
    # quantum
    "StabilizerTableau",
    "GHZGroup",
    "EntanglementTracker",
    "LinkModel",
    "SwapModel",
    # routing
    "AlgNFusion",
    "QCastRouter",
    "QCastNRouter",
    "B1Router",
    "MCFRouter",
    "Router",
    "RouterSpec",
    "RouterSpecError",
    "make_router",
    "parse_router_specs",
    "register_router",
    "router_keys",
    "render_plan_report",
    "RoutingPlan",
    "RoutingResult",
    "FlowLikeGraph",
    # simulation
    "EntanglementProcessSimulator",
    "QuantumProtocolSimulator",
    "MonteCarloEstimate",
    "estimate_plan_rate",
    "VectorizedProcessSimulator",
    "exact_flow_rate",
    "HardwareTimings",
    "ProtocolSimulator",
]
