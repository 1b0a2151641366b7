"""Micro-benchmarks for the library's hot paths.

These give pytest-benchmark real statistics (many rounds) for the kernels
the experiment harness leans on: stabilizer fusion, Algorithm 1 search,
flow-rate evaluation and a full router invocation.
"""

import numpy as np

from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import generate_demands
from repro.quantum.fusion import ghz_measurement, prepare_bell_pair
from repro.quantum.noise import LinkModel, SwapModel
from repro.quantum.stabilizer import StabilizerTableau
from repro.routing.alg1_largest_rate import largest_entanglement_rate_path
from repro.routing.nfusion import AlgNFusion
from repro.simulation.engine import EntanglementProcessSimulator
from repro.utils.rng import ensure_rng

LINK = LinkModel(fixed_p=0.4)
SWAP = SwapModel(q=0.9)


def _instance(num_switches=60, num_states=10, seed=31):
    rng = ensure_rng(seed)
    network = build_network(NetworkConfig(num_switches=num_switches), rng)
    demands = generate_demands(network, num_states, rng)
    return network, demands


def test_stabilizer_star_fusion(benchmark):
    """GHZ-measure 5 switch qubits out of 5 Bell pairs (10-qubit tableau)."""

    def run():
        t = StabilizerTableau(10, np.random.default_rng(1))
        for i in range(5):
            prepare_bell_pair(t, 2 * i, 2 * i + 1)
        ghz_measurement(t, [0, 2, 4, 6, 8])
        return t

    benchmark(run)


def test_alg1_dijkstra(benchmark):
    network, demands = _instance()
    demand = demands[0]

    def run():
        return largest_entanglement_rate_path(
            network, LINK, SWAP, demand.source, demand.destination, width=2
        )

    result = benchmark(run)
    assert result is not None


def test_flow_rate_evaluation(benchmark):
    network, demands = _instance()
    result = AlgNFusion().route(network, demands, LINK, SWAP)
    flows = result.plan.flows()

    def run():
        return sum(f.entanglement_rate(network, LINK, SWAP) for f in flows)

    total = benchmark(run)
    assert total > 0


def test_full_router(benchmark):
    network, demands = _instance(num_switches=40, num_states=6)

    def run():
        return AlgNFusion().route(network, demands, LINK, SWAP)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_rate > 0


def test_monte_carlo_trials(benchmark):
    network, demands = _instance(num_switches=40, num_states=6)
    result = AlgNFusion().route(network, demands, LINK, SWAP)
    flows = result.plan.flows()
    sim = EntanglementProcessSimulator(network, LINK, SWAP, ensure_rng(2))

    def run():
        return sum(sim.flow_rate(f, trials=50) for f in flows)

    benchmark.pedantic(run, rounds=3, iterations=1)
