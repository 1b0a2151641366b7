"""Unit and integration tests for ALG-N-FUSION and the baselines."""

import pytest

from repro.experiments.scenarios import parse_scenario
from repro.network.builder import NetworkConfig, build_network
from repro.network.demands import Demand, DemandSet, generate_demands
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg2_path_selection import default_max_width
from repro.routing.allocation import QubitLedger
from repro.routing.baselines import B1Router, QCastNRouter, QCastRouter
from repro.routing.compiled import ROUTING_CORE_ENV
from repro.routing.metrics import ChannelRateCache
from repro.routing.nfusion import AlgNFusion
from repro.service.residual import residual_view
from repro.utils.rng import ensure_rng

from tests.conftest import make_diamond_network
from tests.test_routing_cores import _plan_shape

ROUTERS = [AlgNFusion(), QCastRouter(), QCastNRouter(), B1Router()]


def small_instance(seed=1, num_switches=30, num_states=8):
    rng = ensure_rng(seed)
    network = build_network(
        NetworkConfig(num_switches=num_switches, num_users=6), rng
    )
    demands = generate_demands(network, num_states, rng)
    return network, demands


@pytest.mark.parametrize("router", ROUTERS, ids=lambda r: r.name)
class TestEveryRouter:
    def test_result_consistency(self, router):
        network, demands = small_instance()
        link, swap = LinkModel(fixed_p=0.5), SwapModel(q=0.9)
        result = router.route(network, demands, link, swap)
        assert result.total_rate == pytest.approx(sum(result.demand_rates.values()))
        assert 0 <= result.num_routed <= len(demands)
        for rate in result.demand_rates.values():
            assert 0.0 <= rate <= 1.0

    def test_capacity_respected(self, router):
        network, demands = small_instance(seed=2)
        link, swap = LinkModel(fixed_p=0.5), SwapModel(q=0.9)
        result = router.route(network, demands, link, swap)
        usage = result.plan.qubits_used()
        for switch in network.switches():
            assert usage.get(switch, 0) <= network.qubit_capacity(switch)

    def test_routes_are_valid_flow_graphs(self, router):
        network, demands = small_instance(seed=3)
        link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.8)
        result = router.route(network, demands, link, swap)
        demand_by_id = {d.demand_id: d for d in demands}
        for flow in result.plan.flows():
            demand = demand_by_id[flow.demand_id]
            assert flow.source == demand.source
            assert flow.destination == demand.destination
            for path in flow.paths:
                for a, b in zip(path, path[1:]):
                    assert network.has_edge(a, b)

    def test_deterministic(self, router):
        network, demands = small_instance(seed=4)
        link, swap = LinkModel(fixed_p=0.5), SwapModel(q=0.9)
        a = router.route(network, demands, link, swap)
        b = router.route(network, demands, link, swap)
        assert a.total_rate == pytest.approx(b.total_rate)
        assert a.demand_rates == b.demand_rates

    def test_rate_monotone_in_q(self, router):
        network, demands = small_instance(seed=5)
        link = LinkModel(fixed_p=0.5)
        low = router.route(network, demands, link, SwapModel(q=0.3)).total_rate
        high = router.route(network, demands, link, SwapModel(q=0.9)).total_rate
        assert high >= low


class TestOrderings:
    def test_alg_n_fusion_dominates_baselines(self):
        """The paper's central claim at the default-style setting."""
        link, swap = LinkModel(fixed_p=0.3), SwapModel(q=0.9)
        wins = 0
        for seed in (1, 2, 3):
            network, demands = small_instance(seed=seed, num_switches=40)
            rates = {
                r.name: r.route(network, demands, link, swap).total_rate
                for r in [AlgNFusion(), QCastRouter(), QCastNRouter(), B1Router()]
            }
            if all(
                rates["ALG-N-FUSION"] >= rates[name] * 0.99
                for name in ("Q-CAST", "Q-CAST-N", "B1")
            ):
                wins += 1
        assert wins >= 2  # dominance may flip on one noisy sample

    def test_nfusion_beats_classic_swapping_at_low_p(self):
        link, swap = LinkModel(fixed_p=0.15), SwapModel(q=0.9)
        network, demands = small_instance(seed=6, num_switches=40)
        alg = AlgNFusion().route(network, demands, link, swap).total_rate
        qcast = QCastRouter().route(network, demands, link, swap).total_rate
        assert alg > 2.0 * qcast  # the n-fusion advantage regime

    def test_qcast_uses_width_one_only(self):
        network, demands = small_instance(seed=7)
        result = QCastRouter().route(
            network, demands, LinkModel(fixed_p=0.5), SwapModel()
        )
        for flow in result.plan.flows():
            assert flow.num_paths == 1
            assert set(flow.edge_widths().values()) == {1}

    def test_b1_respects_its_caps(self):
        network, demands = small_instance(seed=8)
        result = B1Router().route(
            network, demands, LinkModel(fixed_p=0.5), SwapModel()
        )
        for flow in result.plan.flows():
            assert flow.num_paths <= 2
            assert max(flow.edge_widths().values()) <= 2
            for node in flow.nodes():
                if network.node(node).is_switch:
                    assert flow.fusion_arity(node) <= 4

    def test_alg3_only_is_no_better_than_full(self):
        network, demands = small_instance(seed=9)
        link, swap = LinkModel(fixed_p=0.4), SwapModel()
        full = AlgNFusion().route(network, demands, link, swap).total_rate
        partial = AlgNFusion(include_alg4=False).route(
            network, demands, link, swap
        ).total_rate
        assert full >= partial - 1e-9

    def test_admission_policies_both_work(self):
        network, demands = small_instance(seed=10)
        link, swap = LinkModel(fixed_p=0.4), SwapModel()
        eff = AlgNFusion(admission_policy="efficiency").route(
            network, demands, link, swap
        )
        wf = AlgNFusion(admission_policy="widest_first").route(
            network, demands, link, swap
        )
        assert eff.total_rate > 0
        assert wf.total_rate > 0

    def test_unknown_policy_raises(self):
        network, demands = small_instance(seed=11)
        with pytest.raises(ValueError):
            AlgNFusion(admission_policy="bogus").route(
                network, demands, LinkModel(fixed_p=0.5), SwapModel()
            )


class TestSharedPipelines:
    @pytest.mark.parametrize("core", ["compiled", "reference"])
    def test_route_on_explicit_fresh_ledger_equals_route(
        self, core, monkeypatch
    ):
        """Handing ``route`` a fresh ledger and a rate cache is the batch
        call: ``ledger=None`` builds exactly that ledger."""
        monkeypatch.setenv(ROUTING_CORE_ENV, core)
        network, demands = small_instance(seed=12)
        link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
        cache = ChannelRateCache(network, link)
        for router in ROUTERS:
            for demand_set in (DemandSet(list(demands)[:1]), demands):
                batch = router.route(network, demand_set, link, swap)
                ledger = QubitLedger(network)
                given = router.route(
                    network, demand_set, link, swap, ledger=ledger,
                    rate_cache=cache,
                )
                assert _plan_shape(given) == _plan_shape(batch)
                assert given.demand_rates == batch.demand_rates
                assert given.remaining_qubits == batch.remaining_qubits
                assert (
                    ledger.total_free_switch_qubits()
                    == batch.remaining_qubits
                )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_q_cast_is_q_cast_n_at_width_one(self, seed):
        spec = parse_scenario("paper-default")
        rng = ensure_rng(seed)
        network = build_network(spec.network_config(), rng)
        demands = generate_demands(network, spec.num_states, rng)
        qcast = QCastRouter().route(network, demands)
        qcast_n = QCastNRouter(max_width=1).route(network, demands)
        assert (qcast.algorithm, qcast_n.algorithm) == ("Q-CAST", "Q-CAST-N")
        assert _plan_shape(qcast) == _plan_shape(qcast_n)
        assert qcast.demand_rates == qcast_n.demand_rates
        assert qcast.remaining_qubits == qcast_n.remaining_qubits

    def test_default_max_width_reads_the_ledger(self):
        network, _ = small_instance(seed=13)
        ledger = QubitLedger(network)
        for switch in network.switches():
            ledger.reserve(switch, network.qubit_capacity(switch) // 2 + 1)
        residual = default_max_width(network, ledger)
        assert residual < default_max_width(network)
        assert residual == default_max_width(residual_view(network, ledger))


class TestDiamondScenario:
    def test_alg_merges_diamond_into_flow_graph(self):
        network = make_diamond_network()
        demands = DemandSet([Demand(0, 0, 1)])
        link, swap = LinkModel(fixed_p=0.3), SwapModel(q=0.9)
        result = AlgNFusion().route(network, demands, link, swap)
        flow = result.plan.flow_for(0)
        assert flow is not None
        # Both arms should be used: either as branches or via Alg-4 widths.
        assert len(flow.edges()) >= 3
        assert result.total_rate > QCastRouter().route(
            network, demands, link, swap
        ).total_rate


class TestMaxHops:
    @pytest.fixture(scope="class")
    def instance(self):
        rng = ensure_rng(321)
        network = build_network(
            NetworkConfig(num_switches=40, num_users=6), rng
        )
        demands = generate_demands(network, 8, rng)
        return network, demands

    def test_constraint_bounds_hops(self, instance):
        network, demands = instance
        cap = 2
        router = AlgNFusion(max_hops=cap)
        result = router.route(
            network, demands, LinkModel(fixed_p=0.5), SwapModel()
        )
        for flow in result.plan.flows():
            for path in flow.paths:
                assert len(path) - 1 <= cap

    def test_tighter_constraint_never_raises_rate(self, instance):
        network, demands = instance
        link, swap = LinkModel(fixed_p=0.5), SwapModel()
        free = AlgNFusion().route(network, demands, link, swap).total_rate
        constrained = AlgNFusion(max_hops=3).route(
            network, demands, link, swap
        ).total_rate
        assert constrained <= free + 1e-9

    def test_impossible_constraint_routes_nothing_beyond_direct(self, instance):
        network, demands = instance
        result = AlgNFusion(max_hops=1).route(
            network, demands, LinkModel(fixed_p=0.5), SwapModel()
        )
        # Users never share an edge in generated networks, so max_hops=1
        # leaves every demand unroutable.
        assert result.num_routed == 0
