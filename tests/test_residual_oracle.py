"""Every router's ledger entry against the residual-view oracle.

``router.route(network, demands, ..., ledger=L, rate_cache=C,
banned_nodes=N, banned_edges=E)`` is how the serving loop re-plans an
arrival.  :class:`~repro.service.residual.ResidualViewRouter` gets the
same plan the slow way: it copies the network with switch capacities
set to L's remaining counts and without N's and E's edges, routes the
copy cold with a fresh ledger and charges the flows to L.  The two must
agree exactly on the plan (paths and edge widths), the ``float.hex``
rates, ``remaining_qubits`` and the ledger they leave, for all five
routers on both routing cores.

The ledger is partly drained by earlier ALG-N-FUSION flows, as a
session's is.  Bans are drawn from the switches and edges of the
unbanned plan itself: randomly drawn bans almost never touch a plan,
so they would barely test anything.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import parse_scenario
from repro.network.builder import build_network
from repro.network.demands import DemandSet, generate_demands
from repro.routing.allocation import QubitLedger
from repro.routing.compiled import ROUTING_CORE_ENV
from repro.routing.metrics import ChannelRateCache
from repro.routing.registry import make_router, router_keys
from repro.service.residual import ResidualViewRouter
from repro.utils.rng import ensure_rng

from tests.test_routing_cores import _plan_shape

#: (scenario, sample seeds) per routing core; the reference core is
#: ~16x slower on a cold route, so it runs the small instance only.
INSTANCES = {
    "compiled": (
        ("waxman:switches=30,users=6,states=5", (7, 11)),
        ("paper-default", (3,)),
    ),
    "reference": (("waxman:switches=30,users=6,states=5", (7, 11)),),
}

#: Demands routed by ALG-N-FUSION before the differential, to drain
#: the ledger the way earlier arrivals drain a session's.
DRAINING = 2


def _outcome(result, ledger):
    return (
        _plan_shape(result),
        {d: rate.hex() for d, rate in sorted(result.demand_rates.items())},
        float(result.total_rate).hex(),
        result.remaining_qubits,
        ledger.snapshot(),
    )


def _bans(network, result):
    """Ban sets that hit *result*'s plan: one relay switch of it, then
    that switch plus one plan edge away from the switch."""
    switches = sorted(
        node
        for flow in result.plan.flows()
        for node in flow.nodes()
        if network.node(node).is_switch
    )
    if not switches:
        return []
    switch = switches[0]
    edges = sorted(
        edge
        for flow in result.plan.flows()
        for edge in flow.edges()
        if switch not in edge
    )
    bans = [(frozenset({switch}), frozenset())]
    if edges:
        bans.append((frozenset({switch}), frozenset({edges[0]})))
    return bans


@pytest.mark.parametrize("core", ["compiled", "reference"])
@pytest.mark.parametrize("key", router_keys())
def test_ledger_entry_equals_residual_view(core, key, monkeypatch):
    monkeypatch.setenv(ROUTING_CORE_ENV, core)
    router = make_router(key)
    oracle = ResidualViewRouter(router)
    compared = banned_changed = 0
    for scenario, seeds in INSTANCES[core]:
        spec = parse_scenario(scenario)
        setting = spec.setting()
        link, swap = setting.link_model(), setting.swap_model()
        for seed in seeds:
            rng = ensure_rng(seed)
            network = build_network(spec.network_config(), rng)
            demands = list(generate_demands(network, spec.num_states, rng))
            # One session-long cache, as the serving loop keeps.
            cache = ChannelRateCache(network, link)
            drained = QubitLedger(network)
            make_router("alg-n-fusion", include_alg4=False).route(
                network, DemandSet(demands[:DRAINING]), link, swap,
                ledger=drained, rate_cache=cache,
            )
            # A serving arrival, then a small batch.
            for demand_set in (
                DemandSet(demands[DRAINING:DRAINING + 1]),
                DemandSet(demands[DRAINING:DRAINING + 3]),
            ):
                for base in (QubitLedger(network), drained):
                    unbanned = router.route(
                        network, demand_set, link, swap,
                        ledger=base.copy(), rate_cache=cache,
                    )
                    for banned_nodes, banned_edges in [
                        (frozenset(), frozenset()),
                        *_bans(network, unbanned),
                    ]:
                        ours, theirs = base.copy(), base.copy()
                        entry = router.route(
                            network, demand_set, link, swap,
                            ledger=ours, rate_cache=cache,
                            banned_nodes=banned_nodes,
                            banned_edges=banned_edges,
                        )
                        view = oracle.route(
                            network, demand_set, link, swap,
                            ledger=theirs,
                            banned_nodes=banned_nodes,
                            banned_edges=banned_edges,
                        )
                        assert _outcome(entry, ours) == _outcome(
                            view, theirs
                        ), (scenario, seed, banned_nodes, banned_edges)
                        compared += 1
                        if banned_nodes and (
                            _plan_shape(entry) != _plan_shape(unbanned)
                        ):
                            banned_changed += 1
    assert compared >= 16
    # The bans reroute real plans, so the banned cases are not vacuous.
    assert banned_changed > 0
