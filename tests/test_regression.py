"""Pinned-instance regression tests.

``tests/data/regression_instance.json`` is a frozen topology + demand
set; the rates below were produced by the reviewed implementation.  Any
change to the routing algorithms that shifts these numbers is either a
bug or a deliberate algorithmic change — in the latter case regenerate
the pins (``python -m repro.experiments regen-regression`` rewrites the
fixture bit-exactly from its frozen recipe) and document the change.
"""

import pathlib
from functools import partial
from unittest import mock

import pytest

from repro.experiments.regression import (
    REGRESSION_NUM_DEMANDS,
    build_regression_instance,
    regenerate_regression_fixture,
)
from repro.network.serialization import load_instance, save_instance
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing import alg3_merge
from repro.routing.allocation import QubitLedger
from repro.routing.baselines import (
    B1Router, MCFRouter, QCastNRouter, QCastRouter, qcast_n,
)
from repro.routing.compiled import active_routing_core, snapshot_for
from repro.routing.nfusion import AlgNFusion

INSTANCE = pathlib.Path(__file__).parent / "data" / "regression_instance.json"

PINNED_RATES = {
    "ALG-N-FUSION": 4.072143172698226,
    "Q-CAST": 0.9676800000000001,
    "Q-CAST-N": 3.567133129380986,
    "B1": 2.699442708480001,
}

#: ``demand_rates`` as ``float.hex``, pinned bit for bit.
PINNED_DEMAND_RATES = {
    "ALG-N-FUSION": {
        0: "0x1.1b3bc5a8ec1cfp-1", 1: "0x1.1b3bc5a8ec1cfp-1",
        2: "0x1.87ec33cc8b8b6p-1", 3: "0x1.454d55505a118p-1",
        4: "0x1.797cc39ffd610p-2", 5: "0x1.797cc39ffd610p-2",
        7: "0x1.a7c21b20017c5p-1",
    },
    "Q-CAST": {
        0: "0x1.26e978d4fdf3cp-3", 1: "0x1.26e978d4fdf3cp-3",
        2: "0x1.26e978d4fdf3cp-3", 3: "0x1.a8ac5c13fd0d0p-5",
        4: "0x1.26e978d4fdf3cp-3", 5: "0x1.26e978d4fdf3cp-3",
        6: "0x1.26e978d4fdf3cp-3", 7: "0x1.a8ac5c13fd0d0p-5",
    },
    "Q-CAST-N": {
        0: "0x1.87ec33cc8b8b6p-1", 1: "0x1.87ec33cc8b8b6p-1",
        2: "0x1.87ec33cc8b8b6p-1", 3: "0x1.454d55505a118p-1",
        7: "0x1.454d55505a118p-1",
    },
    "B1": {
        0: "0x1.33e8ad009348cp-1", 1: "0x1.33e8ad009348cp-1",
        2: "0x1.797cc39ffd610p-2", 3: "0x1.b2dd8d645717cp-3",
        4: "0x1.4d941288212e0p-2", 5: "0x1.4d941288212e0p-2",
        6: "0x1.a8ac5c13fd0d0p-5", 7: "0x1.b2dd8d645717cp-3",
    },
}

#: Upper bounds on deterministic work per route: (router, owner,
#: function, calls).  Algorithm-1 searches of the lazy Q-CAST/Q-CAST-N
#: greedy (an eager loop re-searching every pair each round made 165 and
#: 36), Algorithm-3 candidate evaluations of ALG-N-FUSION (298 when every
#: candidate was evaluated before its ledger check, 207 for the rescan
#: of the whole pool after every admission, 78 while a branch was keyed
#: by its bare path product and a path already in its flow by ``1 -
#: rate``), its ledger probes per
#: routing core (3,184 and 49,799 with that rescan; 1,089 on the
#: compiled core while relay flags probed every node per width and
#: ledger change; 639 and 47,704 while admission probed each candidate's
#: switches one by one instead of reading each switch's count once; the
#: reference core's Algorithm 1 probes once per relaxation) and its
#: passes over the ledger's counts per routing core
#: (the compiled core reads them once per ledger version for its relay
#: flags, plus once for the default width on either core).  The
#: ledger's per-node reserve and release calls of the literal
#: ``widest_first`` sweep, of B1 and of MCF (217/80, 141/82 and 30/8
#: while the sweep reserved each candidate's charges before its merge
#: and refunded a failed or cyclic admission; 138/80 while B1 charged
#: every attempt to the caller's ledger and refunded the ones its path
#: or fusion-arity cap refused; MCF's refunds were its cyclic merges),
#: the same on both cores; a bound of 0 pins no call at all.
WORK_BOUNDS = {
    "Q-CAST-N": ("Q-CAST-N", qcast_n, "largest_entanglement_rate_path", 65),
    "Q-CAST": ("Q-CAST", qcast_n, "largest_entanglement_rate_path", 15),
    "ALG-N-FUSION": ("ALG-N-FUSION", alg3_merge, "_evaluate_candidate", 54),
    "ALG-N-FUSION-probes": (
        "ALG-N-FUSION", QubitLedger, "has_at_least",
        {"compiled": 258, "reference": 47323},
    ),
    "ALG-N-FUSION-relay-counts": (
        "ALG-N-FUSION", QubitLedger, "remaining_counts",
        {"compiled": 4, "reference": 1},
    ),
    "ALG-N-FUSION-WF-reserves": (
        "ALG-N-FUSION-WF", QubitLedger, "reserve", 32,
    ),
    "ALG-N-FUSION-WF-releases": (
        "ALG-N-FUSION-WF", QubitLedger, "release", 0,
    ),
    "B1-reserves": ("B1", QubitLedger, "reserve", 138),
    "B1-releases": ("B1", QubitLedger, "release", 0),
    "MCF-reserves": ("MCF", QubitLedger, "reserve", 18),
    "MCF-releases": ("MCF", QubitLedger, "release", 0),
}

ROUTERS = {
    "ALG-N-FUSION": AlgNFusion,
    "ALG-N-FUSION-WF": partial(AlgNFusion, admission_policy="widest_first"),
    "Q-CAST": QCastRouter,
    "Q-CAST-N": QCastNRouter,
    "B1": B1Router,
    "MCF": MCFRouter,
}


@pytest.fixture(scope="module")
def instance():
    return load_instance(INSTANCE)


@pytest.mark.parametrize("name", sorted(PINNED_RATES))
def test_pinned_rate(name, instance):
    network, demands = instance
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    result = ROUTERS[name]().route(network, demands, link, swap)
    assert result.total_rate == pytest.approx(PINNED_RATES[name], rel=1e-9)


@pytest.mark.parametrize("name", sorted(PINNED_DEMAND_RATES))
def test_pinned_demand_rates_bit_exact(name, instance):
    network, demands = instance
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    result = ROUTERS[name]().route(network, demands, link, swap)
    rates = {d: rate.hex() for d, rate in result.demand_rates.items()}
    assert rates == PINNED_DEMAND_RATES[name]


@pytest.mark.parametrize("name", sorted(WORK_BOUNDS))
def test_work_bounds(name, instance):
    network, demands = instance
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    router, owner, attribute, bound = WORK_BOUNDS[name]
    if router == "MCF":
        pytest.importorskip("scipy")
    if isinstance(bound, dict):
        bound = bound[active_routing_core()]
    with mock.patch.object(
        owner, attribute, autospec=True, side_effect=getattr(owner, attribute)
    ) as counted:
        ROUTERS[router]().route(network, demands, link, swap)
    if bound == 0:
        assert counted.call_count == 0
    else:
        assert 0 < counted.call_count <= bound


#: The native kernel's work on one cold ALG-N-FUSION route of the
#: fixture: heap pops over every search (the Yen goal bound's reverse
#: search included) and spur searches, read from the kernel's counters.
#: Pure functions of the instance, so they gate work without a clock.
#: Without the Yen loop's goal bound and floor the route popped 7,042
#: entries over the same 225 spur searches.
KERNEL_WORK = {"pops": 3588, "spurs": 225}


def test_kernel_work_pinned():
    if active_routing_core() != "compiled":
        pytest.skip("the kernel's counters exist on the compiled core only")
    # A fresh load: its snapshot and kernel context start at zero.
    network, demands = load_instance(INSTANCE)
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    AlgNFusion().route(network, demands, link, swap)
    pops, spurs = snapshot_for(network, link).kernel_work()
    assert {"pops": pops, "spurs": spurs} == KERNEL_WORK


def test_instance_is_stable(instance):
    network, demands = instance
    assert network.num_nodes == 36
    assert len(demands) == REGRESSION_NUM_DEMANDS
    assert network.is_connected()


def test_fixture_matches_recipe(tmp_path):
    """The committed fixture is exactly what the frozen recipe produces."""
    regenerated = regenerate_regression_fixture(tmp_path / "instance.json")
    assert regenerated.read_bytes() == INSTANCE.read_bytes()


def test_fixture_serialization_round_trip(tmp_path, instance):
    """Saving the loaded fixture reproduces the committed bytes."""
    network, demands = instance
    path = tmp_path / "round_trip.json"
    save_instance(path, network, demands)
    assert path.read_bytes() == INSTANCE.read_bytes()


def test_recipe_routes_like_fixture(instance):
    """The in-memory recipe and the loaded fixture route identically."""
    network, demands = instance
    built_network, built_demands = build_regression_instance()
    link, swap = LinkModel(fixed_p=0.4), SwapModel(q=0.9)
    loaded = AlgNFusion().route(network, demands, link, swap)
    built = AlgNFusion().route(built_network, built_demands, link, swap)
    assert loaded.total_rate == built.total_rate
    assert loaded.demand_rates == built.demand_rates
