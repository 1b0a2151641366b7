"""Bit-level pins and a differential for the vectorised Monte Carlo engine.

The engine computes each trial's undirected source-destination
reachability by edge sweeps over per-node rows.  ``FrontierOracle``
below keeps the earlier engine verbatim: per-column ``uniform`` draws
and a synchronous frontier expansion scattered with
``np.logical_or.at``.  Both must consume the estimation stream in the
same order and count and return the same booleans, so every estimate is
bit-identical:

* ``float.hex`` pins of ``estimate_plan``'s mean and stderr on the
  regression fixture's ALG-N-FUSION plan, plus a sha256 of the per-flow
  ``simulate_flow`` outcome bytes, recorded on the earlier engine;
* a hypothesis differential on merged random paths (reconvergent ones
  included) across widths, link and fusion probabilities, survival masks
  and antithetic pairing;
* an explicit flow whose only surviving route crosses an edge against
  the flow's direction, which a single forward sweep or a one-way edge
  update would miss.
"""

import hashlib
import itertools
from typing import Dict, Optional, Tuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.exceptions import RoutingError
from repro.experiments.estimators import (
    estimate_plan,
    estimation_rng,
    parse_estimator,
)
from repro.experiments.regression import build_regression_instance
from repro.network.graph import QuantumNetwork
from repro.network.node import QuantumSwitch, QuantumUser
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.nfusion import AlgNFusion
from repro.simulation.vectorized import VectorizedProcessSimulator
from repro.utils.geometry import Point
from repro.utils.rng import ensure_rng


class FrontierOracle(VectorizedProcessSimulator):
    """The earlier engine's draws and frontier expansion, verbatim."""

    def _uniforms(
        self, trials: int, count: int, antithetic: bool
    ) -> np.ndarray:
        if not antithetic:
            return self._rng.uniform(size=(trials, count))
        draws = self._rng.uniform(size=(trials // 2, count))
        return np.concatenate([draws, 1.0 - draws], axis=0)

    def _survival_masks(
        self,
        trials: int,
        link_survival: float,
        switch_survival: float,
        antithetic: bool,
    ) -> "Tuple[Dict[Tuple[int, int], np.ndarray], Dict[int, np.ndarray]]":
        edge_masks: Dict[Tuple[int, int], np.ndarray] = {}
        switch_masks: Dict[int, np.ndarray] = {}
        if link_survival != 1.0:
            edge_keys = sorted(self.network.edge_keys())
            draws = self._uniforms(trials, len(edge_keys), antithetic)
            for column, key in enumerate(edge_keys):
                edge_masks[key] = draws[:, column] < link_survival
        if switch_survival != 1.0:
            switches = list(self.network.switches())
            draws = self._uniforms(trials, len(switches), antithetic)
            for column, switch in enumerate(switches):
                switch_masks[switch] = draws[:, column] < switch_survival
        return edge_masks, switch_masks

    def simulate_flow(
        self,
        flow: FlowLikeGraph,
        trials: int,
        antithetic: bool = False,
        survival_masks: "Optional[Tuple[Dict, Dict]]" = None,
    ) -> np.ndarray:
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if antithetic and trials % 2:
            raise ValueError(
                f"antithetic pairing needs an even trial count, got {trials}"
            )
        edges = flow.edges()
        nodes = flow.nodes()
        node_index = {node: i for i, node in enumerate(nodes)}
        num_nodes = len(nodes)

        # Channel survival matrix: trials x edges.
        channel_probs = np.array(
            [
                self.link_model.channel_probability(
                    self.network.edge_length(u, v), flow.edge_width(u, v)
                )
                for u, v in edges
            ]
        )
        channels_ok = (
            self._uniforms(trials, len(edges), antithetic) < channel_probs
        )

        # Node survival matrix: trials x nodes (users always survive).
        node_alive = np.ones((trials, num_nodes), dtype=bool)
        for node in nodes:
            if self.network.node(node).is_switch:
                q = self.swap_model.success_probability(flow.fusion_arity(node))
                node_alive[:, node_index[node]] = (
                    self._uniforms(trials, 1, antithetic)[:, 0] < q
                )

        # Infrastructure loss: a masked-out edge is a failed channel, a
        # masked-out switch a failed fusion, in exactly the trials the
        # network-wide draw lost them.
        if survival_masks is not None:
            edge_masks, switch_masks = survival_masks
            for column, (u, v) in enumerate(edges):
                key = (u, v) if u < v else (v, u)
                mask = edge_masks.get(key)
                if mask is not None:
                    channels_ok[:, column] &= mask
            for node in nodes:
                mask = switch_masks.get(node)
                if mask is not None:
                    node_alive[:, node_index[node]] &= mask

        # An edge is usable when its channel delivered and both endpoints
        # survived: trials x edges.
        endpoint_u = np.array([node_index[u] for u, _ in edges])
        endpoint_v = np.array([node_index[v] for _, v in edges])
        usable = (
            channels_ok
            & node_alive[:, endpoint_u]
            & node_alive[:, endpoint_v]
        )

        # Synchronous frontier expansion: reach starts at the source and
        # spreads across usable edges until a fixed point (at most
        # num_nodes sweeps, typically the flow diameter).
        reach = np.zeros((trials, num_nodes), dtype=bool)
        reach[:, node_index[flow.source]] = True
        for _ in range(num_nodes):
            spread_u = reach[:, endpoint_u] & usable
            spread_v = reach[:, endpoint_v] & usable
            new_reach = reach.copy()
            # Propagate across every edge in both directions; scatter with
            # logical_or.at because endpoints repeat across edges.
            np.logical_or.at(new_reach, (slice(None), endpoint_v), spread_u)
            np.logical_or.at(new_reach, (slice(None), endpoint_u), spread_v)
            if np.array_equal(new_reach, reach):
                break
            reach = new_reach
        return reach[:, node_index[flow.destination]]


# ----------------------------------------------------------------------
# Pins: recorded on the frontier engine, unchanged by the sweep engine.

PIN_SEED = 101

#: ``float.hex`` of (mean, stderr) per estimator spec.
MC_PINS = {
    "mc:trials=2000": ("0x1.cc4189374bc6ap+2", "0x1.375632828967dp-6"),
    "mc:trials=2000,antithetic=true": (
        "0x1.cb020c49ba5e3p+2", "0x1.294a22439018ap-6",
    ),
    "mc:trials=2000,link_survival=0.9,switch_survival=0.95": (
        "0x1.82f1a9fbe76c9p+2", "0x1.0456c8997a4c7p-5",
    ),
}

#: sha256 of every flow's ``simulate_flow`` outcome bytes, in plan order.
FLOW_OUTCOME_SHA256 = {
    "mc:trials=2000":
        "3a3d0b6cec454dc5fe7ad467f6b7f40c5944bce2edfb6a4f2f491af97e8bdba6",
    "mc:trials=2000,antithetic=true":
        "0cd09379981665bfb26714288161d95b4858a4bcaa804b42447e12a9291299a6",
    "mc:trials=2000,link_survival=0.9,switch_survival=0.95":
        "fda0ab857bdff38b4d17cf741ad3c310b338d523a3b75a702fa75f726e24e0cb",
}


@pytest.fixture(scope="module")
def regression_plan():
    network, demands = build_regression_instance()
    return network, AlgNFusion().route(network, demands).plan


@pytest.mark.parametrize("text", sorted(MC_PINS))
def test_mc_estimate_bits_pinned(regression_plan, text):
    network, plan = regression_plan
    estimate = estimate_plan(
        parse_estimator(text), network, plan, None, None, PIN_SEED
    )
    assert (estimate.mean.hex(), estimate.stderr.hex()) == MC_PINS[text]


@pytest.mark.parametrize("text", sorted(FLOW_OUTCOME_SHA256))
def test_mc_flow_outcomes_pinned(regression_plan, text):
    network, plan = regression_plan
    spec = parse_estimator(text)
    simulator = VectorizedProcessSimulator(
        network, None, None, estimation_rng(PIN_SEED)
    )
    masks = None
    if spec.has_survival_masks:
        masks = simulator._survival_masks(
            spec.trials, spec.link_survival, spec.switch_survival,
            spec.antithetic,
        )
    digest = hashlib.sha256()
    for flow in plan.flows():
        outcomes = simulator.simulate_flow(
            flow, spec.trials, spec.antithetic, masks
        )
        digest.update(outcomes.tobytes())
    assert digest.hexdigest() == FLOW_OUTCOME_SHA256[text]


# ----------------------------------------------------------------------
# Differential against the frontier oracle.


def _grid_with_users(side=3):
    """A side x side switch grid, a user on two opposite corners, and a
    direct user-user edge so a flow may hold no switch at all."""
    network = QuantumNetwork()
    for row in range(side):
        for col in range(side):
            network.add_node(
                QuantumSwitch(row * side + col,
                              Point(1000.0 * col, 1000.0 * row), 50)
            )
    for row in range(side):
        for col in range(side):
            here = row * side + col
            if col + 1 < side:
                network.add_edge(here, here + 1)
            if row + 1 < side:
                network.add_edge(here, here + side)
    source, destination = side * side, side * side + 1
    network.add_node(QuantumUser(source, Point(-1000.0, 0.0)))
    network.add_node(
        QuantumUser(destination, Point(1000.0 * side, 1000.0 * (side - 1)))
    )
    network.add_edge(source, 0)
    network.add_edge(destination, side * side - 1)
    network.add_edge(source, destination)
    return network, source, destination


GRID, SOURCE, DESTINATION = _grid_with_users()
_GRAPH = nx.Graph([(edge.u, edge.v) for edge in GRID.edges()])
PATH_POOL = [
    tuple(path)
    for path in nx.all_simple_paths(_GRAPH, SOURCE, DESTINATION, cutoff=6)
]


@st.composite
def differential_cases(draw):
    indices = draw(
        st.lists(
            st.integers(0, len(PATH_POOL) - 1),
            min_size=1, max_size=4, unique=True,
        )
    )
    flow = FlowLikeGraph(0, SOURCE, DESTINATION)
    added = 0
    for index in indices:
        try:
            flow.add_path(PATH_POOL[index], width=draw(st.integers(1, 3)))
            added += 1
        except RoutingError:
            continue
    assume(added >= 1)
    antithetic = draw(st.booleans())
    # Past DRAW_BLOCK_ROWS, so draws span several blocks.
    trials = draw(st.integers(1, 300))
    if antithetic:
        trials += trials % 2
    return {
        "flow": flow,
        "fixed_p": draw(st.sampled_from([0.0, 0.4, 1.0])),
        "q": draw(st.sampled_from([0.6, 1.0])),
        "survival": draw(st.sampled_from([None, (0.7, 1.0), (1.0, 0.8),
                                          (0.7, 0.8)])),
        "antithetic": antithetic,
        "trials": trials,
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _run(engine_cls, case):
    engine = engine_cls(
        GRID, LinkModel(fixed_p=case["fixed_p"]), SwapModel(q=case["q"]),
        ensure_rng(case["seed"]),
    )
    masks = None
    if case["survival"] is not None:
        masks = engine._survival_masks(
            case["trials"], *case["survival"], case["antithetic"]
        )
    outcomes = [
        engine.simulate_flow(
            case["flow"], case["trials"], case["antithetic"], masks
        )
        for _ in range(2)
    ]
    # The next draw proves both engines consumed the same stream.
    return outcomes, masks, engine._rng.random()


@settings(max_examples=200, deadline=None)
@given(differential_cases())
def test_mc_sweep_engine_matches_frontier_oracle(case):
    outcomes, masks, after = _run(VectorizedProcessSimulator, case)
    expected, expected_masks, expected_after = _run(FrontierOracle, case)
    for got, want in zip(outcomes, expected):
        assert got.shape == (case["trials"],)
        assert np.array_equal(got, want)
    if masks is not None:
        for side, expected_side in zip(masks, expected_masks):
            assert list(side) == list(expected_side)
            for key, mask in side.items():
                assert np.array_equal(mask, expected_side[key])
    assert after == expected_after


def _key(u, v):
    return (u, v) if u < v else (v, u)


def _against_direction_flow(labels):
    """Paths S-a-x-D, S-c-D and S-c-x-D with the given node ids: the
    edge c-x is oriented c -> x by the merge."""
    s, d, a, c, x = labels
    network = QuantumNetwork()
    network.add_node(QuantumUser(s, Point(0.0, 0.0)))
    network.add_node(QuantumUser(d, Point(3000.0, 0.0)))
    network.add_node(QuantumSwitch(a, Point(1000.0, 1000.0), 10))
    network.add_node(QuantumSwitch(c, Point(1000.0, -1000.0), 10))
    network.add_node(QuantumSwitch(x, Point(2000.0, 0.0), 10))
    for u, v in ((s, a), (a, x), (x, d), (s, c), (c, d), (c, x)):
        network.add_edge(u, v)
    flow = FlowLikeGraph(0, s, d)
    flow.add_path([s, a, x, d], width=1)
    flow.add_path([s, c, d], width=1)
    flow.add_path([s, c, x, d], width=1)
    assert flow.children_of(c) == sorted([x, d])
    return network, flow


@pytest.mark.parametrize(
    "labels", [(0, *rest) for rest in itertools.permutations(range(1, 5))]
)
def test_mc_route_against_flow_direction(labels):
    """With S-c and x-D lost, the only S-D route is S-a-x-c-D: it
    crosses c-x against the flow's direction, after x is reached through
    a, and then leaves c forward to D."""
    s, d, a, c, x = labels
    network, flow = _against_direction_flow(labels)
    trials = 8
    lost = np.zeros(trials, dtype=bool)
    masks = ({_key(s, c): lost, _key(x, d): lost}, {})
    results = []
    for engine_cls in (VectorizedProcessSimulator, FrontierOracle):
        engine = engine_cls(
            network, LinkModel(fixed_p=1.0), SwapModel(q=1.0), ensure_rng(3)
        )
        results.append(engine.simulate_flow(flow, trials, False, masks))
    assert results[0].all()
    assert np.array_equal(results[0], results[1])

    # Losing c-D as well leaves no route at all.
    masks[0][_key(c, d)] = lost
    engine = VectorizedProcessSimulator(
        network, LinkModel(fixed_p=1.0), SwapModel(q=1.0), ensure_rng(3)
    )
    assert not engine.simulate_flow(flow, trials, False, masks).any()
