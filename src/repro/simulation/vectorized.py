"""Vectorised Monte Carlo engine.

The reference :class:`~repro.simulation.engine.EntanglementProcessSimulator`
decides one trial at a time in pure Python; this engine evaluates *all*
trials of a flow at once with numpy boolean rows, one per edge and one
per node, each over the trials:

* channel survival is one ``trials x edges`` Bernoulli draw (per-channel
  success ``1 - (1-p)^w``), transposed into per-edge rows,
* switch fusion survival one draw per switch, in node order, each
  switch's trials consecutive in the stream,
* establishment is undirected reachability from source to destination
  (the reference engine's ``establishment``), found by edge sweeps: per
  edge, reach spreads in both directions; the sweeps run in the flow's
  topological order, then in reverse, alternating until a sweep adds no
  (node, trial) pair.  A flow whose surviving routes all follow its
  direction settles in one forward and one confirming reverse sweep.

It samples the same event as the reference engine but from its own
draws, so the two agree in distribution (the test suite checks it), not
trial for trial.  On the regression fixture's ALG-N-FUSION plan (8
flows, 2,000 trials; 2-core Xeon, Python 3.11, numpy 2.4) a plan
estimate takes ~3 ms here against ~720 ms on the reference engine.

``plan_estimate`` can additionally sample **survival masks**: per trial
a network-wide Bernoulli keep/lose draw over every edge and switch
(``link_survival``/``switch_survival``), shared by all of the plan's
flows so one lost element fails every flow crossing it in that trial.
A masked-out edge behaves as a failed channel and a masked-out switch
as a failed fusion; the default ``1.0`` draws nothing, leaving the
estimation stream byte-identical to the loss-free engine.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.plan import RoutingPlan
from repro.simulation.monte_carlo import MonteCarloEstimate
from repro.utils.rng import RandomState, ensure_rng

#: Trial rows per block of a trial-major draw (see ``_successes``).
DRAW_BLOCK_ROWS = 128


class VectorizedProcessSimulator:
    """Batch Monte Carlo evaluation of flow establishment probabilities."""

    def __init__(
        self,
        network: QuantumNetwork,
        link_model: Optional[LinkModel] = None,
        swap_model: Optional[SwapModel] = None,
        rng: Optional[RandomState] = None,
    ):
        self.network = network
        self.link_model = link_model or LinkModel()
        self.swap_model = swap_model or SwapModel()
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------

    def _successes(
        self,
        trials: int,
        count: int,
        p: Union[float, np.ndarray],
        antithetic: bool,
    ) -> np.ndarray:
        """A ``(trials, count)`` Bernoulli matrix ``U < p``, trial-major.

        *p* is one probability or one per column.  With ``antithetic``
        the first ``trials/2`` rows compare fresh draws ``U`` and the
        rest their mirrors ``1 - U``, so trial ``i`` pairs with trial
        ``i + trials/2`` across every edge and node draw.  Establishment
        is monotone in each uniform (success is ``u < p``), so the
        paired outcomes are negatively correlated — the classic
        antithetic-variates construction.

        The uniforms come from the stream in blocks of trial rows, the
        same draws as one ``(trials, count)`` block, so the doubles of a
        network-wide mask draw never exist whole (17 MB for 2,000 trials
        over a 200-switch Waxman network's ~1,080 edges).
        """
        kept = np.empty((trials, count), dtype=bool)
        fresh = trials // 2 if antithetic else trials
        for start in range(0, fresh, DRAW_BLOCK_ROWS):
            draws = self._rng.random(
                (min(DRAW_BLOCK_ROWS, fresh - start), count)
            )
            stop = start + len(draws)
            np.less(draws, p, out=kept[start:stop])
            if antithetic:
                np.less(1.0 - draws, p, out=kept[fresh + start:fresh + stop])
        return kept

    def _element_successes(
        self, trials: int, p: np.ndarray, antithetic: bool
    ) -> np.ndarray:
        """A ``(len(p), trials)`` Bernoulli matrix, element-major.

        Row ``i`` compares element ``i``'s trials, consecutive draws in
        the stream (mirrored like :meth:`_successes`), with ``p[i]``:
        the stream ``len(p)`` one-column :meth:`_successes` calls would
        consume.
        """
        if not antithetic:
            return self._rng.random((len(p), trials)) < p[:, None]
        draws = self._rng.random((len(p), trials // 2))
        return np.concatenate([draws, 1.0 - draws], axis=1) < p[:, None]

    def _survival_masks(
        self,
        trials: int,
        link_survival: float,
        switch_survival: float,
        antithetic: bool,
    ) -> "Tuple[Dict[Tuple[int, int], np.ndarray], Dict[int, np.ndarray]]":
        """Network-wide per-trial keep/lose masks.

        Drawn once per estimate in the network's canonical element order
        (sorted ``edge_keys()``, then ``switches()``), *before* any flow
        draws — a pure function of the estimation stream, shared across
        every flow of the plan.  Elements with survival ``1.0`` draw
        nothing.  Each mask is a column view of one keep/lose matrix.
        """
        edge_masks: Dict[Tuple[int, int], np.ndarray] = {}
        switch_masks: Dict[int, np.ndarray] = {}
        if link_survival != 1.0:
            edge_keys = self.network.edge_keys()
            kept = self._successes(
                trials, len(edge_keys), link_survival, antithetic
            )
            edge_masks = dict(zip(edge_keys, kept.T))
        if switch_survival != 1.0:
            switches = self.network.switches()
            kept = self._successes(
                trials, len(switches), switch_survival, antithetic
            )
            switch_masks = dict(zip(switches, kept.T))
        return edge_masks, switch_masks

    def simulate_flow(
        self,
        flow: FlowLikeGraph,
        trials: int,
        antithetic: bool = False,
        survival_masks: "Optional[Tuple[Dict, Dict]]" = None,
    ) -> np.ndarray:
        """Boolean establishment outcomes of shape ``(trials,)``."""
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if antithetic and trials % 2:
            raise ValueError(
                f"antithetic pairing needs an even trial count, got {trials}"
            )
        network = self.network
        edges = flow.edges()
        nodes = flow.nodes()
        node_index = {node: i for i, node in enumerate(nodes)}

        # Channel survival, one row per edge over the trials.  The draw
        # keeps its trials x edges stream layout; the transposed copy
        # makes each edge's row contiguous.
        channel_probs = np.array(
            [
                self.link_model.channel_probability(
                    network.edge_length(u, v), flow.edge_width(u, v)
                )
                for u, v in edges
            ]
        )
        usable = np.ascontiguousarray(
            self._successes(trials, len(edges), channel_probs, antithetic).T
        )

        # Fusion survival, one row per node (users always survive); each
        # switch's trials are consecutive draws, switches in node order.
        switches = [node for node in nodes if network.node(node).is_switch]
        fusion_probs = np.array(
            [
                self.swap_model.success_probability(flow.fusion_arity(node))
                for node in switches
            ]
        )
        alive = np.ones((len(nodes), trials), dtype=bool)
        alive[[node_index[node] for node in switches]] = (
            self._element_successes(trials, fusion_probs, antithetic)
        )

        # Infrastructure loss: a masked-out edge is a failed channel, a
        # masked-out switch a failed fusion, in exactly the trials the
        # network-wide draw lost them.
        if survival_masks is not None:
            edge_masks, switch_masks = survival_masks
            for row, key in zip(usable, edges):
                mask = edge_masks.get(key)
                if mask is not None:
                    row &= mask
            for row, node in zip(alive, nodes):
                mask = switch_masks.get(node)
                if mask is not None:
                    row &= mask

        # An edge is usable when its channel delivered and both endpoints
        # survived.
        usable &= alive[[node_index[u] for u, _ in edges]]
        usable &= alive[[node_index[v] for _, v in edges]]

        # Undirected source reachability per trial (the reference
        # engine's establishment): sweep the edges in topological order,
        # then in reverse, and so on, spreading reach across each usable
        # edge in both directions.  A sweep that adds no (node, trial)
        # pair tested every edge against the final state, so reach is
        # closed under every usable edge: the fixed point.
        reach = np.zeros((len(nodes), trials), dtype=bool)
        reach[node_index[flow.source]] = True
        rows = dict(zip(edges, usable))
        sweep = [
            (
                reach[node_index[parent]],
                reach[node_index[child]],
                rows[(parent, child) if parent < child else (child, parent)],
            )
            for parent, child in flow.directed_edges()
        ]
        spread = np.empty(trials, dtype=bool)
        reached = trials
        while True:
            for tail, head, ok in sweep:
                np.logical_or(tail, head, out=spread)
                spread &= ok
                tail |= spread
                head |= spread
            now = int(np.count_nonzero(reach))
            if now == reached:
                return reach[node_index[flow.destination]]
            reached = now
            sweep.reverse()

    def flow_rate(self, flow: FlowLikeGraph, trials: int) -> float:
        """Empirical establishment probability of one flow."""
        return float(self.simulate_flow(flow, trials).mean())

    def plan_estimate(
        self,
        plan: RoutingPlan,
        trials: int,
        antithetic: bool = False,
        link_survival: float = 1.0,
        switch_survival: float = 1.0,
    ) -> MonteCarloEstimate:
        """Monte Carlo estimate of a plan's network entanglement rate.

        With ``antithetic`` the trials run as negatively correlated
        mirror pairs; the mean is unchanged in expectation while the
        standard error — computed over the ``trials/2`` independent
        pair means, the valid estimator under pairing — shrinks at
        equal trial count.  ``link_survival``/``switch_survival`` below
        ``1.0`` additionally sample per-trial network-wide element loss
        (see the module docstring); the masks mirror under antithetic
        pairing like every other draw.
        """
        flows = plan.flows()
        if not flows:
            return MonteCarloEstimate(0.0, 0.0, trials)
        survival_masks = None
        if link_survival != 1.0 or switch_survival != 1.0:
            survival_masks = self._survival_masks(
                trials, link_survival, switch_survival, antithetic
            )
        totals = np.zeros(trials)
        for flow in flows:
            totals += self.simulate_flow(
                flow, trials, antithetic=antithetic,
                survival_masks=survival_masks,
            ).astype(float)
        if antithetic:
            half = trials // 2
            pair_means = (totals[:half] + totals[half:]) / 2.0
            paired = MonteCarloEstimate.from_outcomes(list(pair_means))
            return MonteCarloEstimate(paired.mean, paired.stderr, trials)
        return MonteCarloEstimate.from_outcomes(list(totals))
