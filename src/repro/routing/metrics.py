"""Routing metrics (paper Section III-C).

* **Channel rate** — a width-w channel on one edge delivers at least one
  Bell pair with probability ``1 - (1 - p)^w``.
* **Path rate** — a path succeeds iff every channel delivers and every
  intermediate switch's fusion succeeds:
  ``P_A = q^(#intermediate switches) * prod_e (1 - (1 - p_e)^w_e)``.
* **Flow-like graph rate** — Equation 1, implemented by
  :class:`~repro.routing.flow_graph.FlowLikeGraph`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.exceptions import RoutingError
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel, channel_success_probability
from repro.routing.compiled import active_routing_core, snapshot_for


def channel_rate(
    network: QuantumNetwork,
    link_model: LinkModel,
    u: int,
    v: int,
    width: int,
) -> float:
    """Entanglement rate of a width-*width* channel on edge (*u*, *v*)."""
    p = link_model.success_probability(network.edge_length(u, v))
    return channel_success_probability(p, width)


class ChannelRateCache:
    """The routing core of one call, plus the reference core's rate memo.

    The constructor reads ``REPRO_ROUTING_CORE`` once — the only place
    the switch is read — and fixes the core for every routing step that
    is handed this cache:

    * on the compiled core, :attr:`compiled_snapshot` is the network's
      persistent :class:`~repro.routing.compiled.CompiledNetwork`, whose
      per-width columns are the only channel-rate table Algorithms 1–2
      and Equation 1 read;
    * on the reference core it is ``None``, and :meth:`rate` memoises
      each edge's ``exp(-alpha * L)`` link probability and each
      ``1 - (1 - p)^w`` channel rate, since Yen's deviation loop
      re-relaxes the same edges across many Algorithm 1 invocations.

    Routers create one cache per ``route()`` call (the serving loop one
    per session) and thread it through every search and evaluation.  A
    cache is bound to its ``(network, link_model)`` pair: the routing
    entry points reject it for any other pair (see
    :func:`rate_cache_for`).
    """

    __slots__ = (
        "network", "link_model", "_probabilities", "_rates",
        "compiled_snapshot",
    )

    def __init__(self, network: QuantumNetwork, link_model: LinkModel):
        self.network = network
        self.link_model = link_model
        self._probabilities: Dict[Tuple[int, int], float] = {}
        self._rates: Dict[Tuple[int, int, int], float] = {}
        self.compiled_snapshot = (
            snapshot_for(network, link_model)
            if active_routing_core() == "compiled"
            else None
        )

    def edge_probability(self, u: int, v: int) -> float:
        """Single-link success probability of edge (*u*, *v*), memoised."""
        key = _ekey(u, v)
        p = self._probabilities.get(key)
        if p is None:
            p = self.link_model.success_probability(
                self.network.edge_length(u, v)
            )
            self._probabilities[key] = p
        return p

    def rate(self, u: int, v: int, width: int) -> float:
        """Width-*width* channel rate of edge (*u*, *v*), memoised."""
        a, b = _ekey(u, v)
        key = (a, b, width)
        rate = self._rates.get(key)
        if rate is None:
            rate = channel_success_probability(
                self.edge_probability(a, b), width
            )
            self._rates[key] = rate
        return rate


def rate_cache_for(
    network: QuantumNetwork,
    link_model: LinkModel,
    rate_cache: Optional[ChannelRateCache],
) -> ChannelRateCache:
    """*rate_cache*, or a new cache for the pair when it is ``None``.

    Raises :class:`RoutingError` when *rate_cache* was built for another
    network, or for a link model that is neither *link_model* nor equal
    to it: its rates (and its snapshot) would describe the wrong
    channels.
    """
    if rate_cache is None:
        return ChannelRateCache(network, link_model)
    if rate_cache.network is not network or (
        rate_cache.link_model is not link_model
        and rate_cache.link_model != link_model
    ):
        raise RoutingError(
            "rate_cache was built for another network or link model"
        )
    return rate_cache


def _swap_factor(network: QuantumNetwork, swap_model: SwapModel, node: int, arity: int) -> float:
    """Fusion success factor contributed by *node* relaying *arity* links.

    Users terminate states rather than relay, so they contribute no swap
    factor; switches contribute the swap model's success probability.
    """
    if network.node(node).is_user:
        return 1.0
    return swap_model.success_probability(arity)


def path_entanglement_rate(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    nodes: Sequence[int],
    width: int,
    rate_cache: Optional[ChannelRateCache] = None,
) -> float:
    """Entanglement rate of a uniform-width path.

    ``nodes`` runs source to destination inclusive; every edge carries
    *width* parallel links and every intermediate switch performs one
    fusion with the swap model's success probability.
    """
    widths = {_ekey(a, b): width for a, b in zip(nodes, nodes[1:])}
    return path_entanglement_rate_nonuniform(
        network, link_model, swap_model, nodes, widths, rate_cache
    )


def path_entanglement_rate_nonuniform(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    nodes: Sequence[int],
    edge_widths: Dict[Tuple[int, int], int],
    rate_cache: Optional[ChannelRateCache] = None,
) -> float:
    """Entanglement rate of a path whose channels have per-edge widths."""
    nodes = list(nodes)
    if len(nodes) < 2:
        raise RoutingError(f"a path needs >= 2 nodes, got {nodes}")
    rate = 1.0
    for a, b in zip(nodes, nodes[1:]):
        key = _ekey(a, b)
        if key not in edge_widths:
            raise RoutingError(f"no width recorded for path edge {key}")
        if rate_cache is not None:
            rate *= rate_cache.rate(a, b, edge_widths[key])
        else:
            rate *= channel_rate(network, link_model, a, b, edge_widths[key])
    for node in nodes[1:-1]:
        # Each intermediate node fuses its two incident channels (2-fusion
        # on a simple path; higher arity arises only in flow-like graphs).
        rate *= _swap_factor(network, swap_model, node, 2)
    return rate


def _ekey(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)
