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

from typing import Collection, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import RoutingError
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel, channel_success_probability

#: Pair count from which :meth:`ChannelRateCache.rates_bulk` gathers
#: from the compiled snapshot's width-indexed columns; smaller batches
#: walk the scalar memo instead (below ~32 items the fixed dispatch cost
#: of the array takes exceeds the whole loop).
_BULK_VECTOR_MIN = 32


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
    """Memoised per-edge channel rates for one (network, link_model) pair.

    The ``exp(-alpha * L)`` link probability and the ``1 - (1 - p)^w``
    channel rate of an edge never change within one routing call, yet
    Yen's deviation loop in Algorithm 2 re-relaxes the same edges across
    many Algorithm 1 invocations.  Routers create one cache per
    ``route()`` call and thread it through the search so each edge's
    probability is computed once and each (edge, width) rate once.
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
        #: The CSR snapshot of the same (network, link_model) pair,
        #: compiled lazily by repro.routing.compiled.snapshot_for so a
        #: router's whole route() call shares one snapshot through the
        #: rate cache it already threads everywhere.
        self.compiled_snapshot = None

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

    def rates_bulk(
        self,
        keys: Collection[Tuple[int, int]],
        widths: Collection[int],
    ) -> List[float]:
        """:meth:`rate` for many aligned (canonical edge key, width) pairs.

        The sanctioned bulk accessor for the Equation-1 evaluators
        (scalar and vectorized): one call gathers every edge rate of a
        flow evaluation instead of a per-child lookup chain.  ``keys``
        must be canonical ``(min, max)`` pairs; the returned list is
        aligned with the inputs and every value is bit-identical to
        ``rate(u, v, width)``.  When the compiled snapshot is attached
        and the batch reaches ``_BULK_VECTOR_MIN`` pairs, the rates
        gather from its width-indexed columns — filled by the same
        scalar :func:`channel_success_probability` chain, so the bits
        match the memo's — grouped per distinct width so a large
        evaluation is a few vectorised takes; smaller batches (and
        caches without a snapshot) go through the per-(edge, width)
        memo exactly like :meth:`rate`.
        """
        snapshot = self.compiled_snapshot
        if snapshot is not None and len(keys) >= _BULK_VECTOR_MIN:
            edge_index = snapshot.edge_index
            try:
                eids = [edge_index[key] for key in keys]
            except KeyError:
                # An edge the snapshot predates: fall back to the memo.
                eids = None
            if eids is not None:
                by_width: Dict[int, List[int]] = {}
                for i, width in enumerate(widths):
                    by_width.setdefault(width, []).append(i)
                out: List[float] = [0.0] * len(eids)
                for width in sorted(by_width):
                    positions = by_width[width]
                    column = snapshot.width_rates(width)
                    values = column.take(
                        [eids[i] for i in positions]
                    ).tolist()
                    for i, value in zip(positions, values):
                        out[i] = value
                return out
        rate = self.rate
        memo = self._rates
        out = []
        append = out.append
        for key, width in zip(keys, widths):
            value = memo.get(key + (width,))
            if value is None:
                value = rate(key[0], key[1], width)
            append(value)
        return out


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
