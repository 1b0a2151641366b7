"""Flow-like graphs (paper Definition 1) and their entanglement rate.

A flow-like graph is the union of several source->destination paths serving
the *same* demanded state; nodes shared by more than one of those paths are
*branch nodes* that fuse all their incident links for the state in a single
GHZ measurement.  The entanglement rate follows the paper's Equation 1:

    P(a, D) = 1 - prod_{c in children(a)} (1 - P_channel(a, c) * q_c * P(c, D))

evaluated recursively from the source, where ``q_c`` is the fusion success
probability of child ``c`` (1 for the destination user) and ``P_channel``
the width-dependent channel rate.  The recursion assumes branch subtrees
succeed independently — the same approximation the paper makes; the Monte
Carlo engine in :mod:`repro.simulation` quantifies the error.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import RoutingError
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.compiled import active_routing_core
from repro.routing.metrics import ChannelRateCache, channel_rate

EdgeKey = Tuple[int, int]


def _ekey(a: int, b: int) -> EdgeKey:
    return (a, b) if a < b else (b, a)


#: Spacing between consecutive topological positions.  Midpoint
#: insertion halves a gap per new node squeezed between the same two
#: anchors; 2^20 allows ~20 such squeezes before the (cheap, lazy)
#: renumber — far beyond what a flow's handful of paths can trigger.
_ORDER_GAP = 1 << 20

#: Edge count from which an evaluation goes to the vectorized
#: Equation-1 evaluator.  Below it the scalar walk wins outright: the
#: fixed cost of the numpy gathers and the evaluation-program build
#: exceeds a small flow's whole per-child loop.
_VECTOR_EVAL_MIN = 64


class _Eq1Program:
    """Flattened Equation-1 evaluation schedule for one flow structure.

    A pure function of the child map and the destination: the flow's
    nodes grouped by *dependency level* (a node's level is one above
    its deepest child; the destination is level 0), each node with its
    slice of *terms* — one per (node, child) edge, carrying the
    canonical edge key, the child's memo slot and the child id when
    the child might fuse (``None`` for the destination, whose factor
    is an exact 1.0).  All nodes of one level depend only on lower
    levels, so a whole level evaluates as three array operations:
    an elementwise ``1 - coef * memo[child]`` over the level's term
    slice, one ``np.multiply.reduceat`` for the per-node failure
    products (sequential left-to-right within each slice — the exact
    floats of the scalar loop), and one scatter of ``1 - failure``
    into the memo vector.  Widths, rates, swap factors and
    ``extra_widths`` stay out of the program — they are gathered per
    evaluation — so the program survives
    :meth:`FlowLikeGraph.widen_edge` and is invalidated only by
    structural mutations, exactly like the topological-order memo.
    """

    __slots__ = (
        "term_keys",
        "term_fusing_child",
        "levels",
        "num_slots",
        "source_slot",
    )

    def __init__(
        self,
        term_keys: List[EdgeKey],
        term_fusing_child: List[Optional[int]],
        levels: List[Tuple[int, int, "np.ndarray", "np.ndarray", "np.ndarray"]],
        num_slots: int,
        source_slot: int,
    ):
        self.term_keys = term_keys
        self.term_fusing_child = term_fusing_child
        #: Per level: (term start, term end, child memo slots of the
        #: level's terms, reduceat offsets relative to the start, memo
        #: slots the level's nodes write).
        self.levels = levels
        self.num_slots = num_slots
        self.source_slot = source_slot


class FlowLikeGraph:
    """The route of one demanded state: one or more merged paths.

    The graph stores the set of constituent paths, the directed child map
    induced by traversing each path from source to destination, and the
    channel width of every edge.  Paths whose direction would conflict with
    the existing orientation (creating a directed cycle) are rejected at
    :meth:`add_path` time, keeping Equation 1 well defined.

    Admission loops probe many trial merges per accepted one (Algorithm 3
    copies the flow, adds a candidate, evaluates the rate), so the
    structural state behind those probes is maintained incrementally
    rather than recomputed per trial: a topological *position map* over
    the whole child map certifies acyclicity in O(path length) for the
    common case (an exact no-copy DFS handles the rest), the
    fusion-arity map absorbs per-edge width deltas in place, and
    :meth:`copy` clones all memos instead of dropping them.  Every memo
    is invalidated the same way: any mutation it cannot absorb exactly
    resets it to ``None`` for a lazy rebuild.
    """

    def __init__(self, demand_id: int, source: int, destination: int):
        if source == destination:
            raise RoutingError("source and destination must differ")
        self.demand_id = demand_id
        self.source = source
        self.destination = destination
        self._paths: List[Tuple[int, ...]] = []
        # Per-path widths in merge order: the record remove_path needs
        # to recompute shared-edge widths after a departure.
        self._path_widths: List[int] = []
        self._children: Dict[int, Set[int]] = {}
        self._edge_widths: Dict[EdgeKey, int] = {}
        # Derived-state memos: the node->fusion-arity map (else every
        # rate call rescans all edges per node), the topological order
        # the iterative Equation-1 evaluator walks, and the node->int
        # position map witnessing that order (every edge goes from a
        # lower to a higher position).  The position map is add_path's
        # incremental cycle check: a candidate whose existing nodes
        # appear in increasing position order provably cannot close a
        # cycle, and its new nodes slot into the integer gaps.  All
        # three are maintained in place where a mutation's effect is
        # exact and reset to ``None`` (lazy rebuild) where it is not.
        self._arity_cache: Optional[Dict[int, int]] = None
        self._topo_cache: Optional[List[int]] = None
        self._order_pos: Optional[Dict[int, int]] = {}
        # The vectorized Equation-1 evaluator's flattened schedule,
        # invalidated by structural mutations (widths are gathered live
        # per evaluation, so pure width changes keep it).
        self._eq1_cache: Optional[_Eq1Program] = None

    # ------------------------------------------------------------------
    # Construction

    def add_path(self, nodes: Sequence[int], width: int) -> None:
        """Merge a source->destination path of channel *width* into the graph.

        Edges already present are *shared* with the earlier paths (the
        paper's merge rule) and keep the larger of the two widths; new
        edges get *width*.  Callers charging qubits must charge the width
        delta on shared edges (see Algorithm 3's admission).  Raises
        :class:`RoutingError` if the path endpoints do not match the
        demand or if merging would create a directed cycle.
        """
        nodes = tuple(nodes)
        if len(nodes) < 2:
            raise RoutingError(f"path needs >= 2 nodes, got {nodes}")
        if nodes[0] != self.source or nodes[-1] != self.destination:
            raise RoutingError(
                f"path {nodes} does not connect demand endpoints "
                f"({self.source}, {self.destination})"
            )
        if len(set(nodes)) != len(nodes):
            raise RoutingError(f"path must be loopless, got {nodes}")
        if width < 1:
            raise RoutingError(f"width must be >= 1, got {width}")
        arities = self._arity_cache
        edge_widths = self._edge_widths
        if nodes in self._paths:
            # Re-adding an existing path is a pure width upgrade.
            index = self._paths.index(nodes)
            self._path_widths[index] = max(self._path_widths[index], width)
            for a, b in zip(nodes, nodes[1:]):
                key = _ekey(a, b)
                old = edge_widths[key]
                if width > old:
                    edge_widths[key] = width
                    if arities is not None:
                        delta = width - old
                        arities[a] = arities.get(a, 0) + delta
                        arities[b] = arities.get(b, 0) + delta
            return
        # Incremental cycle check: if the path's already-known nodes
        # appear in strictly increasing topological position, no edge of
        # the candidate can point "backwards", so the merged graph has a
        # valid order (slot the new nodes into the gaps) and is acyclic.
        # Otherwise fall back to an exact DFS over the virtual union —
        # no trial copy of the child map either way, and a rejected
        # merge leaves the graph untouched because nothing has mutated
        # yet.
        pos = self._order_pos
        if pos is None:
            pos = self._rebuild_order()
        anchors: List[Tuple[int, int]] = []
        ordered = True
        previous = None
        for i, node in enumerate(nodes):
            p = pos.get(node)
            if p is None:
                continue
            if previous is not None and p <= previous:
                ordered = False
                break
            previous = p
            anchors.append((i, p))
        if ordered:
            if not _place_between_anchors(nodes, anchors, pos):
                self._order_pos = None  # gap exhausted; renumber lazily
        else:
            if _union_has_cycle(self._children, list(zip(nodes, nodes[1:]))):
                raise RoutingError(
                    f"merging path {nodes} would create a directed cycle "
                    "in the flow-like graph"
                )
            self._order_pos = None
        children = self._children
        for a, b in zip(nodes, nodes[1:]):
            children.setdefault(a, set()).add(b)
        self._paths.append(nodes)
        self._path_widths.append(width)
        for a, b in zip(nodes, nodes[1:]):
            key = _ekey(a, b)
            old = edge_widths.get(key, 0)
            if width > old:
                edge_widths[key] = width
                if arities is not None:
                    delta = width - old
                    arities[a] = arities.get(a, 0) + delta
                    arities[b] = arities.get(b, 0) + delta
        self._topo_cache = None
        self._eq1_cache = None

    def remove_path(self, nodes: Sequence[int]) -> Dict[EdgeKey, int]:
        """Remove one constituent path; returns the per-edge freed widths.

        The inverse of :meth:`add_path`, for online departures.  Edges no
        remaining constituent path covers are dropped entirely — taking
        any :meth:`widen_edge` extras piled onto them with them — while
        shared edges shrink to the largest remaining constituent width
        plus their surviving extras.  The returned ``{edge: width}`` map
        is exactly the capacity a qubit ledger should release at each
        endpoint; an empty graph (last path removed) evaluates to rate 0.
        Raises :class:`RoutingError` when *nodes* is not a constituent.
        """
        nodes = tuple(nodes)
        try:
            index = self._paths.index(nodes)
        except ValueError:
            raise RoutingError(
                f"path {nodes} is not a constituent of this flow-like graph"
            ) from None
        # Width cover by constituent paths before/after the removal; the
        # difference between the live edge width and the full cover is
        # the widen_edge extras, which survive on edges that stay.
        full_cover: Dict[EdgeKey, int] = {}
        for path, width in zip(self._paths, self._path_widths):
            for a, b in zip(path, path[1:]):
                key = _ekey(a, b)
                full_cover[key] = max(full_cover.get(key, 0), width)
        del self._paths[index]
        del self._path_widths[index]
        remaining_cover: Dict[EdgeKey, int] = {}
        children: Dict[int, Set[int]] = {}
        for path, width in zip(self._paths, self._path_widths):
            for a, b in zip(path, path[1:]):
                children.setdefault(a, set()).add(b)
                key = _ekey(a, b)
                remaining_cover[key] = max(remaining_cover.get(key, 0), width)
        self._children = children
        released: Dict[EdgeKey, int] = {}
        for a, b in zip(nodes, nodes[1:]):
            key = _ekey(a, b)
            current = self._edge_widths[key]
            kept = remaining_cover.get(key, 0)
            if kept == 0:
                released[key] = current
                del self._edge_widths[key]
                continue
            new_width = kept + (current - full_cover[key])
            if new_width < current:
                released[key] = current - new_width
                self._edge_widths[key] = new_width
        self._arity_cache = None
        self._topo_cache = None
        self._order_pos = None
        self._eq1_cache = None
        return released

    def copy(self) -> "FlowLikeGraph":
        """Independent deep copy (used for trial merges).

        Clones the derived-state memos too: a trial merge mutates the
        copy once and evaluates its rate once, so arriving with warm
        arity/order state is exactly the admission loop's hot pattern.
        """
        clone = FlowLikeGraph(self.demand_id, self.source, self.destination)
        clone._paths = list(self._paths)
        clone._path_widths = list(self._path_widths)
        clone._children = {k: set(v) for k, v in self._children.items()}
        clone._edge_widths = dict(self._edge_widths)
        arities = self._arity_cache
        clone._arity_cache = dict(arities) if arities is not None else None
        # The topo list is rebuilt whole, never edited, so sharing is safe.
        clone._topo_cache = self._topo_cache
        pos = self._order_pos
        clone._order_pos = dict(pos) if pos is not None else None
        # The Equation-1 program is immutable and structure-pure, so the
        # clone shares it (and the heat that built it) until either side
        # mutates — each then drops only its own reference.
        clone._eq1_cache = self._eq1_cache
        return clone

    def widen_edge(self, u: int, v: int, extra: int = 1) -> None:
        """Increase the width of an existing edge (Algorithm 4's action)."""
        key = _ekey(u, v)
        if key not in self._edge_widths:
            raise RoutingError(f"edge {key} is not part of this flow-like graph")
        if extra < 1:
            raise RoutingError(f"extra width must be >= 1, got {extra}")
        self._edge_widths[key] += extra
        arities = self._arity_cache
        if arities is not None:
            arities[u] = arities.get(u, 0) + extra
            arities[v] = arities.get(v, 0) + extra

    # ------------------------------------------------------------------
    # Queries

    @property
    def paths(self) -> List[Tuple[int, ...]]:
        """The constituent paths, in merge order."""
        return list(self._paths)

    @property
    def num_paths(self) -> int:
        """Number of merged paths."""
        return len(self._paths)

    def edges(self) -> List[EdgeKey]:
        """Canonical keys of all edges, sorted."""
        return sorted(self._edge_widths)

    def edge_width(self, u: int, v: int) -> int:
        """Channel width of edge (*u*, *v*)."""
        key = _ekey(u, v)
        try:
            return self._edge_widths[key]
        except KeyError:
            raise RoutingError(
                f"edge {key} is not part of this flow-like graph"
            ) from None

    def edge_widths(self) -> Dict[EdgeKey, int]:
        """Copy of the edge->width map."""
        return dict(self._edge_widths)

    def contains_edge(self, u: int, v: int) -> bool:
        """True iff the graph uses edge (*u*, *v*)."""
        return _ekey(u, v) in self._edge_widths

    def nodes(self) -> List[int]:
        """All nodes appearing in any merged path, sorted."""
        seen: Set[int] = set()
        for path in self._paths:
            seen.update(path)
        return sorted(seen)

    def branch_nodes(self) -> List[int]:
        """Nodes with more than one child (paper's branch nodes)."""
        return sorted(
            node for node, children in self._children.items() if len(children) > 1
        )

    def children_of(self, node: int) -> List[int]:
        """Directed children of *node* (towards the destination)."""
        return sorted(self._children.get(node, ()))

    def fusion_arity(self, node: int) -> int:
        """Number of quantum links *node* fuses for this state.

        Counts one link per unit of width on every incident edge; the
        destination/source users terminate rather than fuse.
        """
        return self._fusion_arities().get(node, 0)

    def _fusion_arities(self) -> Dict[int, int]:
        """The node->fusion-arity map, memoised until the next mutation.

        Equation 1 queries the arity of every child per evaluation and
        Algorithm 4 evaluates per (edge, flow, probe); without the memo
        each query rescans every edge of the graph.
        """
        cache = self._arity_cache
        if cache is None:
            cache = {}
            for (a, b), width in self._edge_widths.items():
                cache[a] = cache.get(a, 0) + width
                cache[b] = cache.get(b, 0) + width
            self._arity_cache = cache
        return cache

    def _topological_order(self) -> List[int]:
        """All nodes of the graph, parents before children.

        Every node lies on some source->destination constituent path, so
        this covers exactly the source-reachable set.  Derived from the
        maintained position map (sorting by position is a valid
        topological order by the map's invariant) and memoised until the
        next structural mutation; well defined because merges that would
        create a directed cycle are rejected.  Equation 1's result does
        not depend on *which* valid order is walked — each node's value
        is a function of its children's memoised values only.
        """
        order = self._topo_cache
        if order is None:
            pos = self._order_pos
            if pos is None:
                pos = self._rebuild_order()
            order = sorted(pos, key=pos.__getitem__)
            self._topo_cache = order
        return order

    def _rebuild_order(self) -> Dict[int, int]:
        """Recompute the topological position map from the child map.

        The fallback for mutations the incremental placement cannot
        absorb exactly (an exact-DFS admission, a removal, a gap
        collision).  DFS reverse-post-order over the (acyclic by
        invariant) child map, positions spaced ``_ORDER_GAP`` apart.
        """
        children = self._children
        order: List[int] = []
        visited: Set[int] = set()
        roots = set(children)
        for kids in children.values():
            roots.update(kids)
        for root in sorted(roots):
            if root in visited:
                continue
            visited.add(root)
            stack: List[Tuple[int, object]] = [
                (root, iter(sorted(children.get(root, ()))))
            ]
            while stack:
                node, iterator = stack[-1]
                advanced = False
                for child in iterator:
                    if child not in visited:
                        visited.add(child)
                        stack.append(
                            (child, iter(sorted(children.get(child, ()))))
                        )
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()
        order.reverse()
        pos = {node: i * _ORDER_GAP for i, node in enumerate(order)}
        self._order_pos = pos
        return pos

    def qubits_used_at(self, node: int) -> int:
        """Communication qubits this state consumes at *node*."""
        return self.fusion_arity(node)

    # ------------------------------------------------------------------
    # Rate (paper Equation 1)

    def entanglement_rate(
        self,
        network: QuantumNetwork,
        link_model: LinkModel,
        swap_model: SwapModel,
        extra_widths: Optional[Dict[EdgeKey, int]] = None,
        rate_cache: Optional[ChannelRateCache] = None,
    ) -> float:
        """Analytic entanglement rate of this flow-like graph.

        ``extra_widths`` adds hypothetical width to edges without mutating
        the graph — Algorithm 4 uses this to evaluate marginal gains.
        ``rate_cache`` memoises per-(edge, width) channel rates across
        calls sharing one (network, link_model) pair; passing it changes
        nothing but the amount of recomputation.

        Under the compiled core three bit-identical evaluators share the
        work: the vectorized one (numpy gathers over the compiled
        snapshot's rate columns through a cached evaluation program)
        handles flows at least ``_VECTOR_EVAL_MIN`` edges wide — where
        the array multiply outruns the per-child loop — the iterative
        scalar loop handles smaller flows and every graph without a
        compiled snapshot, and the recursive reference remains the
        oracle.
        """
        if not self._paths:
            return 0.0
        if active_routing_core() == "compiled":
            snapshot = (
                rate_cache.compiled_snapshot
                if rate_cache is not None
                else None
            )
            if (
                snapshot is not None
                and len(self._edge_widths) >= _VECTOR_EVAL_MIN
            ):
                return self._rate_vectorized(
                    swap_model, extra_widths or {}, rate_cache,
                    snapshot,
                )
            return self._rate_iterative(
                network, link_model, swap_model, extra_widths or {},
                rate_cache,
            )
        memo: Dict[int, float] = {}
        return self._rate_from(
            self.source, network, link_model, swap_model, memo,
            extra_widths or {}, rate_cache,
        )

    def _rate_iterative(
        self,
        network: QuantumNetwork,
        link_model: LinkModel,
        swap_model: SwapModel,
        extra_widths: Dict[EdgeKey, int],
        rate_cache: Optional[ChannelRateCache],
    ) -> float:
        """Equation 1 evaluated bottom-up in reverse topological order.

        Per-node the failure product iterates the same child set in the
        same order as the recursive reference, so the result is
        bit-identical; the win is the memoised arity map, one bulk
        channel-rate gather up front
        (:meth:`~repro.routing.metrics.ChannelRateCache.rates_bulk`)
        and the absence of Python call frames per node.
        """
        arities = self._fusion_arities()
        destination = self.destination
        memo: Dict[int, float] = {destination: 1.0}
        children_of = self._children
        edge_widths = self._edge_widths
        has_extra = bool(extra_widths)
        if rate_cache is not None:
            # Every flow edge is exactly one (node, child) term, so one
            # bulk lookup over the effective widths prefetches every
            # edge rate of the walk below.
            if has_extra:
                effective = {
                    key: width + extra_widths.get(key, 0)
                    for key, width in edge_widths.items()
                }
            else:
                effective = edge_widths
            edge_rates: Optional[Dict[EdgeKey, float]] = dict(
                zip(
                    effective,
                    rate_cache.rates_bulk(
                        effective.keys(), effective.values()
                    ),
                )
            )
        else:
            edge_rates = None
        # The snapshot the routing call already compiled (if any) turns
        # the per-child user test into an array read; the flags were
        # copied from the same node records, so the outcome is equal.
        snapshot = (
            rate_cache.compiled_snapshot if rate_cache is not None else None
        )
        if snapshot is not None:
            snapshot_is_user = snapshot.is_user
            snapshot_index_of = snapshot.index_of
        swap_fn = swap_model.success_probability
        # success_probability is a pure function of the arity; one memo
        # per evaluation skips its re-validation for repeated arities.
        swap_memo: Dict[int, float] = {}
        for node in reversed(self._topological_order()):
            if node == destination:
                continue
            failure = 1.0
            for child in children_of.get(node, ()):
                key = (node, child) if node < child else (child, node)
                if edge_rates is not None:
                    edge_rate = edge_rates[key]
                else:
                    width = edge_widths[key]
                    if has_extra:
                        width += extra_widths.get(key, 0)
                    edge_rate = channel_rate(
                        network, link_model, node, child, width
                    )
                if child == destination:
                    swap = 1.0
                elif (
                    snapshot_is_user[snapshot_index_of[child]]
                    if snapshot is not None
                    else network.node(child).is_user
                ):
                    swap = 1.0
                else:
                    arity = arities[child]
                    if has_extra:
                        arity += extra_widths_total(extra_widths, child)
                    swap = swap_memo.get(arity)
                    if swap is None:
                        swap = swap_fn(arity)
                        swap_memo[arity] = swap
                failure *= 1.0 - edge_rate * swap * memo[child]
            memo[node] = 1.0 - failure
        return memo[self.source]

    def _eq1_program(self) -> _Eq1Program:
        """The flow's Equation-1 evaluation program, built lazily.

        Nodes are emitted level by level (a node's level is one above
        its deepest child), preserving the reverse topological order
        within each level; per node the builder iterates its child set
        exactly once in the same set order the scalar walk uses, so
        the per-node product order (and with it every float) is
        pinned.  Every child sits at a strictly lower level than its
        parents, so a level's terms only read memo slots written by
        earlier levels.  The node order differs from the scalar
        walk's, which cannot change any float: each node's value is a
        pure function of its own terms.
        """
        program = self._eq1_cache
        if program is None:
            destination = self.destination
            children_of = self._children
            order = [
                node
                for node in reversed(self._topological_order())
                if node != destination
            ]
            level: Dict[int, int] = {destination: 0}
            by_level: Dict[int, List[int]] = {}
            for node in order:
                depth = 1 + max(
                    level[child] for child in children_of[node]
                )
                level[node] = depth
                by_level.setdefault(depth, []).append(node)
            term_keys: List[EdgeKey] = []
            term_fusing_child: List[Optional[int]] = []
            levels = []
            slot_of: Dict[int, int] = {destination: 0}
            for depth in sorted(by_level):
                start = len(term_keys)
                offsets: List[int] = []
                child_slots: List[int] = []
                slots: List[int] = []
                for node in by_level[depth]:
                    offsets.append(len(term_keys) - start)
                    for child in children_of[node]:
                        term_keys.append(
                            (node, child) if node < child else (child, node)
                        )
                        child_slots.append(slot_of[child])
                        term_fusing_child.append(
                            None if child == destination else child
                        )
                    slot = len(slot_of)
                    slot_of[node] = slot
                    slots.append(slot)
                levels.append((
                    start,
                    len(term_keys),
                    np.asarray(child_slots, dtype=np.intp),
                    np.asarray(offsets, dtype=np.intp),
                    np.asarray(slots, dtype=np.intp),
                ))
            program = _Eq1Program(
                term_keys,
                term_fusing_child,
                levels,
                len(slot_of),
                slot_of[self.source],
            )
            self._eq1_cache = program
        return program

    def _rate_vectorized(
        self,
        swap_model: SwapModel,
        extra_widths: Dict[EdgeKey, int],
        rate_cache: ChannelRateCache,
        snapshot,
    ) -> float:
        """Equation 1 over the compiled snapshot's arrays, bit-exact.

        The cached program (:meth:`_eq1_program`) fixes the term
        layout; per call the effective widths are gathered from the
        live edge-width map, every term's channel rate comes from one
        :meth:`~repro.routing.metrics.ChannelRateCache.rates_bulk`
        gather over the snapshot's width-indexed columns, the swap
        factors from the snapshot's user flags and the memoised arity
        map, and the per-term coefficient ``rate * swap`` from one
        numpy elementwise multiply.  The failure products then run
        level by level: one elementwise ``1 - coef * memo[child]``
        over each level's term slice and one
        ``np.multiply.reduceat`` per level for the per-node products.
        Identical floats to the scalar walk: float64 elementwise
        products equal the scalar products bit for bit
        (``(rate * swap) * memo`` is exactly how the scalar walk
        associates), and ``reduceat`` multiplies each node's slice
        sequentially left to right — the scalar loop's order.
        """
        program = self._eq1_program()
        term_keys = program.term_keys
        edge_widths = self._edge_widths
        has_extra = bool(extra_widths)
        if has_extra:
            widths = [
                edge_widths[key] + extra_widths.get(key, 0)
                for key in term_keys
            ]
        else:
            widths = [edge_widths[key] for key in term_keys]
        rates = rate_cache.rates_bulk(term_keys, widths)
        arities = self._fusion_arities()
        is_user = snapshot.is_user
        index_of = snapshot.index_of
        swap_fn = swap_model.success_probability
        swap_memo: Dict[int, float] = {}
        swaps = np.ones(len(term_keys))
        for i, child in enumerate(program.term_fusing_child):
            if child is None or is_user[index_of[child]]:
                continue
            arity = arities[child]
            if has_extra:
                arity += extra_widths_total(extra_widths, child)
            swap = swap_memo.get(arity)
            if swap is None:
                swap = swap_fn(arity)
                swap_memo[arity] = swap
            swaps[i] = swap
        coef = np.asarray(rates) * swaps
        memo_vec = np.zeros(program.num_slots)
        memo_vec[0] = 1.0  # the destination's slot
        for start, end, child_slots, offsets, slots in program.levels:
            terms = 1.0 - coef[start:end] * memo_vec.take(child_slots)
            memo_vec[slots] = 1.0 - np.multiply.reduceat(terms, offsets)
        return float(memo_vec[program.source_slot])

    def _rate_from(
        self,
        node: int,
        network: QuantumNetwork,
        link_model: LinkModel,
        swap_model: SwapModel,
        memo: Dict[int, float],
        extra_widths: Dict[EdgeKey, int],
        rate_cache: Optional[ChannelRateCache],
    ) -> float:
        if node == self.destination:
            return 1.0
        if node in memo:
            return memo[node]
        failure = 1.0
        for child in self._children.get(node, ()):
            key = _ekey(node, child)
            width = self._edge_widths[key] + extra_widths.get(key, 0)
            if rate_cache is not None:
                edge_rate = rate_cache.rate(node, child, width)
            else:
                edge_rate = channel_rate(network, link_model, node, child, width)
            if child == self.destination or network.node(child).is_user:
                swap = 1.0
            else:
                # The child fuses every link it holds for this state: one
                # per unit of width on each incident edge (matters only
                # for arity-dependent swap models; the paper's constant-q
                # model ignores the arity).
                swap = swap_model.success_probability(
                    self.fusion_arity(child) + extra_widths_total(
                        extra_widths, child
                    )
                )
            downstream = self._rate_from(
                child, network, link_model, swap_model, memo, extra_widths,
                rate_cache,
            )
            failure *= 1.0 - edge_rate * swap * downstream
        rate = 1.0 - failure
        memo[node] = rate
        return rate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlowLikeGraph(demand={self.demand_id}, "
            f"{self.source}->{self.destination}, paths={self.num_paths}, "
            f"edges={len(self._edge_widths)})"
        )


def extra_widths_total(extra_widths: Dict[EdgeKey, int], node: int) -> int:
    """Extra fusion arity *node* gains from hypothetical widths."""
    return sum(
        extra for (u, v), extra in extra_widths.items() if node in (u, v)
    )


def _place_between_anchors(
    nodes: Sequence[int],
    anchors: List[Tuple[int, int]],
    pos: Dict[int, int],
) -> bool:
    """Slot a path's new nodes into the position-map gaps, in place.

    ``anchors`` are the ``(path index, position)`` pairs of the path's
    already-known nodes, strictly increasing in position (the caller's
    fast-path certificate).  Every stretch of new nodes lies between
    two anchors — constituent paths start and end at the demand
    endpoints, which are known the moment the graph is non-empty — and
    gets evenly spaced positions inside the anchor gap.  The one
    exception is the very first path of an empty graph (no anchors):
    its nodes seed the map at ``_ORDER_GAP`` spacing.  Returns False
    without mutating anything if some gap is too tight to hold its new
    nodes distinctly, in which case the caller renumbers.
    """
    if not anchors:
        for i, node in enumerate(nodes):
            pos[node] = i * _ORDER_GAP
        return True
    for (i0, p0), (i1, p1) in zip(anchors, anchors[1:]):
        if i1 - i0 > 1 and p1 - p0 <= i1 - i0 - 1:
            return False
    for (i0, p0), (i1, p1) in zip(anchors, anchors[1:]):
        squeezed = i1 - i0 - 1
        if squeezed:
            step = (p1 - p0) // (squeezed + 1)
            for j in range(1, squeezed + 1):
                pos[nodes[i0 + j]] = p0 + j * step
    return True


def _union_has_cycle(
    children: Dict[int, Set[int]], new_edges: List[Tuple[int, int]]
) -> bool:
    """Directed-cycle test over ``children`` plus a candidate path's edges.

    The exact fallback for merges the incremental position check cannot
    certify: iterative DFS colouring over the *virtual* union — the
    child map is read, never copied, and each path node contributes at
    most one extra successor.
    """
    extra = {a: b for a, b in new_edges}
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    roots = list(children)
    roots.extend(extra)
    for root in roots:
        if color.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[int, Optional[object]]] = [(root, None)]
        while stack:
            node, iterator = stack.pop()
            if iterator is None:
                if color.get(node, WHITE) != WHITE:
                    continue
                color[node] = GRAY
                successors = sorted(children.get(node, ()))
                bonus = extra.get(node)
                if bonus is not None and bonus not in children.get(node, ()):
                    successors.append(bonus)
                iterator = iter(successors)
            advanced = False
            for child in iterator:
                state = color.get(child, WHITE)
                if state == GRAY:
                    return True
                if state == WHITE:
                    stack.append((node, iterator))
                    stack.append((child, None))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
    return False
