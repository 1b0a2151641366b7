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

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import RoutingError
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.compiled import CompiledNetwork
from repro.routing.metrics import ChannelRateCache, rate_cache_for

EdgeKey = Tuple[int, int]


def _ekey(a: int, b: int) -> EdgeKey:
    return (a, b) if a < b else (b, a)


class FlowLikeGraph:
    """The route of one demanded state: one or more merged paths.

    The graph stores the set of constituent paths, the directed child map
    induced by traversing each path from source to destination, and the
    channel width of every edge.  Paths whose direction would conflict with
    the existing orientation (creating a directed cycle) are rejected at
    :meth:`add_path` time, keeping Equation 1 well defined.

    Admission loops probe many trial merges per accepted one (Algorithm 3
    copies the flow, adds a candidate, evaluates the rate).  A merge
    decides acyclicity from the memoised topological order: when the
    path's flow nodes appear in it in increasing positions, the order
    with each run of new nodes spliced in after the flow node before it
    is a topological order of the merged graph (Algorithm 3's module
    docstring proves it); any other path falls back to one DFS from the
    source over the child map plus the path's edges, which rejects a
    cycle or yields the new order.  The fusion-arity and parent maps
    absorb a merge in place, and :meth:`copy` carries the arity map and
    the order over.  The last Equation-1 walk's per-node values are kept
    until the next mutation.  A mutation a memo cannot absorb exactly
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
        # the iterative Equation-1 evaluator walks and each node's
        # position in it (the merge's acyclicity test), the node->parents
        # map, and the last Equation-1 walk's per-node values with the
        # rate cache and swap model it ran under.  Each is reset to
        # ``None`` (lazy rebuild) by a mutation it cannot absorb.
        self._arity_cache: Optional[Dict[int, int]] = None
        self._topo_cache: Optional[List[int]] = None
        self._position_cache: Optional[Dict[int, int]] = None
        self._parent_cache: Optional[Dict[int, Set[int]]] = None
        self._rate_values: Optional[
            Tuple[ChannelRateCache, SwapModel, Dict[int, float]]
        ] = None

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
        if not self.merge_path(nodes, width):
            raise RoutingError(
                f"merging path {nodes} would create a directed cycle "
                "in the flow-like graph"
            )

    def merge_path(self, nodes: Tuple[int, ...], width: int) -> bool:
        """:meth:`add_path` without its argument checks, for a caller that
        made them once (Algorithm 3 checks each candidate when its pool
        is built): *nodes* is a loopless source->destination tuple and
        *width* at least 1.  Returns ``False``, with the graph untouched,
        when the merge would create a directed cycle.
        """
        arities = self._arity_cache
        edge_widths = self._edge_widths
        if nodes in self._paths:
            # Re-adding an existing path is a pure width upgrade.
            index = self._paths.index(nodes)
            self._path_widths[index] = max(self._path_widths[index], width)
            for a, b in zip(nodes, nodes[1:]):
                key = (a, b) if a < b else (b, a)
                old = edge_widths[key]
                if width > old:
                    edge_widths[key] = width
                    self._rate_values = None
                    if arities is not None:
                        delta = width - old
                        arities[a] = arities.get(a, 0) + delta
                        arities[b] = arities.get(b, 0) + delta
            return True
        # The new order is decided before anything mutates: a rejected
        # merge leaves the graph untouched.
        order = self._spliced_order(nodes)
        if order is None:
            order = _topological_sort(
                self._children, self.source, dict(zip(nodes, nodes[1:]))
            )
            if order is None:
                return False
        children = self._children
        parents = self._parent_cache
        for a, b in zip(nodes, nodes[1:]):
            children.setdefault(a, set()).add(b)
            if parents is not None:
                parents.setdefault(b, set()).add(a)
            key = (a, b) if a < b else (b, a)
            old = edge_widths.get(key, 0)
            if width > old:
                edge_widths[key] = width
                if arities is not None:
                    delta = width - old
                    arities[a] = arities.get(a, 0) + delta
                    arities[b] = arities.get(b, 0) + delta
        self._paths.append(nodes)
        self._path_widths.append(width)
        self._topo_cache = order
        self._position_cache = None
        self._rate_values = None
        return True

    def _spliced_order(self, nodes: Tuple[int, ...]) -> Optional[List[int]]:
        """The topological order after merging *nodes*, or ``None`` when
        the path's flow nodes do not appear in increasing positions of
        the current order (the merge may then close a cycle).

        Each run of new nodes is spliced in right after the flow node
        before it on the path (a leading run goes first): old edges keep
        their direction in the order, and every path edge points forward.
        """
        positions = self._positions()
        order = self._topo_cache
        assert order is not None  # _positions() built it
        spliced: List[int] = []
        start = 0
        last = -1
        previous = -1
        for i, node in enumerate(nodes):
            at = positions.get(node)
            if at is None:
                continue
            if at <= last:
                return None
            if i > previous + 1:
                spliced += order[start:last + 1]
                spliced += nodes[previous + 1:i]
                start = last + 1
            last = at
            previous = i
        spliced += order[start:last + 1]
        spliced += nodes[previous + 1:]
        spliced += order[last + 1:]
        return spliced

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
        self._position_cache = None
        self._parent_cache = None
        self._rate_values = None
        return released

    def copy(self) -> "FlowLikeGraph":
        """Independent deep copy (used for trial merges).

        Carries the arity map and the topological order with its
        positions over: a trial merge mutates the copy once and evaluates
        its rate once, and the arity map absorbs that merge in place.
        The positions are built here, once per version of this graph, so
        every trial copy shares them.
        """
        clone = FlowLikeGraph(self.demand_id, self.source, self.destination)
        clone._paths = list(self._paths)
        clone._path_widths = list(self._path_widths)
        clone._children = {k: set(v) for k, v in self._children.items()}
        clone._edge_widths = dict(self._edge_widths)
        arities = self._arity_cache
        clone._arity_cache = dict(arities) if arities is not None else None
        # The order and positions are rebuilt whole, never edited, so
        # sharing them is safe.
        clone._position_cache = self._positions()
        clone._topo_cache = self._topo_cache
        return clone

    def widen_edge(self, u: int, v: int, extra: int = 1) -> None:
        """Increase the width of an existing edge (Algorithm 4's action)."""
        key = _ekey(u, v)
        if key not in self._edge_widths:
            raise RoutingError(f"edge {key} is not part of this flow-like graph")
        if extra < 1:
            raise RoutingError(f"extra width must be >= 1, got {extra}")
        self._edge_widths[key] += extra
        self._rate_values = None
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

    def directed_edges(self) -> List[EdgeKey]:
        """Every edge as ``(parent, child)``, parents in topological order."""
        children = self._children
        return [
            (node, child)
            for node in self._topological_order()
            for child in sorted(children.get(node, ()))
        ]

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

        The order the last merge left (spliced, or from its DFS), or
        after a removal one DFS from the source (every node lies on a
        source->destination path).  Equation 1's result does not depend on *which* valid
        order is walked: each node's value depends on its children only.
        """
        order = self._topo_cache
        if order is None:
            order = []
            if self._children:
                order = _topological_sort(self._children, self.source, {})
                assert order is not None  # merges never close a cycle
            self._topo_cache = order
        return order

    def _positions(self) -> Dict[int, int]:
        """Each node's index in :meth:`_topological_order`, memoised
        until the order changes."""
        positions = self._position_cache
        if positions is None:
            order = self._topological_order()
            positions = self._position_cache = dict(
                zip(order, range(len(order)))
            )
        return positions

    def parent_map(self) -> Dict[int, Set[int]]:
        """Each node's directed parents (towards the source), memoised:
        merges update it in place, a removal rebuilds it.  The map is
        the graph's own; callers must not mutate it."""
        parents = self._parent_cache
        if parents is None:
            parents = {}
            for node, children in self._children.items():
                for child in children:
                    parents.setdefault(child, set()).add(node)
            self._parent_cache = parents
        return parents

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
        the graph — Algorithm 4 uses this to evaluate marginal gains.  Its
        keys are canonicalised and checked like :meth:`widen_edge`'s
        arguments: an edge outside the flow or an extra below 1 raises
        :class:`RoutingError`.
        ``rate_cache`` fixes the routing core and, on the reference
        core, memoises per-(edge, width) channel rates across calls
        sharing one (network, link_model) pair; a cache bound to another
        pair raises :class:`RoutingError`.  Without one, a fresh cache
        picks the core from ``REPRO_ROUTING_CORE``.

        The compiled core evaluates with the iterative scalar walk over
        the snapshot's rate columns; the reference core keeps the
        recursive evaluator as the oracle.  The two are bit-identical.
        Without extras the walk's per-node values are kept (see
        :meth:`node_rates`), and a repeat call under the same rate cache
        and swap model reads the rate from them.
        """
        extras = self._canonical_extras(extra_widths) if extra_widths else {}
        rate_cache = rate_cache_for(network, link_model, rate_cache)
        if not self._paths:
            return 0.0
        kept = self._rate_values
        if (
            not extras and kept is not None
            and kept[0] is rate_cache and kept[1] is swap_model
        ):
            return kept[2][self.source]
        snapshot = rate_cache.compiled_snapshot
        if snapshot is not None:
            values = self._rate_iterative(snapshot, swap_model, extras)
        else:
            values = {self.destination: 1.0}
            self._rate_from(
                self.source, network, swap_model, values, extras, rate_cache
            )
        if not extras:
            self._rate_values = (rate_cache, swap_model, values)
        return values[self.source]

    def node_rates(
        self,
        network: QuantumNetwork,
        link_model: LinkModel,
        swap_model: SwapModel,
        rate_cache: Optional[ChannelRateCache] = None,
    ) -> Dict[int, float]:
        """Equation 1's value P(v, D) at every node v of the graph (the
        destination's is 1.0, the source's the rate): the values of the
        walk :meth:`entanglement_rate` makes, one walk per version of
        the graph under one rate cache and swap model.  The map is kept
        by the graph; callers must not mutate it.
        """
        rate_cache = rate_cache_for(network, link_model, rate_cache)
        self.entanglement_rate(
            network, link_model, swap_model, rate_cache=rate_cache
        )
        kept = self._rate_values
        return kept[2] if kept is not None else {}

    def _canonical_extras(
        self, extra_widths: Dict[EdgeKey, int]
    ) -> Dict[EdgeKey, int]:
        """*extra_widths* keyed by canonical in-flow edges.

        Equation 1 looks channel widths up under ``(min, max)`` keys
        while the fusion arity counts every key, so a reversed key would
        penalise the arity without widening the channel.
        """
        canonical: Dict[EdgeKey, int] = {}
        for (u, v), extra in extra_widths.items():
            key = _ekey(u, v)
            if key not in self._edge_widths:
                raise RoutingError(
                    f"edge {key} is not part of this flow-like graph"
                )
            if extra < 1:
                raise RoutingError(f"extra width must be >= 1, got {extra}")
            canonical[key] = canonical.get(key, 0) + extra
        return canonical

    def _rate_iterative(
        self,
        snapshot: CompiledNetwork,
        swap_model: SwapModel,
        extra_widths: Dict[EdgeKey, int],
    ) -> Dict[int, float]:
        """Equation 1 evaluated bottom-up in reverse topological order:
        every node's value.

        Per-node the failure product iterates the same child set in the
        same order as the recursive reference, so the result is
        bit-identical.  Channel rates are read straight from the
        snapshot's ``width_lists`` (the same floats the reference memo
        computes) and users from its ``user_ids``.  A switch child fuses at least the
        width of its edge to *node*, so under an arity-independent swap
        model its factor is that model's constant (no arity lookup).
        """
        destination = self.destination
        memo: Dict[int, float] = {destination: 1.0}
        children_of = self._children
        edge_widths = self._edge_widths
        has_extra = bool(extra_widths)
        columns = snapshot.width_lists
        edge_index = snapshot.edge_index
        user_ids = snapshot.user_ids
        uniform = swap_model.uniform_success()
        if uniform is None:
            arities = self._fusion_arities()
            # Fusion arities are non-negative ints by construction, so
            # the walk uses the unchecked twin of success_probability.
            swap_fn = swap_model.fusion_success
        for node in reversed(self._topological_order()):
            if node == destination:
                continue
            failure = 1.0
            for child in children_of.get(node, ()):
                key = (node, child) if node < child else (child, node)
                width = edge_widths[key]
                if has_extra:
                    width += extra_widths.get(key, 0)
                edge_rate = columns[width][edge_index[key]]
                if child == destination or child in user_ids:
                    swap = 1.0
                elif uniform is not None:
                    swap = uniform
                else:
                    arity = arities[child]
                    if has_extra:
                        arity += extra_widths_total(extra_widths, child)
                    swap = swap_fn(arity)
                failure *= 1.0 - edge_rate * swap * memo[child]
            memo[node] = 1.0 - failure
        return memo

    def _rate_from(
        self,
        node: int,
        network: QuantumNetwork,
        swap_model: SwapModel,
        memo: Dict[int, float],
        extra_widths: Dict[EdgeKey, int],
        rate_cache: ChannelRateCache,
    ) -> float:
        if node == self.destination:
            return 1.0
        if node in memo:
            return memo[node]
        failure = 1.0
        for child in self._children.get(node, ()):
            key = _ekey(node, child)
            width = self._edge_widths[key] + extra_widths.get(key, 0)
            edge_rate = rate_cache.rate(node, child, width)
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
                child, network, swap_model, memo, extra_widths, rate_cache,
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


def _topological_sort(
    children: Dict[int, Set[int]], source: int, extra: Dict[int, int]
) -> Optional[List[int]]:
    """Nodes reachable from *source*, parents before children.

    Walks ``children`` plus the *extra* edges (``{parent: child}``, at
    most one per node: a candidate path's) without copying the child
    map, and returns the reverse DFS post-order (Tarjan 1976), or
    ``None`` if an edge closes a directed cycle.  The successor lookup
    is inlined twice rather than called: it runs once per node of every
    merge the spliced order cannot decide.
    """
    get, bonus_of = children.get, extra.get
    kids = get(source, ())
    bonus = bonus_of(source)
    if bonus is not None and bonus not in kids:
        kids = (*kids, bonus)
    # False while a node is on the DFS stack, True once it is finished.
    finished = {source: False}
    stack: List[Tuple[int, Iterator[int]]] = [(source, iter(kids))]
    post: List[int] = []
    while stack:
        node, pending = stack[-1]
        for child in pending:
            state = finished.get(child)
            if state is None:
                finished[child] = False
                kids = get(child, ())
                bonus = bonus_of(child)
                if bonus is not None and bonus not in kids:
                    kids = (*kids, bonus)
                stack.append((child, iter(kids)))
                break
            if not state:
                return None
        else:
            stack.pop()
            finished[node] = True
            post.append(node)
    post.reverse()
    return post
