"""Compiled routing core: CSR network snapshots for the hot search paths.

Every experiment reduces to thousands of runs of Algorithm 1's modified
Dijkstra inside Yen's deviation loop plus repeated Equation-1
evaluations.  The reference implementations traverse Python objects
(a sorted neighbour list per relaxation, dict lookups per edge, a
tuple-keyed rate memo).  :class:`CompiledNetwork` flattens one
``(QuantumNetwork, LinkModel)`` pair into flat arrays once:

* **CSR adjacency** — ``indptr``/``adj_nodes``/``adj_edges`` with
  neighbours in ascending node-id order, the order the reference
  relaxes them, so heap tie-breaks and paths are bit-identical;
* **width-indexed rate tables** — one per-edge column per channel
  width, filled with the operations of
  :func:`~repro.quantum.noise.channel_success`, the unchecked formula
  behind the reference :class:`~repro.routing.metrics.ChannelRateCache`'s
  rates (each edge's logarithm taken once), so every rate is
  bit-identical;
* **a native kernel** — the search runs in ``kernel.c`` (package
  :mod:`repro.routing._native`; its header gives the relax rules that
  keep paths and rates bit-identical), compiled once per user cache and
  called through :mod:`ctypes` with one kernel context per snapshot
  (CSR rows, scratch and output buffers).  Algorithm 2's Yen loop runs
  there too, accepting what the reference core's
  :func:`~repro.routing.alg2_path_selection.yen_deviation_loop` accepts
  (its spur searches stop early once they cannot reach the queue's top
  ``h - accepted`` or the floor the next-wider width's paths set, and
  skip pushes a reverse rate bound rules out; ``kernel.c`` gives the
  proofs).  Each call answers a
  batch of widths of one demand, and every rate column, relay-flag
  vector and ban set carries its raw address from the moment it is
  built, so a call marshals only a few integers.  The
  reference core is the kernel's only oracle and its only fallback:
  without a loaded kernel (:func:`native_kernel_active`) routing runs
  on the reference core, and the entry points below raise
  :class:`~repro.exceptions.RoutingError`;
* **relay flags from per-version counts** — one float64 vector holds
  every node's free qubits (``-1`` for a user, which never relays;
  ``inf`` for an unlimited switch, which always can), read through
  :meth:`~repro.routing.allocation.QubitLedger.remaining_counts` in one
  pass per ``(ledger, ledger.version)``.  Each width's flags are that
  vector compared with ``2 * width``, built once per vector; their
  bytes key the search memo, so a ledger change that flips no flag
  keeps every memoised search;
* **bans resolved once** — a session's banned node ids and edge keys
  (either endpoint order) become node indices, edge ids and the
  kernel's ``array('q')`` arguments once per pair of frozenset objects,
  so every demand and refill round under one fault state reuses them.

Search entry points
-------------------

Each algorithm has one entry here.  Algorithm 1 calls
:meth:`CompiledNetwork.run_search`, one native call per memo miss;
Algorithm 2 calls :func:`compiled_select_paths`, which sweeps the first
search of every width through one :class:`WidthSearchBatch` (one native
call for all the widths the memo misses) and then runs the Yen loops
of all feasible widths in one more.  First searches are answered from the
snapshot's **search-result memo**, keyed on the exact kernel inputs
``(source, destination, width, relay-flag bytes, swap, banned sets)``,
so a hit is bit-identical to a fresh search; the Yen loop's spur
searches run inside ``kernel.c``, past the memo.  Arguments are
validated once, by the public entry points
:func:`~repro.routing.alg1_largest_rate.largest_entanglement_rate_path`
and :func:`~repro.routing.alg2_path_selection.select_paths`, which also
supply the default ledger; nothing here re-checks them.

Core selection
--------------

``REPRO_ROUTING_CORE`` selects ``compiled`` (the default) or
``reference``; without the native kernel the core is ``reference``
whatever it says.  It is read in one place, the
:class:`~repro.routing.metrics.ChannelRateCache` constructor, which
holds the snapshot on the compiled core and ``None`` on the reference
core; Algorithms 1 and 2 and Equation 1 dispatch on that field, so a
cache fixes its core.  Both cores produce bit-identical paths, rates
and plans (``tests/test_routing_cores.py``,
``tests/test_native_kernel.py`` and the ``routing-parity`` CI job).

Snapshot lifetime
-----------------

A snapshot freezes the network *topology* (nodes, edges, lengths) and
the link model; it stays valid until the network is structurally
mutated (``add_edge``/``remove_edge``/``add_node``).  Qubit *ledger*
state is not baked in: relay flags follow the live ledger's
``version``, so an admission loop keeps one snapshot for a routing call
and the serving loop keeps one for a session.  :func:`snapshot_for`
memoises snapshots on the network, keyed by the link model and the
topology version; a compiled-core rate cache holds the one its routing
call uses, and its width columns are the only rate table that call
reads.
"""

from __future__ import annotations

import array
import math
import weakref
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, RoutingError
from repro.network.demands import Demand
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing import _native
from repro.routing.paths import PathCandidate

EdgeKey = Tuple[int, int]

#: Environment variable selecting the routing core.
ROUTING_CORE_ENV = "REPRO_ROUTING_CORE"

#: Valid core names; ``compiled`` is the default.
ROUTING_CORES = ("compiled", "reference")

#: Value of :func:`fused_width_min`.
FUSED_WIDTH_MIN_DEFAULT = 2

#: Search-result memo entries kept before a wholesale clear (the clear
#: is deterministic: it depends only on the query sequence).
_SEARCH_MEMO_LIMIT = 65536

#: Memo sentinel distinguishing "no entry" from a memoised ``None``.
_MISS = object()

#: Largest ``h`` passed to the native Yen loop (an int64 there).  Any
#: larger ``h`` selects the same paths: the loop stops when it runs out
#: of candidates, long before.
_H_LIMIT = 2**62


def active_routing_core() -> str:
    """The routing core selected by ``REPRO_ROUTING_CORE``.

    Returns ``"compiled"`` (the default) or ``"reference"``; raises
    :class:`~repro.exceptions.ConfigurationError` on any other value.
    The compiled core runs on the native kernel, so without one this is
    ``"reference"`` whatever the variable says.  Read once per
    :class:`~repro.routing.metrics.ChannelRateCache`, so tests and CI
    can flip cores between routing calls.
    """
    # Deferred import: the accessor lives in the experiments layer (the
    # one sanctioned environment read path — lint rule RPL003), and
    # routing must not pull that package in at module load.
    from repro.experiments.config import env_raw

    raw = env_raw(ROUTING_CORE_ENV)
    core = "compiled" if raw is None else raw.strip().lower()
    if core not in ROUTING_CORES:
        raise ConfigurationError(
            f"{ROUTING_CORE_ENV} must be one of "
            f"{', '.join(ROUTING_CORES)}; got {raw!r}"
        )
    if _native.KERNEL is None:
        return "reference"
    return core


def native_kernel_active() -> bool:
    """True when the native kernel is loaded, False when routing falls
    back to the reference core (no working C compiler, or a test set
    ``_native.KERNEL`` to ``None``)."""
    return _native.KERNEL is not None


def _loaded_kernel() -> _native.Kernel:
    """The native kernel; a :class:`~repro.exceptions.RoutingError`
    when it is not loaded (routing then runs on the reference core, so
    only a direct call to the compiled core lands here)."""
    kernel = _native.KERNEL
    if kernel is None:
        raise RoutingError(
            "the compiled routing core needs the native search kernel, "
            "which is not loaded (no working C compiler); route through "
            "a ChannelRateCache to run on the reference core"
        )
    return kernel


def fused_width_min() -> int:
    """:data:`FUSED_WIDTH_MIN_DEFAULT`, kept only for the benchmark's
    run metadata: every width of a batch runs the same single-width
    search, so no width threshold selects a kernel any more."""
    return FUSED_WIDTH_MIN_DEFAULT


def _ekey(a: int, b: int) -> EdgeKey:
    return (a, b) if a < b else (b, a)


class _RateLists(dict):
    """``{width: per-edge channel rates}``, each list filled on first
    use.

    ``lists[width][edge_id]`` equals ``ChannelRateCache.rate(u, v,
    width)`` for the edge's endpoints: :func:`~repro.quantum.noise.
    channel_success`'s operations on the same inputs, with each edge's
    ``log1p(-p)`` taken once for every width (``-inf`` for ``p >= 1``,
    whose rate ``-expm1(-inf)`` is then exactly ``1.0``).
    """

    __slots__ = ("_log_failures",)

    def __init__(self, probabilities: List[float]):
        super().__init__()
        self._log_failures = [
            math.log1p(-p) if p < 1.0 else -math.inf for p in probabilities
        ]

    def __missing__(self, width: int) -> List[float]:
        expm1 = math.expm1
        column = [-expm1(width * log) for log in self._log_failures]
        self[width] = column
        return column


class CompiledNetwork:
    """Flat-array snapshot of one ``(QuantumNetwork, LinkModel)`` pair.

    See the module docstring for the layout and lifetime rules.  Use
    :func:`snapshot_for`, so routing calls over one network share a
    snapshot; construct one directly only for a private copy.
    """

    __slots__ = (
        "node_ids",
        "index_of",
        "is_user",
        "user_ids",
        "indptr",
        "adj_nodes",
        "adj_edges",
        "edge_keys",
        "edge_index",
        "edge_probability",
        "width_lists",
        "_user_index",
        "_relay_counts",
        "_relay_cache",
        "_ban_memo",
        "_width_columns",
        "_search_memo",
        "_kernel_context",
    )

    def __init__(self, network: QuantumNetwork, link_model: LinkModel):
        node_ids = network.nodes()
        self.node_ids: List[int] = node_ids
        self.index_of: Dict[int, int] = {
            nid: i for i, nid in enumerate(node_ids)
        }
        self.is_user: List[bool] = [
            network.node(nid).is_user for nid in node_ids
        ]
        self.user_ids: FrozenSet[int] = frozenset(
            nid for nid, user in zip(node_ids, self.is_user) if user
        )
        self._user_index = np.flatnonzero(np.asarray(self.is_user, bool))
        edge_keys = network.edge_keys()
        self.edge_keys: List[EdgeKey] = edge_keys
        self.edge_index: Dict[EdgeKey, int] = {
            key: e for e, key in enumerate(edge_keys)
        }
        # The same scalar chain the ChannelRateCache memoises:
        # link probability from the edge length, so the width columns
        # built from it are bit-identical to the reference rates.
        self.edge_probability: List[float] = [
            link_model.success_probability(network.edge_length(u, v))
            for u, v in edge_keys
        ]
        indptr: List[int] = [0]
        adj_nodes: List[int] = []
        adj_edges: List[int] = []
        index_of = self.index_of
        edge_index = self.edge_index
        for nid in node_ids:
            # network.neighbors() is ascending by node id; the id->index
            # map is monotone, so CSR order == reference relax order.
            for nbr in network.neighbors(nid):
                adj_nodes.append(index_of[nbr])
                adj_edges.append(edge_index[_ekey(nid, nbr)])
            indptr.append(len(adj_nodes))
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.adj_nodes = np.asarray(adj_nodes, dtype=np.int64)
        self.adj_edges = np.asarray(adj_edges, dtype=np.int64)
        # Per-width channel-rate lists, filled on first use: Equation 1
        # and Algorithm 3 index them directly.
        self.width_lists: Dict[int, List[float]] = _RateLists(
            self.edge_probability
        )
        # The relay counts of the last ledger asked (see relay_counts):
        # (weakref(ledger), ledger.version, counts).  The reference is
        # weak because the network memoises this snapshot and a ledger
        # holds its network: a strong one would make a cycle that keeps
        # a routed network (snapshot, memo and all) alive until the
        # cyclic collector runs.  Per width, (counts, flags, key,
        # flags address) built from those counts.
        self._relay_counts: Optional[tuple] = None
        self._relay_cache: Dict[int, tuple] = {}
        # (banned_nodes, banned_edges, resolved) of the last frozenset
        # pair resolved (see _resolved_bans).
        self._ban_memo: Optional[tuple] = None
        # Per width, (rate column, its address) (see _rate_column).
        self._width_columns: Dict[int, Tuple[np.ndarray, int]] = {}
        self._search_memo: Dict[tuple, object] = {}
        # The native kernel context, allocated on the first search (see
        # _context); its scratch is reset through the touched nodes, so
        # back-to-back searches skip the O(n) clear.
        self._kernel_context: Optional[_native.Context] = None

    def __getstate__(self):
        """Copy/pickle state without raw buffer addresses or ledger
        references: a copy gets its own kernel context, rate-column
        addresses and ban arrays on first use instead of pointing into
        the original's buffers, and rebuilds its relay counts and flags
        lazily (they hold a ledger weakly)."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_kernel_context"] = None
        state["_width_columns"] = {}
        state["_ban_memo"] = None
        state["_relay_counts"] = None
        state["_relay_cache"] = {}
        return None, state

    @property
    def num_nodes(self) -> int:
        """Node count of the snapshot."""
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        """Edge count of the snapshot."""
        return len(self.edge_keys)

    # ------------------------------------------------------------------
    # Rate tables and feasibility flags

    def width_rates(self, width: int) -> np.ndarray:
        """The *width* column of :attr:`width_lists` as a float64 array
        (what the native kernel reads), filled once."""
        return self._rate_column(width)[0]

    def _rate_column(self, width: int) -> Tuple[np.ndarray, int]:
        """``(column, address)``: :meth:`width_rates` and the address
        the native kernel reads it at, both built once."""
        entry = self._width_columns.get(width)
        if entry is None:
            column = np.asarray(self.width_lists[width], dtype=np.float64)
            entry = self._width_columns[width] = (column, column.ctypes.data)
        return entry

    def relay_counts(self, ledger) -> np.ndarray:
        """Per node index, the free qubits a relay may draw on under the
        :class:`~repro.routing.allocation.QubitLedger` *ledger*: ``-1``
        for a user (users never relay), ``inf`` for an unlimited switch.

        Read in one pass when the ledger's ``version`` moved since the
        last call (a reservation, a release — the online serving loop's
        departures — or a restore) or a different ledger asks, and
        cached otherwise.  Callers must not write to the array.
        """
        entry = self._relay_counts
        if (
            entry is not None
            and entry[0]() is ledger
            and entry[1] == ledger.version
        ):
            return entry[2]
        # None (unlimited) converts to NaN, then to +inf.
        counts = np.array(
            ledger.remaining_counts(self.node_ids), dtype=np.float64
        )
        counts[np.isnan(counts)] = np.inf
        counts[self._user_index] = -1.0
        self._relay_counts = (weakref.ref(ledger), ledger.version, counts)
        return counts

    def relay_state(self, ledger, width: int) -> Tuple[np.ndarray, bytes]:
        """``(flags, key)`` for relaying at *width* under *ledger*.

        A relay must be a switch holding ``2 * width`` free qubits
        (*width* towards each side): the flags are
        :meth:`relay_counts` compared with ``2 * width``, built once per
        count vector.  ``key`` is ``flags.tobytes()``: equal keys mean
        equal flags, whichever ledger or routing call produced them,
        which is what the search-result memo keys on.  Callers must not
        mutate the ledger while holding the returned array.
        """
        entry = self._relay_entry(self.relay_counts(ledger), width)
        return entry[1], entry[2]

    def _relay_entry(self, counts: np.ndarray, width: int) -> tuple:
        """``(counts, flags, key, flags address)`` at *width* for the
        count vector *counts* (:meth:`relay_counts`), built once per
        vector."""
        entry = self._relay_cache.get(width)
        if entry is None or entry[0] is not counts:
            flags = counts >= 2 * width
            entry = (counts, flags, flags.tobytes(), flags.ctypes.data)
            self._relay_cache[width] = entry
        return entry

    # ------------------------------------------------------------------
    # Bans

    def resolve_bans(
        self, banned_nodes: Iterable[int], banned_edges: Iterable[EdgeKey]
    ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """Banned node ids and edge keys (either endpoint order) as node
        indices and edge ids.

        Entries outside the network are dropped: they are unreachable
        anyway.  See :meth:`_resolved_bans` for when the answer is
        memoised.
        """
        bans = self._resolved_bans(banned_nodes, banned_edges)
        return bans.nodes, bans.edges

    def _resolved_bans(
        self, banned_nodes: Iterable[int], banned_edges: Iterable[EdgeKey]
    ) -> "_Bans":
        """:meth:`resolve_bans` with the kernel's arguments.

        Memoised on the identity of the last pair of frozensets (a
        serving session keeps one pair per fault state, and routers
        pass the same pair to every demand and round); any other
        iterable is read once and resolved afresh.
        """
        memo = self._ban_memo
        if (
            memo is not None
            and banned_nodes is memo[0]
            and banned_edges is memo[1]
        ):
            return memo[2]
        index_of = self.index_of
        edge_index = self.edge_index
        node_idx = frozenset(
            index_of[n] for n in banned_nodes if n in index_of
        )
        found = (
            edge_index.get((a, b) if a < b else (b, a))
            for a, b in banned_edges
        )
        edge_ids = frozenset(e for e in found if e is not None)
        bans = _Bans.of(node_idx, edge_ids)
        if type(banned_nodes) is frozenset and type(banned_edges) is frozenset:
            self._ban_memo = (banned_nodes, banned_edges, bans)
        return bans

    def _bans_for(
        self, node_idx: FrozenSet[int], edge_ids: FrozenSet[int]
    ) -> "_Bans":
        """The kernel arguments of bans already resolved: the memoised
        ones when *node_idx* and *edge_ids* are what
        :meth:`_resolved_bans` last returned, else built here."""
        memo = self._ban_memo
        if (
            memo is not None
            and memo[2].nodes is node_idx
            and memo[2].edges is edge_ids
        ):
            return memo[2]
        return _Bans.of(node_idx, edge_ids)

    # ------------------------------------------------------------------
    # The native entry points

    def _context(self, kernel: _native.Kernel) -> _native.Context:
        """This snapshot's kernel context, allocated on first use."""
        context = self._kernel_context
        if context is None:
            context = self._kernel_context = _native.Context(
                kernel, len(self.edge_keys), self.indptr, self.adj_nodes,
                self.adj_edges, np.asarray(self.node_ids, dtype=np.int64),
            )
        return context

    def kernel_work(self) -> Tuple[int, int]:
        """``(heap pops, spur searches)`` the native kernel has run on
        this snapshot's context so far (``kernel.c``'s work counters;
        ``(0, 0)`` before its first call).  Pure functions of the calls
        made, so tests can pin them."""
        context = self._kernel_context
        if context is None:
            return 0, 0
        return context.output.pops, context.output.spurs

    def run_search(
        self,
        source: int,
        destination: int,
        width: int,
        swap2: float,
        ledger,
        banned_nodes: Iterable[int] = (),
        banned_edges: Iterable[EdgeKey] = (),
    ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """Algorithm 1's compiled entry: one memoised search in node
        **ids**, returning ``(nodes, rate)`` or ``None``.

        *swap2* is the two-qubit fusion success; the arguments were
        validated by
        :func:`~repro.routing.alg1_largest_rate.largest_entanglement_rate_path`.
        The banned sets may be any iterables: each is read once, and an
        edge key may name its endpoints in either order.
        """
        return self._search_widths(
            source, destination, (width,), swap2, ledger,
            self._resolved_bans(banned_nodes, banned_edges),
        )[width]

    def _search_widths(
        self,
        source: int,
        destination: int,
        widths: Sequence[int],
        swap2: float,
        ledger,
        bans: "_Bans",
    ) -> Dict[int, Optional[Tuple[Tuple[int, ...], float]]]:
        """:meth:`run_search` at each of *widths* over resolved bans,
        with one native call for all the widths the memo misses.

        Endpoint feasibility (each endpoint commits *width* qubits) is
        checked on the live ledger, never memoised: it can change
        without a relay flag flipping.  Then the memo answers (it keys
        on the relay flags' bytes, :meth:`relay_state`), width by width
        in the order given.
        """
        has_at_least = ledger.has_at_least
        memo = self._search_memo
        found: dict = {}
        missed = []
        columns: List[int] = []
        counts = None
        for width in widths:
            if not (
                has_at_least(source, width)
                and has_at_least(destination, width)
            ):
                found[width] = None
                continue
            if counts is None:
                counts = self.relay_counts(ledger)
            relay = self._relay_entry(counts, width)
            key = (
                source, destination, width, relay[2], swap2, bans.nodes,
                bans.edges,
            )
            # A miss holds the width's place, so the answer keeps the
            # widths' order.
            found[width] = hit = memo.get(key, _MISS)
            if hit is _MISS:
                missed.append((width, key))
                columns += (self._rate_column(width)[1], relay[3])
        if missed:
            index_of = self.index_of
            results = self._native_search(
                _loaded_kernel(), index_of[source], index_of[destination],
                columns, swap2, bans,
            )
            for (width, key), result in zip(missed, results):
                if len(memo) >= _SEARCH_MEMO_LIMIT:
                    memo.clear()
                memo[key] = found[width] = result
        return found

    def _native_search(
        self,
        kernel: _native.Kernel,
        source: int,
        destination: int,
        columns: Sequence[int],
        swap2: float,
        bans: "_Bans",
    ) -> List[Optional[Tuple[Tuple[int, ...], float]]]:
        """Algorithm 1's modified Dijkstra at several widths in one
        native call (``kernel.c``).

        *source*/*destination* are node **indices**; *columns* holds, per
        width, the addresses of its rate column (:meth:`_rate_column`)
        and its relay flags (one byte per node).  Returns, per width,
        ``(nodes, rate)`` with the path in node **ids**, or ``None``.
        """
        context = self._context(kernel)
        request = array.array("q", columns)
        n_widths = len(request) // 2
        if kernel.search(
            context.address, n_widths, request.buffer_info()[0], source,
            destination, swap2, *bans.args,
        ) < 0:
            raise MemoryError("the native search ran out of memory")
        output = context.output
        flat = output.out[: output.out_len]
        found: List[Optional[Tuple[Tuple[int, ...], float]]] = []
        start = 0
        for rate in output.out_rates[:n_widths]:
            length = flat[start]
            start += 1
            found.append(
                (tuple(flat[start:start + length]), rate) if length else None
            )
            start += length
        return found

    def _native_yen(
        self,
        kernel: _native.Kernel,
        requests: Sequence[Tuple[int, int, Sequence[int], float]],
        h: int,
        swap2: float,
        bans: "_Bans",
    ) -> List[List[Tuple[Tuple[int, ...], float]]]:
        """Algorithm 2's Yen loops of several widths in one native call.

        Each request is ``(rates address, flags address, first, rate)``
        for one width: its columns as for :meth:`_native_search`, its
        best index path and that path's search rate.  Returns, per
        request, what the reference core's
        :func:`~repro.routing.alg2_path_selection.yen_deviation_loop`
        returns when Algorithm 1 (under the session bans plus each
        spur's own) drives it at that width alone: the accepted
        ``(nodes, rate)`` pairs in node **ids**, best first, at most
        *h*.

        The widths share work without changing an answer (``kernel.c``
        gives the proofs).  Spur searches stop at the spur bound.  A
        width whose predecessor's *h* paths all relay at it takes their
        least rate, rescored at this width, as a floor for its spur
        searches.  Once a spur search runs under a cut, one reverse
        search from the destination bounds, for every width of the
        call, what a search can still gain from each node, and spur
        searches skip pushes that cannot reach the cut.  Requests may
        come in any width order.
        """
        context = self._context(kernel)
        request = array.array("q")
        first_rates = array.array("d")
        for rates_address, flags_address, first, rate in requests:
            request.extend((rates_address, flags_address, len(first)))
            request.extend(first)
            first_rates.append(rate)
        total = kernel.yen(
            context.address, len(requests), request.buffer_info()[0],
            first_rates.buffer_info()[0], min(h, _H_LIMIT), swap2,
            *bans.args,
        )
        if total < 0:
            raise MemoryError("the native Yen loop ran out of memory")
        output = context.output
        flat = output.out[: output.out_len]
        rates = iter(output.out_rates[:total])
        accepted = []
        start = 0
        for _ in requests:
            count = flat[start]
            start += 1
            paths = []
            for _ in range(count):
                length = flat[start]
                start += 1
                paths.append((tuple(flat[start:start + length]), next(rates)))
                start += length
            accepted.append(paths)
        return accepted


class _Bans:
    """Resolved bans: node indices and edge ids as frozensets (what the
    search memo keys on) and the native kernel's trailing arguments
    (each as an ``array('q')`` address and length)."""

    __slots__ = ("nodes", "edges", "args", "_arrays")

    def __init__(self, nodes: FrozenSet[int], edges: FrozenSet[int]):
        self.nodes = nodes
        self.edges = edges
        node_array = array.array("q", nodes)
        edge_array = array.array("q", edges)
        self._arrays = (node_array, edge_array)
        self.args = (
            node_array.buffer_info()[0], len(node_array),
            edge_array.buffer_info()[0], len(edge_array),
        )

    @staticmethod
    def of(nodes: FrozenSet[int], edges: FrozenSet[int]) -> "_Bans":
        """The bans of *nodes* and *edges*; one shared instance when
        both are empty."""
        if not nodes and not edges:
            return _NO_BANS
        return _Bans(nodes, edges)


_NO_BANS = _Bans(frozenset(), frozenset())


#: Snapshot memo entries kept per network before a wholesale clear.
_SNAPSHOT_MEMO_LIMIT = 4


def snapshot_for(
    network: QuantumNetwork, link_model: LinkModel
) -> CompiledNetwork:
    """A :class:`CompiledNetwork` for ``(network, link_model)``, memoised
    on the network object across routing calls.

    Sweeps and Monte-Carlo trials route the same network hundreds of
    times; the snapshot (CSR layout, rate columns, search memo) is a
    pure function of the topology and the link model, so it is kept on
    the network keyed by ``(link_model, topology_version)``
    — the frozen-dataclass link model compares by value and the version
    counter changes exactly when the topology mutates, so a stale
    snapshot can never be returned.
    """
    key = (link_model, network.topology_version)
    memo = network.__dict__.setdefault("_compiled_snapshots", {})
    snapshot = memo.get(key)
    if snapshot is None:
        if len(memo) >= _SNAPSHOT_MEMO_LIMIT:
            memo.clear()
        snapshot = CompiledNetwork(network, link_model)
        memo[key] = snapshot
    return snapshot


# ----------------------------------------------------------------------
# Compiled Algorithm 2 (first searches, then the native Yen loop)


class WidthSearchBatch:
    """Algorithm 2's first searches of one demand, one per width (see
    :func:`compiled_select_paths`), over validated arguments."""

    __slots__ = (
        "snapshot",
        "ledger",
        "swap2",
        "source",
        "destination",
        "widths",
    )

    def __init__(
        self,
        snapshot: CompiledNetwork,
        swap_model: SwapModel,
        source: int,
        destination: int,
        widths: Sequence[int],
        ledger,
    ):
        self.snapshot = snapshot
        self.ledger = ledger
        self.swap2 = swap_model.fusion_success(2)
        self.source = source
        self.destination = destination
        self.widths: Tuple[int, ...] = tuple(widths)

    def search_widths(
        self,
        banned_node_idx: FrozenSet[int] = frozenset(),
        banned_edge_ids: FrozenSet[int] = frozenset(),
    ) -> Dict[int, Optional[Tuple[Tuple[int, ...], float]]]:
        """``{width: (nodes, rate) | None}`` for every batch width, each
        as :meth:`CompiledNetwork.run_search` answers under the same
        bans, given here resolved (:meth:`CompiledNetwork.resolve_bans`).
        The widths the search memo misses run in one native call.
        """
        snapshot = self.snapshot
        return snapshot._search_widths(
            self.source, self.destination, self.widths, self.swap2,
            self.ledger, snapshot._bans_for(banned_node_idx, banned_edge_ids),
        )


def compiled_select_paths(
    snapshot: CompiledNetwork,
    swap_model: SwapModel,
    demand: Demand,
    h: int,
    max_width: int,
    ledger,
    banned_nodes: FrozenSet[int],
    banned_edges: FrozenSet[EdgeKey],
) -> Dict[int, List[PathCandidate]]:
    """Algorithm 2's compiled entry: the per-width Yen loops of one
    demand, in at most two native calls.

    One :class:`WidthSearchBatch` serves every width: the first
    searches of all widths run as one :meth:`~WidthSearchBatch.
    search_widths` sweep (through the snapshot's search memo), then the
    Yen loops of all feasible widths run in one native call
    (:meth:`CompiledNetwork._native_yen`).  Their spur searches skip the
    endpoint checks and the search memo: the ledger cannot change
    during a selection, and every spur source is the source or a relay
    of a found path, so it holds at least ``2 * width`` qubits.
    *banned_nodes*/*banned_edges* are session-wide masks (the serving
    loop's down elements), resolved once per fault state
    (:meth:`CompiledNetwork._resolved_bans`); they reach every search —
    including each Yen deviation, unioned with the deviation's own bans
    — so a fault state change costs fresh searches rather than a
    snapshot rebuild.  Validation, the default ledger and the
    ``max_hops`` filter stay in
    :func:`~repro.routing.alg2_path_selection.select_paths`.
    """
    kernel = _loaded_kernel()
    batch = WidthSearchBatch(
        snapshot, swap_model, demand.source, demand.destination,
        range(max_width, 0, -1), ledger,
    )
    bans = snapshot._resolved_bans(banned_nodes, banned_edges)
    firsts = batch.search_widths(bans.nodes, bans.edges)
    feasible = [
        (width, first) for width, first in firsts.items()
        if first is not None
    ]
    if not feasible:
        return {}
    counts = snapshot.relay_counts(ledger)
    index_of = snapshot.index_of
    accepted = snapshot._native_yen(
        kernel,
        [
            (
                snapshot._rate_column(width)[1],
                snapshot._relay_entry(counts, width)[3],
                [index_of[node] for node in nodes],
                rate,
            )
            for width, (nodes, rate) in feasible
        ],
        h, batch.swap2, bans,
    )
    # The kernel's paths are loopless, of >= 2 nodes, with rates in
    # [0, 1]: the candidates skip the checked constructor.
    trusted = PathCandidate._trusted
    demand_id = demand.demand_id
    return {
        width: [trusted(demand_id, nodes, width, rate) for nodes, rate in paths]
        for (width, _), paths in zip(feasible, accepted)
    }
