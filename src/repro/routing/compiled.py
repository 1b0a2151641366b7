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
  width, filled through :func:`~repro.quantum.noise.channel_success`,
  the unchecked formula behind the reference
  :class:`~repro.routing.metrics.ChannelRateCache`'s rates, so every
  rate is bit-identical;
* **a native kernel** — the search runs in ``kernel.c`` (package
  :mod:`repro.routing._native`; its header gives the relax rules that
  keep paths and rates bit-identical), compiled once per user cache and
  called through :mod:`ctypes`.  Algorithm 2's Yen loop runs there too,
  one call per (demand, width), accepting what the reference core's
  :func:`~repro.routing.alg2_path_selection.yen_deviation_loop` accepts
  (its spur searches stop early once they cannot reach the queue's top
  ``h - accepted``; ``kernel.c`` gives the proof).  The
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
  (either endpoint order) become node indices, edge ids and their
  ``array('q')`` twins once per pair of frozenset objects, so every
  demand and refill round under one fault state reuses them.

Search entry points
-------------------

Each algorithm has one entry here.  Algorithm 1 calls
:meth:`CompiledNetwork.run_search`; Algorithm 2 calls
:func:`compiled_select_paths`, which sweeps the first search of every
width through one :class:`WidthSearchBatch` and runs each width's Yen
loop in one native call.  First searches are answered from the
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
import ctypes
import weakref
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, RoutingError
from repro.network.demands import Demand
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel, channel_success
from repro.routing import _native
from repro.routing.paths import PathCandidate

EdgeKey = Tuple[int, int]

#: Environment variable selecting the routing core.
ROUTING_CORE_ENV = "REPRO_ROUTING_CORE"

#: Valid core names; ``compiled`` is the default.
ROUTING_CORES = ("compiled", "reference")

#: Environment variable read by :func:`fused_width_min` (kept for the
#: benchmark's run metadata; it no longer selects a kernel).
FUSED_WIDTH_MIN_ENV = "REPRO_FUSED_WIDTH_MIN"

#: Default of :func:`fused_width_min`.
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
    """The validated value of ``REPRO_FUSED_WIDTH_MIN`` (default
    :data:`FUSED_WIDTH_MIN_DEFAULT`).

    It no longer selects a kernel: every width of a batch runs the same
    single-width search, so the value only reaches the benchmark's run
    metadata.  Values that are not integers >= 2 are still rejected.
    """
    from repro.experiments.config import env_raw

    raw = env_raw(FUSED_WIDTH_MIN_ENV)
    if raw is None:
        return FUSED_WIDTH_MIN_DEFAULT
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{FUSED_WIDTH_MIN_ENV} must be an integer >= 2; got {raw!r}"
        ) from None
    if value < 2:
        raise ConfigurationError(
            f"{FUSED_WIDTH_MIN_ENV} must be an integer >= 2; got {raw!r}"
        )
    return value


def _ekey(a: int, b: int) -> EdgeKey:
    return (a, b) if a < b else (b, a)


class _RateLists(dict):
    """``{width: per-edge channel rates}``, each list filled on first
    use.

    ``lists[width][edge_id]`` equals ``ChannelRateCache.rate(u, v,
    width)`` for the edge's endpoints — the same formula on the same
    inputs, without
    :func:`~repro.quantum.noise.channel_success_probability`'s input
    checks (the probabilities come from the link model, and widths are
    checked where they enter the routing API).
    """

    __slots__ = ("_probabilities",)

    def __init__(self, probabilities: List[float]):
        super().__init__()
        self._probabilities = probabilities

    def __missing__(self, width: int) -> List[float]:
        column = [channel_success(p, width) for p in self._probabilities]
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
        "_native_scratch",
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
        # cyclic collector runs.  Per width, (counts, flags, key) built
        # from those counts.
        self._relay_counts: Optional[tuple] = None
        self._relay_cache: Dict[int, tuple] = {}
        # (banned_nodes, banned_edges, resolved) of the last frozenset
        # pair resolved (see _resolved_bans).
        self._ban_memo: Optional[tuple] = None
        self._width_columns: Dict[int, np.ndarray] = {}
        self._search_memo: Dict[tuple, object] = {}
        # The native kernel's scratch, allocated on the first search
        # (see _native_buffers) and reset through the touched nodes, so
        # back-to-back searches skip the O(n) clear.
        self._native_scratch: Optional[tuple] = None

    def __getstate__(self):
        """Copy/pickle state without raw buffer addresses or ledger
        references: a copy gets its own native scratch on first use
        instead of pointing into the original's buffers, and rebuilds
        its relay counts and flags lazily (they hold a ledger weakly)."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_native_scratch"] = None
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
        column = self._width_columns.get(width)
        if column is None:
            column = np.asarray(self.width_lists[width], dtype=np.float64)
            self._width_columns[width] = column
        return column

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
        counts = self.relay_counts(ledger)
        entry = self._relay_cache.get(width)
        if entry is not None and entry[0] is counts:
            return entry[1], entry[2]
        flags = counts >= 2 * width
        key = flags.tobytes()
        self._relay_cache[width] = (counts, flags, key)
        return flags, key

    # ------------------------------------------------------------------
    # The Algorithm 1 kernel

    def _native_buffers(self, kernel) -> tuple:
        """The native kernel's scratch for this snapshot, allocated on
        the first call: ``(addresses, path, rate, workspace, arrays)``.

        ``addresses`` are the CSR arrays, ``best``, ``pred``,
        ``visited``, ``edge_banned``, the heap, ``touched``, the path
        buffer and the rate buffer, in the order of the relax loop's
        arguments (the Yen loop takes all but the last).  Sizes are
        worst cases of one search: each row relaxes at most once, so a
        search pushes at most ``nnz`` entries after the source's.  The
        Yen workspace grows inside ``kernel.c`` with the paths found.
        """
        scratch = self._native_scratch
        if scratch is None:
            n = len(self.node_ids)
            nnz = self.adj_nodes.size
            path = (ctypes.c_int64 * n)()
            rate = (ctypes.c_double * 1)()
            buffers = (
                self.indptr,
                self.adj_nodes,
                self.adj_edges,
                np.zeros(n, dtype=np.float64),  # best
                np.zeros(n, dtype=np.int64),  # pred
                np.zeros(n, dtype=np.uint8),  # visited
                np.zeros(len(self.edge_keys), dtype=np.uint8),  # edge_banned
                np.zeros((nnz + 1) * _native.HEAP_ENTRY_BYTES, np.uint8),
                np.zeros(nnz + n + 1, dtype=np.int64),  # touched
            )
            scratch = self._native_scratch = (
                tuple(buf.ctypes.data for buf in buffers)
                + (ctypes.addressof(path), ctypes.addressof(rate)),
                path,
                rate,
                _native.YenWorkspace(kernel),
                buffers,
            )
        return scratch

    def _native_search(
        self,
        kernel,
        source: int,
        destination: int,
        rates: np.ndarray,
        flags: np.ndarray,
        swap2: float,
        banned_idx: FrozenSet[int],
        banned_edge_ids: FrozenSet[int],
    ) -> Optional[Tuple[List[int], float]]:
        """Algorithm 1's modified Dijkstra over the CSR rows, in the
        native relax loop (``kernel.c``; see the module docstring's
        in-loop masking).

        *source*/*destination*/*banned_idx* are node **indices** and
        *banned_edge_ids* edge ids; ``rates`` is the per-edge rate
        column (:meth:`width_rates`) and ``flags`` the relay flags.
        Returns ``(index_path, rate)`` or ``None``.
        """
        addresses, path, rate, _, _ = self._native_buffers(kernel)
        # array.array fills from a set several times faster than a
        # ctypes array, and fault-heavy sessions ban ~100 edges a search.
        banned = array.array("q", banned_idx)
        banned_edges = array.array("q", banned_edge_ids)
        length = kernel.search(
            *addresses, rates.ctypes.data, flags.ctypes.data, source,
            destination, swap2, banned.buffer_info()[0], len(banned),
            banned_edges.buffer_info()[0], len(banned_edges),
        )
        if not length:
            return None
        return path[:length], rate[0]

    def _native_yen(
        self,
        kernel,
        first: Sequence[int],
        first_rate: float,
        h: int,
        rates: np.ndarray,
        flags: np.ndarray,
        swap2: float,
        banned: array.array,
        banned_edges: array.array,
    ) -> List[Tuple[List[int], float]]:
        """Algorithm 2's Yen loop for one width in one native call.

        *first* is the width's best index path and *first_rate* its
        search rate; *banned*/*banned_edges* are the session's node
        indices and edge ids as ``array('q')``.  Returns what
        the reference core's
        :func:`~repro.routing.alg2_path_selection.yen_deviation_loop`
        returns when Algorithm 1 (under the session bans plus each
        spur's own) drives it: the accepted ``(index_path, rate)``
        pairs, best first, at most *h*.
        """
        addresses, _, _, workspace, _ = self._native_buffers(kernel)
        nodes = array.array("q", first)
        count = kernel.yen(
            workspace.address, *addresses[:-1], rates.ctypes.data,
            flags.ctypes.data, swap2, min(h, _H_LIMIT),
            nodes.buffer_info()[0], len(nodes), first_rate,
            banned.buffer_info()[0], len(banned),
            banned_edges.buffer_info()[0], len(banned_edges),
        )
        if count < 0:
            raise MemoryError("the native Yen loop ran out of memory")
        output = workspace.output
        flat = output.out[: output.out_len]
        accepted = []
        start = 0
        for rate in output.out_rates[:count]:
            end = start + 1 + flat[start]
            accepted.append((flat[start + 1:end], rate))
            start = end
        return accepted

    def resolve_bans(
        self, banned_nodes: Iterable[int], banned_edges: Iterable[EdgeKey]
    ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """Banned node ids and edge keys (either endpoint order) as node
        indices and edge ids.

        Entries outside the network are dropped: they are unreachable
        anyway.  See :meth:`_resolved_bans` for when the answer is
        memoised.
        """
        return self._resolved_bans(banned_nodes, banned_edges)[:2]

    def _resolved_bans(
        self, banned_nodes: Iterable[int], banned_edges: Iterable[EdgeKey]
    ) -> Tuple[FrozenSet[int], FrozenSet[int], array.array, array.array]:
        """:meth:`resolve_bans` plus both answers as ``array('q')``.

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
        resolved = (
            node_idx, edge_ids,
            array.array("q", node_idx), array.array("q", edge_ids),
        )
        if type(banned_nodes) is frozenset and type(banned_edges) is frozenset:
            self._ban_memo = (banned_nodes, banned_edges, resolved)
        return resolved

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
        node_idx, edge_ids = self.resolve_bans(banned_nodes, banned_edges)
        return self._search(
            source, destination, width, swap2, ledger, node_idx, edge_ids
        )

    def _search(
        self,
        source: int,
        destination: int,
        width: int,
        swap2: float,
        ledger,
        banned_node_idx: FrozenSet[int],
        banned_edge_ids: FrozenSet[int],
    ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """:meth:`run_search` over resolved bans (:meth:`resolve_bans`).

        Endpoint feasibility (each endpoint commits *width* qubits) is
        checked on the live ledger, never memoised: it can change
        without a relay flag flipping.  Then the memo answers (it keys
        on the relay flags' bytes, :meth:`relay_state`), or one kernel
        call runs on a miss.
        """
        if not (
            ledger.has_at_least(source, width)
            and ledger.has_at_least(destination, width)
        ):
            return None
        flags, flags_key = self.relay_state(ledger, width)
        key = (
            source,
            destination,
            width,
            flags_key,
            swap2,
            banned_node_idx,
            banned_edge_ids,
        )
        memo = self._search_memo
        hit = memo.get(key, _MISS)
        if hit is not _MISS:
            return hit
        index_of = self.index_of
        found = self._native_search(
            _loaded_kernel(), index_of[source], index_of[destination],
            self.width_rates(width), flags, swap2, banned_node_idx,
            banned_edge_ids,
        )
        if found is None:
            result = None
        else:
            ids = self.node_ids
            result = (tuple(ids[i] for i in found[0]), found[1])
        if len(memo) >= _SEARCH_MEMO_LIMIT:
            memo.clear()
        memo[key] = result
        return result


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
        """
        search = self.snapshot._search
        return {
            width: search(
                self.source, self.destination, width, self.swap2,
                self.ledger, banned_node_idx, banned_edge_ids,
            )
            for width in self.widths
        }


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
    demand.

    One :class:`WidthSearchBatch` serves every width: the first
    searches of all widths run as one :meth:`~WidthSearchBatch.
    search_widths` sweep (through the snapshot's search memo), then
    each feasible width's Yen loop runs as one native call
    (:meth:`CompiledNetwork._native_yen`).  Its spur searches skip the
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
    widths = tuple(range(max_width, 0, -1))
    batch = WidthSearchBatch(
        snapshot, swap_model, demand.source, demand.destination, widths,
        ledger,
    )
    node_idx, edge_ids, *session_bans = snapshot._resolved_bans(
        banned_nodes, banned_edges
    )
    firsts = batch.search_widths(node_idx, edge_ids)
    index_of = snapshot.index_of
    ids = snapshot.node_ids
    result: Dict[int, List[PathCandidate]] = {}
    for width in widths:
        first = firsts[width]
        if first is None:
            continue
        found = snapshot._native_yen(
            kernel, [index_of[node] for node in first[0]], first[1], h,
            snapshot.width_rates(width),
            snapshot.relay_state(ledger, width)[0], batch.swap2,
            *session_bans,
        )
        result[width] = [
            PathCandidate(
                demand.demand_id, tuple(ids[i] for i in path), width, rate
            )
            for path, rate in found
        ]
    return result
