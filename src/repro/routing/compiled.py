"""Compiled routing core: CSR network snapshots for the hot search paths.

Every experiment reduces to thousands of runs of Algorithm 1's modified
Dijkstra inside Yen's deviation loop plus repeated Equation-1
evaluations.  The reference implementations traverse Python objects —
``network.neighbors()`` allocates a sorted list per relaxation,
``network.node(n).is_user`` and ``ledger.has_at_least()`` are dict
lookups per edge, and every channel rate goes through a tuple-keyed
memo.  :class:`CompiledNetwork` flattens one ``(QuantumNetwork,
LinkModel)`` pair into numpy arrays once, after which every search
runs over flat arrays:

* **CSR adjacency** — ``indptr``/``adj_nodes``/``adj_edges`` with
  neighbours in ascending node-id order (the exact order the reference
  relaxes them, so heap tie-breaking and therefore the returned paths
  are bit-identical);
* **width-indexed rate tables** — one per-edge column per channel
  width, filled through the same scalar
  :func:`~repro.quantum.noise.channel_success_probability` the
  reference :class:`~repro.routing.metrics.ChannelRateCache` uses, so
  every rate is bit-identical, plus slot-aligned copies the masked
  rows below are built from;
* **masked-row relaxation** — feasibility is folded into precomputed
  per-(width, flags-version, destination) rate rows with infeasible
  slots zeroed (one vectorised build, cached), so relaxing a popped
  node's row is a bare multiply + strict-improvement compare per slot
  with no per-edge lookups; pushes happen in ascending slot order with
  sequential tie-break counters, replaying the reference push sequence
  move for move.  The relax-time ``visited`` test the reference
  performs is provably redundant under the strict ``candidate > best``
  rule (every rate factor is <= 1, so a candidate can never beat a
  settled node's rate), which is what reduces the row mask to
  feasibility x improvement only;
* **a native relax loop** — the search itself runs in ``kernel.c``
  (package :mod:`repro.routing._native`), compiled once per user cache
  and called through :mod:`ctypes`.  It repeats the Python
  :meth:`CompiledNetwork._kernel` step for step with IEEE-754 doubles
  and no contracted multiplies, so paths and rates are bit-identical;
  the Python kernel stays as its differential oracle and as the
  automatic fallback when no C compiler works
  (:func:`native_kernel_active` tells which one runs);
* **version-tokened feasibility flags** — per-width relay flags are
  patched from the ledger's feasibility journal in O(changes) and carry
  a version that only advances when some flag actually flips, giving
  downstream caches an exact "has anything changed" key.

Batched search API
------------------

Callers no longer drive the kernel per ``(demand, width)``:
:class:`WidthSearchBatch` binds one snapshot + one demand + the widths
under consideration, and :func:`search_widths` (or
``WidthSearchBatch.search_widths``) answers every width of the batch in
one call, resolving the banned sets once and running one kernel call
per width that the memo misses.  All batch searches — every width
and every Yen deviation — share the snapshot's scratch buffers,
per-width rate rows, feasibility flags and a **search-result memo**
keyed on the exact kernel inputs
``(source, destination, width, flags-version, swap, banned sets)``.
Identical queries (Algorithm 2 re-runs the same spur searches across
widths and refill rounds; ``route_online`` repeats them across
arrivals) are answered from the memo, which is bit-identity-safe
because a hit requires every input byte to match.  Algorithm 1
(:func:`compiled_search`) and Algorithm 2
(:func:`compiled_select_paths`) both dispatch through the batch API.

Core selection
--------------

``REPRO_ROUTING_CORE`` selects the implementation (``compiled`` is the
default; ``reference`` keeps the original object-graph code).  The
switch is read per routing call, so a test or CI job can flip cores
without restarting the process.  Both cores produce bit-identical
paths, rates and plans; the parity suite in
``tests/test_routing_cores.py`` and the ``routing-parity`` CI job
enforce this.

Snapshot lifetime
-----------------

A snapshot freezes the network *topology* (nodes, edges, lengths,
capacities) and the link model at compile time.  It stays valid for as
long as a :class:`~repro.routing.metrics.ChannelRateCache` over the
same pair would — i.e. until the network is structurally mutated
(``add_edge``/``remove_edge``/``add_node``) or a different link model
is wanted; after that a new snapshot must be compiled.  Qubit *ledger*
state is deliberately not baked in: feasibility flags are patched from
the live ledger's journal per search batch, so admission loops can
keep one snapshot across an entire routing call and the serving loop
can keep one across a whole session.  Routers get this for free:
:func:`snapshot_for` hangs the snapshot off the ``ChannelRateCache``
they already thread through the call.  A :class:`WidthSearchBatch` is
a cheap per-demand view over a snapshot: create as many as needed,
but never use one after its snapshot's network mutated.
"""

from __future__ import annotations

import ctypes
import heapq
import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, RoutingError
from repro.network.demands import Demand
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel, channel_success_probability
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

# Last (raw env value, parsed core) pair: the switch is consulted on
# every routing call, so avoid re-validating an unchanged setting.
_core_memo: Tuple[Optional[str], str] = (None, "compiled")

# Same memo shape for the fused-width threshold knob.
_fused_memo: Tuple[Optional[str], int] = (None, FUSED_WIDTH_MIN_DEFAULT)

# The environment accessor, bound on first use (the hot paths consult
# the core switch per call; a function-level ``import`` statement there
# costs more than the read itself).
_env_raw = None

#: Search-result memo entries kept before a wholesale clear (the clear
#: is deterministic: it depends only on the query sequence).
_SEARCH_MEMO_LIMIT = 65536

#: Cached masked rate rows (per width/flags-version/destination) kept
#: before a wholesale clear.
_MASKED_ROW_CACHE_LIMIT = 4096

#: Memo sentinel distinguishing "no entry" from a memoised ``None``.
_MISS = object()

#: Shared empty frozenset: the common no-bans search skips building one.
_EMPTY: FrozenSet[int] = frozenset()


def active_routing_core() -> str:
    """The routing core selected by ``REPRO_ROUTING_CORE``.

    Returns ``"compiled"`` (the default) or ``"reference"``; raises
    :class:`~repro.exceptions.ConfigurationError` on any other value.
    Read at call time so tests and CI can flip cores per invocation.
    """
    global _core_memo, _env_raw
    if _env_raw is None:
        # Deferred import: the accessor lives in the experiments layer
        # (the one sanctioned environment read path — lint rule RPL003),
        # and routing must not pull that package in at module load.
        from repro.experiments.config import env_raw

        _env_raw = env_raw
    raw = _env_raw(ROUTING_CORE_ENV)
    memo_raw, memo_core = _core_memo
    if raw == memo_raw:
        return memo_core
    core = "compiled" if raw is None else raw.strip().lower()
    if core not in ROUTING_CORES:
        raise ConfigurationError(
            f"{ROUTING_CORE_ENV} must be one of "
            f"{', '.join(ROUTING_CORES)}; got {raw!r}"
        )
    _core_memo = (raw, core)
    return core


def native_kernel_active() -> bool:
    """True when searches run the native relax loop, False when they
    fall back to the Python :meth:`CompiledNetwork._kernel` (no working
    C compiler, or a test forced the fallback)."""
    return _native.KERNEL is not None


def fused_width_min() -> int:
    """The validated value of ``REPRO_FUSED_WIDTH_MIN`` (default
    :data:`FUSED_WIDTH_MIN_DEFAULT`).

    It no longer selects a kernel: every width of a batch runs the same
    single-width search, so the value only reaches the benchmark's run
    metadata.  Values that are not integers >= 2 are still rejected.
    """
    global _fused_memo, _env_raw
    if _env_raw is None:
        from repro.experiments.config import env_raw

        _env_raw = env_raw
    raw = _env_raw(FUSED_WIDTH_MIN_ENV)
    memo_raw, memo_value = _fused_memo
    if raw == memo_raw:
        return memo_value
    if raw is None:
        value = FUSED_WIDTH_MIN_DEFAULT
    else:
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
    _fused_memo = (raw, value)
    return value


def _ekey(a: int, b: int) -> EdgeKey:
    return (a, b) if a < b else (b, a)


class CompiledNetwork:
    """Flat-array snapshot of one ``(QuantumNetwork, LinkModel)`` pair.

    See the module docstring for the layout and lifetime rules.  Use
    :func:`compile_network` (or :func:`snapshot_for` inside a routing
    call) rather than constructing instances ad hoc, so snapshots are
    shared where the rate cache already is.
    """

    __slots__ = (
        "node_ids",
        "index_of",
        "is_user",
        "capacity",
        "indptr",
        "indptr_list",
        "adj_nodes",
        "adj_nodes_list",
        "adj_edges",
        "edge_keys",
        "edge_index",
        "edge_slots",
        "edge_probability",
        "_relay_cache",
        "_static_relay",
        "_flags_serial",
        "_flags_versions",
        "_width_columns",
        "_row_rate_cache",
        "_base_row_cache",
        "_masked_row_cache",
        "_in_slots",
        "_search_memo",
        "_native_scratch",
        "_best",
        "_pred",
        "_visited",
        "_stamp",
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
        self.capacity: List[Optional[int]] = [
            network.qubit_capacity(nid) for nid in node_ids
        ]
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
        # Both layouts are kept: int64 arrays feed the row masking and
        # the native kernel, while the plain lists serve the Python
        # fallback kernel's scalar reads (a list index is ~3x cheaper
        # than an ndarray scalar index).
        self.indptr_list: List[int] = indptr
        self.adj_nodes_list: List[int] = adj_nodes
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.adj_nodes = np.asarray(adj_nodes, dtype=np.int64)
        self.adj_edges = np.asarray(adj_edges, dtype=np.intp)
        # Each undirected edge occupies exactly two CSR slots (one per
        # endpoint row); grouping the stable eid argsort two-by-two maps
        # an edge id to both its slots for banned-edge masking.
        if self.adj_edges.size:
            order = np.argsort(self.adj_edges, kind="stable")
            self.edge_slots = order.reshape(len(edge_keys), 2)
        else:
            self.edge_slots = np.zeros((0, 2), dtype=np.intp)
        # Per-width relay-feasibility flags, patched incrementally from
        # the owning ledger's feasibility journal (see relay_feasible):
        # width -> [ledger, epoch, consumed_length, flags, version].
        self._relay_cache: Dict[int, list] = {}
        # Ledger-free flags per width: (flags, version), immutable.
        self._static_relay: Dict[int, Tuple[np.ndarray, int]] = {}
        self._flags_serial = itertools.count()
        # Content-addressed flag versions per width: equal contents map
        # to equal versions across ledgers, restores and routing calls,
        # which is what keeps the search/masked-row memos hitting.
        self._flags_versions: Dict[int, Dict[bytes, int]] = {}
        self._width_columns: Dict[int, np.ndarray] = {}
        self._row_rate_cache: Dict[int, np.ndarray] = {}
        self._base_row_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._masked_row_cache: Dict[
            Tuple[int, int, int, FrozenSet[int]], Tuple[np.ndarray, int]
        ] = {}
        self._in_slots: Dict[int, np.ndarray] = {}
        self._search_memo: Dict[tuple, object] = {}
        # Scratch of each kernel, allocated on its first search (see
        # _native_search and _kernel) and reset through the touched
        # nodes, so back-to-back searches skip the O(n) clear.
        self._native_scratch: Optional[tuple] = None
        self._best: List[float] = []
        self._pred: List[int] = []
        self._visited: List[int] = []
        self._stamp = 0

    def __getstate__(self):
        """Copy/pickle state without raw buffer addresses: a copy gets
        its own native scratch and masked rows on first use instead of
        pointing into the original's buffers."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_native_scratch"] = None
        state["_masked_row_cache"] = {}
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
        """The per-edge channel-rate column for *width*, filled once.

        ``column[edge_id]`` equals ``ChannelRateCache.rate(u, v, width)``
        for the edge's endpoints — same scalar function, same inputs.
        """
        column = self._width_columns.get(width)
        if column is None:
            column = np.fromiter(
                (
                    channel_success_probability(p, width)
                    for p in self.edge_probability
                ),
                dtype=np.float64,
                count=len(self.edge_probability),
            )
            self._width_columns[width] = column
        return column

    def _row_rates(self, width: int) -> np.ndarray:
        """``width_rates(width)`` broadcast to CSR slots, filled once."""
        rows = self._row_rate_cache.get(width)
        if rows is None:
            rows = self.width_rates(width)[self.adj_edges]
            self._row_rate_cache[width] = rows
        return rows

    def relay_feasible(self, ledger, width: int) -> np.ndarray:
        """Per-node "may relay at this width" flags for one search batch.

        See :meth:`relay_state`; this is the flags array alone, kept as
        the stable public accessor (the parity suite reads it)."""
        return self.relay_state(ledger, width)[0]

    def relay_state(self, ledger, width: int) -> Tuple[np.ndarray, int]:
        """``(flags, version)`` for relaying at *width* under *ledger*.

        A relay must be a switch holding ``2 * width`` free qubits
        (*width* towards each side).  ``ledger`` is a
        :class:`~repro.routing.allocation.QubitLedger` or ``None`` for
        full capacities — matching the reference's default ledger.

        Flags for a journalled ledger are cached per width and patched
        incrementally: between two calls only the nodes the ledger's
        feasibility journal names (reserves *and* releases — the online
        serving loop's departures) are recomputed, so a long-lived
        session re-plans against a mutating snapshot in O(changes)
        instead of O(nodes) per search batch.  The patched flags equal a
        full rebuild bit-for-bit — each flag is a pure function of that
        node's remaining count.  ``version`` advances exactly when the
        flag *contents* change (a rebuild, or a journal patch that flips
        at least one flag), so equal versions guarantee equal flags —
        the key the search-result memo relies on.  Callers must not
        mutate the ledger while holding the returned array.
        """
        need = 2 * width
        n = len(self.node_ids)
        if ledger is None:
            entry = self._static_relay.get(width)
            if entry is None:
                flags = np.fromiter(
                    (
                        (not user) and (cap is None or cap >= need)
                        for user, cap in zip(self.is_user, self.capacity)
                    ),
                    dtype=bool,
                    count=n,
                )
                entry = (flags, next(self._flags_serial))
                self._static_relay[width] = entry
            return entry
        has = ledger.has_at_least
        token = getattr(ledger, "feasibility_token", None)
        if token is None:  # a ledger-like without a journal: full scan
            flags = np.fromiter(
                (
                    (not user) and has(nid, need)
                    for user, nid in zip(self.is_user, self.node_ids)
                ),
                dtype=bool,
                count=n,
            )
            return flags, self._flags_version_for(width, flags)
        epoch, length = token()
        entry = self._relay_cache.get(width)
        if entry is not None and entry[0] is ledger and entry[1] == epoch:
            flags = entry[3]
            if entry[2] != length:
                index_of = self.index_of
                is_user = self.is_user
                changed = False
                for nid in ledger.journal_since(entry[2]):
                    i = index_of[nid]
                    if not is_user[i]:
                        flag = has(nid, need)
                        if flag != bool(flags[i]):
                            flags[i] = flag
                            changed = True
                entry[2] = length
                if changed:
                    entry[4] = self._flags_version_for(width, flags)
            return flags, entry[4]
        flags = np.fromiter(
            (
                (not user) and has(nid, need)
                for user, nid in zip(self.is_user, self.node_ids)
            ),
            dtype=bool,
            count=n,
        )
        # An epoch change (a ledger restore, a journal compaction) or a
        # new ledger entirely (the next routing call on a persistent
        # snapshot) forces this rebuild, but often lands back on flag
        # contents already seen — admission trials restore to the exact
        # snapshot the last search ran against, and back-to-back calls
        # start from the same full capacities.  The content-addressed
        # version map then re-issues the old version, and with it every
        # memoised search and masked row.
        version = self._flags_version_for(width, flags)
        self._relay_cache[width] = [ledger, epoch, length, flags, version]
        return flags, version

    def _flags_version_for(self, width: int, flags: np.ndarray) -> int:
        """The version for these flag *contents* at *width*, memoised.

        A version is issued once per distinct contents and never reused
        (the serial is global and monotone), so "equal versions imply
        equal flags" — the invariant every version-keyed memo relies on
        — holds by construction.  Clearing a full map only forfeits
        future hits; it cannot alias old versions to new contents.
        """
        by_content = self._flags_versions.setdefault(width, {})
        key = flags.tobytes()
        version = by_content.get(key)
        if version is None:
            if len(by_content) >= 1024:
                by_content.clear()
            version = next(self._flags_serial)
            by_content[key] = version
        return version

    def endpoint_feasible(self, ledger, node_id: int, width: int) -> bool:
        """True iff *node_id* can commit *width* qubits as an endpoint."""
        if ledger is None:
            cap = self.capacity[self.index_of[node_id]]
            return cap is None or cap >= width
        return ledger.has_at_least(node_id, width)

    # ------------------------------------------------------------------
    # The Algorithm 1 kernel

    def _slots_into(self, node_idx: int) -> np.ndarray:
        """CSR slots whose neighbour is *node_idx* (topology-static)."""
        slots = self._in_slots.get(node_idx)
        if slots is None:
            slots = np.flatnonzero(self.adj_nodes == node_idx)
            self._in_slots[node_idx] = slots
        return slots

    def _base_row(
        self, width: int, flags: np.ndarray, version: int
    ) -> np.ndarray:
        """Destination-agnostic masked rate row per (width, version).

        The expensive part of a masked row — folding the relay flags
        into the rate row — does not depend on the destination or the
        banned set, so it is built once per (width, flags version) and
        the per-destination / per-ban variants patch a copy (a handful
        of slots each).
        """
        key = (width, version)
        row = self._base_row_cache.get(key)
        if row is None:
            if len(self._base_row_cache) >= _MASKED_ROW_CACHE_LIMIT:
                self._base_row_cache.clear()
            row = np.where(flags[self.adj_nodes], self._row_rates(width), 0.0)
            self._base_row_cache[key] = row
        return row

    def _masked_row_rates(
        self,
        width: int,
        flags: np.ndarray,
        version: int,
        destination_idx: int,
        banned_edge_ids: FrozenSet[int] = _EMPTY,
    ) -> Tuple[np.ndarray, int]:
        """Slot-aligned candidate rates with infeasible slots zeroed, and
        the row's data address (the native kernel's argument).

        The feasibility mask is folded straight into the rate row: a
        slot whose neighbour may not relay (and is not the destination,
        which needs only endpoint feasibility — the caller's check)
        carries rate 0.0, which the kernel's strict ``candidate > best``
        test rejects exactly like the reference's explicit skip (``best``
        is never below 0).  This reduces relaxing a row to one multiply
        + one compare per slot with no per-edge feasibility lookups.
        Banned edges (Yen's deviation searches) zero both slots of each
        named edge on top of the destination row.  Cached per (width,
        flags version, destination, banned set) — exact because the
        version changes whenever the flag contents do, and a hit for a
        banned variant is common: the same root-prefix bans recur
        across every width of the sweep and every refill round.
        """
        key = (width, version, destination_idx, banned_edge_ids)
        entry = self._masked_row_cache.get(key)
        if entry is None:
            if len(self._masked_row_cache) >= _MASKED_ROW_CACHE_LIMIT:
                self._masked_row_cache.clear()
            if banned_edge_ids:
                row = self._masked_row_rates(
                    width, flags, version, destination_idx
                )[0].copy()
                row[self.edge_slots[sorted(banned_edge_ids)]] = 0.0
            else:
                row = self._base_row(width, flags, version).copy()
                into_destination = self._slots_into(destination_idx)
                row[into_destination] = self._row_rates(width)[
                    into_destination
                ]
            entry = self._masked_row_cache[key] = (row, row.ctypes.data)
        return entry

    def _native_search(
        self,
        kernel,
        source: int,
        destination: int,
        masked_address: int,
        flags: np.ndarray,
        swap2: float,
        banned_idx: FrozenSet[int],
    ) -> Optional[Tuple[List[int], float]]:
        """:meth:`_kernel` run by the native relax loop (``kernel.c``).

        Same arguments and result as the Python kernel, but the masked
        row is passed by its data address (see
        :meth:`_masked_row_rates`) and the flags stay an array.  The
        scratch buffers are allocated on the first call and sized for
        the worst case: each row relaxes at most once, so a search
        pushes at most ``nnz`` entries after the source's.
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
                np.zeros(n, dtype=np.float64),  # best
                np.zeros(n, dtype=np.int64),  # pred
                np.zeros(n, dtype=np.uint8),  # visited
                np.zeros((nnz + 1) * _native.HEAP_ENTRY_BYTES, np.uint8),
                np.zeros(nnz + n + 1, dtype=np.int64),  # touched
            )
            scratch = self._native_scratch = (
                tuple(buf.ctypes.data for buf in buffers)
                + (ctypes.addressof(path), ctypes.addressof(rate)),
                path,
                rate,
                buffers,
            )
        addresses, path, rate, _ = scratch
        banned = (ctypes.c_int64 * len(banned_idx))(*banned_idx)
        length = kernel(
            *addresses, masked_address, flags.ctypes.data, source,
            destination, swap2, banned, len(banned_idx),
        )
        if not length:
            return None
        return path[:length], rate[0]

    def _kernel(
        self,
        source: int,
        destination: int,
        masked: List[float],
        flags: List[bool],
        swap2: float,
        banned_idx: Sequence[int],
    ) -> Optional[Tuple[List[int], float]]:
        """Algorithm 1's modified Dijkstra over masked rate rows, in
        Python: the native kernel's oracle and its fallback.

        *source*/*destination*/*banned_idx* are node **indices**;
        ``masked`` is the slot-aligned rate row with infeasible slots
        zeroed (see :meth:`_masked_row_rates`) and ``flags`` the relay
        flags, both as lists.  Returns ``(index_path, rate)`` or
        ``None``.

        The relaxation replays the reference implementation move for
        move: each popped node's CSR row is relaxed slot-ascending with
        sequential tie-break counters — the same push sequence, so the
        returned path is bit-identical, not merely rate-equal.  Banned
        nodes are excluded by pinning their ``best`` to ``+inf`` (the
        strict test then never updates or pushes them), which also
        covers the reference's relax-time visited test: every rate
        factor is <= 1, so a settled node's rate is never strictly
        beaten.
        """
        if not self._best:
            n = len(self.node_ids)
            self._best = [0.0] * n
            self._pred = [0] * n
            self._visited = [0] * n
        self._stamp += 1
        stamp = self._stamp
        visited = self._visited
        best = self._best
        pred = self._pred
        indptr = self.indptr_list
        adj = self.adj_nodes_list
        heappush = heapq.heappush
        heappop = heapq.heappop
        touched = [source]
        found = False
        try:
            if banned_idx:
                inf = float("inf")
                for i in banned_idx:
                    best[i] = inf
                    touched.append(i)
            best[source] = 1.0
            heap: List[Tuple[float, int, int]] = [(-1.0, 0, source)]
            counter = 1
            while heap:
                negative_rate, _, node = heappop(heap)
                if visited[node] == stamp:
                    continue
                visited[node] = stamp
                if node == destination:
                    found = True
                    break
                rate = -negative_rate
                if node != source:
                    if not flags[node]:
                        continue
                    rate = rate * swap2
                for slot in range(indptr[node], indptr[node + 1]):
                    c = rate * masked[slot]
                    nbr = adj[slot]
                    if c > best[nbr]:
                        best[nbr] = c
                        pred[nbr] = node
                        heappush(heap, (-c, counter, nbr))
                        counter += 1
                        touched.append(nbr)
            if not found:
                return None
            path = [destination]
            while path[-1] != source:
                path.append(pred[path[-1]])
            path.reverse()
            rate_found = best[destination]
        finally:
            for i in touched:
                best[i] = 0.0
        return path, rate_found

    def _resolve_bans(
        self, banned_nodes: FrozenSet[int], banned_edges: FrozenSet[EdgeKey]
    ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """Banned node ids and edge keys as node indices and edge ids.

        Entries outside the network are dropped: they are unreachable
        anyway.
        """
        if banned_nodes:
            index_of = self.index_of
            node_idx = frozenset(
                index_of[n] for n in banned_nodes if n in index_of
            )
        else:
            node_idx = _EMPTY
        if banned_edges:
            edge_index = self.edge_index
            edge_ids = frozenset(
                edge_index[e] for e in banned_edges if e in edge_index
            )
        else:
            edge_ids = _EMPTY
        return node_idx, edge_ids

    def _search_indexed(
        self,
        source_idx: int,
        destination_idx: int,
        width: int,
        swap2: float,
        ledger,
        banned_node_idx: FrozenSet[int],
        banned_edge_ids: FrozenSet[int],
    ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """:meth:`run_search` over endpoint indices and resolved bans
        (see :meth:`_resolve_bans`): the memo lookup, then one kernel
        call on a miss."""
        flags, version = self.relay_state(ledger, width)
        key = (
            source_idx,
            destination_idx,
            width,
            version,
            swap2,
            banned_node_idx,
            banned_edge_ids,
        )
        memo = self._search_memo
        hit = memo.get(key, _MISS)
        if hit is not _MISS:
            return hit
        masked, masked_address = self._masked_row_rates(
            width, flags, version, destination_idx, banned_edge_ids
        )
        kernel = _native.KERNEL
        if kernel is not None:
            found = self._native_search(
                kernel, source_idx, destination_idx, masked_address, flags,
                swap2, banned_node_idx,
            )
        else:
            found = self._kernel(
                source_idx, destination_idx, masked.tolist(),
                flags.tolist(), swap2, sorted(banned_node_idx),
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

    def run_search(
        self,
        source: int,
        destination: int,
        width: int,
        swap2: float,
        ledger=None,
        banned_nodes: Iterable[int] = (),
        banned_edges: Iterable[EdgeKey] = (),
    ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """One memoised Algorithm-1 search in node **ids**.

        Endpoint feasibility (and the banned-endpoint short-circuit) is
        the caller's job — see :meth:`WidthSearchBatch.search`, the
        normal way in.  Results are memoised on the snapshot keyed by
        the exact kernel inputs, so a hit is bitwise-identical to a
        fresh search by construction; the relay-flags *version* in the
        key invalidates entries the moment any flag flips.
        """
        banned_node_idx, banned_edge_ids = self._resolve_bans(
            frozenset(banned_nodes), frozenset(banned_edges)
        )
        index_of = self.index_of
        return self._search_indexed(
            index_of[source], index_of[destination], width, swap2, ledger,
            banned_node_idx, banned_edge_ids,
        )


def compile_network(
    network: QuantumNetwork, link_model: LinkModel
) -> CompiledNetwork:
    """Flatten *network* + *link_model* into a :class:`CompiledNetwork`."""
    return CompiledNetwork(network, link_model)


def snapshot_for(
    network: QuantumNetwork,
    link_model: LinkModel,
    rate_cache=None,
) -> CompiledNetwork:
    """The snapshot for ``(network, link_model)``, shared via *rate_cache*.

    Routers already thread one
    :class:`~repro.routing.metrics.ChannelRateCache` through a
    ``route()`` call; hanging the snapshot off it gives every search in
    the call one snapshot with no new plumbing.  A cache bound to a
    different network or link model is ignored (fresh snapshot) rather
    than trusted.
    """
    if (
        rate_cache is not None
        and rate_cache.network is network
        and rate_cache.link_model is link_model
    ):
        snapshot = rate_cache.compiled_snapshot
        if snapshot is None:
            snapshot = _persistent_snapshot(network, link_model)
            rate_cache.compiled_snapshot = snapshot
        return snapshot
    return _persistent_snapshot(network, link_model)


#: Snapshot memo entries kept per network before a wholesale clear.
_SNAPSHOT_MEMO_LIMIT = 4


def _persistent_snapshot(
    network: QuantumNetwork, link_model: LinkModel
) -> CompiledNetwork:
    """A :class:`CompiledNetwork` for ``(network, link_model)``, memoised
    on the network object across routing calls.

    Sweeps and Monte-Carlo trials route the same network hundreds of
    times; the snapshot (CSR layout, rate columns, masked rows, search
    memo) is a pure function of the topology and the link model, so it
    is kept on the network keyed by ``(link_model, topology_version)``
    — the frozen-dataclass link model compares by value and the version
    counter changes exactly when the topology mutates, so a stale
    snapshot can never be returned.  Network-likes without the counter
    (or without a ``__dict__``) just get a fresh snapshot.
    """
    version = getattr(network, "topology_version", None)
    if version is None:
        return CompiledNetwork(network, link_model)
    key = (link_model, version)
    try:
        memo = network.__dict__.setdefault("_compiled_snapshots", {})
    except AttributeError:
        return CompiledNetwork(network, link_model)
    snapshot = memo.get(key)
    if snapshot is None:
        if len(memo) >= _SNAPSHOT_MEMO_LIMIT:
            memo.clear()
        snapshot = CompiledNetwork(network, link_model)
        memo[key] = snapshot
    return snapshot


# ----------------------------------------------------------------------
# Batched width search — the kernel-facing API


class WidthSearchBatch:
    """All Algorithm-1 searches of one demand against one snapshot.

    Binds ``(snapshot, swap model, endpoints, widths, ledger)`` once, so
    every width and every Yen deviation of the demand runs through the
    same hoisted state and the snapshot's shared search-result memo.
    Construct per demand (cheap: index lookups only) and discard freely;
    the lifetime rules are the snapshot's (see the module docstring).
    """

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
        ledger=None,
    ):
        if source == destination:
            raise RoutingError("source and destination must differ")
        index_of = snapshot.index_of
        if source not in index_of or destination not in index_of:
            raise RoutingError(
                f"endpoints ({source}, {destination}) must exist in the network"
            )
        self.widths: Tuple[int, ...] = tuple(widths)
        for width in self.widths:
            if width < 1:
                raise RoutingError(f"width must be >= 1, got {width}")
        self.snapshot = snapshot
        self.ledger = ledger
        self.swap2 = swap_model.success_probability(2)
        self.source = source
        self.destination = destination

    def search(
        self,
        width: int,
        spur_source: Optional[int] = None,
        banned_nodes: Iterable[int] = (),
        banned_edges: Iterable[EdgeKey] = (),
    ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """The best path at *width*, optionally from a Yen spur source.

        Checks endpoint feasibility against the live ledger (never
        memoised — endpoint counts can change without any relay flag
        flipping), then answers from the snapshot's search memo or runs
        the kernel.  Returns ``(nodes, rate)`` or ``None``.  The banned
        sets may be any iterables, generators included: they are read
        exactly once.
        """
        banned_nodes = frozenset(banned_nodes)
        banned_edges = frozenset(banned_edges)
        snapshot = self.snapshot
        ledger = self.ledger
        source = self.source if spur_source is None else spur_source
        destination = self.destination
        if source in banned_nodes or destination in banned_nodes:
            return None
        if not snapshot.endpoint_feasible(ledger, source, width):
            return None
        if not snapshot.endpoint_feasible(ledger, destination, width):
            return None
        return snapshot.run_search(
            source, destination, width, self.swap2, ledger,
            banned_nodes, banned_edges,
        )

    def search_widths(
        self,
        spur_source: Optional[int] = None,
        banned_nodes: Iterable[int] = (),
        banned_edges: Iterable[EdgeKey] = (),
    ) -> Dict[int, Optional[Tuple[Tuple[int, ...], float]]]:
        """:meth:`search` for every batch width in one call.

        Returns ``{width: (nodes, rate) | None}`` covering exactly the
        batch's widths, each answer bit-identical to a standalone
        :meth:`search`.  The banned sets are read once and resolved to
        indices once for the whole batch; per-width endpoint
        feasibility, the banned-endpoint short-circuit and the
        snapshot's search memo are consulted exactly as :meth:`search`
        does, and each width the memo misses costs one kernel call.
        """
        banned_nodes = frozenset(banned_nodes)
        banned_edges = frozenset(banned_edges)
        snapshot = self.snapshot
        ledger = self.ledger
        source = self.source if spur_source is None else spur_source
        destination = self.destination
        if source in banned_nodes or destination in banned_nodes:
            return dict.fromkeys(self.widths)
        banned_node_idx, banned_edge_ids = snapshot._resolve_bans(
            banned_nodes, banned_edges
        )
        src_idx = snapshot.index_of[source]
        dst_idx = snapshot.index_of[destination]
        results: Dict[int, Optional[Tuple[Tuple[int, ...], float]]] = {}
        for width in self.widths:
            if snapshot.endpoint_feasible(
                ledger, source, width
            ) and snapshot.endpoint_feasible(ledger, destination, width):
                results[width] = snapshot._search_indexed(
                    src_idx, dst_idx, width, self.swap2, ledger,
                    banned_node_idx, banned_edge_ids,
                )
            else:
                results[width] = None
        return results


def search_widths(
    snapshot: CompiledNetwork,
    swap_model: SwapModel,
    demand: Demand,
    widths: Sequence[int],
    *,
    ledger=None,
    banned_nodes: Iterable[int] = (),
    banned_edges: Iterable[EdgeKey] = (),
) -> Dict[int, Optional[Tuple[Tuple[int, ...], float]]]:
    """Batched kernel entry point: one demand, every width, one call.

    Builds a :class:`WidthSearchBatch` for *demand* and answers every
    width in *widths* (see :meth:`WidthSearchBatch.search_widths`).
    """
    batch = WidthSearchBatch(
        snapshot, swap_model, demand.source, demand.destination, widths,
        ledger,
    )
    return batch.search_widths(
        banned_nodes=banned_nodes, banned_edges=banned_edges
    )


# ----------------------------------------------------------------------
# Compiled Algorithm 1 entry point


def compiled_search(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    source: int,
    destination: int,
    width: int,
    ledger=None,
    banned_nodes: FrozenSet[int] = frozenset(),
    banned_edges: FrozenSet[EdgeKey] = frozenset(),
    rate_cache=None,
) -> Optional[Tuple[Tuple[int, ...], float]]:
    """Compiled body of Algorithm 1 (arguments as the reference wrapper).

    The caller —
    :func:`~repro.routing.alg1_largest_rate.largest_entanglement_rate_path`
    — has already validated widths, endpoints and banned-endpoint
    cases; this dispatches a single-width :class:`WidthSearchBatch`
    so standalone Algorithm-1 calls share the snapshot's search memo
    with the Algorithm-2 sweeps.
    """
    snapshot = snapshot_for(network, link_model, rate_cache)
    batch = WidthSearchBatch(
        snapshot, swap_model, source, destination, (width,), ledger
    )
    return batch.search(
        width, banned_nodes=banned_nodes, banned_edges=banned_edges
    )


# ----------------------------------------------------------------------
# Yen's deviation scheme (core-independent orchestration)


def yen_deviation_loop(first, h, search, path_rate):
    """Yen's k-best deviation scheme around a single-path solver.

    ``first`` is the solver's ``(nodes, rate)`` for the full demand;
    ``search(spur_source, banned_node_ids, banned_edge_keys)`` returns
    the best ``(nodes, rate)`` under those bans or ``None``;
    ``path_rate(nodes)`` scores a stitched root+spur candidate (``None``
    skips it).  Returns the accepted ``(nodes, rate)`` list, best first.

    This single driver serves both routing cores — only the solver and
    the path scorer differ — so the orchestration that bit-parity
    depends on (banned-edge accumulation, dedup, candidate heap,
    tie-break counters) cannot drift between them.
    """
    accepted: List[Tuple[Tuple[int, ...], float]] = [first]
    seen = {first[0]}
    counter = itertools.count()
    candidates: List[Tuple[float, int, Tuple[int, ...]]] = []

    while len(accepted) < h:
        previous_nodes = accepted[-1][0]
        for deviation_index in range(len(previous_nodes) - 1):
            root = previous_nodes[: deviation_index + 1]
            spur_node = previous_nodes[deviation_index]
            banned_edges = set()
            for path_nodes, _ in accepted:
                if tuple(path_nodes[: deviation_index + 1]) == root:
                    banned_edges.add(
                        _ekey(
                            path_nodes[deviation_index],
                            path_nodes[deviation_index + 1],
                        )
                    )
            spur = search(spur_node, root[:-1], banned_edges)
            if spur is None:
                continue
            total_nodes = root[:-1] + spur[0]
            if total_nodes in seen:
                continue
            seen.add(total_nodes)
            total_rate = path_rate(total_nodes)
            if total_rate is None:  # pragma: no cover - spur paths are valid
                continue
            heapq.heappush(
                candidates, (-total_rate, next(counter), total_nodes)
            )
        if not candidates:
            break
        negative_rate, _, nodes = heapq.heappop(candidates)
        accepted.append((nodes, -negative_rate))

    return accepted


# ----------------------------------------------------------------------
# Compiled Algorithm 2 (Yen + the batched kernel)


def compiled_select_paths(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    demand: Demand,
    h: int,
    max_width: int,
    ledger=None,
    rate_cache=None,
    banned_nodes: FrozenSet[int] = frozenset(),
    banned_edges: FrozenSet[EdgeKey] = frozenset(),
) -> Dict[int, List[PathCandidate]]:
    """Compiled body of Algorithm 2's per-width Yen loop.

    One :class:`WidthSearchBatch` serves every width: the initial
    searches of all widths run as one :meth:`~WidthSearchBatch.
    search_widths` sweep, then each feasible width's Yen deviations
    drive the same batch (and therefore the same snapshot memo — spur
    searches repeated across widths and refill rounds are answered
    once).  *banned_nodes*/*banned_edges* are session-wide masks (the
    serving loop's down elements); they reach every search — including
    each Yen deviation, unioned with the deviation's own bans — as
    memo-keyed mask sets, so fault state changes cost O(changes) of
    re-masked rows rather than a snapshot rebuild.  Parameter
    validation and the ``max_hops`` filter stay in
    :func:`~repro.routing.alg2_path_selection.select_paths`.
    """
    snapshot = snapshot_for(network, link_model, rate_cache)
    widths = tuple(range(max_width, 0, -1))
    batch = WidthSearchBatch(
        snapshot, swap_model, demand.source, demand.destination, widths,
        ledger,
    )
    firsts = batch.search_widths(
        banned_nodes=banned_nodes, banned_edges=banned_edges
    )
    result: Dict[int, List[PathCandidate]] = {}
    for width in widths:
        first = firsts[width]
        if first is None:
            continue
        paths = _compiled_yen_best_paths(
            batch, demand, width, h, first, banned_nodes, banned_edges
        )
        if paths:
            result[width] = paths
    return result


def _compiled_yen_best_paths(
    batch: WidthSearchBatch,
    demand: Demand,
    width: int,
    h: int,
    first: Tuple[Tuple[int, ...], float],
    banned_nodes: FrozenSet[int] = frozenset(),
    banned_edges: FrozenSet[EdgeKey] = frozenset(),
) -> List[PathCandidate]:
    """The shared :func:`yen_deviation_loop` driven by one width of a
    :class:`WidthSearchBatch`."""
    snapshot = batch.snapshot
    rates = snapshot.width_rates(width)
    swap2 = batch.swap2

    def run_alg1(spur_source, banned_node_ids, banned_edge_keys):
        return batch.search(
            width,
            spur_source,
            banned_nodes | frozenset(banned_node_ids),
            banned_edges | frozenset(banned_edge_keys),
        )

    accepted = yen_deviation_loop(
        first, h, run_alg1,
        lambda nodes: _compiled_path_rate(snapshot, nodes, rates, swap2),
    )
    return [
        PathCandidate(demand.demand_id, nodes, width, rate)
        for nodes, rate in accepted
    ]


def _compiled_path_rate(
    snapshot: CompiledNetwork,
    nodes: Tuple[int, ...],
    rates: Sequence[float],
    swap2: float,
) -> float:
    """Uniform-width path rate over the snapshot's rate column.

    Multiplication order matches
    :func:`~repro.routing.metrics.path_entanglement_rate` — edges in
    path order, then intermediate swap factors in path order (users
    contribute an exact 1.0, i.e. no multiply) — so the float result is
    bit-identical.
    """
    edge_index = snapshot.edge_index
    rate = 1.0
    for a, b in zip(nodes, nodes[1:]):
        rate *= rates[edge_index[(a, b) if a < b else (b, a)]]
    is_user = snapshot.is_user
    index_of = snapshot.index_of
    for node in nodes[1:-1]:
        if not is_user[index_of[node]]:
            rate *= swap2
    # The rate column is float64; hand back a plain float like the
    # reference scorer (same bits, friendlier repr downstream).
    return float(rate)
