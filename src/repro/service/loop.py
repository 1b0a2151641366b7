"""The event-driven serving loop.

Demands arrive one at a time (:mod:`repro.service.arrivals`), are
routed against whatever capacity earlier flows left behind, hold their
qubits for their holding time and then depart, releasing the capacity
for later arrivals.  Two re-planning modes drive the router per
arrival:

``incremental``
    Calls the router's ``route_online`` interface (when it has one)
    with a session-long :class:`~repro.routing.allocation.QubitLedger`
    and channel-rate cache, so each arrival re-plans against O(changes)
    of incremental state — the ledger's feasibility journal patches the
    compiled core's cached relay flags instead of rebuilding them, and
    each arrival's width sweep runs through the compiled core's
    ``search_widths`` batch and its native search kernel, so
    per-arrival latency benefits from the same kernel as the offline
    sweeps.

``resnapshot``
    Rebuilds a residual-capacity copy of the network per arrival and
    runs the router's ordinary batch ``route`` on it.  Works with
    *any* registry router; the baseline the incremental path must beat.

Fault injection (:mod:`repro.service.faults`) merges link/switch
down/up events into the same event stream.  A down event masks the
element out of all future routing — the ``incremental`` mode passes
the session's down-element sets as search-time bans (memo-keyed masks
on the compiled snapshot, O(changes) per fault transition), the
``resnapshot`` mode omits the elements from the residual view; the
two are bit-identical because a masked element searches exactly like
an absent one — and invalidates every held flow crossing it.  Each
disrupted flow is released exactly (the ledger journal replays the
release like any departure) and handed to the repair policy: ``drop``
counts it, ``reroute`` re-plans it now and retries on a deterministic
backoff schedule, degrading to a counted drop when the budget runs out.
Repair never raises out of the loop: a routing failure is a failed
attempt, not a crash.

The two modes are decision-identical by construction (``route_online``
mirrors ``route`` on the residual view), so the deterministic metrics
never depend on the mode — only the re-plan latency does.  Wall-clock
latency (re-plan and recovery alike) is measured through the
sanctioned :func:`repro.utils.timing.perf_timer` accessor and reported
separately from the deterministic metrics; it must never reach stdout
or a cache.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError, ReproError
from repro.network.demands import Demand, DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache
from repro.service.arrivals import ArrivalEvent, validate_events
from repro.service.faults import KIND_ORDER, FaultEvent, RepairSpec, as_repair
from repro.utils.timing import perf_timer

EdgeKey = Tuple[int, int]

#: Valid re-planning modes, in CLI listing order.
REPLAN_MODES = ("incremental", "resnapshot")

#: Fixed tie-break order of simultaneous events, lowest first:
#: departures release capacity before anything else sees the instant;
#: element repairs land before element failures (a recovering element
#: must not mask a concurrent failure elsewhere); repair retries run
#: before new arrivals compete for the freed capacity.  Equal-priority
#: ties fall back to push order (a monotone sequence number).
_PRI_DEPARTURE = 0
_PRI_FAULT_BASE = 1  # + KIND_ORDER[kind]: up events 1-2, down events 3-4
_PRI_RETRY = 5
_PRI_ARRIVAL = 6


@dataclass(frozen=True)
class ServeMetrics:
    """Deterministic steady-state metrics of one serving run.

    Counters cover events inside the measurement window
    ``[warmup, duration)``; the time-averaged quantities integrate over
    that window, including the contribution of flows admitted during
    warmup that are still held.  ``disruptions`` counts held flows
    invalidated by a fault, ``repaired``/``dropped`` how each
    disruption resolved (every in-window disruption resolves to exactly
    one of the two), ``repair_ratio`` their quotient.  Every field is a
    pure function of the event list and the routing decisions — safe to
    cache and to print on stdout.
    """

    arrivals: int
    admitted: int
    rejected: int
    admission_ratio: float
    throughput: float
    mean_held: float
    mean_hold: float
    disruptions: int = 0
    repaired: int = 0
    dropped: int = 0
    repair_ratio: float = 0.0


@dataclass(frozen=True)
class ServeRun:
    """One serving run: deterministic metrics plus wall-clock latencies.

    ``latencies_s`` holds one re-plan latency (seconds) per arrival, in
    arrival order; ``repair_latencies_s`` one recovery latency per
    repair attempt (successful or not), in attempt order; ``mode`` is
    the re-planning path actually taken (a router without
    ``route_online`` falls back to ``resnapshot``).
    """

    metrics: ServeMetrics
    latencies_s: List[float]
    mode: str
    repair_latencies_s: List[float] = field(default_factory=list)


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank percentile summary of re-plan latencies, in ms."""
    values = sorted(latencies_s)
    if not values:
        return {"count": 0, "p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}

    def rank(fraction: float) -> float:
        index = math.ceil(fraction * len(values)) - 1
        return values[max(0, min(index, len(values) - 1))] * 1000.0

    return {
        "count": len(values),
        "p50_ms": rank(0.50),
        "p99_ms": rank(0.99),
        "mean_ms": sum(values) / len(values) * 1000.0,
    }


def residual_view(
    network: QuantumNetwork,
    ledger: QubitLedger,
    down_edges: FrozenSet[EdgeKey] = frozenset(),
    down_switches: FrozenSet[int] = frozenset(),
) -> QuantumNetwork:
    """A copy of *network* whose switch capacities are the ledger's
    remaining counts (users stay unlimited, lengths are preserved).

    Down elements are omitted *as edges only*: a down edge disappears,
    a down switch keeps its node (so user/switch orderings — and the
    derived default max width — match the incremental mode's view of
    the full network) but loses every incident edge, which makes it
    unroutable exactly like the incremental mode's node ban.
    """
    view = QuantumNetwork()
    for node_id in network.nodes():
        node = network.node(node_id)
        if node.qubit_capacity is not None:
            node = dataclasses.replace(
                node, qubit_capacity=int(ledger.remaining(node_id))
            )
        view.add_node(node)
    for u, v in network.edge_keys():
        if (u, v) in down_edges:
            continue
        if u in down_switches or v in down_switches:
            continue
        view.add_edge(u, v, network.edge_length(u, v))
    return view


class ServeSession:
    """Mutable serving state over one network: ledger, caches, router,
    and the current fault state (down edges/switches)."""

    def __init__(
        self,
        network: QuantumNetwork,
        link_model: LinkModel,
        swap_model: SwapModel,
        router,
        replan: str = "incremental",
    ):
        if replan not in REPLAN_MODES:
            raise ConfigurationError(
                f"replan mode must be one of {', '.join(REPLAN_MODES)}, "
                f"got {replan!r}"
            )
        self.network = network
        self.users = network.users()
        self.link_model = link_model
        self.swap_model = swap_model
        self.router = router
        self.ledger = QubitLedger(network)
        # Session-long channel-rate memo: the incremental path reuses it
        # (and the compiled snapshot hanging off it) across arrivals.
        self.rate_cache = ChannelRateCache(network, link_model)
        # Fault state: updated by mark_* transitions, read as frozen
        # ban sets by every routing call.  The compiled snapshot keys
        # its search memo and masked rate rows on these sets, so each
        # distinct fault state pays its masking once and is O(1) after.
        self.down_edges: FrozenSet[EdgeKey] = frozenset()
        self.down_switches: FrozenSet[int] = frozenset()
        self._online = (
            getattr(router, "route_online", None)
            if replan == "incremental"
            else None
        )
        self.mode = "incremental" if self._online is not None else "resnapshot"

    # -- fault-state transitions ---------------------------------------

    def mark_edge(self, edge: EdgeKey, down: bool) -> bool:
        """Record one edge's up/down transition; True when it changed."""
        if down == (edge in self.down_edges):
            return False
        if down:
            self.down_edges = self.down_edges | {edge}
        else:
            self.down_edges = self.down_edges - {edge}
        return True

    def mark_switch(self, switch: int, down: bool) -> bool:
        """Record one switch's up/down transition; True when changed."""
        if down == (switch in self.down_switches):
            return False
        if down:
            self.down_switches = self.down_switches | {switch}
        else:
            self.down_switches = self.down_switches - {switch}
        return True

    # -- routing -------------------------------------------------------

    def route_arrival(
        self, demand: Demand
    ) -> Optional[Tuple[FlowLikeGraph, float]]:
        """Plan one arrival; returns ``(flow, rate)`` or ``None``.

        Down elements never appear in the result: the incremental path
        passes them as search bans, the resnapshot path routes on a
        view without them.  On admission the session ledger is charged
        with the flow's full qubit usage; :meth:`release_flow` undoes
        it at departure.
        """
        if self._online is not None:
            result = self._online(
                self.network,
                demand,
                self.link_model,
                self.swap_model,
                ledger=self.ledger,
                rate_cache=self.rate_cache,
                banned_nodes=self.down_switches,
                banned_edges=self.down_edges,
            )
        else:
            view = residual_view(
                self.network, self.ledger, self.down_edges,
                self.down_switches,
            )
            result = self.router.route(
                view, DemandSet([demand]), self.link_model, self.swap_model
            )
        flow = result.plan.flow_for(demand.demand_id)
        if flow is None or flow.num_paths == 0:
            return None
        if self._online is None:
            # The batch route charged its own ledger over the view;
            # mirror the reservation onto the session ledger.
            for node in flow.nodes():
                self.ledger.reserve(node, flow.qubits_used_at(node))
        return flow, result.demand_rates[demand.demand_id]

    def release_flow(self, flow: FlowLikeGraph) -> None:
        """Dismantle a departing (or disrupted) flow, returning its
        qubits to the ledger path by path (exercising the incremental
        release APIs) — the ledger ends byte-identical to never having
        admitted the flow."""
        for path in flow.paths:
            released = flow.remove_path(path)
            for (u, v), width in sorted(released.items()):
                self.ledger.release(u, width)
                self.ledger.release(v, width)


class _HeldFlow:
    """One admitted flow while it holds capacity."""

    __slots__ = ("seq", "flow", "demand", "departure", "rate", "edges",
                 "switches")

    def __init__(self, seq, flow, demand, departure, rate, edges, switches):
        self.seq = seq
        self.flow = flow
        self.demand = demand
        self.departure = departure
        self.rate = rate
        self.edges = edges
        self.switches = switches


class _RepairJob:
    """One disrupted flow moving through the repair policy."""

    __slots__ = ("demand", "departure", "attempt", "in_window")

    def __init__(self, demand, departure, in_window):
        self.demand = demand
        self.departure = departure
        self.attempt = 0
        self.in_window = in_window


def run_serve(
    network: QuantumNetwork,
    link_model: LinkModel,
    swap_model: SwapModel,
    router,
    events: Sequence[ArrivalEvent],
    duration: float,
    warmup: float,
    replan: str = "incremental",
    faults: Sequence[FaultEvent] = (),
    repair: Union[str, RepairSpec, None] = None,
) -> ServeRun:
    """Serve one replication's event list and report its metrics.

    Simultaneous events process in a fixed order — departures, element
    repairs (links before switches), element failures (links before
    switches), repair retries, then arrivals — so an arrival always
    sees every release up to its own timestamp and fault transitions
    are deterministic.  Window integrals are accumulated at admission
    time with the flow's ``[arrival, departure)`` interval clamped to
    ``[warmup, duration)`` and corrected when a disruption (or a later
    repair) changes the interval actually served — exact, and
    independent of processing order.

    *faults* is a time-sorted :class:`FaultEvent` timeline (element
    indices into the sorted ``edge_keys()``/``switches()`` lists);
    *repair* the policy for disrupted flows (default ``reroute``).
    """
    if not duration > 0:
        raise ConfigurationError(f"duration must be > 0, got {duration!r}")
    if not 0 <= warmup < duration:
        raise ConfigurationError(
            f"warmup must satisfy 0 <= warmup < duration, got "
            f"warmup={warmup!r}, duration={duration!r}"
        )
    validate_events(events)
    repair_spec = as_repair(repair) if repair is not None else RepairSpec()
    retry_delays = repair_spec.delays()
    session = ServeSession(network, link_model, swap_model, router, replan)
    users = session.users
    edge_keys = network.edge_keys()
    switch_ids = network.switches()
    switch_set = frozenset(switch_ids)
    window = duration - warmup

    last_fault_time: Optional[float] = None
    for fault in faults:
        if last_fault_time is not None and fault.time < last_fault_time:
            raise ConfigurationError(
                f"fault events must be time-sorted; event at "
                f"t={fault.time!r} precedes its predecessor at "
                f"t={last_fault_time!r}"
            )
        last_fault_time = fault.time
        limit = (
            len(edge_keys) if fault.kind.startswith("link") else
            len(switch_ids)
        )
        if fault.element >= limit:
            raise ConfigurationError(
                f"fault at t={fault.time!r} names element "
                f"{fault.element} but the network has {limit} "
                f"{'edges' if fault.kind.startswith('link') else 'switches'}"
            )

    # One heap carries every event class; entries are
    # (time, priority, push_seq, payload).
    heap: List[Tuple[float, int, int, object]] = []
    push_seq = 0

    def push(time: float, priority: int, payload: object) -> None:
        nonlocal push_seq
        heappush(heap, (time, priority, push_seq, payload))
        push_seq += 1

    for index, event in enumerate(events):
        if event.time >= duration:
            break
        push(event.time, _PRI_ARRIVAL, (index, event))
    for fault in faults:
        if fault.time >= duration:
            break
        push(fault.time, _PRI_FAULT_BASE + KIND_ORDER[fault.kind], fault)

    held: Dict[int, _HeldFlow] = {}
    hold_seq = 0
    arrivals = admitted = 0
    disruptions = repaired = dropped = 0
    hold_sum = 0.0
    rate_integral = 0.0
    held_integral = 0.0
    latencies: List[float] = []
    repair_latencies: List[float] = []

    def overlap(start: float, end: float) -> float:
        return max(0.0, min(end, duration) - max(start, warmup))

    def admit(flow, demand, departure, rate, now) -> None:
        nonlocal hold_seq, rate_integral, held_integral
        rate_integral += rate * overlap(now, departure)
        held_integral += overlap(now, departure)
        record = _HeldFlow(
            seq=hold_seq,
            flow=flow,
            demand=demand,
            departure=departure,
            rate=rate,
            edges=frozenset(flow.edges()),
            switches=frozenset(n for n in flow.nodes() if n in switch_set),
        )
        held[hold_seq] = record
        push(departure, _PRI_DEPARTURE, hold_seq)
        hold_seq += 1

    def attempt_repair(job: _RepairJob, now: float) -> None:
        """One repair attempt; schedules the next or counts a drop.

        Never raises: a routing error is a failed attempt like any
        infeasible re-route, so a pathological fault state degrades to
        a counted drop instead of crashing the loop.
        """
        nonlocal repaired, dropped
        start = perf_timer()
        try:
            routed = session.route_arrival(job.demand)
        except ReproError:
            routed = None
        repair_latencies.append(perf_timer() - start)
        if routed is not None:
            flow, rate = routed
            if job.in_window:
                repaired += 1
            admit(flow, job.demand, job.departure, rate, now)
            return
        if job.attempt < len(retry_delays):
            next_time = now + retry_delays[job.attempt]
            job.attempt += 1
            if next_time < job.departure and next_time < duration:
                push(next_time, _PRI_RETRY, job)
                return
            # A retry landing at or after the flow's departure (or the
            # horizon) can never restore service, and later retries in
            # the schedule land later still: degrade to a drop now.
        if job.in_window:
            dropped += 1

    def resolve_disruption(record: _HeldFlow, now: float) -> None:
        """Account one already-released disrupted flow and hand it to
        the repair policy."""
        nonlocal disruptions, dropped, rate_integral, held_integral
        # Undo the optimistically-accumulated remainder of the flow's
        # interval; what was actually served ([admit, now)) stays.
        rate_integral -= record.rate * overlap(now, record.departure)
        held_integral -= overlap(now, record.departure)
        in_window = now >= warmup
        if in_window:
            disruptions += 1
        if repair_spec.kind == "drop":
            if in_window:
                dropped += 1
            return
        attempt_repair(_RepairJob(record.demand, record.departure, in_window),
                       now)

    def apply_fault(fault: FaultEvent, now: float) -> None:
        if fault.kind == "link_down":
            edge = edge_keys[fault.element]
            if not session.mark_edge(edge, down=True):
                return
            affected = [r for r in held.values() if edge in r.edges]
        elif fault.kind == "link_up":
            session.mark_edge(edge_keys[fault.element], down=False)
            return
        elif fault.kind == "switch_down":
            switch = switch_ids[fault.element]
            if not session.mark_switch(switch, down=True):
                return
            affected = [r for r in held.values() if switch in r.switches]
        else:  # switch_up
            session.mark_switch(switch_ids[fault.element], down=False)
            return
        # Release every overlapping flow first (repairs then see all
        # the freed capacity), then repair in admission order.
        affected.sort(key=lambda record: record.seq)
        for record in affected:
            del held[record.seq]
            session.release_flow(record.flow)
        for record in affected:
            resolve_disruption(record, now)

    while heap:
        time, priority, _, payload = heappop(heap)
        if time >= duration:
            break
        if priority == _PRI_DEPARTURE:
            record = held.pop(payload, None)
            if record is not None:
                session.release_flow(record.flow)
            continue
        if priority == _PRI_RETRY:
            attempt_repair(payload, time)
            continue
        if priority != _PRI_ARRIVAL:
            apply_fault(payload, time)
            continue
        index, event = payload
        if event.source_index >= len(users) or event.dest_index >= len(users):
            raise ConfigurationError(
                f"arrival at t={event.time!r} names user index "
                f"{max(event.source_index, event.dest_index)} but the "
                f"network has {len(users)} users"
            )
        demand = Demand(
            demand_id=index,
            source=users[event.source_index],
            destination=users[event.dest_index],
        )
        start = perf_timer()
        routed = session.route_arrival(demand)
        latencies.append(perf_timer() - start)
        in_window = event.time >= warmup
        if in_window:
            arrivals += 1
        if routed is None:
            continue
        flow, rate = routed
        if in_window:
            admitted += 1
            hold_sum += event.hold
        admit(flow, demand, event.time + event.hold, rate, event.time)

    metrics = ServeMetrics(
        arrivals=arrivals,
        admitted=admitted,
        rejected=arrivals - admitted,
        admission_ratio=admitted / arrivals if arrivals else 0.0,
        throughput=rate_integral / window,
        mean_held=held_integral / window,
        mean_hold=hold_sum / admitted if admitted else 0.0,
        disruptions=disruptions,
        repaired=repaired,
        dropped=dropped,
        repair_ratio=repaired / disruptions if disruptions else 0.0,
    )
    return ServeRun(
        metrics=metrics,
        latencies_s=latencies,
        mode=session.mode,
        repair_latencies_s=repair_latencies,
    )
