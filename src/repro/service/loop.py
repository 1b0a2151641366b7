"""The event-driven serving loop.

Demands arrive one at a time (:mod:`repro.service.arrivals`), hold
qubits for their holding time and then depart, releasing them for later
arrivals.  Each arrival is one call of the router's ``route`` on a
one-demand set with the session-long ledger, channel-rate cache and
down elements, so every router re-plans warm on the session's compiled
snapshot and search memo (relay flags are rebuilt when the ledger's
``version`` moves, O(nodes) per width).  Routing a residual copy of the
network cold plans identically; that slower path is the oracle in
:mod:`repro.service.residual`.

Fault injection (:mod:`repro.service.faults`) merges link/switch
down/up events into the same event stream.  A down event masks the
element out of all future routing (as a search-time ban, memo-keyed on
the compiled snapshot and O(changes) per transition) and invalidates
every held flow crossing it.  Each
disrupted flow is released exactly (the release moves the ledger's
version like any departure) and handed to the repair policy: ``drop``
counts it, ``reroute`` re-plans it now and retries on a deterministic
backoff schedule, degrading to a counted drop when the budget runs out.
Repair never raises out of the loop: a routing failure is a failed
attempt, not a crash.

Wall-clock latency (re-plan and recovery alike) is measured through the
sanctioned :func:`repro.utils.timing.perf_timer` accessor and reported
separately from the deterministic metrics; it must never reach stdout
or a cache.
"""

from __future__ import annotations

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
from repro.service.faults import KIND_ORDER, FaultEvent, RepairSpec
from repro.utils.timing import perf_timer

EdgeKey = Tuple[int, int]

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
    repair attempt (successful or not), in attempt order.
    """

    metrics: ServeMetrics
    latencies_s: List[float]
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


class ServeSession:
    """Mutable serving state over one network: ledger, caches, router,
    and the current fault state (down edges/switches)."""

    def __init__(
        self,
        network: QuantumNetwork,
        link_model: LinkModel,
        swap_model: SwapModel,
        router,
    ):
        self.network = network
        self.users = network.users()
        self.link_model = link_model
        self.swap_model = swap_model
        self.router = router
        self.ledger = QubitLedger(network)
        # Session-long channel-rate memo: every re-plan reuses it (and
        # the compiled snapshot hanging off it) across arrivals.
        self.rate_cache = ChannelRateCache(network, link_model)
        # Fault state: updated by mark_* transitions, read as frozen
        # ban sets by every routing call.  The compiled snapshot keys
        # its search memo on these sets, so each distinct fault state
        # pays its searches once and is O(1) after.
        self.down_edges: FrozenSet[EdgeKey] = frozenset()
        self.down_switches: FrozenSet[int] = frozenset()

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

        The router plans against the session ledger, rate cache and
        down elements (as bans, so they never appear in the result); on
        admission the ledger holds the flow's full qubit usage, and
        :meth:`release_flow` undoes it at departure.
        """
        result = self.router.route(
            self.network,
            DemandSet([demand]),
            self.link_model,
            self.swap_model,
            ledger=self.ledger,
            rate_cache=self.rate_cache,
            banned_nodes=self.down_switches,
            banned_edges=self.down_edges,
        )
        flow = result.plan.flow_for(demand.demand_id)
        if flow is None or flow.num_paths == 0:
            return None
        return flow, result.demand_rates[demand.demand_id]

    def release_flow(self, flow: FlowLikeGraph) -> None:
        """Return a departing (or disrupted) flow's qubits to the ledger
        in one pass over its edge widths — the widths admission charged,
        :meth:`~repro.routing.flow_graph.FlowLikeGraph.widen_edge` extras
        included — so the ledger ends byte-identical to never having
        admitted the flow.  The flow itself is left as it was."""
        widths = sorted(flow.edge_widths().items())
        self.ledger.release_edges((u, v, width) for (u, v), width in widths)


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


def check_horizon(duration: float, warmup: float) -> None:
    """Raise :class:`~repro.exceptions.ConfigurationError` unless
    ``0 <= warmup < duration < inf``: a non-finite horizon would never
    end the event stream."""
    if not 0 < duration < math.inf:
        raise ConfigurationError(
            f"duration must be finite and > 0, got {duration!r}"
        )
    if not 0 <= warmup < duration:
        raise ConfigurationError(
            f"warmup must satisfy 0 <= warmup < duration, got "
            f"warmup={warmup!r}, duration={duration!r}"
        )


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

    *replan* only accepts ``"incremental"``, which the benchmark in
    ``perfbench/`` still passes; a change to that benchmark removes it.
    """
    if replan != "incremental":
        raise ConfigurationError(
            f"run_serve has one re-plan path; replan must be "
            f"'incremental', got {replan!r}"
        )
    check_horizon(duration, warmup)
    validate_events(events)
    repair_spec = RepairSpec.coerce(repair)
    session = ServeSession(network, link_model, swap_model, router)
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
        if job.attempt < repair_spec.retries:
            next_time = now + repair_spec.delay(job.attempt)
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
        repair_latencies_s=repair_latencies,
    )
