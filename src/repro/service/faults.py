"""Fault injection for the online serving loop.

A :class:`FaultSpec` describes how links and switches fail and recover
while the service runs, in the same parse/serialize/``config_dict``
grammar every other axis uses::

    faults:link_mtbf=300,link_mttr=30       (link up/down renewal)
    faults:switch_p=0.01,switch_mttr=50     (constant-hazard switch loss)
    faults:link_mtbf=200,switch_mtbf=800    (both families at once)
    trace:file=runs/outage.trace            (replay a recorded timeline)

Every element (edge or switch) runs an independent alternating renewal
process — up for ``Exp(mtbf)``, down for ``Exp(mttr)`` — drawn from its
own substream of the replication's sample seed.  One
:func:`~repro.utils.rng.stream_rngs` call derives a whole family's
substreams, each still ``stream_rng(sample_seed, base + i)`` bit for
bit.  The timeline of element *i* is therefore a pure function of
``(sample_seed, i)``: bit-identical whatever the worker count,
unperturbed by how many arrivals were served, and prefix-stable in the
horizon (extending ``duration`` appends events without moving earlier
ones) — the same statelessness contract as
:class:`~repro.service.arrivals.ArrivalSpec`.

``switch_p`` is sugar for a constant per-time-unit failure hazard:
``switch_p=0.01`` means each switch fails at rate 0.01 (mean time to
failure 100), i.e. ``switch_mtbf=1/switch_p`` — phrased as a hazard
rather than a one-shot draw over the horizon precisely so the timeline
stays prefix-stable.

A :class:`RepairSpec` names the policy the serving loop applies to
flows a down event disrupted::

    drop                                    (release and count)
    reroute:retries=2,backoff=exp:base=1.0  (re-route, bounded retries)

The reroute backoff schedule comes from
:func:`repro.utils.retry.backoff_delay`, one retry at a time —
deterministic simulated-time delays, no clocks, no sleeps.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.service.tracefile import read_jsonl_trace, write_jsonl_trace
from repro.specs import SpecBase, SpecError, TraceFileMixin
from repro.utils.retry import BACKOFF_KINDS, backoff_delay
from repro.utils.rng import stream_rngs

#: Substream of edge *i*'s fault timeline is ``FAULT_STREAM_BASE + i``;
#: switch *j* uses ``FAULT_STREAM_BASE + SWITCH_STREAM_OFFSET + j``.
#: Far above the arrival substreams (``EVENT_STREAM_BASE + k`` with
#: ``EVENT_STREAM_BASE = 0x100000``) for any realistic event count, so
#: the fault and arrival families sharing one sample seed never collide.
FAULT_STREAM_BASE = 0x40000000

#: Offset separating switch substreams from edge substreams.
SWITCH_STREAM_OFFSET = 0x20000000

#: Valid fault event kinds.
FAULT_KINDS = ("link_down", "link_up", "switch_down", "switch_up")

#: Fixed tie-break order of simultaneous fault events: repairs first
#: (an element recovering at the same instant another fails must not
#: mask the failure), links before switches within each class.  The
#: serving loop's event heap uses the same order.
KIND_ORDER = {"link_up": 0, "switch_up": 1, "link_down": 2, "switch_down": 3}

#: Fault trace file header identity.
FAULT_TRACE_FORMAT = "repro-fault-trace"
FAULT_TRACE_VERSION = 1


class FaultSpecError(SpecError):
    """A fault spec string, parameter or trace file is invalid."""


@dataclass(frozen=True)
class FaultEvent:
    """One element state change: when, what kind, which element.

    ``element`` indexes the network's sorted ``edge_keys()`` list for
    link events and the sorted ``switches()`` list for switch events —
    positional, like arrival user indices, so one timeline replays on
    every replication's independently sampled topology.
    """

    time: float
    kind: str
    element: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise FaultSpecError(
                f"fault time must be >= 0, got {self.time!r}"
            )
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"fault kind must be one of {', '.join(FAULT_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.element < 0:
            raise FaultSpecError(
                f"fault element index must be >= 0, got {self.element!r}"
            )

    @classmethod
    def _trusted(cls, time: float, kind: str, element: int) -> "FaultEvent":
        """The event, built without :meth:`__post_init__`'s checks for a
        generator that guarantees them (:func:`_renewal_timeline`); it
        equals, and hashes like, the checked construction.  Fields are
        set as the frozen ``__init__`` sets them (see
        :meth:`~repro.routing.paths.PathCandidate._trusted`)."""
        event = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(event, "time", time)
        setattr_(event, "kind", kind)
        setattr_(event, "element", element)
        return event

    def sort_key(self) -> Tuple[float, int, int]:
        """Total order of a timeline: time, then the fixed kind order,
        then element index."""
        return (self.time, KIND_ORDER[self.kind], self.element)


@dataclass(frozen=True)
class FaultSpec(TraceFileMixin, SpecBase):
    """One fault process: per-element renewal failures, or a trace.

    At least one of ``link_mtbf`` / ``switch_mtbf`` / ``switch_p`` must
    be set on a ``faults:`` spec (an all-``none`` fault process is a
    spelling mistake, not a null injector — omit ``--faults`` for
    that).  ``switch_mtbf`` and ``switch_p`` are two spellings of the
    same hazard and are mutually exclusive.
    """

    kind: str = "faults"
    link_mtbf: Optional[float] = None
    link_mttr: float = 30.0
    switch_mtbf: Optional[float] = None
    switch_p: Optional[float] = None
    switch_mttr: float = 30.0
    file: Optional[str] = None

    spec_what = "fault"
    spec_error = FaultSpecError
    spec_key = "kind"
    spec_kinds = {
        "faults": (
            "link_mtbf", "link_mttr", "switch_mtbf", "switch_p",
            "switch_mttr",
        ),
        "trace": ("file",),
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "trace":
            return
        for name in ("link_mtbf", "link_mttr", "switch_mtbf", "switch_mttr"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise FaultSpecError(
                    f"fault parameter {name!r} must be > 0, got {value!r}"
                )
        if self.switch_p is not None:
            if not 0 < self.switch_p <= 1:
                raise FaultSpecError(
                    f"switch_p must be in (0, 1], got {self.switch_p!r}"
                )
            if self.switch_mtbf is not None:
                raise FaultSpecError(
                    "switch_mtbf and switch_p are two spellings of the "
                    "same failure hazard; give one, not both"
                )
        if (
            self.link_mtbf is None
            and self.switch_mtbf is None
            and self.switch_p is None
        ):
            raise FaultSpecError(
                "a faults spec needs at least one failure process: "
                "link_mtbf=, switch_mtbf= or switch_p="
            )

    # ------------------------------------------------------------------
    # Derived parameters

    def effective_switch_mtbf(self) -> Optional[float]:
        """The switch failure process's mean up time, whichever spelling
        configured it (``None`` when switches never fail)."""
        if self.switch_mtbf is not None:
            return self.switch_mtbf
        if self.switch_p is not None:
            return 1.0 / self.switch_p
        return None


#: Parse a fault spec string (the CLI ``--faults`` type).
parse_faults = FaultSpec.parse


# ----------------------------------------------------------------------
# Repair policy


@dataclass(frozen=True)
class BackoffSpec(SpecBase):
    """Delay schedule between repair attempts: ``KIND:base=B``.

    ``exp`` doubles the delay per retry starting from ``base``;
    ``fixed`` always waits ``base``.  Single-parameter by construction
    so the enclosing repair grammar stays comma-separable (the same
    nesting as the arrival grammar's hold spec).
    """

    kind: str
    base: float

    spec_what = "backoff"
    spec_error = FaultSpecError
    spec_key = "kind"
    spec_kinds = {kind: ("base",) for kind in BACKOFF_KINDS}

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.base > 0:
            raise FaultSpecError(
                f"backoff base must be > 0, got {self.base!r}"
            )


@dataclass(frozen=True)
class RepairSpec(SpecBase):
    """What the serving loop does with a disrupted flow.

    ``drop`` releases it and counts it; ``reroute`` re-plans it on the
    residual network immediately, then up to ``retries`` more times on
    the backoff schedule, degrading to a counted drop when the budget
    is exhausted (or a retry would land after the flow's departure).
    """

    kind: str = "reroute"
    retries: int = 2
    backoff: BackoffSpec = BackoffSpec("exp", 1.0)

    spec_what = "repair"
    spec_error = FaultSpecError
    spec_key = "kind"
    spec_kinds = {"drop": (), "reroute": ("retries", "backoff")}
    spec_kind_defaults = {"drop": {"retries": 0}}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.retries < 0:
            raise FaultSpecError(
                f"retries must be >= 0, got {self.retries}"
            )
        # Check the last delay so an unusable schedule fails at parse
        # time, not mid-serve; delays grow with the attempt, and none is
        # materialised.
        if self.retries and not math.isfinite(self.delay(self.retries - 1)):
            raise FaultSpecError(
                f"repair schedule of {self.retries} retries with backoff "
                f"{self.backoff} overflows; its delays are not finite"
            )

    def delay(self, attempt: int) -> float:
        """The simulated-time delay before retry *attempt* (0-based),
        or ``math.inf`` where the exponential schedule overflows."""
        return backoff_delay(self.backoff.kind, self.backoff.base, attempt)


#: Parse a repair spec string (the CLI ``--repair`` type).
parse_repair = RepairSpec.parse


# ----------------------------------------------------------------------
# Timeline generation


def _renewal_timeline(
    rng,
    mtbf: float,
    mttr: float,
    down_kind: str,
    up_kind: str,
    element: int,
    duration: float,
    out: List[FaultEvent],
) -> None:
    """One element's alternating up/down renewal process.

    All of the element's draws come from *rng* (its private substream)
    in a fixed alternating order, so extending *duration* appends
    events without perturbing earlier ones.  Times are non-negative
    (sums of exponential draws), the kinds are fault kinds and
    *element* is an index, so events skip the checked constructor.
    """
    event = FaultEvent._trusted
    time = 0.0
    while True:
        time += float(rng.exponential(mtbf))
        if time >= duration:
            return
        out.append(event(time, down_kind, element))
        time += float(rng.exponential(mttr))
        if time >= duration:
            return
        out.append(event(time, up_kind, element))


def fault_events(
    spec: FaultSpec,
    sample_seed: int,
    num_edges: int,
    num_switches: int,
    duration: float,
) -> List[FaultEvent]:
    """All fault events of one replication, in timeline order.

    Edge *i* draws from substream ``FAULT_STREAM_BASE + i`` and switch
    *j* from ``FAULT_STREAM_BASE + SWITCH_STREAM_OFFSET + j``, so the
    list is a pure function of ``(spec, sample_seed, counts, duration)``
    — identical across processes, worker counts and routing cores, and
    prefix-stable in ``duration``.  Each family's generators come from
    one :func:`stream_rngs` call.
    """
    if spec.kind != "faults":
        raise FaultSpecError(
            f"cannot generate events for fault kind {spec.kind!r}"
        )
    if num_edges < 0 or num_switches < 0:
        raise FaultSpecError(
            f"element counts must be >= 0, got edges={num_edges}, "
            f"switches={num_switches}"
        )
    if not 0 < duration < math.inf:
        raise FaultSpecError(
            f"duration must be finite and > 0, got {duration!r}"
        )
    events: List[FaultEvent] = []
    if spec.link_mtbf is not None:
        base = FAULT_STREAM_BASE
        rngs = stream_rngs(sample_seed, range(base, base + num_edges))
        for index, rng in enumerate(rngs):
            _renewal_timeline(
                rng, spec.link_mtbf, spec.link_mttr, "link_down", "link_up",
                index, duration, events,
            )
    switch_mtbf = spec.effective_switch_mtbf()
    if switch_mtbf is not None:
        base = FAULT_STREAM_BASE + SWITCH_STREAM_OFFSET
        rngs = stream_rngs(sample_seed, range(base, base + num_switches))
        for index, rng in enumerate(rngs):
            _renewal_timeline(
                rng, switch_mtbf, spec.switch_mttr, "switch_down",
                "switch_up", index, duration, events,
            )
    events.sort(key=FaultEvent.sort_key)
    return events


# ----------------------------------------------------------------------
# Fault trace files (JSON lines, mirroring the arrival trace format)


def write_fault_trace(
    path: Union[str, Path],
    replications: List[List[FaultEvent]],
) -> None:
    """Record per-replication fault timelines as a replayable file."""
    write_jsonl_trace(
        path, replications, format_tag=FAULT_TRACE_FORMAT,
        version=FAULT_TRACE_VERSION,
        to_record=dataclasses.asdict,
    )


def _fault_from_record(record: Dict[str, Any]) -> FaultEvent:
    element = record["element"]
    if isinstance(element, bool) or not isinstance(element, int):
        raise FaultSpecError(f"element must be an int, got {element!r}")
    return FaultEvent(
        time=float(record["time"]), kind=record["kind"], element=element
    )


def read_fault_trace(path: Union[str, Path]) -> List[List[FaultEvent]]:
    """Load a fault trace into per-replication timelines, rejecting a
    bad header, event, replication or time order by line."""
    return read_jsonl_trace(
        path, format_tag=FAULT_TRACE_FORMAT, version=FAULT_TRACE_VERSION,
        error=FaultSpecError, noun="fault trace",
        from_record=_fault_from_record,
    )
