"""Arrival processes for the online serving loop.

An :class:`ArrivalSpec` describes how demands arrive at the serving
loop, in the same parse/serialize/``config_dict`` grammar the router,
estimator and scenario axes use::

    poisson:rate=2.0,hold=exp:mean=30.0     (memoryless arrivals)
    poisson:rate=0.5,hold=fixed:mean=10.0
    trace:file=runs/monday.trace            (replay a recorded trace)

A Poisson spec draws every event from its own RNG substream of the
replication's sample seed, so the k-th arrival is a pure function of
``(sample_seed, k)`` — bit-identical whatever the worker count and
unperturbed by how earlier events were served.  The substreams are
derived in blocks by :func:`~repro.utils.rng.stream_rngs`, each still
``stream_rng(sample_seed, EVENT_STREAM_BASE + k)`` bit for bit.

A trace spec replays a file recorded with ``--record-trace`` (or
written by hand); its ``config_dict`` identity hashes the file
*contents*, so cached serve results can never outlive an edited trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.service.tracefile import read_jsonl_trace, write_jsonl_trace
from repro.specs import SpecBase, SpecError, TraceFileMixin
from repro.utils.rng import RandomState, stream_rngs

#: Substream index of the k-th arrival event is ``EVENT_STREAM_BASE + k``.
#: Far above the estimation substream (``ESTIMATION_STREAM = 0x4D43``)
#: that shares the per-sample seed, so the two families can never
#: collide.
EVENT_STREAM_BASE = 0x100000

#: Most event substreams derived in one block, which bounds the
#: generators held ahead of a very long or very busy stream.
MAX_EVENT_BLOCK = 4096

#: Trace file header identity.
TRACE_FORMAT = "repro-serve-trace"
TRACE_VERSION = 1


class ArrivalSpecError(SpecError):
    """An arrival spec string, parameter or trace file is invalid.

    Subclasses :class:`ValueError` so ``argparse`` type callables can
    surface the message as a normal usage error.
    """


@dataclass(frozen=True)
class HoldSpec(SpecBase):
    """How long an admitted flow holds its capacity: ``DIST:mean=M``.

    ``exp`` draws holding times from an exponential distribution with
    the given mean (the M/M/. holding model); ``fixed`` holds exactly
    ``mean``.  Single-parameter by construction so the enclosing
    arrival grammar stays comma-separable; ``mean`` has no default, so
    the spec string always names it.
    """

    dist: str
    mean: float

    spec_what = "hold"
    spec_error = ArrivalSpecError
    spec_key = "dist"
    spec_kinds = {"exp": ("mean",), "fixed": ("mean",)}

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.mean > 0:
            raise ArrivalSpecError(
                f"hold mean must be > 0, got {self.mean!r}"
            )

    def sample(self, rng: RandomState) -> float:
        """Draw one holding time (``fixed`` consumes no randomness)."""
        if self.dist == "exp":
            return float(rng.exponential(self.mean))
        return self.mean


@dataclass(frozen=True)
class ArrivalEvent:
    """One demand arrival: when, which user pair, and for how long.

    ``source_index``/``dest_index`` index the network's sorted user
    list rather than naming node ids, so one trace replays on every
    replication's independently sampled topology.
    """

    time: float
    source_index: int
    dest_index: int
    hold: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ArrivalSpecError(
                f"arrival time must be >= 0, got {self.time!r}"
            )
        if self.source_index < 0 or self.dest_index < 0:
            raise ArrivalSpecError("arrival user indices must be >= 0")
        if self.source_index == self.dest_index:
            raise ArrivalSpecError(
                f"arrival at t={self.time!r}: source and destination "
                "user indices must differ"
            )
        if not self.hold > 0:
            raise ArrivalSpecError(
                f"arrival holding time must be > 0, got {self.hold!r}"
            )


@dataclass(frozen=True)
class ArrivalSpec(TraceFileMixin, SpecBase):
    """One arrival process: Poisson with a holding model, or a trace.

    ``rate``/``hold`` parameterise Poisson arrivals and are meaningless
    for traces (every trace event carries its own holding time), so the
    grammar rejects them on ``trace:`` specs rather than ignore them
    silently.
    """

    kind: str = "poisson"
    rate: float = 2.0
    hold: HoldSpec = HoldSpec("exp", 30.0)
    file: Optional[str] = None

    spec_what = "arrival"
    spec_error = ArrivalSpecError
    spec_key = "kind"
    spec_kinds = {"poisson": ("rate", "hold"), "trace": ("file",)}

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.rate > 0:
            raise ArrivalSpecError(
                f"arrival rate must be > 0, got {self.rate!r}"
            )


def validate_events(events) -> None:
    """Reject arrival sequences the serving loop cannot trust.

    The event loop assumes time-sorted arrivals (departure processing
    interleaves on that order); feeding it an unsorted list would
    silently serve arrivals against releases from their own future.
    Named-position errors make a broken hand-written trace (or a buggy
    programmatic caller) debuggable.  Negative times are impossible by
    :class:`ArrivalEvent` construction; this checks ordering.
    """
    last: Optional[float] = None
    for index, event in enumerate(events):
        if last is not None and event.time < last:
            raise ArrivalSpecError(
                f"arrival events must be time-sorted; event {index} at "
                f"t={event.time!r} precedes its predecessor at t={last!r}"
            )
        last = event.time


#: Parse an arrival spec string (the CLI ``--arrivals`` type).
parse_arrivals = ArrivalSpec.parse


# ----------------------------------------------------------------------
# Event generation


def _event_rngs(
    spec: ArrivalSpec, sample_seed: int, duration: float
) -> Iterator[RandomState]:
    """Event k's generator, substream ``EVENT_STREAM_BASE + k``, for
    k = 0, 1, ...

    The first block covers the expected count ``rate * duration`` plus
    three standard deviations, so one block nearly always serves the
    whole stream; later blocks double, up to :data:`MAX_EVENT_BLOCK`.
    """
    expected = spec.rate * duration
    size = math.ceil(
        min(MAX_EVENT_BLOCK, expected + 3.0 * math.sqrt(expected) + 1.0)
    )
    start = EVENT_STREAM_BASE
    while True:
        yield from stream_rngs(sample_seed, range(start, start + size))
        start += size
        size = min(2 * size, MAX_EVENT_BLOCK)


def poisson_events(
    spec: ArrivalSpec,
    sample_seed: int,
    num_users: int,
    duration: float,
) -> List[ArrivalEvent]:
    """All arrivals of one replication, in time order.

    Event k draws its inter-arrival gap, user pair and holding time
    from substream ``EVENT_STREAM_BASE + k`` of *sample_seed* (in that
    fixed order), so the event list is a pure function of the seed —
    identical across processes, worker counts and routing cores.
    """
    if spec.kind != "poisson":
        raise ArrivalSpecError(
            f"cannot generate events for arrival kind {spec.kind!r}"
        )
    if num_users < 2:
        raise ArrivalSpecError(
            f"need at least 2 users to generate arrivals, got {num_users}"
        )
    if not 0 < duration < math.inf:
        raise ArrivalSpecError(
            f"duration must be finite and > 0, got {duration!r}"
        )
    events: List[ArrivalEvent] = []
    time = 0.0
    for rng in _event_rngs(spec, sample_seed, duration):
        time += float(rng.exponential(1.0 / spec.rate))
        if time >= duration:
            break
        i, j = rng.choice(num_users, size=2, replace=False)
        events.append(
            ArrivalEvent(
                time=time,
                source_index=int(i),
                dest_index=int(j),
                hold=spec.hold.sample(rng),
            )
        )
    return events


# ----------------------------------------------------------------------
# Trace files (JSON lines: one header, then one event per line)


def write_trace(
    path: Union[str, Path],
    replications: List[List[ArrivalEvent]],
) -> None:
    """Record per-replication event lists as a replayable trace file."""
    write_jsonl_trace(
        path, replications, format_tag=TRACE_FORMAT, version=TRACE_VERSION,
        to_record=lambda event: {
            "time": event.time, "source": event.source_index,
            "dest": event.dest_index, "hold": event.hold,
        },
    )


def read_trace(path: Union[str, Path]) -> List[List[ArrivalEvent]]:
    """Load a trace file into per-replication event lists, rejecting a
    bad header, event, replication or time order by line."""
    return read_jsonl_trace(
        path, format_tag=TRACE_FORMAT, version=TRACE_VERSION,
        error=ArrivalSpecError, noun="trace file",
        from_record=lambda record: ArrivalEvent(
            time=float(record["time"]),
            source_index=int(record["source"]),
            dest_index=int(record["dest"]),
            hold=float(record["hold"]),
        ),
    )
