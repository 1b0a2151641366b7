"""Arrival processes for the online serving loop.

An :class:`ArrivalSpec` describes how demands arrive at the serving
loop, in the same parse/serialize/``config_dict`` grammar the router,
estimator and scenario axes use::

    poisson:rate=2.0,hold=exp:mean=30.0     (memoryless arrivals)
    poisson:rate=0.5,hold=fixed:mean=10.0
    trace:file=runs/monday.trace            (replay a recorded trace)

A Poisson spec draws every event from its own RNG substream
(:func:`stream_rng` of the replication's sample seed), so the k-th
arrival is a pure function of ``(sample_seed, k)`` — bit-identical
whatever the worker count and unperturbed by how earlier events were
served.  A trace spec replays a file recorded with
``--record-trace`` (or written by hand); its ``config_dict`` identity
hashes the file *contents*, so cached serve results can never outlive
an edited trace.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.service.tracefile import read_jsonl_trace, write_jsonl_trace
from repro.specs import SpecBase, SpecError
from repro.utils.rng import RandomState, stream_rng

#: Substream index of the k-th arrival event is ``EVENT_STREAM_BASE + k``.
#: Far above the estimation substream (``ESTIMATION_STREAM = 0x4D43``)
#: that shares the per-sample seed, so the two families can never
#: collide.
EVENT_STREAM_BASE = 0x100000

#: Trace file header identity.
TRACE_FORMAT = "repro-serve-trace"
TRACE_VERSION = 1


class ArrivalSpecError(SpecError):
    """An arrival spec string, parameter or trace file is invalid.

    Subclasses :class:`ValueError` so ``argparse`` type callables can
    surface the message as a normal usage error.
    """


def _parse_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ArrivalSpecError(
            f"arrival parameter {name!r} must be a number, got {text!r}"
        ) from None


@dataclass(frozen=True)
class HoldSpec:
    """How long an admitted flow holds its capacity.

    ``exp`` draws holding times from an exponential distribution with
    the given mean (the M/M/. holding model); ``fixed`` holds exactly
    ``mean``.  Single-parameter by construction so the enclosing
    arrival grammar stays comma-separable.
    """

    dist: str = "exp"
    mean: float = 30.0

    def __post_init__(self) -> None:
        if self.dist not in ("exp", "fixed"):
            raise ArrivalSpecError(
                f"hold distribution must be 'exp' or 'fixed', got "
                f"{self.dist!r}"
            )
        object.__setattr__(self, "mean", float(self.mean))
        if not self.mean > 0:
            raise ArrivalSpecError(
                f"hold mean must be > 0, got {self.mean!r}"
            )

    @classmethod
    def from_string(cls, text: str) -> "HoldSpec":
        """Parse ``dist:mean=VALUE`` (e.g. ``exp:mean=30``)."""
        dist, sep, rest = text.strip().partition(":")
        if not sep or not dist:
            raise ArrivalSpecError(
                f"hold spec {text!r} must look like dist:mean=VALUE "
                "(e.g. exp:mean=30)"
            )
        name, eq, value = rest.partition("=")
        if not eq or name.strip() != "mean" or not value.strip():
            raise ArrivalSpecError(
                f"hold spec {text!r} takes exactly one parameter, "
                "mean=VALUE"
            )
        return cls(dist=dist, mean=_parse_float("hold mean", value.strip()))

    def to_string(self) -> str:
        """Canonical ``dist:mean=VALUE`` form; round-trips via
        :meth:`from_string`."""
        return f"{self.dist}:mean={self.mean!r}"

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
class ArrivalSpec(SpecBase):
    """One arrival process: Poisson with a holding model, or a trace.

    ``rate``/``hold`` parameterise Poisson arrivals and are meaningless
    for traces (every trace event carries its own holding time), so the
    grammar rejects them on ``trace:`` specs rather than ignore them
    silently.
    """

    kind: str = "poisson"
    rate: float = 2.0
    hold: HoldSpec = HoldSpec()
    file: Optional[str] = None

    spec_what = "arrival"
    spec_error = ArrivalSpecError

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "trace"):
            raise ArrivalSpecError(
                f"arrival kind must be 'poisson' or 'trace', got "
                f"{self.kind!r}"
            )
        if isinstance(self.hold, str):
            object.__setattr__(self, "hold", HoldSpec.from_string(self.hold))
        if not isinstance(self.hold, HoldSpec):
            raise ArrivalSpecError(
                f"hold must be a HoldSpec or spec string, got "
                f"{type(self.hold).__name__}"
            )
        if self.kind == "poisson":
            object.__setattr__(self, "rate", float(self.rate))
            if not self.rate > 0:
                raise ArrivalSpecError(
                    f"arrival rate must be > 0, got {self.rate!r}"
                )
            if self.file is not None:
                raise ArrivalSpecError(
                    "poisson arrivals take no file= parameter"
                )
        else:
            if not self.file:
                raise ArrivalSpecError(
                    "trace arrivals need file=PATH"
                )
            if "," in self.file:
                raise ArrivalSpecError(
                    f"trace file path {self.file!r} must not contain "
                    "','; rename the file"
                )

    # ------------------------------------------------------------------
    # Parsing / serialization

    @classmethod
    def from_string(cls, text: str) -> "ArrivalSpec":
        """Parse ``poisson[:rate=R,hold=DIST:mean=M]`` or
        ``trace:file=PATH``.

        ``=`` may appear inside a value (the nested hold grammar), so
        the shared tokenizer's default first-``=``-wins split applies.
        """
        kind, rest = cls._split_spec(text)
        kind = kind.lower()
        params: Dict[str, object] = {}
        if rest is not None:
            raw = cls._parse_params(
                rest, text=text, valid=("rate", "hold", "file")
            )
            for name, value in raw.items():
                if name == "rate":
                    params["rate"] = _parse_float("rate", value)
                elif name == "hold":
                    params["hold"] = HoldSpec.from_string(value)
                else:
                    params["file"] = value
        if kind == "trace" and ("rate" in params or "hold" in params):
            raise ArrivalSpecError(
                "trace arrivals replay the recorded times and holds; "
                "rate=/hold= do not apply"
            )
        return cls(kind=kind, **params)

    def to_string(self) -> str:
        """Canonical form (non-default parameters only); round-trips
        via :meth:`from_string`."""
        if self.kind == "trace":
            return f"trace:file={self.file}"
        rendered = []
        if self.rate != 2.0:
            rendered.append(f"rate={self.rate!r}")
        if self.hold != HoldSpec():
            rendered.append(f"hold={self.hold.to_string()}")
        if not rendered:
            return self.kind
        return f"{self.kind}:{','.join(rendered)}"

    def config_dict(self) -> Dict:
        """Stable, JSON-ready identity for cache keys.

        Trace identity is the file *contents* (sha256), not its path,
        so renaming a trace hits the same entries while editing one
        misses.
        """
        if self.kind == "trace":
            digest = hashlib.sha256(Path(self.file).read_bytes()).hexdigest()
            return {"kind": self.kind, "trace_sha256": digest}
        return {
            "kind": self.kind,
            "rate": self.rate,
            "hold": {"dist": self.hold.dist, "mean": self.hold.mean},
        }


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


def parse_arrivals(text: str) -> ArrivalSpec:
    """Parse an arrival spec string (the CLI ``--arrivals`` type)."""
    return ArrivalSpec.from_string(text)


def as_arrivals(value: Union[str, ArrivalSpec]) -> ArrivalSpec:
    """Coerce a spec or spec string to an :class:`ArrivalSpec`."""
    if isinstance(value, ArrivalSpec):
        return value
    if isinstance(value, str):
        return parse_arrivals(value)
    raise ArrivalSpecError(
        f"arrivals must be a spec string or ArrivalSpec, got "
        f"{type(value).__name__}"
    )


# ----------------------------------------------------------------------
# Event generation


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
    k = 0
    while True:
        rng = stream_rng(sample_seed, EVENT_STREAM_BASE + k)
        time += float(rng.exponential(1.0 / spec.rate))
        if time >= duration:
            return events
        i, j = rng.choice(num_users, size=2, replace=False)
        events.append(
            ArrivalEvent(
                time=time,
                source_index=int(i),
                dest_index=int(j),
                hold=spec.hold.sample(rng),
            )
        )
        k += 1


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
