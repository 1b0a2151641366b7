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
own :func:`stream_rng` substream of the replication's sample seed.  The
timeline of element *i* is therefore a pure function of
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
:func:`repro.utils.retry.backoff_delays` — deterministic simulated-time
delays, no clocks, no sleeps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.service.tracefile import read_jsonl_trace, write_jsonl_trace
from repro.specs import SpecBase, SpecError
from repro.utils.retry import BACKOFF_KINDS, backoff_delays
from repro.utils.rng import stream_rng

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


def _parse_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FaultSpecError(
            f"fault parameter {name!r} must be a number, got {text!r}"
        ) from None


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

    def sort_key(self) -> Tuple[float, int, int]:
        """Total order of a timeline: time, then the fixed kind order,
        then element index."""
        return (self.time, KIND_ORDER[self.kind], self.element)


@dataclass(frozen=True)
class FaultSpec(SpecBase):
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

    def __post_init__(self) -> None:
        if self.kind not in ("faults", "trace"):
            raise FaultSpecError(
                f"fault kind must be 'faults' or 'trace', got {self.kind!r}"
            )
        if self.kind == "trace":
            if not self.file:
                raise FaultSpecError("trace faults need file=PATH")
            if "," in self.file:
                raise FaultSpecError(
                    f"trace file path {self.file!r} must not contain "
                    "','; rename the file"
                )
            if (
                self.link_mtbf is not None
                or self.switch_mtbf is not None
                or self.switch_p is not None
            ):
                raise FaultSpecError(
                    "trace faults replay the recorded timeline; "
                    "link_mtbf=/switch_mtbf=/switch_p= do not apply"
                )
            return
        if self.file is not None:
            raise FaultSpecError("parametric faults take no file= parameter")
        for name in ("link_mtbf", "link_mttr", "switch_mtbf", "switch_mttr"):
            value = getattr(self, name)
            if value is None:
                continue
            object.__setattr__(self, name, float(value))
            if not getattr(self, name) > 0:
                raise FaultSpecError(
                    f"fault parameter {name!r} must be > 0, got {value!r}"
                )
        if self.switch_p is not None:
            object.__setattr__(self, "switch_p", float(self.switch_p))
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
    # Parsing / serialization

    @classmethod
    def from_string(cls, text: str) -> "FaultSpec":
        """Parse ``faults:link_mtbf=...,switch_p=...`` or
        ``trace:file=PATH``."""
        kind, rest = cls._split_spec(text)
        kind = kind.lower()
        params: Dict[str, object] = {}
        if rest is not None:
            raw = cls._parse_params(
                rest,
                text=text,
                valid=(
                    "link_mtbf", "link_mttr", "switch_mtbf", "switch_p",
                    "switch_mttr", "file",
                ),
            )
            for name, value in raw.items():
                if name == "file":
                    params["file"] = value
                else:
                    params[name] = _parse_float(name, value)
        return cls(kind=kind, **params)

    def to_string(self) -> str:
        """Canonical form (non-default parameters only); round-trips
        via :meth:`from_string`."""
        if self.kind == "trace":
            return f"trace:file={self.file}"
        rendered = []
        if self.link_mtbf is not None:
            rendered.append(f"link_mtbf={self.link_mtbf!r}")
        if self.link_mttr != 30.0:
            rendered.append(f"link_mttr={self.link_mttr!r}")
        if self.switch_mtbf is not None:
            rendered.append(f"switch_mtbf={self.switch_mtbf!r}")
        if self.switch_p is not None:
            rendered.append(f"switch_p={self.switch_p!r}")
        if self.switch_mttr != 30.0:
            rendered.append(f"switch_mttr={self.switch_mttr!r}")
        return f"{self.kind}:{','.join(rendered)}"

    def config_dict(self) -> Dict:
        """Stable, JSON-ready identity for cache keys.

        Trace identity is the file *contents* (sha256), like arrival
        traces, so cached serve results can never outlive an edited
        timeline.
        """
        if self.kind == "trace":
            digest = hashlib.sha256(Path(self.file).read_bytes()).hexdigest()
            return {"kind": self.kind, "trace_sha256": digest}
        return {
            "kind": self.kind,
            "link_mtbf": self.link_mtbf,
            "link_mttr": self.link_mttr,
            "switch_mtbf": self.switch_mtbf,
            "switch_p": self.switch_p,
            "switch_mttr": self.switch_mttr,
        }

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


def parse_faults(text: str) -> FaultSpec:
    """Parse a fault spec string (the CLI ``--faults`` type)."""
    return FaultSpec.from_string(text)


def as_faults(value: Union[str, FaultSpec]) -> FaultSpec:
    """Coerce a spec or spec string to a :class:`FaultSpec`."""
    if isinstance(value, FaultSpec):
        return value
    if isinstance(value, str):
        return parse_faults(value)
    raise FaultSpecError(
        f"faults must be a spec string or FaultSpec, got "
        f"{type(value).__name__}"
    )


# ----------------------------------------------------------------------
# Repair policy


@dataclass(frozen=True)
class BackoffSpec:
    """Delay schedule between repair attempts.

    ``exp`` doubles the delay per retry starting from ``base``;
    ``fixed`` always waits ``base``.  Single-parameter by construction
    so the enclosing repair grammar stays comma-separable (the same
    nesting trick as the arrival grammar's hold spec).
    """

    kind: str = "exp"
    base: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in BACKOFF_KINDS:
            raise FaultSpecError(
                f"backoff kind must be one of {', '.join(BACKOFF_KINDS)}, "
                f"got {self.kind!r}"
            )
        object.__setattr__(self, "base", float(self.base))
        if not self.base > 0:
            raise FaultSpecError(
                f"backoff base must be > 0, got {self.base!r}"
            )

    @classmethod
    def from_string(cls, text: str) -> "BackoffSpec":
        """Parse ``kind:base=VALUE`` (e.g. ``exp:base=1.0``)."""
        kind, sep, rest = text.strip().partition(":")
        if not sep or not kind:
            raise FaultSpecError(
                f"backoff spec {text!r} must look like kind:base=VALUE "
                "(e.g. exp:base=1.0)"
            )
        name, eq, value = rest.partition("=")
        if not eq or name.strip() != "base" or not value.strip():
            raise FaultSpecError(
                f"backoff spec {text!r} takes exactly one parameter, "
                "base=VALUE"
            )
        return cls(kind=kind, base=_parse_float("backoff base", value.strip()))

    def to_string(self) -> str:
        """Canonical ``kind:base=VALUE`` form; round-trips via
        :meth:`from_string`."""
        return f"{self.kind}:base={self.base!r}"


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
    backoff: BackoffSpec = BackoffSpec()

    spec_what = "repair"
    spec_error = FaultSpecError

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "reroute"):
            raise FaultSpecError(
                f"repair kind must be 'drop' or 'reroute', got {self.kind!r}"
            )
        if isinstance(self.backoff, str):
            object.__setattr__(
                self, "backoff", BackoffSpec.from_string(self.backoff)
            )
        if not isinstance(self.backoff, BackoffSpec):
            raise FaultSpecError(
                f"backoff must be a BackoffSpec or spec string, got "
                f"{type(self.backoff).__name__}"
            )
        if isinstance(self.retries, bool) or not isinstance(self.retries, int):
            raise FaultSpecError(
                f"retries must be an int, got {self.retries!r}"
            )
        if self.retries < 0:
            raise FaultSpecError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.kind == "drop" and self.retries != 0:
            raise FaultSpecError(
                "drop never re-attempts; retries= does not apply"
            )
        # Materialise eagerly so an invalid schedule fails at parse
        # time, not mid-serve.
        backoff_delays(self.backoff.kind, self.backoff.base, self.retries)

    @classmethod
    def from_string(cls, text: str) -> "RepairSpec":
        """Parse ``drop`` or
        ``reroute[:retries=N,backoff=KIND:base=B]``."""
        kind, rest = cls._split_spec(text)
        kind = kind.lower()
        params: Dict[str, object] = {}
        if rest is not None:
            raw = cls._parse_params(
                rest, text=text, valid=("retries", "backoff")
            )
            for name, value in raw.items():
                if name == "retries":
                    try:
                        params["retries"] = int(value)
                    except ValueError:
                        raise FaultSpecError(
                            f"repair retries must be an int, got {value!r}"
                        ) from None
                else:
                    params["backoff"] = BackoffSpec.from_string(value)
        if kind == "drop" and params:
            raise FaultSpecError(
                "drop never re-attempts; retries=/backoff= do not apply"
            )
        if kind == "drop":
            params["retries"] = 0
        return cls(kind=kind, **params)

    def to_string(self) -> str:
        """Canonical form (non-default parameters only); round-trips
        via :meth:`from_string`."""
        if self.kind == "drop":
            return "drop"
        rendered = []
        if self.retries != 2:
            rendered.append(f"retries={self.retries}")
        if self.backoff != BackoffSpec():
            rendered.append(f"backoff={self.backoff.to_string()}")
        if not rendered:
            return self.kind
        return f"{self.kind}:{','.join(rendered)}"

    def config_dict(self) -> Dict:
        """Stable, JSON-ready identity for cache keys."""
        if self.kind == "drop":
            return {"kind": self.kind}
        return {
            "kind": self.kind,
            "retries": self.retries,
            "backoff": {"kind": self.backoff.kind, "base": self.backoff.base},
        }

    def delays(self) -> Tuple[float, ...]:
        """The deterministic retry schedule (simulated-time delays)."""
        return backoff_delays(self.backoff.kind, self.backoff.base,
                              self.retries)


def parse_repair(text: str) -> RepairSpec:
    """Parse a repair spec string (the CLI ``--repair`` type)."""
    return RepairSpec.from_string(text)


def as_repair(value: Union[str, RepairSpec]) -> RepairSpec:
    """Coerce a spec or spec string to a :class:`RepairSpec`."""
    if isinstance(value, RepairSpec):
        return value
    if isinstance(value, str):
        return parse_repair(value)
    raise FaultSpecError(
        f"repair must be a spec string or RepairSpec, got "
        f"{type(value).__name__}"
    )


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
    events without perturbing earlier ones.
    """
    time = 0.0
    while True:
        time += float(rng.exponential(mtbf))
        if time >= duration:
            return
        out.append(FaultEvent(time=time, kind=down_kind, element=element))
        time += float(rng.exponential(mttr))
        if time >= duration:
            return
        out.append(FaultEvent(time=time, kind=up_kind, element=element))


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
    prefix-stable in ``duration``.
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
        for index in range(num_edges):
            _renewal_timeline(
                stream_rng(sample_seed, FAULT_STREAM_BASE + index),
                spec.link_mtbf, spec.link_mttr, "link_down", "link_up",
                index, duration, events,
            )
    switch_mtbf = spec.effective_switch_mtbf()
    if switch_mtbf is not None:
        for index in range(num_switches):
            _renewal_timeline(
                stream_rng(
                    sample_seed,
                    FAULT_STREAM_BASE + SWITCH_STREAM_OFFSET + index,
                ),
                switch_mtbf, spec.switch_mttr, "switch_down", "switch_up",
                index, duration, events,
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
