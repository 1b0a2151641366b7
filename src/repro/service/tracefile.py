"""JSON-lines trace files, shared by the arrival and fault traces.

A header line names the format, its version and the replication count;
each later line is one event record tagged with its ``replication``.
Sorted-key JSON round-trips floats by ``repr``, so a replayed file
reproduces the recording run's events bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Protocol, Sequence, Type, TypeVar, Union,
)


class _Timed(Protocol):
    @property
    def time(self) -> float: ...


Event = TypeVar("Event", bound=_Timed)


def write_jsonl_trace(
    path: Union[str, Path],
    replications: Sequence[Sequence[Event]],
    *,
    format_tag: str,
    version: int,
    to_record: Callable[[Event], Dict[str, Any]],
) -> None:
    """Write per-replication event lists under a ``format_tag`` header."""
    header = {"format": format_tag, "version": version,
              "replications": len(replications)}
    lines = [json.dumps(header, sort_keys=True)]
    for replication, events in enumerate(replications):
        lines.extend(
            json.dumps(
                {**to_record(event), "replication": replication},
                sort_keys=True,
            )
            for event in events
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_jsonl_trace(
    path: Union[str, Path],
    *,
    format_tag: str,
    version: int,
    error: Type[ValueError],
    noun: str,
    from_record: Callable[[Dict[str, Any]], Event],
) -> List[List[Event]]:
    """Load a trace file into per-replication event lists.

    Checks the header, that every event names a declared replication
    and that each replication's times are non-decreasing.  Every
    rejection is an *error* naming ``"<noun> <path>"`` and the line;
    *from_record* may raise ``KeyError``, ``TypeError`` or ``ValueError``.
    """
    where = f"{noun} {path}"
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise error(f"cannot read {where}: {exc}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise error(f"{where} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError:
        raise error(f"{where} has an unreadable header line") from None
    if (
        not isinstance(header, dict)
        or header.get("format") != format_tag
        or header.get("version") != version
    ):
        raise error(f"{where} is not a {format_tag} v{version} file")
    count = header.get("replications")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise error(
            f"{where}: header 'replications' must be a positive int, "
            f"got {count!r}"
        )
    replications: List[List[Event]] = [[] for _ in range(count)]
    for lineno, line in enumerate(lines[1:], start=2):
        at = f"{where} line {lineno}"
        try:
            record = json.loads(line)
        except ValueError:
            raise error(f"{at}: unreadable JSON") from None
        try:
            replication = record["replication"]
            if isinstance(replication, bool) or not isinstance(
                replication, int
            ):
                # A float or bool here would silently alias another
                # replication's event list (or crash the list index).
                raise error(f"replication must be an int, got {replication!r}")
            event = from_record(record)
        except (KeyError, TypeError, ValueError) as exc:
            raise error(f"{at}: {exc}") from None
        if not 0 <= replication < count:
            raise error(
                f"{at}: replication {replication} outside the declared "
                f"0..{count - 1}"
            )
        events = replications[replication]
        if events and event.time < events[-1].time:
            raise error(
                f"{at}: times must be non-decreasing within a replication"
            )
        events.append(event)
    return replications
