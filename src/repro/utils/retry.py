"""Bounded retry with a deterministic backoff schedule.

The serving loop's repair policy re-attempts disrupted flows a bounded
number of times with exponentially (or uniformly) spaced delays.  In a
discrete-event world a "delay" is a number added to the simulated
clock, never a wall-clock sleep — this module computes the schedule as
a pure function of its parameters and reads no clocks at all, so it is
safe everywhere RPL001 applies (``time.sleep`` and the wall-clock
accessors are lint errors outside :mod:`repro.utils.timing`).

``backoff_delays("exp", base=1.0, retries=3)`` -> ``(1.0, 2.0, 4.0)``;
``backoff_delays("fixed", base=2.0, retries=3)`` -> ``(2.0, 2.0, 2.0)``.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.exceptions import ConfigurationError

#: Supported backoff schedules, in CLI listing order.
BACKOFF_KINDS = ("exp", "fixed")

#: Growth factor of the exponential schedule (delay doubles per retry).
EXP_GROWTH = 2.0


def backoff_delays(kind: str, base: float, retries: int) -> Tuple[float, ...]:
    """The delay before each of *retries* re-attempts, in attempt order.

    ``exp`` spaces attempt k (0-based) ``base * 2**k`` after the
    previous failure; ``fixed`` always waits ``base``.  The first,
    immediate attempt is not part of the schedule — a policy with
    ``retries=0`` tries exactly once.  Deterministic and clock-free:
    callers add the delays to their own (simulated) timeline.
    """
    if kind not in BACKOFF_KINDS:
        raise ConfigurationError(
            f"backoff kind must be one of {', '.join(BACKOFF_KINDS)}, "
            f"got {kind!r}"
        )
    if not base > 0:
        raise ConfigurationError(f"backoff base must be > 0, got {base!r}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    return tuple(backoff_delay(kind, base, k) for k in range(retries))


def backoff_delay(kind: str, base: float, attempt: int) -> float:
    """The delay before re-attempt *attempt* (0-based) of the schedule
    :func:`backoff_delays` lists, in closed form: ``base * 2**attempt``
    for ``exp`` (``math.inf`` where the power overflows), ``base`` for
    ``fixed``.  *kind* and *base* are trusted; a spec checks them once.
    """
    if kind != "exp":
        return base
    try:
        return base * EXP_GROWTH**attempt
    except OverflowError:
        return math.inf
