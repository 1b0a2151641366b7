"""Small argparse helpers shared by the package's CLIs."""

from __future__ import annotations

import argparse
import functools
import math
from typing import Callable


def argparse_type(parse_fn: Callable):
    """Wrap a ValueError-raising parser for use as an argparse ``type=``.

    argparse replaces a plain ValueError from a type callable with a
    generic "invalid value" message; re-raising as ArgumentTypeError
    preserves the parser's detailed text (e.g. the router registry's
    list of known keys) in the usage error.
    """

    @functools.wraps(parse_fn)
    def wrapper(text: str):
        try:
            return parse_fn(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return wrapper


@argparse_type
def non_negative_seed(text: str) -> int:
    """Argparse type: a seed is a non-negative integer."""
    if not text.isdecimal():
        raise ValueError(f"seed must be an integer >= 0, got {text!r}")
    return int(text)


@argparse_type
def positive_int(text: str) -> int:
    """Argparse type: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return int(text)


@argparse_type
def non_negative_int(text: str) -> int:
    """Argparse type: an integer >= 0."""
    if not text.isdecimal():
        raise ValueError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _float(text: str) -> float:
    """*text* as a float, or ``nan`` (which no range accepts)."""
    try:
        return float(text)
    except ValueError:
        return math.nan


@argparse_type
def positive_float(text: str) -> float:
    """Argparse type: a finite number > 0 (an infinite serve horizon
    would never end)."""
    if not 0 < _float(text) < math.inf:
        raise ValueError(f"expected a finite number > 0, got {text!r}")
    return float(text)


@argparse_type
def non_negative_float(text: str) -> float:
    """Argparse type: a finite number >= 0."""
    if not 0 <= _float(text) < math.inf:
        raise ValueError(f"expected a finite number >= 0, got {text!r}")
    return float(text)
