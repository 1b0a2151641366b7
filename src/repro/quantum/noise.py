"""Probabilistic success models for links and swapping.

The paper's physical model (Section III):

* A quantum link over fibre of Euclidean length ``L`` succeeds with
  probability ``p = exp(-alpha * L)`` where ``alpha`` depends on the fibre
  material (default ``1e-4`` per km, the paper's evaluation setting).
* A channel of width ``w`` (w parallel links for one state) delivers at
  least one Bell pair with probability ``1 - (1 - p)^w``.
* Every switch performs an n-fusion successfully with probability ``q``
  (default 0.9), independent of n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.utils.validation import (
    check_non_negative_int,
    check_positive,
    check_probability,
)

#: The paper's default fibre attenuation coefficient (per km).
DEFAULT_ALPHA = 1e-4

#: The paper's default fusion success probability.
DEFAULT_SWAP_PROBABILITY = 0.9


def link_success_probability(length: float, alpha: float = DEFAULT_ALPHA) -> float:
    """Success probability ``e^{-alpha * L}`` of a single quantum link."""
    check_positive("alpha", alpha)
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    return math.exp(-alpha * length)


def channel_success_probability(p: float, width: int) -> float:
    """Probability ``1 - (1 - p)^w`` that a width-*w* channel delivers at
    least one successful link."""
    check_probability("p", p)
    check_non_negative_int("width", width)
    return channel_success(p, width)


def channel_success(p: float, width: int) -> float:
    """:func:`channel_success_probability` without the input checks.

    For hot loops whose *p* already is a link probability and whose
    *width* is a validated channel width (the compiled core's rate
    columns); the result is the same float.
    """
    if width == 0:
        return 0.0
    # log1p keeps precision when p is tiny (the realistic regime).
    return -math.expm1(width * math.log1p(-p)) if p < 1.0 else 1.0


@dataclass(frozen=True)
class LinkModel:
    """Elementary-link success model.

    ``fixed_p`` overrides the length-based model with a uniform success
    probability (the paper does this for the Figure 8a sweep to remove
    topology randomness).
    """

    alpha: float = DEFAULT_ALPHA
    fixed_p: Optional[float] = None

    def __post_init__(self) -> None:
        check_positive("alpha", self.alpha)
        if self.fixed_p is not None:
            check_probability("fixed_p", self.fixed_p)

    def success_probability(self, length: float) -> float:
        """Single-link success probability for a link of length *length*."""
        if self.fixed_p is not None:
            return self.fixed_p
        return link_success_probability(length, self.alpha)

    def channel_probability(self, length: float, width: int) -> float:
        """Width-*w* channel success probability for a link of *length*."""
        return channel_success_probability(self.success_probability(length), width)


@dataclass(frozen=True)
class SwapModel:
    """Fusion (entanglement-swapping) success model.

    The paper assumes a single success probability ``q`` shared by all
    switches and independent of the fusion arity; ``per_qubit`` optionally
    models an arity-dependent success ``q^(n-1)`` instead (an extension we
    expose for ablations).
    """

    q: float = DEFAULT_SWAP_PROBABILITY
    per_qubit: bool = False

    def __post_init__(self) -> None:
        check_probability("q", self.q)

    def success_probability(self, arity: int) -> float:
        """Success probability of one fusion of the given *arity*."""
        check_non_negative_int("arity", arity)
        return self.fusion_success(arity)

    def fusion_success(self, arity: int) -> float:
        """:meth:`success_probability` without the arity check, for hot
        loops whose arity is a flow's fusion arity (a non-negative int by
        construction); the result is the same float."""
        if arity <= 1:
            return 1.0 if arity == 0 else self.q
        if self.per_qubit:
            return self.q ** (arity - 1)
        return self.q

    def uniform_success(self) -> Optional[float]:
        """The :meth:`fusion_success` of every arity >= 1 when it does
        not depend on the arity (the paper's constant ``q``), else
        ``None``."""
        return None if self.per_qubit else self.q
