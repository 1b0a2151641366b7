"""Baseline routing algorithms the paper compares against.

* :class:`~repro.routing.baselines.qcast_n.QCastNRouter` — Q-Cast-style
  greedy uniform-width path selection, re-evaluated under n-fusion.
* :class:`~repro.routing.baselines.qcast.QCastRouter` — classic
  BSM-swapping routing (the paper's Q-CAST series: ALG-N-FUSION with
  fusion arity capped at 2), which is Q-CAST-N's greedy loop run at
  width 1.
* :class:`~repro.routing.baselines.b1.B1Router` — Patil et al.'s
  single-pair GHZ protocol extended to multiple pairs sequentially.
"""

from repro.routing.baselines.qcast import QCastRouter
from repro.routing.baselines.qcast_n import QCastNRouter
from repro.routing.baselines.b1 import B1Router
from repro.routing.baselines.mcf import MCFRouter

__all__ = ["QCastRouter", "QCastNRouter", "B1Router", "MCFRouter"]
