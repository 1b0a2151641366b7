"""ALG-N-FUSION — the paper's complete entanglement routing algorithm.

Composes the three steps of Section IV-C:

1. **Path set construction** — Algorithm 2 (Yen + Algorithm 1) builds up
   to ``h`` candidate paths per width for every demand, ignoring resource
   contention between candidates.
2. **Route determination** — Algorithm 3 admits paths (by default the
   candidate with the largest rate gain per switch qubit first; the
   paper's literal widest-and-best-first sweep on request), merging
   same-demand paths into flow-like graphs and charging the qubit ledger.
3. **Residual assignment** — Algorithm 4 spends leftover qubits on extra
   parallel links where they raise the entanglement rate most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.network.demands import DemandSet
from repro.network.graph import QuantumNetwork
from repro.quantum.noise import LinkModel, SwapModel
from repro.routing.alg2_path_selection import default_max_width, select_paths
from repro.routing.alg3_merge import admit_paths, admit_paths_efficiency
from repro.routing.alg4_residual import assign_remaining_qubits
from repro.routing.allocation import QubitLedger
from repro.routing.flow_graph import FlowLikeGraph
from repro.routing.metrics import ChannelRateCache, rate_cache_for
from repro.routing.plan import RoutingPlan
from repro.routing.registry import RouterSpecError, register_router


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of running a routing algorithm on one network + demand set.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm name (used in experiment tables).
    plan:
        The chosen routes.
    total_rate:
        Network entanglement rate (expected number of shared states).
    demand_rates:
        Analytic per-demand rates; unrouted demands are absent.
    remaining_qubits:
        Free switch qubits left after routing.
    """

    algorithm: str
    plan: RoutingPlan
    total_rate: float
    demand_rates: Dict[int, float]
    remaining_qubits: int

    @classmethod
    def from_plan(
        cls,
        algorithm: str,
        plan: RoutingPlan,
        network: QuantumNetwork,
        link_model: LinkModel,
        swap_model: SwapModel,
        ledger: QubitLedger,
        rate_cache: ChannelRateCache,
    ) -> "RoutingResult":
        """The result of a finished *plan* whose qubits *ledger* holds;
        rates are Equation 1 per routed demand, read through
        *rate_cache*."""
        demand_rates = plan.demand_rates(
            network, link_model, swap_model, rate_cache
        )
        return cls(
            algorithm=algorithm,
            plan=plan,
            total_rate=sum(demand_rates.values()),
            demand_rates=demand_rates,
            remaining_qubits=ledger.total_free_switch_qubits(),
        )

    @property
    def num_routed(self) -> int:
        """Number of demands that received a route."""
        return len(self.demand_rates)


@register_router("alg-n-fusion", aliases=("nfusion", "alg-n"))
@dataclass
class AlgNFusion:
    """The paper's ALG-N-FUSION router.

    Parameters
    ----------
    h:
        Number of candidate paths per width per demand (Algorithm 2's h).
    max_width:
        Largest channel width to consider; defaults to half the largest
        switch capacity (an intermediate switch needs 2w qubits).
    include_alg4:
        Disable to obtain the paper's "Alg-3" ablation series.
    refill_rounds:
        Refill sweeps after Step II: each re-selects paths against the
        residual ledger and admits again; routing stops early at a
        sweep that admits nothing.
    admission_policy:
        ``"efficiency"`` (rate gain per switch qubit) or
        ``"widest_first"`` (the paper's literal sweep); see
        :mod:`repro.routing.alg3_merge`.
    max_hops:
        Longest candidate path, in hops, that Algorithm 2 keeps;
        ``None`` keeps every length.
    """

    h: int = 3
    max_width: Optional[int] = None
    include_alg4: bool = True
    refill_rounds: int = 2
    admission_policy: str = "efficiency"
    max_hops: Optional[int] = None
    name: str = "ALG-N-FUSION"

    @property
    def algorithm_label(self) -> str:
        """The series label ``route()`` will report, knowable upfront."""
        return self.name if self.include_alg4 else f"{self.name} (Alg-3 only)"

    def __post_init__(self):
        if self.h < 1:
            raise RouterSpecError(f"h must be >= 1, got {self.h}")
        if self.max_width is not None and self.max_width < 1:
            raise RouterSpecError(
                f"max_width must be None or >= 1, got {self.max_width}"
            )
        if self.max_hops is not None and self.max_hops < 1:
            raise RouterSpecError(
                f"max_hops must be None or >= 1, got {self.max_hops}"
            )
        if self.refill_rounds < 0:
            raise RouterSpecError(
                f"refill_rounds must be >= 0, got {self.refill_rounds}"
            )
        if self.admission_policy not in ("efficiency", "widest_first"):
            raise RouterSpecError(
                f"unknown admission_policy {self.admission_policy!r}; "
                "expected 'efficiency' or 'widest_first'"
            )

    def route(
        self,
        network: QuantumNetwork,
        demands: DemandSet,
        link_model: Optional[LinkModel] = None,
        swap_model: Optional[SwapModel] = None,
        *,
        ledger: Optional[QubitLedger] = None,
        rate_cache: Optional[ChannelRateCache] = None,
        banned_nodes: FrozenSet[int] = frozenset(),
        banned_edges: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> RoutingResult:
        """Steps I-III for *demands* against *ledger* (a fresh one when
        omitted), which keeps the admitted qubits; see the
        :class:`~repro.routing.registry.Router` protocol."""
        link_model = link_model or LinkModel()
        swap_model = swap_model or SwapModel()
        rate_cache = rate_cache_for(network, link_model, rate_cache)
        ledger = ledger or QubitLedger(network)
        max_width = self.max_width or default_max_width(network, ledger)
        flows: Dict[int, FlowLikeGraph] = {}
        # Round 0 is Steps I and II: select candidate paths per demand,
        # then admit and merge them against the qubit budget.  Admission
        # can block candidates while qubits remain elsewhere, so each
        # later round is a refill sweep: re-select against the residual
        # ledger (for every demand: a residual path may also merge into
        # a flow as a branch) and admit again.  A round that admits
        # nothing would only repeat itself.  Refill keeps ALG-N-FUSION a
        # superset of the baselines (README, "Implementation decisions";
        # the paper's Algorithm 3 leaves this case unspecified).
        for _ in range(1 + self.refill_rounds):
            path_sets = {}
            for demand in demands:
                selected = select_paths(
                    network,
                    link_model,
                    swap_model,
                    demand,
                    h=self.h,
                    max_width=max_width,
                    ledger=ledger,
                    max_hops=self.max_hops,
                    rate_cache=rate_cache,
                    banned_nodes=banned_nodes,
                    banned_edges=banned_edges,
                )
                if selected:
                    path_sets[demand.demand_id] = selected
            if not path_sets:
                break
            if self.admission_policy == "efficiency":
                admitted = admit_paths_efficiency(
                    network, link_model, swap_model, demands, path_sets,
                    flows, ledger, rate_cache=rate_cache,
                )
            else:
                admitted = admit_paths(
                    network, demands, path_sets, flows, ledger
                )
            if admitted == 0:
                break

        plan = RoutingPlan()
        for flow in flows.values():
            plan.add_flow(flow)

        # Step III: spend the leftovers.
        if self.include_alg4:
            assign_remaining_qubits(
                network, link_model, swap_model, plan, ledger,
                rate_cache=rate_cache,
            )

        return RoutingResult.from_plan(
            self.algorithm_label, plan, network, link_model, swap_model,
            ledger, rate_cache,
        )
