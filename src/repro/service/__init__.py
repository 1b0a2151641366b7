"""Online routing service: continuous arrival/departure serving.

The batch experiments route a fixed demand set once; this package
serves a *stream* — demands arrive (Poisson or trace-driven), admitted
flows hold qubits until they depart, departures release capacity, and
every arrival is re-planned against the residual network.  Links and
switches can fail and recover mid-run (:mod:`repro.service.faults`),
disrupting held flows that the loop repairs or drops per policy.  See
:mod:`repro.service.arrivals` (the arrival-process grammar),
:mod:`repro.service.loop` (the event loop, which re-plans every
arrival through the router's one ``route`` entry) and
:mod:`repro.service.runner` (multi-seed replication, caching and the
CLI report).
"""

from repro.service.arrivals import (
    ArrivalEvent,
    ArrivalSpec,
    ArrivalSpecError,
    HoldSpec,
    parse_arrivals,
    poisson_events,
    read_trace,
    validate_events,
    write_trace,
)
from repro.service.faults import (
    BackoffSpec,
    FaultEvent,
    FaultSpec,
    FaultSpecError,
    RepairSpec,
    fault_events,
    parse_faults,
    parse_repair,
    read_fault_trace,
    write_fault_trace,
)
from repro.service.loop import (
    ServeMetrics,
    ServeRun,
    ServeSession,
    latency_summary,
    run_serve,
)
from repro.service.runner import (
    ServeReport,
    run_serve_experiment,
    serve_key,
)

__all__ = [
    "ArrivalEvent",
    "ArrivalSpec",
    "ArrivalSpecError",
    "BackoffSpec",
    "FaultEvent",
    "FaultSpec",
    "FaultSpecError",
    "HoldSpec",
    "RepairSpec",
    "ServeMetrics",
    "ServeReport",
    "ServeRun",
    "ServeSession",
    "fault_events",
    "latency_summary",
    "parse_arrivals",
    "parse_faults",
    "parse_repair",
    "poisson_events",
    "read_fault_trace",
    "read_trace",
    "run_serve",
    "run_serve_experiment",
    "serve_key",
    "validate_events",
    "write_fault_trace",
    "write_trace",
]
