"""taureau.chaos — deterministic chaos engineering for the platform.

The fault plane (:class:`FaultPlan` / :class:`ChaosController`) injects
seeded, virtual-clock-scheduled failures across FaaS, Pulsar, Jiffy and
BaaS; the resilience layer (:class:`RetryPolicy`,
:class:`CircuitBreaker`, :class:`ResiliencePolicy`,
:class:`ResilientInvoker`) models the client-side recovery mechanisms
production platforms ship; :class:`ChaosExperiment` ties a workload, a
plan and declared invariants into one reproducible run.

Install through the facade::

    app = taureau.Platform(seed=7)
    app.with_resilience(ResiliencePolicy(retry=RetryPolicy(max_attempts=2)))
    app.with_chaos(FaultPlan().crash_sandbox(rate_hz=0.5, start_s=0, end_s=30))

Everything is off by default and deterministic under a fixed seed —
``Platform.verify_determinism`` covers chaos runs unchanged.
"""

from taureau.chaos.experiment import (
    ChaosExperiment,
    ExperimentReport,
    InvariantResult,
    all_invocations_terminated,
    exactly_once_effects,
    no_double_billing,
    no_inflight_messages,
    no_lost_acked_work,
    sandboxes_conserved,
)
from taureau.chaos.faults import (
    ChaosController,
    CircuitOpenError,
    FaultEvent,
    FaultInjected,
    FaultPlan,
    FaultSpec,
)
from taureau.chaos.policies import CircuitBreaker, ResiliencePolicy, RetryPolicy
from taureau.chaos.resilience import ResilientInvoker

__all__ = [
    "ChaosController",
    "ChaosExperiment",
    "CircuitBreaker",
    "CircuitOpenError",
    "ExperimentReport",
    "FaultEvent",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "InvariantResult",
    "ResiliencePolicy",
    "ResilientInvoker",
    "RetryPolicy",
    "all_invocations_terminated",
    "exactly_once_effects",
    "no_double_billing",
    "no_inflight_messages",
    "no_lost_acked_work",
    "sandboxes_conserved",
]
