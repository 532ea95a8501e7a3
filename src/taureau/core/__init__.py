"""The FaaS platform simulator — taureau's core (paper §2, §4.1, §6)."""

from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.core.function import (
    FunctionSpec,
    FunctionTimeout,
    InvocationContext,
    InvocationRecord,
    InvocationStatus,
)
from taureau.core.platform import (
    FaasPlatform,
    PeriodicTrigger,
    PlatformConfig,
    Sandbox,
    SandboxError,
    ThrottledError,
)
from taureau.core.scheduler import (
    ComplementaryScheduler,
    FirstFitScheduler,
    LeastLoadedScheduler,
    Scheduler,
    TenantAntiAffinityScheduler,
)
from taureau.core.reporting import CostReport, FunctionUsage
from taureau.core.vmfleet import AutoscalerPolicy, VmFleet
from taureau.core.workload import (
    bursty_arrivals,
    collect,
    constant_arrivals,
    diurnal_arrivals,
    peak_to_mean_ratio,
    poisson_arrivals,
    poisson_arrivals_vec,
    replay,
    spike_arrivals,
)

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "FunctionSpec",
    "FunctionTimeout",
    "InvocationContext",
    "InvocationRecord",
    "InvocationStatus",
    "FaasPlatform",
    "PeriodicTrigger",
    "PlatformConfig",
    "Sandbox",
    "SandboxError",
    "ThrottledError",
    "Scheduler",
    "FirstFitScheduler",
    "LeastLoadedScheduler",
    "ComplementaryScheduler",
    "TenantAntiAffinityScheduler",
    "CostReport",
    "FunctionUsage",
    "AutoscalerPolicy",
    "VmFleet",
    "constant_arrivals",
    "poisson_arrivals",
    "poisson_arrivals_vec",
    "diurnal_arrivals",
    "bursty_arrivals",
    "spike_arrivals",
    "replay",
    "collect",
    "peak_to_mean_ratio",
]
