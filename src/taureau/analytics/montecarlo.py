"""Massively parallel Monte Carlo on serverless (paper §5 intro, [82]).

"Massively parallel applications — be it the traditional Monte Carlo
simulation or the contemporary hyperparameter tuning — lend themselves
naturally to the serverless paradigm."  Chard et al.'s serverless
supercomputing [82] is the same observation at HPC scale.

:class:`MonteCarloJob` fans sample batches out to functions — each
batch *really* draws and evaluates samples with numpy — and the driver
pools the batch moments into an estimate with a standard error, so the
1/sqrt(N) convergence law is measurable (experiment E30).
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform

__all__ = [
    "MonteCarloEstimate",
    "MonteCarloJob",
    "pi_estimator",
    "european_call_estimator",
]

#: Simulated sample-evaluation rate per 1-vCPU sandbox (samples/second).
_SAMPLES_PER_SECOND = 2e6


@dataclasses.dataclass(frozen=True)
class MonteCarloEstimate:
    """A pooled Monte Carlo result."""

    mean: float
    std_error: float
    samples: int
    wall_clock_s: float

    def confidence_interval(self, z: float = 1.96) -> typing.Tuple[float, float]:
        """The ~95% (default z) confidence interval."""
        return (self.mean - z * self.std_error, self.mean + z * self.std_error)


def pi_estimator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-square dart throws: 4 * P(inside quarter circle) = pi."""
    points = rng.random((n, 2))
    inside = (points ** 2).sum(axis=1) <= 1.0
    return 4.0 * inside.astype(np.float64)


def european_call_estimator(
    spot: float = 100.0,
    strike: float = 105.0,
    rate: float = 0.02,
    volatility: float = 0.25,
    maturity_years: float = 1.0,
) -> typing.Callable[[np.random.Generator, int], np.ndarray]:
    """Discounted Black-Scholes terminal payoffs for a European call."""

    def estimator(rng: np.random.Generator, n: int) -> np.ndarray:
        normals = rng.standard_normal(n)
        terminal = spot * np.exp(
            (rate - 0.5 * volatility ** 2) * maturity_years
            + volatility * math.sqrt(maturity_years) * normals
        )
        payoff = np.maximum(terminal - strike, 0.0)
        return math.exp(-rate * maturity_years) * payoff

    return estimator


class MonteCarloJob:
    """Distribute sample batches over serverless tasks and pool moments."""

    def __init__(
        self,
        platform: FaasPlatform,
        estimator: typing.Callable[[np.random.Generator, int], np.ndarray],
        samples_per_task: int = 100_000,
        seed: int = 0,
    ):
        if samples_per_task <= 0:
            raise ValueError("samples_per_task must be positive")
        self.platform = platform
        self.estimator = estimator
        self.samples_per_task = samples_per_task
        self.seed = seed
        self.job_id = f"mc{next(platform.sim.ids('mc'))}"
        self._task_name = f"{self.job_id}-batch"
        self._register()

    def _register(self) -> None:
        job = self

        def batch_task(event, ctx):
            n = event["samples"]
            ctx.charge(n / _SAMPLES_PER_SECOND)
            rng = np.random.default_rng(job.seed * 100_003 + event["index"])
            values = job.estimator(rng, n)
            return (float(values.sum()), float((values ** 2).sum()), n)

        self.platform.register(
            FunctionSpec(
                name=self._task_name, handler=batch_task, memory_mb=512,
                timeout_s=900,
            )
        )

    def run_sync(self, tasks: int) -> MonteCarloEstimate:
        """Run ``tasks`` batches concurrently and pool the estimate."""
        if tasks <= 0:
            raise ValueError("tasks must be positive")
        return self.platform.sim.run(
            until=self.platform.sim.process(self._drive(tasks))
        )

    def _drive(self, tasks: int):
        started = self.platform.sim.now
        events = [
            self.platform.invoke(
                self._task_name,
                {"index": index, "samples": self.samples_per_task},
            )
            for index in range(tasks)
        ]
        records = yield self.platform.sim.all_of(events)
        failures = [record for record in records if not record.succeeded]
        if failures:
            raise RuntimeError(f"{len(failures)} Monte Carlo batches failed")
        total = total_sq = 0.0
        count = 0
        for record in records:
            batch_sum, batch_sq, batch_n = record.response
            total += batch_sum
            total_sq += batch_sq
            count += batch_n
        mean = total / count
        variance = max(0.0, total_sq / count - mean ** 2)
        std_error = math.sqrt(variance / count)
        return MonteCarloEstimate(
            mean=mean,
            std_error=std_error,
            samples=count,
            wall_clock_s=self.platform.sim.now - started,
        )

    def serial_time_s(self, tasks: int) -> float:
        """The single-machine compute time for the same sample budget."""
        return tasks * self.samples_per_task / _SAMPLES_PER_SECOND
