"""Straggler-resilient coded computation (§5.2, [104] [132]).

Gupta et al.'s OverSketched Newton and Lee et al.'s coded computation
observe that serverless workers straggle badly, and that adding
*redundant coded tasks* lets the driver finish from any ``k`` of ``n``
results instead of waiting for the slowest worker.

The harness computes ``y = A x`` two ways:

- *uncoded*: split ``A`` into ``k`` row shards, one worker each; the
  result needs **all** ``k`` workers — one straggler stalls the job;
- *coded*: encode the shards with a random (MDS-style) generator matrix
  into ``n > k`` coded shards; **any** ``k`` finished workers suffice,
  and the driver decodes by solving a k x k linear system.

Numerics are real; straggler delays are injected through the duration
model.
"""

from __future__ import annotations

import typing

import numpy as np

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform

__all__ = ["StragglerModel", "coded_matvec", "uncoded_matvec"]

#: Simulated matvec rate (matrix cells per second), calibrated to
#: interpreted-Python throughput on a 1-vCPU sandbox — the regime the
#: cited serverless coded-computation systems operate in.
_CELLS_PER_SECOND = 1e7


class StragglerModel:
    """Injects heavy-tailed worker slowdowns.

    Each worker is independently a straggler with ``probability``; a
    straggler's compute time is multiplied by ``slowdown``.
    """

    def __init__(self, probability: float = 0.2, slowdown: float = 10.0):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if slowdown < 1.0:
            raise ValueError("slowdown must be >= 1")
        self.probability = probability
        self.slowdown = slowdown

    def factor(self, rng) -> float:
        return self.slowdown if rng.random() < self.probability else 1.0


def _run_matvec_tasks(
    platform: FaasPlatform,
    shards: typing.List[np.ndarray],
    x: np.ndarray,
    stragglers: StragglerModel,
    wait_for: int,
    label: str,
):
    """Dispatch one matvec task per shard; wait for ``wait_for`` results.

    Returns ``(results_by_shard, finish_time)`` where results arrive as
    ``{shard_index: partial_y}`` for the first ``wait_for`` finishers.
    """
    sim = platform.sim
    task_name = f"{label}{next(sim.ids(label))}"

    def matvec_task(event, ctx):
        shard = shards[event["shard"]]
        base = shard.size / _CELLS_PER_SECOND
        ctx.charge(base * event["straggle"])
        return shard @ x

    platform.register(
        FunctionSpec(name=task_name, handler=matvec_task, memory_mb=1024,
                     timeout_s=3600)
    )
    rng = sim.rng.stream(f"{task_name}.stragglers")

    def drive():
        events = [
            platform.invoke(
                task_name, {"shard": index, "straggle": stragglers.factor(rng)}
            )
            for index in range(len(shards))
        ]
        finished: dict = {}
        pending = {index: event for index, event in enumerate(events)}
        while len(finished) < wait_for:
            yield sim.any_of(list(pending.values()))
            for index in list(pending):
                event = pending[index]
                if event.triggered:
                    record = event.value
                    if not record.succeeded:
                        raise RuntimeError(f"matvec task failed: {record.error!r}")
                    finished[index] = record.response
                    del pending[index]
        return finished, sim.now

    return sim.run(until=sim.process(drive()))


def uncoded_matvec(
    platform: FaasPlatform,
    a: np.ndarray,
    x: np.ndarray,
    workers: int,
    stragglers: typing.Optional[StragglerModel] = None,
) -> typing.Tuple[np.ndarray, float]:
    """``A @ x`` over ``workers`` shards, waiting for every worker.

    Returns ``(y, completion_time)``.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    stragglers = stragglers or StragglerModel(probability=0.0)
    shards = np.array_split(a, workers)
    results, finish = _run_matvec_tasks(
        platform, list(shards), x, stragglers, wait_for=workers, label="uncoded"
    )
    y = np.concatenate([results[index] for index in range(workers)])
    return y, finish


def coded_matvec(
    platform: FaasPlatform,
    a: np.ndarray,
    x: np.ndarray,
    k: int,
    n: int,
    stragglers: typing.Optional[StragglerModel] = None,
    seed: int = 0,
) -> typing.Tuple[np.ndarray, float]:
    """``A @ x`` via an (n, k) random linear code over row shards.

    Every shard must have equal row count (pad ``a`` if needed); any
    ``k`` of the ``n`` coded results decode the answer.  Returns
    ``(y, completion_time)``.
    """
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= n")
    if a.shape[0] % k != 0:
        raise ValueError(f"rows ({a.shape[0]}) must divide evenly into k={k} shards")
    stragglers = stragglers or StragglerModel(probability=0.0)
    shards = np.split(a, k)
    rng = np.random.default_rng(seed)
    # Systematic code: first k rows identity, remainder random (MDS with
    # probability 1 for a continuous random generator matrix).
    generator = np.vstack([np.eye(k), rng.standard_normal((n - k, k))])
    coded_shards = [
        sum(generator[row, col] * shards[col] for col in range(k))
        for row in range(n)
    ]
    results, finish = _run_matvec_tasks(
        platform, coded_shards, x, stragglers, wait_for=k, label="coded"
    )
    finished_rows = sorted(results)
    sub_generator = generator[finished_rows, :]
    received = np.stack([results[row] for row in finished_rows])
    # Solve G_sub @ [y_1..y_k] = received for the uncoded partials.
    decoded = np.linalg.solve(sub_generator, received)
    return np.concatenate(list(decoded)), finish
