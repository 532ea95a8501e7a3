"""Data-parallel serverless training with a parameter server (§5.2).

"A dataset is partitioned into multiple subsets and then each subset is
used to train a given model in parallel on independent serverless
instances.  Gradients computed by all the instances are collected by a
parameter server, which then updates the network parameters."

The parameter server's *medium* is the ablation axis of experiment E19:
weights and gradients move through either Jiffy (memory-class) or the
blob store (S3-class), and the paper's point — stateful iteration needs
ephemeral state — falls out as time-to-accuracy.
"""

from __future__ import annotations

import typing

import numpy as np

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform
from taureau.ml.models import logistic_accuracy, logistic_gradient, logistic_loss

__all__ = ["ParameterMedium", "JiffyParameterMedium", "BlobParameterMedium",
           "ServerlessTrainingJob"]

#: Simulated gradient compute rate (samples x features per second).
_SAMPLES_FEATURES_PER_SECOND = 2e8


def _array_mb(array: np.ndarray) -> float:
    return array.nbytes / (1024.0 * 1024.0)


class ParameterMedium:
    """Where weights and gradients live between steps."""

    def setup(self, job_id: str) -> None:
        raise NotImplementedError

    def write(self, job_id: str, key: str, array: np.ndarray, ctx=None) -> None:
        raise NotImplementedError

    def read(self, job_id: str, key: str, ctx=None) -> np.ndarray:
        raise NotImplementedError

    def cleanup(self, job_id: str) -> None:
        raise NotImplementedError


class JiffyParameterMedium(ParameterMedium):
    """Memory-class parameter exchange (the Jiffy-backed PS)."""

    def __init__(self, client):
        self.client = client

    def setup(self, job_id):
        self.client.create(f"/{job_id}/params", "hash_table", ttl_s=36000.0)

    def write(self, job_id, key, array, ctx=None):
        self.client.put(
            f"/{job_id}/params", key, array, ctx=ctx, size_mb=_array_mb(array)
        )

    def read(self, job_id, key, ctx=None):
        return self.client.get(f"/{job_id}/params", key, ctx=ctx)

    def cleanup(self, job_id):
        self.client.remove(f"/{job_id}")


class BlobParameterMedium(ParameterMedium):
    """S3-class parameter exchange (the stateless-FaaS workaround)."""

    def __init__(self, store):
        self.store = store

    def setup(self, job_id):
        pass

    def write(self, job_id, key, array, ctx=None):
        self.store.put(f"{job_id}/params/{key}", array, ctx=ctx,
                       size_mb=_array_mb(array))

    def read(self, job_id, key, ctx=None):
        return self.store.get(f"{job_id}/params/{key}", ctx=ctx)

    def cleanup(self, job_id):
        for key in self.store.list_keys(f"{job_id}/params/"):
            self.store.delete(key)


class ServerlessTrainingJob:
    """Synchronous data-parallel SGD for logistic regression.

    Each epoch: every worker function reads the current weights from the
    medium, computes the exact gradient of its shard (real numpy),
    writes it back; the driver (parameter server) averages gradients and
    takes a step.  History records loss/accuracy against both epoch and
    simulated wall clock.
    """

    def __init__(
        self,
        platform: FaasPlatform,
        medium: ParameterMedium,
        shards: typing.Sequence[typing.Tuple[np.ndarray, np.ndarray]],
        learning_rate: float = 0.5,
        l2: float = 1e-4,
        epochs: int = 20,
    ):
        if not shards:
            raise ValueError("need at least one data shard")
        if learning_rate <= 0 or epochs <= 0:
            raise ValueError("learning_rate and epochs must be positive")
        self.platform = platform
        self.medium = medium
        self.shards = list(shards)
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.job_id = f"train{next(platform.sim.ids('train'))}"
        self._worker_name = f"{self.job_id}-grad"
        self.history: list = []
        self._register()

    def _register(self) -> None:
        job = self

        def gradient_worker(event, ctx):
            worker_id, epoch = event["worker"], event["epoch"]
            features, labels = job.shards[worker_id]
            ctx.charge(features.size / _SAMPLES_FEATURES_PER_SECOND)
            weights = job.medium.read(job.job_id, "weights", ctx=ctx)
            gradient = logistic_gradient(weights, features, labels, job.l2)
            job.medium.write(job.job_id, f"grad/{epoch}/{worker_id}", gradient,
                             ctx=ctx)
            return float(logistic_loss(weights, features, labels, job.l2))

        self.platform.register(
            FunctionSpec(
                name=self._worker_name, handler=gradient_worker,
                memory_mb=1024, timeout_s=900,
            )
        )

    # ------------------------------------------------------------------

    def run_sync(self) -> np.ndarray:
        """Train to completion; returns the final weights."""
        return self.platform.sim.run(until=self.platform.sim.process(self._drive()))

    def _drive(self):
        features0, __ = self.shards[0]
        weights = np.zeros(features0.shape[1])
        self.medium.setup(self.job_id)
        self.medium.write(self.job_id, "weights", weights)
        all_features = np.vstack([features for features, __ in self.shards])
        all_labels = np.concatenate([labels for __, labels in self.shards])
        for epoch in range(self.epochs):
            events = [
                self.platform.invoke(
                    self._worker_name, {"worker": worker_id, "epoch": epoch}
                )
                for worker_id in range(len(self.shards))
            ]
            records = yield self.platform.sim.all_of(events)
            failures = [record for record in records if not record.succeeded]
            if failures:
                raise RuntimeError(
                    f"epoch {epoch}: {len(failures)} gradient workers failed"
                )
            gradients = [
                self.medium.read(self.job_id, f"grad/{epoch}/{worker_id}")
                for worker_id in range(len(self.shards))
            ]
            # Weight shard gradients by shard size (exact full-batch step).
            sizes = np.array([len(labels) for __, labels in self.shards], dtype=float)
            stacked = np.average(np.stack(gradients), axis=0, weights=sizes)
            weights = weights - self.learning_rate * stacked
            self.medium.write(self.job_id, "weights", weights)
            self.history.append(
                {
                    "epoch": epoch,
                    "sim_time_s": self.platform.sim.now,
                    "loss": logistic_loss(weights, all_features, all_labels, self.l2),
                    "accuracy": logistic_accuracy(weights, all_features, all_labels),
                }
            )
        self.medium.cleanup(self.job_id)
        return weights

    def time_to_accuracy(self, target: float) -> typing.Optional[float]:
        """Simulated seconds until accuracy first reached ``target``."""
        for point in self.history:
            if point["accuracy"] >= target:
                return point["sim_time_s"]
        return None
