"""Federated averaging on serverless devices (paper §5.2, [76, 127, 145]).

The paper flags federated learning — "a ML model is run on a user's
device" — as a driver for fast inference and training loops.  FedAvg
(McMahan et al.) is the canonical algorithm: each round a fraction of
devices trains locally on its own (non-IID) data for a few epochs and
uploads only weights; the coordinator averages them, weighted by sample
counts.  Devices here are serverless functions: locally real numpy SGD,
simulated device compute/upload costs, genuine convergence.
"""

from __future__ import annotations

import typing

import numpy as np

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform
from taureau.ml.models import logistic_accuracy, logistic_gradient, logistic_loss

__all__ = ["non_iid_shards", "FederatedAveraging"]

#: Simulated on-device training rate (samples x features per second) —
#: an order of magnitude below a cloud sandbox: phones are slow.
_DEVICE_SAMPLES_FEATURES_PER_SECOND = 2e7
#: Simulated device uplink for the weight vector (MB/s).
_DEVICE_UPLINK_MB_S = 2.0


def non_iid_shards(
    features: np.ndarray,
    labels: np.ndarray,
    devices: int,
    skew: float = 0.8,
    seed: int = 0,
) -> typing.List[typing.Tuple[np.ndarray, np.ndarray]]:
    """Label-skewed device shards (the federated setting's hard part).

    Each device draws a fraction ``skew`` of its samples from one label
    and the rest uniformly, so no device's data matches the global
    distribution.
    """
    if devices <= 0:
        raise ValueError("devices must be positive")
    if not 0.0 <= skew <= 1.0:
        raise ValueError("skew must be in [0, 1]")
    rng = np.random.default_rng(seed)
    by_label = {
        label: list(np.flatnonzero(labels == label)) for label in (0.0, 1.0)
    }
    for pool in by_label.values():
        rng.shuffle(pool)
    per_device = len(labels) // devices
    shards = []
    for device in range(devices):
        preferred = float(device % 2)
        indices: list = []
        for __ in range(per_device):
            use_preferred = rng.random() < skew
            pool = by_label[preferred if use_preferred else 1.0 - preferred]
            if not pool:
                pool = by_label[1.0 - preferred] or by_label[preferred]
            if pool:
                indices.append(pool.pop())
        chosen = np.array(indices, dtype=int)
        shards.append((features[chosen], labels[chosen]))
    return shards


class FederatedAveraging:
    """FedAvg over device functions.

    Per round: sample ``participation`` of the devices, run
    ``local_epochs`` of full-batch gradient descent on each (real
    numpy), and average the returned weights by sample count.
    """

    def __init__(
        self,
        platform: FaasPlatform,
        shards: typing.Sequence[typing.Tuple[np.ndarray, np.ndarray]],
        learning_rate: float = 0.5,
        local_epochs: int = 5,
        participation: float = 0.5,
        l2: float = 1e-4,
        seed: int = 0,
    ):
        if not shards:
            raise ValueError("need at least one device shard")
        if not 0.0 < participation <= 1.0:
            raise ValueError("participation must be in (0, 1]")
        if local_epochs <= 0 or learning_rate <= 0:
            raise ValueError("local_epochs and learning_rate must be positive")
        self.platform = platform
        self.shards = list(shards)
        self.learning_rate = learning_rate
        self.local_epochs = local_epochs
        self.participation = participation
        self.l2 = l2
        self.job_id = f"fedavg{next(platform.sim.ids('fedavg'))}"
        self._device_fn = f"{self.job_id}-device"
        self._rng = platform.sim.rng.stream(f"{self.job_id}.sampling")
        self.history: list = []
        self._register()

    def _register(self) -> None:
        job = self

        def device_update(event, ctx):
            device_id = event["device"]
            features, labels = job.shards[device_id]
            weights = np.asarray(event["weights"])
            work = features.size * job.local_epochs
            ctx.charge(work / _DEVICE_SAMPLES_FEATURES_PER_SECOND)
            for __ in range(job.local_epochs):
                weights = weights - job.learning_rate * logistic_gradient(
                    weights, features, labels, job.l2
                )
            ctx.charge(
                weights.nbytes / (1024.0 * 1024.0) / _DEVICE_UPLINK_MB_S
            )
            return {"weights": weights, "samples": len(labels)}

        self.platform.register(
            FunctionSpec(
                name=self._device_fn, handler=device_update, memory_mb=256,
                timeout_s=900,
            )
        )

    # ------------------------------------------------------------------

    def run_sync(self, rounds: int) -> np.ndarray:
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        return self.platform.sim.run(
            until=self.platform.sim.process(self._drive(rounds))
        )

    def _drive(self, rounds: int):
        dimensions = self.shards[0][0].shape[1]
        weights = np.zeros(dimensions)
        all_features = np.vstack([features for features, __ in self.shards])
        all_labels = np.concatenate([labels for __, labels in self.shards])
        cohort_size = max(1, int(round(self.participation * len(self.shards))))
        for round_index in range(rounds):
            cohort = self._rng.sample(range(len(self.shards)), cohort_size)
            events = [
                self.platform.invoke(
                    self._device_fn, {"device": device, "weights": weights}
                )
                for device in cohort
            ]
            records = yield self.platform.sim.all_of(events)
            failures = [record for record in records if not record.succeeded]
            if failures:
                raise RuntimeError(
                    f"round {round_index}: {len(failures)} devices failed"
                )
            updates = [record.response for record in records]
            total = sum(update["samples"] for update in updates)
            weights = sum(
                (update["samples"] / total) * update["weights"]
                for update in updates
            )
            self.history.append(
                {
                    "round": round_index,
                    "sim_time_s": self.platform.sim.now,
                    "loss": logistic_loss(weights, all_features, all_labels,
                                          self.l2),
                    "accuracy": logistic_accuracy(
                        weights, all_features, all_labels
                    ),
                }
            )
        return weights
