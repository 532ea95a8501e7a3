"""A ZooKeeper-like metadata and coordination service.

Figure 1 of the paper: "A Pulsar cluster is composed of a set of brokers
and bookies and an Apache ZooKeeper ensemble for coordination and
configuration management."  This model keeps the cluster's source of
truth — topic → broker assignments, topic → ledger lists, ledger states
— behind small, latency-charged operations, and hands out monotonic
sequence numbers (the coordination primitive everything else leans on).
"""

from __future__ import annotations

import itertools
import typing

from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.sim import MetricRegistry, Simulation

__all__ = ["MetadataStore"]


class MetadataStore:
    """Strongly consistent, low-throughput configuration storage."""

    def __init__(
        self, sim: Simulation, calibration: Calibration = DEFAULT_CALIBRATION
    ):
        self.sim = sim
        self.calibration = calibration
        self.metrics = MetricRegistry(namespace="pulsar.metadata")
        self._operations = None  # bound on the first operation
        self._data: dict = {}
        self._sequences = itertools.count(1)

    def put(self, path: str, value: object) -> None:
        self._op()
        self._data[path] = value

    def get(self, path: str) -> object:
        self._op()
        if path not in self._data:
            raise KeyError(f"metadata path {path!r} not found")
        return self._data[path]

    def get_or(self, path: str, default: object = None) -> object:
        self._op()
        return self._data.get(path, default)

    def exists(self, path: str) -> bool:
        self._op()
        return path in self._data

    def delete(self, path: str) -> None:
        self._op()
        if path not in self._data:
            raise KeyError(f"metadata path {path!r} not found")
        del self._data[path]

    def children(self, prefix: str) -> list:
        self._op()
        prefix = prefix.rstrip("/") + "/"
        return sorted(path for path in self._data if path.startswith(prefix))

    def next_sequence(self) -> int:
        """A cluster-wide unique, monotonically increasing id."""
        self._op()
        return next(self._sequences)

    @property
    def operation_latency_s(self) -> float:
        return self.calibration.zookeeper_op_s

    def _op(self) -> None:
        if self._operations is None:
            self._operations = self.metrics.counter("operations")
        self._operations.add()
