"""A ZooKeeper-like metadata and coordination service.

Figure 1 of the paper: "A Pulsar cluster is composed of a set of brokers
and bookies and an Apache ZooKeeper ensemble for coordination and
configuration management."  This model keeps the cluster's source of
truth — topic → partition lists and partition → broker assignments —
behind small operations, and counts every operation it serves.
"""

from __future__ import annotations

from taureau.sim import MetricRegistry, Simulation

__all__ = ["MetadataStore"]


class MetadataStore:
    """Strongly consistent, low-throughput configuration storage."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self.metrics = MetricRegistry(namespace="pulsar.metadata")
        self._operations = None  # bound on the first operation
        self._data: dict = {}

    def put(self, path: str, value: object) -> None:
        self._op()
        self._data[path] = value

    def get(self, path: str) -> object:
        self._op()
        if path not in self._data:
            raise KeyError(f"metadata path {path!r} not found")
        return self._data[path]

    def exists(self, path: str) -> bool:
        self._op()
        return path in self._data

    def _op(self) -> None:
        if self._operations is None:
            self._operations = self.metrics.counter("operations")
        self._operations.add()
