"""A DynamoDB-like key-value store (paper §4.1).

Faster per-item than the blob store but still a remote, persistent
service.  Supports conditional writes (the primitive serverless
applications use to stay correct under the transparent re-execution the
paper highlights) and per-item versioning.
"""

from __future__ import annotations

import dataclasses
import typing

from taureau.baas.sizing import estimate_size_mb
from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.core.function import journaled
from taureau.sim import MetricRegistry, Simulation

__all__ = ["ConditionFailed", "KvItem", "KvStore"]


class ConditionFailed(Exception):
    """A conditional write's precondition did not hold."""


@dataclasses.dataclass
class KvItem:
    """A stored item plus its monotonically increasing version."""

    value: object
    version: int
    size_mb: float


class KvStore:
    """A low-latency, item-oriented remote store."""

    def __init__(
        self,
        sim: Simulation,
        name: str = "kv",
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.sim = sim
        self.name = name
        self.calibration = calibration
        self.metrics = MetricRegistry(namespace="baas.kv")
        self._items: typing.Dict[str, KvItem] = {}
        self.fault_component = f"baas.{name}"
        # Fault-plane gate (set by Platform._gate_client when a chaos
        # plan / resilience policy is installed; both None by default).
        self.faults = None
        self.resilience = None
        # Metric handles, each bound when a by-name lookup per call
        # would first have created its metric (so snapshots keep their
        # keys and order): per op its ``ops_by`` child and span name,
        # then ``io_size_mb``, at the first charge; ``puts`` and
        # ``gets`` at the first put and get.
        self._ops_by: typing.Dict[str, tuple] = {}
        self._io_size_mb = None
        self._puts = None
        self._gets = None

    def _guard(self, ctx, op: str) -> None:
        if self.faults is not None:
            self.faults.guard(self.fault_component, op, ctx=ctx,
                              policy=self.resilience)

    # Writes route through the durable-execution journal (``journaled``).
    # Reads stay live — they are idempotent, and a fresh read after a
    # replayed write observes the state that write actually produced.

    def put(self, key: str, value: object, ctx=None, size_mb=None) -> int:
        """Unconditional write; returns the new version."""
        return journaled(
            ctx, f"baas.kv.{self.name}.put:{key}",
            lambda: self._put(key, value, ctx, size_mb),
        )

    def _put(self, key: str, value: object, ctx, size_mb) -> int:
        self._guard(ctx, "put")
        size = estimate_size_mb(value) if size_mb is None else size_mb
        current = self._items.get(key)
        version = (current.version + 1) if current else 1
        self._items[key] = KvItem(value, version, size)
        self._charge(ctx, size, op="put", key=key)
        if self._puts is None:
            self._puts = self.metrics.counter("puts")
        self._puts.add()
        return version

    def put_if_version(
        self, key: str, value: object, expected_version: int, ctx=None, size_mb=None
    ) -> int:
        """Compare-and-swap on the item version.

        ``expected_version=0`` means "create only if absent".  Raises
        :class:`ConditionFailed` on mismatch — the caller's cue that a
        concurrent (or re-executed) writer got there first.
        """
        return journaled(
            ctx, f"baas.kv.{self.name}.put_if_version:{key}",
            lambda: self._put_if_version(key, value, expected_version,
                                         ctx, size_mb),
        )

    def _put_if_version(
        self, key: str, value: object, expected_version: int, ctx, size_mb
    ) -> int:
        self._guard(ctx, "put_if_version")
        current = self._items.get(key)
        current_version = current.version if current else 0
        self._charge(ctx, 0.0, op="put_if_version", key=key)
        if current_version != expected_version:
            self.metrics.counter("condition_failures").add()
            raise ConditionFailed(
                f"{key}: expected v{expected_version}, found v{current_version}"
            )
        return self._put(key, value, None, size_mb)

    def get(self, key: str, ctx=None) -> object:
        self._guard(ctx, "get")
        item = self._items.get(key)
        if item is None:
            raise KeyError(key)
        self._charge(ctx, item.size_mb, op="get", key=key)
        self._count_get()
        return item.value

    def get_item(self, key: str, ctx=None) -> KvItem:
        """The value *and* its version, for read-modify-write loops."""
        self._guard(ctx, "get_item")
        item = self._items.get(key)
        if item is None:
            raise KeyError(key)
        self._charge(ctx, item.size_mb, op="get", key=key)
        self._count_get()
        return item

    def delete(self, key: str, ctx=None) -> None:
        return journaled(
            ctx, f"baas.kv.{self.name}.delete:{key}",
            lambda: self._delete(key, ctx),
        )

    def _delete(self, key: str, ctx) -> None:
        self._guard(ctx, "delete")
        if key not in self._items:
            raise KeyError(key)
        del self._items[key]
        self._charge(ctx, 0.0, op="delete", key=key)
        self.metrics.counter("deletes").add()

    def counter_add(self, key: str, delta: float = 1.0, ctx=None) -> float:
        """Atomic numeric increment (creates the counter at 0).

        The read-modify-write journals as one effect: a retried
        invocation replays the recorded post-increment value instead of
        incrementing again (the classic duplicate-effect hazard of
        at-least-once retries).
        """
        return journaled(
            ctx, f"baas.kv.{self.name}.counter_add:{key}",
            lambda: self._counter_add(key, delta, ctx),
        )

    def _counter_add(self, key: str, delta: float, ctx) -> float:
        item = self._items.get(key)
        value = (item.value if item else 0.0) + delta
        self._put(key, value, ctx, 0.0)
        return value

    def keys(self, prefix: str = "") -> list:
        return sorted(key for key in self._items if key.startswith(prefix))

    def __contains__(self, key: str) -> bool:
        return key in self._items

    def __len__(self) -> int:
        return len(self._items)

    def _count_get(self) -> None:
        if self._gets is None:
            self._gets = self.metrics.counter("gets")
        self._gets.add()

    def _charge(self, ctx, size_mb: float, op: str = "io", key: str = "") -> None:
        bound = self._ops_by.get(op)
        if bound is None:
            bound = self._ops_by[op] = (
                self.metrics.labeled_counter("ops_by", ("op",)).labels(op=op),
                f"baas.kv.{op}",
            )
            if self._io_size_mb is None:
                self._io_size_mb = self.metrics.histogram("io_size_mb")
        ops, span_name = bound
        ops.add()
        self._io_size_mb.observe(size_mb)
        if ctx is None:
            return
        latency = self.calibration.kv_transfer_latency(size_mb)
        ctx.charge_io(latency, span_name, store=self.name, key=key)
