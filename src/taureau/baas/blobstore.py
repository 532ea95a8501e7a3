"""An S3-like blob store (paper §4.1, "Storage platforms").

The blob store is the canonical BaaS substrate: since FaaS functions are
stateless, "the storage services provide a means to store state in the
serverless ecosystem".  It is durable, arbitrarily scalable, billed per
request and per GB-month — and *slow* relative to memory, which is the
whole point of experiment E5 (state exchange through S3 vs through
Jiffy).

Latency model: ``base + size / bandwidth`` per operation, charged onto
the calling invocation's context when one is passed.
"""

from __future__ import annotations

import typing

from taureau.baas.sizing import estimate_size_mb
from taureau.core.calibration import DEFAULT_CALIBRATION, Calibration
from taureau.core.function import journaled
from taureau.sim import MetricRegistry, Simulation

__all__ = ["BlobNotFound", "BlobStore"]


class BlobNotFound(KeyError):
    """GET/DELETE of a key that does not exist."""


class _Blob:
    __slots__ = ("value", "size_mb", "created_at")

    def __init__(self, value: object, size_mb: float, created_at: float):
        self.value = value
        self.size_mb = size_mb
        self.created_at = created_at


class BlobStore:
    """A durable, flat-namespace object store.

    Keys are arbitrary strings (use ``/`` prefixes for pseudo-folders, as
    on S3).  Values are arbitrary Python objects with a modelled byte
    size.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str = "blob",
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.sim = sim
        self.name = name
        self.calibration = calibration
        self.metrics = MetricRegistry(namespace="baas.blob")
        self._blobs: dict = {}
        self._stored_mb = 0.0
        self.fault_component = f"baas.{name}"
        # Fault-plane gate (set by Platform._gate_client when a chaos
        # plan / resilience policy is installed; both None by default).
        self.faults = None
        self.resilience = None

    def _guard(self, ctx, op: str) -> None:
        if self.faults is not None:
            self.faults.guard(self.fault_component, op, ctx=ctx,
                              policy=self.resilience)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    # Writes route through the durable-execution journal
    # (``journaled``); reads stay live (idempotent).

    def put(
        self,
        key: str,
        value: object,
        ctx=None,
        size_mb: typing.Optional[float] = None,
    ) -> None:
        """Store ``value`` under ``key`` (overwrites)."""
        return journaled(
            ctx, f"baas.blob.{self.name}.put:{key}",
            lambda: self._put(key, value, ctx, size_mb),
        )

    def _put(
        self,
        key: str,
        value: object,
        ctx,
        size_mb: typing.Optional[float],
    ) -> None:
        self._guard(ctx, "put")
        size = estimate_size_mb(value) if size_mb is None else size_mb
        if size < 0:
            raise ValueError("size_mb must be nonnegative")
        previous = self._blobs.get(key)
        if previous is not None:
            self._stored_mb -= previous.size_mb
        self._blobs[key] = _Blob(value, size, self.sim.now)
        self._stored_mb += size
        self._charge(ctx, size, op="put", key=key)
        self.metrics.counter("puts").add()
        self.metrics.counter("bytes_in_mb").add(size)
        self.metrics.series("stored_mb").record(self.sim.now, self._stored_mb)

    def get(self, key: str, ctx=None) -> object:
        """Fetch the value under ``key``; raises :class:`BlobNotFound`."""
        self._guard(ctx, "get")
        blob = self._blobs.get(key)
        if blob is None:
            raise BlobNotFound(key)
        self._charge(ctx, blob.size_mb, op="get", key=key)
        self.metrics.counter("gets").add()
        self.metrics.counter("bytes_out_mb").add(blob.size_mb)
        return blob.value

    def exists(self, key: str, ctx=None) -> bool:
        self._guard(ctx, "exists")
        self._charge(ctx, 0.0, op="exists", key=key)
        return key in self._blobs

    def delete(self, key: str, ctx=None) -> None:
        return journaled(
            ctx, f"baas.blob.{self.name}.delete:{key}",
            lambda: self._delete(key, ctx),
        )

    def _delete(self, key: str, ctx) -> None:
        self._guard(ctx, "delete")
        blob = self._blobs.pop(key, None)
        if blob is None:
            raise BlobNotFound(key)
        self._stored_mb -= blob.size_mb
        self._charge(ctx, 0.0, op="delete", key=key)
        self.metrics.counter("deletes").add()
        self.metrics.series("stored_mb").record(self.sim.now, self._stored_mb)

    def list_keys(self, prefix: str = "", ctx=None) -> list:
        """All keys with ``prefix``, sorted (one LIST round-trip)."""
        self._guard(ctx, "list")
        self._charge(ctx, 0.0, op="list", key=prefix)
        return sorted(key for key in self._blobs if key.startswith(prefix))

    def size_mb(self, key: str) -> float:
        blob = self._blobs.get(key)
        if blob is None:
            raise BlobNotFound(key)
        return blob.size_mb

    @property
    def stored_mb(self) -> float:
        return self._stored_mb

    def __len__(self) -> int:
        return len(self._blobs)

    def __contains__(self, key: str) -> bool:
        return key in self._blobs

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def operation_latency_s(self, size_mb: float) -> float:
        return self.calibration.blob_transfer_latency(size_mb)

    def request_cost_usd(self) -> float:
        """Request charges so far (PUTs + GETs at list prices)."""
        calibration = self.calibration
        return (
            self.metrics.counter("puts").value * calibration.blob_price_per_put
            + self.metrics.counter("gets").value * calibration.blob_price_per_get
        )

    def storage_cost_usd(self, start: float = 0.0, end: typing.Optional[float] = None):
        """GB-month storage charges over ``[start, end]`` of simulated time."""
        end = self.sim.now if end is None else end
        mb_seconds = self.metrics.series("stored_mb").integral(start, end)
        gb_months = (mb_seconds / 1024.0) / (30 * 24 * 3600.0)
        return gb_months * self.calibration.blob_price_per_gb_month

    def _charge(self, ctx, size_mb: float, op: str = "io", key: str = "") -> None:
        self.metrics.labeled_counter("ops_by", ("op",)).add(op=op)
        self.metrics.histogram("io_size_mb").observe(size_mb)
        if ctx is None:
            return
        latency = self.operation_latency_s(size_mb)
        ctx.charge_io(latency, f"baas.blob.{op}", store=self.name, key=key)
