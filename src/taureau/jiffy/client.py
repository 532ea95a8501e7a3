"""The Jiffy client functions use from inside their sandboxes.

Wraps the controller's structures with (a) memory-class latency charged
to the calling invocation's context and (b) write notifications on the
namespace, so consumers learn when state is ready.  Wire an instance
into a platform (``platform.wire_service("jiffy", client)``) and
handlers reach it as ``ctx.service("jiffy")``.
"""

from __future__ import annotations

import typing

from taureau.baas.sizing import estimate_size_mb
from taureau.jiffy.controller import JiffyController

__all__ = ["JiffyClient"]


class JiffyClient:
    """Latency-accounted facade over a :class:`JiffyController`."""

    def __init__(self, controller: JiffyController):
        self.controller = controller
        self._calibration = controller.calibration
        # Fault-plane gate (set by Platform._gate_client when a chaos
        # plan / resilience policy is installed; all None by default).
        self.faults = None
        self.fault_component = "jiffy"
        self.resilience = None

    def _guard(self, ctx, op: str) -> None:
        if self.faults is not None:
            self.faults.guard(self.fault_component, op, ctx=ctx,
                              policy=self.resilience)

    # ------------------------------------------------------------------
    # Namespace management
    # ------------------------------------------------------------------

    def create(self, path: str, structure: str = "file", ctx=None, **kwargs):
        self._guard(ctx, "create")
        self._charge(ctx, 0.0, control_plane=True, op="create", path=path)
        return self.controller.create(path, structure, **kwargs)

    def remove(self, path: str, ctx=None) -> None:
        self._charge(ctx, 0.0, control_plane=True, op="remove", path=path)
        self.controller.remove(path)

    def renew_lease(self, path: str, ttl_s=None, ctx=None) -> None:
        self._charge(ctx, 0.0, control_plane=True, op="renew_lease", path=path)
        self.controller.renew_lease(path, ttl_s)

    def exists(self, path: str, ctx=None) -> bool:
        self._charge(ctx, 0.0, control_plane=True, op="exists", path=path)
        return self.controller.exists(path)

    def subscribe(self, path: str, callback) -> typing.Callable:
        return self.controller.subscribe(path, callback)

    def wait_for_write(self, path: str):
        """An event firing at the next write to ``path``.

        The per-namespace notification mechanism (§4.4) as a consumer
        primitive: yield this from a simulated process to block until a
        producer lands data.  One-shot — re-arm for subsequent writes.
        """
        from taureau.jiffy.namespace import normalize_path

        sim = self.controller.sim
        done = sim.event()
        normalized = normalize_path(path)

        def on_event(event):
            if event.kind == "write" and not done.triggered:
                self.controller.notifications.unsubscribe(normalized, on_event)
                done.succeed(event)

        self.controller.subscribe(normalized, on_event)
        return done

    # ------------------------------------------------------------------
    # File operations
    # ------------------------------------------------------------------

    def append(self, path: str, value: object, ctx=None, size_mb=None) -> None:
        self._guard(ctx, "append")
        size = estimate_size_mb(value) if size_mb is None else size_mb
        self.controller.open(path).append(value, size_mb=size)
        self._charge(ctx, size, op="append", path=path)
        self.controller.notify(path, "write", size)

    def read_all(self, path: str, ctx=None) -> list:
        self._guard(ctx, "read_all")
        structure = self.controller.open(path)
        self._charge(ctx, structure.used_mb, op="read_all", path=path)
        return structure.read_all()

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------

    def enqueue(self, path: str, value: object, ctx=None, size_mb=None) -> None:
        self._guard(ctx, "enqueue")
        size = estimate_size_mb(value) if size_mb is None else size_mb
        self.controller.open(path).enqueue(value, size_mb=size)
        self._charge(ctx, size, op="enqueue", path=path)
        self.controller.notify(path, "write", size)

    def dequeue(self, path: str, ctx=None) -> object:
        self._guard(ctx, "dequeue")
        value = self.controller.open(path).dequeue()
        self._charge(ctx, estimate_size_mb(value), op="dequeue", path=path)
        return value

    def queue_length(self, path: str, ctx=None) -> int:
        self._charge(ctx, 0.0, op="queue_length", path=path)
        return len(self.controller.open(path))

    # ------------------------------------------------------------------
    # Hash-table operations
    # ------------------------------------------------------------------

    def put(self, path: str, key: str, value: object, ctx=None, size_mb=None):
        self._guard(ctx, "put")
        size = estimate_size_mb(value) if size_mb is None else size_mb
        self.controller.open(path).put(key, value, size_mb=size)
        self._charge(ctx, size, op="put", path=path)
        self.controller.notify(path, "write", key)

    def get(self, path: str, key: str, ctx=None) -> object:
        self._guard(ctx, "get")
        value = self.controller.open(path).get(key)
        self._charge(ctx, estimate_size_mb(value), op="get", path=path)
        return value

    def keys(self, path: str, ctx=None) -> list:
        self._guard(ctx, "keys")
        self._charge(ctx, 0.0, op="keys", path=path)
        return self.controller.open(path).keys()

    # ------------------------------------------------------------------

    def _charge(self, ctx, size_mb: float, control_plane: bool = False,
                op: str = "io", path: str = "") -> None:
        if ctx is None:
            return
        if control_plane:
            latency = self._calibration.zookeeper_op_s
        else:
            latency = self._calibration.memory_transfer_latency(size_mb)
        ctx.charge_io(latency, f"jiffy.{op}", path=path, size_mb=size_mb)
