"""Block-level memory allocation over a shared pool of memory nodes.

Jiffy's first design insight (paper §4.4): it is hard to provision
capacity for any *individual* application, but the short-lived nature of
serverless tasks makes it efficient to multiplex one shared memory pool
*across* applications — exactly like page-level allocation in an
operating system.  :class:`BlockPool` is that allocator: fixed-size
blocks on memory nodes, handed to namespaces on demand and returned when
state is reclaimed.
"""

from __future__ import annotations

import typing

from taureau.sim import MetricRegistry, Simulation

__all__ = [
    "PoolExhausted",
    "CapacityError",
    "DataLost",
    "Block",
    "MemoryNode",
    "BlockPool",
]


class PoolExhausted(Exception):
    """No free blocks remain anywhere in the memory pool."""


class CapacityError(PoolExhausted):
    """Pool exhaustion with nothing left to spill — with attribution.

    Raised by the controller's pressure-relief path when a grow request
    cannot be satisfied even after spilling every eligible namespace.
    Unlike a bare :class:`PoolExhausted`, it names the tenant that hit
    the wall and how much it asked for, so multi-tenant operators can
    tell *who* ran the pool dry.
    """

    def __init__(self, tenant: str, requested_mb: float, path: str,
                 free_mb: float, total_mb: float):
        self.tenant = tenant
        self.requested_mb = requested_mb
        self.path = path
        self.free_mb = free_mb
        self.total_mb = total_mb
        super().__init__(
            f"tenant {tenant!r} requested {requested_mb:g} MB for {path!r} "
            f"but only {free_mb:g} of {total_mb:g} MB is free and nothing "
            f"is left to spill"
        )


class DataLost(Exception):
    """A structure's backing memory node crashed before a flush/spill."""


class Block:
    """One fixed-size unit of remote memory."""

    def __init__(self, node: "MemoryNode", capacity_mb: float, block_id: str):
        self.block_id = block_id
        self.node = node
        self.capacity_mb = capacity_mb
        self.used_mb = 0.0
        self.owner: typing.Optional[str] = None  # namespace path

    @property
    def free_mb(self) -> float:
        return self.capacity_mb - self.used_mb

    def store(self, size_mb: float) -> None:
        if size_mb > self.free_mb + 1e-12:
            raise ValueError(
                f"{self.block_id}: {size_mb} MB does not fit in {self.free_mb} MB"
            )
        self.used_mb += size_mb

    def evict(self, size_mb: float) -> None:
        if size_mb > self.used_mb + 1e-12:
            raise ValueError(f"{self.block_id}: evicting more than stored")
        self.used_mb = max(0.0, self.used_mb - size_mb)

    def reset(self) -> None:
        self.used_mb = 0.0
        self.owner = None


def _tenant_of(owner: str) -> str:
    """The tenant a namespace path belongs to (its first segment)."""
    for segment in owner.split("/"):
        if segment:
            return segment
    return owner or "unknown"


class MemoryNode:
    """A storage server contributing blocks to the shared pool."""

    def __init__(self, block_count: int, block_size_mb: float, node_id: str):
        self.node_id = node_id
        self.block_size_mb = block_size_mb
        self.alive = True
        self.blocks = [
            Block(self, block_size_mb, f"{node_id}.b{index}")
            for index in range(block_count)
        ]

    @property
    def capacity_mb(self) -> float:
        return len(self.blocks) * self.block_size_mb


class BlockPool:
    """The cluster-wide block allocator (Jiffy's control-plane core).

    Allocation spreads across memory nodes round-robin so one tenant's
    burst does not concentrate on a single node.  Every allocation and
    free is recorded, which lets experiment E7 compare the pool's peak
    usage against the sum of per-application peaks.
    """

    def __init__(
        self,
        sim: Simulation,
        node_count: int = 4,
        blocks_per_node: int = 256,
        block_size_mb: float = 8.0,
    ):
        if node_count <= 0 or blocks_per_node <= 0 or block_size_mb <= 0:
            raise ValueError("pool dimensions must be positive")
        self.sim = sim
        self.block_size_mb = block_size_mb
        self.nodes = [
            MemoryNode(blocks_per_node, block_size_mb, node_id=f"mn{index}")
            for index in range(node_count)
        ]
        self.metrics = MetricRegistry(namespace="jiffy.pool")
        # Interleave nodes so consecutive allocations round-robin across
        # them (allocate pops from the end of the free list).
        self._free: list = [
            node.blocks[offset]
            for offset in range(blocks_per_node)
            for node in self.nodes
        ]
        self._allocated_count = 0

    @property
    def total_blocks(self) -> int:
        return sum(len(node.blocks) for node in self.nodes)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def allocated_blocks(self) -> int:
        return self._allocated_count

    @property
    def allocated_mb(self) -> float:
        return self._allocated_count * self.block_size_mb

    def allocate(self, owner: str, count: int = 1) -> list:
        """Take ``count`` free blocks for namespace ``owner``.

        All-or-nothing: raises :class:`PoolExhausted` (allocating none)
        if fewer than ``count`` blocks are free.
        """
        if count <= 0:
            raise ValueError("allocate count must be positive")
        if count > len(self._free):
            self.metrics.counter("allocation_failures").add()
            raise PoolExhausted(
                f"requested {count} blocks, {len(self._free)} free of "
                f"{self.total_blocks}"
            )
        taken = [self._free.pop() for _ in range(count)]
        for block in taken:
            block.owner = owner
        self._allocated_count += count
        self.metrics.counter("allocations").add(count)
        self._tenant_gauge().add(count, tenant=_tenant_of(owner))
        self._record_usage()
        return taken

    def release(self, blocks: typing.Iterable[Block]) -> None:
        """Return blocks to the pool (their contents are discarded)."""
        for block in blocks:
            if block.owner is None:
                raise ValueError(f"{block.block_id} is not allocated")
            self._tenant_gauge().add(-1, tenant=_tenant_of(block.owner))
            block.reset()
            self._free.append(block)
            self._allocated_count -= 1
        self.metrics.counter("releases").add()
        self._record_usage()

    def fail_node(self, node: MemoryNode) -> list:
        """Crash a memory node; returns the namespace paths that lost data.

        Ephemeral state is not replicated (that is what makes it cheap);
        every block the node held — free or allocated — is gone.  Owning
        structures detect the damage on their next access and raise
        :class:`DataLost` unless their namespace was spilled/flushed to
        a persistent tier first.
        """
        if node not in self.nodes:
            raise ValueError(f"{node.node_id} is not part of this pool")
        if not node.alive:
            raise ValueError(f"{node.node_id} already failed")
        node.alive = False
        affected = sorted({
            block.owner for block in node.blocks if block.owner is not None
        })
        self._free = [block for block in self._free if block.node is not node]
        lost_allocated = 0
        for block in node.blocks:
            if block.owner is not None:
                self._tenant_gauge().add(-1, tenant=_tenant_of(block.owner))
                lost_allocated += 1
        self._allocated_count -= lost_allocated
        self.metrics.counter("node_failures").add()
        self.metrics.counter("blocks_lost").add(lost_allocated)
        self._record_usage()
        return affected

    def peak_allocated_blocks(self) -> int:
        series = self.metrics.series("allocated_blocks")
        return int(series.maximum()) if len(series) else 0

    def _tenant_gauge(self):
        """Per-tenant block occupancy (tenant = first namespace segment)."""
        return self.metrics.labeled_gauge("blocks_by", ("tenant",))

    def _record_usage(self) -> None:
        self.metrics.series("allocated_blocks").record(
            self.sim.now, self._allocated_count
        )
