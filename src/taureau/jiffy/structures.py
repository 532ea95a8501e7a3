"""Data structures layered over Jiffy blocks.

Applications see files, queues and hash tables; underneath, each
structure owns a set of pool blocks and grows (or shrinks) elastically
at block granularity.  Repartitioning work is *counted*: the hash table
tracks every byte that moves when its block set changes, which is the
measured quantity in the isolation experiment (E6).
"""

from __future__ import annotations

import typing

from taureau.baas.sizing import estimate_size_mb
from taureau.jiffy.blocks import Block
from taureau.sim import stable_hash

__all__ = ["BlockAllocator", "JiffyFile", "JiffyQueue", "JiffyHashTable"]


class BlockAllocator:
    """The controller-provided handle a structure allocates through.

    ``pressure_handler(count, exclude)`` is an optional hook the
    controller installs when a spill tier is configured: on pool
    exhaustion it is asked to free at least ``count`` blocks (without
    spilling the ``exclude`` namespace, which is the one growing), after
    which the allocation is retried once.
    """

    def __init__(self, pool, owner: str, pressure_handler=None):
        self._pool = pool
        self.owner = owner
        self._pressure_handler = pressure_handler

    def allocate(self, count: int = 1) -> list:
        from taureau.jiffy.blocks import PoolExhausted

        try:
            return self._pool.allocate(self.owner, count)
        except PoolExhausted:
            if self._pressure_handler is None:
                raise
            self._pressure_handler(count, self.owner)
            return self._pool.allocate(self.owner, count)

    def release(self, blocks: typing.Sequence[Block]) -> None:
        self._pool.release(blocks)


class _Structure:
    """Common bookkeeping for block-backed structures."""

    kind = "structure"

    def __init__(self, allocator: BlockAllocator, initial_blocks: int = 1):
        self._allocator = allocator
        self.blocks: list = allocator.allocate(initial_blocks)
        self.destroyed = False

    @property
    def path(self) -> str:
        return self._allocator.owner

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def capacity_mb(self) -> float:
        return sum(block.capacity_mb for block in self.blocks)

    @property
    def used_mb(self) -> float:
        return sum(block.used_mb for block in self.blocks)

    def destroy(self) -> None:
        """Release every block back to the pool; contents are gone."""
        if self.destroyed:
            return
        self._allocator.release(
            [block for block in self.blocks if block.node.alive]
        )
        self.blocks = []
        self.destroyed = True

    def dump_state(self) -> dict:
        """A plain-dict snapshot for spilling to a persistent tier."""
        raise NotImplementedError

    @classmethod
    def from_state(cls, allocator: BlockAllocator, state: dict) -> "_Structure":
        """Rebuild a structure (new blocks) from a dumped snapshot."""
        raise NotImplementedError

    @property
    def damaged(self) -> bool:
        """True if any backing block's memory node has crashed."""
        return any(not block.node.alive for block in self.blocks)

    def _check_alive(self) -> None:
        if self.destroyed:
            raise RuntimeError(f"{self.kind} {self.path!r} was destroyed/reclaimed")
        if self.damaged:
            from taureau.jiffy.blocks import DataLost

            raise DataLost(
                f"{self.kind} {self.path!r} lost blocks to a memory-node crash"
            )


class JiffyFile(_Structure):
    """An append-only log of objects (ExCamera/shuffle-style outputs)."""

    kind = "file"

    def __init__(self, allocator: BlockAllocator, initial_blocks: int = 1):
        super().__init__(allocator, initial_blocks)
        self._items: list = []  # (value, size_mb, block)
        self._cursor = 0  # index of the block being filled

    def append(self, value: object, size_mb: typing.Optional[float] = None) -> None:
        self._check_alive()
        size = estimate_size_mb(value) if size_mb is None else size_mb
        block = self._block_with_room(size)
        block.store(size)
        self._items.append((value, size, block))

    def read_all(self) -> list:
        self._check_alive()
        return [value for value, __, __ in self._items]

    def read(self, index: int) -> object:
        self._check_alive()
        return self._items[index][0]

    def dump_state(self) -> dict:
        return {"items": [(value, size) for value, size, __ in self._items]}

    @classmethod
    def from_state(cls, allocator, state):
        file = cls(allocator)
        for value, size in state["items"]:
            file.append(value, size_mb=size)
        return file

    def __len__(self) -> int:
        return len(self._items)

    def _block_with_room(self, size_mb: float) -> Block:
        if size_mb > self.blocks[0].capacity_mb:
            raise ValueError(
                f"item of {size_mb} MB exceeds block size "
                f"{self.blocks[0].capacity_mb} MB"
            )
        while self._cursor < len(self.blocks):
            block = self.blocks[self._cursor]
            if block.free_mb >= size_mb:
                return block
            self._cursor += 1
        self.blocks.extend(self._allocator.allocate(1))
        return self.blocks[self._cursor]


class JiffyQueue(_Structure):
    """A FIFO queue; dequeued space is reclaimed block-by-block."""

    kind = "queue"

    def __init__(self, allocator: BlockAllocator, initial_blocks: int = 1):
        super().__init__(allocator, initial_blocks)
        self._entries: list = []  # (value, size_mb, block)
        self._head = 0
        self._tail_cursor = 0

    def enqueue(self, value: object, size_mb: typing.Optional[float] = None) -> None:
        self._check_alive()
        size = estimate_size_mb(value) if size_mb is None else size_mb
        if size > self.blocks[0].capacity_mb:
            raise ValueError("item exceeds block size")
        while self._tail_cursor < len(self.blocks):
            block = self.blocks[self._tail_cursor]
            if block.free_mb >= size:
                break
            self._tail_cursor += 1
        else:
            self.blocks.extend(self._allocator.allocate(1))
        block = self.blocks[self._tail_cursor]
        block.store(size)
        self._entries.append((value, size, block))

    def dequeue(self) -> object:
        self._check_alive()
        if self._head >= len(self._entries):
            raise IndexError("dequeue from empty queue")
        value, size, block = self._entries[self._head]
        self._entries[self._head] = None  # drop the reference
        self._head += 1
        block.evict(size)
        self._maybe_release_drained_blocks()
        if self._head == len(self._entries):
            self._entries = []
            self._head = 0
        return value

    def dump_state(self) -> dict:
        live = self._entries[self._head:]
        return {"entries": [(value, size) for value, size, __ in live]}

    @classmethod
    def from_state(cls, allocator, state):
        queue = cls(allocator)
        for value, size in state["entries"]:
            queue.enqueue(value, size_mb=size)
        return queue

    def __len__(self) -> int:
        return len(self._entries) - self._head

    def _maybe_release_drained_blocks(self) -> None:
        # Release fully drained leading blocks, but always keep one.
        while len(self.blocks) > 1 and self.blocks[0].used_mb == 0.0:
            if self._tail_cursor == 0:
                break  # still filling the first block
            drained = self.blocks.pop(0)
            self._tail_cursor -= 1
            self._allocator.release([drained])


class JiffyHashTable(_Structure):
    """A hash table partitioned across blocks by stable key hash.

    Growing or shrinking the block set re-hashes every key; bytes whose
    partition changes are counted in :attr:`bytes_repartitioned_mb`.
    With consistent-hash-free modulo placement roughly
    ``(1 - 1/new_blocks)`` of data moves on growth — the cost that Jiffy
    confines to one namespace and a global address space imposes on all
    tenants at once (experiment E6).
    """

    kind = "hash_table"

    def __init__(self, allocator: BlockAllocator, initial_blocks: int = 1):
        super().__init__(allocator, initial_blocks)
        self._data: dict = {}  # key -> (value, size_mb)
        self._partition_of: dict = {}  # key -> block index
        self.bytes_repartitioned_mb = 0.0
        self.resize_count = 0

    def put(self, key: str, value: object, size_mb: typing.Optional[float] = None):
        self._check_alive()
        size = estimate_size_mb(value) if size_mb is None else size_mb
        if size > self.blocks[0].capacity_mb:
            raise ValueError("item exceeds block size")
        if key in self._data:
            self.remove(key)
        index = self._partition(key)
        # Grow until the key's partition has room (hash skew can require
        # more than one step, and some intermediate sizes may be invalid
        # because the new modulo would overload a different partition).
        while self.blocks[index].free_mb < size:
            self._grow_to_next_valid_size()
            index = self._partition(key)
        self.blocks[index].store(size)
        self._data[key] = (value, size)
        self._partition_of[key] = index

    def get(self, key: str) -> object:
        self._check_alive()
        if key not in self._data:
            raise KeyError(key)
        return self._data[key][0]

    def remove(self, key: str) -> object:
        self._check_alive()
        if key not in self._data:
            raise KeyError(key)
        self._remove_from_block(key)
        value, __ = self._data.pop(key)
        del self._partition_of[key]
        return value

    def dump_state(self) -> dict:
        return {"data": {key: (value, size)
                         for key, (value, size) in self._data.items()}}

    @classmethod
    def from_state(cls, allocator, state):
        table = cls(allocator)
        for key, (value, size) in state["data"].items():
            table.put(key, value, size_mb=size)
        return table

    def keys(self) -> list:
        self._check_alive()
        return sorted(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def resize(self, block_count: int) -> float:
        """Grow/shrink to ``block_count`` blocks; returns MB moved."""
        self._check_alive()
        if block_count <= 0:
            raise ValueError("block_count must be positive")
        if block_count == len(self.blocks):
            return 0.0
        # Validate the prospective placement before touching any blocks so
        # a failed resize — grow or shrink — leaves the table untouched
        # and leaks nothing.
        capacity = self.blocks[0].capacity_mb
        loads = [0.0] * block_count
        for key, (__, size) in self._data.items():
            loads[stable_hash(key) % block_count] += size
        if any(load > capacity + 1e-12 for load in loads):
            raise ValueError(
                f"data does not fit in {block_count} blocks "
                "(per-partition overflow)"
            )
        if block_count > len(self.blocks):
            self.blocks.extend(
                self._allocator.allocate(block_count - len(self.blocks))
            )
        else:
            surplus = self.blocks[block_count:]
            self.blocks = self.blocks[:block_count]
            self._allocator.release(surplus)
        moved = self._repartition()
        self.resize_count += 1
        return moved

    # -- internals ---------------------------------------------------------

    def _grow_to_next_valid_size(self) -> None:
        """Grow to the smallest larger block count with a feasible layout."""
        limit = 4 * len(self.blocks) + 16
        target = len(self.blocks) + 1
        while target <= limit:
            try:
                self.resize(target)
                return
            except ValueError:
                target += 1
        raise ValueError(
            f"no feasible layout up to {limit} blocks; item sizes are too "
            "skewed for this block size"
        )

    def _partition(self, key: str) -> int:
        return stable_hash(key) % len(self.blocks)

    def _remove_from_block(self, key: str) -> None:
        __, size = self._data[key]
        self.blocks[self._partition_of[key]].evict(size)

    def _repartition(self) -> float:
        """Re-place every key; returns the MB that changed partition.

        Placement is validated before any state mutates, so a resize that
        would overflow one partition (hash skew on shrink) raises cleanly
        and leaves the table untouched.
        """
        placement = {key: self._partition(key) for key in self._data}
        loads = [0.0] * len(self.blocks)
        for key, (__, size) in self._data.items():
            loads[placement[key]] += size
        for load, block in zip(loads, self.blocks):
            if load > block.capacity_mb + 1e-12:
                raise ValueError(
                    f"partition overflow after resize to {len(self.blocks)} "
                    "blocks; use a larger block count"
                )
        moved_mb = 0.0
        for block in self.blocks:
            block.used_mb = 0.0
        for key, (__, size) in self._data.items():
            new_index = placement[key]
            if self._partition_of.get(key) != new_index:
                moved_mb += size
            self._partition_of[key] = new_index
            self.blocks[new_index].store(size)
        self.bytes_repartitioned_mb += moved_mb
        return moved_mb
