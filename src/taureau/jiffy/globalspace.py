"""The single-global-address-space baseline Jiffy argues against.

Paper §4.4: "A single global address space, as exposed in classical
distributed shared memory systems and recent in-memory stores, precludes
isolation guarantees for scaling memory resources in multi-tenant
settings, since adding/removing memory resources for an application
requires re-partitioning data for the entire address-space."

:class:`GlobalAddressSpace` is exactly that design: every tenant's keys
hash into one shared partition space, so scaling for tenant A moves
tenant B's bytes too.  Experiment E6 measures cross-tenant disruption
here against Jiffy's per-namespace hash tables.
"""

from __future__ import annotations

import collections
import typing

from taureau.sim import stable_hash

__all__ = ["GlobalAddressSpace"]


class GlobalAddressSpace:
    """One flat, shared, partitioned key space for all tenants."""

    def __init__(self, partitions: int = 4):
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        self.partitions = partitions
        self._data: dict = {}  # (tenant, key) -> size_mb
        self._partition_of: dict = {}
        #: Cumulative MB moved, per tenant, across all rescales.
        self.moved_mb_by_tenant: typing.Dict[str, float] = collections.defaultdict(
            float
        )
        self.rescale_count = 0

    def put(self, tenant: str, key: str, size_mb: float) -> None:
        address = (tenant, key)
        self._data[address] = size_mb
        self._partition_of[address] = self._partition(address)

    def remove(self, tenant: str, key: str) -> None:
        address = (tenant, key)
        if address not in self._data:
            raise KeyError(address)
        del self._data[address]
        del self._partition_of[address]

    def used_mb(self, tenant: typing.Optional[str] = None) -> float:
        if tenant is None:
            return sum(self._data.values())
        return sum(
            size for (owner, __), size in self._data.items() if owner == tenant
        )

    def rescale(self, partitions: int) -> typing.Dict[str, float]:
        """Change the partition count; returns MB moved per tenant.

        This is the global design's flaw made measurable: *every*
        tenant's data is eligible to move, no matter who asked for the
        capacity change.
        """
        if partitions <= 0:
            raise ValueError("partitions must be positive")
        self.partitions = partitions
        moved: typing.Dict[str, float] = collections.defaultdict(float)
        for address, size in self._data.items():
            new_partition = self._partition(address)
            if new_partition != self._partition_of[address]:
                moved[address[0]] += size
                self._partition_of[address] = new_partition
        for tenant, mb in moved.items():
            self.moved_mb_by_tenant[tenant] += mb
        self.rescale_count += 1
        return dict(moved)

    def _partition(self, address: typing.Tuple[str, str]) -> int:
        return stable_hash(f"{address[0]}/{address[1]}") % self.partitions
