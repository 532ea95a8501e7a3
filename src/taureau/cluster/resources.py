"""Resource accounting primitives for the cluster substrate."""

from __future__ import annotations

import dataclasses

__all__ = ["ResourceVector", "InsufficientResources"]


class InsufficientResources(Exception):
    """Raised when an allocation does not fit on the target machine."""


@dataclasses.dataclass(frozen=True)
class ResourceVector:
    """CPU cores and memory, the two dimensions serverless bills on.

    Vectors are immutable; arithmetic returns new vectors so allocations
    can be recorded and released without aliasing bugs.
    """

    cpu_cores: float = 0.0
    memory_mb: float = 0.0

    def __post_init__(self):
        if self.cpu_cores < 0 or self.memory_mb < 0:
            raise ValueError(f"negative resource vector: {self}")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu_cores + other.cpu_cores, self.memory_mb + other.memory_mb
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu_cores - other.cpu_cores, self.memory_mb - other.memory_mb
        )

    def __mul__(self, factor: float) -> "ResourceVector":
        return ResourceVector(self.cpu_cores * factor, self.memory_mb * factor)

    def dominant_share(self, capacity: "ResourceVector") -> float:
        """The max fractional demand across dimensions (DRF-style)."""
        shares = []
        if capacity.cpu_cores > 0:
            shares.append(self.cpu_cores / capacity.cpu_cores)
        if capacity.memory_mb > 0:
            shares.append(self.memory_mb / capacity.memory_mb)
        return max(shares) if shares else 0.0

    @property
    def is_zero(self) -> bool:
        return self.cpu_cores == 0 and self.memory_mb == 0
