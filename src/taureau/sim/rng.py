"""Deterministic random-number management.

Every taureau component that needs randomness asks the simulation's
:class:`RngRegistry` for a *named stream*.  Streams are independent
``random.Random`` instances seeded from the master seed and the stream
name, so adding a new randomness consumer never perturbs the draws seen by
existing consumers — a property plain ``random.Random`` sharing lacks and
one that keeps experiment traces stable across library versions.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["RngRegistry", "derive_seed", "stable_hash"]


def derive_seed(master_seed: int, name: str) -> int:
    """A stable 64-bit seed derived from ``(master_seed, name)``."""
    digest = hashlib.blake2b(
        f"{master_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def stable_hash(key) -> int:
    """A stable 64-bit hash of ``str(key)``, for routing and partitioning.

    Python's builtin ``hash`` of a string is randomized per process, so
    a partition chosen with it would differ between same-seed runs.
    """
    digest = hashlib.blake2b(str(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RngRegistry:
    """Hands out independent, reproducible named random streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: dict = {}

    def stream(self, name: str) -> random.Random:
        """The ``random.Random`` for ``name`` (created on first use)."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]

    def numpy_seed(self, name: str) -> int:
        """A seed suitable for ``numpy.random.default_rng``."""
        return derive_seed(self.master_seed, name)

    def __contains__(self, name: str) -> bool:
        return name in self._streams
