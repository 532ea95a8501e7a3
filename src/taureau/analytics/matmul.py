"""Serverless matrix multiplication, blocked and Strassen (§5.1, [181]).

Werner et al. showed distributed MATMUL on serverless with ephemeral
storage for intermediates; the paper flags MATMUL/MATVEC as the kernels
underneath deep learning.  Two strategies share the harness:

- :func:`blocked_matmul` — classical tile decomposition: one function
  per output tile, inputs read from and outputs written to Jiffy;
- :func:`strassen_matmul` — one or more levels of Strassen's
  7-multiplication recursion [170], the seven products dispatched as
  serverless tasks and combined locally.

All numerics are real numpy; results are checked against ``A @ B``.
"""

from __future__ import annotations

import typing

import numpy as np

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform
from taureau.jiffy.client import JiffyClient

__all__ = ["blocked_matmul", "strassen_matmul", "strassen_local"]

#: Simulated sustained compute rate for a 1-vCPU function (FLOP/s).
_FLOPS_PER_SECOND = 5e9


def _matmul_cost_s(m: int, k: int, n: int) -> float:
    """Simulated seconds to multiply (m x k) by (k x n)."""
    return (2.0 * m * k * n) / _FLOPS_PER_SECOND


def _array_mb(array: np.ndarray) -> float:
    return array.nbytes / (1024.0 * 1024.0)


def blocked_matmul(
    platform: FaasPlatform,
    jiffy: JiffyClient,
    a: np.ndarray,
    b: np.ndarray,
    tile: int = 64,
) -> np.ndarray:
    """Compute ``a @ b`` with one serverless task per output tile.

    Input tiles are staged into a Jiffy hash table; each task reads the
    row/column strips it needs, multiplies for real, and writes its
    output tile back; the driver assembles the result.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    if tile <= 0:
        raise ValueError("tile must be positive")
    job = f"matmul{next(platform.sim.ids('matmul'))}"
    path = f"/{job}/tiles"
    jiffy.create(path, "hash_table", initial_blocks=4, ttl_s=3600.0)
    row_tiles = -(-a.shape[0] // tile)
    col_tiles = -(-b.shape[1] // tile)
    inner_tiles = -(-a.shape[1] // tile)
    for i in range(row_tiles):
        for k in range(inner_tiles):
            block = a[i * tile : (i + 1) * tile, k * tile : (k + 1) * tile]
            jiffy.put(path, f"a/{i}/{k}", block, size_mb=_array_mb(block))
    for k in range(inner_tiles):
        for j in range(col_tiles):
            block = b[k * tile : (k + 1) * tile, j * tile : (j + 1) * tile]
            jiffy.put(path, f"b/{k}/{j}", block, size_mb=_array_mb(block))

    def tile_task(event, ctx):
        i, j = event["i"], event["j"]
        store = ctx.service("jiffy")
        accumulator: typing.Optional[np.ndarray] = None
        for k in range(inner_tiles):
            left = store.get(path, f"a/{i}/{k}", ctx=ctx)
            right = store.get(path, f"b/{k}/{j}", ctx=ctx)
            ctx.charge(_matmul_cost_s(left.shape[0], left.shape[1], right.shape[1]))
            partial = left @ right
            accumulator = partial if accumulator is None else accumulator + partial
        store.put(path, f"c/{i}/{j}", accumulator, ctx=ctx,
                  size_mb=_array_mb(accumulator))
        return (i, j)

    task_name = f"{job}-tile"
    platform.wire_service("jiffy", jiffy)
    platform.register(
        FunctionSpec(name=task_name, handler=tile_task, memory_mb=1024, timeout_s=900)
    )
    events = [
        platform.invoke(task_name, {"i": i, "j": j})
        for i in range(row_tiles)
        for j in range(col_tiles)
    ]
    records = platform.sim.run(until=platform.sim.all_of(events))
    failures = [record for record in records if not record.succeeded]
    if failures:
        raise RuntimeError(f"{len(failures)} tile tasks failed")
    result = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for i in range(row_tiles):
        for j in range(col_tiles):
            block = jiffy.get(path, f"c/{i}/{j}")
            result[
                i * tile : i * tile + block.shape[0],
                j * tile : j * tile + block.shape[1],
            ] = block
    jiffy.remove(f"/{job}")
    return result


def strassen_local(a: np.ndarray, b: np.ndarray, threshold: int = 64) -> np.ndarray:
    """Pure in-process Strassen recursion (reference implementation)."""
    n = a.shape[0]
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("strassen_local needs equal square matrices")
    if n <= threshold or n % 2 != 0:
        return a @ b
    half = n // 2
    a11, a12, a21, a22 = (
        a[:half, :half], a[:half, half:], a[half:, :half], a[half:, half:],
    )
    b11, b12, b21, b22 = (
        b[:half, :half], b[:half, half:], b[half:, :half], b[half:, half:],
    )
    m1 = strassen_local(a11 + a22, b11 + b22, threshold)
    m2 = strassen_local(a21 + a22, b11, threshold)
    m3 = strassen_local(a11, b12 - b22, threshold)
    m4 = strassen_local(a22, b21 - b11, threshold)
    m5 = strassen_local(a11 + a12, b22, threshold)
    m6 = strassen_local(a21 - a11, b11 + b12, threshold)
    m7 = strassen_local(a12 - a22, b21 + b22, threshold)
    top = np.hstack([m1 + m4 - m5 + m7, m3 + m5])
    bottom = np.hstack([m2 + m4, m1 - m2 + m3 + m6])
    return np.vstack([top, bottom])


def strassen_matmul(
    platform: FaasPlatform,
    jiffy: JiffyClient,
    a: np.ndarray,
    b: np.ndarray,
    levels: int = 1,
) -> np.ndarray:
    """Strassen's algorithm with the 7**levels leaf products as functions.

    Each recursion level splits the problem into 7 sub-multiplications
    (instead of 8), staged through Jiffy and dispatched in parallel; the
    additive combines run in the driver.  Returns ``(result, stats)``
    where stats reports leaf-task count and intermediate state volume.
    """
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError("strassen_matmul needs equal square matrices")
    if a.shape[0] % (2 ** levels) != 0:
        raise ValueError(f"matrix size must be divisible by 2^levels ({2 ** levels})")
    job = f"strassen{next(platform.sim.ids('strassen'))}"
    path = f"/{job}/leaves"
    jiffy.create(path, "hash_table", initial_blocks=4, ttl_s=3600.0)
    platform.wire_service("jiffy", jiffy)
    task_name = f"{job}-leaf"

    def leaf_task(event, ctx):
        store = ctx.service("jiffy")
        left = store.get(path, f"in/{event['id']}/a", ctx=ctx)
        right = store.get(path, f"in/{event['id']}/b", ctx=ctx)
        ctx.charge(_matmul_cost_s(left.shape[0], left.shape[1], right.shape[1]))
        product = left @ right
        store.put(path, f"out/{event['id']}", product, ctx=ctx,
                  size_mb=_array_mb(product))
        return event["id"]

    platform.register(
        FunctionSpec(name=task_name, handler=leaf_task, memory_mb=2048, timeout_s=900)
    )

    leaves: list = []

    def decompose(left: np.ndarray, right: np.ndarray, level: int):
        """Return a 'plan' whose leaves are staged multiplications."""
        if level == 0:
            leaf_id = len(leaves)
            jiffy.put(path, f"in/{leaf_id}/a", left, size_mb=_array_mb(left))
            jiffy.put(path, f"in/{leaf_id}/b", right, size_mb=_array_mb(right))
            leaves.append(leaf_id)
            return ("leaf", leaf_id)
        half = left.shape[0] // 2
        a11, a12 = left[:half, :half], left[:half, half:]
        a21, a22 = left[half:, :half], left[half:, half:]
        b11, b12 = right[:half, :half], right[:half, half:]
        b21, b22 = right[half:, :half], right[half:, half:]
        return (
            "combine",
            [
                decompose(a11 + a22, b11 + b22, level - 1),
                decompose(a21 + a22, b11, level - 1),
                decompose(a11, b12 - b22, level - 1),
                decompose(a22, b21 - b11, level - 1),
                decompose(a11 + a12, b22, level - 1),
                decompose(a21 - a11, b11 + b12, level - 1),
                decompose(a12 - a22, b21 + b22, level - 1),
            ],
        )

    plan = decompose(a, b, levels)
    events = [platform.invoke(task_name, {"id": leaf_id}) for leaf_id in leaves]
    records = platform.sim.run(until=platform.sim.all_of(events))
    failures = [record for record in records if not record.succeeded]
    if failures:
        raise RuntimeError(f"{len(failures)} Strassen leaf tasks failed")

    def assemble(node) -> np.ndarray:
        kind, payload = node
        if kind == "leaf":
            return jiffy.get(path, f"out/{payload}")
        m1, m2, m3, m4, m5, m6, m7 = [assemble(child) for child in payload]
        top = np.hstack([m1 + m4 - m5 + m7, m3 + m5])
        bottom = np.hstack([m2 + m4, m1 - m2 + m3 + m6])
        return np.vstack([top, bottom])

    result = assemble(plan)
    stats = {
        "leaf_tasks": len(leaves),
        "intermediate_mb": jiffy.controller.used_mb(f"/{job}"),
    }
    jiffy.remove(f"/{job}")
    return result, stats
