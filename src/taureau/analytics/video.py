"""ExCamera/Sprocket-style serverless video processing (§5.1, [97], [71]).

The insight of ExCamera: split a video into many small chunks, encode
each chunk on its own lambda in parallel, then run a fast serial
"rebase" pass that stitches chunk boundaries back together.  Finer
chunks expose more parallelism but add per-chunk overhead and more
stitch work — the trade-off experiment E17 sweeps.

Frames are synthetic byte arrays; "encoding" really runs (zlib), so
output sizes and checksums are genuine, while encode *time* is charged
from a pixels-per-second cost model.
"""

from __future__ import annotations

import dataclasses
import typing
import zlib

from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform
from taureau.jiffy.client import JiffyClient

__all__ = ["SyntheticVideo", "VideoPipeline", "single_node_encode_time_s"]

#: Simulated encode throughput of one lambda (frames per second).
ENCODE_FPS = 30.0
#: Simulated stitch cost per chunk boundary (seconds).
STITCH_S_PER_BOUNDARY = 0.05


@dataclasses.dataclass
class SyntheticVideo:
    """A deterministic fake video: ``frame_count`` frames of noise bytes."""

    frame_count: int
    frame_bytes: int = 4096
    seed: int = 0

    def frame(self, index: int) -> bytes:
        if not 0 <= index < self.frame_count:
            raise IndexError(index)
        # Cheap deterministic pseudo-noise; compressible but not trivial.
        base = (self.seed * 2654435761 + index * 40503) & 0xFFFFFFFF
        pattern = base.to_bytes(4, "little")
        return (pattern * (self.frame_bytes // 4 + 1))[: self.frame_bytes]

    def chunks(self, chunk_frames: int) -> list:
        """``(start, end)`` frame ranges of at most ``chunk_frames``."""
        if chunk_frames <= 0:
            raise ValueError("chunk_frames must be positive")
        return [
            (start, min(start + chunk_frames, self.frame_count))
            for start in range(0, self.frame_count, chunk_frames)
        ]


def single_node_encode_time_s(video: SyntheticVideo) -> float:
    """The serial baseline: one machine encoding every frame."""
    return video.frame_count / ENCODE_FPS


class VideoPipeline:
    """Parallel encode + serial stitch over a FaaS platform."""

    def __init__(
        self,
        platform: FaasPlatform,
        jiffy: JiffyClient,
        video: SyntheticVideo,
        chunk_frames: int = 24,
    ):
        self.platform = platform
        self.jiffy = jiffy
        self.video = video
        self.chunk_frames = chunk_frames
        self.job_id = f"video{next(platform.sim.ids('video'))}"
        self._encode_name = f"{self.job_id}-encode"
        self._stitch_name = f"{self.job_id}-stitch"
        self._register()

    def _register(self) -> None:
        job = self
        path = f"/{job.job_id}/chunks"

        def encode(event, ctx):
            start, end = event["range"]
            payload = b"".join(job.video.frame(i) for i in range(start, end))
            encoded = zlib.compress(payload, level=1)
            ctx.charge((end - start) / ENCODE_FPS)
            store = ctx.service("jiffy")
            store.put(
                path,
                f"chunk/{start}",
                encoded,
                ctx=ctx,
                size_mb=len(encoded) / (1024.0 * 1024.0),
            )
            return {"start": start, "encoded_bytes": len(encoded)}

        def stitch(event, ctx):
            starts = event["starts"]
            store = ctx.service("jiffy")
            pieces = [store.get(path, f"chunk/{s}", ctx=ctx) for s in starts]
            ctx.charge(STITCH_S_PER_BOUNDARY * max(0, len(pieces) - 1))
            # The stitch verifies every piece decodes, then concatenates.
            total = b"".join(zlib.decompress(piece) for piece in pieces)
            return {
                "frames": len(total) // job.video.frame_bytes,
                "checksum": zlib.crc32(total),
            }

        self.platform.wire_service("jiffy", self.jiffy)
        self.platform.register(
            FunctionSpec(name=self._encode_name, handler=encode, memory_mb=1024,
                         timeout_s=900)
        )
        self.platform.register(
            FunctionSpec(name=self._stitch_name, handler=stitch, memory_mb=2048,
                         timeout_s=900)
        )

    def run_sync(self) -> dict:
        """Encode all chunks in parallel, stitch serially; returns stats."""
        return self.platform.sim.run(until=self.platform.sim.process(self._drive()))

    def _drive(self):
        chunks = self.video.chunks(self.chunk_frames)
        self.jiffy.create(
            f"/{self.job_id}/chunks", "hash_table", initial_blocks=2, ttl_s=3600.0
        )
        started = self.platform.sim.now
        events = [
            self.platform.invoke(self._encode_name, {"range": chunk})
            for chunk in chunks
        ]
        records = yield self.platform.sim.all_of(events)
        failures = [record for record in records if not record.succeeded]
        if failures:
            raise RuntimeError(f"{len(failures)} encode tasks failed")
        stitch_record = yield self.platform.invoke(
            self._stitch_name, {"starts": [start for start, __ in chunks]}
        )
        if not stitch_record.succeeded:
            raise RuntimeError(f"stitch failed: {stitch_record.error!r}")
        result = dict(stitch_record.response)
        result["chunks"] = len(chunks)
        result["wall_clock_s"] = self.platform.sim.now - started
        result["encoded_bytes"] = sum(r.response["encoded_bytes"] for r in records)
        self.jiffy.remove(f"/{self.job_id}")
        return result

    def expected_checksum(self) -> int:
        """The single-node reference checksum for correctness checks."""
        total = b"".join(
            self.video.frame(i) for i in range(self.video.frame_count)
        )
        return zlib.crc32(total)
