"""Event-driven serverless ETL (paper §3.1 "Data Processing", §5.1).

The paper's running ETL example: read records from a serverless store,
extract and transform useful elements with a function, load results
back to serverless storage.  Its intro even names the workload — "an
ETL tool extracting and translating exif data from photos into a heat
map" — so that is exactly what ships here: photo records carrying EXIF
coordinates stream through extract → transform → load into a heat-map
grid in the serverless database.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from taureau.baas.blobstore import BlobStore
from taureau.baas.database import ServerlessDatabase
from taureau.core.function import FunctionSpec
from taureau.core.platform import FaasPlatform

__all__ = ["PhotoRecord", "synthetic_photos", "ExifHeatMapPipeline"]


@dataclasses.dataclass
class PhotoRecord:
    """A raw photo blob's metadata, EXIF included (sometimes missing)."""

    photo_id: str
    exif: typing.Optional[dict]  # {"lat": float, "lon": float, ...} or None
    size_mb: float = 2.0


def synthetic_photos(
    rng: random.Random, count: int, missing_exif_rate: float = 0.1
) -> list:
    """A deterministic batch of photo records clustered around hotspots."""
    hotspots = [(40.7, -74.0), (48.9, 2.3), (35.7, 139.7)]
    photos = []
    for index in range(count):
        if rng.random() < missing_exif_rate:
            exif = None
        else:
            lat0, lon0 = rng.choice(hotspots)
            exif = {
                "lat": lat0 + rng.gauss(0, 0.5),
                "lon": lon0 + rng.gauss(0, 0.5),
                "camera": rng.choice(["A7", "D850", "X100V"]),
            }
        photos.append(PhotoRecord(photo_id=f"photo-{index}", exif=exif))
    return photos


class ExifHeatMapPipeline:
    """extract → transform → load, each stage a serverless function.

    - *extract*: pull the photo blob, parse EXIF (drop records without);
    - *transform*: snap coordinates to a grid cell;
    - *load*: transactionally increment the cell counter in the DB
      (idempotent under platform retries via execute_once).
    """

    def __init__(
        self,
        platform: FaasPlatform,
        blob: BlobStore,
        db: ServerlessDatabase,
        grid_degrees: float = 1.0,
    ):
        if grid_degrees <= 0:
            raise ValueError("grid_degrees must be positive")
        self.platform = platform
        self.blob = blob
        self.db = db
        self.grid_degrees = grid_degrees
        self.job_id = f"etl{next(platform.sim.ids('etl'))}"
        if "heatmap" not in self.db.tables():
            self.db.create_table("heatmap")
        self._register()

    def _register(self) -> None:
        pipeline = self

        def extract(event, ctx):
            ctx.charge(0.02)
            blob = ctx.service("blob")
            record: PhotoRecord = blob.get(event["key"], ctx=ctx)
            if record.exif is None or "lat" not in record.exif:
                return None  # unusable: filtered out
            return {
                "photo_id": record.photo_id,
                "lat": record.exif["lat"],
                "lon": record.exif["lon"],
            }

        def transform(event, ctx):
            ctx.charge(0.005)
            if event is None:
                return None
            grid = pipeline.grid_degrees
            cell = (
                int(event["lat"] // grid),
                int(event["lon"] // grid),
            )
            return {"photo_id": event["photo_id"], "cell": f"{cell[0]}:{cell[1]}"}

        def load(event, ctx):
            ctx.charge(0.01)
            if event is None:
                return 0
            database = ctx.service("db")

            def apply():
                def bump(txn):
                    row = txn.get("heatmap", event["cell"]) or {"count": 0}
                    txn.put("heatmap", event["cell"], {"count": row["count"] + 1})

                database.run_transaction(bump, ctx=ctx)
                return 1

            return database.execute_once(f"load-{event['photo_id']}", apply, ctx=ctx)

        self.platform.wire_service("blob", self.blob)
        self.platform.wire_service("db", self.db)
        for name, handler in (
            (f"{self.job_id}-extract", extract),
            (f"{self.job_id}-transform", transform),
            (f"{self.job_id}-load", load),
        ):
            self.platform.register(
                FunctionSpec(name=name, handler=handler, memory_mb=256, max_retries=2)
            )

    # ------------------------------------------------------------------

    def ingest(self, photos: typing.Sequence[PhotoRecord]) -> list:
        """Stage photo blobs; returns their keys."""
        keys = []
        for photo in photos:
            key = f"{self.job_id}/raw/{photo.photo_id}"
            self.blob.put(key, photo, size_mb=photo.size_mb)
            keys.append(key)
        return keys

    def run_sync(self, keys: typing.Sequence[str]) -> dict:
        """Process every key; returns {'loaded': n, 'skipped': m}."""
        return self.platform.sim.run(
            until=self.platform.sim.process(self._drive(list(keys)))
        )

    def _drive(self, keys: list):
        stages = (
            f"{self.job_id}-extract",
            f"{self.job_id}-transform",
            f"{self.job_id}-load",
        )
        extract_records = yield self.platform.sim.all_of(
            [self.platform.invoke(stages[0], {"key": key}) for key in keys]
        )
        transform_records = yield self.platform.sim.all_of(
            [
                self.platform.invoke(stages[1], record.response)
                for record in extract_records
            ]
        )
        load_records = yield self.platform.sim.all_of(
            [
                self.platform.invoke(stages[2], record.response)
                for record in transform_records
            ]
        )
        loaded = sum(
            record.response for record in load_records if record.succeeded
        )
        return {"loaded": loaded, "skipped": len(keys) - loaded}

    def heatmap(self) -> dict:
        """The materialized heat map: cell -> count."""
        return {
            cell: row["count"] for cell, row in self.db.scan("heatmap")
        }

    def hottest_cells(self, n: int = 3) -> list:
        return sorted(self.heatmap().items(), key=lambda kv: -kv[1])[:n]
