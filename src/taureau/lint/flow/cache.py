"""The blake2b-keyed incremental analysis cache.

One JSON document persists (a) every module summary keyed by its
content digest and (b) the propagated taint table per file.  A warm
run re-reads and re-hashes every file (cheap), but re-*parses* only
files whose digest changed, and re-propagates taint only for the
changed files plus their reverse-dependency closure — everything else
is trusted verbatim.  Loading tolerates a missing, corrupt, or
version-skewed file by degrading to a cold run; the cache is an
accelerator, never a correctness dependency.
"""

from __future__ import annotations

import json
import os
import typing

from taureau.lint.flow.index import ModuleSummary

__all__ = ["FlowCache", "CACHE_VERSION"]

CACHE_VERSION = 2


class FlowCache:
    """Load/save the incremental state; empty when cold or invalid."""

    def __init__(self, path: typing.Optional[str] = None):
        self.path = path
        #: path → ModuleSummary from the previous run.
        self.summaries: typing.Dict[str, ModuleSummary] = {}
        #: path → {qualname → {kind: chain}} from the previous run.
        self.taint: typing.Dict[str, dict] = {}
        if path is not None:
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return
        if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
            return
        try:
            for file_path, entry in data.get("files", {}).items():
                self.summaries[file_path] = ModuleSummary.from_dict(
                    entry["summary"]
                )
                self.taint[file_path] = entry.get("taint", {})
        except (KeyError, TypeError, ValueError):
            self.summaries.clear()
            self.taint.clear()

    def cached_summary(
        self, path: str, key: str
    ) -> typing.Optional[ModuleSummary]:
        """The previous summary iff the content digest still matches."""
        summary = self.summaries.get(path)
        if summary is not None and summary.key == key:
            return summary
        return None

    def save(
        self,
        summaries: typing.Dict[str, ModuleSummary],
        taint_by_file: typing.Dict[str, dict],
    ) -> None:
        """Persist the post-run state as canonical (sorted) JSON."""
        if self.path is None:
            return
        document = {
            "version": CACHE_VERSION,
            "files": {
                path: {
                    "summary": summary.to_dict(),
                    "taint": taint_by_file.get(path, {}),
                }
                for path, summary in summaries.items()
            },
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(blob)
