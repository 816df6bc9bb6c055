"""Persistent metadata store with size and modified-time invalidation.

Metadata is kept as one JSON file per data file (hashed path name) under a
store directory (default ``~/.lafp_metastore`` or ``$LAFP_METASTORE``).
``get`` returns ``None`` when metadata is missing or stale -- the file's
``(size, mtime_ns)`` differs from the entry's -- so callers can fall back
to un-hinted reads (the paper: outdated metadata "is not used").
Writes are counted (``generation``), so a session's source table drops
the entries it decoded before a write.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from repro.metastore.stats import FileMetadata, compute_metadata, file_stamp


class MetaStore:
    """Directory-backed metadata cache."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            root = os.environ.get(
                "LAFP_METASTORE",
                os.path.join(os.path.expanduser("~"), ".lafp_metastore"),
            )
        self.root = root
        os.makedirs(self.root, exist_ok=True)
        #: writes through this store (put / invalidate / clear): a
        #: session's source table drops what it decoded before one
        self.generation = 0

    def _entry_path(self, data_path: str) -> str:
        digest = hashlib.md5(
            os.path.abspath(data_path).encode("utf-8")
        ).hexdigest()
        return os.path.join(self.root, f"{digest}.json")

    def get(self, data_path: str) -> Optional[FileMetadata]:
        """Metadata for ``data_path`` if present and not stale."""
        entry = self._entry_path(data_path)
        if not os.path.exists(entry):
            return None
        with open(entry) as f:
            data = json.load(f)
        if data.get("stamp") != list(file_stamp(data_path)):
            return None  # file changed since metadata was computed
        return FileMetadata.from_dict(data)

    def put(self, meta: FileMetadata) -> None:
        with open(self._entry_path(meta.path), "w") as f:
            json.dump(meta.to_dict(), f)
        self.generation += 1

    def compute_and_store(
        self,
        data_path: str,
        sample_rows: Optional[int] = 10_000,
        fmt: str = "csv",
        partition_ranges=None,
    ) -> FileMetadata:
        """Run the metadata script on ``data_path`` and persist the result.

        ``partition_ranges`` records exact per-partition statistics (see
        :func:`repro.metastore.stats.compute_metadata`); ``fmt`` selects
        the reader (``csv`` / ``jsonl``).
        """
        meta = compute_metadata(
            data_path, sample_rows=sample_rows, fmt=fmt,
            partition_ranges=partition_ranges,
        )
        self.put(meta)
        return meta

    def invalidate(self, data_path: str) -> None:
        entry = self._entry_path(data_path)
        if os.path.exists(entry):
            os.remove(entry)
        self.generation += 1

    def clear(self) -> None:
        for name in os.listdir(self.root):
            if name.endswith(".json"):
                os.remove(os.path.join(self.root, name))
        self.generation += 1
