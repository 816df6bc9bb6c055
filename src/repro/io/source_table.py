"""The session's source table: one snapshot of each source per session.

Every consumer of a ``scan`` node -- the graph build, the schema passes,
metadata hints, pruning, the Dask cut, estimates, prefetch and the
executed scan -- takes its :class:`~repro.io.source.DataSource` from
:func:`session_source`, so a session reads a file's header (footer,
dataset layout), partitions and metastore entry once, not per consumer.

A source's identity is its format, path and metastore plus the options
that shape its partitions (``partition_bytes``, ``nrows``: all but the
:data:`~repro.io.source.READ_OPTIONS` a scan passes at read time).  The
sources of one file share its facts, stamped with
:func:`repro.cache.fingerprint.source_signature` (``memory://`` versions
and dataset directories included) and dropped when the stamp changes or a
write goes through the metastore.  Inserts are locked, so a
threaded run's workers may look sources up.
"""

from __future__ import annotations

import threading
from typing import Dict

from repro.cache.fingerprint import source_signature
from repro.io.registry import STRUCTURAL_ARGS, resolve_source, source_class
from repro.io.source import READ_OPTIONS, DataSource

#: files held before the table starts over (a long-lived session that
#: scans ever new files must not grow without bound)
_MAX_FILES = 256


class _File:
    """One file's stamp, shared facts and sources by partition shape."""

    def __init__(self, stamp) -> None:
        self.stamp = stamp
        self.facts: Dict[object, object] = {}
        self.sources: Dict[str, DataSource] = {}


class SourceTable:
    """One :class:`DataSource` per source identity, for one session."""

    def __init__(self) -> None:
        self._files: Dict[tuple, _File] = {}
        self._lock = threading.Lock()

    def source(self, args: dict, metastore=None) -> DataSource:
        """The source ``args`` (a ``scan`` node's) describe, shared with
        every scan of the same identity while the file's stamp holds."""
        path = args["path"]
        options = {k: v for k, v in args.items() if v is not None
                   and k not in STRUCTURAL_ARGS and k not in READ_OPTIONS}
        shape = repr(sorted(options.items())) if options else ""
        key = (source_class(args["format"]), path, metastore)
        # the file's signature and the metastore's write count
        stamp = (source_signature(path), getattr(metastore, "generation", 0))
        with self._lock:
            entry = self._files.get(key)
            if entry is None or entry.stamp != stamp:
                if len(self._files) >= _MAX_FILES:
                    self._files.clear()
                entry = self._files[key] = _File(stamp)
            source = entry.sources.get(shape)
            if source is None:
                source = entry.sources[shape] = resolve_source(
                    dict(options, format=args["format"], path=path),
                    metastore=metastore)
                source.facts = entry.facts
        return source


def session_source(args: dict, metastore=None, session=None) -> DataSource:
    """``args``' source from ``session``'s table (default: the calling
    thread's current session)."""
    if session is None:
        from repro.core.session import current_session

        session = current_session()
    return session.sources.source(args, metastore)
