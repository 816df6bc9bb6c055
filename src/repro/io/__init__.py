"""The LaFP source layer: four scan formats behind one protocol.

Structure:

- :mod:`repro.io.source`    -- the :class:`DataSource` protocol and
  :class:`Partition` (per-piece statistics: row/byte estimates, exact
  min/max/null counts, hive key values),
- :mod:`repro.io.registry`  -- :data:`FORMATS`, format name -> source
  class (csv / jsonl / dataset / columnar),
- :mod:`repro.io.predicate` -- the serializable predicate fragment both
  the optimizer and the sources understand (AND/OR/NOT with
  three-valued statistics proofs),
- :mod:`repro.io.api`       -- ``scan_csv`` / ``scan_jsonl`` /
  ``scan_dataset`` / ``scan_columnar`` / ``from_pandas`` building
  LazyFrames over ``scan`` nodes,
- :mod:`repro.io.fs`        -- the :class:`ByteRangeFilesystem`
  protocol (``file://`` / ``memory://``), compression codecs and
  retried range reads,
- :mod:`repro.io.prefetch`  -- the scheduler-driven range prefetch
  cache overlapping remote latency with compute,
- :mod:`repro.io.columnar`  -- the ``.lfc`` columnar container format
  and its chunk-pruning :class:`ColumnarSource`,
- :mod:`repro.io.spill`     -- :class:`ShuffleStore` (spillable hash
  buckets, one per shuffled side) backing the shuffle operators,
- format modules            -- :mod:`~repro.io.csv_source`,
  :mod:`~repro.io.jsonl`, :mod:`~repro.io.dataset`.
"""

from repro.io.columnar import (
    ColumnarSource,
    read_columnar_footer,
    write_columnar,
)
from repro.io.csv_source import CsvSource
from repro.io.dataset import DatasetSource, write_dataset
from repro.io.fs import (
    ByteRangeFilesystem,
    FileStat,
    InMemoryObjectStore,
    LocalFilesystem,
    TransientIOError,
    memory_store,
    resolve_filesystem,
)
from repro.io.jsonl import JsonlSource, read_jsonl, write_jsonl
from repro.io.predicate import Predicate, conjuncts_from_mask
from repro.io.prefetch import fetch_range, prefetch_scan_node, range_cache
from repro.io.registry import FORMATS, resolve_source
from repro.io.source import DataSource, Partition
from repro.io.spill import ShuffleStore

__all__ = [
    "ByteRangeFilesystem",
    "ColumnarSource",
    "CsvSource",
    "DataSource",
    "DatasetSource",
    "FORMATS",
    "FileStat",
    "InMemoryObjectStore",
    "JsonlSource",
    "LocalFilesystem",
    "Partition",
    "Predicate",
    "ShuffleStore",
    "TransientIOError",
    "conjuncts_from_mask",
    "fetch_range",
    "memory_store",
    "prefetch_scan_node",
    "range_cache",
    "read_columnar_footer",
    "read_jsonl",
    "resolve_filesystem",
    "resolve_source",
    "write_columnar",
    "write_dataset",
    "write_jsonl",
]
