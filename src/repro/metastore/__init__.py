"""Metadata store (section 3.6).

Computes and persists per-file metadata -- column names and types, value
ranges, distinct counts (selectivity), approximate row size and row count
-- keyed by file path with size and modified-time invalidation.  The
optimizer's metadata pass consults the store for every CSV ``scan`` leaf
(what ``pd.read_csv`` builds) to fold ``dtype`` hints into the read and
to choose ``category`` dtype for low-cardinality read-only string
columns; the same statistics size the leaf for the scheduler's static
order and for the partition cut's size gate
(:meth:`repro.io.source.DataSource.estimated_bytes`).
"""

from repro.metastore.stats import (
    ColumnStats,
    FileMetadata,
    PartitionStats,
    compute_metadata,
)
from repro.metastore.store import MetaStore

__all__ = [
    "ColumnStats",
    "FileMetadata",
    "MetaStore",
    "PartitionStats",
    "compute_metadata",
]
