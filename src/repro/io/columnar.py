"""The LaFP columnar container format (``.lfc``) and its scan source.

Layout (single file, readable over any :class:`ByteRangeFilesystem`)::

    MAGIC | chunk payloads ... | footer JSON | u64 footer length | MAGIC

Rows are split into **row groups**; each group stores one contiguous
**chunk** per column (numeric/bool/datetime as raw fixed-width bytes,
strings dictionary-encoded as int32 codes followed by the chunk's
distinct strings, anything else as JSON), optionally compressed per
chunk.  The JSON footer carries, per chunk: its byte extent, encoding,
dtype, and exact ``min`` / ``max`` / ``null_count`` statistics -- no
values, so it stays small however many distinct strings the file holds.

A scan fetches each row group's wanted chunks as few ranges
(:func:`chunk_runs`): chunks close enough in the file share one read,
which matters when every read pays an object store's latency.

That footer is why the format exists: projection fetches only the byte
ranges of requested columns, and the per-chunk statistics are *proof
grade* (computed from every value at write time), so the predicate
layer's three-valued proofs can skip whole chunks without reading them
-- bytes pruned, not just parse work.  The same stats feed partition
pruning, byte estimates, footer-derived schemas, and cache stat
signatures; no sampling, no guessing.
"""

from __future__ import annotations

import json
import struct
import threading
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.frame import DataFrame
from repro.frame.column import Column, factorize
from repro.frame.dtypes import STRING_OVERHEAD
from repro.io.fs import (
    compress_chunk,
    decompress_chunk,
    read_range_with_retry,
    resolve_filesystem,
)
from repro.io.prefetch import fetch_range
from repro.io.source import DataSource, Partition

MAGIC = b"LAFC0001"
FORMAT_VERSION = 2
#: footer length (u64) + trailing magic.
TAIL_BYTES = 8 + len(MAGIC)
#: default rows per row group (callers shrink it for small files).
DEFAULT_ROW_GROUP_ROWS = 1 << 16


# ---------------------------------------------------------------------------
# Writing.
# ---------------------------------------------------------------------------


def _scalar(value):
    """JSON-ready stat value (numpy scalars unwrapped)."""
    if value is None:
        return None
    if isinstance(value, np.generic):
        return value.item()
    return value


def _encode_chunk(arr: np.ndarray, codec: Optional[str]) -> Tuple[bytes, dict]:
    """One column slice -> (compressed payload, chunk metadata)."""
    kind = arr.dtype.kind
    meta: Dict[str, object] = {
        "codec": (codec or "none"),
        "min": None,
        "max": None,
        "null_count": 0,
    }
    if kind in "iub":
        payload = arr.tobytes()
        meta.update(encoding="raw", dtype=str(arr.dtype),
                    mem_bytes=int(arr.nbytes))
        if len(arr):
            meta["min"] = _scalar(arr.min())
            meta["max"] = _scalar(arr.max())
    elif kind == "f":
        payload = arr.tobytes()
        nulls = int(np.isnan(arr).sum())
        valid = arr[~np.isnan(arr)] if nulls else arr
        meta.update(encoding="raw", dtype=str(arr.dtype),
                    mem_bytes=int(arr.nbytes), null_count=nulls)
        if len(valid):
            meta["min"] = _scalar(valid.min())
            meta["max"] = _scalar(valid.max())
    elif kind == "M":
        as_ns = arr.astype("datetime64[ns]")
        payload = as_ns.view("int64").tobytes()
        # datetimes travel as int64 ns; no min/max -- predicate literals
        # are JSON scalars and a numeric proof over timestamps would be
        # comparing different domains.
        meta.update(encoding="raw", dtype="datetime64[ns]",
                    mem_bytes=int(arr.nbytes),
                    null_count=int(np.isnat(arr).sum()))
    else:
        cells = arr.tolist()
        types = set(map(type, cells))
        if not all(issubclass(t, _STR_OR_NONE) for t in types):
            # NaN as NA, or values JSON holds: a cell at a time
            cells = [None if _is_null(v) else v for v in cells]
            types = set(map(type, cells))
        if all(issubclass(t, _STR_OR_NONE) for t in types):
            payload, dict_meta = _encode_dictionary(
                cells, type(None) in types)
            meta.update(dict_meta)
        else:
            payload = json.dumps(cells).encode("utf-8")
            meta.update(
                encoding="json", dtype="object",
                mem_bytes=len(payload),
                null_count=sum(1 for v in cells if v is None),
            )
    return compress_chunk(payload, codec), meta


_STR_OR_NONE = (str, type(None))


def _is_null(value) -> bool:
    return value is None or (isinstance(value, float) and np.isnan(value))


def _encode_dictionary(cells: list, has_null: bool) -> Tuple[bytes, dict]:
    """``str`` / ``None`` cells -> int32 codes into the distinct strings
    in order of first appearance, ``None`` as -1, followed by the
    strings (:func:`_dictionary_bytes`)."""
    codes, categories = factorize(cells)
    nulls = 0
    if has_null:
        at = categories.index(None)
        del categories[at]
        null = codes == at
        codes -= codes > at
        codes[null] = -1
        nulls = int(null.sum())
    codes = codes.astype(np.int32)
    words, layout = _dictionary_bytes(categories)
    meta = {
        "encoding": "dict",
        "dtype": "object",
        "dict_layout": layout,
        "null_count": nulls,
        "mem_bytes": int(codes.nbytes) + sum(map(len, categories)),
    }
    if categories:
        meta["min"] = min(categories)
        meta["max"] = max(categories)
    return codes.tobytes() + words, meta


#: ends each string of a ``"joined"`` dictionary.
_DICT_END = "\x00"


def _dictionary_bytes(categories: List[str]) -> Tuple[bytes, str]:
    """A chunk's strings as one UTF-8 blob, each ended by
    :data:`_DICT_END`, and the layout name ``"joined"``; as a JSON list
    (layout ``"json"``) when a string holds the terminator or is not
    UTF-8 (a lone surrogate)."""
    text = _DICT_END.join(categories) + _DICT_END if categories else ""
    if text.count(_DICT_END) == len(categories):
        try:
            return text.encode("utf-8"), "joined"
        except UnicodeEncodeError:
            pass
    return json.dumps(categories).encode("utf-8"), "json"


def write_columnar(
    frame: DataFrame,
    url: str,
    row_group_rows: Optional[int] = None,
    codec: Optional[str] = None,
) -> str:
    """Write an eager frame as a columnar file at ``url`` (any scheme)."""
    fs = resolve_filesystem(url)
    names = list(frame.columns)
    n_rows = len(frame)
    group_rows = max(1, int(row_group_rows or DEFAULT_ROW_GROUP_ROWS))
    arrays = {}
    column_meta = []
    for name in names:
        col = frame.column(name)
        arr = col.to_array() if col.is_category else col.values
        arrays[name] = arr
        kind = arr.dtype.kind
        if kind in "iubf":
            dtype = str(arr.dtype)
        elif kind == "M":
            dtype = "datetime64[ns]"
        else:
            dtype = "object"
        column_meta.append({"name": name, "dtype": dtype})
    row_groups = []
    with fs.open_output(url) as out:
        out.write(MAGIC)
        offset = len(MAGIC)
        for start in range(0, n_rows, group_rows):
            stop = min(n_rows, start + group_rows)
            chunks = {}
            for name in names:
                payload, meta = _encode_chunk(arrays[name][start:stop], codec)
                out.write(payload)
                meta["offset"] = offset
                meta["length"] = len(payload)
                offset += len(payload)
                chunks[name] = meta
            row_groups.append({"n_rows": stop - start, "chunks": chunks})
        footer = {
            "version": FORMAT_VERSION,
            "n_rows": n_rows,
            "columns": column_meta,
            "row_groups": row_groups,
        }
        footer_bytes = json.dumps(footer).encode("utf-8")
        out.write(footer_bytes)
        out.write(struct.pack("<Q", len(footer_bytes)))
        out.write(MAGIC)
    return url


# ---------------------------------------------------------------------------
# Footer loading (cached per object version).
# ---------------------------------------------------------------------------

_FOOTER_LOCK = threading.Lock()
#: url -> ((size, mtime_ns), footer); old versions evict by key reuse.
_FOOTER_CACHE: Dict[str, Tuple[Tuple[int, int], dict]] = {}


def read_columnar_footer(url: str) -> dict:
    """The file's footer dict, cached per (size, version) stat signature
    -- a mutated object re-reads, an unchanged one costs zero ranges."""
    fs = resolve_filesystem(url)
    st = fs.stat(url)
    signature = (st.size, st.mtime_ns)
    with _FOOTER_LOCK:
        cached = _FOOTER_CACHE.get(url)
        if cached is not None and cached[0] == signature:
            return cached[1]
    if st.size < len(MAGIC) + TAIL_BYTES:
        raise ValueError(f"{url!r} is not a columnar file (too small)")
    tail = read_range_with_retry(fs, url, st.size - TAIL_BYTES, st.size)
    if tail[8:] != MAGIC:
        raise ValueError(f"{url!r} is not a columnar file (bad magic)")
    (footer_len,) = struct.unpack("<Q", tail[:8])
    footer_start = st.size - TAIL_BYTES - footer_len
    if footer_start < len(MAGIC):
        raise ValueError(f"{url!r} has a corrupt footer length")
    raw = read_range_with_retry(fs, url, footer_start, footer_start + footer_len)
    footer = json.loads(raw.decode("utf-8"))
    if footer.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{url!r}: unsupported columnar version {footer.get('version')!r}"
        )
    with _FOOTER_LOCK:
        _FOOTER_CACHE[url] = (signature, footer)
    return footer


# ---------------------------------------------------------------------------
# Chunk decoding.
# ---------------------------------------------------------------------------


def _decode_chunk(data: bytes, meta: dict, n_rows: int) -> Column:
    data = decompress_chunk(data, meta.get("codec"))
    encoding = meta["encoding"]
    if encoding == "raw":
        dtype = meta["dtype"]
        if dtype == "datetime64[ns]":
            arr = np.frombuffer(data, dtype="int64").copy()
            return Column(arr.view("datetime64[ns]"))
        return Column(np.frombuffer(data, dtype=dtype).copy())
    if encoding == "dict":
        codes = np.frombuffer(data, dtype=np.int32, count=n_rows)
        words = data[4 * n_rows:]
        text = str(words, "utf-8")
        joined = meta["dict_layout"] == "joined"
        if joined:
            categories = text.split(_DICT_END)
            del categories[-1]
        else:
            categories = json.loads(text)
        out = np.empty(n_rows, dtype=object)
        valid = codes >= 0
        heap_nbytes = 0
        if categories:
            cat_arr = np.empty(len(categories), dtype=object)
            cat_arr[:] = categories
            valid_codes = codes[valid]
            out[valid] = cat_arr[valid_codes]
            # object_nbytes without the walk: the distinct strings'
            # lengths (an ASCII blob's from where its terminators sit)
            # gathered by code
            if joined and len(text) == len(words):  # ASCII
                ends = np.flatnonzero(np.frombuffer(words, np.uint8) == 0)
                lengths = np.diff(ends, prepend=-1) - 1
            else:
                lengths = np.fromiter(map(len, categories), dtype=np.int64,
                                      count=len(categories))
            heap_nbytes = int(STRING_OVERHEAD * len(valid_codes)
                              + lengths[valid_codes].sum())
        return Column(out, heap_nbytes=heap_nbytes)
    if encoding == "json":
        values = json.loads(data.decode("utf-8"))
        out = np.empty(n_rows, dtype=object)
        out[:] = values
        return Column(out)
    raise ValueError(f"unknown chunk encoding {encoding!r}")


def _empty_column(dtype: str) -> Column:
    if dtype == "object":
        return Column(np.array([], dtype=object))
    return Column(np.array([], dtype=dtype))


def _parse_datetime_column(col: Column) -> Column:
    """String chunk -> datetime64, matching ``read_csv(parse_dates=...)``."""
    values = col.to_array()
    cleaned = [
        "NaT" if (v is None or v == "") else str(v) for v in values
    ]
    return Column(np.asarray(cleaned, dtype="datetime64[ns]"))


# ---------------------------------------------------------------------------
# The scan source.
# ---------------------------------------------------------------------------


class ColumnarSource(DataSource):
    """Row-group partitioned columnar files, local or remote.

    Every negotiation the scan boundary offers is answered from the
    footer alone: schema and dtypes, one :class:`Partition` per row
    group carrying exact per-column min/max/null-count, byte estimates
    from in-memory chunk sizes, and the ranges a read will fetch (the
    scheduler's prefetch hook).  ``read_partition`` fetches only the
    projected+predicate columns' chunks and answers a provably-empty
    predicate with a typed empty frame -- zero ranges fetched.
    """

    format_name = "columnar"

    # -- footer-backed protocol ------------------------------------------

    def footer(self) -> dict:
        return self.fact("footer", lambda: read_columnar_footer(self.path))

    def schema(self) -> List[str]:
        return [c["name"] for c in self.footer()["columns"]]

    def dtypes(self) -> Dict[str, str]:
        """Column dtypes straight from the footer (no inference)."""
        return {c["name"]: c["dtype"] for c in self.footer()["columns"]}

    def list_partitions(self) -> List[Partition]:
        parts = []
        for index, group in enumerate(self.footer()["row_groups"]):
            chunks = group["chunks"]
            min_values, max_values, null_counts = {}, {}, {}
            est_bytes = 0
            start = None
            end = None
            for name, meta in chunks.items():
                if meta.get("min") is not None:
                    min_values[name] = meta["min"]
                if meta.get("max") is not None:
                    max_values[name] = meta["max"]
                null_counts[name] = int(meta.get("null_count", 0))
                est_bytes += int(meta.get("mem_bytes", meta["length"]))
                chunk_end = meta["offset"] + meta["length"]
                start = meta["offset"] if start is None \
                    else min(start, meta["offset"])
                end = chunk_end if end is None else max(end, chunk_end)
            parts.append(Partition(
                index=index,
                path=self.path,
                byte_range=(start, end) if start is not None else None,
                est_rows=group["n_rows"],
                est_bytes=est_bytes,
                min_values=min_values,
                max_values=max_values,
                null_counts=null_counts,
            ))
        return parts

    # -- reading ----------------------------------------------------------

    def read_partition(self, partition, columns=None, predicate=None):
        group = self.footer()["row_groups"][partition.index]
        wanted = self._read_columns(columns, predicate)
        if wanted is None:
            wanted = self.schema()
        if predicate is not None and not predicate.may_match(partition):
            # chunk skip: the stats prove no row matches; zero fetches.
            return self._typed_empty(columns)
        chunks = group["chunks"]
        payloads = {}
        for start, end, names in chunk_runs(chunks, wanted):
            run = fetch_range(self.path, start, end)
            for name in names:
                offset = chunks[name]["offset"] - start
                payloads[name] = run[offset:offset + chunks[name]["length"]]
        parse_set = set(self.options.get("parse_dates") or [])
        builders = {
            name: partial(_read_chunk, payloads[name], chunks[name],
                          group["n_rows"], name in parse_set)
            for name in wanted
        }
        return self.assemble(group["n_rows"], builders, columns, predicate)

    def _typed_empty(self, columns: Optional[Sequence[str]]) -> DataFrame:
        dtypes = self.dtypes()
        parse_set = set(self.options.get("parse_dates") or [])
        names = self.schema()
        if columns is not None:
            keep = set(columns)
            names = [c for c in names if c in keep]
        return DataFrame.from_columns({
            name: _empty_column(
                "datetime64[ns]" if name in parse_set else dtypes[name]
            )
            for name in names
        })

    def empty_frame(self, columns=None, predicate=None):
        # the footer types every column: no partition read needed.
        return self._typed_empty(columns)

    # -- planning hooks ---------------------------------------------------

    def estimated_bytes(self, columns=None, partitions=None):
        wanted = None if columns is None else set(columns)
        total = 0
        for part in self.select_partitions(partitions):
            chunks = self.footer()["row_groups"][part.index]["chunks"]
            for name, meta in chunks.items():
                if wanted is None or name in wanted:
                    total += int(meta.get("mem_bytes", meta["length"]))
        return total

    def prefetch_ranges(
        self,
        columns: Optional[Sequence[str]] = None,
        predicate=None,
        partitions: Optional[Sequence] = None,
    ) -> List[Tuple[str, int, int]]:
        """Byte ranges a scan with these args will fetch, in read order
        (chunk-skipped row groups excluded -- pruned bytes stay pruned)."""
        wanted = self._read_columns(columns, predicate)
        if wanted is None:
            wanted = self.schema()
        ranges = []
        for part in self.select_partitions(partitions):
            if predicate is not None and not predicate.may_match(part):
                continue
            chunks = self.footer()["row_groups"][part.index]["chunks"]
            ranges += [(self.path, start, end)
                       for start, end, _ in chunk_runs(chunks, wanted)]
        return ranges


def chunk_runs(chunks: Dict[str, dict],
               names: Sequence[str]) -> List[Tuple[int, int, List[str]]]:
    """The byte runs that fetch the named chunks of one row group, in
    file order, each with the chunks it holds: a chunk joins the run
    before it when the gap between them is no longer than the chunk, so
    a run never reads more than twice the bytes its chunks need."""
    runs: List[Tuple[int, int, List[str]]] = []
    for name in sorted(names, key=lambda name: chunks[name]["offset"]):
        start = chunks[name]["offset"]
        end = start + chunks[name]["length"]
        if runs and start - runs[-1][1] <= end - start:
            runs[-1] = (runs[-1][0], end, runs[-1][2] + [name])
        else:
            runs.append((start, end, [name]))
    return runs


def _read_chunk(data: bytes, meta: dict, n_rows: int,
                parse_date: bool) -> Column:
    """Decode one column chunk's fetched bytes."""
    col = _decode_chunk(data, meta, n_rows)
    if parse_date and col.values.dtype.kind == "O":
        col = _parse_datetime_column(col)
    return col
