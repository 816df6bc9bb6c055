"""CSV reader/writer.

``read_csv`` exposes exactly the knobs LaFP's optimizer drives:

- ``usecols``      -- column-selection optimization (section 3.1),
- ``dtype``        -- metadata-driven types, including ``category``
                      (section 3.6),
- ``parse_dates``  -- datetime columns,
- ``nrows``        -- sampling for the metastore,
- ``byte_range``   -- partitioned reads for the Dask-like backend.

The unit of parsing is a block of lines, not a row.
:func:`read_line_blocks` returns the newline-aligned bytes of a byte
range (a row belongs to the range that holds its first byte).  Each
block is read from the file once, into the buffer it is handed out as:
the read runs a little past the block's boundary and the block is a
view cut after the first ``\n`` there, so no block is copied or
concatenated.  A block is tokenized one of two ways, chosen from its
bytes, which are scanned with numpy over that same buffer:

- A *regular* block -- no quote, no NUL, one line terminator throughout
  (``\n`` or ``\r\n``: the count of ``\r`` bytes is zero or the number
  of rows, each right before a row's ``\n``), a final newline, every
  row exactly the header's number of fields -- is a byte grid
  (:class:`_Grid`): the positions of its ``,`` and ``\n`` bytes
  reshaped to ``(rows, fields)`` give every field's offset and length
  without touching a cell.  Only the wanted columns are then
  materialized: a column whose fields all read ``-?[0-9]{1,18}`` is
  summed from its digit bytes straight into int64; any other column is
  gathered, decoded once and split into the same ``str`` cells the row
  reader would have produced.
- From the first block that is not regular (or too small to repay the
  grid's fixed cost; always under ``nrows``) the rest of the range goes
  through one stdlib ``csv.reader`` chained over the remaining blocks
  (terminators kept, so a quoted field may span blocks), and batches
  of rows are transposed into columns with ``zip(*rows)``.

A whole-file read is the same code over the whole file.  Each wanted
column is typed, over all the rows, when its *builder*
(:func:`column_builders`) is called -- by ``read_csv`` all at once, by
a scan source one at a time (``DataSource.assemble``).  Type inference
tries int64 -> float64 -> object per column over the cells, mirroring
pandas defaults (dates stay strings unless ``parse_dates`` asks for
them -- the paper's metadata optimization exists precisely because
inference is this naive).  A ``category`` dtype hands the cells, ``""``
as NA, straight to :meth:`Column.from_strings_as_category`.

Writing is column-wise too: :func:`column_tokens` turns a column into
text tokens by dtype kind under a format's :class:`TokenRules` (CSV's
here, JSONL's in ``io/jsonl.py``), and rows are joined from the token
columns -- the bytes ``csv.writer`` / ``json.JSONEncoder`` wrote row by
row.
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import closing
from functools import partial
from itertools import chain, islice
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

import numpy as np

from repro.frame.column import Column
from repro.frame.dataframe import DataFrame
from repro.frame.dtypes import (
    STRING_OVERHEAD,
    CategoricalDtype,
    is_categorical,
    normalize_dtype,
)
from repro.frame.series import Series

#: bytes of text decoded and split at a time; bounds a read's transient
#: memory whatever the size of the range.
LINE_BLOCK_BYTES = 1 << 20

#: bytes read past a block's boundary to find the end of its last line.
_LINE_SLACK = 1 << 12

#: rows transposed into columns at a time.
_ROW_BATCH = 1 << 16

#: a block shorter than this goes to the row reader: the grid's dozen
#: numpy calls cost more than ``csv.reader`` over a few hundred rows.
_GRID_MIN_BYTES = 1 << 13

_COMMA, _LF, _CR, _QUOTE, _MINUS, _ZERO = b',\n\r"-0'
#: most digits whose value always fits int64
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS - 1, -1, -1, dtype=np.int64)


def read_csv(
    path: str,
    usecols: Optional[Sequence[str]] = None,
    dtype: Optional[Dict[str, object]] = None,
    parse_dates: Optional[Sequence[str]] = None,
    nrows: Optional[int] = None,
    index_col: Optional[str] = None,
    byte_range: Optional[Tuple[int, int]] = None,
    header: Optional[Sequence[str]] = None,
) -> DataFrame:
    """Read a CSV file into a :class:`DataFrame`."""
    _, builders = column_builders(
        path, usecols, dtype, parse_dates, nrows, byte_range, header)
    frame = DataFrame.from_columns({n: build() for n, build in builders.items()})
    if index_col is not None:
        frame = frame.set_index(index_col)
    return frame


def column_builders(
    path: str, usecols: Optional[Sequence[str]] = None, dtype: Optional[Dict[str, object]] = None,
    parse_dates: Optional[Sequence[str]] = None, nrows: Optional[int] = None,
    byte_range: Optional[Tuple[int, int]] = None, header: Optional[Sequence[str]] = None,
) -> Tuple[int, Dict[str, Callable[[], Column]]]:
    """The number of rows, and per wanted column in file order the
    function that types it.  ``header`` is the file's column names, for
    a caller that has read them already (a source reading its
    partitions)."""
    header = read_header(path) if header is None else list(header)
    if usecols is not None:
        unknown = [c for c in usecols if c not in header]
        if unknown:
            raise ValueError(f"usecols not in file: {unknown}")
        wanted = [c for c in header if c in set(usecols)]
    else:
        wanted = list(header)
    positions = [header.index(c) for c in wanted]

    grids, tail, n_rows = _read_raw_columns(
        path, byte_range, positions, nrows, len(header)
    )

    dtype = dtype or {}
    parse_set = set(parse_dates or [])
    return n_rows, {
        name: partial(_build_column, grids, pos, cells, dtype.get(name),
                      name in parse_set)
        for name, pos, cells in zip(wanted, positions, tail)
    }


def _build_column(grids: List["_Grid"], pos: int, tail_cells: List[str],
                  spec, parse_date: bool) -> Column:
    target = None if spec is None else normalize_dtype(spec)
    if not parse_date and (
        target is None or (not is_categorical(target) and target.kind == "i")
    ):
        # what int64 inference / conversion of the cells would give
        ints = _int_column(grids, pos, tail_cells)
        if ints is not None:
            return Column(ints)
    values, heap_nbytes = _cell_list(grids, pos, tail_cells)
    if parse_date:
        return _parse_datetime(values)
    if target is not None:
        return _convert_with_dtype(values, target, heap_nbytes)
    return _infer_column(values, heap_nbytes)


def read_header(path: str) -> List[str]:
    """Column names from the first line."""
    with open(path, newline="", encoding="utf-8") as f:
        return next(csv.reader(f))


def scan_partitions(path: str, n_partitions: int) -> List[Tuple[int, int]]:
    """Split the data region of a CSV into ~equal byte ranges.

    Ranges are aligned downstream to newline boundaries by the reader, so
    every row lands in exactly one partition.
    """
    size = os.path.getsize(path)
    with open(path, "rb") as f:
        f.readline()  # header
        data_start = f.tell()
    n_partitions = max(1, n_partitions)
    span = max(1, (size - data_start) // n_partitions)
    ranges = []
    start = data_start
    for i in range(n_partitions):
        end = size if i == n_partitions - 1 else min(size, start + span)
        if start >= size:
            break
        ranges.append((start, end))
        start = end
    return ranges


def read_line_blocks(
    path: str,
    byte_range: Optional[Tuple[int, int]] = None,
    block_bytes: int = LINE_BLOCK_BYTES,
) -> Iterator[memoryview]:
    """Yield the lines whose *first byte* lies in ``[start, end)``, as
    newline-aligned blocks of about ``block_bytes`` (``None``: the file).

    Standard partitioned-text convention: the line in progress at
    ``start`` belongs upstream unless the previous byte is a newline,
    and the last line may run past ``end``.  Every row of a file lands
    in exactly one of any set of ranges that tile it.

    Each block is read once: ``block_bytes`` plus some slack, cut after
    the first ``\\n`` at or past the boundary (a view, not a copy), and
    the file position set back to the cut.  A line longer than the slack
    reads the block again with more.
    """
    with open(path, "rb") as f:
        if byte_range is None:
            start, end = 0, os.fstat(f.fileno()).st_size
        else:
            start, end = byte_range
        if start > 0:
            f.seek(start - 1)
            if f.read(1) != b"\n":
                f.readline()  # finish the partial line; it belongs upstream
        pos = f.tell()
        while pos < end:
            size = min(block_bytes, end - pos)
            slack = _LINE_SLACK
            while True:
                block = f.read(size + slack)
                cut = block.find(b"\n", size - 1) + 1
                if cut or len(block) < size + slack:
                    break  # a line ends past the boundary, or the file does
                f.seek(pos)
                slack *= 4
            if not block:
                break
            cut = cut or len(block)  # the file's last line, unterminated
            pos += cut
            f.seek(pos)
            yield memoryview(block)[:cut]


class _Grid(NamedTuple):
    """Where the fields of one regular block are (see the module doc).

    ``starts`` / ``lens`` are ``(rows, fields)`` byte offsets and byte
    lengths into ``buf``; ``ascii`` says byte length is ``len(str)``.
    Nothing is decoded until a column is asked for.
    """

    buf: np.ndarray
    starts: np.ndarray
    lens: np.ndarray
    ascii: bool

    @classmethod
    def of(
        cls, block: Union[bytes, memoryview], n_fields: int
    ) -> Optional["_Grid"]:
        """The grid of ``block``, or ``None`` when it is not regular."""
        buf = np.frombuffer(block, dtype=np.uint8)
        if (
            len(buf) < _GRID_MIN_BYTES
            or block[-1:] != b"\n"
            or (buf == _QUOTE).any()
            or not buf.all()  # a NUL byte
        ):
            return None
        delims = np.flatnonzero((buf == _COMMA) | (buf == _LF))
        if len(delims) % n_fields:
            return None
        delims = delims.reshape(-1, n_fields)
        # every row reads ", , ... \n": exactly n_fields fields
        kinds = buf[delims]
        if (kinds[:, -1] != _LF).any() or (kinds[:, :-1] != _COMMA).any():
            return None
        starts = np.empty_like(delims)
        starts[0, 0] = 0
        starts[1:, 0] = delims[:-1, -1] + 1
        starts[:, 1:] = delims[:, :-1] + 1
        lens = delims - starts
        n_cr = np.count_nonzero(buf == _CR)
        if n_cr:
            # "\r\n" ends every row or the terminators are mixed (a
            # lone "\r" is itself a line break to the row reader)
            if n_cr != len(delims) or (buf[delims[:, -1] - 1] != _CR).any():
                return None
            lens[:, -1] -= 1
        if n_fields == 1 and not lens.all():
            return None  # a blank line, which the row reader skips
        ascii = bool(buf.max() < 0x80)
        if not ascii:
            str(block, "utf-8")  # malformed text raises, wanted or not
        return cls(buf, starts, lens, ascii)

    def without_first_row(self) -> "_Grid":
        return self._replace(starts=self.starts[1:], lens=self.lens[1:])

    def ints(self, pos: int) -> Optional[np.ndarray]:
        """Column ``pos`` as int64 when every field reads
        ``-?[0-9]{1,18}`` (what ``int()`` parses with no surprises and
        int64 always holds), else ``None``: digits are gathered
        right-aligned and summed against powers of ten."""
        starts, lens = self.starts[:, pos], self.lens[:, pos]
        if not len(starts):
            return np.empty(0, dtype=np.int64)
        if not lens.all():
            return None
        negative = self.buf[starts] == _MINUS
        first = starts + negative
        ends = starts + lens
        n_digits = ends - first
        width = int(n_digits.max())
        if width > _MAX_DIGITS or not n_digits.all():
            return None
        at = ends[:, None] - np.arange(width, 0, -1)
        pad = at < first[:, None]
        # uint8: a byte below "0" wraps far above 9
        digits = self.buf[np.where(pad, first[:, None], at)] - _ZERO
        if (digits > 9).any():
            return None
        digits[pad] = 0
        value = digits.astype(np.int64) @ _POW10[-width:]
        return np.where(negative, -value, value)

    def cells(self, pos: int) -> Tuple[List[str], Optional[int]]:
        """Column ``pos`` as the row reader's ``str`` cells, and the
        heap bytes of the non-empty ones when the lengths tell
        (:func:`repro.frame.dtypes.object_nbytes` without the walk).

        The fields' bytes are gathered into one newline-separated run
        -- no field holds a newline in a regular block -- decoded once
        and split."""
        starts, lens = self.starts[:, pos], self.lens[:, pos]
        if not len(starts):
            return [], 0
        step = lens + 1
        run_ends = np.cumsum(step)
        shift = starts - (run_ends - step)  # source minus output offset
        flat = self.buf[np.arange(run_ends[-1]) + np.repeat(shift, step)]
        flat[run_ends - 1] = _LF  # each run's last byte was its delimiter
        cells = flat.tobytes().decode("utf-8").split("\n")
        del cells[-1]
        if not self.ascii:
            return cells, None
        return cells, int(STRING_OVERHEAD * np.count_nonzero(lens) + lens.sum())


def _read_raw_columns(
    path: str,
    byte_range: Optional[Tuple[int, int]],
    positions: List[int],
    nrows: Optional[int],
    n_fields: int,
) -> Tuple[List[_Grid], List[List[str]], int]:
    """The grids of the range's leading regular blocks, the cells at
    ``positions`` of the rows from the first block that is not regular
    on, by column, and the number of rows."""
    grids: List[_Grid] = []
    skip_header = byte_range is None
    with closing(read_line_blocks(path, byte_range)) as blocks:
        rest: Iterable[memoryview] = blocks
        if nrows is None and n_fields:
            rest = ()
            for block in blocks:
                grid = _Grid.of(block, n_fields)
                if grid is None:
                    rest = chain([block], blocks)
                    break
                if skip_header:
                    grid, skip_header = grid.without_first_row(), False
                grids.append(grid)
        tail, n_tail = _read_rows(path, rest, positions, nrows, skip_header)
    return grids, tail, sum(len(grid.lens) for grid in grids) + n_tail


def _read_rows(
    path: str,
    blocks: Iterable[memoryview],
    positions: List[int],
    nrows: Optional[int],
    skip_header: bool,
) -> Tuple[List[List[str]], int]:
    """The fields at ``positions`` of every row of ``blocks``, by column.

    One reader runs over the lines of all blocks (terminators kept, so a
    quoted field may hold newlines); blank lines parse to ``[]`` and are
    skipped.
    """
    raw: List[List[str]] = [[] for _ in positions]
    n_rows = 0
    need = max(positions, default=-1) + 1
    rows = filter(None, csv.reader(chain.from_iterable(
        io.StringIO(str(block, "utf-8"), newline="")
        for block in blocks
    )))
    if skip_header:
        next(rows, None)
    if nrows is not None:
        rows = islice(rows, nrows)
    while True:
        batch = list(islice(rows, _ROW_BATCH))
        if not batch:
            break
        if min(map(len, batch)) < need:
            # zip() would silently cut every column to the short row
            raise IndexError(
                f"{path}: a row has fewer than {need} fields"
            )
        n_rows += len(batch)
        fields = list(zip(*batch))
        for out, pos in zip(raw, positions):
            out.extend(fields[pos])
    return raw, n_rows


def _int_column(
    grids: List[_Grid], pos: int, tail_cells: List[str]
) -> Optional[np.ndarray]:
    """The column as int64 when the digit kernel parses all of it."""
    if tail_cells:
        return None
    parts = []
    for grid in grids:
        part = grid.ints(pos)
        if part is None:
            return None
        parts.append(part)
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _cell_list(
    grids: List[_Grid], pos: int, tail_cells: List[str]
) -> Tuple[List[str], Optional[int]]:
    """The column's cells, with their heap bytes when every piece of it
    came from an ASCII grid."""
    cells: List[str] = []
    sizes: List[Optional[int]] = []
    for grid in grids:
        part, part_nbytes = grid.cells(pos)
        cells += part
        sizes.append(part_nbytes)
    if tail_cells:
        cells += tail_cells
        sizes.append(None)
    return cells, None if None in sizes else sum(sizes)


def _as_float64(values: List[str]) -> np.ndarray:
    """Parse as float64 with '' as NaN."""
    if "" in values:
        values = ["nan" if v == "" else v for v in values]
    return np.asarray(values, dtype=np.float64)


def _infer_column(
    values: List[str], heap_nbytes: Optional[int] = None
) -> Column:
    """int64 -> float64 -> object inference with '' as NA.
    ``heap_nbytes``: the cells' string payload, when the caller knows."""
    has_empty = "" in values
    if not has_empty:
        try:
            return Column(np.asarray(values, dtype=np.int64))
        except (ValueError, OverflowError):
            pass
    try:
        return Column(_as_float64(values))
    except ValueError:
        pass
    obj = np.asarray(values, dtype=object)
    if has_empty:
        obj = np.where(obj == "", None, obj)
    return Column(obj, heap_nbytes=heap_nbytes)


def _convert_with_dtype(
    values: List[str], dtype_spec, heap_nbytes: Optional[int] = None
) -> Column:
    target = normalize_dtype(dtype_spec)
    if is_categorical(target):
        col = Column.from_strings_as_category(values, na_value="")
        if isinstance(target, CategoricalDtype) and target.categories is not None:
            # Re-encode against the declared category set.
            return Column.from_values(col.to_array(), dtype=target)
        return col
    if target.kind == "f":
        return Column(_as_float64(values))
    if target.kind == "i":
        try:
            return Column(np.asarray(values, dtype=np.int64))
        except ValueError:
            # NA present: silently promote, as pandas does for int columns.
            return Column(_as_float64(values))
    if target.kind == "M":
        return _parse_datetime(values)
    if target.kind == "b":
        arr = np.asarray(
            [v in ("True", "true", "1") for v in values], dtype=bool
        )
        return Column(arr)
    obj = np.asarray(values, dtype=object)
    obj = np.where(obj == "", None, obj)
    return Column(obj, heap_nbytes=heap_nbytes)


def _parse_datetime(values: List[str]) -> Column:
    if "" in values:
        values = ["NaT" if v == "" else v for v in values]
    return Column(np.asarray(values, dtype="datetime64[ns]"))


def to_datetime(data: Union[Series, Sequence[str]]) -> Series:
    """Parse strings (ISO format) into a datetime64 series."""
    if isinstance(data, Series):
        values = data.column.to_array()
        cleaned = ["NaT" if (v is None or v == "") else str(v) for v in values]
        return Series(
            Column(np.asarray(cleaned, dtype="datetime64[ns]")),
            index=data.index,
            name=data.name,
        )
    cleaned = ["NaT" if (v is None or v == "") else str(v) for v in data]
    return Series(Column(np.asarray(cleaned, dtype="datetime64[ns]")))


# ---------------------------------------------------------------------------
# Writing: one tokenizer per dtype kind, a column at a time.
# ---------------------------------------------------------------------------


class TokenRules(NamedTuple):
    """How a text format spells a cell.  :func:`column_tokens` applies
    it a column at a time; CSV and JSONL differ only in these rules."""

    #: a missing cell (NaN, NaT, ``None``, a category's NA code).
    na: str
    false: str
    true: str
    #: positive infinity; negative infinity is ``"-" + inf``.
    inf: str
    #: a list of ``str`` cells -> their tokens.
    strings: Callable[[List[str]], List[str]]
    #: one cell of a mixed object column -> its token.
    scalar: Callable[[object], str]


_STR_OR_NONE = frozenset({str, type(None)})


def column_tokens(
    column: Column, rules: TokenRules, rows: slice = slice(None)
) -> List[str]:
    """The ``rows`` of a column as text tokens.  A category column
    tokenizes each category once and gathers the tokens by code."""
    values = column.values[rows]
    if column.categories is None:
        return array_tokens(values, rules)
    # the categories as to_array() decodes them: object cells
    categories = np.empty(len(column.categories), dtype=object)
    categories[:] = column.categories
    table = np.array(array_tokens(categories, rules) + [rules.na],
                     dtype=object)
    return table[values].tolist()  # NA_CODE (-1) picks the trailing na


def array_tokens(values: np.ndarray, rules: TokenRules) -> List[str]:
    """An array's cells as text tokens, by dtype kind: ints and floats
    through their ``repr``, bools and non-finite floats as the rules
    spell them, datetimes as ``YYYY-MM-DD HH:MM:SS`` strings, ``str``
    cells through ``rules.strings`` and any other object cell through
    ``rules.scalar``."""
    kind = values.dtype.kind
    if kind == "b":
        return np.where(values, rules.true, rules.false).tolist()
    if kind in "iu":
        return list(map(int.__repr__, values.tolist()))
    if kind == "f" and values.dtype.itemsize <= 8:
        tokens = list(map(float.__repr__, values.tolist()))
        odd = np.flatnonzero(~np.isfinite(values)).tolist()
        for i, value in zip(odd, values[odd].tolist()):
            if value != value:
                tokens[i] = rules.na
            else:
                tokens[i] = rules.inf if value > 0 else "-" + rules.inf
        return tokens
    if kind == "M":
        text = np.datetime_as_string(values.astype("datetime64[s]"))
        tokens = rules.strings([t.replace("T", " ") for t in text.tolist()])
        for i in np.flatnonzero(np.isnat(values)).tolist():
            tokens[i] = rules.na
        return tokens
    cells = values.tolist()
    types = set(map(type, cells))
    if not types <= _STR_OR_NONE:
        return list(map(rules.scalar, cells))
    if type(None) not in types:
        return rules.strings(cells)
    missing = np.flatnonzero(
        np.equal(values.astype(object, copy=False), None)).tolist()
    for i in missing:
        cells[i] = ""
    tokens = rules.strings(cells)
    for i in missing:
        tokens[i] = rules.na
    return tokens


#: what makes csv's minimal quoting quote a field.
_CSV_SPECIAL = ',"\r\n'


def _csv_strings(cells: List[str]) -> List[str]:
    """csv's minimal quoting, decided once for the column: only a column
    holding ``,`` ``"`` ``\\r`` or ``\\n`` looks at its cells one by one."""
    joined = "".join(cells)
    if any(c in joined for c in _CSV_SPECIAL):
        return list(map(_csv_quote, cells))
    return cells


def _csv_quote(text: str) -> str:
    if any(c in text for c in _CSV_SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_scalar(value) -> str:
    """A mixed object column's cell: NA as empty, datetimes in ISO."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)) and np.isnan(value):
        return ""
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return ""
        return str(value.astype("datetime64[s]")).replace("T", " ")
    return _csv_quote(str(value))


CSV_TOKENS = TokenRules(na="", false="False", true="True", inf="inf",
                        strings=_csv_strings, scalar=_csv_scalar)


def frame_tokens(
    frame: DataFrame, names: Sequence[str], rules: TokenRules,
    rows: slice = slice(None), index: bool = False,
) -> List[List[str]]:
    """The ``rows`` of the named columns (the index first when asked)
    as token columns."""
    tokens = [column_tokens(frame.column(name), rules, rows)
              for name in names]
    if index:
        tokens.insert(0, array_tokens(frame.index.to_array()[rows], rules))
    return tokens


def csv_lines(tokens: List[List[str]]) -> List[str]:
    """Token columns joined into CSV rows (no terminator).  Like
    ``csv.writer``, a row that is one empty field reads ``""``."""
    if len(tokens) == 1:
        return [token or '""' for token in tokens[0]]
    return list(map(",".join, zip(*tokens)))


def csv_header(names: Sequence[object]) -> str:
    """The header row, terminator included."""
    cells = ["" if name is None else _csv_quote(str(name)) for name in names]
    return ('""' if cells == [""] else ",".join(cells)) + "\r\n"


def csv_text(lines: List[str]) -> str:
    """Rows as the file holds them: each ends in ``\\r\\n``."""
    return "\r\n".join(lines) + "\r\n" if lines else ""


def row_batches(n_rows: int) -> Iterator[slice]:
    """Row ranges encoded at a time: bounds a writer's token lists."""
    for start in range(0, n_rows, _ROW_BATCH):
        yield slice(start, start + _ROW_BATCH)


def write_csv(frame: DataFrame, path: str, index: bool = False) -> None:
    """Write a frame to CSV (NA as empty string, datetimes in ISO),
    byte for byte what ``csv.writer`` writes over the same cells."""
    names = frame.columns
    with open(path, "w", newline="") as f:
        f.write(csv_header(["index", *names] if index else names))
        for rows in row_batches(len(frame)):
            lines = csv_lines(frame_tokens(frame, names, CSV_TOKENS, rows,
                                           index=index))
            if lines:
                f.write(csv_text(lines))
