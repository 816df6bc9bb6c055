"""Newline-delimited JSON: reader, writer, and the :class:`JsonlSource`.

One JSON object per line.  Values keep their JSON types (ints stay
int64, floats float64, ``null`` becomes NA), which is exactly the
metadata CSV loses -- the format exists here so the scan layer has a
second real format with different physical characteristics.

Byte-range partitioning is the CSV reader's
(:func:`repro.frame.io_csv.read_line_blocks`: a line belongs to the
range holding its first byte) minus the header line CSV carries, and so
is the decode: a block of lines is read one of two ways, chosen from
its bytes.

- A *regular* block -- every line one object holding the first line's
  keys in its order, no escape, no control byte, no nested value, the
  writer's separators (:class:`_Objects`) -- is a byte grid
  (:class:`repro.frame.io_csv._Grid`) of ``(rows, keys)`` value spans,
  found with numpy without decoding a value.  Only the wanted keys are
  typed, over all the rows of the read, to what ``json.loads`` and
  :func:`_column_from_values` would make of them: all ints through the
  CSV reader's digit kernel, numbers and ``null`` as float64, bools
  from their first byte, strings and ``null`` from the bytes inside
  the quotes; any other column through one ``json.loads`` of its own
  tokens.
- Any other block is parsed by one ``json.loads`` of its lines joined
  into an array (:func:`_parse_lines`).
"""

from __future__ import annotations

import json
import os
from contextlib import closing
from functools import partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.frame import DataFrame, io_csv
from repro.frame.column import Column
from repro.frame.dtypes import STRING_OVERHEAD
from repro.frame.io_csv import (
    TokenRules, _Grid, frame_tokens, read_line_blocks, row_batches,
    split_byte_ranges,
)
from repro.io.csv_source import ByteRangeSource


def write_jsonl(frame: DataFrame, path: str) -> None:
    """Write a frame as one JSON object per line (NA as ``null``), byte
    for byte what ``json.JSONEncoder().encode`` makes of each row."""
    names = frame.columns
    with open(path, "w") as f:
        for rows in row_batches(len(frame)):
            f.write(jsonl_text(jsonl_lines(frame, names, rows)))


def jsonl_lines(
    frame: DataFrame, names: Sequence[str], rows: slice = slice(None)
) -> List[str]:
    """The ``rows`` of the named columns as JSON objects, one string
    each: every key is encoded once and each row is one ``"".join`` of
    the keys interleaved with the row's tokens."""
    if not names:
        return []
    parts: list = []
    for i, (name, tokens) in enumerate(
            zip(names, frame_tokens(frame, names, JSON_TOKENS, rows))):
        key = _ENCODE({name: 0})[1:-2]  # '"name": '
        parts += [repeat(("{" if i == 0 else ", ") + key), tokens]
    parts.append(repeat("}"))
    return list(map("".join, zip(*parts)))


def jsonl_text(lines: List[str]) -> str:
    """Objects as the file holds them, one a line."""
    return "\n".join(lines) + "\n" if lines else ""


_ENCODE = json.JSONEncoder().encode


def _json_strings(cells: List[str]) -> List[str]:
    return list(map(encode_basestring_ascii, cells))


def _json_scalar(value) -> str:
    """A mixed object column's cell: numpy scalars as their Python
    value, NA as ``null``, datetimes in ISO, anything else as text."""
    return _ENCODE(_jsonable(value))


def _jsonable(value):
    if value is None:
        return None
    if isinstance(value, (np.floating, float)):
        return None if np.isnan(value) else float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return None
        return str(value.astype("datetime64[s]")).replace("T", " ")
    return str(value)


#: lines whose keys make the schema.
_HEADER_LINES = 100

JSON_TOKENS = TokenRules(na="null", false="false", true="true",
                         inf="Infinity", strings=_json_strings,
                         scalar=_json_scalar)


def read_jsonl_header(path: str) -> List[str]:
    """Column names: union of keys over the first few records, in
    first-seen order (records may omit keys).  When those lines are a
    regular block (:class:`_Objects`) the names are its keys, read
    without decoding a value."""
    with open(path, "rb") as f:
        grid = _Objects.of(b"".join(islice(f, _HEADER_LINES)))
    if grid is not None:
        return list(grid.keys)
    names: List[str] = []
    seen = set()
    with open(path) as f:
        for i, line in enumerate(f):
            if i >= _HEADER_LINES:
                break
            line = line.strip()
            if not line:
                continue
            for key in json.loads(line):
                if key not in seen:
                    seen.add(key)
                    names.append(key)
    return names


def read_jsonl(path: str, **options) -> DataFrame:
    """Read (a byte range of) a JSONL file into a :class:`DataFrame`:
    every column of :func:`column_builders` (same options), built."""
    _, builders = column_builders(path, **options)
    return DataFrame.from_columns({n: build() for n, build in builders.items()})


#: one block's decoded lines: a grid of its objects' values, or (for a
#: block the grid cannot prove regular) the parsed records.
_Piece = Union["_Objects", List[dict]]


def column_builders(
    path: str, columns: Optional[Sequence[str]] = None,
    nrows: Optional[int] = None, byte_range: Optional[Tuple[int, int]] = None,
    parse_dates: Optional[Sequence[str]] = None, dtype: Optional[dict] = None,
) -> Tuple[int, Dict[str, Callable[[], Column]]]:
    """The number of records, and per wanted column the function that
    types its values."""
    pieces: List[_Piece] = []
    n_rows = 0
    with closing(read_line_blocks(path, byte_range)) as blocks:
        for block in blocks:
            grid = _Objects.of(block) if nrows is None else None
            if grid is not None:
                pieces.append(grid)
                n_rows += len(grid.values.starts)
                continue
            text = str(block, "utf-8")
            lines = [ln for ln in map(str.strip, text.split("\n")) if ln]
            if nrows is not None:
                del lines[nrows - n_rows:]
            records = _parse_lines(lines)
            pieces.append(records)
            n_rows += len(records)
            if nrows is not None and n_rows >= nrows:
                break

    if columns is not None:
        wanted = list(columns)
    else:
        wanted = list(dict.fromkeys(chain.from_iterable(
            piece.keys if isinstance(piece, _Objects)
            else chain.from_iterable(piece)
            for piece in pieces)))
        if not wanted and os.path.getsize(path):
            wanted = read_jsonl_header(path)

    parse_set = set(parse_dates or [])
    dtype = dtype or {}
    return n_rows, {
        name: partial(_build_column, pieces, name, name in parse_set,
                      dtype.get(name))
        for name in wanted
    }


def _build_column(pieces: List[_Piece], name: str, parse_date: bool,
                  dtype) -> Column:
    column = None if parse_date else _grid_column(pieces, name)
    if column is None:
        values = list(chain.from_iterable(
            _piece_values(piece, name) for piece in pieces))
        if parse_date:
            cleaned = ["NaT" if v in (None, "") else str(v) for v in values]
            column = Column(np.asarray(cleaned, dtype="datetime64[ns]"))
        else:
            column = _column_from_values(values)
    return column if dtype is None else column.astype(dtype)


def _piece_values(piece: _Piece, name: str) -> list:
    """One block's values of key ``name``, as ``json.loads`` gives them."""
    if not isinstance(piece, _Objects):
        return [record.get(name) for record in piece]
    if name not in piece.keys:
        return [None] * len(piece.values.starts)
    tokens, _ = piece.values.cells(piece.keys.index(name))
    return json.loads("[" + ",".join(tokens) + "]")


def _parse_lines(lines: List[str]) -> list:
    """One ``json.loads`` over the lines joined into an array; on a
    malformed line (or one holding several values) parse line by line so
    the error names it."""
    try:
        records = json.loads("[" + ",".join(lines) + "]")
        if len(records) == len(lines):
            return records
    except json.JSONDecodeError:
        pass
    return [json.loads(line) for line in lines]


def _column_from_values(values: List[object]) -> Column:
    """JSON values -> typed column: int64 when all ints, float64 when
    numeric with NA, object otherwise (None preserved as NA)."""
    has_na = any(v is None for v in values)
    non_null = [v for v in values if v is not None]
    if non_null and all(
        isinstance(v, bool) for v in non_null
    ) and not has_na:
        return Column(np.asarray(values, dtype=bool))
    if non_null and all(
        isinstance(v, int) and not isinstance(v, bool) for v in non_null
    ):
        if not has_na:
            return Column(np.asarray(values, dtype=np.int64))
        return Column(np.asarray(
            [np.nan if v is None else float(v) for v in values],
            dtype=np.float64,
        ))
    if non_null and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in non_null
    ):
        return Column(np.asarray(
            [np.nan if v is None else float(v) for v in values],
            dtype=np.float64,
        ))
    return Column(np.asarray(values, dtype=object))


# ---------------------------------------------------------------------------
# The grid: a regular block's value spans, typed without json.loads.
# ---------------------------------------------------------------------------

_QUOTE, _LF, _SPACE, _BACKSLASH, _MINUS, _ZERO = b'"\n \\-0'
_LBRACE, _RBRACE, _COLON, _COMMA = b"{}:,"
_TRUE, _NULL, _INFINITY = b"tnI"

#: a value token's kind, by its first byte (:func:`_token_kinds`)
_NUMBER, _STRING, _NULL_KIND, _BOOL, _SPECIAL = range(5)
_KIND = np.full(256, _SPECIAL, dtype=np.intp)  # NaN, Infinity, -Infinity
_KIND[list(b"-0123456789")] = _NUMBER
_KIND[_QUOTE] = _STRING
_KIND[_NULL] = _NULL_KIND
_KIND[list(b"tf")] = _BOOL

#: the literals ``json.loads`` takes, by first byte: bytes and length
_LITERALS = (b"true", b"false", b"null", b"NaN", b"Infinity", b"-Infinity")
_LITERAL_ROW = np.full(256, len(_LITERALS), dtype=np.intp)
_LITERAL_ROW[[word[0] for word in _LITERALS]] = np.arange(len(_LITERALS))
_LITERAL_WIDTH = max(map(len, _LITERALS))
_LITERAL_BYTES = np.zeros((len(_LITERALS) + 1, _LITERAL_WIDTH), np.uint8)
for _row, _word in enumerate(_LITERALS):
    _LITERAL_BYTES[_row, :len(_word)] = list(_word)
_LITERAL_LEN = np.array([*map(len, _LITERALS), -1], dtype=np.intp)

#: a number token's bytes by class (a ``bytes.translate`` table);
#: ``_SEP`` stands between tokens
_SEP, _DIGIT, _ZERO_C, _MINUS_C, _PLUS_C, _DOT_C, _EXP_C, _BAD = range(8)
_CLASS = bytearray([_BAD]) * 256
for _chars, _class in (
    (b"\n", _SEP), (b"123456789", _DIGIT), (b"0", _ZERO_C),
    (b"-", _MINUS_C), (b"+", _PLUS_C), (b".", _DOT_C), (b"eE", _EXP_C),
):
    for _char in _chars:
        _CLASS[_char] = _class
_CLASS = bytes(_CLASS)
#: each class pair ``a << 3 | b``'s kind (a ``bytes.translate`` table):
#: forbidden unless ``b`` may follow ``a`` inside
#: ``-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][-+]?[0-9]+)?`` (one class a byte);
#: a token's opening "0" or "-", a "0" after "-", a "0" before a digit,
#: or plain
_FORBIDDEN, _OPEN_ZERO, _OPEN_MINUS, _MINUS_ZERO, _ZERO_DIGIT = b"!zm-d"
_PAIR_KIND = bytearray([_FORBIDDEN]) * 256
for _a, _bs in (
    (_SEP, (_DIGIT, _ZERO_C, _MINUS_C)),
    (_DIGIT, (_DIGIT, _ZERO_C, _DOT_C, _EXP_C, _SEP)),
    (_ZERO_C, (_DIGIT, _ZERO_C, _DOT_C, _EXP_C, _SEP)),
    (_MINUS_C, (_DIGIT, _ZERO_C)),
    (_PLUS_C, (_DIGIT, _ZERO_C)),
    (_DOT_C, (_DIGIT, _ZERO_C)),
    (_EXP_C, (_DIGIT, _ZERO_C, _MINUS_C, _PLUS_C)),
):
    for _b in _bs:
        _PAIR_KIND[_a << 3 | _b] = ord(".")
_PAIR_KIND[_SEP << 3 | _ZERO_C] = _OPEN_ZERO
_PAIR_KIND[_SEP << 3 | _MINUS_C] = _OPEN_MINUS
_PAIR_KIND[_MINUS_C << 3 | _ZERO_C] = _MINUS_ZERO
_PAIR_KIND[_ZERO_C << 3 | _DIGIT] = _ZERO_DIGIT
_PAIR_KIND[_ZERO_C << 3 | _ZERO_C] = _ZERO_DIGIT
_PAIR_KIND = bytes(_PAIR_KIND)
#: a forbidden pair, and a "0" opening the integer part followed by a
#: digit (``01``, ``-00``)
_BAD_PAIRS = (bytes([_FORBIDDEN]), bytes([_OPEN_ZERO, _ZERO_DIGIT]),
              bytes([_OPEN_MINUS, _MINUS_ZERO, _ZERO_DIGIT]))
#: with the digits and signs deleted, a token holds at most one ".",
#: then at most one exponent
_BAD_MARKERS = tuple(map(bytes, ([_DOT_C, _DOT_C], [_EXP_C, _EXP_C],
                                 [_EXP_C, _DOT_C])))
#: the low ``i`` bytes of a little-endian word
_LOW_BYTES = np.array([(1 << 8 * i) - 1 for i in range(9)], dtype=np.uint64)
#: a longer number token goes to ``json.loads`` (which caps int digits)
_MAX_NUMBER_BYTES = 256


class _Objects(NamedTuple):
    """One regular JSONL block: every line is one object with the same
    ``keys`` in the same order, and ``values`` is a :class:`_Grid` whose
    ``(rows, keys)`` spans are the value tokens -- a string's quotes
    included.

    A block is regular when, proven with numpy over its bytes: no byte
    is a backslash or below 0x20 but ``\\n``; every line holds as many
    ``:`` outside strings as the first and reads ``{``, ``"key": value``
    pairs joined by ``,`` (one space after ``:`` and after ``,``
    optional), ``}``; the key bytes are the first line's on every line,
    with no key twice; every value token is one string, one JSON number
    or one literal ``json.loads`` takes; and the keys' and the strings'
    quotes are all the block's quotes.  So the block's records are
    exactly ``dict(zip(keys, values))`` and no value is an object or an
    array.
    """

    keys: List[str]
    values: _Grid

    @classmethod
    def of(cls, block: Union[bytes, memoryview]) -> Optional["_Objects"]:
        """The grid of ``block``, or ``None`` when it is not regular."""
        buf = np.frombuffer(block, dtype=np.uint8)
        if len(buf) < io_csv._GRID_MIN_BYTES or block[-1:] != b"\n":
            return None
        ends = np.flatnonzero(buf == _LF)
        if (np.count_nonzero(buf < 0x20) != len(ends)
                or (buf == _BACKSLASH).any()):
            return None  # an escape, a tab, a CR or another control byte
        if not _flat_object(bytes(block[:ends[0]])):
            return None  # known from the first line, before the work
        colons = np.flatnonzero(buf == _COLON)
        spans = _line_spans(buf, ends, colons)
        if spans is None:
            # some string may hold a colon: keep those outside strings
            quotes = np.flatnonzero(buf == _QUOTE)
            spans = _line_spans(
                buf, ends, colons[np.searchsorted(quotes, colons) % 2 == 0])
            if spans is None:
                return None
        key_starts, key_lens, starts, lens = spans
        strings = buf[starts] == _QUOTE
        # each key and string token opens and closes with a quote, and
        # those are all the block's quotes: so the tokens are the lines'
        # strings, whatever the strings hold
        if ((lens[strings] < 2).any()
                or (buf[starts[strings] + lens[strings] - 1] != _QUOTE).any()
                or np.count_nonzero(buf == _QUOTE)
                != 2 * (lens.size + np.count_nonzero(strings))):
            return None
        keys = [str(block[s + 1:s + n - 1], "utf-8")
                for s, n in zip(key_starts[0].tolist(), key_lens.tolist())]
        if (len(set(keys)) != len(keys)
                or not _same_keys(buf, key_starts, key_lens)
                or not _scalars_valid(buf, starts[~strings], lens[~strings])):
            return None
        ascii = bool(buf.max() < 0x80)
        if not ascii:
            str(block, "utf-8")  # malformed text raises, wanted or not
        return cls(keys, _Grid(buf, starts, lens, ascii))


def _flat_object(line: bytes) -> bool:
    """Is ``line`` one JSON object whose values are all scalars?"""
    try:
        record = json.loads(line)
    except ValueError:
        return False
    return isinstance(record, dict) and not any(
        isinstance(value, (dict, list)) for value in record.values())


def _line_spans(
    buf: np.ndarray, ends: np.ndarray, colons: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """When every line (ending at ``ends``) holds as many ``colons`` as
    the first and reads ``{"key": value, "key": value}`` around them --
    each key as long as the first line's, one space after ``:`` and
    after ``,`` optional -- the ``(rows, keys)`` key starts, the
    ``keys`` key lengths, and the ``(rows, keys)`` value starts and
    lengths."""
    rows = len(ends)
    width = int(np.searchsorted(colons, ends[0]))
    if not width or len(colons) != rows * width:
        return None
    colons = colons.reshape(rows, width)
    # the first line's keys: each the quoted run ending at its colon
    first = buf[:ends[0]].tobytes()
    first_keys = [first.rfind(b'"', 0, c - 1) for c in colons[0].tolist()]
    if first_keys[0] != 1 or (buf[colons[0] - 1] != _QUOTE).any() \
            or min(first_keys) < 0:
        return None
    key_lens = colons[0] - first_keys
    key_starts = colons - key_lens
    line_starts = np.empty_like(ends)
    line_starts[0], line_starts[1:] = 0, ends[:-1] + 1
    seps = key_starts[:, 1:] - 1
    seps -= buf[seps] == _SPACE
    starts = colons + 1
    starts += buf[starts] == _SPACE
    lens = np.empty_like(starts)
    lens[:, :-1] = seps
    lens[:, -1] = ends - 1
    lens -= starts
    if ((key_starts[:, 0] != line_starts + 1).any()
            or (buf[line_starts] != _LBRACE).any()
            or (buf[ends - 1] != _RBRACE).any()
            or (buf[seps] != _COMMA).any() or (lens < 1).any()):
        return None
    return key_starts, key_lens, starts, lens


def _same_keys(buf: np.ndarray, key_starts: np.ndarray,
               key_lens: np.ndarray) -> bool:
    """Are every line's key bytes (``key_lens`` long from
    ``key_starts``) the first line's?  Compared 8 bytes at a time."""
    n_words = (key_lens + 7) // 8
    column = np.repeat(np.arange(len(key_lens)), n_words)
    offset = 8 * (np.arange(len(column))
                  - np.repeat(np.cumsum(n_words) - n_words, n_words))
    tail = np.minimum(key_lens[column] - offset, 8)
    got = _words(buf)[key_starts[:, column] + offset] & _LOW_BYTES[tail]
    return not (got != got[0]).any()


def _words(buf: np.ndarray) -> np.ndarray:
    """The little-endian 8-byte word starting at each byte of ``buf``
    (zero bytes past its end), as a view of a padded copy."""
    padded = np.zeros(len(buf) + 7, dtype=np.uint8)
    padded[:len(buf)] = buf
    return np.ndarray((len(buf),), dtype="<u8", buffer=padded, strides=(1,))


def _scalars_valid(buf: np.ndarray, starts: np.ndarray,
                   lens: np.ndarray) -> bool:
    """Is every token that is not a string a number or literal that
    ``json.loads`` takes?  A literal is compared whole; the numbers are
    gathered into one run, each byte translated to its class, and the
    run searched for a pair of classes the grammar forbids, a second
    ``.`` or exponent, and a leading zero."""
    literal = _token_kinds(buf, starts) != _NUMBER
    if literal.any():
        rows = _LITERAL_ROW[buf[starts[literal]]]
        at = np.minimum(starts[literal, None] + np.arange(_LITERAL_WIDTH),
                        len(buf) - 1)
        inside = np.arange(_LITERAL_WIDTH) < lens[literal, None]
        if ((lens[literal] != _LITERAL_LEN[rows]).any()
                or ((buf[at] != _LITERAL_BYTES[rows]) & inside).any()):
            return False
    starts, lens = starts[~literal], lens[~literal]
    if not len(starts):
        return True
    if lens.max() > _MAX_NUMBER_BYTES:
        return False
    run = b"\n" + _Grid(buf, starts[:, None], lens[:, None],
                        True).joined(0).tobytes()
    cls = np.frombuffer(run.translate(_CLASS), dtype=np.uint8)
    pairs = ((cls[:-1] << 3) | cls[1:]).tobytes().translate(_PAIR_KIND)
    markers = run.translate(_CLASS, b"0123456789+-")
    return not (any(bad in pairs for bad in _BAD_PAIRS)
                or any(bad in markers for bad in _BAD_MARKERS))


def _grid_column(pieces: List[_Piece], name: str) -> Optional[Column]:
    """What :func:`_column_from_values` makes of key ``name``, typed
    from the tokens' bytes, when every piece is a grid holding the key
    and the tokens are all ints, all bools, numbers and ``null``, or
    strings and ``null``; else ``None``."""
    spans = []
    for piece in pieces:
        if not isinstance(piece, _Objects) or name not in piece.keys:
            return None
        pos = piece.keys.index(name)
        grid = piece.values
        spans.append(grid._replace(starts=grid.starts[:, pos:pos + 1],
                                   lens=grid.lens[:, pos:pos + 1]))
    kinds = [_token_kinds(grid.buf, grid.starts[:, 0]) for grid in spans]
    counts = sum((np.bincount(k, minlength=5) for k in kinds),
                 np.zeros(5, dtype=np.intp))
    n_rows = int(counts.sum())
    if not n_rows or counts[_SPECIAL]:
        return None
    if counts[_NUMBER] == n_rows:
        parts = [grid.ints(0) for grid in spans]
        if all(part is not None for part in parts):
            return Column(np.concatenate(parts))
    if counts[_BOOL] == n_rows:
        return Column(np.concatenate([
            grid.buf[grid.starts[:, 0]] == _TRUE for grid in spans]))
    if counts[_NUMBER] and counts[_NUMBER] + counts[_NULL_KIND] == n_rows:
        return _float_column(spans, kinds, bool(counts[_NULL_KIND]))
    if counts[_STRING] and counts[_STRING] + counts[_NULL_KIND] == n_rows:
        return _string_column(spans, kinds)
    return None


def _token_kinds(buf: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The kind of the token at each of ``starts``, by its first byte
    (``-Infinity`` by its second: no token ends a line)."""
    first = buf[starts]
    kinds = _KIND[first]
    minus = np.flatnonzero(first == _MINUS)
    kinds[minus[buf[starts[minus] + 1] == _INFINITY]] = _SPECIAL
    return kinds


def _float_column(spans: List[_Grid], kinds: List[np.ndarray],
                  has_null: bool) -> Optional[Column]:
    """Numbers and ``null`` as float64, ``null`` as NaN.  An int token
    converts as an int (``-0`` is ``0.0``); a column of int tokens only
    (one past the digit kernel's 18 digits) is ``None``: it is int64 or
    an overflow, as ``json.loads`` decides."""
    parts = []
    is_float = has_null
    for grid, kind in zip(spans, kinds):
        numbers = np.flatnonzero(kind == _NUMBER)
        starts, lens = grid.starts[numbers, 0], grid.lens[numbers, 0]
        tokens, _ = grid._replace(starts=starts[:, None],
                                  lens=lens[:, None]).cells(0)
        if not is_float:
            joined = "".join(tokens)
            is_float = "." in joined or "e" in joined or "E" in joined
        out = np.full(len(kind), np.nan)
        out[numbers] = np.asarray(tokens, dtype=np.float64)
        negative_zero = (lens == 2) & (grid.buf[starts] == _MINUS) & (
            grid.buf[starts + 1] == _ZERO)
        out[numbers[negative_zero]] = 0.0
        parts.append(out)
    return Column(np.concatenate(parts)) if is_float else None


def _string_column(spans: List[_Grid], kinds: List[np.ndarray]) -> Column:
    """Strings and ``null`` as an object column, ``null`` as ``None``;
    the strings are the tokens' bytes inside the quotes (no escape is
    left in a regular block) and, when the block is ASCII, their heap
    bytes are their lengths."""
    parts = []
    heap: Optional[int] = 0
    for grid, kind in zip(spans, kinds):
        rows = np.flatnonzero(kind == _STRING)
        inner = grid.lens[rows, 0] - 2
        cells, _ = grid._replace(starts=grid.starts[rows] + 1,
                                 lens=inner[:, None]).cells(0)
        out = np.empty(len(kind), dtype=object)
        out[rows] = cells
        parts.append(out)
        if heap is not None:
            heap = (heap + STRING_OVERHEAD * len(rows) + int(inner.sum())
                    if grid.ascii else None)
    return Column(np.concatenate(parts), heap_nbytes=heap)


class JsonlSource(ByteRangeSource):
    """Byte-range partitioned newline-delimited JSON."""

    format_name = "jsonl"

    def schema(self) -> List[str]:
        return self.fact("schema", lambda: read_jsonl_header(self.path))

    def byte_ranges(self, n: int) -> List[Tuple[int, int]]:
        return split_byte_ranges(self.path, n)  # no header to skip

    def read_partition(self, partition, columns=None, predicate=None):
        n_rows, builders = column_builders(
            partition.path,
            columns=self._read_columns(columns, predicate),
            nrows=self.options.get("nrows"),
            byte_range=partition.byte_range,
            parse_dates=self.options.get("parse_dates"),
            dtype=self.options.get("dtype"),
        )
        return self.assemble(n_rows, builders, columns, predicate)

    def estimated_bytes(self, columns=None, partitions=None):
        estimate = super().estimated_bytes(columns=columns,
                                           partitions=partitions)
        if estimate is not None:
            # JSONL repeats every key on every row; the in-memory frame
            # is much denser than the file. Halve the raw-byte estimate.
            return estimate // 2
        return None
