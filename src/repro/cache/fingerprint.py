"""Deterministic content fingerprints for task-graph plans.

A fingerprint is a ``tokenize()``-style recursive hash (the dask
exemplars in SNIPPETS.md are the proven recipe): every node hashes its
op name, its *normalized* args (sorted keys, canonical per-type byte
encodings, the facade's :data:`_HINT_ARGS` excluded), and the
fingerprints of its inputs in order, once per run, before any rewrite
(which builds fresh nodes; none is stamped).  Source leaves
additionally hash the identity of the data they read -- the
absolute path plus an ``os.stat`` signature (size + mtime_ns per file,
the same invalidation signal the :class:`~repro.metastore.store.
MetaStore` keys its entries on) -- so a file rewritten in place changes
every fingerprint built over it.

Two plans built in different sessions -- or different *processes* --
over the same sources therefore produce the same hex digest, which is
what lets the :class:`~repro.cache.result_cache.ResultCache` key
results process-globally (and is pinned by a golden test).

Determinism is favoured over coverage: values without a canonical
encoding (callables above all -- a UDF's identity is not its repr)
raise :class:`Unfingerprintable`, and the caller treats the plan as
uncacheable rather than risking a false hit.

Nothing is memoized across runs: the reuse pass hands one node id ->
digest dict to every :func:`fingerprint_node` call of its walk, so each
node is hashed, and each source stat'ed, once per ``collect()``.
"""

from __future__ import annotations

import hashlib
import os
import stat
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.node import Node

#: fingerprint-format version: bump when the encoding changes so stale
#: cross-process cache keys can never alias new ones.
_VERSION = b"lafp-fp-2"

#: the facade's hint to a scan for its dtypes: not what it reads.
_HINT_ARGS = frozenset({"mutated_cols"})


class Unfingerprintable(ValueError):
    """The plan contains a value with no canonical encoding (a UDF,
    an exotic payload object); it cannot be cached safely."""


# ---------------------------------------------------------------------------
# Canonical value encoding.
# ---------------------------------------------------------------------------


def _update(h, tag: bytes, payload: bytes = b"") -> None:
    # length-prefixed type-tagged framing: ("ab", "c") and ("a", "bc")
    # must not collide.
    h.update(tag)
    h.update(struct.pack("<Q", len(payload)))
    h.update(payload)


def _hash_value(h, value) -> None:
    """Feed one canonical, type-tagged encoding of ``value`` into ``h``."""
    if value is None:
        _update(h, b"N")
    elif value is True:
        _update(h, b"T")
    elif value is False:
        _update(h, b"F")
    elif isinstance(value, int):
        _update(h, b"i", str(int(value)).encode())
    elif isinstance(value, float):
        _update(h, b"f", struct.pack("<d", value))
    elif isinstance(value, str):
        _update(h, b"s", value.encode("utf-8"))
    elif isinstance(value, bytes):
        _update(h, b"b", value)
    elif isinstance(value, (list, tuple)):
        _update(h, b"l" if isinstance(value, list) else b"t",
                str(len(value)).encode())
        for item in value:
            _hash_value(h, item)
    elif isinstance(value, dict):
        _update(h, b"d", str(len(value)).encode())
        for key in sorted(value, key=_sort_key):
            _hash_value(h, key)
            _hash_value(h, value[key])
    elif isinstance(value, (set, frozenset)):
        _update(h, b"S", str(len(value)).encode())
        for item in sorted(value, key=_sort_key):
            _hash_value(h, item)
    elif isinstance(value, slice):
        _update(h, b"r")
        _hash_value(h, (value.start, value.stop, value.step))
    elif isinstance(value, np.generic):
        _update(h, b"g", str(value.dtype).encode())
        _hash_value(h, value.item())
    elif isinstance(value, np.ndarray):
        _hash_array(h, value)
    else:
        _hash_payload(h, value)


def _sort_key(value) -> Tuple[str, str]:
    # dict/set iteration order must not leak into the digest; keys are
    # almost always strings, the type name breaks cross-type ties.
    return (type(value).__name__, str(value))


def _hash_array(h, arr: np.ndarray) -> None:
    _update(h, b"a", str(arr.dtype).encode())
    if arr.dtype == object:
        _update(h, b"l", str(arr.size).encode())
        for item in arr.ravel().tolist():
            _hash_value(h, item)
    else:
        _update(h, b"b", np.ascontiguousarray(arr).tobytes())


def _hash_payload(h, value) -> None:
    """Inline data payloads (``from_pandas`` frames, ``from_data``
    columns): hashed by column content, never by ``repr``/``pickle``
    (both are process- and version-dependent)."""
    from repro.frame import DataFrame, Series
    from repro.frame.column import Column
    from repro.io.source import Partition

    if isinstance(value, Column):
        _update(h, b"C")
        _hash_array(h, value.to_array())
    elif isinstance(value, Series):
        _update(h, b"E", str(value.name).encode())
        _hash_value(h, value.index.to_array())
        _hash_value(h, value.column)
    elif isinstance(value, DataFrame):
        _update(h, b"D", str(len(value)).encode())
        for name in value.columns:
            _hash_value(h, str(name))
            _hash_value(h, value.column(name))
    elif isinstance(value, Partition):
        # the piece of the source it reads; its statistics follow from
        # the file, whose stat signature the scan hashes
        _update(h, b"p")
        _hash_value(h, (value.index, value.path, value.byte_range,
                        value.key_values))
    else:
        # callables (UDFs), stores, arbitrary objects: no
        # canonical encoding exists -- refuse rather than mis-key.
        raise Unfingerprintable(
            f"value of type {type(value).__name__!r} has no canonical "
            f"fingerprint encoding"
        )


# ---------------------------------------------------------------------------
# Source stat signatures.
# ---------------------------------------------------------------------------

#: (absolute path, size, mtime_ns) triples a fingerprint depends on.
StatSig = Tuple[Tuple[str, int, int], ...]


def source_signature(path: str) -> StatSig:
    """Stat signature of one source path (a file, or a dataset
    directory walked recursively in sorted order).

    Missing paths contribute a tombstone entry instead of raising --
    the scan itself will surface the real error with its own message,
    and a file that *appears* later must still flip the fingerprint.

    Remote URLs (``memory://``, registered object stores) stat through
    the byte-range filesystem layer: the store's size + version counter
    plays the role of size + mtime, so mutating a remote object flips
    every fingerprint scanning it.
    """
    from repro.io.fs import is_remote_url, local_path, resolve_filesystem

    if is_remote_url(path):
        try:
            st = resolve_filesystem(path).stat(path)
        except Exception:  # noqa: BLE001 - missing object, bad scheme
            return ((path, -1, -1),)
        return ((path, st.size, st.mtime_ns),)
    path = os.path.abspath(local_path(path))
    try:
        st = os.stat(path)
    except OSError:
        return ((path, -1, -1),)
    if not stat.S_ISDIR(st.st_mode):
        return ((path, st.st_size, st.st_mtime_ns),)
    entries: List[Tuple[str, int, int]] = []
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            try:
                fst = os.stat(full)
            except OSError:
                entries.append((full, -1, -1))
                continue
            entries.append((full, fst.st_size, fst.st_mtime_ns))
    return tuple(entries)


# ---------------------------------------------------------------------------
# Node fingerprints.
# ---------------------------------------------------------------------------


def _node_digest(node: Node, digests: Dict[int, str]) -> str:
    cached = digests.get(node.id)
    if cached is not None:
        return cached
    if node.op == "from_cached":
        # a substituted subplan stands for the plan it was cached under
        return node.args["key"]
    if node.op == "held":
        # a held value stands for the raw plan that produced it
        return _node_digest(node.args["node"], digests)
    h = hashlib.sha256(_VERSION)
    _update(h, b"o", node.op.encode())
    spec = node.spec
    _hash_value(h, {k: v for k, v in node.args.items()
                    if k not in _HINT_ARGS})
    for path_arg in ("path", "filepath"):
        path = node.args.get(path_arg)
        if spec.is_source and isinstance(path, str):
            _update(h, b"P")
            _hash_value(h, [list(entry) for entry in source_signature(path)])
    _update(h, b"I", str(len(node.inputs)).encode())
    for inp in node.inputs:
        _update(h, b"n", _node_digest(inp, digests).encode())
    digest = h.hexdigest()
    digests[node.id] = digest
    return digest


def fingerprint_node(node: Node, session=None, *,
                     digests: Optional[Dict[int, str]] = None) -> str:
    """Hex digest of the plan rooted at ``node``.

    Raises :class:`Unfingerprintable` when any value in the subgraph
    has no canonical encoding.  ``session`` is not read: a digest is a
    function of the nodes and their sources' stat signatures alone.
    ``digests`` (node id -> digest) is the memo of a walk that
    fingerprints many nodes of one plan, so each node is hashed, and
    each source stat'ed, once per walk however many consumers ask.
    """
    return _node_digest(node, {} if digests is None else digests)
