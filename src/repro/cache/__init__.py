"""Cross-session plan/result caching (ROADMAP item 3).

Three layers:

- :mod:`repro.cache.fingerprint` -- deterministic recursive content
  hashes over plan nodes (``tokenize()``-style), with source stat
  signatures so file mutation invalidates.
- :mod:`repro.cache.result_cache` -- the process-global blob cache,
  one in-memory LRU, keyed by
  ``(fingerprint, backend, semantic options)``.
- :mod:`repro.core.optimizer.cache` -- the substitution pass (behind
  ``optimizer.reuse``) that rewrites cache-hit subgraphs into
  ``from_cached`` leaves and inserts cache-worthy results after
  execution.
"""

from repro.cache.fingerprint import (
    Unfingerprintable,
    fingerprint_node,
    source_signature,
)
from repro.cache.result_cache import (
    ResultCache,
    deserialize_value,
    result_cache,
    serialize_value,
)

__all__ = [
    "ResultCache",
    "Unfingerprintable",
    "deserialize_value",
    "fingerprint_node",
    "result_cache",
    "serialize_value",
    "source_signature",
]
