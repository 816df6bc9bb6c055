"""LaFP lazy runtime (the paper's primary contribution).

- :mod:`repro.core.session` -- explicit :class:`Session` objects resolved
  through a thread-local stack (``with Session(backend=...)``), each
  owning its backend engines, pending lazy prints, persisted-node cache
  and options; a shared root session backs paper-verbatim scripts.
- :mod:`repro.core.config` -- the pandas-style per-session option layer
  (``options`` / ``set_option`` / ``option_context`` with dotted keys
  like ``optimizer.predicate_pushdown`` and ``backend.engine``).
- :mod:`repro.core.lazyframe` -- ``LazyFrame`` / ``LazySeries`` /
  ``LazyScalar`` wrappers that mirror the pandas API and build the task
  graph (the paper's ``FatDataFrame``, section 2.5), with explicit
  ``collect()`` / ``persist()`` / ``explain()``.
- :mod:`repro.core.optimizer` -- runtime DAG optimizations (section 3):
  predicate pushdown, common-subexpression elimination, projection
  pushdown, metadata-driven dtypes, and ``live_df`` persistence.
"""

from repro.core.config import (
    OptionError,
    SessionOptions,
    describe_options,
    options,
)
from repro.core.session import (
    Session,
    current_session,
    reset_root_session,
    root_session,
)
from repro.core.lazyframe import LazyFrame, LazyGroupBy, LazyScalar, LazySeries

__all__ = [
    "LazyFrame",
    "LazyGroupBy",
    "LazyScalar",
    "LazySeries",
    "OptionError",
    "Session",
    "SessionOptions",
    "current_session",
    "describe_options",
    "options",
    "reset_root_session",
    "root_session",
]
