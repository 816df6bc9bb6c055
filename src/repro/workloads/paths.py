"""Dataset / result directory resolution for benchmark programs.

Pre-scheduler, the runner smuggled these paths to program bodies through
process env vars (``LAFP_DATA_DIR`` / ``LAFP_RESULT_DIR``) -- a race the
moment two grid cells run concurrently in one process.  They now flow
through the per-cell session's options (``workload.data_dir`` /
``workload.result_dir``): each cell's session carries its own paths, so
parallel grids cannot clobber each other.

The env vars survive as a *fallback* for interactive use (e.g. a user
pointing an example at their own data) and are only consulted when the
current session carries no explicit option.
"""

from __future__ import annotations

import os
from typing import Optional

#: Interactive-fallback env vars (never written by the runner anymore).
DATA_DIR_ENV = "LAFP_DATA_DIR"
RESULT_DIR_ENV = "LAFP_RESULT_DIR"

_DEFAULT_DATA_DIR = "/tmp/lafp_data"
_DEFAULT_RESULT_DIR = "/tmp/lafp_results"


def data_dir(session=None) -> str:
    """Directory the current cell's datasets live in."""
    return _resolve(session, "workload.data_dir", DATA_DIR_ENV,
                    _DEFAULT_DATA_DIR)


def result_dir(session=None) -> str:
    """Directory the current cell's results go to (created on demand)."""
    path = _resolve(session, "workload.result_dir", RESULT_DIR_ENV,
                    _DEFAULT_RESULT_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def remove_stale(path: str) -> None:
    """Delete ``path`` before a run writes it again.

    Truncating an existing file and writing it anew makes ext4
    (``auto_da_alloc``) force the new blocks to disk on close, tens of
    milliseconds per file; a fresh inode is written back lazily.  Only
    for files the runner owns: a user's path may be a link whose target
    must keep its identity, and keeps truncate semantics."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def _resolve(session, option_key: str, env_key: str, default: str) -> str:
    if session is None:
        from repro.core.session import current_session

        session = current_session()
    configured: Optional[object] = session.get_option(option_key)
    if configured:
        return str(configured)
    return os.environ.get(env_key, default)
