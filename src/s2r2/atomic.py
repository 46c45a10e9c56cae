"""Atomic artifact writes: a temp file beside the target, then ``os.replace``.

A reader of an artifact sees either the previous complete file or the
new complete file, never a partial one, even if the writer is killed or
fails half way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["atomic_write"]


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open ``<path>.tmp`` for writing; it replaces ``path`` when the block ends.

    ``mode`` and ``open_kwargs`` go to `open`.  If the block or the
    replace raises, the temp file is removed and any previous file at
    ``path`` is left as it was.
    """
    tmp_path = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp_path, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
