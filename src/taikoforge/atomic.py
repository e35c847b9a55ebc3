"""Crash-safe artifact writes: a file is replaced whole or not at all."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb", **open_kwargs):
    """Write ``path`` through a temporary file in the same directory.

    The block writes to the yielded file; when it exits cleanly the file is
    moved onto ``path`` with :func:`os.replace`, which is atomic. Until then
    ``path`` keeps its old contents, so a run that raises or is killed
    mid-write never leaves a half-written artifact. If the block raises,
    the temporary file is removed as well.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
