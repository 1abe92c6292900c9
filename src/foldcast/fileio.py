"""Atomic replacement of the files a run writes."""
from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temporary file beside ``path`` for writing.

    On a clean exit the temporary file is flushed to disk and replaces
    ``path`` in one ``os.replace``, so ``path`` holds either its old bytes
    or all of the new ones, never a part; the directory is then flushed
    too, so the rename itself outlives a power loss. If the body raises,
    the temporary file is removed and ``path`` is left as it was. ``mode``
    and ``kwargs`` go to ``open``.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
