"""The one write protocol for every file the package writes.

:func:`durable_open` hands out ``<name>.tmp``; when the ``with`` block
ends cleanly it fsyncs the file, moves it over ``<name>`` with
``os.replace`` and fsyncs the directory.  A crash at any point leaves
``<name>`` either as it was or whole and new, never torn.  On any error
the temp file is unlinked and the error re-raised, so a failed write
leaves nothing behind; a crash may leave the ``.tmp``, which the run
store's recovery sweep removes.  That is three durable steps per file:
file fsync, replace, directory fsync.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator, Union

PathLike = Union[str, "os.PathLike[str]"]


@contextmanager
def durable_open(path: PathLike, mode: str = "w") -> Iterator[IO]:
    """Write ``path`` through a temp file; ``mode`` is ``"w"`` (UTF-8
    text) or ``"wb"``."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def durable_write(path: PathLike, data: Union[str, bytes]) -> None:
    """Durably replace ``path``'s content with ``data``."""
    with durable_open(path, "wb" if isinstance(data, bytes) else "w") as f:
        f.write(data)
