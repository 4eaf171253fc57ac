"""Output files.

A run directory can share an output with a sibling run directory through a
hard link (see ``pipeline._reuse``). Writing into an existing file would
then rewrite the sibling's bytes as well, so every writer replaces its
file: it removes the path and creates a new one.
"""

from __future__ import annotations

import stat
from pathlib import Path
from typing import Union


def open_new(path: Union[str, Path], mode: str = "x", **kwargs):
    """Open a new file at ``path`` in place of the regular file there, if any.

    ``mode`` is an exclusive-create mode ("x" or "xb"), so a file that
    appears between the removal and the open is an error, never a
    truncation. Anything but a regular file at ``path`` (a device such as
    /dev/null, a pipe, a symbolic link) is where the caller chose to send
    the output, and is opened for writing as it is.
    """
    path = Path(path)
    try:
        if not stat.S_ISREG(path.lstat().st_mode):
            return path.open(mode.replace("x", "w"), **kwargs)
        path.unlink()
    except FileNotFoundError:
        pass
    return path.open(mode, **kwargs)
