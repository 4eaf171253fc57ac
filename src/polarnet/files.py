"""Output files.

A run directory can share an output with a sibling run directory through a
hard link (see ``pipeline._reuse``). Writing into an existing file would
then rewrite the sibling's bytes as well, so every writer, label stores
included, opens its output through ``open_new``: it creates the directory
when the path is new and replaces the file when it is not.
"""

from __future__ import annotations

import stat
from pathlib import Path
from typing import Union


def open_new(path: Union[str, Path], mode: str = "x", **kwargs):
    """Open a new file at ``path``: create its directory when the path is
    new, or remove the regular file there first.

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
        path.parent.mkdir(parents=True, exist_ok=True)
    return path.open(mode, **kwargs)
