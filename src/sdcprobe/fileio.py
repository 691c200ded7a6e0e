"""Atomic artifact writes shared by every module that persists files."""

from __future__ import annotations

import os


def atomic_write(path, data: str | bytes):
    """Write data to `<path>.tmp.<pid>`, then rename it over path.

    Readers see either the old file or the whole new one, never a partial
    write.  Text is encoded as UTF-8 and written without newline
    translation.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
