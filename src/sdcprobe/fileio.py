"""File helpers shared by every module that persists or parses artifacts:
atomic writes, one reader for the text formats and one bounds-checked
reader for the binary formats."""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DataFormatError


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


def read_text(path) -> str:
    """The whole file as UTF-8 text, newlines untranslated; bytes that are
    not UTF-8 raise DataFormatError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None


class Reader:
    """Cursor over the whole content of one binary file.

    Every read is bounds-checked: a short read, undecodable text or
    trailing bytes raise DataFormatError naming the file, the field being
    read and its offset.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.buf = fh.read()
        self.offset = 0

    def fail(self, message):
        return DataFormatError(f"{self.path}: {message}")

    def _advance(self, n, what):
        """Offset of the next n bytes, which the cursor then moves past."""
        if self.offset + n > len(self.buf):
            raise self.fail(f"truncated file: needed {n} bytes for {what} at offset "
                            f"{self.offset}, have {len(self.buf) - self.offset}")
        self.offset += n
        return self.offset - n

    def take(self, n, what):
        start = self._advance(n, what)
        return self.buf[start:start + n]

    def array(self, dtype, count, what):
        """count values of dtype as a read-only view of the file's bytes."""
        dtype = np.dtype(dtype)
        start = self._advance(dtype.itemsize * count, what)
        return np.frombuffer(self.buf, dtype=dtype, count=count, offset=start)

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def u32(self, what):
        """One little-endian unsigned 32-bit integer."""
        return self.unpack("<I", what)[0]

    def ascii(self, n, what):
        raw = self.take(n, what)
        try:
            return raw.decode("ascii")
        except UnicodeDecodeError:
            raise self.fail(f"{what} at offset {self.offset - n} is not ASCII") from None

    def f32_array(self, count, shape, what):
        """count little-endian float32 values as a writable array of shape."""
        return self.array("<f4", count, what).reshape(shape).astype(np.float32)

    def finish(self):
        if self.offset != len(self.buf):
            raise self.fail(f"trailing bytes at offset {self.offset}")
