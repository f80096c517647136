"""Single-file binary container for named parameter tensors.

Layout: magic ``LXML``, format version (u32 LE), then a run of records until
EOF.  Each record is a length-prefixed UTF-8 name, a u32 rank, u32 dims, and
the values as little-endian float32.  SWA running means are stored under the
raw parameter name suffixed ``.swa``.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ParseError

MAGIC = b"LXML"
FORMAT_VERSION = 1


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open ``path`` for writing under a temporary name that replaces it when
    the block ends, so a reader sees the old file or the whole new one.  If
    the block raises, the temporary file goes and ``path`` stays as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write records sorted by name (keeps identical states byte-identical), atomically."""
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype="<f4", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.reshape(-1).data)


def _read(fh, n: int, path, size: int) -> bytes:
    """The next ``n`` bytes of ``fh``, checked against the file's ``size``
    first, so a damaged length allocates nothing."""
    pos = fh.tell()
    if pos + n > size:
        raise ParseError(f"{path}: truncated checkpoint record at byte {pos}")
    return fh.read(n)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Every record of a checkpoint, each read from the file straight into its
    own array; a short, damaged or repeated record is a ParseError naming its byte."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise ParseError(f"{path}: not a checkpoint (bad magic {magic!r})")
        (version,) = struct.unpack("<I", _read(fh, 4, path, size))
        if version != FORMAT_VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        while (start := fh.tell()) < size:
            (name_len,) = struct.unpack("<I", _read(fh, 4, path, size))
            pos = fh.tell()
            try:
                name = _read(fh, name_len, path, size).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: truncated checkpoint record at byte {pos}") from exc
            if name in out:
                raise ParseError(f"{path}: record {name!r} at byte {start} repeats an earlier one")
            (ndim,) = struct.unpack("<I", _read(fh, 4, path, size))
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, path, size))
            pos = fh.tell()
            if pos + 4 * math.prod(shape) > size:  # checked before the array is allocated
                raise ParseError(f"{path}: truncated checkpoint record at byte {pos}")
            out[name] = np.empty(shape, dtype="<f4")
            fh.readinto(out[name])
    return out
