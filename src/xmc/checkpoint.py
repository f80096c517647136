"""Single-file binary container for named parameter tensors.

Layout: magic ``LXML``, format version (u32 LE), then a run of records until
EOF.  Each record is a length-prefixed UTF-8 name, a u32 rank, u32 dims, and
the values as little-endian float32.  SWA running means are stored under the
raw parameter name suffixed ``.swa``.
"""

from __future__ import annotations

import contextlib
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


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ParseError(f"{path}: not a checkpoint (bad magic {blob[:4]!r})")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    pos = 8
    while pos < len(blob):
        try:
            (name_len,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            name = blob[pos : pos + name_len].decode("utf-8")
            pos += name_len
            (ndim,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            shape = struct.unpack_from(f"<{ndim}I", blob, pos)
            pos += 4 * ndim
            count = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=pos).reshape(shape)
            pos += 4 * count
        except (struct.error, ValueError) as exc:
            raise ParseError(f"{path}: truncated checkpoint record at byte {pos}") from exc
        out[name] = arr.copy()
    return out
