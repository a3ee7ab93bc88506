"""Flat binary checkpoint format with a human-readable sidecar manifest.

Layout (all integers little-endian):

    magic     8 bytes  b"PCASTCK\\n"
    version   u32      currently 1
    meta_len  u64      length of the UTF-8 JSON meta block
    meta      bytes    JSON object (config, iteration, rng state, ...)
    n_tensors u32
    per tensor:
        name_len u16, name UTF-8 bytes
        ndim     u8,  dims as u64 each
        data     row-major float64 little-endian

Round-trips are bit-exact.  The sidecar `<path>.manifest.txt` lists the
format version, meta keys, and tensor shapes for human inspection.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ParseError

MAGIC = b"PCASTCK\n"
VERSION = 1

__all__ = ["save_checkpoint", "load_checkpoint", "MAGIC", "VERSION"]


def save_checkpoint(path, meta: dict, tensors: list[tuple[str, np.ndarray]]):
    """Write meta + named float64 tensors; atomic (write temp, rename).

    Tensor data is streamed from the arrays to the file, so saving adds no
    copy of the parameters to memory (beyond casting a non-float64 or
    non-contiguous tensor).
    """
    path = Path(path)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQ", VERSION, len(meta_bytes)) + meta_bytes
                 + struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            arr = np.ascontiguousarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(nb)}sB{arr.ndim}Q", len(nb), nb, arr.ndim,
                                 *arr.shape))
            fh.write(memoryview(arr))
    tmp.replace(path)

    lines = [f"format: posecast checkpoint v{VERSION}",
             f"meta keys: {', '.join(sorted(meta))}"]
    for name, arr in tensors:
        lines.append(f"tensor {name}: shape {tuple(np.asarray(arr).shape)} float64")
    side = path.with_name(path.name + ".manifest.txt")
    side_tmp = side.with_name(side.name + ".tmp")
    side_tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    side_tmp.replace(side)


class _Reader:
    def __init__(self, buf: bytes, path: Path):
        self.buf = buf
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise ParseError(f"{self.path}: truncated checkpoint")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def load_checkpoint(path):
    """Returns (meta dict, ordered dict name -> float64 array)."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    r = _Reader(path.read_bytes(), path)
    if r.take(len(MAGIC)) != MAGIC:
        raise ParseError(f"{path}: not a posecast checkpoint (bad magic)")
    version = r.unpack("<I")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    meta_len = r.unpack("<Q")
    try:
        meta = json.loads(r.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"{path}: bad meta block: {e}") from None
    n = r.unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n):
        name_len = r.unpack("<H")
        name = r.take(name_len).decode("utf-8")
        ndim = r.unpack("<B")
        shape = tuple(r.unpack("<Q") for _ in range(ndim))
        count = 1
        for d in shape:
            count *= d
        data = np.frombuffer(r.take(count * 8), dtype="<f8").reshape(shape)
        tensors[name] = data.astype(np.float64).copy()
    return meta, tensors
