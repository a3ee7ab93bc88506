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

A posecast model checkpoint lists its tensors in `Model.theta` order (see
`arch.param_layout`): each level's `cell<m>.W` and `cell<m>.b`, then the
head's `head.W1` .. `head.b3`.  A training checkpoint of an Adam run follows
them with the first moments under the same names prefixed `opt.m.`, then
the second moments prefixed `opt.v.`; `train._checkpoint_layout` lists them.

Round-trips are bit-exact.  The sidecar `<path>.manifest.txt` lists the
format version, meta keys, and tensor shapes for human inspection.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError
from .numcore import atomic_file, atomic_write_text

MAGIC = b"PCASTCK\n"
VERSION = 1

__all__ = ["save_checkpoint", "load_checkpoint", "MAGIC", "VERSION"]


def save_checkpoint(path, meta: dict, tensors: list[tuple[str, np.ndarray]]):
    """Write meta + named float64 tensors, atomically (`numcore.atomic_file`).

    Tensor data is streamed from the arrays to the file, so saving adds no
    copy of the parameters to memory (beyond casting a non-float64 or
    non-contiguous tensor).
    """
    path = Path(path)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    with atomic_file(path) as fh:
        fh.write(MAGIC + struct.pack("<IQ", VERSION, len(meta_bytes)) + meta_bytes
                 + struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            arr = np.ascontiguousarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(nb)}sB{arr.ndim}Q", len(nb), nb, arr.ndim,
                                 *arr.shape))
            fh.write(memoryview(arr))

    lines = [f"format: posecast checkpoint v{VERSION}",
             f"meta keys: {', '.join(sorted(meta))}"]
    for name, arr in tensors:
        lines.append(f"tensor {name}: shape {tuple(np.asarray(arr).shape)} float64")
    atomic_write_text(path.with_name(path.name + ".manifest.txt"), "\n".join(lines) + "\n")


class _Reader:
    """A checkpoint file's fields in order; each size is checked against the
    bytes left in the file before anything is read or allocated for it."""

    def __init__(self, fh, path: Path):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size
        self.path = path

    def _claim(self, n: int):
        if n > self.left:
            raise ParseError(f"{self.path}: truncated checkpoint")
        self.left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.fh.read(n)
        if len(out) != n:  # the file shrank while being read
            raise ParseError(f"{self.path}: truncated checkpoint")
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def skip_array(self, shape: tuple[int, ...]) -> int:
        """Claims the data of a float64 array of `shape` and seeks past it;
        returns where it starts."""
        size = math.prod(shape)
        self._claim(8 * size)
        if size == 0:  # the data fits any file, but numpy caps each dimension
            try:
                np.empty(shape)
            except ValueError:
                raise ParseError(f"{self.path}: bad tensor shape {shape}") from None
        return self.fh.seek(8 * size, os.SEEK_CUR) - 8 * size


def load_checkpoint(path, into=None):
    """Returns (meta dict, ordered dict name -> float64 array).

    The file is read in two passes.  The first reads the meta block and each
    tensor's header, and claims its data against the rest of the file, so a
    size the file cannot hold raises ParseError("truncated"); a tensor name
    that appears twice, a bad shape or any byte after the last tensor raises
    ParseError too.  Only then are the tensors allocated, and the second pass
    reads each one's data straight into its array: a load holds one copy.

    `into(meta, [(name, shape), ...])`, given the tensors in file order,
    returns the arrays to read them into (one C-contiguous, writeable float64
    array of each shape, else ShapeError), or raises to reject the file.
    Without it each tensor gets a fresh array.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    with open(path, "rb") as fh:
        r = _Reader(fh, path)
        if r.take(len(MAGIC)) != MAGIC:
            raise ParseError(f"{path}: not a posecast checkpoint (bad magic)")
        version = r.unpack("<I")
        if version != VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        meta_len = r.unpack("<Q")
        try:
            meta = json.loads(r.take(meta_len).decode("utf-8"))
        except ValueError as e:  # not UTF-8, not JSON, or an integer of too many digits
            raise ParseError(f"{path}: bad meta block: {e}") from None
        n = r.unpack("<I")
        headers, starts = [], {}
        for _ in range(n):
            name_len = r.unpack("<H")
            try:
                name = r.take(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}: bad tensor name") from None
            if name in starts:
                raise ParseError(f"{path}: tensor {name!r} appears twice")
            ndim = r.unpack("<B")
            shape = tuple(r.unpack("<Q") for _ in range(ndim))
            headers.append((name, shape))
            starts[name] = r.skip_array(shape)
        if r.left:
            raise ParseError(f"{path}: {r.left} trailing bytes after the last tensor")
        arrays = ([np.empty(shape) for _, shape in headers] if into is None
                  else list(into(meta, headers)))
        if len(arrays) != n or not all(
                isinstance(out, np.ndarray) and out.dtype == np.float64
                and out.shape == shape and out.flags.carray
                for (_, shape), out in zip(headers, arrays)):
            raise ShapeError("load_checkpoint: into must give one C-contiguous, writeable "
                             "float64 array of each tensor's shape")
        for start, out in zip(starts.values(), arrays):
            fh.seek(start)
            if fh.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:  # the file shrank
                raise ParseError(f"{path}: truncated checkpoint")
            if sys.byteorder == "big":  # the data is little-endian on disk
                out.byteswap(inplace=True)
    return meta, dict(zip(starts, arrays))
