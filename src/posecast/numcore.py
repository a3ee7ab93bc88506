"""Minimal helpers: float64 casting, global-norm clipping, seeded RNG streams
and atomic file writes.

All arrays are plain numpy float64.  The layer code does its own affine maps
and activations inline (see layers.py).

Randomness: `seeded_rng(seed, *stream)` builds a PCG64 generator from
``SeedSequence(seed, spawn_key=stream)``.  Distinct stream tuples give
statistically independent, platform-stable streams, so each parameter
tensor can draw from its own reproducible stream.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "as_f64",
    "global_norm",
    "clip_global_norm",
    "seeded_rng",
    "atomic_file",
    "atomic_write_text",
]


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def global_norm(tensors) -> float:
    """l2 norm over the concatenation of all entries of all tensors."""
    total = 0.0
    for t in tensors:
        t = as_f64(t)
        total += float(np.sum(t * t))
    return float(np.sqrt(total))


def clip_global_norm(grads, max_norm: float):
    """Scale float64 grads in place so their joint l2 norm is at most max_norm.

    Returns (the same grads, pre-clip norm).  Grads at or below the bound are
    left unchanged.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    grads = list(grads)
    norm = global_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    for g in grads:
        g *= scale
    return grads, norm


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic PCG64 generator for (seed, stream...)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.PCG64(ss))


@contextmanager
def atomic_file(path):
    """A binary file opened as `<path>.tmp` and renamed onto `path` when the
    block ends, so `path` is either absent, the old file, or complete.  A
    failed write or rename removes `<path>.tmp` and re-raises."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str):
    """Write UTF-8 `text` to `path` through `atomic_file`."""
    with atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))
