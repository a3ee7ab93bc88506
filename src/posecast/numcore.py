"""Minimal float64 helpers: casting, global-norm clipping, seeded RNG streams.

All arrays are plain numpy float64.  The layer code does its own affine maps
and activations inline (see layers.py).

Randomness: `seeded_rng(seed, *stream)` builds a PCG64 generator from
``SeedSequence(seed, spawn_key=stream)``.  Distinct stream tuples give
statistically independent, platform-stable streams, so each parameter
tensor can draw from its own reproducible stream.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_f64",
    "global_norm",
    "clip_global_norm",
    "seeded_rng",
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
    """Scale all grads so their joint l2 norm is at most max_norm.

    Returns (scaled grads, pre-clip norm).  Grads at or below the bound are
    returned unchanged (same objects).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    grads = list(grads)
    norm = global_norm(grads)
    if norm <= max_norm or norm == 0.0:
        return grads, norm
    scale = max_norm / norm
    return [as_f64(g) * scale for g in grads], norm


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic PCG64 generator for (seed, stream...)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream))
    return np.random.Generator(np.random.PCG64(ss))
