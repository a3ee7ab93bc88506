"""Pose data model, CSV ingestion, windowing, synthetic generator.

Poses are (T, D) float64 arrays wrapped in PoseSequence.  Its action label
rides along on windows for per-action reports, but the model is
action-agnostic by construction: the rollout engine takes bare frame arrays
only, which `TrainingData.sample_batch` and `evaluate.forecast_frames` cut
from the frames, never from a label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError, ParseError
from .numcore import as_f64, atomic_write_text, seeded_rng

__all__ = [
    "PoseSequence",
    "Window",
    "ManifestEntry",
    "DatasetManifest",
    "make_windows",
    "text_lines",
    "load_sequence",
    "save_sequence",
    "load_manifest",
    "load_split",
    "synth_multiscale",
    "FAST_PERIOD_BAND",
    "SLOW_PERIOD_BAND",
]

SPACES = ("angle_expmap", "planar_2d")


@dataclass
class PoseSequence:
    frames: np.ndarray  # (T, D)
    frame_interval_ms: float
    space: str = "angle_expmap"
    action: str = ""  # reporting only; never a model input

    def __post_init__(self):
        self.frames = as_f64(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise InputError(f"PoseSequence: frames must be (T>=1, D), got {self.frames.shape}")
        if not 0 < self.frame_interval_ms < math.inf:
            raise InputError("PoseSequence: frame_interval_ms must be finite and > 0, "
                             f"got {self.frame_interval_ms}")
        if self.space not in SPACES:
            raise InputError(f"PoseSequence: unknown space {self.space!r}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class Window:
    seed: PoseSequence    # observed slice; ends where target begins
    target: PoseSequence  # future slice


def make_windows(p: PoseSequence, seed_len: int, target_len: int,
                 stride: int) -> list[Window]:
    """All maximal contiguous (seed, target) windows at the given stride.
    Their frames are views of the sequence's, not copies.

    Seed and target keep the sequence's action label, for per-action reports;
    the model never reads it."""
    if seed_len < 2:
        raise InputError(f"make_windows: seed_len must be >= 2, got {seed_len}")
    if target_len < 1 or stride < 1:
        raise InputError("make_windows: target_len and stride must be >= 1")
    total = seed_len + target_len
    out = []
    for start in range(0, p.n_frames - total + 1, stride):
        seed = PoseSequence(frames=p.frames[start:start + seed_len],
                            frame_interval_ms=p.frame_interval_ms, space=p.space,
                            action=p.action)
        target = PoseSequence(frames=p.frames[start + seed_len:start + total],
                              frame_interval_ms=p.frame_interval_ms, space=p.space,
                              action=p.action)
        out.append(Window(seed=seed, target=target))
    return out


# ---------------------------------------------------------------------------
# File formats
#
# Sequence file: UTF-8 CSV, one frame per line, D decimal floats, no header.
# Manifest: UTF-8 text, one entry per line `path,split,action,dim,interval_ms`,
# plus an optional `mask=i,j,...` footer naming the kept dimensions.


def text_lines(path, comments: bool = True):
    """(line number, stripped line) of each non-blank line of the UTF-8 text file
    `path`, read line by line, skipping `#` lines if `comments` (manifests and
    configs have them, sequence CSVs do not).  ParseError naming `path` if the
    file is missing or at its first byte that is not UTF-8."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line and not (comments and line.startswith("#")):
                    yield lineno, line
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None


def load_sequence(path, expected_dim: int | None = None,
                  frame_interval_ms: float = 1.0, space: str = "angle_expmap",
                  action: str = "") -> PoseSequence:
    path = Path(path)
    rows = []
    dim = expected_dim
    for lineno, line in text_lines(path, comments=False):
        parts = line.split(",")
        if dim is None:
            dim = len(parts)
        if len(parts) != dim:
            raise ParseError(f"{path}:{lineno}: expected {dim} columns, got {len(parts)}")
        try:
            row = [float(s) for s in parts]
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
        if not all(math.isfinite(x) for x in row):
            raise ParseError(f"{path}:{lineno}: non-finite value")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: empty sequence file")
    return PoseSequence(frames=np.array(rows), frame_interval_ms=frame_interval_ms,
                        space=space, action=action)


def save_sequence(path, p: PoseSequence):
    path = Path(path)
    lines = [",".join(repr(float(x)) for x in row) for row in p.frames]
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass
class ManifestEntry:
    path: str
    split: str  # train | test
    action: str
    dim: int
    interval_ms: float


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    mask: list[int] | None = None  # kept dimension indices
    base_dir: Path = field(default_factory=Path)

    @property
    def dim(self) -> int:
        d = self.entries[0].dim
        return len(self.mask) if self.mask is not None else d

    def train_entries(self):
        return [e for e in self.entries if e.split == "train"]

    def test_entries(self):
        return [e for e in self.entries if e.split == "test"]


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    entries, linenos = [], []
    mask, mask_lineno = None, None
    for lineno, line in text_lines(path):
        if line.startswith("mask="):
            try:
                line_mask = [int(s) for s in line[len("mask="):].split(",")]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad mask line") from None
            seen = set()
            for i in line_mask:
                if i in seen:
                    raise ParseError(f"{path}:{lineno}: mask index {i} appears twice")
                seen.add(i)
            if mask is not None:
                raise ParseError(f"{path}:{lineno}: second mask line (the first is "
                                 f"line {mask_lineno})")
            mask, mask_lineno = line_mask, lineno
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ParseError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        p, split, action, dim_s, interval_s = [s.strip() for s in parts]
        if split not in ("train", "test"):
            raise ParseError(f"{path}:{lineno}: split must be train|test, got {split!r}")
        try:
            dim = int(dim_s)
            interval = float(interval_s)
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from None
        if not 0 < interval < math.inf:
            raise ParseError(f"{path}:{lineno}: interval_ms must be finite and > 0, "
                             f"got {interval_s!r}")
        entries.append(ManifestEntry(path=p, split=split, action=action,
                                     dim=dim, interval_ms=interval))
        linenos.append(lineno)
    if not entries:
        raise ParseError(f"{path}: manifest lists no sequences")
    # a mask cuts every entry down to len(mask) dims; without one they must agree
    for lineno, e in zip(linenos, entries) if mask is None else ():
        if e.dim != entries[0].dim:
            raise ParseError(f"{path}:{lineno}: dim {e.dim} differs from the first "
                             f"entry's dim {entries[0].dim}")
    for e in entries if mask is not None else ():
        bad = [i for i in mask if not 0 <= i < e.dim]
        if bad:
            raise ParseError(f"{path}: mask index {bad[0]} out of range for "
                             f"{e.path} (dim {e.dim})")
    return DatasetManifest(entries=entries, mask=mask, base_dir=path.parent)


def _load_entry(m: DatasetManifest, e: ManifestEntry, space: str) -> PoseSequence:
    p = Path(e.path)
    if not p.is_absolute():
        p = m.base_dir / p
    seq = load_sequence(p, expected_dim=e.dim, frame_interval_ms=e.interval_ms,
                        space=space, action=e.action)
    if m.mask is not None:
        # np.take, unlike `frames[:, mask]`, returns a fresh C-ordered array
        seq = PoseSequence(frames=np.take(seq.frames, m.mask, axis=1),
                           frame_interval_ms=seq.frame_interval_ms,
                           space=seq.space, action=seq.action)
    return seq


def load_split(m: DatasetManifest, split: str,
               space: str = "angle_expmap") -> list[PoseSequence]:
    """Load and mask every sequence in the given split."""
    if split not in ("train", "test"):
        raise InputError(f"load_split: split must be train|test, got {split!r}")
    entries = m.train_entries() if split == "train" else m.test_entries()
    return [_load_entry(m, e, space) for e in entries]


# ---------------------------------------------------------------------------
# Synthetic multi-scale generator

FAST_PERIOD_BAND = (4.0, 8.0)
SLOW_PERIOD_BAND = (32.0, 64.0)
# Values per generated dataset (n_seq * length * d) or CLI forecast (n_steps
# * d): 1 GB of float64, far above any the tests or the benchmark make.  A
# typo such as a length of 10**12 is an input error, not a MemoryError.
MAX_SYNTH_VALUES = 2 ** 27


def _draw_dim_params(rng: np.random.Generator, d: int, drift_scale: float):
    """Per-dimension (amplitude, period, phase, drift); even dims fast, odd slow."""
    amps = rng.uniform(0.5, 1.5, size=d)
    periods = np.empty(d)
    for j in range(d):
        band = FAST_PERIOD_BAND if j % 2 == 0 else SLOW_PERIOD_BAND
        periods[j] = rng.uniform(*band)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=d)
    drifts = rng.uniform(-drift_scale, drift_scale, size=d)
    return amps, periods, phases, drifts


def synth_multiscale(n_seq: int, length: int, d: int, seed: int,
                     frame_interval_ms: float = 40.0,
                     drift_scale: float = 0.01,
                     amplitude_scale: float = 1.0) -> list[PoseSequence]:
    """Sinusoid-plus-drift sequences with genuinely two-band temporal structure.

    Dimension j follows a_j*sin(2*pi*t/T_j + phi_j) + drift_j*t with T_j drawn
    from the fast band (4-8 steps) for even j and the slow band (32-64 steps)
    for odd j.  Fully deterministic given the seed.
    """
    if d < 2:
        raise InputError(f"synth_multiscale: d must be >= 2, got {d}")
    if n_seq < 1 or length < 2:
        raise InputError("synth_multiscale: need n_seq >= 1 and length >= 2")
    if n_seq * length * d > MAX_SYNTH_VALUES:
        raise InputError(f"synth_multiscale: n_seq * length * d must be at most "
                         f"{MAX_SYNTH_VALUES}, got {n_seq * length * d}")
    out = []
    t = np.arange(length)[:, None]
    for i in range(n_seq):
        rng = seeded_rng(seed, i)
        amps, periods, phases, drifts = _draw_dim_params(rng, d, drift_scale)
        frames = (amplitude_scale * amps * np.sin(2.0 * math.pi * t / periods + phases)
                  + drifts * t)
        out.append(PoseSequence(frames=frames, frame_interval_ms=frame_interval_ms,
                                space="angle_expmap"))
    return out
