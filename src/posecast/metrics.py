"""Evaluation metrics: angle-space MAE at fixed horizons, PCK, zero-velocity.

Every function scores all W windows at once, on (W, n, d) frame arrays.

The horizon error is the plain Euclidean distance between the full
predicted and ground-truth pose vectors at that future frame, averaged
over all evaluated windows.  Horizons are wall-clock milliseconds and must
land on frame boundaries; `horizon_indices` resolves them to frame indices
once, before any scoring.  Means over windows are summed in window order.

PCK normalizer note: the per-frame normalizer is the max dimension of the
ground-truth joint bounding box.  Published PCK numbers depend on the
normalizer convention, so absolute cross-paper comparisons should be made
with care.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

__all__ = [
    "DEFAULT_HORIZONS_MS",
    "HorizonReport",
    "horizon_frame_index",
    "horizon_indices",
    "angle_mae",
    "aggregate_reports",
    "window_sum",
    "zero_velocity_forecast",
    "pck",
]

DEFAULT_HORIZONS_MS = (80, 160, 320, 400, 560, 1000)


@dataclass
class HorizonReport:
    horizons_ms: tuple
    errors: dict  # horizon ms -> mean error
    n_windows: int
    per_action: dict = field(default_factory=dict)  # action -> (errors dict, n)


def horizon_frame_index(horizon_ms: float, frame_interval_ms: float) -> int:
    """0-based future-frame index for a horizon; must be a frame boundary.
    A positive horizon too many frames out for a float lies past every
    target: InputError."""
    try:
        k = horizon_ms / frame_interval_ms
        off_grid = abs(k - round(k)) > 1e-9 or round(k) < 1
    except OverflowError:  # the frame count, or the horizon itself, is not a finite float
        if horizon_ms > 0:
            raise InputError(f"horizon {horizon_ms} ms is beyond every window at "
                             f"{frame_interval_ms:g} ms") from None
        off_grid = True
    if off_grid:
        raise ConfigError(
            f"horizon {horizon_ms} ms is not a positive multiple of the "
            f"frame interval {frame_interval_ms} ms")
    return int(round(k)) - 1


def horizon_indices(horizons_ms, interval_ms: float, n_frames: int) -> list[int]:
    """Future-frame indices of the horizons in an n_frames target; a horizon
    past the target or given twice is an InputError."""
    ks = [horizon_frame_index(hz, interval_ms) for hz in horizons_ms]
    if len(set(ks)) < len(ks):
        raise InputError(f"horizons {list(horizons_ms)} ms: one is given twice")
    if max(ks, default=0) >= n_frames:
        raise InputError(f"horizons {list(horizons_ms)} ms: one is beyond the "
                         f"{n_frames}-frame window at {interval_ms:g} ms")
    return ks


def window_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over windows (axis 0), one by one in order; `ndarray.sum` may go pairwise."""
    return np.cumsum(rows, axis=0)[-1]


def angle_mae(pred: np.ndarray, truth: np.ndarray, ks) -> np.ndarray:
    """Euclidean pose errors (W, H) at future-frame indices ks of (W, n, d)
    predicted and ground-truth frames."""
    if pred.shape != truth.shape or pred.ndim != 3:
        raise InputError(f"angle_mae: pred {pred.shape} vs truth {truth.shape}")
    diff = pred[:, ks] - truth[:, ks]
    # one dot product per row: the bits of np.linalg.norm on that row alone
    return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])


def aggregate_reports(errors: np.ndarray, horizons_ms, actions) -> HorizonReport:
    """The report of per-window errors (W, H): the mean over all windows at
    each horizon, and per non-empty action label its mean and window count."""
    if len(errors) == 0:
        raise InputError("aggregate_reports: no windows")
    actions = np.asarray(actions)

    def means(rows):
        return dict(zip(horizons_ms, (window_sum(rows) / len(rows)).tolist()))

    per_action = {act: (means(errors[actions == act]), int(np.sum(actions == act)))
                  for act in np.unique(actions).tolist() if act}
    return HorizonReport(horizons_ms=tuple(horizons_ms), errors=means(errors),
                         n_windows=len(errors), per_action=per_action)


def zero_velocity_forecast(seeds: np.ndarray, n_steps: int) -> np.ndarray:
    """Frames (W, n_steps, d) repeating the last pose of each seed (W, S, d)."""
    if seeds.shape[1] < 1 or n_steps < 1:
        raise InputError(f"zero_velocity_forecast: needs a seed frame and n_steps >= 1, "
                         f"got seeds {seeds.shape} and n_steps {n_steps}")
    return np.repeat(seeds[:, -1:], n_steps, axis=1)


def pck(pred: np.ndarray, truth: np.ndarray, threshold: float = 0.05) -> np.ndarray:
    """Percentage of correct 2D keypoints per frame (W, n) of (W, n, d) frames.

    A joint is correct when its Euclidean distance to the ground truth is
    strictly less than threshold times the frame normalizer (max dimension
    of the ground-truth joint bounding box).  A frame whose bounding box has
    zero size is skipped: its score is NaN.
    """
    if pred.shape != truth.shape or pred.ndim != 3:
        raise InputError(f"pck: pred {pred.shape} vs truth {truth.shape}")
    if pred.shape[2] % 2 != 0:
        raise InputError(f"pck: dim {pred.shape[2]} is not 2 * n_joints")
    n_joints = pred.shape[2] // 2
    tj = truth.reshape(*truth.shape[:2], n_joints, 2)
    pj = pred.reshape(tj.shape)
    norm = (tj.max(axis=2) - tj.min(axis=2)).max(axis=2)
    dists = np.linalg.norm(pj - tj, axis=3)
    hits = np.count_nonzero(dists < threshold * norm[..., None], axis=2)
    return np.where(norm <= 0, np.nan, 100.0 * hits / n_joints)
