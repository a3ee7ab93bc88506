"""Window-level evaluation of trained models against the zero-velocity oracle."""

from __future__ import annotations

import numpy as np

from .arch import Model, rollout_forward
from .errors import InputError, NumericError
from .metrics import (HorizonReport, aggregate_reports, angle_mae, pck,
                      zero_velocity_forecast)
from .posedata import PoseSequence, Window, make_windows

__all__ = [
    "collect_windows",
    "forecast_seed",
    "forecast_window",
    "batched_forecast_poses",
    "evaluate_mae",
    "evaluate_pck",
]

# Windows per batched rollout in `batched_forecast_poses`.
EVAL_CHUNK = 256


def collect_windows(sequences: list[PoseSequence], seed_len: int,
                    target_len: int, stride: int | None = None) -> list[Window]:
    """Fixed-stride evaluation windows over all sequences (default stride:
    the target length, so evaluation clips do not overlap in the future)."""
    stride = target_len if stride is None else stride
    windows = []
    for s in sequences:
        windows.extend(make_windows(s, seed_len, target_len, stride))
    if not windows:
        raise InputError("no evaluation windows: sequences shorter than "
                         f"{seed_len}+{target_len} frames")
    return windows


def _forecast_poses(model: Model, seeds: np.ndarray, n_steps: int) -> np.ndarray:
    """Pose frames (W, n_steps, d) continuing W seeds of pose frames (W, S+1, d),
    from one tape-free rollout over all of them."""
    preds, _ = rollout_forward(model, np.diff(seeds, axis=1), seeds[:, 0], n_steps,
                               mode="eval", record=False)
    return seeds[:, -1][:, None, :] + np.cumsum(preds.transpose(1, 0, 2), axis=1)


def forecast_seed(model: Model, seed_frames: np.ndarray, n_steps: int) -> np.ndarray:
    """Predicted pose frames (n_steps, d) after one seed of pose frames (S+1, d).

    Raises NumericError at the first non-finite prediction.
    """
    frames = _forecast_poses(model, seed_frames[None], n_steps)[0]
    bad = np.flatnonzero(~np.isfinite(frames).all(axis=1))
    if bad.size:
        raise NumericError(f"forecast: non-finite prediction at step {bad[0]}")
    return frames


def forecast_window(model: Model, window: Window) -> PoseSequence:
    """Predicted future poses for one window (frames align with window.target)."""
    frames = forecast_seed(model, window.seed.frames, window.target.n_frames)
    return PoseSequence(frames=frames, frame_interval_ms=window.seed.frame_interval_ms,
                        space=window.seed.space, action=window.target.action)


def batched_forecast_poses(model: Model, windows: list[Window]) -> np.ndarray:
    """Predicted pose frames (W, n, d) for many same-shape windows.

    Windows run EVAL_CHUNK at a time, so the working memory does not grow with
    the number of windows.  With more than one chunk, the frames go into one
    output allocated after the first chunk's rollout, outside its peak.
    """
    out = None
    for i in range(0, len(windows), EVAL_CHUNK):
        chunk = windows[i:i + EVAL_CHUNK]
        frames = _forecast_poses(model, np.stack([w.seed.frames for w in chunk]),
                                 windows[0].target.n_frames)
        if len(chunk) == len(windows):
            return frames
        if out is None:
            out = np.empty((len(windows), *frames.shape[1:]))
        out[i:i + len(chunk)] = frames
    return out


def evaluate_mae(model: Model | None, windows: list[Window],
                 horizons_ms) -> tuple[HorizonReport | None, HorizonReport]:
    """(model report or None, zero-velocity report) over the same windows."""
    zero_reports = []
    model_reports = []
    pred_frames = batched_forecast_poses(model, windows) if model is not None else None
    for i, w in enumerate(windows):
        truth = w.target
        zv = zero_velocity_forecast(w.seed, w.target.n_frames)
        zero_reports.append(angle_mae(zv, truth, horizons_ms))
        if pred_frames is not None:
            pred = PoseSequence(frames=pred_frames[i],
                                frame_interval_ms=truth.frame_interval_ms,
                                space=truth.space)
            model_reports.append(angle_mae(pred, truth, horizons_ms))
    model_rep = aggregate_reports(model_reports) if model_reports else None
    return model_rep, aggregate_reports(zero_reports)


def evaluate_pck(model: Model, windows: list[Window], threshold: float = 0.05):
    """Mean per-frame PCK over windows for the model and the zero-velocity
    baseline.

    Returns (model scores, zero scores, skipped), one score per future frame;
    skipped counts the window frames left out of the means because their
    ground-truth bounding box has zero size.
    """
    n = windows[0].target.n_frames
    acc_m = np.zeros(n)
    acc_z = np.zeros(n)
    cnt = np.zeros(n)
    skipped = 0
    pred_frames = batched_forecast_poses(model, windows)
    for i, w in enumerate(windows):
        truth = w.target
        pred = PoseSequence(frames=pred_frames[i],
                            frame_interval_ms=truth.frame_interval_ms,
                            space="planar_2d")
        zv = zero_velocity_forecast(w.seed, n)
        sm, skipped_frames = pck(pred, truth, threshold)
        sz, _ = pck(zv, truth, threshold)
        skipped += len(skipped_frames)
        for k in range(n):
            if not np.isnan(sm[k]) and not np.isnan(sz[k]):
                acc_m[k] += sm[k]
                acc_z[k] += sz[k]
                cnt[k] += 1
    cnt = np.where(cnt > 0, cnt, 1.0)
    return (acc_m / cnt).tolist(), (acc_z / cnt).tolist(), skipped

