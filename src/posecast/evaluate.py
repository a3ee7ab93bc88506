"""Window-level evaluation of trained models against the zero-velocity oracle."""

from __future__ import annotations

import numpy as np

from .arch import Model, rollout_forward
from .errors import InputError
from .metrics import (HorizonReport, aggregate_reports, angle_mae, pck,
                      zero_velocity_forecast)
from .posedata import PoseSequence, Window, make_windows, to_velocity

__all__ = [
    "collect_windows",
    "forecast_window",
    "batched_forecast_poses",
    "evaluate_mae",
    "evaluate_pck",
]


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


def forecast_window(model: Model, window: Window) -> PoseSequence:
    """Predicted future poses for one window (frames align with window.target)."""
    from .arch import forecast, observe
    seed_v = to_velocity(window.seed)
    bank, _, v_first = observe(model, seed_v, record=False)
    pred_v = forecast(model, bank, v_first, window.target.n_frames)
    frames = window.seed.frames[-1] + np.cumsum(pred_v.steps, axis=0)
    return PoseSequence(frames=frames, frame_interval_ms=window.seed.frame_interval_ms,
                        space=window.seed.space, action=window.target.action)


def batched_forecast_poses(model: Model, windows: list[Window]) -> np.ndarray:
    """Predicted pose frames (W, n, d) for many same-shape windows at once."""
    seeds = np.stack([w.seed.frames for w in windows])
    targets_len = windows[0].target.n_frames
    seed_vels = np.diff(seeds, axis=1)
    preds, _ = rollout_forward(model, seed_vels, seeds[:, 0], targets_len,
                               mode="eval")
    return seeds[:, -1][:, None, :] + np.cumsum(preds.transpose(1, 0, 2), axis=1)


def evaluate_mae(model: Model | None, windows: list[Window],
                 horizons_ms) -> tuple[HorizonReport | None, HorizonReport]:
    """(model report or None, zero-velocity report) over the same windows."""
    zero_reports = []
    model_reports = []
    pred_frames = batched_forecast_poses(model, windows) if model is not None else None
    for i, w in enumerate(windows):
        truth = PoseSequence(frames=w.target.frames,
                             frame_interval_ms=w.target.frame_interval_ms,
                             space=w.target.space, action=w.target.action)
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
    baseline; returns (model scores, zero scores), one value per future frame."""
    n = windows[0].target.n_frames
    acc_m = np.zeros(n)
    acc_z = np.zeros(n)
    cnt = np.zeros(n)
    pred_frames = batched_forecast_poses(model, windows)
    for i, w in enumerate(windows):
        truth = w.target
        pred = PoseSequence(frames=pred_frames[i],
                            frame_interval_ms=truth.frame_interval_ms,
                            space="planar_2d")
        zv = zero_velocity_forecast(w.seed, n)
        sm, _ = pck(pred, truth, threshold)
        sz, _ = pck(zv, truth, threshold)
        for k in range(n):
            if not np.isnan(sm[k]) and not np.isnan(sz[k]):
                acc_m[k] += sm[k]
                acc_z[k] += sz[k]
                cnt[k] += 1
    cnt = np.where(cnt > 0, cnt, 1.0)
    return (acc_m / cnt).tolist(), (acc_z / cnt).tolist()

