"""Window-level evaluation of trained models against the zero-velocity oracle."""

from __future__ import annotations

import numpy as np

from .arch import Model, rollout_forward
from .errors import InputError, NumericError
from .metrics import (HorizonReport, aggregate_reports, angle_mae, horizon_indices,
                      pck, window_sum, zero_velocity_forecast)
from .posedata import PoseSequence, Window, make_windows

__all__ = [
    "collect_windows",
    "forecast_frames",
    "forecast_window",
    "batched_forecast_poses",
    "frame_interval",
    "evaluate_mae",
    "evaluate_pck",
]

# Windows per batched rollout in `batched_forecast_poses`.
EVAL_CHUNK = 256


def collect_windows(sequences: list[PoseSequence], seed_len: int,
                    target_len: int) -> list[Window]:
    """Evaluation windows over all sequences, at a stride of the target
    length, so evaluation clips do not overlap in the future.  Each window's
    frames are views of its sequence's."""
    windows = []
    for s in sequences:
        windows.extend(make_windows(s, seed_len, target_len, target_len))
    if not windows:
        raise InputError("no evaluation windows: sequences shorter than "
                         f"{seed_len}+{target_len} frames")
    return windows


def forecast_frames(model: Model, seeds: np.ndarray, n_steps: int,
                    first: int = 0) -> np.ndarray:
    """Pose frames (W, n_steps, d) continuing W seeds of pose frames (W, S+1, d),
    from one tape-free rollout over all of them.

    Raises NumericError at the first non-finite prediction, naming its window
    (counted from `first`) and step.
    """
    preds, _ = rollout_forward(model, np.diff(seeds, axis=1), seeds[:, 0], n_steps,
                               mode="eval", record=False)
    frames = seeds[:, -1][:, None, :] + np.cumsum(preds.transpose(1, 0, 2), axis=1)
    bad = np.argwhere(~np.isfinite(frames).all(axis=2))
    if bad.size:
        raise NumericError(f"forecast: non-finite prediction in window "
                           f"{first + bad[0, 0]} at step {bad[0, 1]}")
    return frames


def forecast_window(model: Model, window: Window) -> PoseSequence:
    """Predicted future poses for one window (frames align with window.target)."""
    frames = forecast_frames(model, window.seed.frames[None], window.target.n_frames)[0]
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
        frames = forecast_frames(model, np.stack([w.seed.frames for w in chunk]),
                                 windows[0].target.n_frames, first=i)
        if len(chunk) == len(windows):
            return frames
        if out is None:
            out = np.empty((len(windows), *frames.shape[1:]))
        out[i:i + len(chunk)] = frames
    return out


def frame_interval(windows: list[Window]) -> float:
    """The frame interval (ms) all windows share; InputError if they do not."""
    intervals = sorted({w.target.frame_interval_ms for w in windows})
    if len(intervals) != 1:
        raise InputError(f"evaluation windows need one frame interval, got {intervals} ms")
    return intervals[0]


def _truth_and_zero(windows: list[Window]) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth frames (W, n, d) and the zero-velocity forecast of them.
    Built after the model's rollout, they stay out of its memory peak."""
    truth = np.stack([w.target.frames for w in windows])
    last = np.stack([w.seed.frames[-1:] for w in windows])
    return truth, zero_velocity_forecast(last, truth.shape[1])


def evaluate_mae(model: Model | None, windows: list[Window],
                 horizons_ms) -> tuple[HorizonReport | None, HorizonReport]:
    """(model report or None, zero-velocity report) over the same windows."""
    ks = horizon_indices(horizons_ms, frame_interval(windows), windows[0].target.n_frames)
    preds = None if model is None else batched_forecast_poses(model, windows)
    truth, zero = _truth_and_zero(windows)
    actions = [w.target.action for w in windows]
    zero_rep = aggregate_reports(angle_mae(zero, truth, ks), horizons_ms, actions)
    if preds is None:
        return None, zero_rep
    return aggregate_reports(angle_mae(preds, truth, ks), horizons_ms, actions), zero_rep


def evaluate_pck(model: Model, windows: list[Window], threshold: float = 0.05):
    """Mean PCK per future frame over windows, for the model and the
    zero-velocity baseline: (model scores, zero scores, skipped), where skipped
    counts the window frames left out because their ground-truth bounding box
    has zero size."""
    if {w.target.space for w in windows} != {"planar_2d"}:
        raise InputError("pck: sequences must be planar_2d")
    frame_interval(windows)  # frame k must be one horizon in every window
    if windows[0].target.dim % 2 != 0:
        raise InputError(f"pck: dim {windows[0].target.dim} is not 2 * n_joints")
    preds = batched_forecast_poses(model, windows)
    truth, zero = _truth_and_zero(windows)
    scores_m = pck(preds, truth, threshold)
    scores_z = pck(zero, truth, threshold)
    skipped = np.isnan(scores_z)  # a zero-size truth box: the same frames for both
    cnt = np.maximum(np.sum(~skipped, axis=0), 1)
    means = [(window_sum(np.nan_to_num(s)) / cnt).tolist() for s in (scores_m, scores_z)]
    return means[0], means[1], int(skipped.sum())
