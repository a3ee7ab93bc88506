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

# Windows per chunk of `evaluate_mae` and `evaluate_pck`: a chunk's forecast,
# truth and zero-velocity frames are scored and freed before the next chunk's
# rollout, so only per-window scores grow with the number of windows.
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
    """Pose frames (W, n_steps, d), a transposed view, continuing W seeds of
    pose frames (W, S+1, d), from one tape-free rollout over all of them.

    Raises NumericError at the first non-finite prediction, naming its window
    (counted from `first`) and step.
    """
    preds, _ = rollout_forward(model, seeds, n_steps, mode="eval", record=False)
    # integrated in the predictions' own buffer, so a forecast is held once
    np.cumsum(preds, axis=0, out=preds)
    preds += seeds[:, -1]
    frames = preds.transpose(1, 0, 2)
    bad = np.argwhere(~np.isfinite(frames).all(axis=2))
    if bad.size:
        raise NumericError(f"forecast: non-finite prediction in window "
                           f"{first + bad[0, 0]} at step {bad[0, 1]}")
    return frames


def forecast_window(model: Model, window: Window) -> PoseSequence:
    """Predicted future poses for one window (frames align with window.target)."""
    frames = forecast_frames(model, window.seed.frames[None], window.target.n_frames)[0]
    return PoseSequence(frames=frames, frame_interval_ms=window.seed.frame_interval_ms,
                        action=window.target.action)


def batched_forecast_poses(model: Model, windows: list[Window], first: int = 0) -> np.ndarray:
    """Predicted pose frames (W, n, d) for same-shape windows, from one
    tape-free rollout over all of them; a non-finite prediction names its
    window counted from `first`."""
    return forecast_frames(model, np.stack([w.seed.frames for w in windows]),
                           windows[0].target.n_frames, first)


def frame_interval(windows: list[Window]) -> float:
    """The frame interval (ms) all windows share; InputError if they do not."""
    intervals = sorted({w.target.frame_interval_ms for w in windows})
    if len(intervals) != 1:
        raise InputError(f"evaluation windows need one frame interval, got {intervals} ms")
    return intervals[0]


def _chunk_scores(model: Model | None, chunk: list[Window], first: int, score):
    """(model rows or None, zero-velocity rows) of score(frames, truth) over one
    chunk; truth and zero frames come after the rollout's peak and die on return."""
    preds = None if model is None else batched_forecast_poses(model, chunk, first)
    truth = np.stack([w.target.frames for w in chunk])
    zero = zero_velocity_forecast(np.stack([w.seed.frames[-1:] for w in chunk]),
                                  truth.shape[1])
    return None if preds is None else score(preds, truth), score(zero, truth)


def _scores(model: Model | None, windows: list[Window], score):
    """Per-window score rows of the model (None without one) and of the
    zero-velocity forecast, EVAL_CHUNK windows at a time."""
    model_rows, zero_rows = zip(*(_chunk_scores(model, windows[i:i + EVAL_CHUNK], i, score)
                                  for i in range(0, len(windows), EVAL_CHUNK)))
    return None if model is None else np.concatenate(model_rows), np.concatenate(zero_rows)


def evaluate_mae(model: Model | None, windows: list[Window],
                 horizons_ms) -> tuple[HorizonReport | None, HorizonReport]:
    """(model report or None, zero-velocity report) over the same windows,
    scored EVAL_CHUNK windows at a time into (W, H) errors."""
    ks = horizon_indices(horizons_ms, frame_interval(windows), windows[0].target.n_frames)
    errs, zero_errs = _scores(model, windows, lambda f, truth: angle_mae(f, truth, ks))
    actions = [w.target.action for w in windows]
    rep = None if errs is None else aggregate_reports(errs, horizons_ms, actions)
    return rep, aggregate_reports(zero_errs, horizons_ms, actions)


def evaluate_pck(model: Model, windows: list[Window], threshold: float = 0.05):
    """Mean PCK per future frame over windows, for the model and the
    zero-velocity baseline: (model scores, zero scores, skipped), where skipped
    counts the window frames left out because their ground-truth bounding box
    has zero size.  Windows are scored EVAL_CHUNK at a time into (W, n) rows."""
    frame_interval(windows)  # frame k must be one horizon in every window
    if windows[0].target.dim % 2 != 0:
        raise InputError(f"pck: dim {windows[0].target.dim} is not 2 * n_joints")
    scores_m, scores_z = _scores(model, windows, lambda f, truth: pck(f, truth, threshold))
    skipped = np.isnan(scores_z)  # a zero-size truth box: the same frames for both
    cnt = np.maximum(np.sum(~skipped, axis=0), 1)
    means = [(window_sum(np.nan_to_num(s)) / cnt).tolist() for s in (scores_m, scores_z)]
    return means[0], means[1], int(skipped.sum())
