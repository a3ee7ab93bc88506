import tracemalloc

import numpy as np
import pytest

import posecast.evaluate as evaluate
from posecast.arch import ModelConfig, build_model
from posecast.errors import NumericError
from posecast.posedata import make_windows, synth_multiscale


def _model():
    return build_model(ModelConfig(variant="tp_rnn", d_v=3, granularity=2, levels=3,
                                   hidden=16, head1=8, head2=4, seed=0))


def _windows(n_seq):
    return [w for s in synth_multiscale(n_seq, 60, 3, seed=1)
            for w in make_windows(s, 20, 10, stride=5)]


def test_chunked_predictions_match_single_windows(monkeypatch):
    # 14 windows in chunks of 4: three full chunks and a partial one
    monkeypatch.setattr(evaluate, "EVAL_CHUNK", 4)
    model, windows = _model(), _windows(2)
    got = evaluate.batched_forecast_poses(model, windows)
    assert got.shape == (len(windows), 10, 3)
    for w, pred in zip(windows, got):
        want = evaluate.forecast_window(model, w).frames
        assert np.max(np.abs(pred - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_working_memory_is_flat_in_the_number_of_windows(monkeypatch):
    # beyond the (W, n, d) output, memory holds one chunk whatever W is
    monkeypatch.setattr(evaluate, "EVAL_CHUNK", 8)
    model = _model()
    working = []
    for n_seq in (2, 16):  # 14 and 112 windows
        windows = _windows(n_seq)
        tracemalloc.start()
        try:
            out = evaluate.batched_forecast_poses(model, windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        working.append(peak - out.nbytes)
    assert working[1] < 1.2 * working[0], working


def test_a_non_finite_window_is_named_across_chunks(monkeypatch):
    # window 6 is the third of the second chunk of 4; it alone turns
    # non-finite, as batch rows do not mix
    monkeypatch.setattr(evaluate, "EVAL_CHUNK", 4)
    model, windows = _model(), _windows(2)
    windows[6].seed.frames[-1, 0] = np.nan
    with pytest.raises(NumericError, match="window 6 at step 0"):
        evaluate.batched_forecast_poses(model, windows)
