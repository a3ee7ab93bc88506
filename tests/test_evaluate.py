import tracemalloc

import numpy as np
import pytest

import posecast.evaluate as evaluate
from posecast.arch import ModelConfig, build_model
from posecast.errors import NumericError
from posecast.posedata import make_windows, synth_multiscale

HORIZONS = (40, 120, 200, 400)  # frames 0, 2, 4 and 9 of a 10-frame target


def _model(d=4, hidden=16):
    return build_model(ModelConfig(variant="tp_rnn", d_v=d, granularity=2, levels=3,
                                   hidden=hidden, head1=8, head2=4, seed=0))


def _windows(n_seq, length=60, d=4, stride=5):
    """Windows of 20+10 frames: 14 from two 60-frame sequences."""
    return [w for s in synth_multiscale(n_seq, length, d, seed=1)
            for w in make_windows(s, 20, 10, stride)]


def _reports(model, windows):
    return (evaluate.evaluate_mae(model, windows, HORIZONS),
            evaluate.evaluate_mae(None, windows, HORIZONS),
            evaluate.evaluate_pck(model, windows, threshold=0.3))


def test_chunked_scores_match_one_chunk_bit_for_bit(monkeypatch):
    # 14 windows in chunks of 4: three full chunks and a partial one.  Every
    # score is row-wise and the means run over all windows in window order,
    # so the chunk size moves no bit
    model, windows = _model(), _windows(2)
    whole = _reports(model, windows)
    monkeypatch.setattr(evaluate, "EVAL_CHUNK", 4)
    chunked = _reports(model, windows)
    assert repr(chunked) == repr(whole)
    assert chunked[2][0] != chunked[2][1]  # the model is not the baseline


def test_batched_predictions_match_single_windows():
    model, windows = _model(), _windows(2)
    got = evaluate.batched_forecast_poses(model, windows)
    assert got.shape == (len(windows), 10, 4)
    for w, pred in zip(windows, got):
        want = evaluate.forecast_window(model, w).frames
        assert np.max(np.abs(pred - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("score", [
    lambda model, windows: evaluate.evaluate_mae(model, windows, HORIZONS),
    lambda model, windows: evaluate.evaluate_pck(model, windows),
], ids=["mae", "pck"])
def test_scoring_memory_is_flat_in_the_number_of_windows(score):
    # one chunk's frames at a time: only the per-window scores grow with W.
    # Holding the (W, n, d) predictions, truth and zero-velocity frames whole
    # read 5.1x (mae) and 7.3x (pck)
    model = _model(d=54)
    seq = synth_multiscale(1, 2048 + 29, 54, seed=2)[0]
    windows = make_windows(seq, 20, 10, stride=1)
    assert len(windows) == 2048 == 8 * evaluate.EVAL_CHUNK
    peaks = [_traced_peak(lambda: score(model, windows[:n])) for n in (256, 2048)]
    assert peaks[1] <= 1.15 * peaks[0], peaks


def test_forecast_memory_is_bounded_by_its_values():
    # the predictions go into one (n_steps, B, d) array and are integrated
    # into poses in place.  A list of per-step (B, d) arrays stacked at the
    # end read 362 bytes per step for 24 of values; integrating into two
    # more arrays read 3.3x the values
    model = _model(d=3, hidden=4)
    n_steps = 10_000
    seeds = np.random.default_rng(0).normal(size=(1, 11, 3)) * 0.01
    peak = _traced_peak(lambda: evaluate.forecast_frames(model, seeds, n_steps))
    assert peak <= 1.5 * n_steps * 3 * 8, peak


def test_a_non_finite_window_is_named_across_chunks(monkeypatch):
    # window 6 is the third of the second chunk of 4; it alone turns
    # non-finite, as batch rows do not mix
    monkeypatch.setattr(evaluate, "EVAL_CHUNK", 4)
    model, windows = _model(), _windows(2)
    windows[6].seed.frames[-1, 0] = np.nan
    with pytest.raises(NumericError, match="window 6 at step 0"):
        evaluate.evaluate_mae(model, windows, HORIZONS)
    with pytest.raises(NumericError, match="window 6 at step 0"):
        evaluate.evaluate_pck(model, windows)
