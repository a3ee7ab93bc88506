import numpy as np
import pytest

from posecast.arch import ModelConfig, build_model
from posecast.errors import ConfigError, InputError
from posecast.evaluate import batched_forecast_poses, evaluate_mae, evaluate_pck
from posecast.metrics import (DEFAULT_HORIZONS_MS, aggregate_reports,
                              angle_mae, horizon_frame_index, horizon_indices, pck,
                              zero_velocity_forecast)
from posecast.posedata import PoseSequence, Window, make_windows, synth_multiscale


def seq(frames, interval=40.0, action=""):
    return PoseSequence(frames=np.array(frames, dtype=float),
                        frame_interval_ms=interval, action=action)


def windows_of(frames, interval=40.0, actions=None, seed_len=3):
    """Windows whose targets are frames (W, n, d), after seed_len seed frames."""
    frames = np.asarray(frames, dtype=float)
    actions = actions or [""] * len(frames)
    return [Window(seed=seq(np.zeros((seed_len, f.shape[1])), interval, a),
                   target=seq(f, interval, a))
            for f, a in zip(frames, actions)]


def mae(pred, truth, horizons):
    """(W, H) errors of (W, n, d) frames at horizons (ms, 40 ms frames)."""
    return angle_mae(pred, truth, horizon_indices(horizons, 40.0, truth.shape[1]))


def test_horizon_frame_index():
    assert horizon_frame_index(80, 40.0) == 1
    assert horizon_frame_index(1000, 40.0) == 24
    assert horizon_frame_index(40, 40.0) == 0
    with pytest.raises(ConfigError):
        horizon_frame_index(70, 40.0)
    with pytest.raises(ConfigError):
        horizon_frame_index(0, 40.0)


def test_horizon_indices():
    assert horizon_indices(DEFAULT_HORIZONS_MS, 40.0, 25) == [1, 3, 7, 9, 13, 24]
    assert horizon_indices((160, 40), 20.0, 8) == [7, 1]
    with pytest.raises(InputError, match="twice"):
        horizon_indices((40, 80, 40), 40.0, 25)
    with pytest.raises(InputError, match="beyond"):
        horizon_indices((80, 2000), 40.0, 25)
    with pytest.raises(InputError, match="beyond"):
        horizon_indices((1000,), 40.0, 24)
    with pytest.raises(ConfigError):
        horizon_indices((80, 70), 40.0, 25)


def test_angle_mae_identical_is_zero():
    p = np.random.default_rng(0).normal(size=(3, 25, 6))
    errors = mae(p, p, DEFAULT_HORIZONS_MS)
    assert errors.shape == (3, len(DEFAULT_HORIZONS_MS))
    assert np.all(errors == 0.0)


def test_angle_mae_hypotenuse():
    # constant (3, 4, 0, ...) offset at every frame -> error 5 at every horizon
    truth = np.zeros((2, 25, 5))
    offset = np.zeros((2, 25, 5))
    offset[..., 0] = 3.0
    offset[..., 1] = 4.0
    errors = mae(offset, truth, DEFAULT_HORIZONS_MS)
    assert errors == pytest.approx(np.full((2, 6), 5.0))


def test_angle_mae_symmetric():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 25, 4))
    b = rng.normal(size=(4, 25, 4))
    assert np.array_equal(mae(a, b, (80, 400)), mae(b, a, (80, 400)))


def test_angle_mae_translation_invariance():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 25, 4))
    b = rng.normal(size=(3, 25, 4))
    shift = rng.normal(size=4)
    assert mae(a + shift, b + shift, (80,)) == pytest.approx(mae(a, b, (80,)), abs=1e-12)


def test_angle_mae_errors():
    a = np.zeros((2, 25, 4))
    with pytest.raises(InputError):
        angle_mae(a, np.zeros((2, 25, 3)), [1])
    with pytest.raises(InputError):
        angle_mae(a, np.zeros((3, 25, 4)), [1])
    # windows at two frame intervals, listed in either order
    for intervals in ((40.0, 20.0), (20.0, 40.0)):
        mixed = [w for i in intervals for w in windows_of(a[:1], interval=i)]
        with pytest.raises(InputError, match="20.0, 40.0"):
            evaluate_mae(None, mixed, (80,))
    with pytest.raises(InputError):
        evaluate_mae(None, windows_of(a), (2000,))  # beyond window
    with pytest.raises(InputError):
        evaluate_mae(None, windows_of(a), (80, 80))  # given twice
    with pytest.raises(ConfigError):
        evaluate_mae(None, windows_of(a), (70,))
    with pytest.raises(InputError):
        evaluate_mae(None, [], (80,))


def test_zero_velocity_forecast_example():
    seeds = np.array([[[0, 0, 0], [1, 2, 3]], [[4, 5, 6], [7, 8, 9]]], dtype=float)
    zv = zero_velocity_forecast(seeds, 3)
    assert np.array_equal(zv, [[[1, 2, 3]] * 3, [[7, 8, 9]] * 3])
    with pytest.raises(InputError):
        zero_velocity_forecast(seeds, 0)
    with pytest.raises(InputError):
        zero_velocity_forecast(seeds[:, :0], 3)


def test_zero_velocity_mae_zero_on_constant_sequences():
    seqs = synth_multiscale(2, 80, 4, seed=0, amplitude_scale=0.0,
                            drift_scale=0.0)
    seeds = np.stack([s.frames[:50] for s in seqs])
    truth = np.stack([s.frames[50:75] for s in seqs])
    assert np.all(mae(zero_velocity_forecast(seeds, 25), truth, DEFAULT_HORIZONS_MS) == 0.0)


def test_aggregate_is_weighted_mean():
    # verified exactly on 3 toy windows
    errors = mae(np.array([[[1.0, 0.0]] * 2, [[3.0, 0.0]] * 2, [[5.0, 0.0]] * 2]),
                 np.zeros((3, 2, 2)), (40,))
    agg = aggregate_reports(errors, (40,), ["", "", ""])
    assert agg.errors[40] == pytest.approx(3.0)
    assert agg.n_windows == 3 and agg.per_action == {}
    with pytest.raises(InputError):
        aggregate_reports(errors[:0], (40,), [])


def test_aggregate_per_action_breakdown():
    errors = mae(np.array([[[2.0]] * 2, [[4.0]] * 2, [[9.0]] * 2]), np.zeros((3, 2, 1)),
                 (40,))
    agg = aggregate_reports(errors, (40,), ["walking", "walking", "eating"])
    errs, n = agg.per_action["walking"]
    assert errs[40] == pytest.approx(3.0) and n == 2
    errs, n = agg.per_action["eating"]
    assert errs[40] == pytest.approx(9.0) and n == 1


# ---------------------------------------------------------------------------
# PCK


def _spread_pose(n_joints=13):
    # joints on a line so the bounding box is well defined
    xs = np.linspace(0.0, 1.0, n_joints)
    ys = np.linspace(0.0, 0.5, n_joints)
    return np.stack([xs, ys], axis=1).reshape(-1)


def _pck1(pred_frames, truth_frames, threshold=0.05):
    """Per-frame scores of one window."""
    return pck(np.array([pred_frames]), np.array([truth_frames]), threshold)[0]


def test_pck_perfect_prediction():
    truth = np.array([[_spread_pose()] * 3] * 2)
    assert np.array_equal(pck(truth, truth, 0.05), np.full((2, 3), 100.0))


def test_pck_one_of_13_joints_displaced():
    pose = _spread_pose()
    pred_pose = pose.copy()
    pred_pose[0] += 0.5  # joint 0 moved far beyond threshold
    assert _pck1([pred_pose], [pose])[0] == pytest.approx(100.0 * 12 / 13)


def test_pck_boundary_is_strict():
    # all joints displaced by exactly threshold * normalizer -> 0.0; built
    # from binary fractions so every distance is exactly representable
    xs = np.arange(13) * 0.25
    pose = np.stack([xs, np.zeros(13)], axis=1)  # bbox max dim = 3.0
    threshold = 0.25
    pred = pose + np.array([threshold * 3.0, 0.0])
    assert _pck1([pred.reshape(-1)], [pose.reshape(-1)], threshold)[0] == 0.0
    # one representable notch inside the radius counts again (joint 0 sits
    # at the origin, so its displaced coordinate is stored exactly)
    pred2 = pose.copy()
    pred2[0, 0] = np.nextafter(threshold * 3.0, 0.0)
    assert _pck1([pred2.reshape(-1)], [pose.reshape(-1)], threshold)[0] == 100.0


def test_pck_degenerate_frame_skipped():
    coincident = np.zeros(26)
    frames = np.array([[coincident, _spread_pose()], [_spread_pose(), coincident]])
    scores = pck(frames, frames, 0.05)
    assert np.array_equal(np.isnan(scores), [[True, False], [False, True]])
    assert scores[0, 1] == scores[1, 0] == 100.0


def test_pck_monotone_in_threshold():
    rng = np.random.default_rng(5)
    truth = _spread_pose()
    pred = truth + rng.normal(scale=0.03, size=truth.shape)
    prev = -1.0
    for th in (0.01, 0.05, 0.1, 0.5):
        s = _pck1([pred], [truth], th)[0]
        assert s >= prev
        prev = s


def test_pck_input_validation():
    with pytest.raises(InputError):  # odd dim
        pck(np.zeros((1, 1, 27)), np.zeros((1, 1, 27)))
    with pytest.raises(InputError):
        pck(np.zeros((1, 1, 26)), np.zeros((1, 2, 26)))


# ---------------------------------------------------------------------------
# The batched scorers against the per-window formulas they replace


def ref_report(preds, truths, actions, horizons, interval=40.0):
    """(errors, per_action) scored one window at a time: one np.linalg.norm
    per 1-D frame difference, and window-by-window sums."""
    ks = [int(round(h / interval)) - 1 for h in horizons]
    rows = [{h: float(np.linalg.norm(p[k] - t[k])) for h, k in zip(horizons, ks)}
            for p, t in zip(preds, truths)]

    def means(sel):
        acc = {h: 0.0 for h in horizons}
        for r in sel:
            for h in horizons:
                acc[h] += r[h]
        return {h: acc[h] / len(sel) for h in horizons}

    per_action = {}
    for act in dict.fromkeys(actions):
        if act:
            sel = [r for r, a in zip(rows, actions) if a == act]
            per_action[act] = (means(sel), len(sel))
    return means(rows), per_action


def ref_pck(pred, truth, threshold):
    """Per-frame scores of one window, frame by frame (NaN: degenerate box)."""
    n_joints = truth.shape[1] // 2
    scores = []
    for p, t in zip(pred, truth):
        tj, pj = t.reshape(n_joints, 2), p.reshape(n_joints, 2)
        norm = float((tj.max(axis=0) - tj.min(axis=0)).max())
        if norm <= 0:
            scores.append(float("nan"))
            continue
        dists = np.linalg.norm(pj - tj, axis=1)
        scores.append(100.0 * float(np.count_nonzero(dists < threshold * norm)) / n_joints)
    return scores


def ref_pck_means(preds, zeros, truths, threshold):
    """(model means, zero means, skipped) accumulated window by window."""
    n = truths.shape[1]
    acc_m, acc_z, cnt, skipped = np.zeros(n), np.zeros(n), np.zeros(n), 0
    for p, z, t in zip(preds, zeros, truths):
        sm, sz = ref_pck(p, t, threshold), ref_pck(z, t, threshold)
        for k in range(n):
            if np.isnan(sm[k]) or np.isnan(sz[k]):
                skipped += 1
                continue
            acc_m[k] += sm[k]
            acc_z[k] += sz[k]
            cnt[k] += 1
    cnt = np.where(cnt > 0, cnt, 1.0)
    return (acc_m / cnt).tolist(), (acc_z / cnt).tolist(), skipped


def _tiny_model(d):
    return build_model(ModelConfig(variant="tp_rnn", d_v=d, granularity=2, levels=2,
                                   hidden=6, head1=5, head2=4, seed=3))


@pytest.mark.parametrize("horizons", [(80,), (40, 80, 120, 200, 280, 320)])
def test_batched_mae_equals_per_window_reference_bit_for_bit(horizons):
    rng = np.random.default_rng(7)
    W, n, d = 37, 8, 54
    truth = rng.normal(size=(W, n, d))
    pred = truth + rng.normal(scale=0.3, size=(W, n, d))
    pred[5] = truth[5]  # one exact window: zero errors
    actions = [("walking", "eating", "smoking")[i % 3] for i in range(W)]
    actions[11] = ""
    rep = aggregate_reports(mae(pred, truth, horizons), horizons, actions)
    errors, per_action = ref_report(pred, truth, actions, horizons)
    assert rep.errors == errors and rep.per_action == per_action
    assert rep.n_windows == W and rep.horizons_ms == horizons
    # evaluate_mae on windows: the same scorer on the model's batched forecast
    seqs = synth_multiscale(3, 40, 4, seed=2)
    for s, act in zip(seqs, ("walking", "", "eating")):
        s.action = act
    windows = [w for s in seqs for w in make_windows(s, 10, 8, stride=3)]
    model = _tiny_model(4)
    model_rep, zero_rep = evaluate_mae(model, windows, horizons)
    truths = np.stack([w.target.frames for w in windows])
    acts = [w.target.action for w in windows]
    got = {"model": model_rep, "zero": zero_rep}
    want = {"model": ref_report(batched_forecast_poses(model, windows), truths, acts,
                                horizons),
            "zero": ref_report([np.tile(w.seed.frames[-1], (8, 1)) for w in windows],
                               truths, acts, horizons)}
    for name in got:
        assert (got[name].errors, got[name].per_action) == want[name], name


def test_batched_pck_equals_per_window_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    seqs = [seq(rng.uniform(size=(30, 26))) for _ in range(2)]
    seqs[0].frames[18:22] = 0.5  # degenerate ground-truth boxes
    seqs[1].frames[25] = np.tile([0.1, 0.7], 13)
    windows = [w for s in seqs for w in make_windows(s, 8, 6, stride=2)]
    model = _tiny_model(26)
    threshold = 0.4
    got = evaluate_pck(model, windows, threshold)
    truths = np.stack([w.target.frames for w in windows])
    preds = batched_forecast_poses(model, windows)
    zeros = [np.tile(w.seed.frames[-1], (6, 1)) for w in windows]
    want = ref_pck_means(preds, zeros, truths, threshold)
    assert got[2] == want[2] > 0
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    # the per-window scores, NaN on the degenerate frames
    scores = pck(preds, truths, threshold)
    np.testing.assert_array_equal(scores, [ref_pck(p, t, threshold)
                                           for p, t in zip(preds, truths)])
