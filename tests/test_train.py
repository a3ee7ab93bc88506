import numpy as np
import pytest

from posecast.arch import ModelConfig, build_model
from posecast.errors import ConfigError, InputError, NumericError, ShapeError
from posecast.posedata import PoseSequence, Window, synth_multiscale
from posecast.train import (AdamState, TrainConfig, TrainingData, adam_step,
                            load_model_checkpoint, lr_at, rollout_loss,
                            rollout_loss_batch, save_model_checkpoint,
                            sgd_step, train_loop, write_trace)


def tiny_model(variant="tp_rnn", levels=2, d_v=3, seed=0, **kw):
    return build_model(ModelConfig(variant=variant, d_v=d_v, granularity=2,
                                   levels=levels, hidden=4, head1=5, head2=4,
                                   seed=seed, **kw))


def zero_params(model):
    model.set_flat(np.zeros(model.n_params))
    return model


def window(frames, seed_len):
    frames = np.asarray(frames, dtype=float)
    seed = PoseSequence(frames=frames[:seed_len], frame_interval_ms=40.0)
    target = PoseSequence(frames=frames[seed_len:], frame_interval_ms=40.0)
    return Window(seed=seed, target=target)


# ---------------------------------------------------------------------------
# schedule and optimizer steps


def test_lr_at_examples():
    cfg = TrainConfig()
    assert lr_at(cfg, 0) == 0.01
    assert lr_at(cfg, 1999) == 0.01
    assert lr_at(cfg, 2000) == pytest.approx(0.0095)
    assert lr_at(cfg, 4000) == pytest.approx(0.01 * 0.95 ** 2)
    with pytest.raises(InputError):
        lr_at(cfg, -1)


def test_sgd_step_example():
    out = sgd_step([np.array([1.0])], [np.array([0.5])], 0.1)
    assert out[0][0] == pytest.approx(0.95)


def test_sgd_zero_grads_identity():
    p = [np.array([1.0, -2.0])]
    out = sgd_step(p, [np.zeros(2)], 0.1)
    assert np.array_equal(out[0], p[0])


def test_sgd_shape_mismatch():
    with pytest.raises(ShapeError):
        sgd_step([np.zeros(2)], [np.zeros(3)], 0.1)
    with pytest.raises(ShapeError):
        sgd_step([np.zeros(2)], [], 0.1)


def test_adam_first_step_is_signed_lr():
    params = [np.array([1.0, -1.0, 2.0])]
    grads = [np.array([0.3, -0.7, 1e-3])]
    state = AdamState.zeros_like(params)
    out, _ = adam_step(params, grads, state, lr=0.01, t=1)
    update = out[0] - params[0]
    assert np.allclose(update, -0.01 * np.sign(grads[0]), atol=1e-6)


def test_adam_zero_grads_identity():
    params = [np.array([1.0, 2.0])]
    state = AdamState.zeros_like(params)
    out, state = adam_step(params, [np.zeros(2)], state, lr=0.01, t=1)
    assert np.array_equal(out[0], params[0])


def test_adam_moments_accumulate():
    params = [np.array([0.0])]
    state = AdamState.zeros_like(params)
    g = [np.array([1.0])]
    _, state = adam_step(params, g, state, lr=0.01, t=1)
    assert state.m[0][0] == pytest.approx(0.1)
    assert state.v[0][0] == pytest.approx(0.001)


# ---------------------------------------------------------------------------
# rollout loss


def test_zero_model_constant_window_loss_zero():
    model = zero_params(tiny_model())
    w = window(np.tile([1.0, 2.0, 3.0], (15, 1)), seed_len=10)
    loss, grads = rollout_loss(model, w, TrainConfig())
    assert loss == 0.0


def test_zero_model_unit_drift_loss_is_mean_1_to_n():
    # future drifts by unit steps in one dim; zero model repeats the last
    # pose, so per-frame error is k and the mean is (1 + ... + n)/n
    model = zero_params(tiny_model())
    n = 5
    frames = np.zeros((10 + n, 3))
    frames[:, 0] = np.concatenate([np.zeros(10), np.arange(1, n + 1)])
    loss, _ = rollout_loss(model, window(frames, 10), TrainConfig())
    assert loss == pytest.approx(np.mean(np.arange(1, n + 1)))


def test_zero_model_velocity_loss_on_drift():
    # same drift window in velocity space: every step's velocity error is 1
    model = zero_params(tiny_model())
    frames = np.zeros((15, 3))
    frames[:, 0] = np.concatenate([np.zeros(10), np.arange(1, 6)])
    cfg = TrainConfig(loss_space="velocity")
    loss, _ = rollout_loss(model, window(frames, 10), cfg)
    assert loss == pytest.approx(1.0)


def test_loss_nonnegative_and_zero_iff_exact():
    model = tiny_model(seed=3)
    seqs = synth_multiscale(1, 20, 3, seed=5)
    loss, _ = rollout_loss(model, window(seqs[0].frames, 12), TrainConfig())
    assert loss > 0.0


def test_batch_gradient_is_mean_of_per_window_gradients():
    model = tiny_model(seed=1)
    seqs = synth_multiscale(3, 18, 3, seed=9)
    seeds = np.stack([s.frames[:12] for s in seqs])
    targets = np.stack([s.frames[12:] for s in seqs])
    cfg = TrainConfig()
    _, batch_grads = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
    per = []
    for i in range(3):
        _, g = rollout_loss_batch(model, seeds[i:i + 1], targets[i:i + 1],
                                  cfg, mode="eval")
        per.append(g.flatten())
    assert np.allclose(batch_grads.flatten(), np.mean(per, axis=0), atol=1e-12)


@pytest.mark.parametrize("variant,levels,loss_space", [
    ("single_layer_vel", 1, "pose"),
    ("single_layer_pose", 1, "pose"),
    ("stacked2_vel", 2, "pose"),
    ("double_scale_vel", 2, "pose"),
    ("double_scale_hier_vel", 2, "pose"),
    ("double_scale_phase_vel", 2, "pose"),
    ("tp_rnn", 2, "velocity"),
])
def test_rollout_gradients_match_fd_all_variants(variant, levels, loss_space):
    # float64 central differences carry an absolute noise floor around 1e-10
    # at eps=1e-5, so entries pass on either a relative or absolute criterion;
    # the flagship variant additionally gets the extended-precision check in
    # the acceptance suite
    model = build_model(ModelConfig(variant=variant, d_v=3, granularity=2,
                                    levels=levels, hidden=4, head1=5, head2=4,
                                    seed=11))
    seqs = synth_multiscale(1, 14, 3, seed=31)
    seeds = seqs[0].frames[None, :8]
    targets = seqs[0].frames[None, 8:12]
    cfg = TrainConfig(loss_space=loss_space)
    _, grads = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
    ga = grads.flatten()
    theta0 = model.flatten()
    eps = 1e-5
    worst = 0.0
    for k in range(theta0.size):
        theta = theta0.copy()
        theta[k] = theta0[k] + eps
        model.set_flat(theta)
        fp, _ = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
        theta[k] = theta0[k] - eps
        model.set_flat(theta)
        fm, _ = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
        gfd = (fp - fm) / (2 * eps)
        if abs(ga[k] - gfd) <= 1e-8:
            continue
        rel = abs(ga[k] - gfd) / max(abs(ga[k]), abs(gfd), 1e-8)
        if rel > 1e-5:
            # a leaky_relu kink within eps of a preactivation makes the
            # wide central difference invalid; re-probe at a smaller step
            theta[k] = theta0[k] + 1e-6
            model.set_flat(theta)
            fp, _ = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
            theta[k] = theta0[k] - 1e-6
            model.set_flat(theta)
            fm, _ = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
            gfd = (fp - fm) / 2e-6
            rel = abs(ga[k] - gfd) / max(abs(ga[k]), abs(gfd), 1e-8)
            if abs(ga[k] - gfd) <= 1e-7:
                continue
        worst = max(worst, rel)
    model.set_flat(theta0)
    assert worst < 1e-5, worst


# ---------------------------------------------------------------------------
# TrainingData


def test_training_data_window_enumeration():
    seqs = synth_multiscale(2, 20, 3, seed=0)
    data = TrainingData(sequences=seqs, seed_len=10, target_len=5)
    assert len(data.starts) == 2 * (20 - 15 + 1)
    seeds, targets = data.sample_batch(np.random.default_rng(0), 4)
    assert seeds.shape == (4, 10, 3)
    assert targets.shape == (4, 5, 3)


def test_training_data_errors():
    seqs = synth_multiscale(1, 10, 3, seed=0)
    with pytest.raises(InputError):
        TrainingData(sequences=seqs, seed_len=10, target_len=5)
    mixed = synth_multiscale(1, 30, 3, seed=0) + synth_multiscale(1, 30, 4, seed=0)
    with pytest.raises(InputError):
        TrainingData(sequences=mixed, seed_len=5, target_len=3)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="rmsprop").validate()
    with pytest.raises(ConfigError):
        TrainConfig(loss_space="joint").validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr0=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(decay_factor=0.0).validate()
    cfg = TrainConfig()
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# the loop


def _toy_setup(seed=0, iterations=30, optimizer="sgd"):
    seqs = synth_multiscale(3, 40, 3, seed=2)
    data = TrainingData(sequences=seqs, seed_len=8, target_len=4)
    model = tiny_model(seed=seed)
    cfg = TrainConfig(batch_size=4, iterations=iterations, seed=seed,
                      seed_len=8, target_len=4, optimizer=optimizer)
    return model, data, cfg


def test_train_loop_deterministic(tmp_path):
    traces = []
    blobs = []
    for run in ("a", "b"):
        model, data, cfg = _toy_setup()
        model, trace, paths = train_loop(model, data, cfg,
                                         out_dir=tmp_path / run)
        traces.append(trace)
        blobs.append((tmp_path / run / "checkpoint_final.bin").read_bytes())
    assert traces[0] == traces[1]
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_resume_reproduces_uninterrupted_run(tmp_path, optimizer):
    model, data, cfg = _toy_setup(iterations=30, optimizer=optimizer)
    cfg.checkpoint_every = 10
    model, trace_full, _ = train_loop(model, data, cfg,
                                      out_dir=tmp_path / "full")

    model2, data2, cfg2 = _toy_setup(iterations=30, optimizer=optimizer)
    cfg2.checkpoint_every = 10
    train_loop(model2, data2, cfg2, out_dir=tmp_path / "part")
    mid = tmp_path / "part" / "checkpoint_00000010.bin"
    model3, meta, adam = load_model_checkpoint(mid)
    assert meta["iteration"] == 10
    if optimizer == "adam":
        assert adam is not None
    model3, trace_tail, _ = train_loop(
        model3, data2, TrainConfig.from_dict(meta["train_config"]),
        out_dir=tmp_path / "resumed", start_iteration=10,
        rng_state=meta["rng_state"], adam=adam)
    assert trace_tail == trace_full[10:]
    full = (tmp_path / "full" / "checkpoint_final.bin").read_bytes()
    resumed = (tmp_path / "resumed" / "checkpoint_final.bin").read_bytes()
    assert full == resumed


def test_divergence_aborts_with_checkpoint(tmp_path):
    model, data, cfg = _toy_setup(iterations=10)
    model.set_flat(np.full(model.n_params, 1e200))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="diverged at iteration"):
            train_loop(model, data, cfg, out_dir=tmp_path)
    assert (tmp_path / "checkpoint_abort.bin").exists()


def test_nonfinite_gradient_aborts_with_last_finite_params(tmp_path, monkeypatch):
    # a finite loss with an infinite gradient entry: clipping would scale by
    # 0 and write inf * 0 = NaN into the parameters
    import posecast.train as train_mod

    model, data, cfg = _toy_setup(iterations=10)
    real = train_mod.rollout_loss_batch
    calls = []
    before = {}

    def poisoned(model_, *args, **kwargs):
        loss, grads = real(model_, *args, **kwargs)
        calls.append(loss)
        if len(calls) == 3:
            before["theta"] = model_.flatten().copy()
            grads.cells[0].dW[0, 0] = np.inf
        return loss, grads

    monkeypatch.setattr(train_mod, "rollout_loss_batch", poisoned)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="diverged at iteration 2"):
            train_loop(model, data, cfg, out_dir=tmp_path)
    assert np.isfinite(calls[-1])
    saved, meta, _ = load_model_checkpoint(tmp_path / "checkpoint_abort.bin")
    assert meta["iteration"] == 2
    theta = saved.flatten()
    assert np.all(np.isfinite(theta))
    assert np.array_equal(theta, before["theta"])


def test_write_trace_format(tmp_path):
    write_trace(tmp_path / "t.csv", [(0, 1.5, 0.01), (1, 1.25, 0.01)])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "0,1.5,0.01"
    assert len(lines) == 2


def test_model_checkpoint_roundtrip(tmp_path):
    model = tiny_model(seed=4)
    save_model_checkpoint(tmp_path / "m.bin", model, iteration=3)
    loaded, meta, adam = load_model_checkpoint(tmp_path / "m.bin")
    assert adam is None
    assert meta["iteration"] == 3
    assert np.array_equal(loaded.flatten(), model.flatten())
    assert loaded.config == model.config


# ---------------------------------------------------------------------------
# desk-scale learning behavior (slow; fixtures frozen from tuning runs)


def test_loss_halves_in_2000_iterations():
    seqs = synth_multiscale(6, 100, 4, seed=13)
    data = TrainingData(sequences=seqs, seed_len=10, target_len=5)
    model = build_model(ModelConfig(variant="single_layer_vel", d_v=4,
                                    levels=1, hidden=16, head1=16, head2=8,
                                    seed=0))
    cfg = TrainConfig(batch_size=16, iterations=2000, lr0=0.05, seed=0,
                      seed_len=10, target_len=5)
    model, trace, _ = train_loop(model, data, cfg)
    assert trace[-1][1] < 0.5 * trace[0][1]


def test_trained_model_reproduces_fast_period():
    # a two-level hierarchy trained on drift-free two-band sines recovers
    # the fast dimension's period within 10% over a 25-step forecast
    from posecast.arch import forecast, observe
    from posecast.posedata import to_velocity

    seqs = synth_multiscale(6, 120, 2, seed=17, drift_scale=0.0)
    data = TrainingData(sequences=seqs, seed_len=16, target_len=8)
    model = build_model(ModelConfig(variant="tp_rnn", d_v=2, granularity=2,
                                    levels=2, hidden=16, head1=16, head2=8,
                                    seed=0))
    cfg = TrainConfig(batch_size=16, iterations=3000, optimizer="adam",
                      lr0=0.002, seed=0, seed_len=16, target_len=8)
    model, _, _ = train_loop(model, data, cfg)

    held_out = synth_multiscale(8, 120, 2, seed=99, drift_scale=0.0)[7]
    seed_p = PoseSequence(frames=held_out.frames[:40], frame_interval_ms=40.0)
    bank, _, v0 = observe(model, to_velocity(seed_p))
    pred = forecast(model, bank, v0, 25)
    frames = seed_p.frames[-1] + np.cumsum(pred.steps, axis=0)
    truth = held_out.frames[40:65]

    def dominant_period(x):
        spec = np.abs(np.fft.rfft(x - x.mean(), n=256))
        return 256.0 / (spec[1:].argmax() + 1)

    p_truth = dominant_period(truth[:, 0])
    p_pred = dominant_period(frames[:, 0])
    assert abs(p_pred - p_truth) / p_truth < 0.10
