import json
import re
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, fields, replace

import numpy as np
import pytest

from posecast.arch import ModelConfig, build_model
from posecast.checkpoint import MAGIC, VERSION
from posecast.errors import ConfigError, InputError, NumericError, ParseError, ShapeError
from posecast.posedata import PoseSequence, synth_multiscale
from posecast.train import (MAX_BATCH_SIZE, AdamState, TrainConfig, TrainingData,
                            adam_step, load_model_checkpoint, lr_at,
                            rollout_loss_batch, save_model_checkpoint,
                            save_train_checkpoint, sgd_step,
                            train_loop, write_trace)


def tiny_model(variant="tp_rnn", levels=2, d_v=3, seed=0, **kw):
    return build_model(ModelConfig(variant=variant, d_v=d_v, granularity=2,
                                   levels=levels, hidden=4, head1=5, head2=4,
                                   seed=seed, **kw))


def zero_params(model):
    model.theta[:] = 0.0
    return model


def window(frames, seed_len):
    """One window as a batch of one: (seed (1, S, d), target (1, n, d))."""
    frames = np.asarray(frames, dtype=float)
    return frames[None, :seed_len], frames[None, seed_len:]


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
    theta = np.array([1.0])
    out = sgd_step(theta, np.array([0.5]), 0.1)
    assert out is theta
    assert theta[0] == pytest.approx(0.95)


def test_sgd_zero_grads_identity():
    p = np.array([1.0, -2.0])
    out = sgd_step(p.copy(), np.zeros(2), 0.1)
    assert np.array_equal(out, p)


def test_sgd_shape_mismatch():
    with pytest.raises(ShapeError):
        sgd_step(np.zeros(2), np.zeros(3), 0.1)
    with pytest.raises(ShapeError):
        sgd_step(np.zeros((2, 1)), np.zeros((2, 1)), 0.1)


def test_adam_first_step_is_signed_lr():
    params = np.array([1.0, -1.0, 2.0])
    grads = np.array([0.3, -0.7, 1e-3])
    theta = params.copy()
    adam_step(theta, grads, AdamState.zeros_like(theta), lr=0.01, t=1)
    update = theta - params
    assert np.allclose(update, -0.01 * np.sign(grads), atol=1e-6)


def test_adam_zero_grads_identity():
    params = np.array([1.0, 2.0])
    out = adam_step(params.copy(), np.zeros(2), AdamState.zeros_like(params),
                    lr=0.01, t=1)
    assert np.array_equal(out, params)


def test_adam_moments_accumulate():
    theta = np.array([0.0])
    state = AdamState.zeros_like(theta)
    adam_step(theta, np.array([1.0]), state, lr=0.01, t=1)
    assert state.m[0] == pytest.approx(0.1)
    assert state.v[0] == pytest.approx(0.001)


# ---------------------------------------------------------------------------
# rollout loss


def test_zero_model_constant_window_loss_zero():
    model = zero_params(tiny_model())
    w = window(np.tile([1.0, 2.0, 3.0], (15, 1)), seed_len=10)
    loss, grads = rollout_loss_batch(model, *w, TrainConfig())
    assert loss == 0.0


def test_zero_model_unit_drift_loss_is_mean_1_to_n():
    # future drifts by unit steps in one dim; zero model repeats the last
    # pose, so per-frame error is k and the mean is (1 + ... + n)/n
    model = zero_params(tiny_model())
    n = 5
    frames = np.zeros((10 + n, 3))
    frames[:, 0] = np.concatenate([np.zeros(10), np.arange(1, n + 1)])
    loss, _ = rollout_loss_batch(model, *window(frames, 10), TrainConfig())
    assert loss == pytest.approx(np.mean(np.arange(1, n + 1)))


def test_zero_model_velocity_loss_on_drift():
    # same drift window in velocity space: every step's velocity error is 1
    model = zero_params(tiny_model())
    frames = np.zeros((15, 3))
    frames[:, 0] = np.concatenate([np.zeros(10), np.arange(1, 6)])
    cfg = TrainConfig(loss_space="velocity")
    loss, _ = rollout_loss_batch(model, *window(frames, 10), cfg)
    assert loss == pytest.approx(1.0)


def test_loss_nonnegative_and_zero_iff_exact():
    model = tiny_model(seed=3)
    seqs = synth_multiscale(1, 20, 3, seed=5)
    loss, _ = rollout_loss_batch(model, *window(seqs[0].frames, 12), TrainConfig())
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
        per.append(g)
    assert np.allclose(batch_grads, np.mean(per, axis=0), atol=1e-12)


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
    _, ga = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
    theta0 = model.theta.copy()
    eps = 1e-5
    worst = 0.0
    for k in range(theta0.size):
        theta = theta0.copy()
        theta[k] = theta0[k] + eps
        model.theta[:] = theta
        fp, _ = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
        theta[k] = theta0[k] - eps
        model.theta[:] = theta
        fm, _ = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
        gfd = (fp - fm) / (2 * eps)
        if abs(ga[k] - gfd) <= 1e-8:
            continue
        rel = abs(ga[k] - gfd) / max(abs(ga[k]), abs(gfd), 1e-8)
        if rel > 1e-5:
            # a leaky_relu kink within eps of a preactivation makes the
            # wide central difference invalid; re-probe at a smaller step
            theta[k] = theta0[k] + 1e-6
            model.theta[:] = theta
            fp, _ = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
            theta[k] = theta0[k] - 1e-6
            model.theta[:] = theta
            fm, _ = rollout_loss_batch(model, seeds, targets, cfg, mode="eval")
            gfd = (fp - fm) / 2e-6
            rel = abs(ga[k] - gfd) / max(abs(ga[k]), abs(gfd), 1e-8)
            if abs(ga[k] - gfd) <= 1e-7:
                continue
        worst = max(worst, rel)
    model.theta[:] = theta0
    assert worst < 1e-5, worst


# ---------------------------------------------------------------------------
# TrainingData


def test_training_data_window_enumeration():
    seqs = synth_multiscale(2, 20, 3, seed=0)
    data = TrainingData(sequences=seqs, seed_len=10, target_len=5)
    assert data.first[-1] == 2 * (20 - 15 + 1)
    seeds, targets = data.sample_batch(np.random.default_rng(0), 4)
    assert seeds.shape == (4, 10, 3)
    assert targets.shape == (4, 5, 3)


def test_sample_batch_draws_the_batches_of_a_list_of_starts():
    # sequences of uneven lengths, two too short for a window: the same draws
    # pick the same windows as one (sequence, start) pair per window start
    seqs = [synth_multiscale(1, n, 3, seed=n)[0] for n in (20, 7, 31, 15, 3, 16)]
    data = TrainingData(sequences=seqs, seed_len=10, target_len=5)
    starts = [(i, st) for i, s in enumerate(seqs) for st in range(s.n_frames - 15 + 1)]
    assert data.first[-1] == len(starts) == 6 + 17 + 1 + 2
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    seeds, targets = data.sample_batch(rng, 1000)
    idx = rng_ref.integers(0, len(starts), size=1000)
    assert set(idx) == set(range(len(starts)))  # every window, first and last included
    windows = np.stack([seqs[i].frames[st:st + 15] for i, st in (starts[k] for k in idx)])
    assert np.array_equal(seeds, windows[:, :10]) and np.array_equal(targets, windows[:, 10:])
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_training_data_errors():
    seqs = synth_multiscale(1, 10, 3, seed=0)
    with pytest.raises(InputError):
        TrainingData(sequences=seqs, seed_len=10, target_len=5)
    mixed = synth_multiscale(1, 30, 3, seed=0) + synth_multiscale(1, 30, 4, seed=0)
    with pytest.raises(InputError):
        TrainingData(sequences=mixed, seed_len=5, target_len=3)
    two_intervals = (synth_multiscale(1, 30, 3, seed=0, frame_interval_ms=30.0)
                     + synth_multiscale(1, 30, 3, seed=1))
    with pytest.raises(InputError, match=r"\[30.0, 40.0\]"):
        TrainingData(sequences=two_intervals, seed_len=5, target_len=3)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    assert TrainConfig(batch_size=MAX_BATCH_SIZE).validate()
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(batch_size=MAX_BATCH_SIZE + 1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="rmsprop").validate()
    with pytest.raises(ConfigError):
        TrainConfig(loss_space="joint").validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr0=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(decay_factor=0.0).validate()
    # Adam's betas may be 0 and clip_norm infinite (no clipping); the values
    # validate rejects are exercised through the CLI in tests/test_cli.py
    assert TrainConfig(adam_beta1=0.0, adam_beta2=0.0, clip_norm=float("inf")).validate()
    cfg = TrainConfig()
    assert TrainConfig(**asdict(cfg)) == cfg


@pytest.mark.parametrize("name, value", [
    ("batch_size", 16.0), ("batch_size", True), ("iterations", "100"),
    ("seed", np.int64(0)), ("decay_every", np.int32(2000)), ("optimizer", None),
    ("lr0", "0.01"), ("clip_norm", None), ("adam_eps", False)])
def test_train_config_of_a_wrong_kind_raises_type_error(name, value):
    with pytest.raises(TypeError, match=re.escape(f"bad value for {name!r}: {value!r}")):
        TrainConfig(**{name: value})


def test_train_config_takes_an_int_for_a_float():
    cfg = TrainConfig(lr0=1, clip_norm=5, decay_factor=1)
    assert (cfg.lr0, cfg.clip_norm, cfg.decay_factor) == (1, 5, 1)


@pytest.mark.parametrize("kw,message", [
    (dict(batch_size=0), f"batch_size: must be in [1, {MAX_BATCH_SIZE}], got 0"),
    (dict(lr0=float("inf")), "lr0: must be finite and > 0, got inf"),
    (dict(clip_norm=float("nan")), "clip_norm: must be > 0, got nan"),
    (dict(adam_beta2=1.0), "adam_beta2: must be in [0, 1), got 1.0"),
    (dict(adam_eps=0.0), "adam_eps: must be > 0, got 0.0"),
    (dict(decay_every=0), "decay_every must be >= 1 and decay_factor in (0, 1]"),
    (dict(optimizer="rmsprop"), "optimizer: must be sgd|adam, got 'rmsprop'"),
    (dict(loss_space="joint"), "loss_space: must be pose|velocity, got 'joint'"),
    (dict(target_len=0), "seed_len must be >= 2 and target_len >= 1"),
    (dict(checkpoint_every=-1), "checkpoint_every: must be >= 0, got -1"),
    (dict(iterations=0), "iterations: must be >= 1, got 0"),
    (dict(seed=-1), "seed: must be >= 0, got -1"),
])
def test_train_config_is_checked_when_built(kw, message):
    with pytest.raises(ConfigError) as e:
        TrainConfig(**kw)
    assert str(e.value) == message
    with pytest.raises(ConfigError) as e:
        replace(TrainConfig(), **kw)
    assert str(e.value) == message


HUGE = 10 ** 5000  # past Python's limit (4300 digits) for printing an int


@pytest.mark.parametrize("cls, kw", [
    (ModelConfig, dict(d_v=3, leaky_slope=HUGE)),
    (ModelConfig, dict(d_v=-HUGE)),
    (ModelConfig, dict(d_v=3, seed=-HUGE)),
    (TrainConfig, dict(lr0=HUGE)),
    (TrainConfig, dict(batch_size=HUGE)),
    (TrainConfig, dict(iterations=-HUGE)),
    (TrainConfig, dict(checkpoint_every=-HUGE)),
], ids=lambda v: v.__name__ if isinstance(v, type) else list(v)[-1])
def test_a_value_too_long_to_print_raises_the_documented_error(cls, kw):
    # the message names the field and the value's size in bits
    if cls is ModelConfig:
        kw = dict(variant="tp_rnn", **kw)
    name = list(kw)[-1]
    with pytest.raises((TypeError, ConfigError)) as e:
        cls(**kw)
    assert name in str(e.value)
    assert f"integer of {HUGE.bit_length()} bits" in str(e.value)


def test_train_config_is_frozen():
    cfg = TrainConfig()
    for f in fields(cfg):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    assert cfg == TrainConfig()


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
    cfg = replace(cfg, checkpoint_every=10)
    model, trace_full, _ = train_loop(model, data, cfg,
                                      out_dir=tmp_path / "full")

    model2, data2, cfg2 = _toy_setup(iterations=30, optimizer=optimizer)
    cfg2 = replace(cfg2, checkpoint_every=10)
    train_loop(model2, data2, cfg2, out_dir=tmp_path / "part")
    mid = tmp_path / "part" / "checkpoint_00000010.bin"
    model3, meta, adam = load_model_checkpoint(mid)
    assert meta["iteration"] == 10
    if optimizer == "adam":
        assert adam is not None
    model3, trace_tail, _ = train_loop(
        model3, data2, TrainConfig(**meta["train_config"]),
        out_dir=tmp_path / "resumed", start_iteration=10,
        rng_state=meta["rng_state"], adam=adam)
    assert trace_tail == trace_full[10:]
    full = (tmp_path / "full" / "checkpoint_final.bin").read_bytes()
    resumed = (tmp_path / "resumed" / "checkpoint_final.bin").read_bytes()
    assert full == resumed


def test_divergence_aborts_with_checkpoint(tmp_path):
    model, data, cfg = _toy_setup(iterations=10)
    model.theta[:] = 1e200
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
            before["theta"] = model_.theta.copy()
            model_.views(grads)[0][0, 0] = np.inf  # cell0.W
        return loss, grads

    monkeypatch.setattr(train_mod, "rollout_loss_batch", poisoned)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="diverged at iteration 2"):
            train_loop(model, data, cfg, out_dir=tmp_path)
    assert np.isfinite(calls[-1])
    saved, meta, _ = load_model_checkpoint(tmp_path / "checkpoint_abort.bin")
    assert meta["iteration"] == 2
    theta = saved.theta
    assert np.all(np.isfinite(theta))
    assert np.array_equal(theta, before["theta"])
    # the trace of the finished iterations, 0 and 1, is written before the raise
    rows = (tmp_path / "loss_trace.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows] == [[str(i), repr(calls[i])] for i in (0, 1)]


@pytest.mark.parametrize("optimizer,dropout_rate", [("sgd", None), ("adam", 0.3)])
def test_abort_checkpoint_is_the_diverged_iterations_starting_state(
        tmp_path, monkeypatch, optimizer, dropout_rate):
    # the abort checkpoint of a run poisoned at iteration 2 is the one an
    # unpoisoned run writes before iteration 2, its RNG state included, so a
    # resume from it draws the diverged iteration's batch and dropout masks
    import posecast.train as train_mod

    def run(out_dir):
        _, data, cfg = _toy_setup(iterations=4, optimizer=optimizer)
        cfg = replace(cfg, checkpoint_every=2)
        return train_loop(tiny_model(dropout_rate=dropout_rate), data, cfg, out_dir=out_dir)

    run(tmp_path / "clean")
    real, calls = train_mod.rollout_loss_batch, []

    def poisoned(model_, *args, **kwargs):
        loss, grads = real(model_, *args, **kwargs)
        calls.append(loss)
        if len(calls) == 3:
            model_.views(grads)[0][0, 0] = np.nan
        return loss, grads

    monkeypatch.setattr(train_mod, "rollout_loss_batch", poisoned)
    with pytest.raises(NumericError, match="diverged at iteration 2"):
        run(tmp_path / "poisoned")
    assert ((tmp_path / "poisoned" / "checkpoint_abort.bin").read_bytes()
            == (tmp_path / "clean" / "checkpoint_00000002.bin").read_bytes())


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
    assert np.array_equal(loaded.theta, model.theta)
    assert loaded.config == model.config


def test_train_checkpoint_reloads_theta_and_adam_state_byte_equal(tmp_path):
    model = tiny_model(levels=3, seed=4)
    rng = np.random.default_rng(2)
    adam = AdamState(m=rng.normal(size=model.n_params), v=rng.random(model.n_params))
    cfg = TrainConfig(batch_size=2, iterations=5, seed_len=6, target_len=3,
                      optimizer="adam")
    save_train_checkpoint(tmp_path / "t.bin", model, cfg, 3, rng, adam)
    loaded, meta, got = load_model_checkpoint(tmp_path / "t.bin")
    assert meta["iteration"] == 3
    assert loaded.theta.tobytes() == model.theta.tobytes()
    assert got.m.tobytes() == adam.m.tobytes() and got.v.tobytes() == adam.v.tobytes()


def test_loading_a_checkpoint_draws_no_initial_values(tmp_path, monkeypatch):
    # the file's tensors are copied into a zeroed theta; nothing is drawn
    import posecast.arch as arch_mod
    import posecast.layers as layers_mod

    model = tiny_model(levels=3, seed=4)
    cfg = TrainConfig(batch_size=2, iterations=1, seed_len=6, target_len=3,
                      optimizer="adam")
    data = TrainingData(sequences=synth_multiscale(2, 20, 3, seed=1), seed_len=6,
                        target_len=3)
    train_loop(model, data, cfg, out_dir=tmp_path)

    def forbidden(*args, **kwargs):
        raise AssertionError("an initializer ran while loading a checkpoint")

    for mod, name in ((arch_mod, "build_model"), (arch_mod, "draw_lstm"),
                      (arch_mod, "draw_head"), (layers_mod, "seeded_rng")):
        monkeypatch.setattr(mod, name, forbidden)
    loaded, _, adam = load_model_checkpoint(tmp_path / "checkpoint_final.bin")
    assert loaded.theta.tobytes() == model.theta.tobytes()
    assert adam is not None


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_a_load_holds_the_tensors_it_returns_once(tmp_path, optimizer):
    # each tensor is read straight into its view of theta (or of the Adam
    # moments): no array of the file's tensors is held beside them
    model = build_model(ModelConfig(variant="tp_rnn", d_v=8, granularity=2, levels=2,
                                    hidden=128, head1=32, head2=16))
    adam = None
    if optimizer == "adam":
        rng = np.random.default_rng(3)
        adam = AdamState(m=rng.normal(size=model.n_params), v=rng.random(model.n_params))
    p = tmp_path / "t.bin"
    save_train_checkpoint(p, model, TrainConfig(optimizer=optimizer), 0,
                          np.random.default_rng(0), adam)
    tracemalloc.start()
    try:
        loaded, _, got = load_model_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = loaded.theta.nbytes + (0 if got is None else got.m.nbytes + got.v.nbytes)
    assert loaded.theta.tobytes() == model.theta.tobytes()
    if adam is not None:
        assert got.m.tobytes() == adam.m.tobytes() and got.v.tobytes() == adam.v.tobytes()
    assert peak <= 1.05 * held, (peak, held)


def test_a_short_file_is_rejected_before_its_model_is_allocated(tmp_path):
    # the meta describes a model of about 550 MB; the file holds the first
    # tensor's header and 64 bytes of its data: truncated, with the model
    # never allocated
    cfg = ModelConfig(variant="tp_rnn", d_v=54, levels=1, hidden=4096)
    meta = json.dumps({"kind": "model", "model_config": asdict(cfg),
                       "iteration": 0}).encode("utf-8")
    shape = (4 * 4096, 54 + 4096)
    p = tmp_path / "short.bin"
    p.write_bytes(MAGIC + struct.pack("<IQ", VERSION, len(meta)) + meta
                  + struct.pack("<IH7sB2Q", 8, 7, b"cell0.W", 2, *shape) + b"\x00" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="truncated"):
            load_model_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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
    from posecast.arch import RolloutTape, forecast, observe

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
    # the seed recorded, one LSTM call per firing, the forecast tape-free
    tape = RolloutTape.empty(model, 1, seed_p.n_frames - 1)
    bank, v0 = observe(model, seed_p.frames[None], tape=tape)
    pred = forecast(model, bank, v0, 25)[:, 0]
    frames = seed_p.frames[-1] + np.cumsum(pred, axis=0)
    truth = held_out.frames[40:65]

    def dominant_period(x):
        spec = np.abs(np.fft.rfft(x - x.mean(), n=256))
        return 256.0 / (spec[1:].argmax() + 1)

    p_truth = dominant_period(truth[:, 0])
    p_pred = dominant_period(frames[:, 0])
    assert abs(p_pred - p_truth) / p_truth < 0.10
