"""Training in place on one flat parameter buffer and one flat gradient buffer.

`reference_loop` is the functional training loop: it clips, steps SGD and
steps Adam with list comprehensions over fresh per-tensor arrays, the way
the optimizer was first written.  `train_loop` does the same arithmetic in
place on `Model.theta`, one reused gradient buffer and flat Adam moments; the
elementwise ops are the same, so every parameter bit must match.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from posecast import checkpoint as ckpt
from posecast.arch import ModelConfig, build_model
from posecast.errors import ConfigError
from posecast.posedata import synth_multiscale
from posecast.train import (AdamState, TrainConfig, TrainingData, load_model_checkpoint,
                            load_train_checkpoint, lr_at, rollout_loss_batch,
                            save_train_checkpoint, train_loop)

DATA = Path(__file__).parent / "data"


def reference_loop(model, data, cfg):
    """(parameters, Adam m, Adam v, clipped iterations) after cfg.iterations."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    params = [arr.copy() for _, arr in model.tensors()]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    clipped = 0
    for it in range(cfg.iterations):
        model.set_tensors(params)
        seeds, targets = data.sample_batch(rng, cfg.batch_size)
        _, grads = rollout_loss_batch(model, seeds, targets, cfg, mode="train", rng=rng)
        g = [t.copy() for t in model.views(grads)]
        total = 0.0
        for t in g:
            total += float(np.sum(t * t))
        norm = float(np.sqrt(total))
        if norm > cfg.clip_norm:
            g = [t * (cfg.clip_norm / norm) for t in g]
            clipped += 1
        lr = lr_at(cfg, it)
        if cfg.optimizer == "sgd":
            params = [p - lr * gi for p, gi in zip(params, g)]
        else:
            n = it + 1
            m = [b1 * mi + (1 - b1) * gi for mi, gi in zip(m, g)]
            v = [b2 * vi + (1 - b2) * gi * gi for vi, gi in zip(v, g)]
            params = [p - lr * (mi / (1 - b1 ** n)) / (np.sqrt(vi / (1 - b2 ** n)) + eps)
                      for p, mi, vi in zip(params, m, v)]
    flat = [np.concatenate([a.ravel() for a in x]) for x in (params, m, v)]
    return (*flat, clipped)


def _setup(optimizer, dropout, iterations=6):
    model = build_model(ModelConfig(variant="tp_rnn", d_v=3, granularity=2, levels=3,
                                    hidden=5, head1=6, head2=4, seed=2,
                                    dropout_rate=dropout))
    data = TrainingData(sequences=synth_multiscale(3, 40, 3, seed=8), seed_len=9,
                        target_len=5)
    cfg = TrainConfig(batch_size=3, iterations=iterations, seed=4, seed_len=9,
                      target_len=5, optimizer=optimizer, lr0=0.05, clip_norm=0.05,
                      decay_every=2, decay_factor=0.9)
    return model, data, cfg


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_in_place_loop_matches_functional_reference_bit_for_bit(tmp_path, optimizer,
                                                                dropout):
    model, data, cfg = _setup(optimizer, dropout)
    want_theta, want_m, want_v, clipped = reference_loop(model, data, cfg)
    assert clipped == cfg.iterations  # clipping is active at every step

    model, data, cfg = _setup(optimizer, dropout)
    train_loop(model, data, cfg, out_dir=tmp_path)
    assert model.theta.tobytes() == want_theta.tobytes()
    loaded, _, adam = load_model_checkpoint(tmp_path / "checkpoint_final.bin")
    assert loaded.theta.tobytes() == want_theta.tobytes()
    if optimizer == "adam":
        assert adam.m.tobytes() == want_m.tobytes()
        assert adam.v.tobytes() == want_v.tobytes()
    else:
        assert adam is None


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_iterations_allocate_no_parameter_sized_array(optimizer):
    # wide levels, so theta (1.3 M floats) dwarfs every per-step array; the
    # largest tensor is 40 % of it, and the clip's per-tensor t * t is that size
    model = build_model(ModelConfig(variant="tp_rnn", d_v=2, granularity=2, levels=3,
                                    hidden=256, head1=4, head2=4, seed=0))
    data = TrainingData(sequences=synth_multiscale(2, 20, 2, seed=1), seed_len=4,
                        target_len=2)
    cfg = TrainConfig(batch_size=1, iterations=4, seed_len=4, target_len=2,
                      optimizer=optimizer, clip_norm=1e-3)
    base = {}

    def log_fn(it, loss, lr):
        if it == 0:
            tracemalloc.reset_peak()
            base["bytes"] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        train_loop(model, data, cfg, log_fn=log_fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base["bytes"] < model.theta.nbytes


def test_checkpoint_written_before_the_flat_buffer_loads_bit_exactly(tmp_path):
    # written by the previous (per-tensor) optimizer: tp_rnn M=3 with dropout,
    # Adam with clipping, saved after 2 of 4 iterations
    path = DATA / "adam_checkpoint_v1.bin"
    meta, tensors = ckpt.load_checkpoint(path)
    model, meta2, adam = load_model_checkpoint(path)
    assert meta2 == meta
    names = [n for n, _ in model.tensors()]
    for flat, prefix in ((model.theta, ""), (adam.m, "opt.m."), (adam.v, "opt.v.")):
        want = np.concatenate([tensors[prefix + n].ravel() for n in names])
        assert flat.tobytes() == want.tobytes()
    for (_, arr), n in zip(model.tensors(), names):
        assert np.array_equal(arr, tensors[n])
    # saving it again reproduces the file byte for byte
    _, cfg, iteration, rng_state, _ = load_train_checkpoint(path)
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = rng_state
    save_train_checkpoint(tmp_path / "again.bin", model, cfg, iteration, rng, adam)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_adam_moments_given_to_an_sgd_run_are_rejected():
    # an SGD run would copy them unchanged into every checkpoint it writes
    model, data, cfg = _setup("sgd", 0.0)
    with pytest.raises(ConfigError, match="Adam moments"):
        train_loop(model, data, cfg, adam=AdamState.zeros_like(model.theta))
