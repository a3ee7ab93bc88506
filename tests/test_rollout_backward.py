"""The time-batched rollout backward against a per-step reference.

`reference_backward` is the straightforward engine: at every step it runs
the single-step `head_backward` and `lstm_step_backward` (each forming its
own rank-B weight gradient) and adds the result into the accumulators.  It
takes the schedule (which phase a level reads at step t, whether it fires,
what it consumes) from the variants' closed-form rules, not from the level
table, and only the tapes from the step records.  `rollout_backward` forms
the same weight gradients as time-batched GEMMs, so the two differ only in
summation order.  Both run the head backward only
at steps t >= S-1: the recorded rollout runs the head forward only there.
"""

import numpy as np
import pytest

import posecast.arch as arch
from posecast.arch import ModelConfig, build_model, rollout_backward, rollout_forward
from posecast.layers import head_backward, lstm_step_backward
from posecast.posedata import synth_multiscale


def reference_backward(model, records, n_obs, d_preds):
    cfg = model.config
    S = n_obs
    T = S + d_preds.shape[0] - 1
    B = d_preds.shape[1]
    h = cfg.hidden
    K = cfg.granularity
    is_pose = cfg.variant == "single_layer_pose"

    def phase(m, t):
        if cfg.variant == "tp_rnn":
            return t % K ** (m - 1)
        return t % K if cfg.variant == "double_scale_phase_vel" and m == 2 else 0

    def fires(m, t):
        every_k = cfg.variant in ("double_scale_vel", "double_scale_hier_vel")
        return m == 1 or not every_k or t % K == K - 1

    stride_fed = cfg.variant in ("double_scale_vel", "double_scale_phase_vel")
    cells = [[np.zeros_like(c.W), np.zeros_like(c.b)] for c in model.cells]
    head = [np.zeros_like(t) for t in model.views(model.theta)[2 * len(model.cells):]]
    pending = {}  # (level, phase) -> [dh, dc] w.r.t. its latest state

    def state_grad(m, q):
        return pending.setdefault((m, q), [np.zeros((B, h)), np.zeros((B, h))])

    d_x = np.zeros((T, B, cfg.d_v))
    for t in reversed(range(T)):
        rec = records[t]
        if is_pose and t + 1 < T:
            d_x[t] += d_x[t + 1]
        if t >= S - 1:
            # earlier head outputs are not predictions; their head is not run
            d_out = d_preds[t - (S - 1)].copy()
            if t + 1 < T:
                d_out += d_x[t + 1]
            hg, dv, dhs = head_backward(model.head, rec.head_tape, d_out)
            for acc, g in zip(head, hg):
                acc += g
            d_x[t] += dv
            for m, dh in enumerate(dhs, start=1):
                state_grad(m, phase(m, t))[0] += dh
        for m in range(cfg.levels, 0, -1):
            tape = rec.tapes[m - 1]
            assert (tape is not None) == fires(m, t)
            if tape is None:
                continue
            q = phase(m, t)
            dh, dc = state_grad(m, q)
            (dW, db), d_inp, (dh_prev, dc_prev) = lstm_step_backward(
                model.cells[m - 1], tape, dh, dc)
            cells[m - 1][0] += dW
            cells[m - 1][1] += db
            pending[m, q] = [dh_prev.copy(), dc_prev.copy()]
            if m == 1:
                d_x[t] += d_inp
            elif not stride_fed:
                state_grad(m - 1, phase(m - 1, t))[0] += d_inp
            else:
                # the stride window: the last K inputs up to t
                for ti in range(max(0, t - K + 1), t + 1):
                    d_x[ti] += d_inp
    return [t for cell in cells for t in cell] + head


def _compare(cfg, B, S, n_pred, mode="eval", seed=0):
    model = build_model(cfg)
    frames = np.stack([s.frames for s in
                       synth_multiscale(B, S + 1, cfg.d_v, seed=seed + 40)])
    seed_vels = np.diff(frames, axis=1)
    rng = np.random.default_rng(seed) if mode == "train" else None
    _, records = rollout_forward(model, seed_vels, frames[:, 0], n_pred,
                                 mode=mode, rng=rng)
    d_preds = np.random.default_rng(seed + 1).normal(size=(n_pred, B, cfg.d_v))
    got = model.views(rollout_backward(model, records, S, d_preds))
    want = reference_backward(model, records, S, d_preds)
    assert len(got) == len(want)
    worst = 0.0
    for a, b in zip(got, want):
        assert a.shape == b.shape
        scale = np.max(np.abs(b))
        assert scale > 0.0
        worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    assert worst < 1e-12, worst
    return records


def _cfg(variant, levels=2, K=2, **kw):
    return ModelConfig(variant=variant, d_v=3, granularity=K, levels=levels,
                       hidden=5, head1=6, head2=4, seed=7, **kw)


_VARIANTS = [("single_layer_pose", 1), ("single_layer_vel", 1),
             ("stacked2_vel", 2), ("double_scale_vel", 2),
             ("double_scale_hier_vel", 2), ("double_scale_phase_vel", 2),
             ("tp_rnn", 2)]


@pytest.mark.parametrize("variant,levels", _VARIANTS)
def test_matches_per_step_reference_all_variants(variant, levels):
    # T = 2 chunks + 3 steps: full flushes plus a partial one
    chunk = arch.WGRAD_CHUNK
    _compare(_cfg(variant, levels), B=4, S=chunk + 2, n_pred=chunk + 2)


@pytest.mark.parametrize("variant,levels", _VARIANTS)
def test_matches_reference_with_small_chunk(variant, levels, monkeypatch):
    # many flushes, T (= 18) not a multiple of the chunk
    monkeypatch.setattr(arch, "WGRAD_CHUNK", 4)
    _compare(_cfg(variant, levels), B=3, S=11, n_pred=8)


@pytest.mark.parametrize("variant,levels", _VARIANTS)
def test_matches_reference_batch_of_one(variant, levels):
    _compare(_cfg(variant, levels), B=1, S=9, n_pred=6, seed=3)


def test_tp_rnn_three_levels_dropout_train_mode():
    S = 13
    records = _compare(_cfg("tp_rnn", levels=3, dropout_rate=0.2), B=4,
                       S=S, n_pred=9, mode="train", seed=5)
    assert all(rec.head_tape is None for rec in records[:S - 1])
    assert all(rec.head_tape.mask1 is not None for rec in records[S - 1:])


def test_tp_rnn_three_levels_k3():
    _compare(_cfg("tp_rnn", levels=3, K=3), B=2, S=20, n_pred=7, seed=9)


@pytest.mark.parametrize("variant", ["double_scale_vel", "double_scale_hier_vel"])
def test_sparse_upper_level_updates_fewer_times_than_T(variant, monkeypatch):
    # the single-phase upper level fires every K steps: 9 updates over T=19,
    # so its chunks fill at a different pace from level 1's
    monkeypatch.setattr(arch, "WGRAD_CHUNK", 4)
    records = _compare(_cfg(variant), B=2, S=12, n_pred=8, seed=11)
    upper = sum(1 for rec in records if rec.tapes[1] is not None)
    assert upper < len(records)


def test_single_step_prediction():
    # n_pred = 1: only the last seed step's head output gets a gradient
    _compare(_cfg("tp_rnn", levels=2), B=2, S=6, n_pred=1)
