"""The time-batched rollout backward against a per-step reference.

`reference_forward` runs the rollout one step and one level at a time with
the single-step `lstm_step` and `head_forward`, keeping every step's own
tapes and head inputs; `reference_backward` then runs the single-step
`head_backward` and `lstm_step_backward` at every step (each forming its own
rank-B weight gradient) and adds the result into the accumulators.  Both
take the schedule (which phase a level reads at step t, whether it fires,
what it consumes) from the variants' closed-form rules, not from the level
table, and nothing from the engine's tape.  The engine's recorded forward
must give the reference's predictions, its tape the reference's gates and
cell states, and `RolloutTape.state` the hidden states, bit for bit;
`rollout_backward` forms the same weight gradients from the slimmer tape as
time-batched GEMMs, so the two differ only in summation order.  Both run the head backward only at steps
t >= S-1: the recorded rollout runs the head forward only there.
"""

import numpy as np
import pytest

import posecast.arch as arch
from posecast.arch import ModelConfig, build_model, rollout_backward, rollout_forward
from posecast.layers import head_backward, head_forward, lstm_step_backward
from posecast.posedata import synth_multiscale

from rollout_oracle import taped_step


def _phase(cfg, m, t):
    if cfg.variant == "tp_rnn":
        return t % cfg.granularity ** (m - 1)
    return t % cfg.granularity if cfg.variant == "double_scale_phase_vel" and m == 2 else 0


def _fires(cfg, m, t):
    every_k = cfg.variant in ("double_scale_vel", "double_scale_hier_vel")
    return m == 1 or not every_k or t % cfg.granularity == cfg.granularity - 1


def _stride_fed(cfg):
    return cfg.variant in ("double_scale_vel", "double_scale_phase_vel")


def reference_forward(model, frames, n_pred, mode="eval", rng=None):
    """The rollout of the (B, S+1, d) seed frames: seed step t's input is the
    velocity frames[:, t+1] - frames[:, t], or for the pose-input variant the
    frame frames[:, t+1], and the forecast integrates from the last frame.

    Returns (preds (n_pred, B, d), steps): steps[t] is (per level its LstmTape at
    step t or None, the head's (input, hiddens, HeadTape) or None before
    t = S-1, and per level the hidden state its firing at t produced or
    None)."""
    cfg = model.config
    B, S = len(frames), frames.shape[1] - 1
    K, h = cfg.granularity, cfg.hidden
    is_pose = cfg.variant == "single_layer_pose"
    states = {}  # (level, phase) -> its latest (h, c)

    def state(m, q):
        return states.get((m, q), (np.zeros((B, h)), np.zeros((B, h))))

    xs, steps, preds, pose = [], [], [], frames[:, -1]
    for t in range(S + n_pred - 1):
        if t < S:
            xs.append(frames[:, t + 1] if is_pose else frames[:, t + 1] - frames[:, t])
        else:
            pose = pose + preds[-1]
            xs.append(pose if is_pose else preds[-1])
        tapes, outs, below = [], [], xs[t]
        for m in range(1, cfg.levels + 1):
            if not _fires(cfg, m, t):
                tapes.append(None)
                outs.append(None)
                continue
            inp = below
            if m > 1 and _stride_fed(cfg):
                # the stride window: the last K inputs up to t, summed in order
                lo = max(0, t - K + 1)
                inp = xs[lo]
                for i in range(lo + 1, t + 1):
                    inp = inp + xs[i]
            q = _phase(cfg, m, t)
            *states[m, q], tape = taped_step(model.cells[m - 1], inp, *state(m, q))
            tapes.append(tape)
            below = states[m, q][0]
            outs.append(below)
        hiddens = [state(m, _phase(cfg, m, t))[0] for m in range(1, cfg.levels + 1)]
        # the head runs at every step, so its dropout masks come from the
        # same draws; only its outputs from t = S-1 on are predictions
        out, htape = head_forward(model.head, xs[t], hiddens, slope=cfg.leaky_slope,
                                  dropout_rate=cfg.effective_dropout, rng=rng,
                                  train=mode == "train")
        head = None
        if t >= S - 1:
            preds.append(out)
            head = (xs[t], hiddens, htape)
        steps.append((tapes, head, outs))
    return np.stack(preds), steps


def reference_backward(model, steps, n_obs, d_preds):
    cfg = model.config
    S = n_obs
    T = S + d_preds.shape[0] - 1
    B = d_preds.shape[1]
    h = cfg.hidden
    K = cfg.granularity
    is_pose = cfg.variant == "single_layer_pose"

    cells = [[np.zeros_like(c.W), np.zeros_like(c.b)] for c in model.cells]
    head = [np.zeros_like(t) for t in model.views(model.theta)[2 * len(model.cells):]]
    pending = {}  # (level, phase) -> [dh, dc] w.r.t. its latest state

    def state_grad(m, q):
        return pending.setdefault((m, q), [np.zeros((B, h)), np.zeros((B, h))])

    d_x = np.zeros((T, B, cfg.d_v))
    for t in reversed(range(T)):
        tapes, head_call, _ = steps[t]
        if is_pose and t + 1 < T:
            d_x[t] += d_x[t + 1]
        if t >= S - 1:
            # earlier head outputs are not predictions; their head is not run
            d_out = d_preds[t - (S - 1)].copy()
            if t + 1 < T:
                d_out += d_x[t + 1]
            hg, dv, dhs = head_backward(model.head, *head_call, d_out)
            for acc, g in zip(head, hg):
                acc += g
            d_x[t] += dv
            for m, dh in enumerate(dhs, start=1):
                state_grad(m, _phase(cfg, m, t))[0] += dh
        for m in range(cfg.levels, 0, -1):
            tape = tapes[m - 1]
            if tape is None:
                continue
            q = _phase(cfg, m, t)
            dh, dc = state_grad(m, q)
            (dW, db), d_inp, (dh_prev, dc_prev) = lstm_step_backward(
                model.cells[m - 1], tape, dh, dc)
            cells[m - 1][0] += dW
            cells[m - 1][1] += db
            pending[m, q] = [dh_prev.copy(), dc_prev.copy()]
            if m == 1:
                d_x[t] += d_inp
            elif not _stride_fed(cfg):
                state_grad(m - 1, _phase(cfg, m - 1, t))[0] += d_inp
            else:
                # the stride window: the last K inputs up to t
                for ti in range(max(0, t - K + 1), t + 1):
                    d_x[ti] += d_inp
    return [t for cell in cells for t in cell] + head


def _compare(cfg, B, S, n_pred, mode="eval", seed=0):
    model = build_model(cfg)
    frames = np.stack([s.frames for s in
                       synth_multiscale(B, S + 1, cfg.d_v, seed=seed + 40)])
    rng = np.random.default_rng(seed) if mode == "train" else None
    rng_ref = np.random.default_rng(seed) if mode == "train" else None
    preds, tape = rollout_forward(model, frames, n_pred, mode=mode, rng=rng)
    ref_preds, steps = reference_forward(model, frames, n_pred, mode=mode, rng=rng_ref)
    assert np.array_equal(preds, ref_preds)
    # the tape holds each firing's gates and cell state, latest firing first,
    # the inputs and the head's tapes, bit for bit, and the hidden state it
    # recomputes from them is the one the firing produced
    T = S + n_pred - 1
    assert np.array_equal(tape.xs, np.stack([tapes[0].x for tapes, *_ in steps]))
    for m in range(cfg.levels):
        fired = [t for t in range(T) if steps[t][0][m] is not None]
        assert len(tape.gates[m]) == len(tape.c[m]) == len(fired)
        for row, t in enumerate(reversed(fired)):
            assert np.array_equal(tape.gates[m][row], steps[t][0][m].gates)
            assert np.array_equal(tape.c[m][row], steps[t][0][m].c)
            assert np.array_equal(tape.state(m, row)[0], steps[t][2][m])
        # past the slab's end: the zero state
        assert all(np.array_equal(a, np.zeros((B, cfg.hidden)))
                   for a in tape.state(m, len(fired)))
    assert len(tape.heads) == n_pred
    for ht, (_, head, _) in zip(tape.heads, steps[S - 1:]):
        for name in ("d1", "d2", "r1", "r2", "mask1", "mask2"):
            a, b = getattr(ht, name), getattr(head[2], name)
            assert (a is None) == (b is None) and (a is None or np.array_equal(a, b)), name
    heads = list(tape.heads)
    d_preds = np.random.default_rng(seed + 1).normal(size=(n_pred, B, cfg.d_v))
    got = model.views(rollout_backward(model, tape, d_preds))
    want = reference_backward(model, steps, S, d_preds)
    assert len(got) == len(want)
    worst = 0.0
    for a, b in zip(got, want):
        assert a.shape == b.shape
        scale = np.max(np.abs(b))
        assert scale > 0.0
        worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    assert worst < 1e-12, worst
    return tape, heads


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
    _, heads = _compare(_cfg("tp_rnn", levels=3, dropout_rate=0.2), B=4,
                        S=13, n_pred=9, mode="train", seed=5)
    assert len(heads) == 9
    assert all(ht.mask1 is not None and ht.mask2 is not None for ht in heads)


def test_tp_rnn_three_levels_k3():
    _compare(_cfg("tp_rnn", levels=3, K=3), B=2, S=20, n_pred=7, seed=9)


@pytest.mark.parametrize("variant", ["double_scale_vel", "double_scale_hier_vel"])
def test_sparse_upper_level_updates_fewer_times_than_T(variant, monkeypatch):
    # the single-phase upper level fires every K steps: 9 updates over T=19,
    # so its chunks fill at a different pace from level 1's
    monkeypatch.setattr(arch, "WGRAD_CHUNK", 4)
    tape, _ = _compare(_cfg(variant), B=2, S=12, n_pred=8, seed=11)
    assert len(tape.c[1]) == 9 < len(tape.c[0]) == 19


def test_single_step_prediction():
    # n_pred = 1: only the last seed step's head output gets a gradient
    _compare(_cfg("tp_rnn", levels=2), B=2, S=6, n_pred=1)
