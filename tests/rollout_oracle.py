"""Independent straight-line forward implementation of the rollout loss.

This re-implements the full observe-then-forecast rollout and the pose-space
loss with nothing shared with the package internals (no tapes, no batching,
no state bank), in extended precision (numpy longdouble).  It serves two
purposes in the test suite:

 1. an independent cross-check that the library forward pass computes the
    documented equations, and
 2. a high-precision loss evaluator for central finite differences: at
    eps=1e-5 a float64 evaluation has an absolute noise floor around 1e-10,
    which swamps the relative error of legitimately tiny gradient entries;
    in longdouble the floor drops to ~1e-14 and the comparison against the
    (float64) analytic gradient becomes meaningful.

Only the flagship hierarchy variant is supported here; the ablation variants
get their own finite-difference coverage at float64-friendly scales.

`model_step`, by contrast, is the engine itself: one call of its level sweep
on one input, the step-at-a-time reference of the rollout tests.
`stacked_rollout` is the engine's tape-free rollout on a bank of per-phase
(h, c) arrays: each run of a level's phases concatenated into one LSTM call
and split back into per-phase views, with an out-of-place state update.  The
engine's slab bank must reproduce it bit for bit.
`taped_step` runs the in-place `lstm_step` on copies of a state and keeps
what the single-step `lstm_step_backward` reads.
"""

import numpy as np

from posecast import arch
from posecast.layers import LstmTape, head_forward, lstm_step

LD = np.longdouble


def model_step(model, bank, x, mode="eval", rng=None, tape=None):
    """Advance `bank` one step on the (B, d_v) input x and return the
    prediction.  The step is recorded into `tape`, an `arch.RolloutTape`
    sized for the whole run, when one is given."""
    return arch._advance(model, bank, np.asarray(x)[:, None], mode, rng, tape)


def nan_tape(model, B, T):
    """An `arch.RolloutTape` for T steps at batch B whose slabs and inputs hold
    NaN until a step writes them."""
    tape = arch.RolloutTape.empty(model, B, T)
    for a in (tape.xs, *tape.gates, *tape.c):
        a.fill(np.nan)
    return tape


def taped_step(p, x, h_prev, c_prev):
    """`lstm_step` on copies of the (B, h) state h_prev, c_prev: returns the
    new (h, c) and the step's `LstmTape`."""
    h, c = h_prev.copy(), c_prev.copy()
    gates = np.empty((len(x), 4 * p.h))
    lstm_step(p, x, h, c, gates=gates)
    return h, c, LstmTape(x=x, h_prev=h_prev, c_prev=c_prev, gates=gates, c=c)


def _gates_out_of_place(pre, c_prev):
    """The LSTM update on gate preactivations pre: the gates in place on
    pre, as `layers.lstm_gates` computes them, and the new state as new
    arrays (h, c)."""
    h = c_prev.shape[1]
    sig = pre[:, :3 * h]
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    g = pre[:, 3 * h:]
    np.tanh(g, out=g)
    c_new = pre[:, h:2 * h] * c_prev
    c_new += pre[:, :h] * g
    return pre[:, 2 * h:3 * h] * np.tanh(c_new), c_new


def _stacked_sweep(model, states, recent, t0, xs):
    """One tape-free level sweep over the inputs xs (B, n, d_v) from step t0,
    on `states` ([level][phase] -> (h, c)) and `recent` (the last K inputs),
    both updated in place; returns the prediction at the last step."""
    cfg = model.config
    K, (B, n, _) = cfg.granularity, xs.shape
    first = t0 - len(recent)

    def inp(i):
        return xs[:, i - t0] if i >= t0 else recent[i - first]

    cycle = max(level.phases for level in model.levels)
    block = cycle * max(1, arch.HOIST_ROWS // (cycle * max(B, 1)))
    for b0 in range(t0, t0 + n, block):
        steps = range(b0, min(b0 + block, t0 + n))
        below = [xs[:, t - t0] for t in steps]
        for level, cell, st in zip(model.levels, model.cells, states):
            fired = [t for t in steps if level.fires(t)]
            if level.source == "stride":
                inps = [arch._window_sum([inp(i) for i in arch._stride_window(t, K)])
                        for t in fired]
            else:
                inps = [below[t - b0] for t in fired]
            hoist = 1 < len(fired) and len(fired) * B <= arch.HOIST_ROWS
            if hoist:
                xw = np.concatenate(inps) @ cell.W[:, :cell.d_in].T
                xw += cell.b
                w_h = cell.W[:, cell.d_in:].T
            outs = []
            for r in range(0, len(fired), level.phases):
                qs = [level.phase(t) for t in fired[r:r + level.phases]]
                h, c = st[qs[0]] if len(qs) == 1 else (
                    np.concatenate([st[q][0] for q in qs]), np.concatenate([st[q][1] for q in qs]))
                if hoist:
                    pre = h @ w_h
                    pre += xw[r * B:(r + len(qs)) * B]
                else:
                    x = inps[r] if len(qs) == 1 else np.concatenate(inps[r:r + len(qs)])
                    pre = np.concatenate([x, h], axis=1) @ cell.W.T
                    pre += cell.b
                h, c = _gates_out_of_place(pre, c)
                for i, q in enumerate(qs):
                    st[q] = (h[i * B:(i + 1) * B], c[i * B:(i + 1) * B])
                outs += [st[q][0] for q in qs]
            below = outs
    t = t0 + n - 1
    hiddens = [st[level.phase(t)][0] for level, st in zip(model.levels, states)]
    vhat, _ = head_forward(model.head, xs[:, -1], hiddens, slope=cfg.leaky_slope)
    recent[:] = [inp(i).copy() for i in range(max(first, t0 + n - K), t0 + n)]
    return vhat


def stacked_rollout(model, seeds, n_steps):
    """The tape-free eval rollout of the (B, S+1, d) seed frames on per-phase
    states: (preds (n_steps, B, d), per level the list of its phases' final
    (h, c))."""
    B, S, hid = len(seeds), seeds.shape[1] - 1, model.config.hidden
    states = [[(np.zeros((B, hid)), np.zeros((B, hid)))] * level.phases
              for level in model.levels]
    recent = []
    is_pose = model.levels[0].source == "pose"
    v = _stacked_sweep(model, states, recent, 0,
                       seeds[:, 1:] if is_pose else np.diff(seeds, axis=1))
    preds, pose = [v], seeds[:, -1]
    for t in range(S, S + n_steps - 1):
        pose = pose + v
        v = _stacked_sweep(model, states, recent, t, (pose if is_pose else v)[:, None])
        preds.append(v)
    return np.stack(preds), states


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _unflatten(theta, shapes):
    arrs = []
    off = 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrs.append(theta[off:off + size].reshape(shape))
        off += size
    return arrs


def hierarchy_rollout_loss(theta, model_config, seed_poses, target_poses,
                           dropout_seed=None):
    """Rollout loss of the flagship variant, evaluated in longdouble.

    theta: flat parameter vector in the library's tensor order
    (cell0.W, cell0.b, ..., head.W1, head.b1, ..., head.b3).
    seed_poses: (S, d); target_poses: (n, d).  When dropout is active the
    masks replicate head_forward's draws from default_rng(dropout_seed).
    """
    cfg = model_config
    K, M, d, h = cfg.granularity, cfg.levels, cfg.d_v, cfg.hidden
    h1, h2 = cfg.head1, cfg.head2
    assert cfg.variant == "tp_rnn"
    shapes = []
    for m in range(M):
        d_in = d if m == 0 else h
        shapes += [(4 * h, d_in + h), (4 * h,)]
    shapes += [(h1, d + M * h), (h1,), (h2, h1), (h2,), (d, h2), (d,)]
    arrs = _unflatten(np.asarray(theta, dtype=LD), shapes)
    Ws, bs = arrs[0:2 * M:2], arrs[1:2 * M:2]
    W1, b1, W2, b2, W3, b3 = arrs[2 * M:]

    sp = np.asarray(seed_poses, dtype=LD)
    tp = np.asarray(target_poses, dtype=LD)
    S, n = sp.shape[0], tp.shape[0]
    vels = sp[1:] - sp[:-1]

    states = [[(np.zeros(h, LD), np.zeros(h, LD)) for _ in range(K ** m)]
              for m in range(M)]
    rate = cfg.effective_dropout
    rng = np.random.default_rng(dropout_seed) if rate > 0 else None
    keep = 1.0 - rate
    slope = LD(cfg.leaky_slope)

    preds = []
    for t in range(S - 1 + n - 1):
        v = vels[t] if t < S - 1 else preds[t - (S - 1)]
        hiddens = []
        below = None
        for m in range(M):
            q = t % (K ** m)
            inp = v if m == 0 else below
            h_prev, c_prev = states[m][q]
            pre = Ws[m] @ np.concatenate([inp, h_prev]) + bs[m]
            i = _sigmoid(pre[:h])
            f = _sigmoid(pre[h:2 * h])
            o = _sigmoid(pre[2 * h:3 * h])
            g = np.tanh(pre[3 * h:])
            c = f * c_prev + i * g
            hh = o * np.tanh(c)
            states[m][q] = (hh, c)
            below = hh
            hiddens.append(hh)
        a1 = W1 @ np.concatenate([v] + hiddens) + b1
        r1 = np.where(a1 >= 0, a1, slope * a1)
        if rate > 0:
            r1 = r1 * ((rng.random((1, h1)) < keep)[0] / LD(keep))
        a2 = W2 @ r1 + b2
        r2 = np.where(a2 >= 0, a2, slope * a2)
        if rate > 0:
            r2 = r2 * ((rng.random((1, h2)) < keep)[0] / LD(keep))
        out = W3 @ r2 + b3
        if t >= S - 2:
            preds.append(out)

    pose = sp[-1].copy()
    loss = LD(0)
    for j in range(n):
        pose = pose + preds[j]
        delta = pose - tp[j]
        loss += np.sqrt(np.sum(delta * delta))
    return loss / n
