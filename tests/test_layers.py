import math
import tracemalloc

import numpy as np
import pytest

from posecast.errors import ConfigError, ShapeError
from posecast.layers import (HeadParams, LstmParams, draw_head, draw_lstm,
                             head_backward, head_forward, head_layer_backward,
                             head_skip, lstm_gate_backward, lstm_gates, lstm_step,
                             lstm_step_backward)

from rollout_oracle import taped_step


def init_lstm(d_in, h, seed, forget_bias=1.0) -> LstmParams:
    """A cell drawn by `draw_lstm`, as `arch.build_model` draws each level's."""
    p = LstmParams(W=np.empty((4 * h, d_in + h)), b=np.empty(4 * h), d_in=d_in, h=h)
    draw_lstm(p, seed, forget_bias=forget_bias)
    return p


def init_head(d_v, n_states, h, h1, h2, seed) -> HeadParams:
    """A head drawn by `draw_head`, as `arch.build_model` draws the model's."""
    hp = HeadParams(W1=np.empty((h1, d_v + n_states * h)), b1=np.empty(h1),
                    W2=np.empty((h2, h1)), b2=np.empty(h2), W3=np.empty((d_v, h2)),
                    b3=np.empty(d_v), d_v=d_v, n_states=n_states, h=h)
    draw_head(hp, seed)
    return hp


def head_tensors(hp: HeadParams) -> list[np.ndarray]:
    return [hp.W1, hp.b1, hp.W2, hp.b2, hp.W3, hp.b3]


def grad_check(f, theta, analytic, eps=1e-5) -> np.ndarray:
    """Per-parameter relative error |g_a - g_fd| / max(|g_a|, |g_fd|, 1e-8) of
    the analytic gradient g_a against central differences g_fd of the scalar
    function f at the flat parameter vector theta."""
    theta = theta.copy()
    rel = np.empty(theta.size)
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + eps
        fp = f(theta)
        theta[k] = orig - eps
        fm = f(theta)
        theta[k] = orig
        g_fd = (fp - fm) / (2.0 * eps)
        rel[k] = abs(analytic[k] - g_fd) / max(abs(analytic[k]), abs(g_fd), 1e-8)
    return rel


def _zeros(B: int, h: int):
    """A zero (B, h) LSTM state (h, c)."""
    return np.zeros((B, h)), np.zeros((B, h))


def _zeroed(p: LstmParams) -> LstmParams:
    return LstmParams(W=np.zeros_like(p.W), b=np.zeros_like(p.b),
                      d_in=p.d_in, h=p.h)


# ---------------------------------------------------------------------------
# initialization


def test_init_lstm_deterministic():
    a = init_lstm(3, 4, seed=7)
    b = init_lstm(3, 4, seed=7)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def test_init_lstm_forget_bias_slice():
    p = init_lstm(3, 4, seed=0)
    assert np.all(p.b[4:8] == 1.0)
    assert np.all(p.b[:4] == 0.0) and np.all(p.b[8:] == 0.0)
    p2 = init_lstm(3, 4, seed=0, forget_bias=2.5)
    assert np.all(p2.b[4:8] == 2.5)


def test_init_lstm_bound():
    p = init_lstm(5, 16, seed=3)
    assert np.all(np.abs(p.W) <= 1.0 / math.sqrt(16))


def test_lstm_param_count_closed_form():
    # 4h(d_in + h + 1) with d_in=3, h=4 -> 128, checked against stored floats
    p = init_lstm(3, 4, seed=1)
    assert p.W.size + p.b.size == 4 * 4 * (3 + 4 + 1) == 128


# ---------------------------------------------------------------------------
# forward


def test_lstm_step_all_zero_params():
    p = _zeroed(init_lstm(3, 4, seed=0))
    h, c, _ = taped_step(p, np.ones((1, 3)), *_zeros(1, 4))
    assert np.array_equal(h, np.zeros((1, 4)))
    assert np.array_equal(c, np.zeros((1, 4)))


def test_lstm_step_gate_saturation_preserves_cell():
    h = 4
    p = _zeroed(init_lstm(2, h, seed=0))
    p.b[0 * h:1 * h] = -50.0  # input gate shut
    p.b[1 * h:2 * h] = +50.0  # forget gate open
    p.b[2 * h:3 * h] = -50.0  # output gate shut
    hh, c, _ = taped_step(p, np.zeros((1, 2)), np.zeros((1, h)), np.ones((1, h)))
    assert np.allclose(c, np.ones((1, h)), atol=1e-12)
    assert np.allclose(hh, np.zeros((1, h)), atol=1e-12)


def test_lstm_gates_saturate_far_below_zero():
    # exp(1000) overflows to inf on the way to a sigmoid of exactly 0, the
    # right value; the kernel states no policy for that overflow, the
    # engine's stages do (tests/test_rollout_forward.py)
    pre = np.array([[-1000.0, 1000.0, -1000.0, 0.5]])  # i, f, o, g at h = 1
    c, h = np.array([[2.0]]), np.empty((1, 1))
    with np.errstate(over="ignore"):
        lstm_gates(pre, c, h)
    assert np.array_equal(pre, [[0.0, 1.0, 0.0, np.tanh(0.5)]])
    assert np.array_equal(c, [[2.0]]) and np.array_equal(h, [[0.0]])


def test_lstm_gates_allocates_no_state_sized_temporary():
    # every product lands in pre, c or h: a 512-row, h = 1024 call, whose
    # state is 4 MB, traces well under one state-sized array
    rng = np.random.default_rng(0)
    pre, c = rng.normal(size=(512, 4 * 1024)), rng.normal(size=(512, 1024))
    h = np.empty_like(c)
    tracemalloc.start()
    try:
        lstm_gates(pre, c, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2e6


def test_lstm_step_matches_scalar_oracle():
    # d_in=2, h=2 with fixed small weights; expected values from an
    # independent straight-line scalar implementation of the same equations.
    W = np.array([
        [0.10, -0.20, 0.30, 0.05],   # i row 0
        [0.00, 0.15, -0.10, 0.20],   # i row 1
        [0.25, 0.05, 0.00, -0.15],   # f
        [-0.30, 0.10, 0.20, 0.00],
        [0.05, 0.05, -0.05, 0.10],   # o
        [0.20, -0.10, 0.15, 0.25],
        [-0.15, 0.30, 0.10, -0.20],  # g
        [0.10, 0.00, -0.25, 0.05],
    ])
    b = np.array([0.01, -0.02, 0.03, 0.04, -0.05, 0.06, 0.07, -0.08])
    p = LstmParams(W=W, b=b, d_in=2, h=2)
    x = [0.5, -0.3]
    h_prev = [0.2, -0.1]
    c_prev = [0.1, 0.4]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = x + h_prev
    exp_h, exp_c = [], []
    for k in range(2):
        i = sig(sum(W[0 + k][j] * z[j] for j in range(4)) + b[0 + k])
        f = sig(sum(W[2 + k][j] * z[j] for j in range(4)) + b[2 + k])
        o = sig(sum(W[4 + k][j] * z[j] for j in range(4)) + b[4 + k])
        g = math.tanh(sum(W[6 + k][j] * z[j] for j in range(4)) + b[6 + k])
        c = f * c_prev[k] + i * g
        exp_c.append(c)
        exp_h.append(o * math.tanh(c))

    h, c, _ = taped_step(p, np.array([x]), np.array([h_prev]), np.array([c_prev]))
    assert np.allclose(h[0], exp_h, atol=1e-15)
    assert np.allclose(c[0], exp_c, atol=1e-15)


@pytest.mark.parametrize("B,h", [(1, 5), (16, 64), (3, 256)])
def test_lstm_step_gates_are_the_textbook_expressions_bit_for_bit(B, h):
    # the gates and the state are computed in place; their bits must be
    # those of the out-of-place expressions, or a recorded tape, a loss and a
    # checkpoint would move
    d_in = 7
    p = init_lstm(d_in, h, seed=B)
    rng = np.random.default_rng(h)
    p.b[:] = rng.normal(scale=10.0, size=4 * h)  # saturated gates too
    x, h_prev, c_prev = (rng.normal(scale=3.0, size=(B, n)) for n in (d_in, h, h))

    pre = np.concatenate([x, h_prev], axis=1) @ p.W.T + p.b
    i, f, o = (1.0 / (1.0 + np.exp(-pre[:, k * h:(k + 1) * h])) for k in range(3))
    g = np.tanh(pre[:, 3 * h:])
    c = f * c_prev + i * g
    # the state is updated in place in rows of a bank's slab, the gates
    # written into a row of a recorded rollout's slab
    state = np.stack([h_prev, c_prev])[:, None].repeat(2, axis=1)
    gates = np.full((2, B, 4 * h), np.nan)
    assert lstm_step(p, x, state[0, 1], state[1, 1], gates=gates[1]) is None
    assert np.array_equal(gates[1], np.concatenate([i, f, o, g], axis=1))
    assert np.array_equal(state[1, 1], c)
    assert np.array_equal(state[0, 1], o * np.tanh(c))
    # the other rows are untouched
    assert np.isnan(gates[0]).all()
    assert np.array_equal(state[0, 0], h_prev) and np.array_equal(state[1, 0], c_prev)
    # a backward recomputes h from the tape's o and c with the same bits
    assert np.array_equal(gates[1, :, 2 * h:3 * h] * np.tanh(state[1, 1]), state[0, 1])


@pytest.mark.parametrize("B,h", [(1, 5), (16, 64)])
def test_lstm_gate_backward_is_the_textbook_expressions_bit_for_bit(B, h):
    # dpre is written over the gates in place, each product left to right;
    # its bits must be those of the out-of-place expressions, or a gradient
    # and a checkpoint would move
    d_in = 7
    p = init_lstm(d_in, h, seed=B)
    rng = np.random.default_rng(h + 1)
    x, h_prev, c_prev, dh, dc_in = (rng.normal(size=(B, n)) for n in (d_in, h, h, h, h))
    _, _, tape = taped_step(p, x, h_prev, c_prev)
    i, f, o, g = (tape.gates[:, k * h:(k + 1) * h].copy() for k in range(4))
    tanh_c = np.tanh(tape.c)
    do = dh * tanh_c
    dc = dc_in + dh * o * (1.0 - tanh_c ** 2)
    di, df, dg = dc * g, dc * c_prev, dc * i
    want = np.concatenate([di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o),
                           dg * (1.0 - g * g)], axis=1)
    gates = tape.gates
    dz, dc_prev = lstm_gate_backward(p, gates, tape.c, c_prev, dh, dc_in)
    assert np.array_equal(gates, want)
    assert np.array_equal(dz, want @ p.W)
    assert np.array_equal(dc_prev, dc * f)


def test_lstm_step_shape_errors():
    p = init_lstm(3, 4, seed=0)
    with pytest.raises(ShapeError):
        lstm_step(p, np.ones((1, 2)), *_zeros(1, 4))
    with pytest.raises(ShapeError):
        lstm_step(p, np.ones((1, 3)), *_zeros(1, 5))
    with pytest.raises(ShapeError):
        lstm_step(p, np.ones((2, 3)), *_zeros(1, 4))
    # an update in place needs float64 arrays: a cast would update a copy
    with pytest.raises(ShapeError):
        lstm_step(p, np.ones((1, 3)), np.zeros((1, 4), np.float32), np.zeros((1, 4)))


def test_lstm_step_batched_matches_loop():
    p = init_lstm(3, 4, seed=2)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 3))
    H = rng.normal(size=(6, 4))
    C = rng.normal(size=(6, 4))
    h, c, _ = taped_step(p, X, H, C)
    for i in range(6):
        hi, ci, _ = taped_step(p, X[i:i + 1], H[i:i + 1], C[i:i + 1])
        # matmul accumulation order differs between batched and single-row
        # calls, so agreement is to rounding, not bit-exact
        assert np.allclose(h[i], hi[0], atol=1e-15)
        assert np.allclose(c[i], ci[0], atol=1e-15)


# ---------------------------------------------------------------------------
# backward


def _lstm_flat(p):
    return np.concatenate([p.W.ravel(), p.b.ravel()])


def _lstm_from_flat(theta, d_in, h):
    nw = 4 * h * (d_in + h)
    return LstmParams(W=theta[:nw].reshape(4 * h, d_in + h).copy(),
                      b=theta[nw:].copy(), d_in=d_in, h=h)


def test_lstm_backward_zero_grads():
    p = init_lstm(2, 3, seed=0)
    _, _, tape = taped_step(p, np.ones((1, 2)), *_zeros(1, 3))
    (dW, db), dx, (dh, dc) = lstm_step_backward(p, tape, np.zeros((1, 3)), np.zeros((1, 3)))
    assert not np.any(dW) and not np.any(db)
    assert not np.any(dx) and not np.any(dh) and not np.any(dc)


@pytest.mark.parametrize("seed", range(5))
def test_lstm_backward_matches_fd(seed):
    d_in, h = 3, 4
    rng = np.random.default_rng(seed)
    p = init_lstm(d_in, h, seed=seed)
    x = rng.normal(size=(1, d_in))
    h0, c0 = rng.normal(size=(1, h)) * 0.5, rng.normal(size=(1, h)) * 0.5
    wh = rng.normal(size=(1, h))
    wc = rng.normal(size=(1, h))

    def f(theta):
        pp = _lstm_from_flat(theta, d_in, h)
        hh, c, _ = taped_step(pp, x, h0, c0)
        return float(np.sum(wh * hh + wc * c))

    _, _, tape = taped_step(p, x, h0, c0)
    (dW, db), _, _ = lstm_step_backward(p, tape, wh, wc)
    ga = np.concatenate([dW.ravel(), db.ravel()])
    rel = grad_check(f, _lstm_flat(p), ga, eps=1e-5)
    assert rel.max() <= 1e-6, np.flatnonzero(rel > 1e-6)[:3]


def test_lstm_backward_chained_input_gradient():
    # gradient wrt the step-1 input, flowing through two composed steps
    d_in = h = 3
    rng = np.random.default_rng(12)
    p = init_lstm(d_in, h, seed=12)
    x1 = rng.normal(size=(1, d_in))
    x2 = rng.normal(size=(1, d_in))
    w = rng.normal(size=(1, h))

    def f(x1v):
        h1, c1, _ = taped_step(p, x1v, *_zeros(1, h))
        h2, _, _ = taped_step(p, x2, h1, c1)
        return float(np.sum(w * h2))

    h1, c1, tape1 = taped_step(p, x1, *_zeros(1, h))
    _, _, tape2 = taped_step(p, x2, h1, c1)
    _, _, (dh1, dc1) = lstm_step_backward(p, tape2, w, np.zeros((1, h)))
    _, dx1, _ = lstm_step_backward(p, tape1, dh1, dc1)

    eps = 1e-6
    for k in range(d_in):
        e = np.zeros((1, d_in))
        e[0, k] = eps
        fd = (f(x1 + e) - f(x1 - e)) / (2 * eps)
        assert abs(dx1[0, k] - fd) < 1e-8


# ---------------------------------------------------------------------------
# prediction head


def test_head_param_count_closed_form():
    hp = init_head(3, 2, 4, 5, 4, seed=0)
    expected = (3 + 2 * 4 + 1) * 5 + (5 + 1) * 4 + (4 + 1) * 3
    assert sum(t.size for t in head_tensors(hp)) == expected


def test_head_zero_params_zero_output():
    hp = init_head(3, 2, 4, 5, 4, seed=0)
    for t in head_tensors(hp):
        t[...] = 0.0
    out, _ = head_forward(hp, np.ones((1, 3)), [np.ones((1, 4)), np.ones((1, 4))])
    assert np.array_equal(out, np.zeros((1, 3)))


def test_head_hand_computed_scalar():
    hp = HeadParams(W1=np.array([[1.0, 1.0]]), b1=np.zeros(1),
                    W2=np.array([[2.0]]), b2=np.zeros(1),
                    W3=np.array([[-1.5]]), b3=np.array([0.25]),
                    d_v=1, n_states=1, h=1)
    # positive branch: (-0.75)*2*(0.5+0.25)... laid out step by step:
    # a1 = 0.75, r1 = 0.75; a2 = 1.5, r2 = 1.5; out = -1.5*1.5 + 0.25 = -2.0
    out, _ = head_forward(hp, np.array([[0.5]]), [np.array([[0.25]])], slope=0.1)
    assert out[0, 0] == pytest.approx(-2.0, abs=1e-15)
    # negative branch through both leaky units
    out2, _ = head_forward(hp, np.array([[-0.5]]), [np.array([[-0.25]])], slope=0.1)
    # a1 = -0.75 -> r1 = -0.075; a2 = -0.15 -> r2 = -0.015; out = 0.2725
    assert out2[0, 0] == pytest.approx(0.2725, abs=1e-15)


def test_head_output_dim_contract():
    for d_v, n_states in [(2, 1), (3, 2), (5, 3)]:
        hp = init_head(d_v, n_states, 4, 6, 5, seed=d_v)
        out, _ = head_forward(hp, np.zeros((1, d_v)), [np.zeros((1, 4))] * n_states)
        assert out.shape == (1, d_v)


def test_head_wrong_hidden_count():
    hp = init_head(3, 2, 4, 5, 4, seed=0)
    with pytest.raises(ConfigError):
        head_forward(hp, np.zeros((1, 3)), [np.zeros((1, 4))])


def _head_flat(hp):
    return np.concatenate([t.ravel() for t in head_tensors(hp)])


def _head_set_flat(hp, theta):
    off = 0
    for t in head_tensors(hp):
        t[...] = theta[off:off + t.size].reshape(t.shape)
        off += t.size


def test_head_backward_zero_grad():
    hp = init_head(2, 2, 3, 4, 3, seed=4)
    _, tape = head_forward(hp, np.ones((1, 2)), [np.ones((1, 3)), np.ones((1, 3))])
    g, dv, dhs = head_backward(hp, np.ones((1, 2)), [np.ones((1, 3)), np.ones((1, 3))], tape,
                               np.zeros((1, 2)))
    assert all(not np.any(t) for t in g)
    assert not np.any(dv) and all(not np.any(d) for d in dhs)


@pytest.mark.parametrize("seed", range(5))
def test_head_backward_matches_fd(seed):
    d_v, n_states, h, h1, h2 = 3, 2, 4, 5, 4
    rng = np.random.default_rng(seed + 100)
    hp = init_head(d_v, n_states, h, h1, h2, seed=seed)
    v = rng.normal(size=(1, d_v))
    hiddens = [rng.normal(size=(1, h)) for _ in range(n_states)]
    w = rng.normal(size=(1, d_v))

    def f(theta):
        hp2 = init_head(d_v, n_states, h, h1, h2, seed=seed)
        _head_set_flat(hp2, theta)
        out, _ = head_forward(hp2, v, hiddens, slope=0.01)
        return float(np.sum(w * out))

    out, tape = head_forward(hp, v, hiddens, slope=0.01)
    g, _, _ = head_backward(hp, v, hiddens, tape, w)
    ga = np.concatenate([t.ravel() for t in g])
    rel = grad_check(f, _head_flat(hp), ga, eps=1e-5)
    assert rel.max() <= 1e-6, np.flatnonzero(rel > 1e-6)[:3]


def test_head_backward_hidden_input_gradients_match_fd():
    d_v, n_states, h = 2, 3, 3
    rng = np.random.default_rng(42)
    hp = init_head(d_v, n_states, h, 5, 4, seed=0)
    v = rng.normal(size=(1, d_v))
    hiddens = [rng.normal(size=(1, h)) for _ in range(n_states)]
    w = rng.normal(size=(1, d_v))
    _, tape = head_forward(hp, v, hiddens)
    _, _, dhs = head_backward(hp, v, hiddens, tape, w)
    eps = 1e-6
    for m in range(n_states):
        for k in range(h):
            bumped = [hh.copy() for hh in hiddens]
            bumped[m][0, k] += eps
            fp, _ = head_forward(hp, v, bumped)
            bumped[m][0, k] -= 2 * eps
            fm, _ = head_forward(hp, v, bumped)
            fd = float(np.sum(w * (fp - fm))) / (2 * eps)
            assert abs(dhs[m][0, k] - fd) < 1e-8


def test_head_dropout_masks_cached_and_exact():
    hp = init_head(2, 2, 3, 8, 6, seed=1)
    v = np.array([[0.3, -0.2]])
    hiddens = [np.full((1, 3), 0.1), np.full((1, 3), -0.1)]
    rng = np.random.default_rng(77)
    out, tape = head_forward(hp, v, hiddens, dropout_rate=0.5,
                             rng=rng, train=True)
    assert tape.mask1 is not None and tape.mask2 is not None
    # mask entries are 0 or 1/keep (inverted dropout)
    assert set(np.unique(tape.mask1)) <= {0.0, 2.0}
    # backward with the cached masks agrees with finite differences on W3,
    # holding the masks fixed
    w = np.array([[1.0, -1.0]])
    (_, _, _, _, dW3, _), _, _ = head_backward(hp, v, hiddens, tape, w)
    eps = 1e-6

    def f_fixed_mask(W3):
        a1 = np.concatenate([v] + hiddens, axis=1)[0] @ hp.W1.T + hp.b1
        r1 = np.where(a1 >= 0, a1, 0.01 * a1) * tape.mask1[0]
        a2 = r1 @ hp.W2.T + hp.b2
        r2 = np.where(a2 >= 0, a2, 0.01 * a2) * tape.mask2[0]
        return float(w[0] @ (W3 @ r2 + hp.b3))

    for idx in [(0, 0), (1, 3)]:
        W3p = hp.W3.copy(); W3p[idx] += eps
        W3m = hp.W3.copy(); W3m[idx] -= eps
        fd = (f_fixed_mask(W3p) - f_fixed_mask(W3m)) / (2 * eps)
        assert abs(dW3[idx] - fd) < 1e-8


def test_head_dropout_requires_rng():
    hp = init_head(2, 1, 3, 4, 3, seed=0)
    with pytest.raises(ConfigError):
        head_forward(hp, np.zeros((1, 2)), [np.zeros((1, 3))], dropout_rate=0.2,
                     train=True)
    # eval mode never applies dropout
    out, tape = head_forward(hp, np.ones((1, 2)), [np.ones((1, 3))], dropout_rate=0.2,
                             train=False)
    assert tape.mask1 is None


def test_head_skip_draws_the_masks_head_forward_draws():
    hp = init_head(2, 1, 3, 8, 6, seed=1)
    ran, skipped = np.random.default_rng(9), np.random.default_rng(9)
    head_forward(hp, np.ones((4, 2)), [np.ones((4, 3))], dropout_rate=0.3, rng=ran,
                 train=True)
    head_skip(hp, 4, dropout_rate=0.3, rng=skipped, train=True)
    assert ran.bit_generator.state == skipped.bit_generator.state
    with pytest.raises(ConfigError):
        head_skip(hp, 4, dropout_rate=0.3, train=True)


# ---------------------------------------------------------------------------
# the (B, d) contract


def test_layers_reject_unbatched_arrays():
    # every layer takes and returns (B, d) arrays; a single vector (d,) is a
    # ShapeError, never a batch of one
    p = init_lstm(3, 4, seed=0)
    hp = init_head(3, 1, 4, 5, 4, seed=0)
    with pytest.raises(ShapeError):
        lstm_step(p, np.ones(3), *_zeros(1, 4))
    with pytest.raises(ShapeError):
        lstm_step(p, np.ones((1, 3)), np.zeros(4), np.zeros(4))
    _, _, tape = taped_step(p, np.ones((1, 3)), *_zeros(1, 4))
    with pytest.raises(ShapeError):
        lstm_step_backward(p, tape, np.zeros(4), np.zeros(4))
    with pytest.raises(ShapeError):
        head_forward(hp, np.ones(3), [np.ones((1, 4))])
    with pytest.raises(ShapeError):
        head_forward(hp, np.ones((1, 3)), [np.ones(4)])
    _, htape = head_forward(hp, np.ones((1, 3)), [np.ones((1, 4))])
    with pytest.raises(ShapeError):
        head_backward(hp, np.ones((1, 3)), [np.ones((1, 4))], htape, np.zeros(3))


def test_backward_cores_name_themselves_in_shape_errors():
    # arch.rollout_backward calls the cores directly, so their errors name them
    p = init_lstm(3, 4, seed=0)
    _, _, tape = taped_step(p, np.ones((2, 3)), *_zeros(2, 4))
    with pytest.raises(ShapeError, match=r"^lstm_gate_backward: grad shapes"):
        lstm_gate_backward(p, tape.gates, tape.c, tape.c_prev, np.zeros((2, 5)),
                           np.zeros((2, 4)))
    hp = init_head(3, 1, 4, 5, 4, seed=0)
    _, htape = head_forward(hp, np.ones((2, 3)), [np.ones((2, 4))])
    with pytest.raises(ShapeError, match=r"^head_layer_backward: grad shape"):
        head_layer_backward(hp, htape, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# the finite-difference helper itself: it passes a right gradient and flags a
# wrong one, so the tests above can fail


def test_grad_check_quadratic():
    rel = grad_check(lambda w: float(w[0] ** 2), np.array([3.0]), np.array([6.0]),
                     eps=1e-5)
    assert rel.max() < 1e-9


def test_grad_check_flags_corrupted_gradient():
    rel = grad_check(lambda w: float(w[0] ** 2), np.array([3.0]),
                     np.array([6.0 * 1.1]), eps=1e-5)
    assert rel[0] > 1e-5
