import math

import numpy as np
import pytest

from posecast.errors import ConfigError, ShapeError
from posecast.layers import (HeadParams, LstmParams, LstmState, grad_check,
                             head_backward, head_forward, head_param_count,
                             init_head, init_lstm, lstm_param_count, lstm_step,
                             lstm_step_backward)


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
    assert lstm_param_count(3, 4) == 128
    assert p.n_params == 128
    assert sum(a.size for _, a in p.tensors()) == 128


# ---------------------------------------------------------------------------
# forward


def test_lstm_step_all_zero_params():
    p = _zeroed(init_lstm(3, 4, seed=0))
    s, _ = lstm_step(p, np.ones(3), LstmState.zeros(4))
    assert np.array_equal(s.h, np.zeros(4))
    assert np.array_equal(s.c, np.zeros(4))


def test_lstm_step_gate_saturation_preserves_cell():
    h = 4
    p = _zeroed(init_lstm(2, h, seed=0))
    p.b[0 * h:1 * h] = -50.0  # input gate shut
    p.b[1 * h:2 * h] = +50.0  # forget gate open
    p.b[2 * h:3 * h] = -50.0  # output gate shut
    s, _ = lstm_step(p, np.zeros(2), LstmState(h=np.zeros(h), c=np.ones(h)))
    assert np.allclose(s.c, np.ones(h), atol=1e-12)
    assert np.allclose(s.h, np.zeros(h), atol=1e-12)


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

    s, _ = lstm_step(p, np.array(x), LstmState(h=np.array(h_prev), c=np.array(c_prev)))
    assert np.allclose(s.h, exp_h, atol=1e-15)
    assert np.allclose(s.c, exp_c, atol=1e-15)


def test_lstm_step_shape_errors():
    p = init_lstm(3, 4, seed=0)
    with pytest.raises(ShapeError):
        lstm_step(p, np.ones(2), LstmState.zeros(4))
    with pytest.raises(ShapeError):
        lstm_step(p, np.ones(3), LstmState.zeros(5))


def test_lstm_step_batched_matches_loop():
    p = init_lstm(3, 4, seed=2)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(6, 3))
    H = rng.normal(size=(6, 4))
    C = rng.normal(size=(6, 4))
    s, _ = lstm_step(p, X, LstmState(h=H, c=C))
    for i in range(6):
        si, _ = lstm_step(p, X[i], LstmState(h=H[i], c=C[i]))
        # matmul accumulation order differs between batched and single-row
        # calls, so agreement is to rounding, not bit-exact
        assert np.allclose(s.h[i], si.h, atol=1e-15)
        assert np.allclose(s.c[i], si.c, atol=1e-15)


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
    _, tape = lstm_step(p, np.ones(2), LstmState.zeros(3))
    g, dx, (dh, dc) = lstm_step_backward(p, tape, np.zeros(3), np.zeros(3))
    assert not np.any(g.dW) and not np.any(g.db)
    assert not np.any(dx) and not np.any(dh) and not np.any(dc)


@pytest.mark.parametrize("seed", range(5))
def test_lstm_backward_matches_fd(seed):
    d_in, h = 3, 4
    rng = np.random.default_rng(seed)
    p = init_lstm(d_in, h, seed=seed)
    x = rng.normal(size=d_in)
    s0 = LstmState(h=rng.normal(size=h) * 0.5, c=rng.normal(size=h) * 0.5)
    wh = rng.normal(size=h)
    wc = rng.normal(size=h)

    def f(theta):
        pp = _lstm_from_flat(theta, d_in, h)
        s, _ = lstm_step(pp, x, LstmState(h=s0.h.copy(), c=s0.c.copy()))
        return float(wh @ s.h + wc @ s.c)

    _, tape = lstm_step(p, x, s0)
    g, _, _ = lstm_step_backward(p, tape, wh, wc)
    ga = np.concatenate([g.dW.ravel(), g.db.ravel()])
    rep = grad_check(f, _lstm_flat(p), ga, eps=1e-5, tol=1e-6)
    assert rep.ok, rep.failures[:3]


def test_lstm_backward_chained_input_gradient():
    # gradient wrt the step-1 input, flowing through two composed steps
    d_in = h = 3
    rng = np.random.default_rng(12)
    p = init_lstm(d_in, h, seed=12)
    x1 = rng.normal(size=d_in)
    x2 = rng.normal(size=d_in)
    w = rng.normal(size=h)

    def f(x1v):
        s1, _ = lstm_step(p, x1v, LstmState.zeros(h))
        s2, _ = lstm_step(p, x2, s1)
        return float(w @ s2.h)

    s1, tape1 = lstm_step(p, x1, LstmState.zeros(h))
    _, tape2 = lstm_step(p, x2, s1)
    _, _, (dh1, dc1) = lstm_step_backward(p, tape2, w, np.zeros(h))
    _, dx1, _ = lstm_step_backward(p, tape1, dh1, dc1)

    eps = 1e-6
    for k in range(d_in):
        e = np.zeros(d_in)
        e[k] = eps
        fd = (f(x1 + e) - f(x1 - e)) / (2 * eps)
        assert abs(dx1[k] - fd) < 1e-8


# ---------------------------------------------------------------------------
# prediction head


def test_head_param_count_closed_form():
    hp = init_head(3, 2, 4, 5, 4, seed=0)
    expected = (3 + 2 * 4 + 1) * 5 + (5 + 1) * 4 + (4 + 1) * 3
    assert head_param_count(3, 2, 4, 5, 4) == expected
    assert hp.n_params == expected


def test_head_zero_params_zero_output():
    hp = init_head(3, 2, 4, 5, 4, seed=0)
    for _, t in hp.tensors():
        t[...] = 0.0
    out, _ = head_forward(hp, np.ones(3), [np.ones(4), np.ones(4)])
    assert np.array_equal(out, np.zeros(3))


def test_head_hand_computed_scalar():
    hp = HeadParams(W1=np.array([[1.0, 1.0]]), b1=np.zeros(1),
                    W2=np.array([[2.0]]), b2=np.zeros(1),
                    W3=np.array([[-1.5]]), b3=np.array([0.25]),
                    d_v=1, n_states=1, h=1)
    # positive branch: (-0.75)*2*(0.5+0.25)... laid out step by step:
    # a1 = 0.75, r1 = 0.75; a2 = 1.5, r2 = 1.5; out = -1.5*1.5 + 0.25 = -2.0
    out, _ = head_forward(hp, np.array([0.5]), [np.array([0.25])], slope=0.1)
    assert out[0] == pytest.approx(-2.0, abs=1e-15)
    # negative branch through both leaky units
    out2, _ = head_forward(hp, np.array([-0.5]), [np.array([-0.25])], slope=0.1)
    # a1 = -0.75 -> r1 = -0.075; a2 = -0.15 -> r2 = -0.015; out = 0.2725
    assert out2[0] == pytest.approx(0.2725, abs=1e-15)


def test_head_output_dim_contract():
    for d_v, n_states in [(2, 1), (3, 2), (5, 3)]:
        hp = init_head(d_v, n_states, 4, 6, 5, seed=d_v)
        out, _ = head_forward(hp, np.zeros(d_v), [np.zeros(4)] * n_states)
        assert out.shape == (d_v,)


def test_head_wrong_hidden_count():
    hp = init_head(3, 2, 4, 5, 4, seed=0)
    with pytest.raises(ConfigError):
        head_forward(hp, np.zeros(3), [np.zeros(4)])


def _head_flat(hp):
    return np.concatenate([t.ravel() for _, t in hp.tensors()])


def _head_set_flat(hp, theta):
    off = 0
    for _, t in hp.tensors():
        t[...] = theta[off:off + t.size].reshape(t.shape)
        off += t.size


def test_head_backward_zero_grad():
    hp = init_head(2, 2, 3, 4, 3, seed=4)
    _, tape = head_forward(hp, np.ones(2), [np.ones(3), np.ones(3)])
    g, dv, dhs = head_backward(hp, tape, np.zeros(2))
    assert all(not np.any(t) for t in g.tensors())
    assert not np.any(dv) and all(not np.any(d) for d in dhs)


@pytest.mark.parametrize("seed", range(5))
def test_head_backward_matches_fd(seed):
    d_v, n_states, h, h1, h2 = 3, 2, 4, 5, 4
    rng = np.random.default_rng(seed + 100)
    hp = init_head(d_v, n_states, h, h1, h2, seed=seed)
    v = rng.normal(size=d_v)
    hiddens = [rng.normal(size=h) for _ in range(n_states)]
    w = rng.normal(size=d_v)

    def f(theta):
        hp2 = init_head(d_v, n_states, h, h1, h2, seed=seed)
        _head_set_flat(hp2, theta)
        out, _ = head_forward(hp2, v, hiddens, slope=0.01)
        return float(w @ out)

    out, tape = head_forward(hp, v, hiddens, slope=0.01)
    g, _, _ = head_backward(hp, tape, w)
    ga = np.concatenate([t.ravel() for t in g.tensors()])
    rep = grad_check(f, _head_flat(hp), ga, eps=1e-5, tol=1e-6)
    assert rep.ok, rep.failures[:3]


def test_head_backward_hidden_input_gradients_match_fd():
    d_v, n_states, h = 2, 3, 3
    rng = np.random.default_rng(42)
    hp = init_head(d_v, n_states, h, 5, 4, seed=0)
    v = rng.normal(size=d_v)
    hiddens = [rng.normal(size=h) for _ in range(n_states)]
    w = rng.normal(size=d_v)
    _, tape = head_forward(hp, v, hiddens)
    _, _, dhs = head_backward(hp, tape, w)
    eps = 1e-6
    for m in range(n_states):
        for k in range(h):
            bumped = [hh.copy() for hh in hiddens]
            bumped[m][k] += eps
            fp, _ = head_forward(hp, v, bumped)
            bumped[m][k] -= 2 * eps
            fm, _ = head_forward(hp, v, bumped)
            fd = float(w @ (fp - fm)) / (2 * eps)
            assert abs(dhs[m][k] - fd) < 1e-8


def test_head_dropout_masks_cached_and_exact():
    hp = init_head(2, 2, 3, 8, 6, seed=1)
    v = np.array([0.3, -0.2])
    hiddens = [np.full(3, 0.1), np.full(3, -0.1)]
    rng = np.random.default_rng(77)
    out, tape = head_forward(hp, v, hiddens, dropout_rate=0.5,
                             rng=rng, train=True)
    assert tape.mask1 is not None and tape.mask2 is not None
    # mask entries are 0 or 1/keep (inverted dropout)
    assert set(np.unique(tape.mask1)) <= {0.0, 2.0}
    # backward with the cached masks agrees with finite differences on W3,
    # holding the masks fixed
    w = np.array([1.0, -1.0])
    g, _, _ = head_backward(hp, tape, w)
    eps = 1e-6

    def f_fixed_mask(W3):
        a1 = np.concatenate([v] + hiddens) @ hp.W1.T + hp.b1
        r1 = np.where(a1 >= 0, a1, 0.01 * a1) * tape.mask1[0]
        a2 = r1 @ hp.W2.T + hp.b2
        r2 = np.where(a2 >= 0, a2, 0.01 * a2) * tape.mask2[0]
        return float(w @ (W3 @ r2 + hp.b3))

    for idx in [(0, 0), (1, 3)]:
        W3p = hp.W3.copy(); W3p[idx] += eps
        W3m = hp.W3.copy(); W3m[idx] -= eps
        fd = (f_fixed_mask(W3p) - f_fixed_mask(W3m)) / (2 * eps)
        assert abs(g.dW3[idx] - fd) < 1e-8


def test_head_dropout_requires_rng():
    hp = init_head(2, 1, 3, 4, 3, seed=0)
    with pytest.raises(ConfigError):
        head_forward(hp, np.zeros(2), [np.zeros(3)], dropout_rate=0.2,
                     train=True)
    # eval mode never applies dropout
    out, tape = head_forward(hp, np.ones(2), [np.ones(3)], dropout_rate=0.2,
                             train=False)
    assert tape.mask1 is None


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_quadratic():
    rep = grad_check(lambda w: float(w[0] ** 2), np.array([3.0]),
                     np.array([6.0]), eps=1e-5, tol=1e-6)
    assert rep.ok
    assert rep.max_rel_error < 1e-9


def test_grad_check_flags_corrupted_gradient():
    rep = grad_check(lambda w: float(w[0] ** 2), np.array([3.0]),
                     np.array([6.0 * 1.1]), eps=1e-5, tol=1e-5)
    assert not rep.ok
    assert rep.failures[0][0] == 0


def test_grad_check_rejects_bad_eps():
    with pytest.raises(ValueError):
        grad_check(lambda w: 0.0, np.zeros(1), np.zeros(1), eps=0.0)
