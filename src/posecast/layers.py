"""LSTM cell and prediction head with exact analytic backward passes.

Gate storage order in the stacked weight matrix is (i, f, o, g):
input gate, forget gate, output gate, candidate.  This order is part of
the checkpoint format and must not change.

Every forward op returns a tape caching the intermediates needed to run
the matching backward op.  Inputs may be single vectors (d,) or batches
(B, d); batched calls produce parameter gradients summed over the batch.

Each backward is split in two.  `lstm_gate_backward` and
`head_layer_backward` carry the gradient through one step: the derivatives
w.r.t. the preactivations and the inputs, which the recurrence needs at
once.  A weight gradient is then the preactivation gradient transposed times
the layer input (`dpre.T @ z`), a sum over rows that does not feed the
recurrence.  The single-step `lstm_step_backward` and `head_backward` form it
per call; `arch.rollout_backward` stacks the rows of many steps and forms it
as a few time-batched GEMMs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .numcore import as_f64, seeded_rng

__all__ = [
    "LstmParams",
    "LstmState",
    "LstmGrads",
    "init_lstm",
    "lstm_step",
    "lstm_step_backward",
    "lstm_gate_backward",
    "HeadParams",
    "HeadGrads",
    "init_head",
    "head_forward",
    "head_backward",
    "head_layer_backward",
    "lstm_param_count",
    "head_param_count",
    "GradCheckReport",
    "grad_check",
]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _promote(x):
    x = as_f64(x)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ShapeError(f"expected 1-D or 2-D array, got shape {x.shape}")


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LstmParams:
    W: np.ndarray  # (4h, d_in + h), gate rows ordered (i, f, o, g)
    b: np.ndarray  # (4h,)
    d_in: int
    h: int

    def tensors(self):
        return [("W", self.W), ("b", self.b)]

    @property
    def n_params(self) -> int:
        return self.W.size + self.b.size


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, h: int, batch: int | None = None) -> "LstmState":
        shape = (h,) if batch is None else (batch, h)
        return cls(np.zeros(shape), np.zeros(shape))


@dataclass
class LstmGrads:
    dW: np.ndarray
    db: np.ndarray

    def tensors(self):
        return [self.dW, self.db]


def lstm_param_count(d_in: int, h: int) -> int:
    return 4 * h * (d_in + h + 1)


def init_lstm(d_in: int, h: int, seed: int, *, stream: tuple = (),
              forget_bias: float = 1.0) -> LstmParams:
    """Weights uniform in [-1/sqrt(h), 1/sqrt(h)]; forget-gate bias slice
    set to `forget_bias` (default 1.0), other biases zero."""
    if d_in < 1 or h < 1:
        raise ConfigError(f"init_lstm: d_in and h must be >= 1, got {d_in}, {h}")
    rng = seeded_rng(seed, *stream)
    bound = 1.0 / math.sqrt(h)
    W = rng.uniform(-bound, bound, size=(4 * h, d_in + h))
    b = np.zeros(4 * h)
    b[h:2 * h] = forget_bias
    return LstmParams(W=W, b=b, d_in=d_in, h=h)


@dataclass
class LstmTape:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c_new: np.ndarray
    tanh_c: np.ndarray
    squeeze: bool


def lstm_step(p: LstmParams, x, s: LstmState):
    """One LSTM step.  Returns (next state, tape)."""
    x2, sq = _promote(x)
    h2, _ = _promote(s.h)
    c2, _ = _promote(s.c)
    h = p.h
    if x2.shape[1] != p.d_in:
        raise ShapeError(f"lstm_step: input dim {x2.shape[1]} != d_in {p.d_in}")
    if h2.shape[1] != h or c2.shape[1] != h:
        raise ShapeError(f"lstm_step: state dims {h2.shape[1]}/{c2.shape[1]} != h {h}")
    if h2.shape[0] != x2.shape[0] or c2.shape[0] != x2.shape[0]:
        raise ShapeError("lstm_step: batch size mismatch between input and state")
    z = np.concatenate([x2, h2], axis=1)
    pre = z @ p.W.T + p.b
    i = _sigmoid(pre[:, 0 * h:1 * h])
    f = _sigmoid(pre[:, 1 * h:2 * h])
    o = _sigmoid(pre[:, 2 * h:3 * h])
    g = np.tanh(pre[:, 3 * h:4 * h])
    c_new = f * c2 + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    tape = LstmTape(x=x2, h_prev=h2, c_prev=c2, i=i, f=f, o=o, g=g,
                    c_new=c_new, tanh_c=tanh_c, squeeze=sq)
    if sq:
        return LstmState(h=h_new[0], c=c_new[0]), tape
    return LstmState(h=h_new, c=c_new), tape


def lstm_gate_backward(p: LstmParams, tape: LstmTape, dh: np.ndarray, dc_in: np.ndarray):
    """Gradient through one batched LSTM step, without the weight gradient.

    dh / dc_in: (B, h) gradients w.r.t. the step's output state.  Returns
    (dpre, dz, dc_prev): dpre (B, 4h) w.r.t. the gate preactivations in
    (i, f, o, g) order, dz (B, d_in + h) w.r.t. z = [x, h_prev], and
    dc_prev (B, h).  The step's weight gradient is dpre.T @ z and its bias
    gradient dpre summed over rows.
    """
    if dh.shape != tape.tanh_c.shape or dc_in.shape != tape.tanh_c.shape:
        raise ShapeError(
            f"lstm_step_backward: grad shapes {dh.shape}/{dc_in.shape} "
            f"do not match tape {tape.tanh_c.shape}")
    i, f, o, g = tape.i, tape.f, tape.o, tape.g
    do = dh * tape.tanh_c
    dc = dc_in + dh * o * (1.0 - tape.tanh_c ** 2)
    di = dc * g
    df = dc * tape.c_prev
    dg = dc * i
    dc_prev = dc * f
    dpre = np.concatenate([
        di * i * (1.0 - i),
        df * f * (1.0 - f),
        do * o * (1.0 - o),
        dg * (1.0 - g * g),
    ], axis=1)
    return dpre, dpre @ p.W, dc_prev


def lstm_step_backward(p: LstmParams, tape: LstmTape, grad_h, grad_c):
    """Backward of lstm_step.

    grad_h / grad_c are gradients w.r.t. the step's output state.  Returns
    (LstmGrads, grad_x, (grad_h_prev, grad_c_prev)).
    """
    dh, sq = _promote(grad_h)
    dc_in, _ = _promote(grad_c)
    dpre, dz, dc_prev = lstm_gate_backward(p, tape, dh, dc_in)
    dW = dpre.T @ np.concatenate([tape.x, tape.h_prev], axis=1)
    db = dpre.sum(axis=0)
    dx = dz[:, :p.d_in]
    dh_prev = dz[:, p.d_in:]
    if sq and tape.squeeze:
        return LstmGrads(dW, db), dx[0], (dh_prev[0], dc_prev[0])
    return LstmGrads(dW, db), dx, (dh_prev, dc_prev)


# ---------------------------------------------------------------------------
# Prediction head: concat -> fc -> leaky_relu -> fc -> leaky_relu -> linear


@dataclass
class HeadParams:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray
    d_v: int
    n_states: int  # hidden states consumed, one per hierarchy level
    h: int

    def tensors(self):
        return [("W1", self.W1), ("b1", self.b1), ("W2", self.W2),
                ("b2", self.b2), ("W3", self.W3), ("b3", self.b3)]

    @property
    def n_params(self) -> int:
        return sum(t.size for _, t in self.tensors())


@dataclass
class HeadGrads:
    dW1: np.ndarray
    db1: np.ndarray
    dW2: np.ndarray
    db2: np.ndarray
    dW3: np.ndarray
    db3: np.ndarray

    def tensors(self):
        return [self.dW1, self.db1, self.dW2, self.db2, self.dW3, self.db3]


def head_param_count(d_v: int, n_states: int, h: int, h1: int, h2: int) -> int:
    d_in = d_v + n_states * h
    return (d_in + 1) * h1 + (h1 + 1) * h2 + (h2 + 1) * d_v


def init_head(d_v: int, n_states: int, h: int, h1: int, h2: int, seed: int,
              *, stream: tuple = ()) -> HeadParams:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights per layer, zero biases."""
    if min(d_v, n_states, h, h1, h2) < 1:
        raise ConfigError("init_head: all dimensions must be >= 1")
    d_in = d_v + n_states * h
    dims = [(h1, d_in), (h2, h1), (d_v, h2)]
    Ws = []
    for li, (rows, cols) in enumerate(dims):
        rng = seeded_rng(seed, *stream, li)
        bound = 1.0 / math.sqrt(cols)
        Ws.append(rng.uniform(-bound, bound, size=(rows, cols)))
    return HeadParams(W1=Ws[0], b1=np.zeros(h1), W2=Ws[1], b2=np.zeros(h2),
                      W3=Ws[2], b3=np.zeros(d_v), d_v=d_v, n_states=n_states, h=h)


@dataclass
class HeadTape:
    z: np.ndarray        # concatenated input
    d1: np.ndarray       # activation derivative, layer 1
    d2: np.ndarray
    r1: np.ndarray       # post-activation (and post-dropout) layer-1 output
    r2: np.ndarray
    mask1: np.ndarray | None
    mask2: np.ndarray | None
    squeeze: bool


def head_forward(hp: HeadParams, v_t, hiddens, slope: float = 0.01,
                 dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
                 train: bool = False):
    """Predict the next velocity from the current one plus M hidden states.

    Dropout (inverted, rate `dropout_rate`) is applied to both hidden
    activations when `train` is true and the rate is positive; the masks are
    cached on the tape so backward and replay are exact.
    """
    if len(hiddens) != hp.n_states:
        raise ConfigError(
            f"head_forward: expected {hp.n_states} hidden states, got {len(hiddens)}")
    v2, sq = _promote(v_t)
    hs = [_promote(hh)[0] for hh in hiddens]
    parts = [v2] + hs
    if v2.shape[1] != hp.d_v:
        raise ShapeError(f"head_forward: velocity dim {v2.shape[1]} != d_v {hp.d_v}")
    for hh in hs:
        if hh.shape != (v2.shape[0], hp.h):
            raise ShapeError(f"head_forward: hidden shape {hh.shape} != "
                             f"({v2.shape[0]}, {hp.h})")
    z = np.concatenate(parts, axis=1)
    a1 = z @ hp.W1.T + hp.b1
    r1 = np.where(a1 >= 0, a1, slope * a1)
    d1 = np.where(a1 >= 0, 1.0, slope)
    mask1 = mask2 = None
    use_dropout = train and dropout_rate > 0.0
    if use_dropout:
        if rng is None:
            raise ConfigError("head_forward: dropout requires an rng in train mode")
        keep = 1.0 - dropout_rate
        mask1 = (rng.random(r1.shape) < keep) / keep
        r1 = r1 * mask1
    a2 = r1 @ hp.W2.T + hp.b2
    r2 = np.where(a2 >= 0, a2, slope * a2)
    d2 = np.where(a2 >= 0, 1.0, slope)
    if use_dropout:
        keep = 1.0 - dropout_rate
        mask2 = (rng.random(r2.shape) < keep) / keep
        r2 = r2 * mask2
    out = r2 @ hp.W3.T + hp.b3
    tape = HeadTape(z=z, d1=d1, d2=d2, r1=r1, r2=r2, mask1=mask1, mask2=mask2,
                    squeeze=sq)
    return (out[0] if sq else out), tape


def head_layer_backward(hp: HeadParams, tape: HeadTape, dout: np.ndarray):
    """Gradient through one batched head call, without the weight gradients.

    dout: (B, d_v) gradient w.r.t. the output.  Returns (da1, da2, dz):
    gradients w.r.t. the layer-1 and layer-2 preactivations and the
    concatenated input z.  The weight gradients are dout.T @ r2 (W3),
    da2.T @ r1 (W2) and da1.T @ z (W1), each bias gradient the row sum of the
    matching output gradient.
    """
    if dout.shape[1] != hp.d_v or dout.shape[0] != tape.z.shape[0]:
        raise ShapeError(f"head_backward: grad shape {dout.shape} does not match tape")
    dr2 = dout @ hp.W3
    if tape.mask2 is not None:
        dr2 = dr2 * tape.mask2
    da2 = dr2 * tape.d2
    dr1 = da2 @ hp.W2
    if tape.mask1 is not None:
        dr1 = dr1 * tape.mask1
    da1 = dr1 * tape.d1
    return da1, da2, da1 @ hp.W1


def head_backward(hp: HeadParams, tape: HeadTape, grad_out):
    """Backward of head_forward.

    Returns (HeadGrads, grad_v_t, [grad_hidden_m for each level]).
    """
    dout, sq = _promote(grad_out)
    da1, da2, dz = head_layer_backward(hp, tape, dout)
    grads = HeadGrads(da1.T @ tape.z, da1.sum(axis=0), da2.T @ tape.r1,
                      da2.sum(axis=0), dout.T @ tape.r2, dout.sum(axis=0))
    dv = dz[:, :hp.d_v]
    dhs = []
    for m in range(hp.n_states):
        lo = hp.d_v + m * hp.h
        dhs.append(dz[:, lo:lo + hp.h])
    if sq and tape.squeeze:
        return grads, dv[0], [d[0] for d in dhs]
    return grads, dv, dhs


# ---------------------------------------------------------------------------
# Finite-difference gradient verification


@dataclass
class GradCheckReport:
    max_rel_error: float
    failures: list = field(default_factory=list)  # (index, analytic, fd, rel)
    n_params: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def grad_check(f, params, analytic, eps: float = 1e-5, tol: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    f: callable mapping a flat parameter vector to a scalar.
    params: flat parameter vector at which to check.
    analytic: flat analytic gradient, or a callable params -> gradient.

    Per-parameter relative error is |g_a - g_fd| / max(|g_a|, |g_fd|, 1e-8).
    Failures above tol are reported as data, never raised.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    theta = as_f64(params).copy()
    g_a = as_f64(analytic(theta) if callable(analytic) else analytic)
    if g_a.shape != theta.shape:
        raise ShapeError(f"grad_check: analytic shape {g_a.shape} != params {theta.shape}")
    failures = []
    max_rel = 0.0
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + eps
        fp = float(f(theta))
        theta[k] = orig - eps
        fm = float(f(theta))
        theta[k] = orig
        g_fd = (fp - fm) / (2.0 * eps)
        rel = abs(g_a[k] - g_fd) / max(abs(g_a[k]), abs(g_fd), 1e-8)
        max_rel = max(max_rel, rel)
        if rel > tol:
            failures.append((k, float(g_a[k]), g_fd, rel))
    return GradCheckReport(max_rel_error=max_rel, failures=failures,
                           n_params=theta.size)
