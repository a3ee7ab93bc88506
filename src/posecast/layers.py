"""LSTM cell and prediction head with exact analytic backward passes.

Gate storage order in the stacked weight matrix is (i, f, o, g):
input gate, forget gate, output gate, candidate.  This order is part of
the checkpoint format and must not change.

The LSTM step updates the caller's state in place (`lstm_step`,
`lstm_gates`): c goes from c_prev to c_new and h receives o * tanh(c_new),
so a state bank's slab rows are the state.  An LSTM backward reads the
step's gates (i, f, o, g) as `lstm_gates` leaves them and its new c, and
recomputes tanh(c) and h from those with the ufuncs `lstm_gates` uses, so
they have the forward's bits; `LstmTape` names those plus the step's input
and previous state.  The kernels set no floating-point error policy: a
saturating gate's exp overflow is the caller's to state, and the engine's
forward stages in `arch` do.  The head returns a tape of its activation
derivatives and outputs, not its inputs, so `head_backward` takes those
again.  Every input, state and gradient is a (B, d) batch, and every output
one too; parameter gradients are summed over the batch.

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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numcore import as_f64, seeded_rng

__all__ = [
    "LstmParams",
    "draw_lstm",
    "lstm_step",
    "lstm_gates",
    "lstm_step_backward",
    "lstm_gate_backward",
    "HeadParams",
    "draw_head",
    "head_forward",
    "head_skip",
    "head_backward",
    "head_layer_backward",
]


def _batch(name: str, x) -> np.ndarray:
    """x as a float64 (B, d) array; ShapeError for any other rank."""
    x = as_f64(x)
    if x.ndim != 2:
        raise ShapeError(f"{name}: expected a (B, d) array, got shape {x.shape}")
    return x


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LstmParams:
    W: np.ndarray  # (4h, d_in + h), gate rows ordered (i, f, o, g)
    b: np.ndarray  # (4h,)
    d_in: int
    h: int


# Elements per `rng.uniform` call in `_draw_uniform`: its temporaries are
# block-sized, never tensor-sized.
_DRAW_BLOCK = 1 << 16


def _draw_uniform(rng: np.random.Generator, bound: float, out: np.ndarray):
    """Fill the C-contiguous `out` with the values, in the same order, that
    `rng.uniform(-bound, bound, size=out.shape)` returns, _DRAW_BLOCK at a
    time: each element consumes one draw, so blocking changes no value."""
    flat = out.reshape(-1)
    for i in range(0, flat.size, _DRAW_BLOCK):
        block = flat[i:i + _DRAW_BLOCK]
        block[...] = rng.uniform(-bound, bound, size=block.size)


def draw_lstm(p: LstmParams, seed: int, *, stream: tuple = (), forget_bias: float = 1.0):
    """Initialize p's arrays in place: weights uniform in [-1/sqrt(h),
    1/sqrt(h)] from RNG stream (seed, *stream); forget-gate bias slice set to
    `forget_bias` (default 1.0), other biases zero."""
    _draw_uniform(seeded_rng(seed, *stream), 1.0 / math.sqrt(p.h), p.W)
    p.b[...] = 0.0
    p.b[p.h:2 * p.h] = forget_bias


@dataclass
class LstmTape:
    """What `lstm_step_backward` reads of one step."""
    x: np.ndarray       # the step's input and previous state
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray   # (B, 4h): i, f, o, g as `lstm_gates` leaves them
    c: np.ndarray       # (B, h): the new cell state


def lstm_step(p: LstmParams, x, h: np.ndarray, c: np.ndarray,
              gates: np.ndarray | None = None):
    """One LSTM step on a (B, d_in) input and the (B, h) float64 state h, c,
    which it updates in place: [x, h] is read first, then c becomes the new
    cell state and h the new hidden state.  The gates are computed in
    `gates`, a (B, 4h) float64 C-contiguous array, when it is given (a row
    of a recorded rollout's slab), else in a new one."""
    x2 = _batch("lstm_step", x)
    if x2.shape[1] != p.d_in:
        raise ShapeError(f"lstm_step: input dim {x2.shape[1]} != d_in {p.d_in}")
    # updated in place, so never cast: a cast would update a copy
    if not all(isinstance(a, np.ndarray) and a.dtype == np.float64
               and a.shape == (len(x2), p.h) for a in (h, c)):
        raise ShapeError(f"lstm_step: the state must be two float64 ({len(x2)}, {p.h}) arrays")
    pre = np.matmul(np.concatenate([x2, h], axis=1), p.W.T, out=gates)
    pre += p.b
    lstm_gates(pre, c, h)


def lstm_gates(pre: np.ndarray, c: np.ndarray, h: np.ndarray):
    """The LSTM update from gate preactivations pre (rows, 4h), ordered
    (i, f, o, g), in place: c (rows, h) goes from the previous cell state to
    the new one, h (rows, h) receives o * tanh(c_new), and pre's first 3h
    columns become the sigmoid gates i, f, o and its last h the candidate
    g = tanh.  The elementwise operations are those of 1 / (1 + exp(-x)),
    tanh, f * c_prev + i * g and o * tanh(c_new) in the same order, so the
    bits are those of the out-of-place expressions, and a backward that
    recomputes o * np.tanh(c_new) gets h's bits.  h holds nothing until
    its final product, so it takes i * g: the call makes no temporary.
    """
    n = c.shape[1]
    sig = pre[:, :3 * n]
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    g = pre[:, 3 * n:]
    np.tanh(g, out=g)
    np.multiply(pre[:, n:2 * n], c, out=c)
    np.multiply(pre[:, :n], g, out=h)
    c += h
    np.tanh(c, out=h)
    np.multiply(pre[:, 2 * n:3 * n], h, out=h)


def lstm_gate_backward(p: LstmParams, gates: np.ndarray, c: np.ndarray,
                       c_prev: np.ndarray, dh: np.ndarray, dc_in: np.ndarray):
    """Gradient through one batched LSTM step, without the weight gradient.

    gates (B, 4h) is the step's tape entry, c (B, h) its new cell state
    (tanh(c) is taken here) and c_prev (B, h) its previous one; dh / dc_in:
    (B, h) gradients w.r.t. the step's output state.  Overwrites `gates` with
    dpre, the gradient w.r.t. the gate preactivations in (i, f, o, g) order,
    and returns (dz, dc_prev): dz (B, d_in + h) w.r.t. z = [x, h_prev] and
    dc_prev (B, h).  The step's weight gradient is dpre.T @ z and its bias
    gradient dpre summed over rows.
    """
    if dh.shape != c.shape or dc_in.shape != c.shape:
        raise ShapeError(
            f"lstm_gate_backward: grad shapes {dh.shape}/{dc_in.shape} "
            f"do not match tape {c.shape}")
    tanh_c = np.tanh(c)
    h = tanh_c.shape[1]
    i, f, o, g = (gates[:, k * h:(k + 1) * h] for k in range(4))
    do = dh * tanh_c
    dc = dc_in + dh * o * (1.0 - tanh_c ** 2)
    di = dc * g
    df = dc * c_prev
    dg = dc * i
    dc_prev = dc * f
    # each product left to right, as (di * i) * (1 - i), in place once no
    # other derivative reads the gate
    di *= i
    np.multiply(di, 1.0 - i, out=i)
    df *= f
    np.multiply(df, 1.0 - f, out=f)
    do *= o
    np.multiply(do, 1.0 - o, out=o)
    np.multiply(dg, 1.0 - g * g, out=g)
    return gates @ p.W, dc_prev


def lstm_step_backward(p: LstmParams, tape: LstmTape, grad_h, grad_c):
    """Backward of lstm_step.

    grad_h / grad_c (B, h) are gradients w.r.t. the step's output state.
    Returns ((dW, db), grad_x, (grad_h_prev, grad_c_prev)), dW and db shaped
    like the cell's W and b, the others like the step's inputs.
    """
    dh, dc_in = (_batch("lstm_step_backward", g) for g in (grad_h, grad_c))
    dpre = tape.gates.copy()
    dz, dc_prev = lstm_gate_backward(p, dpre, tape.c, tape.c_prev, dh, dc_in)
    dW = dpre.T @ np.concatenate([tape.x, tape.h_prev], axis=1)
    return (dW, dpre.sum(axis=0)), dz[:, :p.d_in], (dz[:, p.d_in:], dc_prev)


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


def draw_head(hp: HeadParams, seed: int, *, stream: tuple = ()):
    """Initialize hp's arrays in place: layer li's weights uniform in
    [-1/sqrt(fan_in), 1/sqrt(fan_in)] from RNG stream (seed, *stream, li),
    zero biases."""
    for li, (W, b) in enumerate(((hp.W1, hp.b1), (hp.W2, hp.b2), (hp.W3, hp.b3))):
        _draw_uniform(seeded_rng(seed, *stream, li), 1.0 / math.sqrt(W.shape[1]), W)
        b[...] = 0.0


@dataclass
class HeadTape:
    d1: np.ndarray       # activation derivative, layer 1
    d2: np.ndarray
    r1: np.ndarray       # post-activation (and post-dropout) layer-1 output
    r2: np.ndarray
    mask1: np.ndarray | None
    mask2: np.ndarray | None


def _dropout_masks(hp: HeadParams, rows: int, dropout_rate: float,
                   rng: np.random.Generator | None, train: bool):
    """The head's two inverted-dropout masks for a call on `rows` rows, drawn
    from `rng` in layer order, or (None, None) when no dropout applies."""
    if not (train and dropout_rate > 0.0):
        return None, None
    if rng is None:
        raise ConfigError("head_forward: dropout requires an rng in train mode")
    keep = 1.0 - dropout_rate
    return tuple((rng.random((rows, W.shape[0])) < keep) / keep for W in (hp.W1, hp.W2))


def head_forward(hp: HeadParams, v_t, hiddens, slope: float = 0.01,
                 dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
                 train: bool = False):
    """Predict the next velocity (B, d_v) from the current one (B, d_v) plus M
    hidden states (B, h).

    Dropout (inverted, rate `dropout_rate`) is applied to both hidden
    activations when `train` is true and the rate is positive; the masks are
    cached on the tape so backward and replay are exact.
    """
    if len(hiddens) != hp.n_states:
        raise ConfigError(
            f"head_forward: expected {hp.n_states} hidden states, got {len(hiddens)}")
    v2 = _batch("head_forward", v_t)
    hs = [_batch("head_forward", hh) for hh in hiddens]
    if v2.shape[1] != hp.d_v:
        raise ShapeError(f"head_forward: velocity dim {v2.shape[1]} != d_v {hp.d_v}")
    for hh in hs:
        if hh.shape != (v2.shape[0], hp.h):
            raise ShapeError(f"head_forward: hidden shape {hh.shape} != "
                             f"({v2.shape[0]}, {hp.h})")
    mask1, mask2 = _dropout_masks(hp, v2.shape[0], dropout_rate, rng, train)
    z = np.concatenate([v2] + hs, axis=1)
    a1 = z @ hp.W1.T + hp.b1
    r1 = np.where(a1 >= 0, a1, slope * a1)
    d1 = np.where(a1 >= 0, 1.0, slope)
    if mask1 is not None:
        r1 = r1 * mask1
    a2 = r1 @ hp.W2.T + hp.b2
    r2 = np.where(a2 >= 0, a2, slope * a2)
    d2 = np.where(a2 >= 0, 1.0, slope)
    if mask2 is not None:
        r2 = r2 * mask2
    out = r2 @ hp.W3.T + hp.b3
    return out, HeadTape(d1=d1, d2=d2, r1=r1, r2=r2, mask1=mask1, mask2=mask2)


def head_skip(hp: HeadParams, rows: int, dropout_rate: float = 0.0,
              rng: np.random.Generator | None = None, train: bool = False):
    """Stand-in for a `head_forward` call on `rows` rows whose output nothing
    reads: computes nothing, but draws the same two dropout masks from `rng`,
    so the random stream continues as if the head had run."""
    _dropout_masks(hp, rows, dropout_rate, rng, train)


def head_layer_backward(hp: HeadParams, tape: HeadTape, dout: np.ndarray):
    """Gradient through one batched head call, without the weight gradients.

    dout: (B, d_v) gradient w.r.t. the output.  Returns (da1, da2, dz):
    gradients w.r.t. the layer-1 and layer-2 preactivations and the
    concatenated input z.  The weight gradients are dout.T @ r2 (W3),
    da2.T @ r1 (W2) and da1.T @ z (W1), each bias gradient the row sum of the
    matching output gradient, z = [v_t, hiddens...] the call's input.
    """
    if dout.shape[1] != hp.d_v or dout.shape[0] != tape.d1.shape[0]:
        raise ShapeError(f"head_layer_backward: grad shape {dout.shape} does not match tape")
    dr2 = dout @ hp.W3
    if tape.mask2 is not None:
        dr2 = dr2 * tape.mask2
    da2 = dr2 * tape.d2
    dr1 = da2 @ hp.W2
    if tape.mask1 is not None:
        dr1 = dr1 * tape.mask1
    da1 = dr1 * tape.d1
    return da1, da2, da1 @ hp.W1


def head_backward(hp: HeadParams, v_t, hiddens, tape: HeadTape, grad_out):
    """Backward of the head_forward call on v_t and hiddens that gave `tape`,
    from grad_out (B, d_v).

    Returns ((dW1, db1, dW2, db2, dW3, db3), grad_v_t, [grad_hidden_m for
    each level]), each gradient shaped like the tensor or input it names.
    """
    dout = _batch("head_backward", grad_out)
    da1, da2, dz = head_layer_backward(hp, tape, dout)
    z = np.concatenate([_batch("head_backward", a) for a in (v_t, *hiddens)], axis=1)
    grads = (da1.T @ z, da1.sum(axis=0), da2.T @ tape.r1,
             da2.sum(axis=0), dout.T @ tape.r2, dout.sum(axis=0))
    lo = [hp.d_v + m * hp.h for m in range(hp.n_states)]
    return grads, dz[:, :hp.d_v], [dz[:, i:i + hp.h] for i in lo]
