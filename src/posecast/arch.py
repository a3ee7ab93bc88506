"""Hierarchical multi-scale recurrent forecaster and its ablation variants.

The flagship variant (`tp_rnn`) keeps M weight-shared LSTM cells, one per
hierarchy level.  Level 1 consumes the velocity stream every step.  Level m
holds K^(m-1) phase-shifted recurrent sequences; at step t the phase
t mod K^(m-1) updates, consuming the hidden output the level below produced
at the same step, so each individual phase sequence advances once every
K^(m-1) steps.  The prediction head sees the current velocity plus the
freshest hidden state of every level.

Ablation variants behind the same config:

    single_layer_pose      one cell, raw poses in
    single_layer_vel       one cell, velocities in
    stacked2_vel           two cells, both updating every step
    double_scale_vel       independent upper cell fed the stride-K velocity
                           (pose difference over the last K steps), updating
                           every K steps
    double_scale_hier_vel  upper cell fed the lower hidden state, updating
                           every K steps (single phase)
    double_scale_phase_vel K phase-shifted upper sequences fed the stride-K
                           velocity, one updating per step
    tp_rnn                 the full phase hierarchy described above

All forward passes accept single vectors or (B, d) batches; the recorded
rollout plus `rollout_backward` give exact reverse-mode gradients through
the autoregressive feedback loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, NumericError, ShapeError
from .layers import (HeadGrads, HeadParams, LstmGrads, LstmParams, LstmState,
                     head_forward, head_layer_backward, init_head, init_lstm,
                     lstm_gate_backward, lstm_step)
from .numcore import as_f64
from .posedata import VelocitySequence

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "Model",
    "ModelGrads",
    "PhaseStateBank",
    "new_bank",
    "active_phase",
    "logical_sequence_count",
    "build_model",
    "model_step",
    "observe",
    "forecast",
    "rollout_forward",
    "rollout_backward",
]

VARIANTS = (
    "single_layer_pose",
    "single_layer_vel",
    "stacked2_vel",
    "double_scale_vel",
    "double_scale_hier_vel",
    "double_scale_phase_vel",
    "tp_rnn",
)

_SINGLE = ("single_layer_pose", "single_layer_vel")
_DOUBLE = ("double_scale_vel", "double_scale_hier_vel", "double_scale_phase_vel")
# upper levels consuming the lower level's hidden output vs. the strided velocity
_HIDDEN_FED = ("tp_rnn", "stacked2_vel", "double_scale_hier_vel")
_STRIDE_FED = ("double_scale_vel", "double_scale_phase_vel")


def active_phase(m: int, t: int, K: int) -> int:
    """Phase index updating at step t on level m: t mod K^(m-1)."""
    if m < 1 or t < 0:
        raise InputError(f"active_phase: need m >= 1 and t >= 0, got {m}, {t}")
    return t % (K ** (m - 1))


def logical_sequence_count(K: int, M: int) -> int:
    """Total phase-shifted recurrent sequences across all levels."""
    if K < 2 or M < 1:
        raise InputError(f"logical_sequence_count: need K >= 2, M >= 1, got {K}, {M}")
    return sum(K ** m for m in range(M))


@dataclass
class ModelConfig:
    variant: str
    d_v: int
    granularity: int = 2   # stride between consecutive updates of a level
    levels: int = 1
    hidden: int = 1024
    head1: int = 256
    head2: int = 128
    leaky_slope: float = 0.01
    dropout_rate: float | None = None
    seed: int = 0
    forget_bias: float = 1.0

    def validate(self) -> "ModelConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant: unknown value {self.variant!r}")
        if self.d_v < 1:
            raise ConfigError(f"d_v: must be >= 1, got {self.d_v}")
        if self.granularity < 2:
            raise ConfigError(f"granularity: must be >= 2, got {self.granularity}")
        if self.levels < 1:
            raise ConfigError(f"levels: must be >= 1, got {self.levels}")
        if self.variant in _SINGLE and self.levels != 1:
            raise ConfigError(f"levels: {self.variant} requires levels == 1")
        if self.variant == "stacked2_vel" and self.levels != 2:
            raise ConfigError("levels: stacked2_vel requires levels == 2")
        if self.variant in _DOUBLE:
            if self.levels != 2:
                raise ConfigError(f"levels: {self.variant} requires levels == 2")
            if self.granularity != 2:
                raise ConfigError(f"granularity: {self.variant} requires granularity == 2")
        if min(self.hidden, self.head1, self.head2) < 1:
            raise ConfigError("hidden/head1/head2: must be >= 1")
        if self.leaky_slope <= 0:
            raise ConfigError(f"leaky_slope: must be > 0, got {self.leaky_slope}")
        if self.dropout_rate is not None and not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate: must be in [0, 1), got {self.dropout_rate}")
        return self

    @property
    def effective_dropout(self) -> float:
        if self.dropout_rate is not None:
            return self.dropout_rate
        return 0.2 if self.levels >= 3 else 0.0

    def to_dict(self) -> dict:
        return {
            "variant": self.variant, "d_v": self.d_v,
            "granularity": self.granularity, "levels": self.levels,
            "hidden": self.hidden, "head1": self.head1, "head2": self.head2,
            "leaky_slope": self.leaky_slope, "dropout_rate": self.dropout_rate,
            "seed": self.seed, "forget_bias": self.forget_bias,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d).validate()


def _n_phases(cfg: ModelConfig, m: int) -> int:
    if m == 1:
        return 1
    if cfg.variant == "tp_rnn":
        return cfg.granularity ** (m - 1)
    if cfg.variant == "double_scale_phase_vel":
        return cfg.granularity
    return 1


def _phase_at(cfg: ModelConfig, m: int, t: int) -> int:
    return t % _n_phases(cfg, m)


def _updates_at(cfg: ModelConfig, m: int, t: int) -> bool:
    if m == 1:
        return True
    if cfg.variant in ("tp_rnn", "double_scale_phase_vel", "stacked2_vel"):
        return True
    # single-phase scaled level: fires every K steps, first once K inputs seen
    return t % cfg.granularity == cfg.granularity - 1


def _level_input_dim(cfg: ModelConfig, m: int) -> int:
    if m == 1:
        return cfg.d_v
    if cfg.variant in _HIDDEN_FED:
        return cfg.hidden
    return cfg.d_v  # stride-fed


@dataclass
class Model:
    cells: list[LstmParams]
    head: HeadParams
    config: ModelConfig

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for m, cell in enumerate(self.cells):
            for name, arr in cell.tensors():
                out.append((f"cell{m}.{name}", arr))
        for name, arr in self.head.tensors():
            out.append((f"head.{name}", arr))
        return out

    @property
    def n_params(self) -> int:
        return sum(arr.size for _, arr in self.tensors())

    def set_tensors(self, arrays: list[np.ndarray]):
        named = self.tensors()
        if len(arrays) != len(named):
            raise ShapeError(f"set_tensors: expected {len(named)} arrays, got {len(arrays)}")
        k = 0
        for m, cell in enumerate(self.cells):
            cell.W = as_f64(arrays[k]).reshape(cell.W.shape); k += 1
            cell.b = as_f64(arrays[k]).reshape(cell.b.shape); k += 1
        hp = self.head
        hp.W1 = as_f64(arrays[k]).reshape(hp.W1.shape); k += 1
        hp.b1 = as_f64(arrays[k]).reshape(hp.b1.shape); k += 1
        hp.W2 = as_f64(arrays[k]).reshape(hp.W2.shape); k += 1
        hp.b2 = as_f64(arrays[k]).reshape(hp.b2.shape); k += 1
        hp.W3 = as_f64(arrays[k]).reshape(hp.W3.shape); k += 1
        hp.b3 = as_f64(arrays[k]).reshape(hp.b3.shape); k += 1

    def flatten(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _, arr in self.tensors()])

    def set_flat(self, theta: np.ndarray):
        theta = as_f64(theta)
        if theta.size != self.n_params:
            raise ShapeError(f"set_flat: expected {self.n_params} params, got {theta.size}")
        arrays = []
        off = 0
        for _, arr in self.tensors():
            arrays.append(theta[off:off + arr.size].reshape(arr.shape).copy())
            off += arr.size
        self.set_tensors(arrays)


@dataclass
class ModelGrads:
    cells: list[LstmGrads]
    head: HeadGrads

    @classmethod
    def zeros(cls, model: Model) -> "ModelGrads":
        cells = [LstmGrads(np.zeros_like(c.W), np.zeros_like(c.b)) for c in model.cells]
        hp = model.head
        head = HeadGrads(np.zeros_like(hp.W1), np.zeros_like(hp.b1),
                         np.zeros_like(hp.W2), np.zeros_like(hp.b2),
                         np.zeros_like(hp.W3), np.zeros_like(hp.b3))
        return cls(cells=cells, head=head)

    def tensors(self) -> list[np.ndarray]:
        out = []
        for g in self.cells:
            out.extend(g.tensors())
        out.extend(self.head.tensors())
        return out

    def scale_(self, s: float):
        for t in self.tensors():
            t *= s

    def flatten(self) -> np.ndarray:
        return np.concatenate([t.ravel() for t in self.tensors()])


def build_model(cfg: ModelConfig) -> Model:
    cfg.validate()
    cells = []
    for m in range(1, cfg.levels + 1):
        cells.append(init_lstm(_level_input_dim(cfg, m), cfg.hidden, cfg.seed,
                               stream=(0, m), forget_bias=cfg.forget_bias))
    head = init_head(cfg.d_v, cfg.levels, cfg.hidden, cfg.head1, cfg.head2,
                     cfg.seed, stream=(1,))
    return Model(cells=cells, head=head, config=cfg)


# ---------------------------------------------------------------------------
# Recurrent state bank and stepping


@dataclass
class PhaseStateBank:
    states: list[list[LstmState]]  # [level][phase]
    t: int = 0
    recent: list = field(default_factory=list)  # [(t, x)] last K inputs, for stride-fed levels
    last_pose: np.ndarray | None = None
    frame_interval_ms: float = float("nan")


def new_bank(model: Model, batch: int | None = None) -> PhaseStateBank:
    cfg = model.config
    states = [[LstmState.zeros(cfg.hidden, batch) for _ in range(_n_phases(cfg, m))]
              for m in range(1, cfg.levels + 1)]
    return PhaseStateBank(states=states)


@dataclass
class StepRecord:
    x: np.ndarray
    updates: list  # (level m, phase q, lstm tape, strided input time indices or None)
    head_tape: object
    head_phases: list[int]  # phase whose hidden state the head consumed, per level


def model_step(model: Model, bank: PhaseStateBank, x_t, mode: str = "eval",
               rng: np.random.Generator | None = None, record: bool = True):
    """Advance the hierarchy one step; returns (predicted next velocity, tape).

    x_t is the velocity at the current step (the current pose for the
    single_layer_pose variant).  Exactly one phase per active level mutates.
    """
    cfg = model.config
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode: must be train|eval, got {mode!r}")
    if len(bank.states) != cfg.levels or any(
            len(bank.states[m - 1]) != _n_phases(cfg, m) for m in range(1, cfg.levels + 1)):
        raise ConfigError("model_step: bank layout does not match model config")
    x = as_f64(x_t)
    if x.shape[-1] != cfg.d_v:
        raise ShapeError(f"model_step: input dim {x.shape[-1]} != d_v {cfg.d_v}")
    t = bank.t

    if cfg.variant in _STRIDE_FED:
        bank.recent.append((t, x))
        if len(bank.recent) > cfg.granularity:
            bank.recent.pop(0)

    updates = []
    head_phases = []
    hiddens = []
    lower_h = None
    for m in range(1, cfg.levels + 1):
        q = _phase_at(cfg, m, t)
        if _updates_at(cfg, m, t):
            if m == 1:
                inp, strided = x, None
            elif cfg.variant in _HIDDEN_FED:
                inp, strided = lower_h, None
            else:
                inp = bank.recent[0][1]
                for _, xr in bank.recent[1:]:
                    inp = inp + xr
                strided = [ti for ti, _ in bank.recent]
            new_state, tape = lstm_step(model.cells[m - 1], inp, bank.states[m - 1][q])
            bank.states[m - 1][q] = new_state
            if record:
                updates.append((m, q, tape, strided))
        head_phases.append(q)
        lower_h = bank.states[m - 1][q].h
        hiddens.append(lower_h)

    vhat, head_tape = head_forward(model.head, x, hiddens, slope=cfg.leaky_slope,
                                   dropout_rate=cfg.effective_dropout, rng=rng,
                                   train=(mode == "train"))
    bank.t = t + 1
    rec = StepRecord(x=x, updates=updates, head_tape=head_tape,
                     head_phases=head_phases) if record else None
    return vhat, rec


def observe(model: Model, seed_velocities: VelocitySequence, mode: str = "eval",
            rng: np.random.Generator | None = None, record: bool = True):
    """Run the model over all seed velocities from a zero-initialized bank.

    Returns (bank at forecast start, step tapes, prediction for the first
    future step).
    """
    if seed_velocities.n_steps < 1:
        raise InputError("observe: empty seed")
    bank = new_bank(model)
    pose = seed_velocities.origin_pose.copy()
    records = []
    vhat = None
    for t in range(seed_velocities.n_steps):
        v = seed_velocities.steps[t]
        pose = pose + v
        x = pose if model.config.variant == "single_layer_pose" else v
        vhat, rec = model_step(model, bank, x, mode=mode, rng=rng, record=record)
        records.append(rec)
    bank.last_pose = pose
    bank.frame_interval_ms = seed_velocities.frame_interval_ms
    return bank, records, vhat


def forecast(model: Model, bank: PhaseStateBank, v_first, n_steps: int,
             mode: str = "eval", rng: np.random.Generator | None = None) -> VelocitySequence:
    """Autoregressive rollout: every prediction is fed back as the next input."""
    if n_steps < 1:
        raise InputError(f"forecast: n_steps must be >= 1, got {n_steps}")
    if bank.last_pose is None:
        raise ConfigError("forecast: bank has no last pose; run observe first")
    preds = [as_f64(v_first)]
    origin = bank.last_pose.copy()
    pose = bank.last_pose
    for j in range(1, n_steps):
        v = preds[-1]
        if not np.all(np.isfinite(v)):
            raise NumericError(f"forecast: non-finite prediction at step {j - 1}")
        pose = pose + v
        x = pose if model.config.variant == "single_layer_pose" else v
        vhat, _ = model_step(model, bank, x, mode=mode, rng=rng, record=False)
        preds.append(vhat)
    if not np.all(np.isfinite(preds[-1])):
        raise NumericError(f"forecast: non-finite prediction at step {n_steps - 1}")
    bank.last_pose = pose + preds[-1]
    return VelocitySequence(steps=np.array(preds), origin_pose=origin,
                            frame_interval_ms=bank.frame_interval_ms)


# ---------------------------------------------------------------------------
# Recorded rollout + exact reverse-mode gradients through the feedback loop


def rollout_forward(model: Model, seed_vels: np.ndarray, origin: np.ndarray,
                    n_steps: int, mode: str = "train",
                    rng: np.random.Generator | None = None):
    """Batched observe + autoregressive forecast with full tapes.

    seed_vels: (B, S, d) ground-truth seed velocities; origin: (B, d) first
    seed pose.  Returns (preds (n_steps, B, d), step records).  Step t for
    t < S consumes seed_vels[:, t]; later steps consume the model's own
    previous prediction.
    """
    seed_vels = as_f64(seed_vels)
    origin = as_f64(origin)
    B, S, d = seed_vels.shape
    if S < 1 or n_steps < 1:
        raise InputError("rollout_forward: need S >= 1 and n_steps >= 1")
    is_pose = model.config.variant == "single_layer_pose"
    bank = new_bank(model, batch=B)
    pose = origin.copy()
    records = []
    preds = []
    T = S + n_steps - 1
    for t in range(T):
        v_in = seed_vels[:, t] if t < S else preds[t - S]
        if is_pose:
            pose = pose + v_in
            x = pose
        else:
            x = v_in
        vhat, rec = model_step(model, bank, x, mode=mode, rng=rng, record=True)
        records.append(rec)
        if t >= S - 1:
            preds.append(vhat)
    return np.stack(preds), records


# Steps whose gradient rows are stacked before one weight-gradient GEMM.  Each
# flush reads and writes the whole dW once, so fewer flushes save bandwidth;
# the stacked rows, 2 * WGRAD_CHUNK * B * (4h + d_in + h) floats per level,
# are what a larger chunk costs in memory.
WGRAD_CHUNK = 8
# dW rows per GEMM within a flush; bounds the GEMM's temporary output.
_ROW_BLOCK = 256


class _WeightGradSum:
    """Accumulates sum_k P_k.T @ Z_k into dW and the row sums of P_k into db.

    P_k (B, n_out) is one step's preactivation gradient and Z_k (B, n_in)
    that step's layer input, given as column blocks.  Rows are stacked
    WGRAD_CHUNK steps at a time and folded in with one GEMM per chunk.
    """

    def __init__(self, dW: np.ndarray, db: np.ndarray, rows: int):
        self.dW, self.db, self.rows = dW, db, rows
        self.P = np.empty((WGRAD_CHUNK * rows, dW.shape[0]))
        self.Z = np.empty((WGRAD_CHUNK * rows, dW.shape[1]))
        self.tmp = np.empty((min(_ROW_BLOCK, dW.shape[0]), dW.shape[1]))
        self.n = 0

    def push(self, p: np.ndarray, *z_parts: np.ndarray):
        rows = slice(self.n * self.rows, (self.n + 1) * self.rows)
        self.P[rows] = p
        col = 0
        for part in z_parts:
            self.Z[rows, col:col + part.shape[1]] = part
            col += part.shape[1]
        self.n += 1
        if self.n == WGRAD_CHUNK:
            self.flush()

    def flush(self):
        k = self.n * self.rows
        if k:
            P, Z = self.P[:k], self.Z[:k]
            for r0 in range(0, self.dW.shape[0], _ROW_BLOCK):
                block = self.dW[r0:r0 + _ROW_BLOCK]
                out = self.tmp[:block.shape[0]]
                np.matmul(P[:, r0:r0 + _ROW_BLOCK].T, Z, out=out)
                block += out
            self.db += P.sum(axis=0)
        self.n = 0


def rollout_backward(model: Model, records: list[StepRecord], n_obs: int,
                     d_preds: np.ndarray) -> ModelGrads:
    """Exact BPTT through a recorded rollout.

    d_preds: (n_pred, B, d) gradients of the loss w.r.t. each predicted
    velocity.  Gradient flows through the autoregressive feedback (and, for
    the pose-input variant, through the integrated pose chain).

    The reverse time loop runs only what the recurrence needs: the gate and
    input derivatives of each step.  Weight gradients are formed as
    time-batched GEMMs: each layer's preactivation-gradient rows and input
    rows are stacked over WGRAD_CHUNK steps and folded into dW with one
    `P.T @ Z` per chunk.  The head runs backward only at steps t >= S-1;
    earlier head outputs are not predictions and get no gradient.
    """
    cfg = model.config
    S = n_obs
    n_pred = d_preds.shape[0]
    T = S + n_pred - 1
    if len(records) != T:
        raise ShapeError(f"rollout_backward: {len(records)} records, expected {T}")
    is_pose = cfg.variant == "single_layer_pose"
    B = records[0].head_tape.z.shape[0]

    grads = ModelGrads.zeros(model)
    gh = grads.head
    head_sums = (_WeightGradSum(gh.dW1, gh.db1, B), _WeightGradSum(gh.dW2, gh.db2, B),
                 _WeightGradSum(gh.dW3, gh.db3, B))
    cell_sums = [_WeightGradSum(g.dW, g.db, B) for g in grads.cells]
    # pending gradient w.r.t. the latest produced state of each (level, phase)
    h = cfg.hidden
    gs = [[[np.zeros((B, h)), np.zeros((B, h))] for _ in range(_n_phases(cfg, m))]
          for m in range(1, cfg.levels + 1)]
    # gradient w.r.t. the input stream value at each step (velocity, or pose
    # for the pose-input variant)
    d_x = [np.zeros((B, cfg.d_v)) for _ in range(T)]

    for t in reversed(range(T)):
        rec = records[t]
        if is_pose and t + 1 < T:
            # pose chain: x_t feeds x_{t+1} = x_t + v_in[t+1]
            d_x[t] += d_x[t + 1]
        if t >= S - 1:
            d_out = d_preds[t - (S - 1)]
            if t + 1 < T:
                # this step's output was fed back as step t+1's input velocity
                d_out = d_out + d_x[t + 1]
            ht = rec.head_tape
            da1, da2, dz = head_layer_backward(model.head, ht, d_out)
            head_sums[0].push(da1, ht.z)
            head_sums[1].push(da2, ht.r1)
            head_sums[2].push(d_out, ht.r2)
            d_x[t] += dz[:, :cfg.d_v]
            for m in range(1, cfg.levels + 1):
                lo = cfg.d_v + (m - 1) * h
                gs[m - 1][rec.head_phases[m - 1]][0] += dz[:, lo:lo + h]
        for m, q, tape, strided in reversed(rec.updates):
            cell = model.cells[m - 1]
            dh, dc = gs[m - 1][q]
            dpre, dz, dc_prev = lstm_gate_backward(cell, tape, dh, dc)
            cell_sums[m - 1].push(dpre, tape.x, tape.h_prev)
            gs[m - 1][q] = [dz[:, cell.d_in:], dc_prev]
            d_inp = dz[:, :cell.d_in]
            if m == 1:
                d_x[t] += d_inp
            elif strided is None:
                gs[m - 2][rec.head_phases[m - 2]][0] += d_inp
            else:
                for ti in strided:
                    d_x[ti] += d_inp
    for acc in (*head_sums, *cell_sums):
        acc.flush()
    return grads
