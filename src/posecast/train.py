"""Loss, optimizers, LR schedule, and the deterministic training loop.

The training loss runs the full rollout (observe the seed frames, then
autoregressively forecast the target window), integrates the predicted
velocities back to poses, and takes the mean over target frames of the
per-frame Euclidean distance to the ground truth.  Gradients come from
exact BPTT through the whole rollout, including the feedback loop.

Batched gradients are averaged (not summed) over the mini-batch, so the
clip norm is batch-size independent.  The whole loop is bit-reproducible
from (seed, config); checkpoints capture parameters, optimizer state, and
the RNG state so a resumed run continues exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .arch import (CheckedConfig, Model, ModelConfig, field_kinds, param_layout,
                   rollout_backward, rollout_forward)
from .errors import ConfigError, InputError, NumericError, ParseError, ShapeError
from .numcore import as_f64, atomic_write_text, clip_global_norm
from .posedata import PoseSequence

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainingData",
    "lr_at",
    "sgd_step",
    "adam_step",
    "pose_loss_and_grad",
    "velocity_loss_and_grad",
    "rollout_loss_batch",
    "train_loop",
    "write_trace",
    "save_model_checkpoint",
    "load_model_checkpoint",
    "load_train_checkpoint",
]


# A batch's windows, tapes and gradient rows are all held at once.  The cap
# turns an absurd batch (a typo such as 10**12) into a config error instead of
# a MemoryError; it is far above any batch that trains well (the paper's is 16).
MAX_BATCH_SIZE = 4096


@dataclass(frozen=True)
class TrainConfig(CheckedConfig):
    """Checked when built, frozen after: variants come from `dataclasses.replace`."""
    batch_size: int = 16
    clip_norm: float = 5.0
    lr0: float = 0.01
    decay_factor: float = 0.95
    decay_every: int = 2000
    iterations: int = 100_000
    optimizer: str = "sgd"  # sgd | adam
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    loss_space: str = "pose"  # pose | velocity
    seed: int = 0
    seed_len: int = 50
    target_len: int = 25
    checkpoint_every: int = 0  # 0: final checkpoint only

    def validate(self) -> "TrainConfig":
        if not 1 <= self.batch_size <= MAX_BATCH_SIZE:
            raise ConfigError(f"batch_size: must be in [1, {MAX_BATCH_SIZE}], "
                              f"got {self.batch_size}")
        if not 0 < self.lr0 < math.inf:
            raise ConfigError(f"lr0: must be finite and > 0, got {self.lr0}")
        if not self.clip_norm > 0:
            raise ConfigError(f"clip_norm: must be > 0, got {self.clip_norm}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0:
            raise ConfigError(f"adam_eps: must be > 0, got {self.adam_eps}")
        if self.decay_every < 1 or not (0 < self.decay_factor <= 1):
            raise ConfigError("decay_every must be >= 1 and decay_factor in (0, 1]")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer: must be sgd|adam, got {self.optimizer!r}")
        if self.loss_space not in ("pose", "velocity"):
            raise ConfigError(f"loss_space: must be pose|velocity, got {self.loss_space!r}")
        if self.seed_len < 2 or self.target_len < 1:
            raise ConfigError("seed_len must be >= 2 and target_len >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every: must be >= 0, got {self.checkpoint_every}")
        if self.iterations < 1:
            raise ConfigError(f"iterations: must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        return self


def lr_at(cfg: TrainConfig, iteration: int) -> float:
    """Stepwise multiplicative decay: lr0 * factor^(iteration // decay_every)."""
    if iteration < 0:
        raise InputError(f"lr_at: iteration must be >= 0, got {iteration}")
    return cfg.lr0 * cfg.decay_factor ** (iteration // cfg.decay_every)


# Elements per block of the in-place optimizer updates: their temporaries are
# block-sized, never parameter-sized.  Elementwise ops give the same bits in
# any blocking.
_BLOCK = 1 << 16


def _blocks(name: str, *flats: np.ndarray):
    """Slices covering flat float64 arrays of one shape, _BLOCK elements each."""
    for a in flats:
        if not isinstance(a, np.ndarray) or a.dtype != np.float64 or a.ndim != 1:
            raise ShapeError(f"{name}: expected flat float64 arrays")
        if a.shape != flats[0].shape:
            raise ShapeError(f"{name}: shape mismatch {flats[0].shape} vs {a.shape}")
    return [slice(i, i + _BLOCK) for i in range(0, flats[0].size, _BLOCK)]


def sgd_step(theta: np.ndarray, g: np.ndarray, lr: float) -> np.ndarray:
    """In-place SGD update theta -= lr * g of a flat parameter vector; returns theta."""
    for s in _blocks("sgd_step", theta, g):
        theta[s] -= lr * g[s]
    return theta


@dataclass
class AdamState:
    """First and second moments, flat and laid out like the parameters."""
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros_like(cls, theta: np.ndarray) -> "AdamState":
        # np.zeros, not np.zeros_like: its pages stay unmapped until written
        return cls(m=np.zeros(theta.shape), v=np.zeros(theta.shape))


def adam_step(theta: np.ndarray, g: np.ndarray, state: AdamState, lr: float, t: int,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> np.ndarray:
    """In-place bias-corrected Adam update of a flat parameter vector and of
    `state`; t is the 1-based step count.  Returns theta."""
    for s in _blocks("adam_step", theta, g, state.m, state.v):
        gs = g[s]
        m = beta1 * state.m[s] + (1 - beta1) * gs
        v = beta2 * state.v[s] + (1 - beta2) * gs * gs
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta[s] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        state.m[s] = m
        state.v[s] = v
    return theta


# ---------------------------------------------------------------------------
# Rollout loss


def _mean_norm_and_grad(diff: np.ndarray):
    """Mean Euclidean norm of the rows of diff (B, n, d), and its gradient
    w.r.t. diff (zero where a row is zero)."""
    B, n, _ = diff.shape
    norms = np.sqrt(np.sum(diff * diff, axis=2))  # (B, n)
    safe = np.where(norms > 0, norms, 1.0)
    u = diff / safe[:, :, None]
    u[norms == 0] = 0.0
    return float(norms.mean()), u / (B * n)


def pose_loss_and_grad(preds: np.ndarray, last_seed_pose: np.ndarray,
                       target_poses: np.ndarray):
    """Mean per-frame Euclidean pose error plus its gradient w.r.t. preds.

    preds: (n, B, d) predicted velocities; last_seed_pose: (B, d);
    target_poses: (B, n, d).  Returns (loss, d_preds (n, B, d)).
    """
    pred_poses = last_seed_pose[:, None, :] + np.cumsum(
        preds.transpose(1, 0, 2), axis=1)  # (B, n, d)
    loss, d_pose = _mean_norm_and_grad(pred_poses - target_poses)
    # velocity j contributes to every pose frame k >= j
    d_preds = np.cumsum(d_pose[:, ::-1, :], axis=1)[:, ::-1, :]
    return loss, d_preds.transpose(1, 0, 2)


def velocity_loss_and_grad(preds: np.ndarray, last_seed_pose: np.ndarray,
                           target_poses: np.ndarray):
    """Mean per-step Euclidean velocity error and gradient w.r.t. preds."""
    target_vels = np.concatenate(
        [(target_poses[:, :1] - last_seed_pose[:, None, :]),
         np.diff(target_poses, axis=1)], axis=1)  # (B, n, d)
    loss, d_vels = _mean_norm_and_grad(preds.transpose(1, 0, 2) - target_vels)
    return loss, d_vels.transpose(1, 0, 2)


def rollout_loss_batch(model: Model, seed_poses: np.ndarray,
                       target_poses: np.ndarray, cfg: TrainConfig,
                       mode: str = "train",
                       rng: np.random.Generator | None = None,
                       grads: np.ndarray | None = None):
    """(loss, gradient) for a batch of windows.

    seed_poses: (B, S+1, d); target_poses: (B, n, d).  The gradient is the
    mean over the batch of per-window gradients (fixed reduction order), a
    flat array laid out like `model.theta`.  It is written into `grads`
    when given (see `rollout_backward`).
    """
    seed_poses = as_f64(seed_poses)
    target_poses = as_f64(target_poses)
    if seed_poses.ndim != 3 or target_poses.ndim != 3:
        raise ShapeError("rollout_loss_batch: expected (B, T, d) arrays")
    if target_poses.shape[1] < 1:
        raise InputError("rollout_loss_batch: empty target window")
    preds, tape = rollout_forward(model, seed_poses, target_poses.shape[1], mode=mode,
                                  rng=rng)
    loss_fn = pose_loss_and_grad if cfg.loss_space == "pose" else velocity_loss_and_grad
    loss, d_preds = loss_fn(preds, seed_poses[:, -1], target_poses)
    grads = rollout_backward(model, tape, d_preds, grads=grads)
    return loss, grads


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainingData:
    """Training sequences plus the windowing protocol."""
    sequences: list[PoseSequence]
    seed_len: int
    target_len: int
    # the window starts of all sequences in order: sequence i's st-th is
    # number first[i] + st, and first[-1] counts them all
    first: np.ndarray = field(init=False)

    def __post_init__(self):
        total = self.seed_len + self.target_len
        dims = {s.dim for s in self.sequences}
        if len(dims) > 1:
            raise InputError(f"TrainingData: mixed sequence dims {sorted(dims)}")
        intervals = {s.frame_interval_ms for s in self.sequences}
        if len(intervals) > 1:
            raise InputError("TrainingData: sequences at more than one frame interval, "
                             f"{sorted(intervals)} ms")
        counts = [max(0, s.n_frames - total + 1) for s in self.sequences]
        self.first = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
        if self.first[-1] == 0:
            raise InputError("TrainingData: no sequence long enough for one window")

    def sample_batch(self, rng: np.random.Generator, batch_size: int):
        """Uniform random window starts; returns (seed (B,S,d), target (B,n,d))."""
        idx = rng.integers(0, int(self.first[-1]), size=batch_size)
        # the last sequence whose first start is at or before k holds k
        seqs = np.searchsorted(self.first, idx, side="right") - 1
        seeds, targets = [], []
        for k, i in zip(idx, seqs):
            st = int(k - self.first[i])
            f = self.sequences[i].frames
            seeds.append(f[st:st + self.seed_len])
            targets.append(f[st + self.seed_len:st + self.seed_len + self.target_len])
        return np.stack(seeds), np.stack(targets)


def _checkpoint_layout(cfg: ModelConfig, adam: bool) -> list[tuple[str, tuple[int, ...]]]:
    """A checkpoint's tensors as (name, shape) pairs in file order: the
    `param_layout` tensors, then, for an Adam run, the same names prefixed
    `opt.m.` (first moments) and `opt.v.` (second moments)."""
    layout = param_layout(cfg)
    return layout + [(prefix + name, shape) for prefix in ("opt.m.", "opt.v.") if adam
                     for name, shape in layout]


def _checkpoint_tensors(model: Model, adam: AdamState | None):
    flats = [model.theta] + ([] if adam is None else [adam.m, adam.v])
    views = [view for flat in flats for view in model.views(flat)]
    return [(name, view) for (name, _), view
            in zip(_checkpoint_layout(model.config, adam is not None), views)]


def save_train_checkpoint(path, model: Model, cfg: TrainConfig, iteration: int,
                          rng: np.random.Generator, adam: AdamState | None):
    meta = {
        "kind": "train",
        "model_config": asdict(model.config),
        "train_config": asdict(cfg),
        "iteration": iteration,
        "rng_state": rng.bit_generator.state,
    }
    ckpt.save_checkpoint(path, meta, _checkpoint_tensors(model, adam))


def save_model_checkpoint(path, model: Model, iteration: int = 0):
    meta = {"kind": "model", "model_config": asdict(model.config),
            "iteration": iteration}
    ckpt.save_checkpoint(path, meta, _checkpoint_tensors(model, None))


def _meta_config(path, meta, key: str, cls):
    """The config object `meta[key]` as a `cls`: every field present, no
    unknown keys and each value of its field's kind, else ParseError;
    building it then checks the values (ConfigError)."""
    raw = meta.get(key) if isinstance(meta, dict) else None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: checkpoint meta has no {key} object")
    kinds = field_kinds(cls)
    for name in kinds:
        if name not in raw:
            raise ParseError(f"{path}: {key}: missing key {name!r}")
    for name in raw:
        if name not in kinds:
            raise ParseError(f"{path}: {key}: unknown key {name!r}")
    try:
        return cls(**raw)
    except TypeError as e:
        raise ParseError(f"{path}: {key}: {e}") from None


def load_model_checkpoint(path):
    """Rebuild a Model (and optional training state) from a checkpoint.

    Returns (model, meta, adam_state_or_None).  The meta block, then the
    file's (name, shape) list, are checked before anything is allocated: the
    list must be `_checkpoint_layout` of the model config, with both Adam
    moment sets or with none; any other file raises ParseError.  The model
    is allocated once and filled from the file: no initial values are drawn.
    Each loaded tensor is dropped once copied into `theta` (or the Adam
    moments), so a load holds the file's tensors once, plus one.
    """
    meta, tensors = ckpt.load_checkpoint(path)
    cfg = _meta_config(path, meta, "model_config", ModelConfig)
    have = [(name, arr.shape) for name, arr in tensors.items()]
    n_params = len(param_layout(cfg))
    has_adam = len(have) > n_params
    want = _checkpoint_layout(cfg, has_adam)
    if have != want:
        i, (got, need) = next((i, pair) for i, pair in enumerate(zip_longest(have, want))
                              if pair[0] != pair[1])
        raise ParseError(f"{path}: checkpoint tensor {i} is {got or 'missing'}, "
                         f"its model_config needs {need or 'no more tensors'}")
    names = [name for name, _ in want]
    model = Model(cfg)
    model.set_tensors(tensors.pop(name) for name in names[:n_params])
    adam = None
    if has_adam:
        adam = AdamState.zeros_like(model.theta)
        for view, name in zip(model.views(adam.m) + model.views(adam.v), names[n_params:]):
            view[...] = tensors.pop(name)
    return model, meta, adam


def load_train_checkpoint(path):
    """(model, TrainConfig, iteration, rng state, Adam moments or None) of the
    training checkpoint `path`, loaded as by `load_model_checkpoint`.  Raises
    ConfigError for another kind of checkpoint, ParseError for a malformed
    train_config, iteration or rng_state, and InputError for Adam moments
    held by a run of another optimizer or lacked by an Adam run."""
    model, meta, adam = load_model_checkpoint(path)
    if meta.get("kind") != "train":
        raise ConfigError(f"{path}: not a training checkpoint")
    cfg = _meta_config(path, meta, "train_config", TrainConfig)
    iteration = meta.get("iteration")
    if not isinstance(iteration, int) or isinstance(iteration, bool) \
            or not 0 <= iteration <= cfg.iterations:
        raise ParseError(f"{path}: iteration must be an integer in "
                         f"[0, {cfg.iterations}], got {iteration!r}")
    state = meta.get("rng_state")
    bit_gen = np.random.PCG64()
    try:
        bit_gen.state = state
        ok = bit_gen.state == state
    except (TypeError, ValueError, KeyError, OverflowError):
        ok = False
    if not ok:
        raise ParseError(f"{path}: rng_state is not a PCG64 state")
    if (adam is not None) != (cfg.optimizer == "adam"):
        held = "holds" if adam is not None else "lacks"
        raise InputError(f"{path}: the checkpoint {held} Adam moments, but "
                         f"its optimizer is {cfg.optimizer!r}")
    return model, cfg, iteration, state, adam


def write_trace(path, trace):
    """Loss trace CSV: one `iteration,loss,lr` row per iteration, no header."""
    atomic_write_text(path, "".join(f"{it},{loss!r},{lr!r}\n" for it, loss, lr in trace))


def train_loop(model: Model, dataset: TrainingData, cfg: TrainConfig,
               out_dir=None, start_iteration: int = 0,
               rng_state: dict | None = None, adam: AdamState | None = None,
               log_fn=None):
    """Run the optimization; returns (model, loss trace, checkpoint paths).

    Deterministic given cfg.seed: two runs with the same seed produce
    identical traces and checkpoints, and resuming from a saved checkpoint
    (start_iteration / rng_state / adam) continues bit-exactly.  On a
    non-finite loss or gradient norm the state at that iteration's start is
    checkpointed, so a resume replays it, and NumericError is raised.  A run
    that ends or aborts writes this call's iterations to `out_dir`/loss_trace.csv.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if rng_state is not None:
        rng.bit_generator.state = rng_state
    if adam is not None and cfg.optimizer != "adam":
        raise ConfigError(f"train_loop: Adam moments given, but the optimizer is "
                          f"{cfg.optimizer!r}")
    if cfg.optimizer == "adam" and adam is None:
        adam = AdamState.zeros_like(model.theta)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    trace = []
    paths = []

    def _save(tag, iteration):
        if out_dir is None:
            return
        if tag in ("final", "abort"):
            write_trace(out_dir / "loss_trace.csv", trace)
        p = out_dir / f"checkpoint_{tag}.bin"
        save_train_checkpoint(p, model, cfg, iteration, rng, adam)
        paths.append(p)

    # one gradient buffer for the whole run; clipping and the update work in
    # place on it and on model.theta
    grads = np.zeros(model.theta.shape)
    for it in range(start_iteration, cfg.iterations):
        start_state = rng.bit_generator.state  # before the iteration's first draw
        seeds, targets = dataset.sample_batch(rng, cfg.batch_size)
        loss, grads = rollout_loss_batch(model, seeds, targets, cfg,
                                         mode="train", rng=rng, grads=grads)
        # per tensor in layout order: the norm's summation order is part of a run's bits
        _, norm = clip_global_norm(model.views(grads), cfg.clip_norm)
        if not (np.isfinite(loss) and np.isfinite(norm)):
            # the last finite update's parameters; the generator as the iteration began
            rng.bit_generator.state = start_state
            _save("abort", it)
            raise NumericError(f"training diverged at iteration {it}: "
                               f"loss={loss}, gradient norm={norm}")
        lr = lr_at(cfg, it)
        if cfg.optimizer == "sgd":
            sgd_step(model.theta, grads, lr)
        else:
            adam_step(model.theta, grads, adam, lr, it + 1, beta1=cfg.adam_beta1,
                      beta2=cfg.adam_beta2, eps=cfg.adam_eps)
        trace.append((it, loss, lr))
        if log_fn is not None:
            log_fn(it, loss, lr)
        if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0 \
                and it + 1 < cfg.iterations:
            _save(f"{it + 1:08d}", it + 1)
    _save("final", cfg.iterations)
    return model, trace, paths
