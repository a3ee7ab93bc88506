"""Loss, optimizers, LR schedule, and the deterministic training loop.

The training loss runs the full rollout (observe the seed velocities, then
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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .arch import Model, ModelConfig, ModelGrads, build_model, rollout_backward, rollout_forward
from .errors import ConfigError, InputError, NumericError, ShapeError
from .numcore import as_f64, clip_global_norm
from .posedata import PoseSequence, Window

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainingData",
    "lr_at",
    "sgd_step",
    "adam_step",
    "pose_loss_and_grad",
    "velocity_loss_and_grad",
    "rollout_loss",
    "rollout_loss_batch",
    "train_loop",
    "write_trace",
    "save_model_checkpoint",
    "load_model_checkpoint",
]


@dataclass
class TrainConfig:
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
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.lr0 <= 0:
            raise ConfigError(f"lr0: must be > 0, got {self.lr0}")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm: must be > 0, got {self.clip_norm}")
        if self.decay_every < 1 or not (0 < self.decay_factor <= 1):
            raise ConfigError("decay_every must be >= 1 and decay_factor in (0, 1]")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer: must be sgd|adam, got {self.optimizer!r}")
        if self.loss_space not in ("pose", "velocity"):
            raise ConfigError(f"loss_space: must be pose|velocity, got {self.loss_space!r}")
        if self.seed_len < 2 or self.target_len < 1:
            raise ConfigError("seed_len must be >= 2 and target_len >= 1")
        if self.iterations < 1:
            raise ConfigError(f"iterations: must be >= 1, got {self.iterations}")
        return self

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "batch_size", "clip_norm", "lr0", "decay_factor", "decay_every",
            "iterations", "optimizer", "adam_beta1", "adam_beta2", "adam_eps",
            "loss_space", "seed", "seed_len", "target_len", "checkpoint_every")}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d).validate()


def lr_at(cfg: TrainConfig, iteration: int) -> float:
    """Stepwise multiplicative decay: lr0 * factor^(iteration // decay_every)."""
    if iteration < 0:
        raise InputError(f"lr_at: iteration must be >= 0, got {iteration}")
    return cfg.lr0 * cfg.decay_factor ** (iteration // cfg.decay_every)


def sgd_step(params: list[np.ndarray], grads: list[np.ndarray], lr: float) -> list[np.ndarray]:
    if len(params) != len(grads):
        raise ShapeError("sgd_step: params/grads length mismatch")
    out = []
    for p, g in zip(params, grads):
        p, g = as_f64(p), as_f64(g)
        if p.shape != g.shape:
            raise ShapeError(f"sgd_step: shape mismatch {p.shape} vs {g.shape}")
        out.append(p - lr * g)
    return out


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float, t: int,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Bias-corrected Adam update; t is the 1-based step count."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("adam_step: params/grads/state length mismatch")
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        p, g = as_f64(p), as_f64(g)
        if p.shape != g.shape:
            raise ShapeError(f"adam_step: shape mismatch {p.shape} vs {g.shape}")
        m2 = beta1 * m + (1 - beta1) * g
        v2 = beta2 * v + (1 - beta2) * g * g
        m_hat = m2 / (1 - beta1 ** t)
        v_hat = v2 / (1 - beta2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m2)
        new_v.append(v2)
    return new_params, AdamState(m=new_m, v=new_v)


# ---------------------------------------------------------------------------
# Rollout loss


def pose_loss_and_grad(preds: np.ndarray, last_seed_pose: np.ndarray,
                       target_poses: np.ndarray):
    """Mean per-frame Euclidean pose error plus its gradient w.r.t. preds.

    preds: (n, B, d) predicted velocities; last_seed_pose: (B, d);
    target_poses: (B, n, d).  Returns (loss, d_preds (n, B, d)).
    """
    n, B, d = preds.shape
    pred_poses = last_seed_pose[:, None, :] + np.cumsum(
        preds.transpose(1, 0, 2), axis=1)  # (B, n, d)
    diff = pred_poses - target_poses
    norms = np.sqrt(np.sum(diff * diff, axis=2))  # (B, n)
    loss = float(norms.mean())
    safe = np.where(norms > 0, norms, 1.0)
    u = diff / safe[:, :, None]
    u[norms == 0] = 0.0
    d_pose = u / (B * n)
    # velocity j contributes to every pose frame k >= j
    d_preds = np.cumsum(d_pose[:, ::-1, :], axis=1)[:, ::-1, :]
    return loss, d_preds.transpose(1, 0, 2)


def velocity_loss_and_grad(preds: np.ndarray, last_seed_pose: np.ndarray,
                           target_poses: np.ndarray):
    """Mean per-step Euclidean velocity error and gradient w.r.t. preds."""
    n, B, d = preds.shape
    target_vels = np.concatenate(
        [(target_poses[:, :1] - last_seed_pose[:, None, :]),
         np.diff(target_poses, axis=1)], axis=1)  # (B, n, d)
    diff = preds.transpose(1, 0, 2) - target_vels
    norms = np.sqrt(np.sum(diff * diff, axis=2))
    loss = float(norms.mean())
    safe = np.where(norms > 0, norms, 1.0)
    u = diff / safe[:, :, None]
    u[norms == 0] = 0.0
    d_preds = (u / (B * n)).transpose(1, 0, 2)
    return loss, d_preds


def rollout_loss_batch(model: Model, seed_poses: np.ndarray,
                       target_poses: np.ndarray, cfg: TrainConfig,
                       mode: str = "train",
                       rng: np.random.Generator | None = None):
    """Loss and gradients for a batch of windows.

    seed_poses: (B, S, d); target_poses: (B, n, d).  The gradient is the
    mean over the batch of per-window gradients (fixed reduction order).
    """
    seed_poses = as_f64(seed_poses)
    target_poses = as_f64(target_poses)
    if seed_poses.ndim != 3 or target_poses.ndim != 3:
        raise ShapeError("rollout_loss_batch: expected (B, T, d) arrays")
    if target_poses.shape[1] < 1:
        raise InputError("rollout_loss_batch: empty target window")
    seed_vels = np.diff(seed_poses, axis=1)
    origin = seed_poses[:, 0]
    n = target_poses.shape[1]
    preds, records = rollout_forward(model, seed_vels, origin, n, mode=mode, rng=rng)
    loss_fn = pose_loss_and_grad if cfg.loss_space == "pose" else velocity_loss_and_grad
    loss, d_preds = loss_fn(preds, seed_poses[:, -1], target_poses)
    grads = rollout_backward(model, records, seed_vels.shape[1], d_preds)
    return loss, grads


def rollout_loss(model: Model, window: Window, cfg: TrainConfig,
                 mode: str = "train", rng: np.random.Generator | None = None):
    """Single-window rollout loss; see rollout_loss_batch."""
    if window.target.n_frames < 1:
        raise InputError("rollout_loss: window target is empty")
    return rollout_loss_batch(model, window.seed.frames[None, :, :],
                              window.target.frames[None, :, :], cfg,
                              mode=mode, rng=rng)


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainingData:
    """Training sequences plus the windowing protocol."""
    sequences: list[PoseSequence]
    seed_len: int
    target_len: int
    starts: list[tuple[int, int]] = field(init=False)

    def __post_init__(self):
        total = self.seed_len + self.target_len
        dims = {s.dim for s in self.sequences}
        if len(dims) > 1:
            raise InputError(f"TrainingData: mixed sequence dims {sorted(dims)}")
        self.starts = []
        for i, s in enumerate(self.sequences):
            for st in range(0, s.n_frames - total + 1):
                self.starts.append((i, st))
        if not self.starts:
            raise InputError("TrainingData: no sequence long enough for one window")

    def sample_batch(self, rng: np.random.Generator, batch_size: int):
        """Uniform random window starts; returns (seed (B,S,d), target (B,n,d))."""
        idx = rng.integers(0, len(self.starts), size=batch_size)
        seeds, targets = [], []
        for k in idx:
            i, st = self.starts[int(k)]
            f = self.sequences[i].frames
            seeds.append(f[st:st + self.seed_len])
            targets.append(f[st + self.seed_len:st + self.seed_len + self.target_len])
        return np.stack(seeds), np.stack(targets)


def _checkpoint_tensors(model: Model, adam: AdamState | None):
    tensors = list(model.tensors())
    if adam is not None:
        names = [n for n, _ in model.tensors()]
        for name, arr in zip(names, adam.m):
            tensors.append((f"opt.m.{name}", arr))
        for name, arr in zip(names, adam.v):
            tensors.append((f"opt.v.{name}", arr))
    return tensors


def save_train_checkpoint(path, model: Model, cfg: TrainConfig, iteration: int,
                          rng: np.random.Generator, adam: AdamState | None):
    meta = {
        "kind": "train",
        "model_config": model.config.to_dict(),
        "train_config": cfg.to_dict(),
        "iteration": iteration,
        "rng_state": rng.bit_generator.state,
    }
    ckpt.save_checkpoint(path, meta, _checkpoint_tensors(model, adam))


def save_model_checkpoint(path, model: Model, iteration: int = 0):
    meta = {"kind": "model", "model_config": model.config.to_dict(),
            "iteration": iteration}
    ckpt.save_checkpoint(path, meta, list(model.tensors()))


def load_model_checkpoint(path):
    """Rebuild a Model (and optional training state) from a checkpoint.

    Returns (model, meta, adam_state_or_None).
    """
    meta, tensors = ckpt.load_checkpoint(path)
    cfg = ModelConfig.from_dict(meta["model_config"])
    model = build_model(cfg)
    names = [n for n, _ in model.tensors()]
    try:
        model.set_tensors([tensors[n] for n in names])
    except KeyError as e:
        raise ShapeError(f"{path}: checkpoint missing tensor {e}") from None
    adam = None
    if f"opt.m.{names[0]}" in tensors:
        adam = AdamState(m=[tensors[f"opt.m.{n}"] for n in names],
                         v=[tensors[f"opt.v.{n}"] for n in names])
    return model, meta, adam


def write_trace(path, trace):
    """Loss trace CSV: one `iteration,loss,lr` row per iteration, no header."""
    path = Path(path)
    lines = [f"{it},{loss!r},{lr!r}" for it, loss, lr in trace]
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(path)


def train_loop(model: Model, dataset: TrainingData, cfg: TrainConfig,
               out_dir=None, start_iteration: int = 0,
               rng_state: dict | None = None, adam: AdamState | None = None,
               log_fn=None):
    """Run the optimization; returns (model, loss trace, checkpoint paths).

    Deterministic given cfg.seed: two runs with the same seed produce
    identical traces and checkpoints, and resuming from a saved checkpoint
    (start_iteration / rng_state / adam) continues bit-exactly.  On a
    non-finite loss or gradient norm the last finite state is checkpointed
    and NumericError is raised.
    """
    cfg.validate()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    if rng_state is not None:
        rng.bit_generator.state = rng_state
    if cfg.optimizer == "adam" and adam is None:
        adam = AdamState.zeros_like([arr for _, arr in model.tensors()])
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    trace = []
    paths = []

    def _save(tag, iteration):
        if out_dir is None:
            return None
        p = out_dir / f"checkpoint_{tag}.bin"
        save_train_checkpoint(p, model, cfg, iteration, rng, adam)
        paths.append(p)
        return p

    for it in range(start_iteration, cfg.iterations):
        seeds, targets = dataset.sample_batch(rng, cfg.batch_size)
        loss, grads = rollout_loss_batch(model, seeds, targets, cfg,
                                         mode="train", rng=rng)
        clipped, norm = clip_global_norm(grads.tensors(), cfg.clip_norm)
        if not (np.isfinite(loss) and np.isfinite(norm)):
            # the parameters are still those of the last finite update
            _save("abort", it)
            raise NumericError(f"training diverged at iteration {it}: "
                               f"loss={loss}, gradient norm={norm}")
        lr = lr_at(cfg, it)
        params = [arr for _, arr in model.tensors()]
        if cfg.optimizer == "sgd":
            params = sgd_step(params, clipped, lr)
        else:
            params, adam = adam_step(params, clipped, adam, lr, it + 1,
                                     beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
                                     eps=cfg.adam_eps)
        model.set_tensors(params)
        # release the gradients now, not after the next iteration's rollout
        del grads, clipped
        trace.append((it, loss, lr))
        if log_fn is not None:
            log_fn(it, loss, lr)
        if cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0 \
                and it + 1 < cfg.iterations:
            _save(f"{it + 1:08d}", it + 1)
    _save("final", cfg.iterations)
    return model, trace, paths
