"""Hierarchical multi-scale recurrent forecaster and its ablation variants.

Every variant is a stack of levels, each an LSTM cell whose weights all of
the level's phase sequences share, topped by a prediction head that sees the
step's input plus the freshest hidden state of every level.  A level is
described by one row of the model's level table (`level_table`):

    phases  how many phase sequences it holds; phase t mod phases is the one
            read and updated at step t
    period  it fires at the steps t with t mod period == period - 1
    source  what it consumes when it fires: the step's input ("velocity", or
            "pose" for single_layer_pose), the hidden output the level below
            produced at the same step ("below"), or the sum of the last K
            inputs, i.e. the pose difference over K steps ("stride")
    d_in    its cell's input width

Level 1 always holds one phase, fires every step and consumes the step's
input.  The variants differ only in their level count and in the rule of
their upper levels (K = granularity; `VARIANTS` holds one entry each):

    variant                levels  upper level m: phases, firing, source
    single_layer_pose      1       -  (poses in)
    single_layer_vel       1       -
    stacked2_vel           2       1,          every step,    below
    double_scale_vel       2       1,          every K-th,    stride   (K=2)
    double_scale_hier_vel  2       1,          every K-th,    below    (K=2)
    double_scale_phase_vel 2       K,          every step,    stride   (K=2)
    tp_rnn                 M       K^(m-1),    every step,    below

The level table drives the state bank's layout, the engine's level sweep,
the backward pass and the parameter layout of the flat buffer `Model.theta`.
`Level.phase`, `Level.fires`, `RolloutTape.row` and `_stride_window` give
every schedule fact; nothing records one.  A recorded rollout's tape
(`RolloutTape`) keeps, per level, the gates and cell state of each firing in
two slabs, plus the inputs and the head's tapes; every hidden state and
layer input is recomputed from those.  The state bank (`PhaseStateBank`)
holds each level's hidden and cell states as two (phases, B, hidden) slabs
and a stride-fed level's last K - 1 inputs; the LSTM writes the rows in place.

The engine's public functions take batches (one sequence is B = 1).  Each
checks the inputs it receives once, on entry; the engine below them checks
none again, and the layer functions keep their own checks:

    observe(model, seeds, mode, rng, tape) -> (bank, (B, d) first prediction)
        the seed stage over (B, S+1, d) seed pose frames; checks their shape
        (ShapeError), S >= 1 (InputError) and the mode, eval if tape-free
        (ConfigError)
    forecast(model, bank, v_first, n_steps, mode, rng) -> (n_steps, B, d)
        feeds predictions back from observe's bank; checks n_steps >= 1
        (InputError), the mode, the bank's layout and last pose
        (ConfigError) and v_first's shape (ShapeError)
    rollout_forward(model, seeds, n_steps, mode, rng, record)
        -> ((n_steps, B, d), tape or None): observe, then forecast's steps,
        recorded for rollout_backward; checks n_steps >= 1 (InputError)

Every forward step runs through one level sweep, `_advance`: the whole seed
in one call, each forecast step in a call of one input.  The sweep cuts a
level's firing steps into runs of consecutive phases, up to the phase wrap.
Tape-free, a run is one LSTM step on one slice of the level's slabs, and the
sweep goes over blocks of whole top-level phase cycles of about HOIST_ROWS
rows, hoisting a level's input projections within a block into one GEMM, so
its memory does not grow with the seed.  Recorded, each firing step is its
own call, computes its gates in its tape row and copies its new cell state
there.  The recorded rollout plus `rollout_backward` give exact gradients
through the autoregressive loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, InputError, NumericError, ShapeError
from .layers import (HeadParams, LstmParams, draw_head, draw_lstm,
                     head_forward, head_layer_backward, head_skip, lstm_gate_backward,
                     lstm_gates, lstm_step)
from .numcore import as_f64

__all__ = [
    "VARIANTS",
    "Variant",
    "Level",
    "level_table",
    "param_layout",
    "ModelConfig",
    "CheckedConfig",
    "field_kinds",
    "Model",
    "PhaseStateBank",
    "new_bank",
    "build_model",
    "param_count",
    "observe",
    "forecast",
    "rollout_forward",
    "rollout_backward",
]


@dataclass(frozen=True)
class Variant:
    """A variant's entry in the level table: its level count (None: the
    configured `levels`), whether it needs K == 2, and the rule of every level
    above the first."""
    levels: int | None
    needs_k2: bool = False
    phased: bool = False      # level m holds K^(m-1) phase sequences, else one
    every_k: bool = False     # fires every K-th step, else every step
    source: str = "below"     # "below" or "stride"
    pose_input: bool = False  # level 1 consumes poses, not velocities


VARIANTS = {
    "single_layer_pose": Variant(levels=1, pose_input=True),
    "single_layer_vel": Variant(levels=1),
    "stacked2_vel": Variant(levels=2),
    "double_scale_vel": Variant(levels=2, needs_k2=True, every_k=True, source="stride"),
    "double_scale_hier_vel": Variant(levels=2, needs_k2=True, every_k=True),
    "double_scale_phase_vel": Variant(levels=2, needs_k2=True, phased=True,
                                      source="stride"),
    "tp_rnn": Variant(levels=None, phased=True),
}

# The state bank holds every phase sequence, so K^(M-1) is capped well above
# any useful hierarchy (K=2, M=13) to keep a bank's size bounded.
MAX_PHASES = 4096
# Parameters per model: well above the paper-scale model (13.4 M) and a
# 13-level hierarchy of 1024-wide cells (about 113 M); 1 GB of float64.
MAX_PARAMS = 2 ** 27


_FIELD_KINDS = {"str": (str, False), "int": (int, False), "float": (float, False),
                "float | None": (float, True)}


def field_kinds(cls) -> dict[str, tuple[type, bool]]:
    """Each field of the config dataclass `cls` as name -> (str, int or float,
    may be None): how key=value files and checkpoint meta read it.  KeyError
    for an annotation no reader could type."""
    return {f.name: _FIELD_KINDS[f.type] for f in fields(cls)}


class CheckedConfig:
    """Base of the config dataclasses, checked once when built: each value of
    its field's `field_kinds` kind (an int within float range passes for a float, a
    bool or a NumPy integer for none), else TypeError, then by `validate` (ConfigError)."""

    def __post_init__(self):
        for name, (kind, nullable) in field_kinds(type(self)).items():
            value = getattr(self, name)
            want = (int, float) if kind is float else kind
            huge = kind is float and isinstance(value, int) and abs(value) > sys.float_info.max
            if not (value is None and nullable) and (
                    isinstance(value, bool) or not isinstance(value, want) or huge):
                raise TypeError(f"bad value for {name!r}: {value!r}")
        self.validate()


@dataclass(frozen=True)
class ModelConfig(CheckedConfig):
    """Checked when built, frozen after: variants come from `dataclasses.replace`."""
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
        spec = VARIANTS.get(self.variant)
        if spec is None:
            raise ConfigError(f"variant: unknown value {self.variant!r}")
        if self.d_v < 1:
            raise ConfigError(f"d_v: must be >= 1, got {self.d_v}")
        if self.granularity < 2:
            raise ConfigError(f"granularity: must be >= 2, got {self.granularity}")
        if self.levels < 1:
            raise ConfigError(f"levels: must be >= 1, got {self.levels}")
        if spec.levels is not None and self.levels != spec.levels:
            raise ConfigError(f"levels: {self.variant} requires levels == {spec.levels}")
        if spec.needs_k2 and self.granularity != 2:
            raise ConfigError(f"granularity: {self.variant} requires granularity == 2")
        if spec.phased:
            phases = 1
            for _ in range(self.levels - 1):
                phases *= self.granularity
                if phases > MAX_PHASES:
                    raise ConfigError(f"granularity/levels: {self.variant}'s top level "
                                      f"would hold more than {MAX_PHASES} phase sequences")
        if min(self.hidden, self.head1, self.head2) < 1:
            raise ConfigError("hidden/head1/head2: must be >= 1")
        # after the level and width checks, so the count walks a bounded level table
        if param_count(self) > MAX_PARAMS:
            raise ConfigError(f"hidden/head1/head2: the model would hold more than "
                              f"{MAX_PARAMS} parameters")
        if not 0 < self.leaky_slope < math.inf:
            raise ConfigError(f"leaky_slope: must be finite and > 0, got {self.leaky_slope}")
        if not math.isfinite(self.forget_bias):
            raise ConfigError(f"forget_bias: must be finite, got {self.forget_bias}")
        if self.dropout_rate is not None and not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError(f"dropout_rate: must be in [0, 1), got {self.dropout_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        return self

    @property
    def effective_dropout(self) -> float:
        if self.dropout_rate is not None:
            return self.dropout_rate
        return 0.2 if self.levels >= 3 else 0.0


@dataclass(frozen=True)
class Level:
    """One row of the level table; see the module docstring."""
    phases: int
    period: int
    source: str  # "velocity" | "pose" | "below" | "stride"
    d_in: int

    def phase(self, t: int) -> int:
        """The phase sequence read, and updated if the level fires, at step t."""
        return t % self.phases

    def fires(self, t: int) -> bool:
        # a period-K level first fires once it has seen K inputs
        return t % self.period == self.period - 1


def level_table(cfg: ModelConfig) -> list[Level]:
    """The levels, level 1 first, of the model the validated config `cfg` describes."""
    spec = VARIANTS[cfg.variant]
    K = cfg.granularity
    levels = [Level(phases=1, period=1, source="pose" if spec.pose_input else "velocity",
                    d_in=cfg.d_v)]
    for m in range(2, cfg.levels + 1):
        levels.append(Level(phases=K ** (m - 1) if spec.phased else 1,
                            period=K if spec.every_k else 1, source=spec.source,
                            d_in=cfg.hidden if spec.source == "below" else cfg.d_v))
    return levels


def param_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter tensor, in `Model.theta` order: each
    level's cell W (4h, d_in + h) and b (4h,), gate rows ordered (i, f, o, g),
    then the head's W1, b1, W2, b2, W3, b3.  Checkpoints store the tensors
    under these names."""
    h = cfg.hidden
    levels = level_table(cfg)
    out = []
    for m, level in enumerate(levels):
        out += [(f"cell{m}.W", (4 * h, level.d_in + h)), (f"cell{m}.b", (4 * h,))]
    return out + [("head.W1", (cfg.head1, cfg.d_v + len(levels) * h)),
                  ("head.b1", (cfg.head1,)), ("head.W2", (cfg.head2, cfg.head1)),
                  ("head.b2", (cfg.head2,)), ("head.W3", (cfg.d_v, cfg.head2)),
                  ("head.b3", (cfg.d_v,))]


def param_count(cfg: ModelConfig) -> int:
    """Parameters of the model `cfg` describes, without building it."""
    return sum(math.prod(shape) for _, shape in param_layout(cfg))


@dataclass
class Model:
    """A model's level table and parameters.

    The parameters live in one flat float64 buffer, `theta`, laid out by
    `param_layout`; each cell's W/b and the head's W1..b3 are reshaped views
    of it.  Updating `theta` in place therefore updates the cells and the
    head.  `Model(cfg)` holds zeros; `build_model` draws the initial values.
    """
    config: ModelConfig
    levels: list[Level] = field(init=False, repr=False)
    layout: list[tuple[str, tuple[int, ...]]] = field(init=False, repr=False)
    theta: np.ndarray = field(init=False, repr=False)
    cells: list[LstmParams] = field(init=False, repr=False)
    head: HeadParams = field(init=False, repr=False)

    def __post_init__(self):
        cfg = self.config
        self.levels = level_table(cfg)
        self.layout = param_layout(cfg)
        self.theta = np.zeros(sum(math.prod(shape) for _, shape in self.layout))
        views = self.views(self.theta)
        self.cells = [LstmParams(W=views[2 * m], b=views[2 * m + 1], d_in=level.d_in,
                                 h=cfg.hidden) for m, level in enumerate(self.levels)]
        self.head = HeadParams(*views[2 * len(self.levels):], d_v=cfg.d_v,
                               n_states=len(self.levels), h=cfg.hidden)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [(name, view) for (name, _), view in zip(self.layout, self.views(self.theta))]

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Reshaped views of a flat buffer laid out like `theta`, one per tensor."""
        out, off = [], 0
        for _, shape in self.layout:
            size = math.prod(shape)
            out.append(flat[off:off + size].reshape(shape))
            off += size
        return out

    @property
    def n_params(self) -> int:
        return self.theta.size

    def set_tensors(self, arrays):
        """Copy one array per tensor, in `tensors()` order, into `theta`.

        `arrays` may be any iterable: each array is copied as it comes, so a
        generator that drops each one after its copy holds one at a time.  A
        count other than one per tensor raises ShapeError, once the arrays
        that came are copied.
        """
        views = self.views(self.theta)
        arrays = iter(arrays)
        n = 0
        for n, (view, arr) in enumerate(zip(views, arrays), start=1):
            view[...] = as_f64(arr).reshape(view.shape)
        if n != len(views) or next(arrays, None) is not None:
            raise ShapeError(f"set_tensors: expected {len(views)} arrays, "
                             f"got {n if n < len(views) else 'more'}")


def build_model(cfg: ModelConfig) -> Model:
    """A fresh model: each tensor is drawn straight into its view of `theta`,
    level m's cell from RNG stream (0, m) and the head from stream (1,)."""
    model = Model(cfg)
    for m, cell in enumerate(model.cells, start=1):
        draw_lstm(cell, cfg.seed, stream=(0, m), forget_bias=cfg.forget_bias)
    draw_head(model.head, cfg.seed, stream=(1,))
    return model


# ---------------------------------------------------------------------------
# Recurrent state bank and stepping


@dataclass
class PhaseStateBank:
    """Per level, its phases' hidden and cell states as two C-contiguous
    (phases, B, hidden) slabs, which the LSTM update writes in place."""
    h: list[np.ndarray]
    c: list[np.ndarray]
    t: int = 0
    recent: list = field(default_factory=list)  # last K-1 inputs if a level is stride-fed
    last_pose: np.ndarray | None = None


def new_bank(model: Model, batch: int) -> PhaseStateBank:
    """A zero bank for `batch` sequences."""
    shapes = [(level.phases, batch, model.config.hidden) for level in model.levels]
    return PhaseStateBank(h=[np.zeros(s) for s in shapes], c=[np.zeros(s) for s in shapes])


@dataclass
class RolloutTape:
    """What a recorded rollout of T steps keeps for `rollout_backward`.

    Per level, each firing step's gates (i, f, o, g, as `lstm_gates` leaves
    them) and new cell state c, as rows of an (n, B, 4h) and an (n, B, h)
    slab, n = T // period; the T inputs; and the head's tape of each step
    it ran.  Every hidden state (`state`) and layer input is recomputed
    from these where it is read.  A level's last firing is row 0 (`row`): the
    backward visits firings latest first, so a chunk of consecutive ones is
    one contiguous run of rows; and as a level of more than one phase fires
    every step, row r's phase sequence fired before at row r + phases.
    """
    xs: np.ndarray               # (T, B, d_v): step t's input
    gates: list[np.ndarray]      # per level, (n, B, 4h)
    c: list[np.ndarray]          # per level, (n, B, h)
    heads: list = field(default_factory=list)  # HeadTape per head step, in time order

    @classmethod
    def empty(cls, model: Model, batch: int, steps: int) -> "RolloutTape":
        h = model.config.hidden
        n = [steps // level.period for level in model.levels]
        return cls(xs=np.empty((steps, batch, model.config.d_v)),
                   gates=[np.empty((k, batch, 4 * h)) for k in n],
                   c=[np.empty((k, batch, h)) for k in n])

    def row(self, m: int, level: Level, t: int) -> int:
        """The slab row of level m's (0-based, `level`) latest firing at or
        before step t; past the slab's end while it has not fired."""
        return len(self.c[m]) - (t + 1) // level.period

    def state(self, m: int, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Level m's (h, c) after the firing of slab row `row`, h = o * tanh(c)
        with the forward's bits while the gate row holds gates; the zero
        state for a row past the slab's end."""
        if row >= len(self.c[m]):
            return (np.zeros(self.c[m].shape[1:]),) * 2
        c, h = self.c[m][row], self.c[m].shape[2]
        return self.gates[m][row, :, 2 * h:3 * h] * np.tanh(c), c


def _stride_window(t: int, K: int) -> range:
    """The steps whose inputs a stride-fed level firing at step t sums: the
    last K up to t, i.e. the pose difference over K steps."""
    return range(max(0, t - K + 1), t + 1)


def _window_sum(xs: list[np.ndarray]) -> np.ndarray:
    """A stride-fed level's input: the inputs of its stride window summed in order."""
    return sum(xs[1:], xs[0])


# ---------------------------------------------------------------------------
# Rollout engine: recorded (training) or tape-free (inference)


def observe(model: Model, seeds, *, mode: str = "eval",
            rng: np.random.Generator | None = None, tape: RolloutTape | None = None):
    """The engine's seed stage: one level sweep over the (B, S+1, d) seed
    pose frames from a zero bank.  Returns (bank at t = S, the (B, d)
    prediction at t = S-1, the first future step's).  Step t's input is the
    velocity seeds[:, t+1] - seeds[:, t], or for the pose-input variant the
    frame seeds[:, t+1]; the forecast integrates from the last frame,
    `bank.last_pose`.  The sweep is recorded into `tape`, sized for at least
    the S seed steps, when one is given."""
    seeds, d = as_f64(seeds), model.config.d_v
    if seeds.ndim != 3 or seeds.shape[2] != d:
        raise ShapeError(f"observe: expected (B, S+1, {d}) seed frames, "
                         f"got shape {seeds.shape}")
    if seeds.shape[1] < 2:
        raise InputError(f"observe: need a seed of S >= 1 steps, got {seeds.shape[1]} frames")
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode: must be train|eval, got {mode!r}")
    if tape is None and mode != "eval":
        raise ConfigError("a tape-free rollout (record=False) runs in eval mode only")
    xs = seeds[:, 1:] if model.levels[0].source == "pose" else np.diff(seeds, axis=1)
    bank = new_bank(model, len(seeds))
    vhat = _advance(model, bank, xs, mode, rng, tape)
    bank.last_pose = seeds[:, -1]
    return bank, vhat


def forecast(model: Model, bank: PhaseStateBank, v_first, n_steps: int,
             mode: str = "eval", rng: np.random.Generator | None = None) -> np.ndarray:
    """Autoregressive rollout from `observe`'s bank of B sequences and their
    first predictions v_first (B, d): every prediction is fed back as the
    next input.  Returns the (n_steps, B, d) predicted velocities.  Nothing
    in the package calls it: `rollout_forward` runs the same steps.
    """
    if n_steps < 1:
        raise InputError(f"forecast: n_steps must be >= 1, got {n_steps}")
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode: must be train|eval, got {mode!r}")
    phases = [level.phases for level in model.levels]
    if [len(a) for a in bank.h] != phases or [len(a) for a in bank.c] != phases:
        raise ConfigError("bank layout does not match model config")
    if bank.last_pose is None:
        raise ConfigError("forecast: bank has no last pose; run observe first")
    v_first = as_f64(v_first)
    if v_first.shape != bank.last_pose.shape:
        raise ShapeError(f"forecast: expected {bank.last_pose.shape} first predictions, "
                         f"one per banked sequence, got shape {v_first.shape}")
    preds = _feed_back(model, bank, v_first, n_steps, mode, rng)
    bad = np.argwhere(~np.isfinite(preds).all(axis=2))
    if bad.size:
        raise NumericError(f"forecast: non-finite prediction at step {bad[0, 0]} "
                           f"of sequence {bad[0, 1]}")
    return preds


def rollout_forward(model: Model, seeds, n_steps: int, *, mode: str = "train",
                    rng: np.random.Generator | None = None, record: bool = True):
    """`observe` over the (B, S+1, d) seed frames, then the autoregressive
    forecast: each prediction is fed back as the next input, one level sweep
    (`_advance`) per step.  Returns (preds (n_steps, B, d), tape).  With
    record=True the RolloutTape of the T = S + n_steps - 1 steps holds what
    `rollout_backward` needs; record=False (eval mode only) keeps none and
    returns None for it.
    """
    if n_steps < 1:
        raise InputError(f"rollout_forward: n_steps must be >= 1, got {n_steps}")
    # sized from the seeds' shape, which `observe` checks before any step runs
    shape = np.shape(seeds)
    tape = (RolloutTape.empty(model, shape[0], max(shape[1] + n_steps - 2, 0))
            if record and len(shape) == 3 else None)
    bank, vhat = observe(model, seeds, mode=mode, rng=rng, tape=tape)
    return _feed_back(model, bank, vhat, n_steps, mode, rng, tape), tape


def _feed_back(model: Model, bank: PhaseStateBank, v, n_steps: int, mode: str, rng,
               tape: RolloutTape | None = None) -> np.ndarray:
    """Forecast stage: from the first prediction v (B, d), feed each prediction
    back as the next input for n_steps - 1 steps.  Returns the n_steps predictions
    in one (n_steps, B, d) array allocated up front; the steps are recorded
    into `tape` when given."""
    is_pose = model.levels[0].source == "pose"
    pose = bank.last_pose
    preds = np.empty((n_steps, *v.shape))
    preds[0] = v
    for i in range(1, n_steps):
        pose = pose + v
        v = _advance(model, bank, (pose if is_pose else v)[:, None], mode, rng, tape)
        preds[i] = v
    bank.last_pose = pose + v
    return preds


# The row budget of a tape-free block, steps * B (see `_advance`); a level
# whose firing steps in a block hold at most this many rows hoists their input
# projections into one GEMM.  That replaces each run's few-row product with
# the full W by one with W's recurrent columns; it pays at a few rows per run
# and is a wash from about 400 rows on (tp_rnn, h=256, M=3, S=49: a 49-row
# seed 0.73x, 392 rows 0.96-0.99x, 6272 rows 1.17x).
HOIST_ROWS = 256


def _advance(model: Model, bank: PhaseStateBank, xs: np.ndarray, mode: str, rng,
             tape: RolloutTape | None) -> np.ndarray:
    """The engine's one level sweep: advance `bank` over the known inputs xs
    (B, n, d_v), xs[:, i] being the input at step bank.t + i, and return the
    prediction at the last of them.

    Every input is known, so a level depends only on the level below and its
    phases on nothing else.  In every `VARIANTS` entry a level with more than
    one phase, or whose output feeds the level above, fires every step.  So a
    level's firing steps are cut into runs of up to `phases` consecutive
    steps, each step of a run on its own phase, and the run outputs in time
    order are the `below` stream.  The head runs only at the last step.

    With a `tape` (recorded; sized for the whole rollout) each firing step is
    its own B-row LSTM call that writes its gates and cell state into the
    tape's slab rows, the inputs and the head's tape go to the tape, and the
    head's dropout masks of the skipped steps are drawn in time order before
    the head runs, so the random stream is that of one step at a time.  A
    recorded sweep is one block, over all of xs.

    With tape None (tape-free) each run is one LSTM step on the slab slice
    of its phases, len(run) * B rows, cut at the phase wrap (seeds start at
    t = 0, forecast steps fire once), and the sweep goes level by level over
    blocks of cycle * max(1, HOIST_ROWS // (cycle * B)) steps, cycle =
    max(phases), counted from bank.t.  A block holds whole runs of every
    level, so each LSTM call gets the rows it would get in one sweep over all
    of xs, and only a block's inputs and outputs per level stay alive.  Where
    a level fires more than once in a block and those steps hold at most
    HOIST_ROWS rows, their input projections x @ W[:, :d_in].T + b are one
    GEMM and each run adds only its h @ W[:, d_in:].T; that splits each row's
    dot product in two, so its predictions move by rounding (about 1e-16)
    only.  It checks nothing: its callers do (see the module docstring).
    """
    cfg = model.config
    K, hid, t0, (B, n, _) = cfg.granularity, cfg.hidden, bank.t, xs.shape
    first = t0 - len(bank.recent)  # bank.recent[i] is step first + i

    def inp(i: int) -> np.ndarray:
        return xs[:, i - t0] if i >= t0 else bank.recent[i - first]

    if tape is not None:
        tape.xs[t0:t0 + n] = xs.swapaxes(0, 1)
    # every level's phase count divides the largest, so a block of whole
    # cycles splits no run
    cycle = max(level.phases for level in model.levels)
    block = n if tape is not None else cycle * max(1, HOIST_ROWS // (cycle * max(B, 1)))
    for b0 in range(t0, t0 + n, block):
        steps = range(b0, min(b0 + block, t0 + n))
        below = [xs[:, t - t0] for t in steps]  # per step: the level below's hidden output
        for m, (level, cell) in enumerate(zip(model.levels, model.cells)):
            fired = [t for t in steps if level.fires(t)]
            if level.source == "stride":
                inps = [_window_sum([inp(i) for i in _stride_window(t, K)]) for t in fired]
            else:
                inps = [below[t - b0] for t in fired]
            hoist = tape is None and 1 < len(fired) and len(fired) * B <= HOIST_ROWS
            if hoist:
                # every firing step's input projection in one GEMM; a run then
                # adds only its recurrent product
                xw = np.concatenate(inps) @ cell.W[:, :cell.d_in].T
                xw += cell.b
                w_h = cell.W[:, cell.d_in:].T
            # the slab rows are overwritten by the next cycle, so each run's
            # new hidden states are copied out for the level above
            outs = np.empty((len(fired), B, hid))
            r = 0
            while r < len(fired):
                q = level.phase(fired[r])
                # tape-free, a run is up to the phases left before the wrap,
                # stacked into k * B rows; recorded, each firing is its own call
                k = 1 if tape is not None else min(len(fired) - r, level.phases - q)
                h, c = (a[m][q:q + k].reshape(k * B, hid) for a in (bank.h, bank.c))
                if hoist:
                    pre = h @ w_h
                    pre += xw[r * B:(r + k) * B]
                    lstm_gates(pre, c, h)
                elif tape is not None:
                    row = tape.row(m, level, fired[r])
                    lstm_step(cell, inps[r], h, c, gates=tape.gates[m][row])
                    tape.c[m][row] = c
                else:
                    lstm_step(cell, inps[r] if k == 1 else np.concatenate(inps[r:r + k]), h, c)
                outs[r:r + k] = bank.h[m][q:q + k]
                r += k
            # only the outputs outlive a level, so a tape-free sweep holds
            # one level's inputs and outputs of one block at a time
            below, inps, xw, outs = outs, None, None, None
    t = t0 + n - 1
    train = mode == "train"
    for _ in range(n - 1):  # only the last step's output is a prediction
        head_skip(model.head, B, dropout_rate=cfg.effective_dropout, rng=rng, train=train)
    hiddens = [h[level.phase(t)] for level, h in zip(model.levels, bank.h)]
    vhat, head_tape = head_forward(model.head, xs[:, -1], hiddens, slope=cfg.leaky_slope,
                                   dropout_rate=cfg.effective_dropout, rng=rng, train=train)
    if tape is not None:
        tape.heads.append(head_tape)
    # copies of the K - 1 inputs before bank.t that a stride window reads next
    keep = K - 1 if any(level.source == "stride" for level in model.levels) else 0
    bank.recent = [inp(i).copy() for i in range(max(first, t0 + n - keep), t0 + n)]
    bank.t = t0 + n
    return vhat


# ---------------------------------------------------------------------------
# Exact reverse-mode gradients through a recorded rollout


# Steps whose gradient rows go into one weight-gradient GEMM.  Each flush
# reads and writes the whole dW once, so fewer flushes save bandwidth; a
# chunk's input rows, WGRAD_CHUNK * B * (d_in + h) floats per level, are what
# a larger chunk costs in memory (its gradient rows are tape rows).
WGRAD_CHUNK = 8
# dW rows per GEMM within a flush; bounds the GEMM's temporary output.
_ROW_BLOCK = 256


class _WeightGradSum:
    """Accumulates sum_k P_k.T @ Z_k into dW and the row sums of P_k into db.

    P_k (B, n_out) is one step's preactivation gradient and Z_k (B, n_in)
    that step's layer input.  Steps come latest first, WGRAD_CHUNK to a
    chunk: the caller writes the k-th step's Z rows of a chunk into `z(k)`
    and folds the chunk in with `flush(P)`, P its steps' P rows stacked in
    the same order, one GEMM per block of _ROW_BLOCK dW rows into `scratch`.
    """

    def __init__(self, dW: np.ndarray, db: np.ndarray, rows: int, scratch: np.ndarray):
        self.dW, self.db, self.rows, self.scratch = dW, db, rows, scratch
        self.Z = np.empty((WGRAD_CHUNK * rows, dW.shape[1]))

    def z(self, k: int) -> np.ndarray:
        return self.Z[k * self.rows:(k + 1) * self.rows]

    def flush(self, P: np.ndarray):
        Z = self.Z[:P.shape[0]]
        for r0 in range(0, self.dW.shape[0], _ROW_BLOCK):
            block = self.dW[r0:r0 + _ROW_BLOCK]
            out = self.scratch[:block.size].reshape(block.shape)
            np.matmul(P[:, r0:r0 + _ROW_BLOCK].T, Z, out=out)
            block += out
        self.db += P.sum(axis=0)


def rollout_backward(model: Model, tape: RolloutTape, d_preds: np.ndarray, *,
                     grads: np.ndarray | None = None) -> np.ndarray:
    """Exact BPTT through a recorded rollout.

    d_preds: (n_pred, B, d) gradients of the loss w.r.t. each predicted
    velocity; the seed had S = T - n_pred + 1 steps, T the tape's.  Gradient
    flows through the autoregressive feedback (and, for the pose-input
    variant, through the forecast's integrated pose chain).  Returns the
    parameter gradient as a flat float64 array laid out like `model.theta`;
    `model.views` gives its per-tensor views.  It is written into `grads`
    (zeroed first) when given, so a training loop can reuse one buffer;
    otherwise a new one is allocated.  The tape's gate rows are overwritten
    with their gradients, so a tape serves one backward: a second raises
    ShapeError.

    The reverse time loop runs only what the recurrence needs: the gate
    derivatives of each step, and input derivatives at forecast steps only
    (seed inputs are data).  Each read of a state recomputes it from the
    tape row `RolloutTape.row` names (`RolloutTape.state`), before the
    firing's own step overwrites its gate rows with their gradient dpre.  So
    WGRAD_CHUNK consecutive firings' dpre are one slab view, folded into dW
    with their input rows [x, h_prev], rebuilt in a stacking buffer, by one
    `P.T @ Z` per chunk.
    The head runs backward only at steps t >= S-1; earlier head outputs are
    not predictions and get no gradient.
    """
    cfg = model.config
    T, (n_pred, B, _) = len(tape.xs), d_preds.shape
    if len(tape.heads) != n_pred:
        raise ShapeError(f"rollout_backward: a tape of {len(tape.heads)} head steps, "
                         f"expected {n_pred} (a tape serves one backward)")
    S = T - n_pred + 1
    L, h, d_v, K = len(model.levels), cfg.hidden, cfg.d_v, cfg.granularity

    if grads is None:
        grads = np.zeros(model.theta.shape)
    else:
        grads[...] = 0.0
    # the layout's (W, b) pairs: each level's cell, then the head's three layers
    views = model.views(grads)
    dWs = views[::2]
    scratch = np.empty(max(min(_ROW_BLOCK, dW.shape[0]) * dW.shape[1] for dW in dWs))
    sums = [_WeightGradSum(dW, db, B, scratch) for dW, db in zip(dWs, views[1::2])]
    cell_sums, head_sums = sums[:L], sums[L:]
    # the head's P rows (da1, da2, dout), stacked like its Z rows
    head_ps = [np.empty((WGRAD_CHUNK * B, dW.shape[0])) for dW in dWs[L:]]
    # pending gradient w.r.t. the latest produced state of each (level, phase)
    gs = [[[np.zeros((B, h)), np.zeros((B, h))] for _ in range(level.phases)]
          for level in model.levels]
    # row t - S: the gradient w.r.t. forecast step t's input (seed inputs are data)
    d_x = np.zeros((n_pred, B, d_v))

    for t in reversed(range(T)):
        f = t - S
        if model.levels[0].source == "pose" and S <= t < T - 1:
            # pose chain: x_t feeds x_{t+1} = x_t + v_in[t+1]
            d_x[f] += d_x[f + 1]
        if t >= S - 1:
            d_out = d_preds[f + 1]
            if t + 1 < T:
                # this step's output was fed back as step t+1's input velocity
                d_out = d_out + d_x[f + 1]
            ht = tape.heads[f + 1]
            da1, da2, dz = head_layer_backward(model.head, ht, d_out)
            k = (T - 1 - t) % WGRAD_CHUNK
            z = head_sums[0].z(k)
            z[:, :d_v] = tape.xs[t]
            for m, level in enumerate(model.levels):
                lo = d_v + m * h
                z[:, lo:lo + h] = tape.state(m, tape.row(m, level, t))[0]
                gs[m][level.phase(t)][0] += dz[:, lo:lo + h]
            head_sums[1].z(k)[...] = ht.r1
            head_sums[2].z(k)[...] = ht.r2
            for acc, P, p in zip(head_sums, head_ps, (da1, da2, d_out)):
                P[k * B:(k + 1) * B] = p
                if k == WGRAD_CHUNK - 1 or t == S - 1:
                    acc.flush(P[:(k + 1) * B])
            if t >= S:
                d_x[f] += dz[:, :d_v]
        for m in reversed(range(L)):
            level, cell = model.levels[m], model.cells[m]
            if not level.fires(t):
                continue
            row, q = tape.row(m, level, t), level.phase(t)
            k = row % WGRAD_CHUNK
            z = cell_sums[m].z(k)
            if level.source == "below":
                z[:, :cell.d_in] = tape.state(m - 1, tape.row(m - 1, model.levels[m - 1], t))[0]
            elif level.source == "stride":
                z[:, :cell.d_in] = _window_sum([tape.xs[i] for i in _stride_window(t, K)])
            else:
                z[:, :cell.d_in] = tape.xs[t]
            # the same phase sequence's previous firing (see `RolloutTape`)
            z[:, cell.d_in:], c_prev = tape.state(m, row + level.phases)
            dh, dc = gs[m][q]
            dz, dc_prev = lstm_gate_backward(cell, tape.gates[m][row], tape.c[m][row],
                                             c_prev, dh, dc)
            if k == WGRAD_CHUNK - 1 or row == len(tape.c[m]) - 1:
                cell_sums[m].flush(tape.gates[m][row - k:row + 1].reshape(-1, 4 * h))
            gs[m][q] = [dz[:, cell.d_in:], dc_prev]
            d_inp = dz[:, :cell.d_in]
            if level.source == "below":
                gs[m - 1][model.levels[m - 1].phase(t)][0] += d_inp
            elif level.source == "stride":
                for ti in _stride_window(t, K):
                    if ti >= S:
                        d_x[ti - S] += d_inp
            elif t >= S:
                d_x[f] += d_inp
    # the gate rows hold gradients now: without head steps the check above fails
    tape.heads.clear()
    return grads
