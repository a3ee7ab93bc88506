"""The engine's level sweep against one one-input call per step.

Every forward step runs through one level sweep, `arch._advance`: the whole
seed in one call and each forecast step in one more.  The reference here is
the step-at-a-time order, one `rollout_oracle.model_step` (a one-input
sweep) per step.
The recorded sweep runs each firing step as its own B-row call and must match
that reference bit for bit, tapes (the reference one-input calls record into a
tape of their own), dropout masks and random stream included.
`rollout_forward(record=False)` runs each run of a level's phases on one
slice of its state slabs and sweeps blocks of whole top-level phase cycles of
about `arch.HOIST_ROWS` rows; it must reproduce the reference's predictions
to 1e-12, max-abs normalised, and its state bank at t = S exactly.  At B=1 a
stacked round is a 2-4 row GEMM where the reference runs 1-row products, and
where a level hoists its input projections over a block (its firing steps
there hold at most `arch.HOIST_ROWS` rows) each preactivation is summed in two
parts; there the states agree to rounding only.  Against
`rollout_oracle.stacked_rollout`, the same rounds on per-phase states
concatenated per run and split back, it must agree bit for bit.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from posecast import arch
from posecast.arch import ModelConfig, build_model, forecast, new_bank, observe, rollout_forward
from posecast.errors import ConfigError, ShapeError

from rollout_oracle import model_step, nan_tape, stacked_rollout

VARIANT_LEVELS = [("single_layer_pose", 1), ("single_layer_vel", 1),
                  ("stacked2_vel", 2), ("double_scale_vel", 2),
                  ("double_scale_hier_vel", 2), ("double_scale_phase_vel", 2),
                  ("tp_rnn", 3)]


def _model(variant, levels, K=2, dropout_rate=None):
    return build_model(ModelConfig(variant=variant, d_v=3, granularity=K, levels=levels,
                                   hidden=5, head1=6, head2=4, seed=3,
                                   dropout_rate=dropout_rate))


def _frames(B, S, seed=0):
    """(B, S+1, 3) random seed frames: a seed of S steps."""
    return np.random.default_rng(seed).normal(size=(B, S + 1, 3))


def _seed_input(model, frames, t):
    """Seed step t's input: the velocity frames[:, t+1] - frames[:, t], or the
    frame frames[:, t+1] for the pose-input variant."""
    if model.levels[0].source == "pose":
        return frames[:, t + 1]
    return frames[:, t + 1] - frames[:, t]


def _stepwise_seed(model, frames, mode="eval", rng=None, tape=None):
    """The seed one `model_step` per step, recorded into `tape` when given:
    (bank at t=S, prediction at t=S-1)."""
    bank = new_bank(model, len(frames))
    for t in range(frames.shape[1] - 1):
        v = model_step(model, bank, _seed_input(model, frames, t), mode, rng, tape)
    bank.last_pose = frames[:, -1]
    return bank, v


def _stepwise(model, frames, n_pred, mode="eval", rng=None, tape=None):
    """The whole rollout one `model_step` per step, recorded into `tape` when
    given: preds (n_pred, B, d)."""
    bank, v = _stepwise_seed(model, frames, mode, rng, tape)
    is_pose = model.levels[0].source == "pose"
    pose, preds = bank.last_pose, [v]
    for _ in range(1, n_pred):
        pose = pose + v
        v = model_step(model, bank, pose if is_pose else v, mode, rng, tape)
        preds.append(v)
    return np.stack(preds)


def _assert_same_tape(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x is None) == (y is None), f.name
        assert x is None or np.array_equal(x, y), f.name


def _hoisted(model, B, S):
    """Whether a tape-free seed of S steps at batch B hoists some level's
    input projections in some block."""
    cycle = max(level.phases for level in model.levels)
    block = cycle * max(1, arch.HOIST_ROWS // (cycle * B))
    fired = (sum(map(level.fires, range(b0, min(b0 + block, S))))
             for b0 in range(0, S, block) for level in model.levels)
    return any(1 < n and n * B <= arch.HOIST_ROWS for n in fired)


def _check(model, B, S, n_pred=6):
    frames = _frames(B, S, seed=S)
    ref = _stepwise(model, frames, n_pred)
    got, tape = rollout_forward(model, frames, n_pred, mode="eval", record=False)
    assert tape is None
    assert got.shape == ref.shape == (n_pred, B, 3)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    bank_ref, v_ref = _stepwise_seed(model, frames)
    bank, v = observe(model, frames)
    assert bank.t == bank_ref.t == S
    assert np.array_equal(bank.last_pose, bank_ref.last_pose)
    # a stride-fed level's bank keeps the inputs of the last K-1 steps, the
    # part of the stride window at S that comes before S; other banks none
    stride_fed = any(level.source == "stride" for level in model.levels)
    window = range(max(0, S - model.config.granularity + 1) if stride_fed else S, S)
    assert len(bank.recent) == len(bank_ref.recent) == len(window)
    for ti, x, y in zip(window, bank.recent, bank_ref.recent):
        assert np.array_equal(x, y) and np.array_equal(x, _seed_input(model, frames, ti))
    exact = B > 1 and not _hoisted(model, B, S)
    for a, b, level in zip([*bank.h, *bank.c], [*bank_ref.h, *bank_ref.c], model.levels * 2):
        assert a.shape == b.shape == (level.phases, B, 5)
        if exact:
            assert np.array_equal(a, b)
        else:
            assert np.allclose(a, b, rtol=0, atol=1e-14)
    assert np.array_equal(v, got[0]) and np.abs(v - v_ref).max() <= 1e-12 * np.abs(v_ref).max()


@pytest.mark.parametrize("B", [1, 3, arch.HOIST_ROWS + 1])
@pytest.mark.parametrize("variant,levels", VARIANT_LEVELS)
def test_tape_free_matches_recording_all_variants(variant, levels, B):
    # S = 10 is not a multiple of K^(M-1) = 4 for tp_rnn with M = 3; at
    # B = HOIST_ROWS + 1 no level hoists, so the bank must match exactly
    model = _model(variant, levels)
    assert _hoisted(model, B, 10) == (B <= 3)
    _check(model, B, S=10)


@pytest.mark.parametrize("variant,levels,K,kept", [
    ("tp_rnn", 3, 2, 0), ("tp_rnn", 3, 3, 0), ("stacked2_vel", 2, 10 ** 6, 0),
    ("double_scale_vel", 2, 2, 1), ("double_scale_phase_vel", 2, 2, 1)])
def test_bank_keeps_stride_history_only_for_stride_fed_levels(variant, levels, K, kept):
    # only a stride window reads inputs from before bank.t, K-1 of them; a
    # bank of another variant keeps none, whatever its granularity
    model = _model(variant, levels, K=K)
    frames = _frames(2, 10)
    bank, v = observe(model, frames)
    assert len(bank.recent) == kept
    for ti, x in zip(range(10 - kept, 10), bank.recent):
        assert np.array_equal(x, _seed_input(model, frames, ti))
    forecast(model, bank, v, 3)
    assert len(bank.recent) == kept


@pytest.mark.parametrize("B", [1, 3, arch.HOIST_ROWS + 1])
@pytest.mark.parametrize("K,S", [(2, 10), (2, 3), (2, 1), (3, 10), (3, 5), (3, 1)])
def test_tape_free_matches_recording_tp_rnn_m3(K, S, B):
    # S < K^(M-1) leaves some upper phases untouched; S = 1 is the one-step
    # zero-velocity seed of `posecast forecast --init-vel zero`.  At B =
    # HOIST_ROWS + 1 the seed runs in blocks of K^(M-1) steps (K=2, S=10:
    # 4, 4, 2; K=3, S=10: 9, 1), and the bank must match exactly
    _check(_model("tp_rnn", 3, K=K), B, S=S)


@pytest.mark.parametrize("S", [1, 10, 300])
@pytest.mark.parametrize("B", [1, 3, arch.HOIST_ROWS + 1])
@pytest.mark.parametrize("variant,levels,K", [(v, m, 2) for v, m in VARIANT_LEVELS]
                         + [("tp_rnn", 3, 3)])
def test_tape_free_matches_the_stacked_reference_bit_for_bit(variant, levels, K, B, S):
    # the slab bank runs the same GEMMs on the same rows and the same ufuncs
    # in the same order as the per-phase states did, so predictions and the
    # final bank are the reference's bits
    model = _model(variant, levels, K=K)
    frames = _frames(B, S, seed=S)
    ref, states = stacked_rollout(model, frames, 6)
    got, _ = rollout_forward(model, frames, 6, mode="eval", record=False)
    assert np.array_equal(got, ref)
    bank, v = observe(model, frames)
    forecast(model, bank, v, 6)
    for m, phases in enumerate(states):
        assert np.array_equal(bank.h[m], np.stack([h for h, _ in phases]))
        assert np.array_equal(bank.c[m], np.stack([c for _, c in phases]))


def _sweep_peak(model, frames):
    """The traced peak of a velocity-input model's tape-free 2-step rollout
    of `frames`, less the (B, S, d) velocities the engine takes from them:
    that input array grows with the seed, whatever the sweep holds."""
    tracemalloc.start()
    try:
        rollout_forward(model, frames, 2, mode="eval", record=False)
        return tracemalloc.get_traced_memory()[1] - frames[:, 1:].nbytes
    finally:
        tracemalloc.stop()


def test_tape_free_seed_memory_does_not_grow_with_its_length():
    # unhoisted, the tape-free sweep keeps one block of K^(M-1) steps of
    # level outputs alive, so the traced peak stays flat while S grows 8x;
    # a sweep over the whole seed per level holds S * B rows per level
    model = _model("tp_rnn", 3)
    peaks = []
    for S in (16, 128):
        peaks.append(_sweep_peak(model, _frames(arch.HOIST_ROWS + 1, S)))
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_tape_free_sweep_holds_one_block_at_a_time():
    # B=1, one level: blocks of HOIST_ROWS steps, each hoisted.  A level's
    # inputs and projections die with it and the block's outputs when the
    # next block starts, so a 4-block seed peaks where a 1-block one does;
    # keeping the last block's alongside the next one's read 1.34x
    model = _model("single_layer_vel", 1)
    peaks = []
    for S in (arch.HOIST_ROWS, 4 * arch.HOIST_ROWS):
        peaks.append(_sweep_peak(model, _frames(1, S)))
    assert peaks[1] < 1.15 * peaks[0], peaks


def test_long_single_seed_hoists_block_by_block(monkeypatch):
    # B=1, S=300 > HOIST_ROWS: blocks of 256 steps (64 cycles of 4), then 44;
    # in each block every level hoists, so every seed round is one
    # `lstm_gates` call and no `lstm_step` runs: level 1 256 + 44 one-row
    # rounds, level 2 128 + 22 of two rows, level 3 64 + 11 of four rows
    model, S = _model("tp_rnn", 3), 300
    assert arch.HOIST_ROWS < S and _hoisted(model, 1, S)
    calls = []
    real_step, real_gates = arch.lstm_step, arch.lstm_gates
    monkeypatch.setattr(arch, "lstm_step", lambda p, x, h, c: calls.append(
        ("step", x.shape[0])) or real_step(p, x, h, c))
    monkeypatch.setattr(arch, "lstm_gates", lambda pre, c, h: calls.append(
        ("gates", pre.shape[0])) or real_gates(pre, c, h))
    observe(model, _frames(1, S))
    want = [1] * 256 + [2] * 128 + [4] * 64 + [1] * 44 + [2] * 22 + [4] * 11
    assert calls == [("gates", r) for r in want]
    monkeypatch.undo()
    _check(model, 1, S=S)


def test_long_single_seed_memory_does_not_grow_with_its_length():
    # hoisted block by block, a B=1 seed keeps one block's projections and
    # outputs alive, so the traced peak stays flat while S grows 8x; one
    # hoisted block over the whole seed holds S rows of (4h) per level
    model = build_model(ModelConfig(variant="tp_rnn", d_v=3, levels=3, hidden=128,
                                    head1=6, head2=4, seed=3))
    peaks = []
    for S in (300, 2400):
        peaks.append(_sweep_peak(model, _frames(1, S)))
    assert peaks[1] < 1.25 * peaks[0], peaks


@pytest.mark.parametrize("variant,levels", [("tp_rnn", 3), ("double_scale_vel", 2),
                                            ("single_layer_pose", 1)])
def test_tape_free_seed_holds_nothing_per_step_beyond_its_inputs(variant, levels):
    # the seed reads the caller's (B, S+1, d) frames in place (a velocity-
    # input variant takes their differences into one array) and keeps no
    # per-step objects: a list of per-step input views costs about 150 bytes
    # a step, more than 8 * B * d for a small pose.  At B=2 a seed of 300 steps
    # already runs two full blocks of HOIST_ROWS rows, the most the sweep
    # keeps alive at once
    model = _model(variant, levels)
    peaks = {}
    for S in (300, 2400):
        frames = _frames(2, S)
        tracemalloc.start()
        try:
            rollout_forward(model, frames, 2, mode="eval", record=False)
            peaks[S] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2400] - peaks[300] <= frames.nbytes, peaks


def _array_bytes(obj) -> int:
    """Bytes of the distinct arrays reachable through lists, tuples and
    dataclass instances, as the benchmark's tracer counts a tape."""
    seen, total, todo = set(), 0, [obj]
    while todo:
        o = todo.pop()
        if isinstance(o, np.ndarray):
            if id(o) not in seen:
                seen.add(id(o))
                total += o.nbytes
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            todo.extend(vars(o).values())
    return total


@pytest.mark.parametrize("variant", ["tp_rnn", "double_scale_vel"])
def test_recorded_tape_keeps_gates_and_cell_state_per_firing(variant):
    # per level firing, B rows of 4h gates and h cell state; besides those
    # only the T inputs and, per prediction step, the head's d1, r1, d2 and
    # r2 (no dropout).  tanh(c), h, the layer inputs and the head's input
    # rows are recomputed, so a tape keeping them holds more
    h, B, S, n_pred = 16, 3, 10, 6
    model = build_model(ModelConfig(variant=variant, d_v=3, levels=2, hidden=h, head1=6,
                                    head2=4, seed=3))
    _, tape = rollout_forward(model, _frames(B, S), n_pred, mode="eval")
    T = S + n_pred - 1
    firings = sum(T // level.period for level in model.levels)
    floats = firings * (4 * h + h) + T * 3 + n_pred * 2 * (6 + 4)
    assert _array_bytes(tape) <= 8 * B * floats


def test_empty_batch_rolls_out_to_an_empty_result():
    model = _model("tp_rnn", 3)
    preds, tape = rollout_forward(model, _frames(0, 10), 4, mode="eval", record=False)
    assert preds.shape == (4, 0, 3) and tape is None


@pytest.mark.parametrize("seed_shape", [
    (4, 3),           # one unbatched seed
    (2, 4, 2),        # not the model's d_v
    (1, 2, 4, 3),
])
def test_rollout_forward_rejects_a_bad_shape(seed_shape):
    # (B, S+1, d_v) seed frames, else a shape error from `observe` before any
    # work, recorded or tape-free
    with pytest.raises(ShapeError, match="observe: expected"):
        rollout_forward(_model("single_layer_pose", 1), np.zeros(seed_shape), 2,
                        mode="eval", record=False)


@pytest.mark.parametrize("variant,levels", VARIANT_LEVELS)
def test_seed_inputs_are_the_frame_differences_or_the_frames(variant, levels):
    # a velocity-input variant reads the seed frames' differences and the
    # pose-input variant the frames themselves, bit for bit, not poses summed
    # back up from the differences; the forecast starts from the last frame
    model, S = _model(variant, levels), 10
    frames = _frames(3, S, seed=6)
    _, tape = rollout_forward(model, frames, 4, mode="eval")
    want = frames[:, 1:] if variant == "single_layer_pose" else np.diff(frames, axis=1)
    assert np.array_equal(tape.xs[:S], want.swapaxes(0, 1))
    bank, _ = observe(model, frames)
    assert np.array_equal(bank.last_pose, frames[:, -1])


@pytest.mark.parametrize("variant,levels", VARIANT_LEVELS)
def test_tape_free_short_seeds(variant, levels):
    for S in (1, 2, 3):
        _check(_model(variant, levels), 2, S=S)


@pytest.mark.parametrize("variant,levels", VARIANT_LEVELS)
def test_recorded_rollout_matches_step_at_a_time(variant, levels):
    # train mode with dropout: the recorded sweep runs level by level, the
    # reference step by step, and the head's masks come from the same draws
    model = _model(variant, levels, dropout_rate=0.3)
    S, n_pred = 10, 6
    frames = _frames(3, S)
    rng, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
    got, tape = rollout_forward(model, frames, n_pred, mode="train", rng=rng)
    # every row of the reference's tape is written, or it stays NaN and
    # compares unequal
    tape_ref = nan_tape(model, 3, S + n_pred - 1)
    ref = _stepwise(model, frames, n_pred, mode="train", rng=rng_ref, tape=tape_ref)
    assert np.array_equal(got, ref)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert len(tape.gates) == len(tape.c) == levels
    for a, b in zip([tape.xs, *tape.gates, *tape.c], [tape_ref.xs, *tape_ref.gates, *tape_ref.c]):
        assert np.array_equal(a, b)
    # the seed's head outputs are not predictions: the head's tapes are those
    # of the n_pred steps t >= S-1, while each one-input call runs the head
    assert len(tape.heads) == n_pred and len(tape_ref.heads) == S + n_pred - 1
    for ht, ht_ref in zip(tape.heads, tape_ref.heads[S - 1:]):
        assert ht.mask1 is not None
        _assert_same_tape(ht, ht_ref)


def test_level_major_schedule_stacks_phases(monkeypatch):
    # tp_rnn, K=2, M=3, S=10: level 1 runs 10 steps of B rows; tape-free,
    # level 2 runs five rounds of 2B rows and level 3 three rounds (4B, 4B, 2B
    # rows), while recording runs every level's firing steps one B-row call
    # each.  The head runs once, at t = S-1.  Tape-free with hoisting (B = 3,
    # 30 rows per level) each round is one `lstm_gates` call on the same rows
    # and no `lstm_step` runs.  Unhoisted, the tape-free sweep goes level by
    # level over blocks of 4 steps (the top level's phases): steps 0-3, 4-7,
    # then 8-9, on the same rows
    model = _model("tp_rnn", 3)
    level = {id(c): m for m, c in enumerate(model.cells, start=1)}
    rows, heads = [], []
    real_step, real_gates, real_head = arch.lstm_step, arch.lstm_gates, arch.head_forward

    def count_step(p, x, h, c, gates=None):
        rows.append((level[id(p)], x.shape[0]))
        real_step(p, x, h, c, gates)

    def count_gates(pre, c, h):
        rows.append(("gates", pre.shape[0]))
        real_gates(pre, c, h)

    def count_head(*a, **kw):
        heads.append(1)
        return real_head(*a, **kw)

    monkeypatch.setattr(arch, "lstm_step", count_step)
    monkeypatch.setattr(arch, "lstm_gates", count_gates)
    monkeypatch.setattr(arch, "head_forward", count_head)
    frames = _frames(3, 10)
    rounds = [3] * 10 + [6] * 5 + [12, 12, 6]
    block = [(1, 3)] * 4 + [(2, 6)] * 2 + [(3, 12)]
    expected = [(False, 0, block + block + [(1, 3)] * 2 + [(2, 6)] + [(3, 6)]),
                (False, arch.HOIST_ROWS, [("gates", r) for r in rounds]),
                (True, arch.HOIST_ROWS, [(1, 3)] * 10 + [(2, 3)] * 10 + [(3, 3)] * 10)]
    for record, cap, want in expected:
        monkeypatch.setattr(arch, "HOIST_ROWS", cap)
        rows.clear()
        heads.clear()
        tape = nan_tape(model, 3, 10) if record else None
        observe(model, frames, tape=tape)
        assert rows == want and len(heads) == 1
        # recorded, every level's firing at every step wrote its rows
        assert not record or all(np.isfinite(a).all() for a in (tape.xs, *tape.gates, *tape.c))


def test_tape_free_requires_eval_mode():
    model = _model("tp_rnn", 2)
    frames = _frames(2, 4)
    with pytest.raises(ConfigError):
        rollout_forward(model, frames, 3, mode="train", record=False)
    with pytest.raises(ConfigError):
        observe(model, frames, mode="train", rng=np.random.default_rng(0))


@pytest.mark.parametrize("variant,levels", VARIANT_LEVELS)
def test_rollout_forward_is_observe_then_forecast(variant, levels):
    # rollout_forward is observe plus forecast's feed-back steps, bit for bit:
    # tape-free, and with the seed recorded, in eval mode and in train mode
    # with dropout (rollout_forward records its forecast steps too, forecast
    # does not)
    model = _model(variant, levels, dropout_rate=0.3)
    S, n_pred = 10, 6
    frames = _frames(3, S, seed=5)
    for mode, record in (("eval", False), ("eval", True), ("train", True)):
        rng, rng_ref = np.random.default_rng(2), np.random.default_rng(2)
        got, tape = rollout_forward(model, frames, n_pred, mode=mode, rng=rng, record=record)
        seed_tape = arch.RolloutTape.empty(model, 3, S) if record else None
        bank, v = observe(model, frames, mode=mode, rng=rng_ref, tape=seed_tape)
        ref = forecast(model, bank, v, n_pred, mode=mode, rng=rng_ref)
        assert np.array_equal(got, ref), (mode, record)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        if record:
            # the seed's rows are the last of each slab (a slab's row 0 is its
            # level's last firing), and its head step is the first
            assert np.array_equal(tape.xs[:S], seed_tape.xs)
            for a, b in zip([*tape.gates, *tape.c], [*seed_tape.gates, *seed_tape.c]):
                assert np.array_equal(a[len(a) - len(b):], b)
            _assert_same_tape(tape.heads[0], seed_tape.heads[0])


def test_rollout_forward_runs_its_seed_through_observe(monkeypatch):
    # the seed stage is `arch.observe`, looked up by name, so a wrapper bound
    # there (the benchmark's tracer binds one) sees every rollout's seed
    seen, real = [], arch.observe

    def counting_observe(*args, **kwargs):
        seen.append(kwargs.get("tape") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(arch, "observe", counting_observe)
    model = _model("tp_rnn", 3)
    rollout_forward(model, _frames(2, 10), 4, mode="eval", record=False)
    rollout_forward(model, _frames(2, 10), 4, mode="eval")
    assert seen == [False, True]


@pytest.mark.parametrize("variant,levels", [("tp_rnn", 3), ("double_scale_phase_vel", 2)])
def test_saturating_gates_warn_no_caller(variant, levels):
    # input- and output-gate biases of -1000 overflow exp to inf on the way to
    # gates of exactly 0, the one floating-point exception a correct run
    # expects; the engine's stages state it, so no RuntimeWarning reaches a
    # caller, recorded or tape-free (CI reruns the suite under -W error)
    model = _model(variant, levels)
    for cell in model.cells:
        cell.b[:cell.h] = cell.b[2 * cell.h:3 * cell.h] = -1000.0
    frames = _frames(2, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for record in (True, False):
            rollout_forward(model, frames, 4, mode="eval", record=record)
        bank, v_first = observe(model, frames)
        forecast(model, bank, v_first, 4)
    # every gate shut: no cell state ever left zero
    assert not any(c.any() for c in bank.c) and not any(h.any() for h in bank.h)
