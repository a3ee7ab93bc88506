import re
from dataclasses import FrozenInstanceError, asdict, fields, make_dataclass, replace

import numpy as np
import pytest

from posecast import arch
from posecast.arch import (MAX_PHASES, VARIANTS, Model, ModelConfig, build_model, field_kinds,
                           forecast, level_table, new_bank, observe, param_count,
                           param_layout, rollout_backward, rollout_forward)
from posecast.errors import ConfigError, InputError, NumericError, ShapeError
from posecast.layers import LstmParams, draw_lstm
from posecast.metrics import zero_velocity_forecast
from posecast.posedata import PoseSequence, synth_multiscale

from rollout_oracle import model_step, nan_tape


def tiny_cfg(variant="tp_rnn", **kw):
    base = dict(variant=variant, d_v=3, granularity=2, levels=2, hidden=4,
                head1=5, head2=4, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def zero_model(cfg) -> Model:
    m = build_model(cfg)
    m.theta[:] = 0.0
    return m


# ---------------------------------------------------------------------------
# phase schedule: the engine reads level m's active phase, t mod K^(m-1) in
# tp_rnn, from its level table


def test_active_phase_examples():
    levels = level_table(tiny_cfg().validate())
    assert levels[0].phase(7) == 0
    assert levels[1].phase(5) == 1
    assert levels[1].phase(4) == 0


def test_active_phase_level5_period_16():
    # each fixed phase of level 5 (K=2) recurs with period 2^4 = 16
    level5 = level_table(tiny_cfg(levels=5).validate())[4]
    for q in range(16):
        hits = [t for t in range(200) if level5.phase(t) == q]
        assert hits[0] == q
        assert all(b - a == 16 for a, b in zip(hits, hits[1:]))


def test_logical_sequence_count():
    # the bank holds sum_m K^(m-1) phase sequences
    for K, M, n in [(2, 2, 3), (2, 5, 31), (3, 3, 13)]:
        model = build_model(tiny_cfg(granularity=K, levels=M))
        assert sum(level.phases for level in model.levels) == n
        assert sum(map(len, new_bank(model, 1).h)) == n


def test_mixed_radix_phase_spawning_equivalence():
    # spawning a phase as (parent phase + K^(m-2) * next digit) produces the
    # same index as the level table's phase, the residue t mod K^(m-1)
    def spawn(m, t, K):
        if m == 1:
            return 0
        return spawn(m - 1, t, K) + K ** (m - 2) * ((t // K ** (m - 2)) % K)

    for K in (2, 3):
        table = level_table(tiny_cfg(granularity=K, levels=5).validate())
        for m, level in enumerate(table, start=1):
            for t in range(150):
                assert spawn(m, t, K) == level.phase(t) == t % K ** (m - 1)


def _written_rows(tape):
    return [int(np.isfinite(c).all(axis=(1, 2)).sum()) for c in tape.c]


def _step_updates(model, bank, x, tape):
    """One step, recorded into `tape` (see `nan_tape`), on a bank whose slabs
    are first filled with random values, so every firing changes its rows:
    the (level, phase) of every slab row it changed.  The levels that wrote a
    tape row are exactly the updated ones, each one row, its firing's,
    holding the new cell state."""
    rng = np.random.default_rng(bank.t)
    for a in (*bank.h, *bank.c):
        a[...] = rng.normal(size=a.shape)
    t, rows = bank.t, _written_rows(tape)
    before = [(h.copy(), c.copy()) for h, c in zip(bank.h, bank.c)]
    model_step(model, bank, x, tape=tape)
    changed = [((h != h1) | (c != c1)).any(axis=(1, 2))
               for (h, c), h1, c1 in zip(before, bank.h, bank.c)]
    updated = [(m, int(q)) for m, rows in enumerate(changed, start=1)
               for q in np.flatnonzero(rows)]
    grew = [m for m, (a, b) in enumerate(zip(rows, _written_rows(tape)), start=1) if b != a]
    assert [m for m, _ in updated] == grew
    for m, q in updated:
        row = tape.row(m - 1, model.levels[m - 1], t)
        assert np.array_equal(tape.c[m - 1][row], bank.c[m - 1][q])
    return updated


def test_schedule_trace_k2_m3():
    # updated (level, phase) pairs per step follow (1,0),(2,t%2),(3,t%4)
    model = build_model(tiny_cfg(levels=3))
    bank, tape = new_bank(model, 1), nan_tape(model, 1, 8)
    rng = np.random.default_rng(0)
    for t in range(8):
        got = _step_updates(model, bank, rng.normal(size=(1, 3)), tape)
        assert got == [(1, 0), (2, t % 2), (3, t % 4)]


def test_exactly_one_phase_per_level_updates():
    model = build_model(tiny_cfg(granularity=3, levels=4, hidden=3))
    bank, tape = new_bank(model, 1), nan_tape(model, 1, 30)
    x = np.zeros((1, 3))
    for t in range(30):
        got = _step_updates(model, bank, x, tape)
        assert got == [(m, t % 3 ** (m - 1)) for m in (1, 2, 3, 4)]


# The schedule in closed form, as per-variant rules: the reference for the
# level table (level m is 1-based).
def _ref_phases(cfg, m):
    if m == 1:
        return 1
    if cfg.variant == "tp_rnn":
        return cfg.granularity ** (m - 1)
    if cfg.variant == "double_scale_phase_vel":
        return cfg.granularity
    return 1


def _ref_fires(cfg, m, t):
    if m == 1 or cfg.variant in ("tp_rnn", "double_scale_phase_vel", "stacked2_vel"):
        return True
    return t % cfg.granularity == cfg.granularity - 1


def _ref_source(cfg, m):
    if m == 1:
        return "pose" if cfg.variant == "single_layer_pose" else "velocity"
    if cfg.variant in ("tp_rnn", "stacked2_vel", "double_scale_hier_vel"):
        return "below"
    return "stride"


def _ref_valid(variant, levels, granularity):
    if variant in ("single_layer_pose", "single_layer_vel"):
        return levels == 1
    if variant == "stacked2_vel":
        return levels == 2
    if variant.startswith("double_scale"):
        return levels == 2 and granularity == 2
    return granularity ** (levels - 1) <= MAX_PHASES


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_level_table_matches_the_closed_form_schedule(variant):
    valid = 0
    for M in range(1, 5):
        for K in (2, 3):
            try:
                cfg = tiny_cfg(variant=variant, levels=M, granularity=K)
            except ConfigError:
                assert not _ref_valid(variant, M, K)
                continue
            assert _ref_valid(variant, M, K)
            valid += 1
            table = level_table(cfg)
            assert len(table) == M
            for m, level in enumerate(table, start=1):
                source = _ref_source(cfg, m)
                assert level.phases == _ref_phases(cfg, m)
                assert level.source == source
                assert level.d_in == (cfg.hidden if source == "below" else cfg.d_v)
                for t in range(64):
                    assert level.phase(t) == t % _ref_phases(cfg, m)
                    assert level.fires(t) == _ref_fires(cfg, m, t)
                    # the level-major seed's runs rely on these two facts: a
                    # multi-phase level, and a level feeding the one above,
                    # fire every step
                    if level.phases > 1 or (m < M and table[m].source == "below"):
                        assert level.fires(t)
    assert valid


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_no_level_both_holds_phases_and_skips_steps(variant):
    """The backward's previous firing on a phase sequence, tape row
    `row + phases`, and `_advance`'s runs of consecutive phases both need
    every level to hold one phase or fire every step."""
    tables = 0
    for M in range(1, 5):
        for K in (2, 3):
            try:
                cfg = tiny_cfg(variant=variant, levels=M, granularity=K)
            except ConfigError:
                continue
            tables += 1
            assert all(level.phases == 1 or level.period == 1 for level in level_table(cfg))
    assert tables


def test_param_layout_is_the_built_models_layout():
    for variant, levels in [("single_layer_pose", 1), ("double_scale_vel", 2),
                            ("double_scale_hier_vel", 2), ("tp_rnn", 3)]:
        cfg = tiny_cfg(variant=variant, levels=levels)
        model = build_model(cfg)
        assert [(n, a.shape) for n, a in model.tensors()] == param_layout(cfg)
        assert param_count(cfg) == model.n_params
        assert [c.d_in for c in model.cells] == [lv.d_in for lv in model.levels]


# ---------------------------------------------------------------------------
# config validation


def test_config_variant_constraints():
    with pytest.raises(ConfigError, match="variant"):
        tiny_cfg(variant="gru").validate()
    with pytest.raises(ConfigError, match="levels"):
        tiny_cfg(variant="single_layer_vel", levels=2).validate()
    with pytest.raises(ConfigError, match="levels"):
        tiny_cfg(variant="stacked2_vel", levels=3).validate()
    with pytest.raises(ConfigError, match="levels"):
        tiny_cfg(variant="double_scale_vel", levels=3).validate()
    with pytest.raises(ConfigError, match="granularity"):
        tiny_cfg(variant="double_scale_hier_vel", granularity=3).validate()
    with pytest.raises(ConfigError, match="granularity"):
        tiny_cfg(granularity=1).validate()
    with pytest.raises(ConfigError, match="dropout_rate"):
        tiny_cfg(dropout_rate=1.0).validate()


def test_config_caps_the_closed_form_parameter_count(monkeypatch):
    # validate caps `param_count` itself, after the level and width checks;
    # the cap sits exactly at it for every variant
    from posecast import arch
    cfgs = [tiny_cfg(variant=variant, levels=levels, d_v=7, hidden=6, head1=5, head2=3)
            for variant, levels in [("single_layer_pose", 1), ("stacked2_vel", 2),
                                    ("double_scale_vel", 2), ("double_scale_phase_vel", 2),
                                    ("tp_rnn", 3)]]
    for cfg, n in [(cfg, param_count(cfg)) for cfg in cfgs]:
        monkeypatch.setattr(arch, "MAX_PARAMS", n)
        assert cfg.validate()
        monkeypatch.setattr(arch, "MAX_PARAMS", n - 1)
        with pytest.raises(ConfigError, match="parameters"):
            cfg.validate()


def test_config_bounds_phase_bank_and_seed():
    # the state bank holds K^(M-1) top-level phases; an absurd K or M is
    # rejected before anything is allocated
    assert tiny_cfg(granularity=2, levels=13).validate()
    with pytest.raises(ConfigError, match="phase sequences"):
        tiny_cfg(granularity=2, levels=14).validate()
    with pytest.raises(ConfigError, match="phase sequences"):
        tiny_cfg(granularity=10 ** 12, levels=2).validate()
    with pytest.raises(ConfigError, match="phase sequences"):
        tiny_cfg(levels=10 ** 12).validate()
    with pytest.raises(ConfigError, match="seed"):
        tiny_cfg(seed=-1).validate()


def test_config_roundtrip_and_dropout_default():
    cfg = tiny_cfg(levels=3)
    assert ModelConfig(**asdict(cfg)) == cfg
    assert cfg.effective_dropout == 0.2
    assert tiny_cfg(levels=2).effective_dropout == 0.0
    assert tiny_cfg(levels=4, dropout_rate=0.1).effective_dropout == 0.1
    assert tiny_cfg(levels=4, dropout_rate=0.0).effective_dropout == 0.0


@pytest.mark.parametrize("kw,message", [
    (dict(variant="gru"), "variant: unknown value 'gru'"),
    (dict(d_v=0), "d_v: must be >= 1, got 0"),
    (dict(granularity=1), "granularity: must be >= 2, got 1"),
    (dict(levels=0), "levels: must be >= 1, got 0"),
    (dict(variant="single_layer_vel"), "levels: single_layer_vel requires levels == 1"),
    (dict(variant="double_scale_vel", granularity=3),
     "granularity: double_scale_vel requires granularity == 2"),
    (dict(levels=14), "granularity/levels: tp_rnn's top level would hold more than "
                      "4096 phase sequences"),
    (dict(head2=0), "hidden/head1/head2: must be >= 1"),
    (dict(hidden=10 ** 5), "hidden/head1/head2: the model would hold more than "
                           "134217728 parameters"),
    (dict(leaky_slope=float("nan")), "leaky_slope: must be finite and > 0, got nan"),
    (dict(forget_bias=float("inf")), "forget_bias: must be finite, got inf"),
    (dict(dropout_rate=1.0), "dropout_rate: must be in [0, 1), got 1.0"),
    (dict(seed=-1), "seed: must be >= 0, got -1"),
])
def test_model_config_is_checked_when_built(kw, message):
    # no invalid config exists: building one, directly or by replacing a
    # field of a valid one, raises the check's message
    with pytest.raises(ConfigError) as e:
        tiny_cfg(**kw)
    assert str(e.value) == message
    with pytest.raises(ConfigError) as e:
        replace(tiny_cfg(), **kw)
    assert str(e.value) == message


def test_model_config_is_frozen():
    cfg = tiny_cfg()
    for f in fields(cfg):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    assert cfg == tiny_cfg()


def test_every_config_field_has_a_kind():
    # both config readers (key=value files, checkpoint meta) type a value by
    # field_kinds; a field of another annotation, such as bool, must not be
    # read as an int or a float, so the rule rejects it
    from posecast.train import TrainConfig
    for cls in (ModelConfig, TrainConfig):
        kinds = field_kinds(cls)
        assert list(kinds) == [f.name for f in fields(cls)]
        assert set(kinds.values()) <= {(str, False), (int, False), (float, False),
                                       (float, True)}
    with pytest.raises(KeyError, match="bool"):
        field_kinds(make_dataclass("Probe", [("flag", "bool")]))


@pytest.mark.parametrize("name, value", [
    ("hidden", 4.5), ("hidden", True), ("hidden", "4"), ("d_v", True),
    ("seed", np.int64(0)), ("levels", np.int32(2)), ("variant", 1), ("variant", None),
    ("leaky_slope", "0.01"), ("leaky_slope", False), ("dropout_rate", np.True_),
    pytest.param("leaky_slope", 10 ** 400, id="leaky_slope-10**400")])
def test_model_config_of_a_wrong_kind_raises_type_error(name, value):
    # each value is checked against its field_kinds kind before validate runs:
    # hidden=4.5 would fail later inside the model, d_v=True would build a
    # 1-dim one, checkpoint meta (JSON) cannot hold a NumPy integer, and no
    # float holds 10**400
    with pytest.raises(TypeError, match=re.escape(f"bad value for {name!r}: {value!r}")):
        tiny_cfg(**{name: value})
    with pytest.raises(TypeError, match=re.escape(f"bad value for {name!r}")):
        replace(tiny_cfg(), **{name: value})


def test_model_config_takes_an_int_for_a_float_and_none_for_a_dropout_rate():
    cfg = tiny_cfg(leaky_slope=1, forget_bias=0, dropout_rate=None)
    assert (cfg.leaky_slope, cfg.forget_bias, cfg.dropout_rate) == (1, 0, None)
    assert tiny_cfg(dropout_rate=0).effective_dropout == 0


# ---------------------------------------------------------------------------
# parameter accounting


def test_param_count_fixture_371():
    # d_v=3, h=4, h1=5, h2=4, K=2, M=2: cells 128 + 144, head 99
    model = build_model(tiny_cfg())
    assert model.n_params == 371
    sizes = {name: arr.size for name, arr in model.tensors()}
    assert sizes["cell0.W"] + sizes["cell0.b"] == 128
    assert sizes["cell1.W"] + sizes["cell1.b"] == 144
    assert sum(v for n, v in sizes.items() if n.startswith("head.")) == 99


def test_param_count_k_independent():
    m2 = build_model(tiny_cfg(granularity=2))
    m3 = build_model(tiny_cfg(granularity=3))
    assert m2.n_params == m3.n_params == 371
    m5 = build_model(tiny_cfg(granularity=5, levels=3))
    assert m5.n_params == build_model(tiny_cfg(granularity=2, levels=3)).n_params


def test_physical_cells_vs_logical_sequences():
    # K=2, M=2: three logical sequences but exactly two stored cells + head
    model = build_model(tiny_cfg())
    assert len(model.cells) == 2
    bank = new_bank(model, 1)
    assert [len(level) for level in bank.h] == [len(level) for level in bank.c] == [1, 2]


def test_weight_sharing_mutation_affects_all_phases():
    # zeroing the single level-2 cell silences every level-2 phase
    model = build_model(tiny_cfg())
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 3))
    model.cells[1].W[...] = 0.0
    model.cells[1].b[...] = 0.0
    bank = new_bank(model, 1)
    for t in range(6):
        model_step(model, bank, xs[t:t + 1])
    assert not np.any(bank.h[1]) and not np.any(bank.c[1])


def test_single_layer_vel_shapes():
    model = build_model(tiny_cfg(variant="single_layer_vel", levels=1))
    assert len(model.cells) == 1
    assert model.cells[0].d_in == 3
    assert model.head.W1.shape[1] == 3 + 4  # d_v + h


def test_level_input_dims_per_variant():
    hidden_fed = build_model(tiny_cfg(variant="double_scale_hier_vel"))
    assert hidden_fed.cells[1].d_in == 4
    stride_fed = build_model(tiny_cfg(variant="double_scale_vel"))
    assert stride_fed.cells[1].d_in == 3
    phase_fed = build_model(tiny_cfg(variant="double_scale_phase_vel"))
    assert phase_fed.cells[1].d_in == 3


def test_theta_is_one_buffer_behind_the_named_tensors():
    model = build_model(tiny_cfg(levels=3))
    # the initial values are those the layer initializer draws
    cell = LstmParams(W=np.empty((16, 8)), b=np.empty(16), d_in=4, h=4)
    draw_lstm(cell, 0, stream=(0, 2))
    assert np.array_equal(model.cells[1].W, cell.W)
    off = 0
    for _, arr in model.tensors():
        assert np.shares_memory(arr, model.theta)
        assert np.array_equal(arr.ravel(), model.theta[off:off + arr.size])
        off += arr.size
    assert off == model.n_params == model.theta.size
    # updating theta in place updates the cells and the head
    w = model.head.W3.copy()
    model.theta += 1.0
    assert np.array_equal(model.head.W3, w + 1.0)
    other = build_model(tiny_cfg(levels=3, seed=99))
    other.set_tensors([arr for _, arr in model.tensors()])
    assert np.array_equal(other.theta, model.theta)
    assert not np.shares_memory(other.theta, model.theta)
    with pytest.raises(ShapeError):
        other.set_tensors([arr for _, arr in model.tensors()][:-1])


def test_gradient_buffer_views_follow_the_parameter_layout():
    model = build_model(tiny_cfg(levels=3))
    frames = np.stack([s.frames for s in synth_multiscale(2, 12, 3, seed=1)])
    _, records = rollout_forward(model, frames[:, :9], 3, mode="eval")
    d_preds = np.ones((3, 2, 3))
    grads = rollout_backward(model, records, d_preds)
    # a backward overwrites its tape's gates with their gradients: a tape
    # serves one backward
    with pytest.raises(ShapeError, match="one backward"):
        rollout_backward(model, records, d_preds)
    _, records = rollout_forward(model, frames[:, :9], 3, mode="eval")
    assert grads.dtype == np.float64 and grads.shape == model.theta.shape
    views = model.views(grads)
    assert [g.shape for g in views] == [arr.shape for _, arr in model.tensors()]
    assert all(np.shares_memory(g, grads) for g in views)
    # a given buffer is zeroed, filled and returned
    buf = np.full_like(model.theta, np.nan)
    assert rollout_backward(model, records, d_preds, grads=buf) is buf
    assert np.array_equal(buf, grads)


# ---------------------------------------------------------------------------
# stepping, observe, forecast


def test_zero_model_outputs_zero():
    model = zero_model(tiny_cfg(levels=3))
    bank = new_bank(model, 1)
    out = model_step(model, bank, np.array([[1.0, -2.0, 3.0]]))
    assert np.array_equal(out, np.zeros((1, 3)))


def test_model_step_determinism():
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(10, 3))
    outs = []
    for _ in range(2):
        model = build_model(tiny_cfg(levels=3, seed=5))
        bank = new_bank(model, 1)
        outs.append([model_step(model, bank, x[None]) for x in xs])
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


def _seed_frames(n_steps, d=3, seed=0, B=1):
    """(B, n_steps + 1, d) random-walk seed frames: seeds of n_steps steps."""
    steps = np.random.default_rng(seed).normal(size=(B, n_steps + 1, d))
    return np.cumsum(steps, axis=1)


def test_a_bad_mode_is_a_config_error():
    model = build_model(tiny_cfg())
    bank, v = observe(model, _seed_frames(4))
    for call in (lambda: observe(model, _seed_frames(4), mode="predict"),
                 lambda: forecast(model, bank, v, 3, mode="predict"),
                 lambda: rollout_forward(model, _seed_frames(4), 3, mode="predict")):
        with pytest.raises(ConfigError, match=r"mode: must be train\|eval"):
            call()


def test_forecast_rejects_a_bank_of_another_model():
    model = build_model(tiny_cfg())
    other = build_model(tiny_cfg(granularity=3))
    bank, v = observe(other, _seed_frames(4))
    with pytest.raises(ConfigError, match="bank layout"):
        forecast(model, bank, v, 3)
    with pytest.raises(ConfigError, match="no last pose"):
        forecast(model, new_bank(model, 1), v, 3)


@pytest.mark.parametrize("v_first", [
    np.zeros(3), np.zeros((1, 1, 3)),   # unbatched, or one rank too many
    np.zeros((1, 4)),                   # not the model's d_v
    np.zeros((2, 3)),                   # not one per banked sequence
])
def test_forecast_rejects_a_bad_first_prediction(v_first):
    model = build_model(tiny_cfg())
    bank, _ = observe(model, _seed_frames(4))
    with pytest.raises(ShapeError, match="forecast: expected"):
        forecast(model, bank, v_first, 3)


def test_n_steps_below_one_is_an_input_error():
    model = build_model(tiny_cfg())
    bank, v = observe(model, _seed_frames(4))
    with pytest.raises(InputError, match="forecast: n_steps must be >= 1, got 0"):
        forecast(model, bank, v, 0)
    with pytest.raises(InputError, match="rollout_forward: n_steps must be >= 1, got -1"):
        rollout_forward(model, _seed_frames(4), -1)


def test_observe_schedule_counts():
    model = build_model(tiny_cfg())
    tape = arch.RolloutTape.empty(model, 1, 50)
    bank, vhat = observe(model, _seed_frames(50), tape=tape)
    assert bank.t == 50
    assert vhat.shape == (1, 3)
    # one tape row per level firing: 50 for each level, level 2's taking
    # turns between its two phases
    assert [len(c) for c in tape.c] == [len(g) for g in tape.gates] == [50, 50]
    # each phase's last firing (step 49 - (49 - q) mod 2^(m-1)) holds the
    # bank's state: its cell state, and h = o * tanh(c)
    h = model.config.hidden
    for m, level in enumerate(model.levels):
        for q in range(level.phases):
            row = tape.row(m, level, 49 - (49 - q) % level.phases)
            assert np.array_equal(tape.c[m][row], bank.c[m][q])
            assert np.array_equal(tape.gates[m][row, :, 2 * h:3 * h] * np.tanh(tape.c[m][row]),
                                  bank.h[m][q])


@pytest.mark.parametrize("frames,error,match", [
    (np.zeros((1, 0, 3)), InputError, "need a seed"),   # a seed of no steps
    (np.zeros((2, 1, 3)), InputError, "need a seed"),
    (np.zeros((2, 3)), ShapeError, "expected"),         # unbatched
    (np.zeros((1, 1, 2, 3)), ShapeError, "expected"),
    (np.zeros((1, 2, 4)), ShapeError, "expected"),      # not the model's d_v
])
def test_observe_rejects_a_bad_shape(frames, error, match):
    # (B, S+1, d_v) seed frames with S >= 1, else an error before any work
    with pytest.raises(error, match=f"observe: {match}"):
        observe(build_model(tiny_cfg()), frames)


def test_repeated_frame_seed_is_one_zero_velocity_step():
    # one observed pose twice, as `posecast forecast --init-vel zero` passes
    # it: a valid bank at t == 1 whose forecast starts from that pose
    model = build_model(tiny_cfg())
    bank, vhat = observe(model, np.array([[[1.0, 2.0, 3.0]] * 2]))
    assert bank.t == 1
    assert vhat.shape == (1, 3)
    assert np.array_equal(bank.last_pose, [[1.0, 2.0, 3.0]])


def test_forecast_shape_contract():
    model = build_model(tiny_cfg())
    bank, v_first = observe(model, _seed_frames(10, B=2))
    assert v_first.shape == (2, 3)
    pred = forecast(model, bank, v_first, 25)
    assert pred.shape == (25, 2, 3)


def test_forecast_nonfinite_raises_with_step_index():
    model = build_model(tiny_cfg())
    bank, _ = observe(model, _seed_frames(4, B=2))
    bad = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(NumericError, match="step 0 of sequence 1"):
        forecast(model, bank, bad, 3)


@pytest.mark.parametrize("variant,levels", [
    ("single_layer_pose", 1), ("single_layer_vel", 1), ("stacked2_vel", 2),
    ("double_scale_vel", 2), ("double_scale_hier_vel", 2),
    ("double_scale_phase_vel", 2), ("tp_rnn", 3),
])
def test_zero_model_forecast_is_zero_velocity_baseline(variant, levels):
    # all-zero parameters predict exactly-zero velocities, so the poses
    # integrated from the last observed frame repeat it bit for bit
    from posecast.evaluate import forecast_window
    from posecast.posedata import Window
    model = zero_model(tiny_cfg(variant=variant, levels=levels))
    rng = np.random.default_rng(11)
    frames = rng.normal(size=(17, 3))
    p = PoseSequence(frames=frames, frame_interval_ms=40.0)
    seed = PoseSequence(frames=frames[:12], frame_interval_ms=40.0)
    target = PoseSequence(frames=frames[12:], frame_interval_ms=40.0)

    bank, v_first = observe(model, seed.frames[None])
    pred = forecast(model, bank, v_first, 5)
    assert np.array_equal(pred, np.zeros((5, 1, 3)))

    poses = forecast_window(model, Window(seed=seed, target=target))
    baseline = zero_velocity_forecast(seed.frames[None], 5)[0]
    assert np.array_equal(poses.frames, baseline)


def test_tp_rnn_m1_equals_single_layer_vel():
    # with identical parameters the degenerate one-level hierarchy computes
    # the same function as the plain velocity-input single layer
    single = build_model(tiny_cfg(variant="single_layer_vel", levels=1, seed=3))
    tp = build_model(tiny_cfg(variant="tp_rnn", levels=1, seed=8))
    tp.theta[:] = single.theta
    rng = np.random.default_rng(2)
    xs = rng.normal(size=(9, 3))
    bank_s, bank_t = new_bank(single, 1), new_bank(tp, 1)
    for x in xs:
        out_s = model_step(single, bank_s, x[None])
        out_t = model_step(tp, bank_t, x[None])
        assert np.array_equal(out_s, out_t)


def test_double_scale_strided_input_is_pose_difference_over_k(monkeypatch):
    # the stride-fed upper level consumes the sum of the last K velocities,
    # i.e. P_t - P_{t-K}
    model = build_model(tiny_cfg(variant="double_scale_vel"))
    upper_inputs, real_step = [], arch.lstm_step

    def step(p, x, h, c, gates=None):
        if p is model.cells[1]:
            upper_inputs.append(x)
        real_step(p, x, h, c, gates)

    monkeypatch.setattr(arch, "lstm_step", step)
    rng = np.random.default_rng(6)
    vels = rng.normal(size=(8, 3))
    bank, tape = new_bank(model, 1), nan_tape(model, 1, 8)
    for t in range(8):
        upper_inputs.clear()
        got = _step_updates(model, bank, vels[t:t + 1], tape)
        # the bank keeps the last K-1 inputs: what the next firing step's
        # window sums besides its own input
        assert len(bank.recent) == 1
        assert np.array_equal(bank.recent[0][0], vels[t])
        if t % 2 == 1:  # fires every K=2 steps
            assert got == [(1, 0), (2, 0)]
            assert np.allclose(upper_inputs[0][0], vels[t - 1] + vels[t], atol=1e-15)
        else:
            assert got == [(1, 0)] and upper_inputs == []


def test_double_scale_phase_updates_every_step():
    model = build_model(tiny_cfg(variant="double_scale_phase_vel"))
    bank, tape = new_bank(model, 1), nan_tape(model, 1, 6)
    for t in range(6):
        got = _step_updates(model, bank, np.ones((1, 3)), tape)
        assert got == [(1, 0), (2, t % 2)]
