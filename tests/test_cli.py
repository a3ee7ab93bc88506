import re
import struct
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from posecast.arch import ModelConfig, build_model
from posecast.checkpoint import load_checkpoint, save_checkpoint
from posecast.cli import main
from posecast.evaluate import collect_windows, evaluate_pck
from posecast.posedata import MAX_SYNTH_VALUES, load_manifest, load_split
from posecast.train import (AdamState, TrainConfig, load_model_checkpoint,
                            save_model_checkpoint, save_train_checkpoint)


def run(*argv):
    return main([str(a) for a in argv])


def synth(tmp_path, name="data", n_seq=5, length=60, dim=3, seed=0):
    out = tmp_path / name
    assert run("synth", "--out", out, "--n-seq", n_seq, "--length", length,
               "--dim", dim, "--seed", seed) == 0
    return out


def write_cfg(path, **kv):
    path.write_text("\n".join(f"{k}={v}" for k, v in kv.items()) + "\n")
    return path


def set_cfg(path, key, value):
    """Set `key` in the config file `path`: its line, if any, is replaced."""
    lines = [ln for ln in path.read_text().splitlines() if ln.partition("=")[0] != key]
    path.write_text("\n".join(lines + [f"{key}={value}"]) + "\n")


def zero_checkpoint(tmp_path, d_v=3, name="zero.bin"):
    model = build_model(ModelConfig(variant="tp_rnn", d_v=d_v, granularity=2,
                                    levels=2, hidden=4, head1=5, head2=4))
    model.theta[:] = 0.0
    p = tmp_path / name
    save_model_checkpoint(p, model)
    return p


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_files_and_split(tmp_path):
    out = synth(tmp_path, n_seq=10, length=80)
    csvs = sorted(f.name for f in out.glob("seq_*.csv"))
    assert len(csvs) == 10
    manifest = (out / "manifest.txt").read_text().splitlines()
    splits = [line.split(",")[1] for line in manifest]
    assert splits.count("train") == 8 and splits.count("test") == 2


def test_synth_deterministic(tmp_path):
    a = synth(tmp_path, "a", n_seq=3)
    b = synth(tmp_path, "b", n_seq=3)
    for fa, fb in zip(sorted(a.iterdir()), sorted(b.iterdir())):
        assert fa.read_bytes() == fb.read_bytes()


@pytest.mark.parametrize("flag,value", [
    ("dim", 1), ("dim", 10 ** 12), ("length", 10 ** 12),
    ("interval-ms", "nan"), ("interval-ms", "inf"),
])
def test_synth_rejects_dim_one(tmp_path, capsys, flag, value):
    # a one-dimensional dataset, one too large to hold, or a frame interval
    # no later command could read
    assert run("synth", "--out", tmp_path / "d", f"--{flag}", value) == 3
    assert "input error" in capsys.readouterr().err
    # the arguments are checked before anything is written, the directory too
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------------------------------
# train


def _train_cfgs(tmp_path, iterations=60, **extra):
    mc = write_cfg(tmp_path / "model.cfg", variant="tp_rnn", granularity=2,
                   levels=2, hidden=4, head1=5, head2=4, seed=0)
    tc = write_cfg(tmp_path / "train.cfg", iterations=iterations, batch_size=4,
                   seed_len=8, target_len=4, seed=0, **extra)
    return mc, tc


def test_train_end_to_end(tmp_path):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=500)
    out = tmp_path / "run"
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", out) == 0
    trace = (out / "loss_trace.csv").read_text().splitlines()
    assert len(trace) == 500
    assert trace[0].startswith("0,")
    assert (out / "checkpoint_final.bin").exists()


def test_train_unknown_config_key(tmp_path, capsys):
    data = synth(tmp_path)
    mc, _ = _train_cfgs(tmp_path)
    tc = write_cfg(tmp_path / "bad.cfg", iterations=10, momentum=0.9)
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt",
               "--out", tmp_path / "r") == 2
    assert "momentum" in capsys.readouterr().err


def test_train_dim_mismatch(tmp_path):
    data = synth(tmp_path, dim=3)
    mc = write_cfg(tmp_path / "model5.cfg", variant="single_layer_vel",
                   levels=1, hidden=4, head1=5, head2=4, d_v=5)
    _, tc = _train_cfgs(tmp_path, iterations=10)
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt",
               "--out", tmp_path / "r") == 2


@pytest.mark.parametrize("command", ["train", "train_resume", "ablate"])
def test_model_d_v_off_the_dataset_dim_exits_2_before_any_model(tmp_path, capsys,
                                                                monkeypatch, command):
    # one rule: a config's d_v defaults to the dataset dim and must equal it,
    # checked before build_model draws any weights; a resumed run checks its
    # checkpoint's d_v
    import posecast.cli as cli_mod

    mc, tc = _train_cfgs(tmp_path, iterations=2, checkpoint_every=1)
    argv = ["--model-config", mc, "--train-config", tc]
    if command == "train_resume":  # a checkpoint of a run on 5-dim data
        assert run("train", *argv, "--manifest", synth(tmp_path, "d5", dim=5) / "manifest.txt",
                   "--out", tmp_path / "run") == 0
        argv = ["--resume", tmp_path / "run" / "checkpoint_00000001.bin"]
    set_cfg(mc, "d_v", 5)
    data = synth(tmp_path, dim=3)
    monkeypatch.setattr(cli_mod, "build_model", lambda cfg: pytest.fail("model built"))
    out = tmp_path / "r"
    assert run(command.partition("_")[0], *argv, "--manifest", data / "manifest.txt",
               "--out", out) == 2
    assert "config error: model d_v 5 != dataset dim 3" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_matches_uninterrupted(tmp_path):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=60, checkpoint_every=30)
    full = tmp_path / "full"
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", full) == 0
    part = tmp_path / "part"
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", part) == 0
    resumed = tmp_path / "resumed"
    assert run("train", "--resume", part / "checkpoint_00000030.bin",
               "--manifest", data / "manifest.txt", "--out", resumed) == 0
    assert (resumed / "checkpoint_final.bin").read_bytes() == \
        (full / "checkpoint_final.bin").read_bytes()


def test_train_resume_of_a_finished_run_writes_an_empty_loss_trace(tmp_path):
    # no iteration is left, so the trace has zero rows: an empty file, not
    # one blank line that a row count would read as one row
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=4)
    run_dir, resumed = tmp_path / "run", tmp_path / "resumed"
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", run_dir) == 0
    assert run("train", "--resume", run_dir / "checkpoint_final.bin",
               "--manifest", data / "manifest.txt", "--out", resumed) == 0
    assert (resumed / "loss_trace.csv").read_bytes() == b""


def _resume_checkpoint(tmp_path, data, case):
    mc, tc = _train_cfgs(tmp_path, iterations=4, checkpoint_every=2)
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "part") == 0
    meta, tensors = load_checkpoint(tmp_path / "part" / "checkpoint_00000002.bin")
    if case.startswith("no_"):
        del meta[case[3:]]
    elif case == "train_config_unknown_key":
        meta["train_config"]["momentum"] = 0.9
    elif case == "train_config_missing_key":
        del meta["train_config"]["iterations"]
    elif case == "train_config_bad_type":
        meta["train_config"]["batch_size"] = "4"
    elif case == "iteration_not_int":
        meta["iteration"] = 2.5
    elif case == "iteration_past_end":
        meta["iteration"] = 5
    elif case == "rng_state_not_pcg64":
        meta["rng_state"]["bit_generator"] = "MT19937"
    elif case == "rng_state_bad_value":
        meta["rng_state"]["state"]["inc"] = -1
    elif case.startswith("huge_"):
        key = "train_config" if case == "huge_lr0" else "model_config"
        meta[key][case[5:]] = 10 ** 400
    p = tmp_path / f"{case}.bin"
    save_checkpoint(p, meta, list(tensors.items()))
    if case == "long_seed":
        _give_a_long_seed(p)
    return p


# meta values that no float holds, or that JSON reads past Python's limit of
# 4300 digits for an int, and the text the exit-3 error names
HUGE_VALUES = {"huge_forget_bias": "model_config: bad value for 'forget_bias'",
               "huge_leaky_slope": "model_config: bad value for 'leaky_slope'",
               "huge_lr0": "train_config: bad value for 'lr0'",
               "long_seed": "bad meta block: Exceeds the limit"}


def _give_a_long_seed(p):
    # json.dumps cannot write a 5001-digit int either, so the meta block's
    # first seed (model_config's, keys sorted) is rewritten in the file
    raw = p.read_bytes()
    (n,) = struct.unpack_from("<Q", raw, 12)
    meta = re.sub(rb'"seed": \d+', b'"seed": ' + b"9" * 5001, raw[20:20 + n], count=1)
    p.write_bytes(raw[:12] + struct.pack("<Q", len(meta)) + meta + raw[20 + n:])


@pytest.mark.parametrize("case", [
    "no_train_config", "no_iteration", "no_rng_state", "train_config_unknown_key",
    "train_config_missing_key", "train_config_bad_type", "iteration_not_int",
    "iteration_past_end", "rng_state_not_pcg64", "rng_state_bad_value", *HUGE_VALUES])
def test_train_resume_bad_meta_exits_3(tmp_path, capsys, case):
    data = synth(tmp_path)
    ck = _resume_checkpoint(tmp_path, data, case)
    assert run("train", "--resume", ck, "--manifest", data / "manifest.txt",
               "--out", tmp_path / "resumed") == 3
    err = capsys.readouterr().err
    assert f"input error: {ck}: {HUGE_VALUES.get(case, '')}" in err and "Traceback" not in err


def test_train_resume_bad_kind_names_the_value(tmp_path, capsys):
    data = synth(tmp_path)
    ck = _resume_checkpoint(tmp_path, data, "train_config_bad_type")
    assert run("train", "--resume", ck, "--manifest", data / "manifest.txt",
               "--out", tmp_path / "resumed") == 3
    assert capsys.readouterr().err == \
        f"input error: {ck}: train_config: bad value for 'batch_size': '4'\n"


def test_train_resume_from_a_model_checkpoint_exits_2(tmp_path, capsys):
    # a model checkpoint holds no train_config, iteration or RNG state to resume
    data = synth(tmp_path)
    ck = zero_checkpoint(tmp_path)
    out = tmp_path / "resumed"
    assert run("train", "--resume", ck, "--manifest", data / "manifest.txt",
               "--out", out) == 2
    assert capsys.readouterr().err == f"config error: {ck}: not a training checkpoint\n"
    assert not out.exists()


def test_train_resume_dim_mismatch_exits_2(tmp_path):
    ck = _resume_checkpoint(tmp_path, synth(tmp_path), "none")
    other = synth(tmp_path, "data4", dim=4)
    assert run("train", "--resume", ck, "--manifest", other / "manifest.txt",
               "--out", tmp_path / "resumed") == 2


def _moment_checkpoint(tmp_path, data, case):
    """A mid-run checkpoint of an Adam run stripped of its moments
    (`adam_stripped`), or of an SGD run given both moment sets
    (`sgd_with_moments`)."""
    optimizer = "adam" if case == "adam_stripped" else "sgd"
    mc, tc = _train_cfgs(tmp_path, iterations=4, checkpoint_every=2, optimizer=optimizer)
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "part") == 0
    meta, tensors = load_checkpoint(tmp_path / "part" / "checkpoint_00000002.bin")
    params = [(n, a) for n, a in tensors.items() if not n.startswith("opt.")]
    if case == "sgd_with_moments":
        params += [(prefix + n, np.full(a.shape, 0.5))
                   for prefix in ("opt.m.", "opt.v.") for n, a in params]
    p = tmp_path / f"{case}.bin"
    save_checkpoint(p, meta, params)
    return p


@pytest.mark.parametrize("case", ["adam_stripped", "sgd_with_moments"])
def test_train_resume_with_moments_of_the_other_optimizer_exits_3(tmp_path, capsys,
                                                                   case):
    # an Adam run does not resume from zero moments, and an SGD run does not
    # carry moments it never updates into its checkpoints
    data = synth(tmp_path)
    ck = _moment_checkpoint(tmp_path, data, case)
    out = tmp_path / "resumed"
    assert run("train", "--resume", ck, "--manifest", data / "manifest.txt",
               "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "Adam moments" in err and "Traceback" not in err
    assert not out.exists()


def test_train_rejects_a_train_split_at_two_frame_intervals(tmp_path, capsys):
    # one phase schedule cannot run 30 ms and 40 ms steps; fresh or resumed,
    # rejected before the run directory exists
    data = synth(tmp_path)
    mixed = _manifest_at(data, 30.0, rows=[0])
    mc, tc = _train_cfgs(tmp_path, iterations=4, checkpoint_every=2)
    out = tmp_path / "run"
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", mixed, "--out", out) == 3
    assert "[30.0, 40.0]" in capsys.readouterr().err and not out.exists()
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "part") == 0
    assert run("train", "--resume", tmp_path / "part" / "checkpoint_00000002.bin",
               "--manifest", mixed, "--out", out) == 3
    assert "[30.0, 40.0]" in capsys.readouterr().err and not out.exists()


def test_train_negative_seed_exits_2(tmp_path):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    tc.write_text(tc.read_text().replace("seed=0", "seed=-1"))
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "r") == 2


def test_train_huge_batch_size_exits_2(tmp_path, capsys):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    tc.write_text(tc.read_text().replace("batch_size=4", "batch_size=1000000000000"))
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert "config error" in err and "batch_size" in err


# NaN, which slips through a `x <= 0` check, infinities and huge widths: each
# is a config error, not a divergence (exit 4) or an allocation traceback later.
@pytest.mark.parametrize("cfg,key,value", [
    ("model", "leaky_slope", "nan"), ("model", "leaky_slope", "inf"),
    ("model", "forget_bias", "nan"), ("model", "forget_bias", "inf"),
    ("model", "forget_bias", "-inf"), ("model", "hidden", "1000000000000"),
    ("model", "head1", "1000000000000"), ("model", "head2", "1000000000000"),
    ("train", "clip_norm", "nan"), ("train", "lr0", "nan"), ("train", "lr0", "inf"),
    ("train", "adam_beta1", "1.0"), ("train", "adam_beta1", "nan"),
    ("train", "adam_beta2", "-1.0"), ("train", "adam_eps", "0.0"),
    ("train", "adam_eps", "nan"), ("train", "checkpoint_every", "-1"),
])
def test_train_bad_config_value_exits_2(tmp_path, capsys, cfg, key, value):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=2, optimizer="adam")
    path = mc if cfg == "model" else tc
    set_cfg(path, key, value)
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("key", ["hidden", "batch_size"])
def test_none_for_a_field_that_takes_no_none_exits_2(tmp_path, capsys, key):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    cfg = mc if key == "hidden" else tc
    set_cfg(cfg, key, "none")
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_model_config_without_variant_exits_2(tmp_path, capsys):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    mc.write_text(mc.read_text().replace("variant=tp_rnn\n", ""))
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "r") == 2
    assert "variant missing" in capsys.readouterr().err


@pytest.mark.parametrize("cfg,key,value,first,second", [
    ("model", "hidden", 16, 4, 8), ("train", "batch_size", 2, 2, 6)])
def test_repeated_config_key_exits_2(tmp_path, capsys, cfg, key, value, first, second):
    # the last value does not silently win: the key and both lines are named
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    path = mc if cfg == "model" else tc
    path.write_text(path.read_text() + f"{key}={value}\n")
    out = tmp_path / "r"
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{path}:{second}: key {key!r} repeated" in err
    assert f"line {first}" in err and not out.exists()


def test_config_blank_and_comment_lines_are_skipped_but_counted(tmp_path, capsys):
    # a `#` line would be "expected key=value" (exit 3) if it were read; the
    # repeated key's lines are numbered as in the file, skipped lines included
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    tc.write_text("# a train config\n\n" + tc.read_text() + "   \n  # again\nbatch_size=2\n")
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "r") == 2
    err = capsys.readouterr().err
    assert f"{tc}:10: key 'batch_size' repeated (first set on line 4)" in err


@pytest.mark.parametrize("missing", ["--model-config", "--train-config"])
def test_train_without_a_config_flag_exits_2(tmp_path, capsys, missing):
    # without --resume both config files are required: the missing flag is
    # named, with no traceback, before the run directory exists
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    flags = {"--model-config": mc, "--train-config": tc}
    del flags[missing]
    out = tmp_path / "r"
    assert run("train", *[a for kv in flags.items() for a in kv],
               "--manifest", data / "manifest.txt", "--out", out) == 2
    err = capsys.readouterr().err
    assert missing in err and "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flag", ["--model-config", "--train-config"])
def test_train_resume_with_a_config_flag_exits_2(tmp_path, capsys, flag):
    # a resumed run keeps its checkpoint's configs, so a config file given
    # with --resume is named as an error, not silently ignored
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=4, checkpoint_every=2)
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "part") == 0
    out = tmp_path / "resumed"
    assert run("train", "--resume", tmp_path / "part" / "checkpoint_00000002.bin",
               flag, {"--model-config": mc, "--train-config": tc}[flag],
               "--manifest", data / "manifest.txt", "--out", out) == 2
    err = capsys.readouterr().err
    assert "config error" in err and flag in err and not out.exists()


def test_train_missing_manifest(tmp_path):
    mc, tc = _train_cfgs(tmp_path, iterations=10)
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", tmp_path / "absent.txt",
               "--out", tmp_path / "r") == 3


@pytest.mark.parametrize("command,split", [("train", "train"), ("eval", "test")])
def test_an_empty_split_is_named_and_exits_3(tmp_path, capsys, command, split):
    # a manifest without a row of the split the command reads is reported as
    # such, not as sequences too short for a window; nothing is written
    data = synth(tmp_path)
    manifest = data / "manifest.txt"
    other = "test" if split == "train" else "train"
    manifest.write_text(manifest.read_text().replace(f",{split},", f",{other},"))
    out = tmp_path / "out"
    if command == "train":
        mc, tc = _train_cfgs(tmp_path, iterations=2)
        argv = ["--model-config", mc, "--train-config", tc]
    else:
        argv = ["--checkpoint", zero_checkpoint(tmp_path), "--seed-len", 10,
                "--target-len", 5]
    assert run(command, *argv, "--manifest", manifest, "--out", out) == 3
    assert f"input error: manifest lists no {split} sequences" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval


def test_eval_zero_checkpoint_equals_zero_velocity_rows(tmp_path):
    data = synth(tmp_path)
    ck = zero_checkpoint(tmp_path)
    out = tmp_path / "report.csv"
    assert run("eval", "--checkpoint", ck, "--manifest", data / "manifest.txt",
               "--seed-len", 10, "--target-len", 5, "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "predictor,action,horizon_ms,error,n_windows"
    model_rows = {r.split(",", 1)[1] for r in rows if r.startswith("model,")}
    zero_rows = {r.split(",", 1)[1] for r in rows
                 if r.startswith("zero_velocity,")}
    assert model_rows == zero_rows and model_rows


def test_eval_rejects_off_grid_horizon(tmp_path, capsys):
    data = synth(tmp_path)
    ck = zero_checkpoint(tmp_path)
    assert run("eval", "--checkpoint", ck, "--manifest", data / "manifest.txt",
               "--seed-len", 10, "--target-len", 5, "--horizons", "70",
               "--out", tmp_path / "r.csv") == 2
    assert "config error" in capsys.readouterr().err


def test_eval_rejects_a_repeated_horizon(tmp_path, capsys):
    # each row once: a repeated horizon is an input error, not a doubled row
    data = synth(tmp_path)
    out = tmp_path / "r.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest",
               data / "manifest.txt", "--seed-len", 10, "--target-len", 5,
               "--horizons", "40,80,40", "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "twice" in err
    assert not out.exists()


@pytest.mark.parametrize("horizon,interval", [("1" + "0" * 400, 40.0), ("80", 1e-320)],
                         ids=["huge_horizon", "tiny_interval"])
def test_eval_rejects_a_horizon_past_every_float(tmp_path, capsys, horizon, interval):
    # a frame count that overflows a float lies past every target
    data = synth(tmp_path)
    out = tmp_path / "r.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest",
               _manifest_at(data, interval), "--seed-len", 10, "--target-len", 5,
               "--horizons", horizon, "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "beyond every window" in err
    assert "Traceback" not in err and not out.exists()


def test_eval_pck_checks_the_dimension_before_forecasting(tmp_path, monkeypatch, capsys):
    import posecast.evaluate as evaluate

    def no_forecast(*args, **kwargs):
        raise AssertionError("forecast before the dimension check")

    monkeypatch.setattr(evaluate, "batched_forecast_poses", no_forecast)
    data = synth(tmp_path, dim=3)  # odd: no planar joint pairs
    out = tmp_path / "pck.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest",
               data / "manifest.txt", "--protocol", "pck", "--seed-len", 10,
               "--target-len", 5, "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "dim 3" in err and not out.exists()


def _two_interval_manifest(data, intervals):
    """The synth manifest with its last two sequences in the test split, at the
    two frame intervals in that order."""
    lines = (data / "manifest.txt").read_text().splitlines()
    for i, interval in zip((-2, -1), intervals):
        name, _, action, dim, _ = lines[i].split(",")
        lines[i] = f"{name},test,{action},{dim},{interval!r}"
    manifest = data / "manifest_mixed.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _manifest_at(data, interval, rows=None):
    """The synth manifest with the frame interval of `rows` (default: every
    row) set to interval."""
    lines = (data / "manifest.txt").read_text().splitlines()
    for i in range(len(lines)) if rows is None else rows:
        lines[i] = lines[i].rsplit(",", 1)[0] + f",{interval!r}"
    manifest = data / "manifest_at.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


@pytest.mark.parametrize("intervals", [(40.0, 20.0), (20.0, 40.0)])
def test_eval_rejects_test_windows_at_two_frame_intervals(tmp_path, capsys, intervals):
    # whatever the manifest order, one horizon would land on two frames
    data = synth(tmp_path)
    out = tmp_path / "r.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest",
               _two_interval_manifest(data, intervals), "--seed-len", 10,
               "--target-len", 5, "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "[20.0, 40.0]" in err
    assert not out.exists()


def test_eval_pck_rejects_test_windows_at_two_frame_intervals(tmp_path, capsys,
                                                             monkeypatch):
    # frame k of a 30 ms window and of a 40 ms one are different horizons;
    # rejected before any forecast
    from posecast import evaluate
    forecasts = []
    monkeypatch.setattr(evaluate, "forecast_frames", lambda *a, **kw: forecasts.append(a))
    data = synth(tmp_path, dim=4)
    out = tmp_path / "pck.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path, d_v=4), "--manifest",
               _two_interval_manifest(data, (30.0, 40.0)), "--protocol", "pck",
               "--seed-len", 10, "--target-len", 5, "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "[30.0, 40.0]" in err
    assert forecasts == [] and not out.exists()


def test_eval_rejects_non_integer_horizon(tmp_path, capsys):
    data = synth(tmp_path)
    ck = zero_checkpoint(tmp_path)
    assert run("eval", "--checkpoint", ck, "--manifest", data / "manifest.txt",
               "--seed-len", 10, "--target-len", 5, "--horizons", "80,abc",
               "--out", tmp_path / "r.csv") == 3
    err = capsys.readouterr().err
    assert "input error" in err and "'abc'" in err
    assert "Traceback" not in err


def test_eval_rejects_an_empty_horizons_list(tmp_path, capsys):
    # an explicit empty list is one empty entry, as in "80,", not the defaults
    data = synth(tmp_path)
    out = tmp_path / "r.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest",
               data / "manifest.txt", "--seed-len", 10, "--target-len", 5,
               "--horizons", "", "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error: --horizons must be integers" in err and not out.exists()


def test_eval_without_a_default_horizon_exits_3(tmp_path, capsys):
    # a 1-frame target at 40 ms ends before the first default horizon (80 ms)
    data = synth(tmp_path)
    out = tmp_path / "r.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest",
               data / "manifest.txt", "--seed-len", 10, "--target-len", 1, "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "--horizons" in err
    assert not out.exists()


def test_eval_without_a_default_horizon_on_the_frame_grid_exits_3(tmp_path, capsys):
    # a 40-frame target at 30 ms spans 1200 ms, but no default lies on a frame
    data = synth(tmp_path)
    out = tmp_path / "r.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest",
               _manifest_at(data, 30.0), "--seed-len", 10, "--target-len", 40,
               "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "30 ms" in err and "--horizons" in err
    assert not out.exists()


def test_eval_default_horizons_are_those_on_the_frame_grid(tmp_path):
    # at 80 ms, 80-560 ms lie on frames and 1000 ms does not
    data = synth(tmp_path)
    out = tmp_path / "r.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest",
               _manifest_at(data, 80.0), "--seed-len", 10, "--target-len", 15,
               "--out", out) == 0
    rows = out.read_text().splitlines()
    assert [r.split(",")[2] for r in rows if r.startswith("model,ALL,")] == \
        ["80", "160", "320", "400", "560"]


@pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-0.05"])
def test_eval_rejects_a_threshold_not_finite_and_positive(tmp_path, capsys, threshold):
    data = synth(tmp_path, dim=4)
    out = tmp_path / "pck.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path, d_v=4), "--manifest",
               data / "manifest.txt", "--protocol", "pck", f"--threshold={threshold}",
               "--seed-len", 10, "--target-len", 5, "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "--threshold" in err
    assert not out.exists()


def test_eval_pck_protocol(tmp_path):
    data = synth(tmp_path, dim=4)  # even dim: planar joint pairs
    ck = zero_checkpoint(tmp_path, d_v=4)
    out = tmp_path / "pck.csv"
    assert run("eval", "--checkpoint", ck, "--manifest", data / "manifest.txt",
               "--protocol", "pck", "--seed-len", 10, "--target-len", 5,
               "--out", out) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "frame,model_pck,zero_velocity_pck"
    assert len(rows) == 1 + 5


def test_eval_pck_protocol_is_evaluate_pck_on_the_test_split(tmp_path):
    # --protocol picks the scorer; the loaded sequences carry no label that
    # evaluate_pck would have to be told about
    data = synth(tmp_path, dim=4)
    ck = tmp_path / "model.bin"
    save_model_checkpoint(ck, build_model(ModelConfig(variant="tp_rnn", d_v=4, granularity=2,
                                                      levels=2, hidden=4, head1=5, head2=4,
                                                      seed=1)))
    out = tmp_path / "pck.csv"
    assert run("eval", "--checkpoint", ck, "--manifest", data / "manifest.txt",
               "--protocol", "pck", "--threshold", 0.3, "--seed-len", 10,
               "--target-len", 5, "--out", out) == 0
    windows = collect_windows(load_split(load_manifest(data / "manifest.txt"), "test"), 10, 5)
    scores_m, scores_z, _ = evaluate_pck(load_model_checkpoint(ck)[0], windows, 0.3)
    rows = [f"{k},{a!r},{b!r}" for k, (a, b) in enumerate(zip(scores_m, scores_z), start=1)]
    assert out.read_text().splitlines()[1:] == rows


def test_eval_reports_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # the scorer forecasts the windows a chunk at a time; chunks of 4 over
    # more test windows than that give the one-chunk run's report bytes
    import posecast.evaluate as evaluate

    data = synth(tmp_path, dim=4)
    ck = tmp_path / "model.bin"
    save_model_checkpoint(ck, build_model(ModelConfig(variant="tp_rnn", d_v=4, granularity=2,
                                                      levels=2, hidden=4, head1=5, head2=4,
                                                      seed=1)))
    forecast, rollouts = evaluate.batched_forecast_poses, []

    def recorded(model, windows, first=0):
        rollouts.append((first, len(windows)))
        return forecast(model, windows, first)

    monkeypatch.setattr(evaluate, "batched_forecast_poses", recorded)
    reports = {}
    for chunk in (evaluate.EVAL_CHUNK, 4):
        monkeypatch.setattr(evaluate, "EVAL_CHUNK", chunk)
        for protocol in ("mae", "pck"):
            rollouts.clear()
            out = tmp_path / f"{protocol}_{chunk}.csv"
            assert run("eval", "--checkpoint", ck, "--manifest", data / "manifest.txt",
                       "--protocol", protocol, "--seed-len", 10, "--target-len", 5,
                       "--out", out) == 0
            reports[protocol, chunk] = out.read_bytes()
            n_windows = int(reports["mae", chunk].splitlines()[1].split(b",")[-1])
            assert rollouts == [(i, min(chunk, n_windows - i))
                                for i in range(0, n_windows, chunk)]
    assert n_windows > 4
    for protocol in ("mae", "pck"):
        assert reports[protocol, 4] == reports[protocol, 256]


def test_eval_checkpoint_dim_mismatch(tmp_path):
    data = synth(tmp_path, dim=3)
    ck = zero_checkpoint(tmp_path, d_v=4)
    assert run("eval", "--checkpoint", ck, "--manifest", data / "manifest.txt",
               "--seed-len", 10, "--target-len", 5,
               "--out", tmp_path / "r.csv") == 2


def test_eval_pck_reports_skipped_degenerate_frames(tmp_path, capsys):
    # one 10+5 window whose third target frame has both joints at one point
    frames = np.random.default_rng(1).normal(size=(15, 4))
    frames[12] = [0.5, -1.0, 0.5, -1.0]
    d = tmp_path / "deg"
    d.mkdir()
    (d / "s.csv").write_text("\n".join(",".join(repr(float(x)) for x in row)
                                       for row in frames) + "\n")
    (d / "manifest.txt").write_text("s.csv,test,a,4,40.0\n")
    out = tmp_path / "pck.csv"
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path, d_v=4),
               "--manifest", d / "manifest.txt", "--protocol", "pck",
               "--seed-len", 10, "--target-len", 5, "--out", out) == 0
    assert "skipped 1 degenerate" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "frame,model_pck,zero_velocity_pck" and len(rows) == 6
    assert rows[3] == "3,0.0,0.0"  # no window left to score that frame


@pytest.mark.parametrize("mask", ["0,7", "3", "-1,0"])
def test_eval_rejects_mask_index_out_of_range(tmp_path, capsys, mask):
    data = synth(tmp_path)
    manifest = data / "manifest.txt"
    manifest.write_text(manifest.read_text() + f"mask={mask}\n")
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest", manifest,
               "--seed-len", 10, "--target-len", 5, "--out", tmp_path / "r.csv") == 3
    err = capsys.readouterr().err
    assert "input error" in err and "mask index" in err


def test_eval_rejects_repeated_mask_index(tmp_path, capsys):
    # a repeated index would feed the same column in twice
    data = synth(tmp_path)
    manifest = data / "manifest.txt"
    lines = manifest.read_text().splitlines() + ["mask=0,0,1"]
    manifest.write_text("\n".join(lines) + "\n")
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest", manifest,
               "--seed-len", 10, "--target-len", 5, "--out", tmp_path / "r.csv") == 3
    err = capsys.readouterr().err
    assert "input error" in err
    assert f"manifest.txt:{len(lines)}: mask index 0 appears twice" in err


def test_eval_rejects_a_second_mask_line(tmp_path, capsys):
    data = synth(tmp_path)
    manifest = data / "manifest.txt"
    lines = manifest.read_text().splitlines() + ["mask=0,1,2", "mask=2,1,0"]
    manifest.write_text("\n".join(lines) + "\n")
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest", manifest,
               "--seed-len", 10, "--target-len", 5, "--out", tmp_path / "r.csv") == 3
    err = capsys.readouterr().err
    assert "input error" in err
    assert f"manifest.txt:{len(lines)}: second mask line" in err


@pytest.mark.parametrize("mask", [False, True])
def test_train_manifest_dim_0_exits_3_naming_its_line(tmp_path, capsys, mask):
    # a bad data file (exit 3) with or without a mask= line, not a model
    # config error (exit 2) about a d_v the config may not even set
    data = synth(tmp_path)
    manifest = data / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(",3,40.0\n", ",0,40.0\n")
                        + ("mask=0\n" if mask else ""))
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    assert run("train", "--model-config", mc, "--train-config", tc, "--manifest",
               manifest, "--out", tmp_path / "r") == 3
    err = capsys.readouterr().err
    assert f"input error: {manifest}:1: dim must be >= 1, got 0" in err
    assert not (tmp_path / "r").exists()


def test_eval_infinite_manifest_interval_exits_3(tmp_path, capsys):
    # a bad data file (exit 3), not a horizon off the frame grid (exit 2)
    data = synth(tmp_path)
    manifest = data / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(",40.0\n", ",inf\n"))
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest", manifest,
               "--seed-len", 10, "--target-len", 5, "--out", tmp_path / "r.csv") == 3
    err = capsys.readouterr().err
    assert "input error" in err and "interval_ms" in err and "manifest.txt:1" in err


@pytest.mark.parametrize("case", ["test_dim_differs_from_train", "test_dims_differ"])
def test_eval_rejects_mixed_manifest_dims(tmp_path, capsys, case):
    # without a mask= line every entry must have the first entry's dim; the
    # error names the first line that differs
    lines = {}
    for dim in (4, 6):
        data = synth(tmp_path, f"d{dim}", dim=dim)
        lines[dim] = [f"d{dim}/{line}" for line in (data / "manifest.txt").read_text().split()]
    train4 = [line for line in lines[4] if ",train," in line]
    test4 = [line for line in lines[4] if ",test," in line]
    test6 = [line for line in lines[6] if ",test," in line]
    body = train4 + (test6 if case == "test_dim_differs_from_train" else test4 + test6)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(body) + "\n")
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path, d_v=4), "--manifest",
               manifest, "--seed-len", 10, "--target-len", 5,
               "--out", tmp_path / "r.csv") == 3
    err = capsys.readouterr().err
    assert "input error" in err and f"manifest.txt:{body.index(test6[0]) + 1}: dim 6" in err
    assert not (tmp_path / "r.csv").exists()


def _bad_checkpoint(tmp_path, case):
    model = build_model(ModelConfig(variant="tp_rnn", d_v=3, granularity=2,
                                    levels=2, hidden=4, head1=5, head2=4))
    meta = {"kind": "model", "model_config": asdict(model.config), "iteration": 0}
    tensors = list(model.tensors())
    if case == "no_model_config":
        del meta["model_config"]
    elif case == "unknown_key":
        meta["model_config"]["colour"] = "blue"
    elif case == "shape_mismatch":
        meta["model_config"]["hidden"] = 6
    elif case == "wrong_kind":
        meta["model_config"]["hidden"] = "4"
    elif case == "missing_tensor":
        tensors = tensors[:-1]
    elif case == "huge_granularity":
        meta["model_config"]["granularity"] = 10 ** 12
    elif case == "repeated_tensor":
        tensors = tensors + [("head.b3", np.full(3, 9.0))]
    elif case == "only_second_moments":  # a checkpoint holds both moment sets or none
        tensors = tensors + [("opt.v." + n, np.zeros(a.shape)) for n, a in tensors]
    elif case == "stray_opt_tensor":
        tensors = tensors + [("opt.junk", np.zeros(3))]
    elif case.startswith("huge_"):
        meta["model_config"][case[5:]] = 10 ** 400
    p = tmp_path / f"{case}.bin"
    save_checkpoint(p, meta, tensors)
    if case == "trailing_byte":
        p.write_bytes(p.read_bytes() + b"\x00")
    elif case == "long_seed":
        _give_a_long_seed(p)
    return p


BAD_CHECKPOINTS = ["no_model_config", "unknown_key", "shape_mismatch", "wrong_kind",
                   "missing_tensor", "repeated_tensor", "trailing_byte",
                   "only_second_moments", "stray_opt_tensor", "huge_forget_bias",
                   "huge_leaky_slope", "long_seed"]


@pytest.mark.parametrize("case", BAD_CHECKPOINTS)
def test_forecast_bad_checkpoint_exits_3(tmp_path, capsys, case):
    sd = seed_csv(tmp_path, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    ck = _bad_checkpoint(tmp_path, case)
    assert run("forecast", "--checkpoint", ck,
               "--seed-csv", sd, "--n-steps", 3, "--out", tmp_path / "p.csv") == 3
    assert f"input error: {ck}: {HUGE_VALUES.get(case, '')}" in capsys.readouterr().err


@pytest.mark.parametrize("case", BAD_CHECKPOINTS)
def test_eval_bad_checkpoint_exits_3(tmp_path, capsys, case):
    data = synth(tmp_path)
    ck = _bad_checkpoint(tmp_path, case)
    assert run("eval", "--checkpoint", ck,
               "--manifest", data / "manifest.txt", "--seed-len", 10,
               "--target-len", 5, "--out", tmp_path / "r.csv") == 3
    assert f"input error: {ck}: {HUGE_VALUES.get(case, '')}" in capsys.readouterr().err


def test_forecast_bad_kind_names_the_value(tmp_path, capsys):
    sd = seed_csv(tmp_path, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    ck = _bad_checkpoint(tmp_path, "wrong_kind")
    assert run("forecast", "--checkpoint", ck, "--seed-csv", sd, "--n-steps", 3,
               "--out", tmp_path / "p.csv") == 3
    assert capsys.readouterr().err == \
        f"input error: {ck}: model_config: bad value for 'hidden': '4'\n"


@pytest.mark.parametrize("command", ["eval", "forecast"])
def test_eval_and_forecast_hold_no_adam_moments(tmp_path, monkeypatch, command):
    # the memory a command holds when its forecasts start does not depend on
    # the optimizer that wrote its checkpoint: Adam's moments are dropped on load
    from posecast import evaluate
    model = build_model(ModelConfig(variant="tp_rnn", d_v=3, granularity=2, levels=2,
                                    hidden=64, head1=16, head2=8))
    data = synth(tmp_path)
    sd = seed_csv(tmp_path, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    target = "evaluate_mae" if command == "eval" else "forecast_frames"
    real, held = getattr(evaluate, target), {}

    def probe(*args, **kwargs):
        held[optimizer] = tracemalloc.get_traced_memory()[0]
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, target, probe)
    for optimizer in ("sgd", "adam"):
        ck = tmp_path / f"{optimizer}.bin"
        adam = None
        if optimizer == "adam":
            adam = AdamState(m=np.full(model.theta.shape, 0.5),
                             v=np.full(model.theta.shape, 0.25))
        save_train_checkpoint(ck, model, TrainConfig(optimizer=optimizer), 0,
                              np.random.Generator(np.random.PCG64(0)), adam)
        argv = (["eval", "--manifest", data / "manifest.txt", "--seed-len", 10,
                 "--target-len", 5] if command == "eval" else
                ["forecast", "--seed-csv", sd, "--n-steps", 3])
        tracemalloc.start()
        try:
            assert run(*argv, "--checkpoint", ck, "--out", tmp_path / "out.csv") == 0
        finally:
            tracemalloc.stop()
    assert held["adam"] - held["sgd"] < model.theta.nbytes // 2


def test_forecast_checkpoint_with_huge_phase_bank_exits_2(tmp_path):
    # same tensors (parameter count does not depend on K), but a bank of
    # 10^12 phase states: rejected by the config check, not allocated
    sd = seed_csv(tmp_path, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    assert run("forecast", "--checkpoint", _bad_checkpoint(tmp_path, "huge_granularity"),
               "--seed-csv", sd, "--n-steps", 3, "--out", tmp_path / "p.csv") == 2


def _nan_checkpoint(tmp_path, d_v=3):
    """A checkpoint whose first weight (level 1's W[0, 0]) is NaN."""
    model = build_model(ModelConfig(variant="tp_rnn", d_v=d_v, granularity=2,
                                    levels=2, hidden=4, head1=5, head2=4))
    model.theta[0] = np.nan
    p = tmp_path / "nan.bin"
    save_model_checkpoint(p, model)
    return p


@pytest.mark.parametrize("protocol", ["mae", "pck"])
def test_eval_nan_weight_exits_4_without_a_report(tmp_path, capsys, protocol):
    data = synth(tmp_path, dim=4)
    out = tmp_path / "r.csv"
    assert run("eval", "--checkpoint", _nan_checkpoint(tmp_path, d_v=4), "--manifest",
               data / "manifest.txt", "--protocol", protocol, "--seed-len", 10,
               "--target-len", 5, "--out", out) == 4
    err = capsys.readouterr().err
    assert "numeric error" in err and "window 0 at step 0" in err
    assert not out.exists()


def test_forecast_nan_weight_exits_4(tmp_path, capsys):
    sd = seed_csv(tmp_path, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    out = tmp_path / "p.csv"
    assert run("forecast", "--checkpoint", _nan_checkpoint(tmp_path), "--seed-csv", sd,
               "--n-steps", 3, "--out", out) == 4
    assert "numeric error" in capsys.readouterr().err
    assert not out.exists()


def test_eval_missing_checkpoint(tmp_path):
    data = synth(tmp_path)
    assert run("eval", "--checkpoint", tmp_path / "nope.bin",
               "--manifest", data / "manifest.txt",
               "--out", tmp_path / "r.csv") == 3


INPUT_FILES = ["seed_csv", "config", "manifest", "split_csv"]


def _input_file_run(tmp_path, kind):
    """(the input file of the given kind, argv of a command that reads it);
    the file exists except for a seed CSV."""
    data = synth(tmp_path)
    manifest = data / "manifest.txt"
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    train = ("train", "--model-config", mc, "--train-config", tc, "--manifest", manifest,
             "--out", tmp_path / "r")
    if kind == "seed_csv":
        return tmp_path / "seed.csv", ("forecast", "--checkpoint", zero_checkpoint(tmp_path),
                                       "--seed-csv", tmp_path / "seed.csv",
                                       "--n-steps", 3, "--out", tmp_path / "p.csv")
    if kind == "config":
        return tc, train
    if kind == "manifest":
        return manifest, ("eval", "--checkpoint", zero_checkpoint(tmp_path),
                          "--manifest", manifest, "--seed-len", 10, "--target-len", 5,
                          "--out", tmp_path / "r.csv")
    # a train sequence, read through load_split
    return data / manifest.read_text().split(",")[0], train


@pytest.mark.parametrize("kind", INPUT_FILES)
def test_non_utf8_input_file_exits_3_naming_it(tmp_path, capsys, kind):
    # a 0xff byte is not UTF-8: every text file the CLI reads ends in an
    # input error that names the file, not a UnicodeDecodeError traceback
    bad, argv = _input_file_run(tmp_path, kind)
    bad.write_bytes((bad.read_bytes() if bad.exists() else b"0,0,0\n") + b"0.5,\xff,1\n")
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert "input error" in err and f"{bad}: not UTF-8" in err


def _outputs(path):
    """{relative name: bytes} of every file under the output path `path`."""
    files = sorted(path.rglob("*")) if path.is_dir() else [path]
    return {str(f.relative_to(path.parent)): f.read_bytes() for f in files if f.is_file()}


@pytest.mark.parametrize("kind", INPUT_FILES)
def test_leading_byte_order_mark_is_dropped(tmp_path, kind):
    # a UTF-8 byte order mark opening any text input is dropped: the command
    # writes what it writes from the same file without one
    path, argv = _input_file_run(tmp_path, kind)
    if not path.exists():
        path.write_text("0.0,0.5,1.0\n0.25,0.5,0.75\n")
    if kind == "manifest":
        # eval reads the test rows only: the mark goes before one of them
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[-1:] + lines[:-1]))
    assert run(*argv) == 0
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    (tmp_path / "bom").mkdir()
    out = tmp_path / "bom" / argv[-1].name
    assert run(*argv[:-1], out) == 0
    assert _outputs(out) == _outputs(argv[-1]) != {}


def test_byte_order_mark_past_the_first_byte_is_an_error(tmp_path, capsys):
    # only a leading byte order mark is dropped; one opening a later line
    # stays part of its key or value
    mc, tc = _train_cfgs(tmp_path, iterations=2)
    tc.write_text(tc.read_text().replace("batch_size", "\ufeffbatch_size"), encoding="utf-8")
    assert run("train", "--model-config", mc, "--train-config", tc, "--manifest",
               synth(tmp_path) / "manifest.txt", "--out", tmp_path / "r") == 2
    assert f"config error: {tc}: unknown key '\\ufeffbatch_size'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("kind", INPUT_FILES)
def test_missing_input_file_exits_3_naming_it(tmp_path, capsys, kind):
    missing, argv = _input_file_run(tmp_path, kind)
    missing.unlink(missing_ok=True)
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert "input error" in err and f"{missing}: no such file" in err


# ---------------------------------------------------------------------------
# forecast


def seed_csv(tmp_path, frames, name="seed.csv"):
    p = tmp_path / name
    p.write_text("\n".join(",".join(repr(float(x)) for x in row)
                           for row in frames) + "\n")
    return p


def test_forecast_zero_checkpoint_repeats_last_seed_row(tmp_path):
    ck = zero_checkpoint(tmp_path)
    sd = seed_csv(tmp_path, [[0.0, 0.0, 0.0], [1.5, -2.0, 0.25]])
    out = tmp_path / "pred.csv"
    assert run("forecast", "--checkpoint", ck, "--seed-csv", sd,
               "--n-steps", 4, "--out", out) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 4
    assert all(r == "1.5,-2.0,0.25" for r in rows)


def test_forecast_single_frame_requires_zero_init(tmp_path):
    ck = zero_checkpoint(tmp_path)
    sd = seed_csv(tmp_path, [[1.0, 2.0, 3.0]])
    assert run("forecast", "--checkpoint", ck, "--seed-csv", sd,
               "--n-steps", 3, "--out", tmp_path / "p.csv") == 3
    assert run("forecast", "--checkpoint", ck, "--seed-csv", sd,
               "--n-steps", 3, "--init-vel", "zero",
               "--out", tmp_path / "p.csv") == 0
    rows = (tmp_path / "p.csv").read_text().splitlines()
    assert rows == ["1.0,2.0,3.0"] * 3


def test_forecast_n_steps_beyond_the_value_bound_exits_3(tmp_path, capsys):
    # n_steps * d above MAX_SYNTH_VALUES, from the first count past the
    # bound to a typo-sized one, is an input error before the rollout
    # starts, not an endless run
    ck = zero_checkpoint(tmp_path, d_v=3)
    sd = seed_csv(tmp_path, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    out = tmp_path / "p.csv"
    for n_steps in (10 ** 12, MAX_SYNTH_VALUES // 3 + 1):
        assert run("forecast", "--checkpoint", ck, "--seed-csv", sd,
                   "--n-steps", n_steps, "--out", out) == 3
        err = capsys.readouterr().err
        assert f"--n-steps: n_steps * d must be at most {MAX_SYNTH_VALUES}, " \
            f"got {3 * n_steps}" in err and not out.exists()


@pytest.mark.parametrize("n_steps", [0, -2])
def test_forecast_n_steps_below_one_exits_3(tmp_path, capsys, n_steps):
    # named by its flag, before the rollout starts
    sd = seed_csv(tmp_path, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    out = tmp_path / "p.csv"
    assert run("forecast", "--checkpoint", zero_checkpoint(tmp_path, d_v=3), "--seed-csv",
               sd, "--n-steps", n_steps, "--out", out) == 3
    err = capsys.readouterr().err
    assert f"input error: --n-steps: must be >= 1, got {n_steps}" in err
    assert not out.exists()


def test_long_pose_input_forecast_writes_no_overflow_warning(tmp_path, capsys):
    # a pose-input model fed its own predictions for 300 steps grows them to
    # about 1e12 after 6 training iterations, saturating its gates: the
    # sigmoid's exp overflows on the way to the right value, and the CLI
    # says nothing of it
    data = synth(tmp_path, dim=4)
    _, tc = _train_cfgs(tmp_path, iterations=6)
    mc = write_cfg(tmp_path / "pose.cfg", variant="single_layer_pose", levels=1,
                   hidden=6, head1=5, head2=4, seed=0)
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "run") == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("forecast", "--checkpoint", tmp_path / "run" / "checkpoint_final.bin",
                   "--seed-csv", data / "seq_000.csv", "--n-steps", 300,
                   "--out", tmp_path / "p.csv") == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert np.abs(np.loadtxt(tmp_path / "p.csv", delimiter=",")).max() > 1e9


def test_forecast_dim_mismatch(tmp_path):
    ck = zero_checkpoint(tmp_path, d_v=3)
    sd = seed_csv(tmp_path, [[1.0, 2.0], [3.0, 4.0]])
    assert run("forecast", "--checkpoint", ck, "--seed-csv", sd,
               "--n-steps", 2, "--out", tmp_path / "p.csv") == 2


def test_forecast_out_a_directory_exits_5_leaving_no_temp_file(tmp_path):
    # the CSV goes through <out>.tmp and a rename; the rename onto a
    # directory fails, and the temp file goes with it
    out = tmp_path / "p.csv"
    out.mkdir()
    sd = seed_csv(tmp_path, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    assert run("forecast", "--checkpoint", zero_checkpoint(tmp_path), "--seed-csv", sd,
               "--n-steps", 2, "--out", out) == 5
    assert out.is_dir() and not (tmp_path / "p.csv.tmp").exists()


def test_forecast_is_deterministic(tmp_path):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=20)
    out = tmp_path / "run"
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", out) == 0
    sd = seed_csv(tmp_path, np.random.default_rng(0).normal(size=(6, 3)))
    for name in ("p1.csv", "p2.csv"):
        assert run("forecast", "--checkpoint", out / "checkpoint_final.bin",
                   "--seed-csv", sd, "--n-steps", 5,
                   "--out", tmp_path / name) == 0
    assert (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()


# Written by `posecast eval`: the rows over all windows, then one block per
# action label of the test split (walk: 2 sequences, 6 windows; jump: 3).
# The data are dyadic rationals and the model is all zeros, so the bytes do
# not depend on the BLAS.
ZERO_MODEL_REPORT = """\
predictor,action,horizon_ms,error,n_windows
model,ALL,40,0.9263584893763424,9
model,ALL,120,2.72652858880244,9
model,ALL,200,4.547772381450772,9
model,jump,40,1.1318813079129866,3
model,jump,120,3.3541019662496847,3
model,jump,200,5.5929639815241226,3
model,walk,40,0.8235970801080202,6
model,walk,120,2.4127419000788177,6
model,walk,200,4.025176581414096,6
zero_velocity,ALL,40,0.9263584893763424,9
zero_velocity,ALL,120,2.72652858880244,9
zero_velocity,ALL,200,4.547772381450772,9
zero_velocity,jump,40,1.1318813079129866,3
zero_velocity,jump,120,3.3541019662496847,3
zero_velocity,jump,200,5.5929639815241226,3
zero_velocity,walk,40,0.8235970801080202,6
zero_velocity,walk,120,2.4127419000788177,6
zero_velocity,walk,200,4.025176581414096,6
"""


def test_eval_report_bytes_are_pinned(tmp_path):
    rows = []
    for i, (split, action) in enumerate([("train", "walk"), ("test", "walk"),
                                         ("test", "walk"), ("test", "jump")]):
        k = np.arange(25.0)[:, None]
        frames = np.hstack([0.25 * k * (i + 1), i - 0.5 * k, 1.0 + 0.125 * (k % 3)])
        seed_csv(tmp_path, frames, name=f"s{i}.csv")
        rows.append(f"s{i}.csv,{split},{action},3,40.0")
    (tmp_path / "manifest.txt").write_text("\n".join(rows) + "\n")
    assert run("eval", "--checkpoint", zero_checkpoint(tmp_path), "--manifest",
               tmp_path / "manifest.txt", "--seed-len", 10, "--target-len", 5,
               "--horizons", "40,120,200", "--out", tmp_path / "r.csv") == 0
    assert (tmp_path / "r.csv").read_text() == ZERO_MODEL_REPORT


def test_relabelling_changes_report_rows_not_predictions(tmp_path):
    # labels are report metadata: the same test sequences under other labels
    # give the same predictions bit for bit and the same ALL rows
    from posecast.evaluate import batched_forecast_poses, collect_windows
    from posecast.posedata import load_manifest, load_split

    data = synth(tmp_path, n_seq=5)
    model = build_model(ModelConfig(variant="tp_rnn", d_v=3, granularity=2, levels=3,
                                    hidden=4, head1=5, head2=4, seed=2))
    ck = tmp_path / "model.bin"
    save_model_checkpoint(ck, model)
    reports, preds = [], []
    for labels in (["walk", "walk", "jump"], ["a", "b", "b"]):
        manifest = data / f"manifest_{labels[-1]}.txt"
        manifest.write_text("".join(
            f"seq_{i:03d}.csv,{'train' if i < 2 else 'test'},"
            f"{'x' if i < 2 else labels[i - 2]},3,40.0\n" for i in range(5)))
        out = tmp_path / f"report_{labels[-1]}.csv"
        assert run("eval", "--checkpoint", ck, "--manifest", manifest, "--seed-len", 10,
                   "--target-len", 5, "--out", out) == 0
        reports.append(out.read_text().splitlines())
        windows = collect_windows(load_split(load_manifest(manifest), "test"), 10, 5)
        assert {w.target.action for w in windows} == set(labels)
        preds.append(batched_forecast_poses(model, windows).tobytes())
    assert preds[0] == preds[1]
    all_rows = [[r for r in rep if ",ALL," in r] for rep in reports]
    assert all_rows[0] == all_rows[1] and all_rows[0]
    actions = [{r.split(",")[1] for r in rep[1:]} - {"ALL"} for rep in reports]
    assert actions == [{"walk", "jump"}, {"a", "b"}]


def test_report_rows_per_action_follow_the_all_rows(tmp_path):
    from posecast.cli import _write_report
    from posecast.metrics import HorizonReport

    def report(scale):
        return HorizonReport(horizons_ms=(80, 160), errors={80: scale, 160: 2 * scale},
                             n_windows=3,
                             per_action={"walk": ({80: 0.5, 160: 1.5}, 2),
                                         "jump": ({80: 0.25, 160: 0.75}, 1)})

    _write_report(tmp_path / "a.csv", report(1.0), report(0.1), per_action=True)
    assert (tmp_path / "a.csv").read_text().splitlines() == [
        "predictor,action,horizon_ms,error,n_windows",
        "model,ALL,80,1.0,3", "model,ALL,160,2.0,3",
        "model,jump,80,0.25,1", "model,jump,160,0.75,1",
        "model,walk,80,0.5,2", "model,walk,160,1.5,2",
        "zero_velocity,ALL,80,0.1,3", "zero_velocity,ALL,160,0.2,3",
        "zero_velocity,jump,80,0.25,1", "zero_velocity,jump,160,0.75,1",
        "zero_velocity,walk,80,0.5,2", "zero_velocity,walk,160,1.5,2"]
    _write_report(tmp_path / "b.csv", report(1.0), report(0.1), per_action=False)
    assert (tmp_path / "b.csv").read_text() == (
        "predictor,action,horizon_ms,error,n_windows\n"
        "model,ALL,80,1.0,3\nmodel,ALL,160,2.0,3\n"
        "zero_velocity,ALL,80,0.1,3\nzero_velocity,ALL,160,0.2,3\n")


# ---------------------------------------------------------------------------
# ablate


def test_ablate_subset(tmp_path):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=15)
    out = tmp_path / "ablation"
    assert run("ablate", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt",
               "--variants", "single_layer_vel,tp_rnn", "--out", out) == 0
    for variant in ("single_layer_vel", "tp_rnn"):
        assert (out / variant / "report.csv").exists()
        assert (out / variant / "loss_trace.csv").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("variant,mae_")
    assert len(summary) == 3
    assert summary[1].startswith("single_layer_vel,")
    assert summary[2].startswith("tp_rnn,")


def test_ablate_report_rows_match_the_trained_checkpoint(tmp_path):
    from posecast.evaluate import collect_windows, evaluate_mae
    from posecast.posedata import load_manifest, load_split
    from posecast.train import load_model_checkpoint

    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=5)
    out = tmp_path / "ablation"
    assert run("ablate", "--model-config", mc, "--train-config", tc, "--manifest",
               data / "manifest.txt", "--variants", "tp_rnn", "--horizons", "40,160",
               "--out", out) == 0
    model, _, _ = load_model_checkpoint(out / "tp_rnn" / "checkpoint_final.bin")
    windows = collect_windows(load_split(load_manifest(data / "manifest.txt"), "test"), 8, 4)
    rep, zero = evaluate_mae(model, windows, [40, 160])
    want = ["predictor,action,horizon_ms,error,n_windows"]
    for name, r in (("model", rep), ("zero_velocity", zero)):
        want += [f"{name},ALL,{hz},{r.errors[hz]!r},{r.n_windows}" for hz in (40, 160)]
    assert (out / "tp_rnn" / "report.csv").read_text() == "\n".join(want) + "\n"


# The (levels, granularity) each variant ran at before the level table
# drove `ablate`: a fixed level count, or the configured one (None) but at
# least 2, and K=2 for every two-level model.
ABLATION_LEVELS = {
    "single_layer_pose": 1, "single_layer_vel": 1, "stacked2_vel": 2,
    "double_scale_vel": 2, "double_scale_hier_vel": 2,
    "double_scale_phase_vel": 2, "tp_rnn": None,
}


def test_ablate_builds_each_variant_at_its_ladder_levels(tmp_path, monkeypatch, capsys):
    import posecast.cli as cli_mod

    built = []
    real_build = cli_mod.build_model

    def build(cfg):
        built.append((cfg.variant, cfg.levels, cfg.granularity))
        return real_build(cfg)

    def no_training(model, data, cfg, out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        return model, [], []

    monkeypatch.setattr(cli_mod, "build_model", build)
    monkeypatch.setattr(cli_mod, "train_loop", no_training)
    data = synth(tmp_path)
    _, tc = _train_cfgs(tmp_path, iterations=1)
    for M in (1, 2, 3):
        for K in (2, 3):
            mc = write_cfg(tmp_path / "model.cfg", variant="tp_rnn", granularity=K,
                           levels=M, hidden=4, head1=5, head2=4)
            built.clear()
            assert run("ablate", "--model-config", mc, "--train-config", tc,
                       "--manifest", data / "manifest.txt", "--out", tmp_path / "a") == 0
            want = []
            for variant, fixed in ABLATION_LEVELS.items():
                levels = fixed or max(2, M)
                want.append((variant, levels, 2 if levels == 2 else K))
            assert built == want
            # one line for each model trained at a K the config did not ask for
            out = capsys.readouterr().out.splitlines()
            assert [line for line in out if "granularity" in line] == [
                f"{v}: trained at granularity 2, not the configured {K}"
                for v, _, k in want if k != K]


def test_ablate_dim_mismatch_exits_2(tmp_path, capsys):
    data = synth(tmp_path, dim=3)
    mc = write_cfg(tmp_path / "model5.cfg", variant="tp_rnn", levels=2, hidden=4,
                   head1=5, head2=4, d_v=5)
    _, tc = _train_cfgs(tmp_path, iterations=2)
    assert run("ablate", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", tmp_path / "a") == 2
    assert "config error" in capsys.readouterr().err


def test_ablate_unknown_variant(tmp_path):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=5)
    assert run("ablate", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--variants", "gru",
               "--out", tmp_path / "a") == 2


def test_ablate_without_a_default_horizon_exits_3_before_training(tmp_path, capsys,
                                                                  monkeypatch):
    import posecast.cli as cli_mod

    trained = []
    monkeypatch.setattr(cli_mod, "train_loop", lambda *a, **kw: trained.append(a))
    data = synth(tmp_path)
    mc, _ = _train_cfgs(tmp_path)
    tc = write_cfg(tmp_path / "train1.cfg", iterations=5, batch_size=4, seed_len=8,
                   target_len=1, seed=0)
    out = tmp_path / "a"
    assert run("ablate", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--out", out) == 3
    err = capsys.readouterr().err
    assert "input error" in err and "--horizons" in err
    assert trained == [] and not out.exists()


def _ablate_untrained(tmp_path, monkeypatch, *flags, manifest=None):
    """The exit code of an ablate run, and whether it trained or wrote anything."""
    import posecast.cli as cli_mod

    trained = []
    monkeypatch.setattr(cli_mod, "train_loop", lambda *a, **kw: trained.append(a))
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=5)
    out = tmp_path / "a"
    rc = run("ablate", "--model-config", mc, "--train-config", tc, "--manifest",
             manifest(data) if manifest else data / "manifest.txt", *flags, "--out", out)
    return rc, bool(trained) or out.exists()


@pytest.mark.parametrize("horizons,code", [("2000", 3), ("40,40", 3), ("80,70", 2)])
def test_ablate_checks_horizons_before_training(tmp_path, monkeypatch, horizons, code):
    # past the target, repeated, or off the frame grid
    assert _ablate_untrained(tmp_path, monkeypatch, "--horizons", horizons) == (code, False)


def test_ablate_rejects_a_horizon_past_every_float_before_training(tmp_path, monkeypatch,
                                                                     capsys):
    assert _ablate_untrained(tmp_path, monkeypatch, "--horizons", "1" + "0" * 400) == (3, False)
    assert "beyond every window" in capsys.readouterr().err


@pytest.mark.parametrize("variants", ["tp_rnn,bogus", "stacked2_vel,stacked2_vel"])
def test_ablate_checks_every_variant_before_training(tmp_path, monkeypatch, capsys,
                                                     variants):
    assert _ablate_untrained(tmp_path, monkeypatch, "--variants", variants) == (2, False)
    assert "config error" in capsys.readouterr().err


def test_ablate_rejects_an_empty_variants_list_before_training(tmp_path, monkeypatch,
                                                              capsys):
    # an explicit empty list is one empty entry, as in "tp_rnn,", not every variant
    assert _ablate_untrained(tmp_path, monkeypatch, "--variants", "") == (2, False)
    assert "config error: --variants ''" in capsys.readouterr().err


def test_ablate_rejects_test_windows_at_two_frame_intervals(tmp_path, monkeypatch, capsys):
    manifest = lambda data: _two_interval_manifest(data, (20.0, 40.0))  # noqa: E731
    assert _ablate_untrained(tmp_path, monkeypatch, manifest=manifest) == (3, False)
    assert "[20.0, 40.0]" in capsys.readouterr().err


def test_ablate_without_a_default_horizon_on_the_frame_grid_exits_3(tmp_path, monkeypatch,
                                                                   capsys):
    manifest = lambda data: _manifest_at(data, 30.0)  # noqa: E731
    assert _ablate_untrained(tmp_path, monkeypatch, manifest=manifest) == (3, False)
    assert "--horizons" in capsys.readouterr().err


def test_ablate_rejects_a_train_split_at_two_frame_intervals(tmp_path, monkeypatch, capsys):
    manifest = lambda data: _manifest_at(data, 30.0, rows=[0])  # noqa: E731
    assert _ablate_untrained(tmp_path, monkeypatch, manifest=manifest) == (3, False)
    assert "[30.0, 40.0]" in capsys.readouterr().err


def test_ablate_rejects_non_integer_horizon(tmp_path, capsys):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=5)
    assert run("ablate", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--horizons", "abc",
               "--out", tmp_path / "a") == 3
    err = capsys.readouterr().err
    assert "input error" in err and "'abc'" in err
    assert "Traceback" not in err
