import numpy as np
import pytest

from posecast.arch import ModelConfig, build_model
from posecast.cli import main
from posecast.train import save_model_checkpoint


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


def zero_checkpoint(tmp_path, d_v=3, name="zero.bin"):
    model = build_model(ModelConfig(variant="tp_rnn", d_v=d_v, granularity=2,
                                    levels=2, hidden=4, head1=5, head2=4))
    model.set_flat(np.zeros(model.n_params))
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


def test_synth_rejects_dim_one(tmp_path, capsys):
    assert run("synth", "--out", tmp_path / "d", "--dim", 1) == 3
    assert "input error" in capsys.readouterr().err


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


def test_train_missing_manifest(tmp_path):
    mc, tc = _train_cfgs(tmp_path, iterations=10)
    assert run("train", "--model-config", mc, "--train-config", tc,
               "--manifest", tmp_path / "absent.txt",
               "--out", tmp_path / "r") == 3


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


def test_eval_rejects_non_integer_horizon(tmp_path, capsys):
    data = synth(tmp_path)
    ck = zero_checkpoint(tmp_path)
    assert run("eval", "--checkpoint", ck, "--manifest", data / "manifest.txt",
               "--seed-len", 10, "--target-len", 5, "--horizons", "80,abc",
               "--out", tmp_path / "r.csv") == 3
    err = capsys.readouterr().err
    assert "input error" in err and "'abc'" in err
    assert "Traceback" not in err


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


def test_eval_checkpoint_dim_mismatch(tmp_path):
    data = synth(tmp_path, dim=3)
    ck = zero_checkpoint(tmp_path, d_v=4)
    assert run("eval", "--checkpoint", ck, "--manifest", data / "manifest.txt",
               "--seed-len", 10, "--target-len", 5,
               "--out", tmp_path / "r.csv") == 2


def test_eval_missing_checkpoint(tmp_path):
    data = synth(tmp_path)
    assert run("eval", "--checkpoint", tmp_path / "nope.bin",
               "--manifest", data / "manifest.txt",
               "--out", tmp_path / "r.csv") == 3


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


def test_forecast_dim_mismatch(tmp_path):
    ck = zero_checkpoint(tmp_path, d_v=3)
    sd = seed_csv(tmp_path, [[1.0, 2.0], [3.0, 4.0]])
    assert run("forecast", "--checkpoint", ck, "--seed-csv", sd,
               "--n-steps", 2, "--out", tmp_path / "p.csv") == 2


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


def test_ablate_unknown_variant(tmp_path):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=5)
    assert run("ablate", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--variants", "gru",
               "--out", tmp_path / "a") == 2


def test_ablate_rejects_non_integer_horizon(tmp_path, capsys):
    data = synth(tmp_path)
    mc, tc = _train_cfgs(tmp_path, iterations=5)
    assert run("ablate", "--model-config", mc, "--train-config", tc,
               "--manifest", data / "manifest.txt", "--horizons", "abc",
               "--out", tmp_path / "a") == 3
    err = capsys.readouterr().err
    assert "input error" in err and "'abc'" in err
    assert "Traceback" not in err
