"""Command-line surface: synth, train, eval, forecast, ablate.

All tabular output is CSV; files are written atomically (temp + rename).
Config files are plain `key=value` text with `#` comments.

Exit codes:
    0  success
    2  configuration error (bad config key/value, incompatible dims)
    3  input or parse error (bad data files, bad seed input)
    4  numeric error (training divergence, non-finite values)
    5  I/O failure
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import evaluate
from .arch import VARIANTS, ModelConfig, build_model
from .errors import ConfigError, InputError, NumericError, ParseError
from .metrics import DEFAULT_HORIZONS_MS
from .posedata import (PoseSequence, VelocitySequence, load_manifest,
                       load_sequence, load_split, save_sequence, synth_multiscale,
                       to_velocity)
from .train import (TrainConfig, TrainingData, load_model_checkpoint,
                    train_loop, write_trace)

EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _atomic_write_text(path, text: str):
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


# ---------------------------------------------------------------------------
# key=value config files


def read_kv_config(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    out = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _coerce(cls, raw: dict, *, path="config"):
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    kwargs = {}
    for key, value in raw.items():
        if key not in fields:
            raise ConfigError(f"{path}: unknown key {key!r}")
        ftype = fields[key].type
        try:
            if value == "none":
                kwargs[key] = None
            elif "int" in str(ftype):
                kwargs[key] = int(value)
            elif "float" in str(ftype):
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        except ValueError:
            raise ConfigError(f"{path}: bad value for {key!r}: {value!r}") from None
    return kwargs


def model_config_from_file(path, default_d_v: int | None = None) -> ModelConfig:
    raw = read_kv_config(path)
    kwargs = _coerce(ModelConfig, raw, path=path)
    if "d_v" not in kwargs:
        if default_d_v is None:
            raise ConfigError(f"{path}: d_v missing and not derivable")
        kwargs["d_v"] = default_d_v
    return ModelConfig(**kwargs).validate()


def train_config_from_file(path) -> TrainConfig:
    raw = read_kv_config(path)
    return TrainConfig(**_coerce(TrainConfig, raw, path=path)).validate()


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seqs = synth_multiscale(args.n_seq, args.length, args.dim, args.seed,
                            frame_interval_ms=args.interval_ms)
    n_train = max(1, int(round(0.8 * len(seqs))))
    if n_train == len(seqs) and len(seqs) > 1:
        n_train -= 1
    lines = []
    for i, seq in enumerate(seqs):
        name = f"seq_{i:03d}.csv"
        save_sequence(out / name, seq)
        split = "train" if i < n_train else "test"
        lines.append(f"{name},{split},synthetic,{args.dim},{args.interval_ms!r}")
    _atomic_write_text(out / "manifest.txt", "\n".join(lines) + "\n")
    print(f"wrote {len(seqs)} sequences + manifest to {out}")
    return 0


def cmd_train(args) -> int:
    adam = None
    start_iteration = 0
    rng_state = None
    if args.resume:
        model, meta, adam = load_model_checkpoint(args.resume)
        if meta.get("kind") != "train":
            raise ConfigError(f"{args.resume}: not a training checkpoint")
        tcfg = TrainConfig.from_dict(meta["train_config"])
        start_iteration = int(meta["iteration"])
        rng_state = meta["rng_state"]
        manifest = load_manifest(args.manifest)
    else:
        manifest = load_manifest(args.manifest)
        tcfg = train_config_from_file(args.train_config)
        mcfg = model_config_from_file(args.model_config, default_d_v=manifest.dim)
        if mcfg.d_v != manifest.dim:
            raise ConfigError(f"model d_v {mcfg.d_v} != dataset dim {manifest.dim}")
        model = build_model(mcfg)
    train_seqs = load_split(manifest, "train")
    data = TrainingData(sequences=train_seqs, seed_len=tcfg.seed_len,
                        target_len=tcfg.target_len)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_every = max(1, args.log_every)

    def log_fn(it, loss, lr):
        if (it + 1) % log_every == 0:
            print(f"iter {it + 1}/{tcfg.iterations} loss {loss:.6f} lr {lr:.6f}")

    model, trace, _ = train_loop(model, data, tcfg, out_dir=out,
                                 start_iteration=start_iteration,
                                 rng_state=rng_state, adam=adam,
                                 log_fn=log_fn)
    write_trace(out / "loss_trace.csv", trace)
    print(f"final checkpoint: {out / 'checkpoint_final.bin'}")
    return 0


def _horizons(args, interval_ms, target_len) -> list[int]:
    if args.horizons:
        out = []
        for s in args.horizons.split(","):
            try:
                out.append(int(s))
            except ValueError:
                raise InputError(f"--horizons: {s!r} is not an integer (ms)") from None
        return out
    return [h for h in DEFAULT_HORIZONS_MS if h <= target_len * interval_ms]


def cmd_eval(args) -> int:
    model, meta, _ = load_model_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    if model.config.d_v != manifest.dim:
        raise ConfigError(f"checkpoint d_v {model.config.d_v} != dataset dim "
                          f"{manifest.dim}")
    space = "planar_2d" if args.protocol == "pck" else "angle_expmap"
    test_seqs = load_split(manifest, "test", space=space)
    windows = evaluate.collect_windows(test_seqs, args.seed_len, args.target_len)
    if args.protocol == "mae":
        interval = test_seqs[0].frame_interval_ms
        horizons = _horizons(args, interval, args.target_len)
        model_rep, zero_rep = evaluate.evaluate_mae(model, windows, horizons)
        rows = ["predictor,action,horizon_ms,error,n_windows"]
        for name, rep in (("model", model_rep), ("zero_velocity", zero_rep)):
            for hz in rep.horizons_ms:
                rows.append(f"{name},ALL,{hz},{rep.errors[hz]!r},{rep.n_windows}")
            for act in sorted(rep.per_action):
                errs, n = rep.per_action[act]
                for hz in rep.horizons_ms:
                    rows.append(f"{name},{act},{hz},{errs[hz]!r},{n}")
        _atomic_write_text(args.out, "\n".join(rows) + "\n")
    else:
        scores_m, scores_z = evaluate.evaluate_pck(model, windows, args.threshold)
        rows = ["frame,model_pck,zero_velocity_pck"]
        for k, (a, b) in enumerate(zip(scores_m, scores_z), start=1):
            rows.append(f"{k},{a!r},{b!r}")
        _atomic_write_text(args.out, "\n".join(rows) + "\n")
    print(f"wrote report: {args.out}")
    return 0


def cmd_forecast(args) -> int:
    from .arch import forecast, observe
    model, _, _ = load_model_checkpoint(args.checkpoint)
    seed = load_sequence(args.seed_csv, frame_interval_ms=args.interval_ms)
    if seed.dim != model.config.d_v:
        raise ConfigError(f"seed dim {seed.dim} != model d_v {model.config.d_v}")
    if seed.n_frames >= 2:
        if args.init_vel == "zero":
            seed_v = VelocitySequence(
                steps=np.zeros((1, seed.dim)), origin_pose=seed.frames[-1],
                frame_interval_ms=seed.frame_interval_ms)
        else:
            seed_v = to_velocity(seed)
    else:
        if args.init_vel != "zero":
            raise InputError("forecast: a 1-frame seed requires --init-vel zero")
        seed_v = VelocitySequence(steps=np.zeros((1, seed.dim)),
                                  origin_pose=seed.frames[0],
                                  frame_interval_ms=seed.frame_interval_ms)
    bank, _, v_first = observe(model, seed_v, record=False)
    pred_v = forecast(model, bank, v_first, args.n_steps)
    frames = seed.frames[-1] + np.cumsum(pred_v.steps, axis=0)
    pose_out = PoseSequence(frames=frames, frame_interval_ms=seed.frame_interval_ms)
    save_sequence(args.out, pose_out)
    print(f"wrote {args.n_steps} predicted frames: {args.out}")
    return 0


_ABLATION_LEVELS = {
    "single_layer_pose": 1, "single_layer_vel": 1, "stacked2_vel": 2,
    "double_scale_vel": 2, "double_scale_hier_vel": 2,
    "double_scale_phase_vel": 2, "tp_rnn": None,  # None: keep configured levels
}


def cmd_ablate(args) -> int:
    manifest = load_manifest(args.manifest)
    tcfg = train_config_from_file(args.train_config)
    base = model_config_from_file(args.model_config, default_d_v=manifest.dim)
    train_seqs = load_split(manifest, "train")
    test_seqs = load_split(manifest, "test")
    data = TrainingData(sequences=train_seqs, seed_len=tcfg.seed_len,
                        target_len=tcfg.target_len)
    windows = evaluate.collect_windows(test_seqs, tcfg.seed_len, tcfg.target_len)
    interval = test_seqs[0].frame_interval_ms
    horizons = _horizons(args, interval, tcfg.target_len)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    variants = args.variants.split(",") if args.variants else list(VARIANTS)
    summary = ["variant," + ",".join(f"mae_{h}" for h in horizons)]
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        levels = _ABLATION_LEVELS[variant] or max(2, base.levels)
        cfg = dataclasses.replace(base, variant=variant, levels=levels,
                                  granularity=2 if levels == 2 else base.granularity)
        cfg.validate()
        model = build_model(cfg)
        model, trace, _ = train_loop(model, data, tcfg, out_dir=out / variant)
        write_trace(out / variant / "loss_trace.csv", trace)
        rep, zero_rep = evaluate.evaluate_mae(model, windows, horizons)
        rows = ["predictor,action,horizon_ms,error,n_windows"]
        for name, r in (("model", rep), ("zero_velocity", zero_rep)):
            for hz in horizons:
                rows.append(f"{name},ALL,{hz},{r.errors[hz]!r},{r.n_windows}")
        _atomic_write_text(out / variant / "report.csv", "\n".join(rows) + "\n")
        summary.append(variant + "," + ",".join(repr(rep.errors[h]) for h in horizons))
        print(f"{variant}: " + " ".join(f"{rep.errors[h]:.4f}" for h in horizons))
    _atomic_write_text(out / "summary.csv", "\n".join(summary) + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="posecast", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic multi-scale dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--n-seq", type=int, default=10)
    sp.add_argument("--length", type=int, default=300)
    sp.add_argument("--dim", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--interval-ms", type=float, default=40.0)
    sp.set_defaults(fn=cmd_synth)

    tp = sub.add_parser("train", help="train a model on a manifest dataset")
    tp.add_argument("--model-config")
    tp.add_argument("--train-config")
    tp.add_argument("--manifest", required=True)
    tp.add_argument("--out", required=True)
    tp.add_argument("--resume", help="training checkpoint to continue from")
    tp.add_argument("--log-every", type=int, default=100)
    tp.set_defaults(fn=cmd_train)

    ep = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    ep.add_argument("--checkpoint", required=True)
    ep.add_argument("--manifest", required=True)
    ep.add_argument("--protocol", choices=("mae", "pck"), default="mae")
    ep.add_argument("--horizons", help="comma-separated horizons in ms")
    ep.add_argument("--threshold", type=float, default=0.05)
    ep.add_argument("--seed-len", type=int, default=50)
    ep.add_argument("--target-len", type=int, default=25)
    ep.add_argument("--out", required=True)
    ep.set_defaults(fn=cmd_eval)

    fp = sub.add_parser("forecast", help="forecast future poses from a seed CSV")
    fp.add_argument("--checkpoint", required=True)
    fp.add_argument("--seed-csv", required=True)
    fp.add_argument("--n-steps", type=int, required=True)
    fp.add_argument("--interval-ms", type=float, default=40.0)
    fp.add_argument("--init-vel", choices=("zero", "estimate"), default="estimate")
    fp.add_argument("--out", required=True)
    fp.set_defaults(fn=cmd_forecast)

    ap = sub.add_parser("ablate", help="train and compare all model variants")
    ap.add_argument("--model-config", required=True)
    ap.add_argument("--train-config", required=True)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--horizons")
    ap.add_argument("--variants", help="comma-separated subset of variants")
    ap.add_argument("--out", required=True)
    ap.set_defaults(fn=cmd_ablate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, ParseError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
