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
import math
import sys
from pathlib import Path

import numpy as np

from . import evaluate
from .arch import VARIANTS, ModelConfig, build_model, field_kinds
from .errors import ConfigError, InputError, NumericError, ParseError
from .metrics import DEFAULT_HORIZONS_MS, horizon_frame_index, horizon_indices
from .numcore import atomic_write_text
from .posedata import (MAX_SYNTH_VALUES, PoseSequence, load_manifest, load_sequence,
                       load_split, save_sequence, synth_multiscale, text_lines)
from .train import (TrainConfig, TrainingData, load_model_checkpoint,
                    load_train_checkpoint, train_loop)

EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


# ---------------------------------------------------------------------------
# key=value config files


def read_kv_config(path) -> dict[str, str]:
    path = Path(path)
    out, linenos = {}, {}
    for lineno, line in text_lines(path):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeated (first set on "
                              f"line {linenos[key]})")
        out[key], linenos[key] = value.strip(), lineno
    return out


def _coerce(cls, path) -> dict:
    """The key=value file `path` as `cls` keyword arguments, typed by `field_kinds`."""
    kinds = field_kinds(cls)
    kwargs = {}
    for key, value in read_kv_config(path).items():
        if key not in kinds:
            raise ConfigError(f"{path}: unknown key {key!r}")
        kind, nullable = kinds[key]
        try:
            kwargs[key] = None if nullable and value == "none" else kind(value)
        except ValueError:
            raise ConfigError(f"{path}: bad value for {key!r}: {value!r}") from None
    return kwargs


def model_config_from_file(path, d_v: int) -> ModelConfig:
    """The model config in `path` for a dataset of dimension `d_v`,
    which its `d_v` key defaults to and must equal."""
    kwargs = _coerce(ModelConfig, path)
    if "variant" not in kwargs:
        raise ConfigError(f"{path}: variant missing")
    cfg = ModelConfig(**{"d_v": d_v, **kwargs})
    if cfg.d_v != d_v:
        raise ConfigError(f"model d_v {cfg.d_v} != dataset dim {d_v}")
    return cfg


def train_config_from_file(path) -> TrainConfig:
    return TrainConfig(**_coerce(TrainConfig, path))


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(args) -> int:
    seqs = synth_multiscale(args.n_seq, args.length, args.dim, args.seed,
                            frame_interval_ms=args.interval_ms)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_train = max(1, int(round(0.8 * len(seqs))))
    if n_train == len(seqs) and len(seqs) > 1:
        n_train -= 1
    lines = []
    for i, seq in enumerate(seqs):
        name = f"seq_{i:03d}.csv"
        save_sequence(out / name, seq)
        split = "train" if i < n_train else "test"
        lines.append(f"{name},{split},synthetic,{args.dim},{args.interval_ms!r}")
    atomic_write_text(out / "manifest.txt", "\n".join(lines) + "\n")
    print(f"wrote {len(seqs)} sequences + manifest to {out}")
    return 0


def cmd_train(args) -> int:
    for flag in ("model_config", "train_config"):
        # a resumed run keeps its checkpoint's configs
        if (getattr(args, flag) is None) == (not args.resume):
            raise ConfigError(f"--{flag.replace('_', '-')} is " + (
                "not allowed with --resume" if args.resume else "required without --resume"))
    if args.resume:
        model, tcfg, *resume = load_train_checkpoint(args.resume)
        manifest = load_manifest(args.manifest)
        if model.config.d_v != manifest.dim:
            raise ConfigError(f"model d_v {model.config.d_v} != dataset dim {manifest.dim}")
    else:
        manifest = load_manifest(args.manifest)
        tcfg = train_config_from_file(args.train_config)
        model = build_model(model_config_from_file(args.model_config, manifest.dim))
        resume = (0, None, None)  # start iteration, rng state, Adam moments
    train_seqs = load_split(manifest, "train")
    data = TrainingData(sequences=train_seqs, seed_len=tcfg.seed_len,
                        target_len=tcfg.target_len)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_every = max(1, args.log_every)

    def log_fn(it, loss, lr):
        if (it + 1) % log_every == 0:
            print(f"iter {it + 1}/{tcfg.iterations} loss {loss:.6f} lr {lr:.6f}")

    train_loop(model, data, tcfg, out, *resume, log_fn=log_fn)
    print(f"final checkpoint: {out / 'checkpoint_final.bin'}")
    return 0


def _on_grid(horizon_ms, interval_ms) -> bool:
    try:
        horizon_frame_index(horizon_ms, interval_ms)
    except ConfigError:
        return False
    return True


def _horizons(args, windows, target_len) -> list[int]:
    """--horizons (default: those on the frame grid within the target),
    resolved before any work."""
    interval_ms = evaluate.frame_interval(windows)
    if args.horizons is not None:
        try:
            out = [int(s) for s in args.horizons.split(",")]
        except ValueError as e:
            raise InputError(f"--horizons must be integers (ms): {e}") from None
    else:
        out = [h for h in DEFAULT_HORIZONS_MS
               if h <= target_len * interval_ms and _on_grid(h, interval_ms)]
        if not out:
            raise InputError(f"no default horizon lies on the {interval_ms:g} ms frame "
                             f"grid within a {target_len}-frame target; pass --horizons")
    horizon_indices(out, interval_ms, target_len)
    return out


def _write_report(path, model_rep, zero_rep, per_action: bool):
    """The MAE report CSV: per predictor, its error over all windows at each
    horizon, then (with per_action) its error per action."""
    rows = ["predictor,action,horizon_ms,error,n_windows"]
    for name, rep in (("model", model_rep), ("zero_velocity", zero_rep)):
        for hz in rep.horizons_ms:
            rows.append(f"{name},ALL,{hz},{rep.errors[hz]!r},{rep.n_windows}")
        for act in sorted(rep.per_action) if per_action else ():
            errs, n = rep.per_action[act]
            for hz in rep.horizons_ms:
                rows.append(f"{name},{act},{hz},{errs[hz]!r},{n}")
    atomic_write_text(path, "\n".join(rows) + "\n")


def cmd_eval(args) -> int:
    if not 0 < args.threshold < math.inf:
        raise InputError(f"--threshold: must be finite and > 0, got {args.threshold}")
    model = load_model_checkpoint(args.checkpoint)[0]  # an Adam run's moments dropped
    manifest = load_manifest(args.manifest)
    if model.config.d_v != manifest.dim:
        raise ConfigError(f"checkpoint d_v {model.config.d_v} != dataset dim "
                          f"{manifest.dim}")
    test_seqs = load_split(manifest, "test")
    windows = evaluate.collect_windows(test_seqs, args.seed_len, args.target_len)
    if args.protocol == "mae":
        horizons = _horizons(args, windows, args.target_len)
        model_rep, zero_rep = evaluate.evaluate_mae(model, windows, horizons)
        _write_report(args.out, model_rep, zero_rep, per_action=True)
    else:
        scores_m, scores_z, skipped = evaluate.evaluate_pck(model, windows, args.threshold)
        print(f"pck: skipped {skipped} degenerate ground-truth frames "
              "(zero-size bounding box)")
        rows = ["frame,model_pck,zero_velocity_pck"]
        for k, (a, b) in enumerate(zip(scores_m, scores_z), start=1):
            rows.append(f"{k},{a!r},{b!r}")
        atomic_write_text(args.out, "\n".join(rows) + "\n")
    print(f"wrote report: {args.out}")
    return 0


def cmd_forecast(args) -> int:
    if args.n_steps < 1:
        raise InputError(f"--n-steps: must be >= 1, got {args.n_steps}")
    model = load_model_checkpoint(args.checkpoint)[0]  # an Adam run's moments dropped
    if args.n_steps * model.config.d_v > MAX_SYNTH_VALUES:
        raise InputError(f"--n-steps: n_steps * d must be at most {MAX_SYNTH_VALUES}, "
                         f"got {args.n_steps * model.config.d_v}")
    seed = load_sequence(args.seed_csv, frame_interval_ms=args.interval_ms)
    if seed.dim != model.config.d_v:
        raise ConfigError(f"seed dim {seed.dim} != model d_v {model.config.d_v}")
    if seed.n_frames < 2 and args.init_vel != "zero":
        raise InputError("forecast: a 1-frame seed requires --init-vel zero")
    if args.init_vel == "zero":
        # the last pose twice: one zero velocity step, starting from that pose
        seed_frames = seed.frames[[-1, -1]]
    else:
        seed_frames = seed.frames
    frames = evaluate.forecast_frames(model, seed_frames[None], args.n_steps)[0]
    pose_out = PoseSequence(frames=frames, frame_interval_ms=seed.frame_interval_ms)
    save_sequence(args.out, pose_out)
    print(f"wrote {args.n_steps} predicted frames: {args.out}")
    return 0


def cmd_ablate(args) -> int:
    variants = args.variants.split(",") if args.variants is not None else list(VARIANTS)
    if not set(variants) <= set(VARIANTS) or len(set(variants)) < len(variants):
        raise ConfigError(f"--variants {args.variants!r}: each must be a distinct "
                          f"variant of {', '.join(VARIANTS)}")
    manifest = load_manifest(args.manifest)
    tcfg = train_config_from_file(args.train_config)
    base = model_config_from_file(args.model_config, manifest.dim)
    train_seqs = load_split(manifest, "train")
    test_seqs = load_split(manifest, "test")
    data = TrainingData(sequences=train_seqs, seed_len=tcfg.seed_len,
                        target_len=tcfg.target_len)
    windows = evaluate.collect_windows(test_seqs, tcfg.seed_len, tcfg.target_len)
    horizons = _horizons(args, windows, tcfg.target_len)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = ["variant," + ",".join(f"mae_{h}" for h in horizons)]
    for variant in variants:
        # a variant with a configured level count runs at least two levels;
        # every two-level model runs at K=2, the double-scale variants' K
        levels = VARIANTS[variant].levels or max(2, base.levels)
        K = 2 if levels == 2 else base.granularity
        if K != base.granularity:
            print(f"{variant}: trained at granularity 2, not the configured {base.granularity}")
        model = build_model(dataclasses.replace(base, variant=variant, levels=levels,
                                                granularity=K))
        model = train_loop(model, data, tcfg, out_dir=out / variant)[0]
        rep, zero_rep = evaluate.evaluate_mae(model, windows, horizons)
        _write_report(out / variant / "report.csv", rep, zero_rep, per_action=False)
        summary.append(variant + "," + ",".join(repr(rep.errors[h]) for h in horizons))
        print(f"{variant}: " + " ".join(f"{rep.errors[h]:.4f}" for h in horizons))
    atomic_write_text(out / "summary.csv", "\n".join(summary) + "\n")
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
        # an overflow on the way to a non-finite value prints nothing: the
        # explicit finite checks report a numeric failure as one error line
        with np.errstate(all="ignore"):
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
