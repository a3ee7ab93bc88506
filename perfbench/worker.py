"""One child process of the posecast benchmark.

    python3 perfbench/worker.py gen   WORKLOAD --seed N --workdir DIR
    python3 perfbench/worker.py setup WORKLOAD --seed N --workdir DIR --out FILE
    python3 perfbench/worker.py run   WORKLOAD --seed N --workdir DIR --out FILE
                                      --seconds S --trace 0|1

`gen` writes the workload's inputs (sequence CSVs, manifest, checkpoint, seed
CSVs) from the seed. `setup` does only the set-up that `run` does before its
first timed operation and reports when it was ready, so the parent can take
the median of several set-ups. `run` sets up, runs the closed loop (one caller;
the next operation starts when the previous one returns), checks the outputs
and writes a JSON result. run.py starts these; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import posecast  # noqa: E402
from posecast import arch, cli, evaluate, posedata, train  # noqa: E402

from tracer import PER_LAYER, Tracer  # noqa: E402

if not Path(posecast.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"posecast imported from {posecast.__file__}, not from {ROOT / 'src'}")

INTERVAL_MS = 40.0

# Why each workload exists is in README.md. `op_s` is the nominal time of one
# op (a train iteration, or an eval cycle) on the reference machine: a run does
# round(seconds / op_s) ops, so both sides of a comparison do the same work.
WORKLOADS = {
    "train-small": {
        "model": dict(variant="tp_rnn", d_v=4, granularity=2, levels=2,
                      hidden=16, head1=16, head2=8),
        "train": dict(batch_size=16, seed_len=25, target_len=25,
                      optimizer="adam", checkpoint_every=250),
        "data": dict(n_seq=32, length=300),
        "op_s": 0.015, "min_ops": 4, "trace_ops": 300,
    },
    "train-paper": {
        "model": dict(variant="tp_rnn", d_v=54, granularity=2, levels=2,
                      hidden=1024, head1=256, head2=128),
        "train": dict(batch_size=16, seed_len=50, target_len=25,
                      optimizer="sgd", checkpoint_every=2),
        "data": dict(n_seq=16, length=200),
        "op_s": 5.0, "min_ops": 2, "trace_ops": 3,
    },
    "eval-mid": {
        "model": dict(variant="tp_rnn", d_v=54, granularity=2, levels=3,
                      hidden=256, head1=256, head2=128),
        # 8 test sequences of 450 frames: 16 windows of 50+25 each, 128 in all
        "data": dict(n_seq=8, length=450),
        "seed_len": 50, "target_len": 25,
        "n_forecast": 8,   # forecast_window calls per cycle (B=1)
        "n_cli": 4,        # in-process `posecast forecast` calls per cycle
        "op_s": 1.85, "min_ops": 1, "trace_ops": 4,
    },
}


def now() -> float:
    return time.perf_counter()


def is_eval(name: str) -> bool:
    return "n_cli" in WORKLOADS[name]


def forecast_indices(w: dict, n_windows: int) -> list[int]:
    """Windows for forecast_window, spread over the split; the first n_cli also
    go through the CLI."""
    n = w["n_forecast"]
    return [k * n_windows // n for k in range(n)]


# ---------------------------------------------------------------------------
# Inputs (not part of set-up: the program only sees the files written here)


def gen(name: str, seed: int, wd: Path):
    w = WORKLOADS[name]
    d = w["model"]["d_v"]
    split = "test" if is_eval(name) else "train"
    seqs = posedata.synth_multiscale(w["data"]["n_seq"], w["data"]["length"], d,
                                     seed, frame_interval_ms=INTERVAL_MS)
    lines = []
    for i, s in enumerate(seqs):
        posedata.save_sequence(wd / f"seq_{i:03d}.csv", s)
        lines.append(f"seq_{i:03d}.csv,{split},synthetic,{d},{INTERVAL_MS!r}")
    (wd / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if is_eval(name):
        model = arch.build_model(arch.ModelConfig(**w["model"], seed=seed))
        train.save_model_checkpoint(wd / "model.bin", model)
        windows = evaluate.collect_windows(seqs, w["seed_len"], w["target_len"])
        for j, i in enumerate(forecast_indices(w, len(windows))[:w["n_cli"]]):
            posedata.save_sequence(wd / f"cli_seed_{j}.csv", windows[i].seed)


# ---------------------------------------------------------------------------
# Set-up: program-side loads, model build, warm-up


def setup(name: str, seed: int, wd: Path) -> dict:
    w = WORKLOADS[name]
    manifest = posedata.load_manifest(wd / "manifest.txt")
    if is_eval(name):
        model, _, _ = train.load_model_checkpoint(wd / "model.bin")
        seqs = posedata.load_split(manifest, "test")
        windows = evaluate.collect_windows(seqs, w["seed_len"], w["target_len"])
        evaluate.forecast_window(model, windows[0])
        horizons = [h for h in (80, 160, 320, 400, 560, 1000)
                    if h <= w["target_len"] * INTERVAL_MS]
        return {"model": model, "windows": windows, "horizons": horizons}
    seqs = posedata.load_split(manifest, "train")
    tc = w["train"]
    data = train.TrainingData(sequences=seqs, seed_len=tc["seed_len"],
                              target_len=tc["target_len"])
    model = arch.build_model(arch.ModelConfig(**w["model"], seed=seed))
    # warm-up: one forward+backward over a 2-frame seed and 1-frame target
    seeds, targets = data.sample_batch(np.random.default_rng(seed), 1)
    train.rollout_loss_batch(model, seeds[:, -2:], targets[:, :1],
                             train.TrainConfig(**tc), mode="eval")
    return {"model": model, "data": data}


# ---------------------------------------------------------------------------
# Timed passes


class Ledger:
    """Attempted and failed operations, including output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, ok: bool, what: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


def train_pass(name: str, seed: int, st: dict, n_ops: int, out: Path,
               tracer: Tracer | None = None) -> dict:
    """`train_loop` for n_ops iterations, with periodic checkpoints into out."""
    w = WORKLOADS[name]
    cfg = train.TrainConfig(**w["train"], iterations=n_ops, seed=seed)
    stamps = []

    def log_fn(it, loss, lr):
        stamps.append(now())
        if tracer is not None:
            tracer.op = it + 1

    if tracer is not None:
        tracer.op = 0
    t0 = now()
    model, trace, paths = train.train_loop(st["model"], st["data"], cfg,
                                           out_dir=out, log_fn=log_fn)
    t1 = now()
    train.write_trace(out / "loss_trace.csv", trace)
    return {"t0": t0, "t1": t1, "stamps": stamps, "losses": [l for _, l, _ in trace],
            "model": model, "paths": paths, "out": out}


def eval_pass(name: str, st: dict, n_ops: int, wd: Path,
              tracer: Tracer | None = None) -> dict:
    """n_ops cycles of: evaluate_mae over every window, forecast_window on a
    fixed set, and in-process `posecast forecast` on the first n_cli of it."""
    w = WORKLOADS[name]
    model, windows, horizons = st["model"], st["windows"], st["horizons"]
    idx = forecast_indices(w, len(windows))
    n = w["target_len"]
    res = {"eval_s": [], "fc_ms": [], "cli_ms": [], "cycles": []}
    t_start = now()
    for c in range(n_ops):
        if tracer is not None:
            tracer.op = c
        t0 = now()
        reports = evaluate.evaluate_mae(model, windows, horizons)
        res["eval_s"].append(now() - t0)
        preds = []
        for i in idx:
            t0 = now()
            p = evaluate.forecast_window(model, windows[i])
            res["fc_ms"].append(1e3 * (now() - t0))
            preds.append(p.frames)
        cli_out = []
        for j in range(w["n_cli"]):
            out = wd / "cli_out.csv"
            argv = ["forecast", "--checkpoint", str(wd / "model.bin"),
                    "--seed-csv", str(wd / f"cli_seed_{j}.csv"),
                    "--n-steps", str(n), "--interval-ms", repr(INTERVAL_MS),
                    "--out", str(out)]
            t0 = now()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            res["cli_ms"].append(1e3 * (now() - t0))
            frames = np.loadtxt(out, delimiter=",", ndmin=2) if rc == 0 else None
            cli_out.append((rc, frames))
        res["cycles"].append((reports, preds, cli_out))
    res["wall_s"] = now() - t_start
    return res


# ---------------------------------------------------------------------------
# Output checks (each counts as an operation)


def close(a, b, tol=1e-9) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def check_train(name: str, r: dict, led: Ledger):
    w = WORKLOADS[name]
    for it, loss in enumerate(r["losses"]):
        led.op(math.isfinite(loss), f"iteration {it}: loss {loss!r}")
    n = len(r["losses"])
    every = w["train"]["checkpoint_every"]
    led.op(len(r["paths"]) == (n - 1) // every + 1, f"{len(r['paths'])} checkpoints written")
    rows = (r["out"] / "loss_trace.csv").read_text(encoding="utf-8").splitlines()
    led.op(len(rows) == n, f"loss_trace.csv has {len(rows)} rows, expected {n}")
    loaded, meta, _ = train.load_model_checkpoint(r["out"] / "checkpoint_final.bin")
    same = all(np.array_equal(a, b) for (_, a), (_, b)
               in zip(loaded.tensors(), r["model"].tensors()))
    led.op(same and meta.get("iteration") == n, "final checkpoint does not reload bit-exactly")


def check_eval(name: str, st: dict, r: dict, led: Ledger):
    w = WORKLOADS[name]
    windows, horizons = st["windows"], st["horizons"]
    idx = forecast_indices(w, len(windows))
    batched = evaluate.batched_forecast_poses(st["model"], windows)
    seeds_last = np.stack([x.seed.frames[-1] for x in windows])
    truth = np.stack([x.target.frames for x in windows])
    ks = [int(round(h / INTERVAL_MS)) - 1 for h in horizons]
    want_model = {h: float(np.mean(np.linalg.norm(batched[:, k] - truth[:, k], axis=1)))
                  for h, k in zip(horizons, ks)}
    want_zero = {h: float(np.mean(np.linalg.norm(seeds_last - truth[:, k], axis=1)))
                 for h, k in zip(horizons, ks)}
    first = r["cycles"][0]
    for c, (reports, preds, cli_out) in enumerate(r["cycles"]):
        model_rep, zero_rep = reports
        ok = (model_rep.n_windows == len(windows)
              and all(math.isfinite(v) for v in model_rep.errors.values())
              and close([model_rep.errors[h] for h in horizons], [want_model[h] for h in horizons])
              and close([zero_rep.errors[h] for h in horizons], [want_zero[h] for h in horizons]))
        led.op(ok, f"cycle {c}: evaluate_mae report disagrees with batched predictions")
        for i, p in zip(idx, preds):
            led.op(close(p, batched[i]), f"cycle {c}: forecast_window({i}) != batched")
        for j, (rc, frames) in enumerate(cli_out):
            led.op(rc == 0 and close(frames, preds[j]),
                   f"cycle {c}: CLI forecast {j} exit {rc} or CSV != forecast_window")
        if c:
            same = (reports[0].errors == first[0][0].errors
                    and all(np.array_equal(a, b) for a, b in zip(preds, first[1])))
            led.op(same, f"cycle {c}: outputs differ from cycle 0")


# ---------------------------------------------------------------------------
# Metrics


def latency(name: str, samples_ms: list) -> dict:
    """Median and sample count; p90 only when at least ten samples lie beyond it."""
    out = {f"{name}_p50": (statistics.median(samples_ms), "ms"),
           f"{name}_samples": (len(samples_ms), "count")}
    if len(samples_ms) >= 2:
        p90 = statistics.quantiles(samples_ms, n=10, method="inclusive")[8]
        if sum(x > p90 for x in samples_ms) >= 10:
            out[f"{name}_p90"] = (p90, "ms")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except Exception:
        blas_name = blas_version = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name, "blas_version": blas_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "cpu": cpu, "commit": commit,
    }


def n_ops_for(name: str, seconds: float) -> int:
    w = WORKLOADS[name]
    return max(w["min_ops"], round(seconds / w["op_s"]))


def run(name: str, seed: int, wd: Path, seconds: float, trace: bool) -> dict:
    st = setup(name, seed, wd)
    ready = now()
    led = Ledger()
    n = n_ops_for(name, seconds)
    result = {"ready": ready}
    if trace:
        n = min(math.ceil(n / 2), WORKLOADS[name]["trace_ops"])
    if is_eval(name):
        r = eval_pass(name, st, n, wd)
        wall = r["wall_s"]
    else:
        r = train_pass(name, seed, st, n, wd / "untraced")
        wall = r["t1"] - r["t0"]
    rss = peak_rss_mb()

    if is_eval(name):
        check_eval(name, st, r, led)
    else:
        check_train(name, r, led)

    if not trace:
        if is_eval(name):
            pass_s = statistics.median(r["eval_s"])
            m = {"windows_per_s": (len(st["windows"]) / pass_s, "windows/s"),
                 "eval_passes": (n, "count")}
            m.update(latency("op_ms", r["fc_ms"]))
            m.update(latency("cli_ms", r["cli_ms"]))
            model_rep = r["cycles"][0][0][0]
            m["pose_error"] = (float(np.mean(list(model_rep.errors.values()))), "pose_l2")
        else:
            b = WORKLOADS[name]["train"]["batch_size"]
            its = np.diff(r["stamps"], prepend=r["t0"]) * 1e3
            m = {"windows_per_s": (b * n / wall, "windows/s")}
            m.update(latency("op_ms", list(its)))
            m["pose_error"] = (float(np.mean(r["losses"])), "pose_l2")
        m["peak_rss_mb"] = (rss, "MB")
        result["metrics"] = m
    else:
        st = None  # free the untraced pass's model before building the traced one
        r.pop("model", None)
        tracer = Tracer()
        tracer.install()
        st2 = setup(name, seed, wd)
        if is_eval(name):
            r2 = eval_pass(name, st2, n, wd, tracer)
            wall2 = r2["wall_s"]
        else:
            r2 = train_pass(name, seed, st2, n, wd / "traced", tracer)
            wall2 = r2["t1"] - r2["t0"]
        tracer.op = -1
        result["per_layer"] = tracer.per_layer(n, wall2 / wall)
        result["trace"] = {"ops": n, "spans": len(tracer.spans),
                           "not_wrapped": tracer.missing,
                           "hook_failed": sorted(tracer.hook_failed)}
        result["missing"] = [k for k, _ in PER_LAYER if k not in result["per_layer"]]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{name}.csv.gz")
        if is_eval(name):
            check_eval(name, st2, r2, led)
            same = all(a[0][0].errors == b[0][0].errors
                       and all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))
                       for a, b in zip(r["cycles"], r2["cycles"]))
            led.op(same, "traced eval outputs differ from untraced")
        else:
            check_train(name, r2, led)
            for f in ("loss_trace.csv", "checkpoint_final.bin"):
                led.op((r["out"] / f).read_bytes() == (r2["out"] / f).read_bytes(),
                       f"traced {f} differs from untraced")
    result.update(attempted=led.attempted, failed=led.failed, notes=led.notes,
                  ops=n, env=environment())
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("gen", "setup", "run"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    wd = Path(a.workdir)
    if a.mode == "gen":
        gen(a.workload, a.seed, wd)
        return 0
    if a.mode == "setup":
        setup(a.workload, a.seed, wd)
        result = {"ready": now()}
    else:
        result = run(a.workload, a.seed, wd, a.seconds, bool(a.trace))
    Path(a.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
