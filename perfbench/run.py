"""posecast benchmark: train-small, train-paper and eval-mid.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the repository root is this file's parent directory. Each
workload runs in child processes (perfbench/worker.py): one generates the
inputs from --seed, one sets up and runs the closed loop, and, untraced, two
more only set up so that setup_s is a median of three. With --trace 0 the
result holds the end-to-end metrics; with --trace 1, the per-layer metrics of
an outside-in traced run (see tracer.py). The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A full record,
with the environment, goes to .bench_out/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-small", "train-paper", "eval-mid")
SETUPS = 3          # set-ups per untraced run; setup_s is their median
DEADLINE_S = 170    # a whole run, all children included

# The end-to-end metrics of BENCHMARK.json, with their units.
END_TO_END = {
    "windows_per_s": "windows/s",
    "op_ms_p50": "ms",
    "pose_error": "pose_l2",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child(args: list, deadline: float, env: dict) -> float:
    """Run worker.py with args; return its start time (perf_counter)."""
    t_spawn = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env, check=True,
                   stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    return t_spawn


def child_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if not env.get(var, "").isdigit() or int(env[var]) > int(nproc):
            env[var] = nproc
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    wd = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    common = [name, "--seed", str(seed), "--workdir", str(wd)]
    try:
        child(["gen", *common], deadline, env)
        out = wd / "result.json"
        t_spawn = child(["run", *common, "--out", str(out), "--seconds", str(seconds),
                         "--trace", str(trace)], deadline, env)
        res = json.loads(out.read_text(encoding="utf-8"))
        if not trace:
            setups = [res["ready"] - t_spawn]
            for k in range(SETUPS - 1):
                probe = wd / f"setup{k}.json"
                t = child(["setup", *common, "--out", str(probe)], deadline, env)
                setups.append(json.loads(probe.read_text(encoding="utf-8"))["ready"] - t)
            res["metrics"]["setup_s"] = (statistics.median(setups), "s")
            res["metrics"]["setup_s_samples"] = (len(setups), "count")
        return res
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def summary(name: str, seed: int, trace: int, res: dict) -> dict:
    """The JSON object for one workload, and the human-readable lines."""
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = {k: {"value": res["metrics"][k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    print(f"== {name} seed={seed} trace={trace} ops={res['ops']}")
    print(f"   env: {json.dumps(res['env'], sort_keys=True)}")
    shown = res["per_layer"] if trace else res["metrics"]
    for k, (v, u) in shown.items():
        print(f"   {k:48s} {v:14.6g} {u}")
    ratio = res["failed"] / res["attempted"]
    print(f"   {'failed_ops_ratio':48s} {ratio:14.6g} ratio "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    for note in res["notes"]:
        print(f"   FAILED: {note}")
    for k in res.get("missing", []):
        print(f"   MISSING per-layer metric: {k}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": trace, **res}
    (out / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "posecast" / "__init__.py").is_file():
        print(f"no posecast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run still stops and waits for its child (subprocess.run does)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if a.workload == "all" else (a.workload,)
    results = {}
    try:
        for name in names:
            results[name] = summary(name, a.seed, a.trace,
                                    run_workload(name, a.seed, a.seconds, a.trace))
    except (subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        print(f"benchmark failed: {e!r}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
