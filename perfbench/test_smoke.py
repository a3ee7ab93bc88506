"""Smoke test of the benchmark: a reduced-length run of every workload,
untraced and traced. It asserts that outputs check out and that every metric
BENCHMARK.json names is reported with its unit; it asserts nothing on timings.

    python3 -m pytest -q perfbench/test_smoke.py     (about a minute)
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ["train-small", "train-paper", "eval-mid"]


def _run(trace: int) -> dict:
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                        "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                       capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr[-4000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_unit(trace, kind):
    res = _run(trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for w in WORKLOADS:
        for m in SPEC[kind]:
            got = res["metrics"].get(f"{w}.{m['name']}")
            assert got is not None, f"{w}: {m['name']} missing"
            assert got["unit"] == m["unit"], f"{w}: {m['name']} unit {got['unit']}"
            assert isinstance(got["value"], (int, float))


def test_fails_without_program():
    """In a tree holding only BENCHMARK.json and the benchmark, it exits non-zero
    without printing a result."""
    tree = ROOT / ".bench_work" / f"stripped-{os.getpid()}"
    try:
        (tree / HERE.name).mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, tree / HERE.name / f.name)
        p = subprocess.run([sys.executable, str(tree / HERE.name / "run.py"),
                            "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
                           capture_output=True, text=True, timeout=180, cwd=tree)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
