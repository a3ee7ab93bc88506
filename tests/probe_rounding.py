"""Rounding probe: does training damp or amplify a one-ulp change of its start?

Retrains the models of acceptance criteria 5 and 6 (`_train_and_eval` in
tests/test_acceptance.py, with the criteria's data and configs) and the
fast-period test's (`fast_period_error` in tests/test_train.py) three times
each: with the initial theta as drawn, and moved one ulp up and one ulp down
(`np.nextafter`).  It prints each per-seed error beside the unmoved one, the
largest shift per group and the criteria's means.  Runs on one BLAS thread,
so its numbers are those of CI's one-thread rerun.  Its name keeps pytest
from collecting it; no test, bound or criterion reads it.  From the
repository root (39 trainings, about 12 minutes on one core):

    python tests/probe_rounding.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # read when numpy loads its BLAS

import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

import test_acceptance
import test_train
from posecast.arch import build_model
from posecast.posedata import synth_multiscale
from posecast.train import TrainingData

SHIFTS = {"as drawn": 0, "+1 ulp": 1, "-1 ulp": -1}


def _shifted_build(direction: int):
    """`build_model`, its theta moved one ulp toward direction * inf (0: as drawn)."""
    def build(cfg):
        model = build_model(cfg)
        if direction:
            np.nextafter(model.theta, direction * np.inf, out=model.theta)
        return model
    return build


def _trainings():
    """(group, name, call returning the error) of each training, criterion
    by criterion, with the data the criteria build."""
    seqs = synth_multiscale(10, 120, 4, seed=7)
    data = TrainingData(sequences=seqs[:8], seed_len=12, target_len=8)
    for variant in ("single_layer_vel", "single_layer_pose"):
        for ts in range(3):
            yield "criterion 5", f"{variant} seed {ts}", partial(
                test_acceptance._train_and_eval, variant, 1, ts, data, seqs[8:], 3000,
                12, 8, 16, 80)
    seqs = synth_multiscale(10, 160, 4, seed=11)
    data = TrainingData(sequences=seqs[:8], seed_len=25, target_len=25)
    for variant in ("tp_rnn", "stacked2_vel"):
        for ts in range(3):
            yield "criterion 6", f"{variant} seed {ts}", partial(
                test_acceptance._train_and_eval, variant, 2, ts, data, seqs[8:], 2500,
                25, 25, 16, 1000)
    yield "fast period", "tp_rnn relative period error", test_train.fast_period_error


def main() -> int:
    t0 = time.time()
    rows = []
    print(f"{'group':<12} {'training':<30} " + " ".join(f"{s:>22}" for s in SHIFTS))
    for group, name, train in _trainings():
        errs = []
        for direction in SHIFTS.values():
            test_acceptance.build_model = test_train.build_model = _shifted_build(direction)
            errs.append(float(train()))
        rows.append((group, name, errs))
        print(f"{group:<12} {name:<30} " + " ".join(f"{e:>22.16g}" for e in errs), flush=True)
    print()
    for group in dict.fromkeys(g for g, _, _ in rows):
        errs = np.array([e for g, _, e in rows if g == group])
        spread = np.abs(errs[:, 1:] - errs[:, :1]).max()
        print(f"{group}: largest shift from the unmoved error {spread:.3g}")
        if group != "fast period":  # each criterion compares two 3-seed means
            means = errs.reshape(2, 3, len(SHIFTS)).mean(axis=1)
            for k, shift in enumerate(SHIFTS):
                print(f"  {shift}: means {means[0, k]:.10f} vs {means[1, k]:.10f}")
    print(f"\nwall time {time.time() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
