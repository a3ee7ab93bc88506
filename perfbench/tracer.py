"""Outside-in tracing of posecast's public functions, for the per-layer metrics.

Nothing in the program is instrumented. `Tracer.install` wraps each function
named in TARGETS and rebinds the wrapper under every name a loaded
`posecast` module holds for it, so `posecast.arch.lstm_step` is traced as well
as `posecast.layers.lstm_step` (arch does `from .layers import ...`). Each call
records a span (name, start, end, parent span, op id) in memory; self times
and per-op figures are derived from the spans after the run.

A target a later refactor removes, or a measuring hook whose assumption about
arguments no longer holds, is skipped: its metrics are missing from the
result instead of crashing the run, so such a change can still be measured end
to end.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import sys
import time

import numpy as np

# (module under posecast, attribute path). Roots (train_loop, evaluate_mae,
# cli.main) are traced so that every layer's self time is bounded by a parent.
TARGETS = [
    ("numcore", "clip_global_norm"),
    ("layers", "lstm_step"),
    ("layers", "lstm_step_backward"),
    ("layers", "head_forward"),
    ("layers", "head_backward"),
    ("arch", "rollout_forward"),
    ("arch", "rollout_backward"),
    ("arch", "observe"),
    ("arch", "forecast"),
    ("arch", "Model.set_tensors"),
    ("posedata", "load_split"),
    ("posedata", "load_sequence"),
    ("posedata", "save_sequence"),
    ("train", "train_loop"),
    ("train", "TrainingData.sample_batch"),
    ("train", "pose_loss_and_grad"),
    ("train", "sgd_step"),
    ("train", "adam_step"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("evaluate", "evaluate_mae"),
    ("evaluate", "batched_forecast_poses"),
    ("evaluate", "forecast_window"),
    ("metrics", "angle_mae"),
    ("metrics", "zero_velocity_forecast"),
    ("metrics", "aggregate_reports"),
    ("cli", "main"),
    ("cli", "cmd_forecast"),
]

# Every per-layer metric, with its unit. `self_ms` and `calls` are per op: per
# iteration on the train workloads, per eval cycle on eval-mid. `ms` and `mb`
# are per call. Figures for a function the workload never calls read 0.
PER_LAYER = [
    ("numcore.clip_global_norm.self_ms", "ms"),
    ("numcore.clip_global_norm.clip_rate", "ratio"),
    ("layers.lstm_step.calls", "count"),
    ("layers.lstm_step.self_ms", "ms"),
    ("layers.lstm_step.gflop_computed", "GFLOP"),
    ("layers.lstm_step_backward.calls", "count"),
    ("layers.lstm_step_backward.self_ms", "ms"),
    ("layers.lstm_step_backward.gflop_computed", "GFLOP"),
    ("layers.lstm_step_backward.mb_computed", "MB"),
    ("layers.head_forward.calls", "count"),
    ("layers.head_forward.self_ms", "ms"),
    ("layers.head_forward.useful_ratio", "ratio"),
    ("layers.head_backward.calls", "count"),
    ("layers.head_backward.self_ms", "ms"),
    ("arch.rollout_forward.self_ms", "ms"),
    ("arch.rollout_forward.tape_mb", "MB"),
    ("arch.rollout_backward.self_ms", "ms"),
    ("arch.observe.self_ms", "ms"),
    ("arch.forecast.self_ms", "ms"),
    ("arch.lstm_calls_per_rollout", "count"),
    ("arch.Model.set_tensors.self_ms", "ms"),
    ("posedata.load_split.ms", "ms"),
    ("posedata.load_sequence.ms", "ms"),
    ("posedata.save_sequence.ms", "ms"),
    ("train.train_loop.self_ms", "ms"),
    ("train.TrainingData.sample_batch.self_ms", "ms"),
    ("train.pose_loss_and_grad.self_ms", "ms"),
    ("train.sgd_step.self_ms", "ms"),
    ("train.adam_step.self_ms", "ms"),
    ("checkpoint.save_checkpoint.ms", "ms"),
    ("checkpoint.save_checkpoint.mb", "MB"),
    ("checkpoint.load_checkpoint.ms", "ms"),
    ("checkpoint.load_checkpoint.mb", "MB"),
    ("evaluate.evaluate_mae.self_ms", "ms"),
    ("evaluate.batched_forecast_poses.self_ms", "ms"),
    ("evaluate.forecast_window.self_ms", "ms"),
    ("metrics.angle_mae.self_ms", "ms"),
    ("metrics.zero_velocity_forecast.self_ms", "ms"),
    ("metrics.aggregate_reports.self_ms", "ms"),
    ("cli.cmd_forecast.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]

MEASURE_SPAN = "trace.measure"


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


def _array_bytes(obj) -> int:
    """Bytes of the distinct ndarrays reachable through lists, tuples and
    dataclass instances (the tape records)."""
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


def _file_bytes(path) -> int:
    with open(path, "rb") as fh:
        return fh.seek(0, 2)


# Measuring hooks: (args, result) -> {quantity: amount}. The FLOP and
# byte figures are computed from call shapes, not read from hardware counters.
def _lstm_fwd(args, out):
    p, x = args[0], args[1]
    return {"flop": 2 * _rows(x) * p.W.size}


def _lstm_bwd(args, out):
    p, tape = args[0], args[1]
    # dW = dpre.T @ z and dz = dpre @ W; W is read and a dW of its size written
    return {"flop": 4 * _rows(tape.x) * p.W.size, "bytes": 2 * p.W.nbytes}


def _clip(args, out):
    return {"clipped": float(out[1] > args[1])}


def _rollout_fwd(args, out):
    preds, records = out
    return {"tape_bytes": _array_bytes(records), "consumed": len(preds)}


def _forecast(args, out):
    return {"consumed": out.steps.shape[0]}


def _ckpt_file(args, out):
    return {"bytes": _file_bytes(args[0])}


HOOKS = {
    "layers.lstm_step": _lstm_fwd,
    "layers.lstm_step_backward": _lstm_bwd,
    "numcore.clip_global_norm": _clip,
    "arch.rollout_forward": _rollout_fwd,
    "arch.forecast": _forecast,
    "checkpoint.save_checkpoint": _ckpt_file,
    "checkpoint.load_checkpoint": _ckpt_file,
}


class Tracer:
    """In-memory span recorder over wrapped posecast functions.

    `op` is the id of the current operation (iteration or eval cycle); the
    caller advances it. Spans recorded while `op` is negative (a traced
    set-up) count toward per-call figures but not toward per-op figures.
    """

    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, op)
        self.stack: list = []
        self.op = -1
        self.installed: list[str] = []
        self.missing: list[str] = []
        self.quantities: dict = {}      # (name, quantity) -> summed amount (ops >= 0)
        self.hook_failed: set = set()

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = self.op
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, op)
            if hook is not None and op >= 0 and name not in self.hook_failed:
                m0 = clock()
                try:
                    for q, v in hook(args, out).items():
                        self.quantities[name, q] = self.quantities.get((name, q), 0) + v
                except Exception:  # a refactor changed the call; drop the quantity
                    self.hook_failed.add(name)
                # the hook's own time is a sibling span, so the parent's self
                # time does not absorb it
                spans.append((MEASURE_SPAN, m0, clock(), parent, op))
            return out

        return traced

    def install(self):
        """Wrap every target that exists and rebind it wherever it is bound."""
        mods = {}
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            try:
                mod = mods.setdefault(mod_name, importlib.import_module(f"posecast.{mod_name}"))
                *owner_path, leaf = attr.split(".")
                owner = mod
                for part in owner_path:
                    owner = getattr(owner, part)
                orig = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig, HOOKS.get(name))
            if owner is mod:
                for m in list(sys.modules.values()):
                    mname = getattr(m, "__name__", "")
                    if mname != "posecast" and not mname.startswith("posecast."):
                        continue
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapped)
            else:
                setattr(owner, leaf, wrapped)
            self.installed.append(name)

    def write_spans(self, path):
        """Write every span as CSV: id,name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{op}\n")

    def per_layer(self, n_ops: int, overhead_ratio: float) -> dict:
        """Per-layer metrics {name: (value, unit)} for `n_ops` traced ops."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s, calls_all, incl_all = {}, {}, {}, {}
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            calls_all[name] = calls_all.get(name, 0) + 1
            incl_all[name] = incl_all.get(name, 0.0) + (t1 - t0)
            if op >= 0:
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])

        q = self.quantities
        installed = set(self.installed)
        out = {"trace.overhead_ratio": overhead_ratio}
        for metric, _ in PER_LAYER:
            fn, _, quantity = metric.rpartition(".")
            if fn not in installed:
                continue
            if quantity == "calls":
                out[metric] = calls.get(fn, 0) / n_ops
            elif quantity == "self_ms":
                out[metric] = 1e3 * self_s.get(fn, 0.0) / n_ops
            elif quantity == "ms":
                out[metric] = 1e3 * incl_all.get(fn, 0.0) / max(calls_all.get(fn, 0), 1)
            elif fn in self.hook_failed:
                continue
            elif quantity == "gflop_computed":
                out[metric] = q.get((fn, "flop"), 0) / 1e9 / n_ops
            elif quantity == "mb_computed":
                out[metric] = q.get((fn, "bytes"), 0) / 1e6 / n_ops
            elif quantity == "mb":
                out[metric] = q.get((fn, "bytes"), 0) / 1e6 / max(calls.get(fn, 0), 1)
            elif quantity == "clip_rate":
                out[metric] = q.get((fn, "clipped"), 0) / max(calls.get(fn, 0), 1)
            elif quantity == "tape_mb":
                out[metric] = q.get((fn, "tape_bytes"), 0) / 1e6 / max(calls.get(fn, 0), 1)

        # head outputs the rollouts hand back, over head forwards run
        consumers = [f for f in ("arch.rollout_forward", "arch.forecast") if f in installed]
        if "layers.head_forward" in installed and consumers \
                and not self.hook_failed.intersection(consumers):
            used = sum(q.get((f, "consumed"), 0) for f in consumers)
            heads = calls.get("layers.head_forward", 0)
            out["layers.head_forward.useful_ratio"] = used / max(heads, 1)
        if "layers.lstm_step" in installed and consumers:
            rollouts = sum(calls.get(f, 0) for f in consumers)
            out["arch.lstm_calls_per_rollout"] = calls.get("layers.lstm_step", 0) / max(rollouts, 1)
        units = dict(PER_LAYER)
        return {k: (v, units[k]) for k, v in out.items()}
