"""Exit-code contract under corrupted inputs.

Corrupt checkpoint meta, checkpoint bytes, config files and manifest rows,
run `posecast forecast`, `posecast eval`, `posecast train --resume` and
`posecast ablate` in-process, and require a documented exit code (0 success, 2 config,
3 input, 4 numeric, 5 I/O) with nothing raised: a bad input file never ends
in a traceback.  A failing exit writes exactly one line to stderr, its error,
and no run emits a warning.
"""

import json
import struct
import warnings
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posecast.arch import VARIANTS, ModelConfig, build_model
from posecast.checkpoint import MAGIC, save_checkpoint
from posecast.cli import main
from posecast.posedata import load_manifest, load_split, save_sequence, synth_multiscale
from posecast.train import TrainConfig, TrainingData, train_loop

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

ODD_VALUES = [None, True, -1, 0, 1, 2, 3, 7, 10 ** 12, 2.5, -0.5, float("nan"),
              float("inf"), "", "tp_rnn", "x", [], {}]
ODD_TOKENS = ["", " ", "-1", "0", "1", "2", "3", "4", "1e400", "nan", "inf", "-40",
              "abc", "train", "test", "seq_000.csv", "missing.csv", "../manifest.txt",
              "99999999999999999999", "mask=0,1", "mask=-1", "mask=0,7", "mask=2,2"]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rows = []
    for i, s in enumerate(synth_multiscale(4, 40, 3, seed=5)):
        save_sequence(d / f"seq_{i:03d}.csv", s)
        rows.append(f"seq_{i:03d}.csv,{'train' if i < 2 else 'test'},act{i % 2},3,40.0")
    (d / "manifest.txt").write_text("\n".join(rows) + "\n")
    model = build_model(ModelConfig(variant="tp_rnn", d_v=3, granularity=2, levels=3,
                                    hidden=4, head1=5, head2=4, seed=1))
    meta = {"kind": "model", "model_config": asdict(model.config), "iteration": 0}
    save_checkpoint(d / "model.bin", meta, list(model.tensors()))
    save_sequence(d / "seed.csv", synth_multiscale(1, 9, 3, seed=6)[0])
    return _Files(dir=d, meta=meta, rows=rows, bytes=(d / "model.bin").read_bytes())


class _Files(dict):
    """The fuzz inputs; a short repr keeps falsifying examples readable."""

    def __init__(self, **kw):
        super().__init__(kw)

    def __repr__(self):
        return f"<fuzz inputs in {self['dir']}>"


def _meta_end(raw) -> int:
    return len(MAGIC) + 12 + struct.unpack_from("<Q", raw, len(MAGIC) + 4)[0]


def _with_meta(raw: bytes, meta) -> bytes:
    """The checkpoint `raw` with its JSON meta block replaced by `meta`."""
    block = json.dumps(meta).encode("utf-8")
    return (MAGIC + struct.pack("<IQ", 1, len(block)) + block + raw[_meta_end(raw):])


def _run(capsys, *argv):
    """`main(argv)`'s exit code, held to the contract: a documented code, no
    warning, and on failure exactly one stderr line."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert rc in EXIT_CODES
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == (rc != 0), err
    return rc


def _forecast(base, capsys, checkpoint):
    d = base["dir"]
    return _run(capsys, "forecast", "--checkpoint", checkpoint, "--seed-csv",
                d / "seed.csv", "--n-steps", 4, "--out", d / "pred.csv")


def _eval(base, capsys, checkpoint, manifest, protocol="mae"):
    return _run(capsys, "eval", "--checkpoint", checkpoint, "--manifest", manifest,
                "--protocol", protocol, "--seed-len", 10, "--target-len", 5,
                "--out", base["dir"] / "report.csv")


meta_edits = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(sorted(ModelConfig.__dataclass_fields__)),
              st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("drop"), st.sampled_from(sorted(ModelConfig.__dataclass_fields__)),
              st.none()),
    st.tuples(st.just("add"), st.sampled_from(["colour", "K", ""]),
              st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("config"), st.none(), st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("meta"), st.none(), st.sampled_from(ODD_VALUES)),
)


@FUZZ
@given(edits=st.lists(meta_edits, min_size=1, max_size=3),
       command=st.sampled_from(["forecast", "eval"]))
def test_corrupt_checkpoint_meta(base, capsys, edits, command):
    meta = json.loads(json.dumps(base["meta"]))
    for op, key, value in edits:
        cfg = meta.get("model_config") if isinstance(meta, dict) else None
        if op == "meta":
            meta = value
        elif op == "config" and isinstance(meta, dict):
            meta["model_config"] = value
        elif isinstance(cfg, dict):
            if op == "drop":
                cfg.pop(key, None)
            else:
                cfg[key] = value
    path = base["dir"] / "meta_fuzz.bin"
    path.write_bytes(_with_meta(base["bytes"], meta))
    if command == "forecast":
        _forecast(base, capsys, path)
    else:
        _eval(base, capsys, path, base["dir"] / "manifest.txt")


@FUZZ
@given(data=st.data(), command=st.sampled_from(["forecast", "eval"]))
def test_corrupt_checkpoint_bytes(base, capsys, data, command):
    raw = bytearray(base["bytes"])
    meta_end = _meta_end(raw)
    # flip bytes in the tensor headers and data, or cut the file short
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(meta_end, len(raw) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 8), label="n_flips")):
            at = data.draw(st.integers(meta_end, len(raw) - 1), label="offset")
            raw[at] = data.draw(st.integers(0, 255), label="byte")
    path = base["dir"] / "bytes_fuzz.bin"
    path.write_bytes(bytes(raw))
    if command == "forecast":
        _forecast(base, capsys, path)
    else:
        _eval(base, capsys, path, base["dir"] / "manifest.txt")


row_edits = st.one_of(
    st.tuples(st.just("field"), st.integers(0, 3), st.integers(0, 4),
              st.sampled_from(ODD_TOKENS)),
    st.tuples(st.just("drop_field"), st.integers(0, 3), st.integers(0, 4), st.none()),
    st.tuples(st.just("drop_row"), st.integers(0, 3), st.none(), st.none()),
    st.tuples(st.just("line"), st.integers(0, 4), st.none(), st.sampled_from(ODD_TOKENS)),
)


def _edit_rows(rows, edits):
    """Apply manifest row edits in place to rows split into fields."""
    for op, i, j, token in edits:
        if op == "line":
            rows.insert(min(i, len(rows)), [token])
        elif i < len(rows):
            if op == "drop_row":
                del rows[i]
            elif j < len(rows[i]):
                if op == "field":
                    rows[i][j] = token
                else:
                    del rows[i][j]


@FUZZ
@given(edits=st.lists(row_edits, min_size=1, max_size=4),
       protocol=st.sampled_from(["mae", "pck"]))
def test_corrupt_manifest_rows(base, capsys, edits, protocol):
    rows = [r.split(",") for r in base["rows"]]
    _edit_rows(rows, edits)
    path = base["dir"] / "manifest_fuzz.txt"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    _eval(base, capsys, base["dir"] / "model.bin", path, protocol)


@pytest.fixture(scope="module")
def train_base(base):
    """A training checkpoint (Adam, after 1 of 2 iterations) on base's train split."""
    d = base["dir"]
    model = build_model(ModelConfig(variant="tp_rnn", d_v=3, granularity=2, levels=2,
                                    hidden=4, head1=5, head2=4, seed=2))
    data = TrainingData(sequences=load_split(load_manifest(d / "manifest.txt"), "train"),
                        seed_len=10, target_len=5)
    cfg = TrainConfig(batch_size=2, iterations=2, seed_len=10, target_len=5,
                      optimizer="adam", checkpoint_every=1)
    train_loop(model, data, cfg, out_dir=d / "train_run")
    raw = (d / "train_run" / "checkpoint_00000001.bin").read_bytes()
    return _Files(dir=d, bytes=raw, meta=json.loads(raw[len(MAGIC) + 12:_meta_end(raw)]))


TOP_KEYS = ["kind", "train_config", "iteration", "rng_state"]
# A train_config may ask for 10^12 iterations: that is a valid, endless run,
# not a malformed file, so that one value is not drawn for that one key.
TRAIN_KEYS = sorted(TrainConfig.__dataclass_fields__)

resume_edits = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(TOP_KEYS), st.none()),
    st.tuples(st.just("set"), st.sampled_from(TOP_KEYS), st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("train_config"), st.sampled_from([k for k in TRAIN_KEYS
                                                        if k != "iterations"]),
              st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("train_config"), st.just("iterations"),
              st.sampled_from([v for v in ODD_VALUES if v != 10 ** 12])),
    st.tuples(st.just("train_config"), st.sampled_from(["momentum", ""]),
              st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("train_config_drop"), st.sampled_from(TRAIN_KEYS), st.none()),
    st.tuples(st.just("rng_state"), st.sampled_from(["bit_generator", "state",
                                                     "has_uint32", "uinteger"]),
              st.sampled_from(ODD_VALUES)),
)


@FUZZ
@given(edits=st.lists(resume_edits, min_size=1, max_size=3))
def test_corrupt_train_resume_meta(train_base, capsys, edits):
    meta = json.loads(json.dumps(train_base["meta"]))
    for op, key, value in edits:
        if op == "drop":
            meta.pop(key, None)
        elif op == "set":
            meta[key] = value
        elif isinstance(meta.get(op.removesuffix("_drop")), dict):
            if op == "train_config_drop":
                meta["train_config"].pop(key, None)
            else:
                meta[op][key] = value
    d = train_base["dir"]
    path = d / "resume_fuzz.bin"
    path.write_bytes(_with_meta(train_base["bytes"], meta))
    _run(capsys, "train", "--resume", path, "--manifest", d / "manifest.txt",
         "--out", d / "resumed", "--log-every", 1000)


# `ablate` trains every variant it is given, so each example must stay cheap:
# the keys that set how much work a run does (iterations and the layer widths)
# draw only small values and are never dropped, since their defaults are a
# 100k-iteration run of 1024-wide cells.  At most two iterations at width <= 3
# train each variant in a few milliseconds.  A width may also be huge: the
# parameter cap rejects it before anything is allocated (an iteration count of
# 10^12 is a valid, endless run).  Every other key also draws values far out of
# range, or is dropped.
SMALL_KEYS = {"iterations", "hidden", "head1", "head2"}
CONFIG_TOKENS = ["", "-1", "0", "1", "2", "3", "0.5", "1e400", "nan", "inf", "none",
                 "abc", "tp_rnn", "single_layer_pose", "double_scale_vel", "adam",
                 "velocity", "1000000000000"]
SMALL_TOKENS = ["", "-1", "0", "1", "2", "nan", "none", "abc"]
ABLATE_MODEL = {"variant": "tp_rnn", "granularity": "2", "levels": "2", "hidden": "3",
                "head1": "3", "head2": "2", "seed": "0"}
ABLATE_TRAIN = {"iterations": "2", "batch_size": "2", "seed_len": "6", "target_len": "3",
                "seed": "0"}


def _config_edits(kind, keys):
    free = [k for k in keys if k not in SMALL_KEYS]
    return st.one_of(
        st.tuples(st.just(kind), st.sampled_from(free), st.sampled_from(CONFIG_TOKENS)),
        st.sampled_from(sorted(SMALL_KEYS & set(keys))).flatmap(lambda key: st.tuples(
            st.just(kind), st.just(key),
            st.sampled_from(SMALL_TOKENS + ["1000000000000"] * (key != "iterations")))),
        st.tuples(st.just(kind), st.sampled_from(free), st.none()),  # drop the key
        st.tuples(st.just(kind), st.sampled_from(["colour", "=", "x y"]),
                  st.sampled_from(CONFIG_TOKENS)),
    )


ablate_edits = st.one_of(
    _config_edits("model", sorted(ModelConfig.__dataclass_fields__)),
    _config_edits("train", TRAIN_KEYS),
    st.tuples(st.just("row"), st.none(), row_edits),
)


@FUZZ
@given(edits=st.lists(ablate_edits, min_size=1, max_size=3),
       variants=st.lists(st.sampled_from([*VARIANTS, "gru"]), min_size=1, max_size=3,
                         unique=True))
def test_corrupt_ablate_inputs(base, capsys, edits, variants):
    model, train = dict(ABLATE_MODEL), dict(ABLATE_TRAIN)
    rows = [r.split(",") for r in base["rows"]]
    for op, key, value in edits:
        if op == "row":
            _edit_rows(rows, [value])
            continue
        cfg = model if op == "model" else train
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    d = base["dir"]
    for name, cfg in (("ablate_model.cfg", model), ("ablate_train.cfg", train)):
        (d / name).write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))
    (d / "ablate_manifest.txt").write_text("\n".join(",".join(r) for r in rows) + "\n")
    _run(capsys, "ablate", "--model-config", d / "ablate_model.cfg",
         "--train-config", d / "ablate_train.cfg", "--manifest", d / "ablate_manifest.txt",
         "--variants", ",".join(variants), "--out", d / "ablation")
