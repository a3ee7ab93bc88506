import json
import struct

import numpy as np
import pytest

from posecast.arch import ModelConfig, build_model
from posecast.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from posecast.errors import ParseError


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = [("a.W", rng.normal(size=(3, 4))),
               ("a.b", rng.normal(size=4)),
               ("deep", rng.normal(size=(2, 3, 2)))]
    meta = {"kind": "model", "iteration": 7, "nested": {"x": [1, 2, 3]}}
    p = tmp_path / "ck.bin"
    save_checkpoint(p, meta, tensors)
    meta2, loaded = load_checkpoint(p)
    assert meta2 == meta
    assert list(loaded) == [n for n, _ in tensors]
    for name, arr in tensors:
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


def test_saved_bytes_follow_documented_layout(tmp_path):
    # a small model: W tensors are non-square, biases 1-D
    model = build_model(ModelConfig(variant="tp_rnn", d_v=2, granularity=2,
                                    levels=2, hidden=3, head1=4, head2=2,
                                    seed=5))
    tensors = model.tensors()
    assert any(a.ndim == 1 for _, a in tensors)
    assert any(a.ndim == 2 and a.shape[0] != a.shape[1] for _, a in tensors)
    meta = {"kind": "model", "iteration": 3}
    p = tmp_path / "ck.bin"
    save_checkpoint(p, meta, tensors)

    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    expected = (b"PCASTCK\n" + struct.pack("<I", 1)
                + struct.pack("<Q", len(meta_bytes)) + meta_bytes
                + struct.pack("<I", len(tensors)))
    for name, arr in tensors:
        nb = name.encode("utf-8")
        expected += struct.pack("<H", len(nb)) + nb + struct.pack("<B", arr.ndim)
        expected += b"".join(struct.pack("<Q", d) for d in arr.shape)
        expected += b"".join(struct.pack("<d", float(v)) for v in arr.ravel())
    assert p.read_bytes() == expected


def test_save_is_deterministic(tmp_path):
    tensors = [("w", np.arange(6.0).reshape(2, 3))]
    meta = {"b": 1, "a": 2}
    save_checkpoint(tmp_path / "x.bin", meta, tensors)
    save_checkpoint(tmp_path / "y.bin", meta, tensors)
    assert (tmp_path / "x.bin").read_bytes() == (tmp_path / "y.bin").read_bytes()


def test_sidecar_manifest_written(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {"kind": "model"}, [("w", np.zeros((2, 2)))])
    side = tmp_path / "ck.bin.manifest.txt"
    text = side.read_text()
    assert f"v{VERSION}" in text
    assert "tensor w: shape (2, 2) float64" in text


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ParseError, match="magic"):
        load_checkpoint(p)


def test_unsupported_version(tmp_path):
    p = tmp_path / "v99.bin"
    import struct
    p.write_bytes(MAGIC + struct.pack("<I", 99) + b"\x00" * 16)
    with pytest.raises(ParseError, match="version"):
        load_checkpoint(p)


def test_truncated_file(tmp_path):
    p = tmp_path / "ok.bin"
    save_checkpoint(p, {"k": 1}, [("w", np.ones((4, 4)))])
    cut = tmp_path / "cut.bin"
    cut.write_bytes(p.read_bytes()[:-16])
    with pytest.raises(ParseError, match="truncated"):
        load_checkpoint(cut)


def test_missing_file(tmp_path):
    with pytest.raises(ParseError, match="no such file"):
        load_checkpoint(tmp_path / "absent.bin")


def test_no_stray_temp_files(tmp_path):
    save_checkpoint(tmp_path / "ck.bin", {}, [("w", np.zeros(2))])
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["ck.bin", "ck.bin.manifest.txt"]
