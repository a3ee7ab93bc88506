import json
import struct
import tracemalloc

import numpy as np
import pytest

from posecast.arch import ModelConfig, build_model
from posecast.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from posecast.errors import ParseError, ShapeError


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


def test_bytes_after_the_last_tensor_rejected(tmp_path):
    # one appended byte, or a second checkpoint after the first, is no checkpoint
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {"kind": "model"}, [("w", np.arange(6.0).reshape(2, 3))])
    good = p.read_bytes()
    for extra in (b"\x00", good):
        p.write_bytes(good + extra)
        with pytest.raises(ParseError, match=f"{len(extra)} trailing bytes"):
            load_checkpoint(p)


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
    # a file cut anywhere, inside a header field or a tensor's data, is
    # truncated; only the whole file loads
    p = tmp_path / "ok.bin"
    tensors = [("w", np.ones((4, 4))), ("b", np.arange(3.0))]
    save_checkpoint(p, {"k": 1}, tensors)
    raw = p.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(cut)
    _, loaded = load_checkpoint(p)
    assert all(np.array_equal(loaded[name], arr) for name, arr in tensors)


def test_missing_file(tmp_path):
    with pytest.raises(ParseError, match="no such file"):
        load_checkpoint(tmp_path / "absent.bin")


def test_no_stray_temp_files(tmp_path):
    save_checkpoint(tmp_path / "ck.bin", {}, [("w", np.zeros(2))])
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == ["ck.bin", "ck.bin.manifest.txt"]
    # nor a failed save: the rename onto a directory fails
    (tmp_path / "dir.bin").mkdir()
    with pytest.raises(OSError):
        save_checkpoint(tmp_path / "dir.bin", {}, [("w", np.zeros(2))])
    assert sorted(f.name for f in tmp_path.iterdir()) == names + ["dir.bin"]


def _header(meta: dict, n_tensors: int) -> bytes:
    meta_bytes = json.dumps(meta).encode("utf-8")
    return (MAGIC + struct.pack("<IQ", VERSION, len(meta_bytes)) + meta_bytes
            + struct.pack("<I", n_tensors))


def _tensor_header(name: str, shape) -> bytes:
    nb = name.encode("utf-8")
    return struct.pack(f"<H{len(nb)}sB{len(shape)}Q", len(nb), nb, len(shape), *shape)


def test_repeated_tensor_name_rejected(tmp_path):
    p = tmp_path / "twice.bin"
    save_checkpoint(p, {"k": 1}, [("head.b3", np.zeros(3)), ("w", np.ones(2)),
                                  ("head.b3", np.full(3, 9.0))])
    with pytest.raises(ParseError, match=r"tensor 'head\.b3' appears twice"):
        load_checkpoint(p)


def test_claimed_size_beyond_the_file_is_not_allocated(tmp_path):
    # the header claims a 1 GB tensor; the file holds 64 bytes of data
    p = tmp_path / "huge.bin"
    p.write_bytes(_header({"k": 1}, 1) + _tensor_header("w", (2 ** 15, 2 ** 12))
                  + b"\x00" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="truncated"):
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_huge_dimension_of_an_empty_tensor_rejected(tmp_path):
    # zero elements fit any file, but no array has a dimension of 2^64 - 1
    p = tmp_path / "wide.bin"
    p.write_bytes(_header({"k": 1}, 1) + _tensor_header("w", (0, 2 ** 64 - 1)))
    with pytest.raises(ParseError, match="bad tensor shape"):
        load_checkpoint(p)


def test_load_holds_one_copy_of_the_tensors(tmp_path):
    # each tensor is read straight into its own array: no file-sized buffer
    # beside the arrays
    p = tmp_path / "big.bin"
    tensors = [(f"w{i}", np.full((256, 256), float(i))) for i in range(8)]
    save_checkpoint(p, {"k": 1}, tensors)
    size = sum(arr.nbytes for _, arr in tensors)
    tracemalloc.start()
    try:
        _, loaded = load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(loaded[name], arr) for name, arr in tensors)
    assert all(arr.flags.writeable and arr.dtype == np.float64 for arr in loaded.values())
    assert peak < 1.25 * size, (peak, size)


def test_into_gets_the_headers_once_the_whole_file_is_checked(tmp_path):
    # the tensors are read into the arrays `into` gives, which the load returns;
    # a file the first pass rejects never reaches `into`
    p = tmp_path / "ck.bin"
    tensors = [("w", np.arange(6.0).reshape(2, 3)), ("b", np.arange(3.0))]
    save_checkpoint(p, {"k": 1}, tensors)
    calls, given = [], []

    def into(meta, headers):
        calls.append((meta, headers))
        given[:] = [np.full(shape, -1.0) for _, shape in headers]
        return given

    meta, loaded = load_checkpoint(p, into)
    assert calls == [({"k": 1}, [("w", (2, 3)), ("b", (3,))])]
    assert [loaded[name] for name, _ in tensors] == given
    assert all(np.array_equal(loaded[name], arr) for name, arr in tensors)
    good = p.read_bytes()
    for raw in (good + b"\x00", good[:-1]):
        p.write_bytes(raw)
        with pytest.raises(ParseError):
            load_checkpoint(p, into)
    assert len(calls) == 1


def _read_only(shape):
    out = np.zeros(shape)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("give", [
    lambda shapes: [np.zeros(shape[::-1]) for shape in shapes],
    lambda shapes: [np.zeros(shape, dtype=np.float32) for shape in shapes],
    lambda shapes: [np.zeros((shape[0], 2 * shape[1]))[:, ::2] for shape in shapes],
    lambda shapes: [_read_only(shape) for shape in shapes],
    lambda shapes: [np.zeros(shape) for shape in shapes[1:]],
], ids=["shape", "dtype", "strided", "read_only", "count"])
def test_into_arrays_of_another_layout_raise_shape_error(tmp_path, give):
    # a strided or float32 array would take the bytes without an error
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {}, [("w", np.ones((2, 3))), ("b", np.ones((3, 1)))])
    with pytest.raises(ShapeError, match="C-contiguous, writeable float64"):
        load_checkpoint(p, lambda meta, headers: give([shape for _, shape in headers]))
