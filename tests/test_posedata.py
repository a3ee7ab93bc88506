import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from posecast import evaluate
from posecast.arch import ModelConfig, build_model, rollout_forward
from posecast.errors import InputError, ParseError
from posecast.posedata import (FAST_PERIOD_BAND, SLOW_PERIOD_BAND, PoseSequence,
                               load_manifest, load_sequence, load_split, make_windows,
                               save_sequence, synth_multiscale)


def seq(frames, interval=40.0, **kw):
    return PoseSequence(frames=np.array(frames, dtype=float),
                        frame_interval_ms=interval, **kw)


# ---------------------------------------------------------------------------
# velocity round trips, as a forecast runs them (`evaluate.forecast_frames`): the
# engine's seed stage turns the seed's poses into velocities, and its
# predicted velocities become poses again, summed from the last seed pose


def _round_trip(mp, seed_frames, preds):
    """forecast_frames over one seed with the engine replaced by one that
    predicts preds (n, d): (the seed frames the engine got, the frames
    forecast_frames returns)."""
    got = {}

    def engine(model, seeds, n_steps, **kw):
        got.update(seeds=seeds[0])
        return np.asarray(preds, dtype=float)[:, None, :], None

    mp.setattr(evaluate, "rollout_forward", engine)
    frames = evaluate.forecast_frames(None, np.asarray(seed_frames, dtype=float)[None],
                                      len(preds))
    return got["seeds"], frames[0]


def _zero_model(d):
    model = build_model(ModelConfig(variant="tp_rnn", d_v=d, levels=2, hidden=3,
                                    head1=3, head2=3))
    model.theta[:] = 0.0
    return model


def _seed_inputs(seed_frames):
    """The (S, d) inputs a velocity-input model's recorded one-step rollout
    reads from the (S+1, d) seed frames."""
    frames = np.asarray(seed_frames, dtype=float)
    _, tape = rollout_forward(_zero_model(frames.shape[1]), frames[None], 1, mode="eval")
    return tape.xs[:, 0]


def test_to_velocity_example(monkeypatch):
    seed = [[1, 2], [3, 5], [6, 9]]
    got, _ = _round_trip(monkeypatch, seed, [[0, 0]])
    assert np.array_equal(got, seed)
    assert np.array_equal(_seed_inputs(seed), [[2, 3], [3, 4]])


def test_to_velocity_constant_sequence():
    vels = _seed_inputs([[5, 5]] * 4)
    assert vels.shape == (3, 2) and not np.any(vels)


def test_to_velocity_needs_two_frames():
    with pytest.raises(InputError):
        evaluate.forecast_frames(_zero_model(2), np.array([[[1.0, 2.0]]]), 3)


def test_integrate_example(monkeypatch):
    _, frames = _round_trip(monkeypatch, [[5, 5], [0, 0]], [[1.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(frames, [[1, 1], [2, 2]])


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 12), st.integers(1, 5)),
              elements=st.floats(-1e6, 1e6)))
def test_roundtrip_near_exact(frames):
    # from the first frame held still (`forecast --init-vel zero`), predicting
    # each true step gives the frames back; float64 cannot promise
    # a + (b - a) == b, so to one rounding error per step, not bit-level
    with pytest.MonkeyPatch.context() as mp:
        _, back = _round_trip(mp, frames[[0, 0]], np.diff(frames, axis=0))
    tol = 4 * np.finfo(np.float64).eps * max(1.0, np.abs(frames).max())
    assert np.allclose(back, frames[1:], rtol=0, atol=tol * frames.shape[0])


def test_roundtrip_exact_for_constant_sequences():
    # zero steps integrate back bit-exactly -- the zero-velocity anchor
    frames = np.array([[0.1, -2.7, 3.3]] * 6)
    assert np.array_equal(evaluate.forecast_frames(_zero_model(3), frames[None, :4], 2)[0],
                          frames[4:])


# ---------------------------------------------------------------------------
# windows


def test_make_windows_arithmetic():
    p = seq(np.zeros((100, 2)))
    ws = make_windows(p, 50, 25, stride=25)
    assert len(ws) == 2
    assert ws[0].seed.n_frames == 50 and ws[0].target.n_frames == 25


def test_make_windows_too_short():
    assert make_windows(seq(np.zeros((74, 2))), 50, 25, stride=1) == []


def test_make_windows_stride_one():
    assert len(make_windows(seq(np.zeros((76, 2))), 50, 25, stride=1)) == 2


def test_make_windows_contiguity():
    p = seq(np.arange(40)[:, None].repeat(2, axis=1))
    for w in make_windows(p, 10, 5, stride=3):
        assert w.seed.frames[-1, 0] + 1 == w.target.frames[0, 0]


def test_collected_windows_are_views_of_their_sequences():
    # no window copies its frames: the split is held once
    from posecast.evaluate import collect_windows
    seqs = [seq(np.arange(80.0).reshape(40, 2)), seq(np.ones((30, 2)))]
    windows = collect_windows(seqs, 10, 5)
    assert len(windows) == 6 + 4
    for w, s in zip(windows, [seqs[0]] * 6 + [seqs[1]] * 4):
        assert np.shares_memory(w.seed.frames, s.frames)
        assert np.shares_memory(w.target.frames, s.frames)


def test_window_carries_no_action_label():
    # action-agnostic contract: the window type has no label field at all
    from posecast.posedata import Window
    assert set(Window.__dataclass_fields__) == {"seed", "target"}


def test_make_windows_preconditions():
    p = seq(np.zeros((10, 2)))
    with pytest.raises(InputError):
        make_windows(p, 1, 3, 1)
    with pytest.raises(InputError):
        make_windows(p, 2, 0, 1)
    with pytest.raises(InputError):
        make_windows(p, 2, 3, 0)


# ---------------------------------------------------------------------------
# file I/O


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    p = seq(rng.normal(size=(5, 3)))
    save_sequence(tmp_path / "a.csv", p)
    q = load_sequence(tmp_path / "a.csv", frame_interval_ms=40.0)
    assert np.array_equal(q.frames, p.frames)


def test_save_sequence_writes_each_value_repr_row_by_row(tmp_path):
    rng = np.random.default_rng(9)
    frames = rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-300, 300, size=(6, 4))
    frames[0] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    save_sequence(tmp_path / "a.csv", seq(frames))
    text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in frames)
    assert (tmp_path / "a.csv").read_bytes() == text.encode("utf-8")


def test_save_sequence_memory_does_not_grow_with_rows(tmp_path):
    # the CSV is written row by row, never held as one text: the traced peak
    # of a save is the same at 500 and at 5000 rows of 54 values (the whole
    # text of 5000 rows would be about 16 MB)
    import tracemalloc
    rng = np.random.default_rng(10)
    peaks = []
    for rows in (500, 5000):
        p = seq(rng.normal(size=(rows, 54)))
        tracemalloc.start()
        save_sequence(tmp_path / f"s{rows}.csv", p)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 64 * 1024 and peaks[1] < 2 * peaks[0] + 16 * 1024


def test_load_sequence_basic(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    p = load_sequence(f)
    assert p.n_frames == 3 and p.dim == 2


def test_load_sequence_bad_column_count(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match=r":2:"):
        load_sequence(f)


def test_load_sequence_non_numeric_names_line(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("1.0,2.0\n1.0,x\n")
    with pytest.raises(ParseError, match=r":2:"):
        load_sequence(f)


def test_load_sequence_non_finite(tmp_path):
    f = tmp_path / "s.csv"
    f.write_text("1.0,inf\n")
    with pytest.raises(ParseError, match="non-finite"):
        load_sequence(f)


def test_load_sequence_missing_and_empty(tmp_path):
    with pytest.raises(ParseError):
        load_sequence(tmp_path / "nope.csv")
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(ParseError):
        load_sequence(f)


def _write_dataset(tmp_path, mask=None):
    a = seq([[1.0, 2.0, 3.0]] * 8)
    b = seq([[4.0, 5.0, 6.0]] * 8)
    save_sequence(tmp_path / "a.csv", a)
    save_sequence(tmp_path / "b.csv", b)
    lines = ["a.csv,train,walking,3,40.0", "b.csv,test,eating,3,40.0"]
    if mask is not None:
        lines.append("mask=" + ",".join(str(i) for i in mask))
    (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
    return tmp_path / "manifest.txt"


def test_manifest_split_partition(tmp_path):
    m = load_manifest(_write_dataset(tmp_path))
    train = load_split(m, "train")
    test = load_split(m, "test")
    assert len(train) == 1 and train[0].action == "walking"
    assert len(test) == 1 and test[0].action == "eating"
    assert np.array_equal(test[0].frames[0], [4, 5, 6])


def test_manifest_mask_applied(tmp_path):
    m = load_manifest(_write_dataset(tmp_path, mask=[0, 2]))
    assert m.dim == 2
    train = load_split(m, "train")
    assert np.array_equal(train[0].frames[0], [1, 3])


def test_manifest_errors(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("a.csv,validation,walking,3,40.0\n")
    with pytest.raises(ParseError, match="split"):
        load_manifest(f)
    f.write_text("a.csv,train,walking\n")
    with pytest.raises(ParseError, match="5 fields"):
        load_manifest(f)
    f.write_text("# only comments\n")
    with pytest.raises(ParseError, match="no sequences"):
        load_manifest(f)
    for interval in ("nan", "inf", "-inf", "0", "-40.0"):
        f.write_text(f"# header\na.csv,train,walking,3,{interval}\n")
        with pytest.raises(ParseError, match=r"m\.txt:2: interval_ms must be finite"):
            load_manifest(f)
    for dim in ("0", "-1"):
        f.write_text(f"# header\na.csv,train,walking,{dim},40.0\n")
        with pytest.raises(ParseError, match=rf"m\.txt:2: dim must be >= 1, got {dim}$"):
            load_manifest(f)
    f.write_text("a.csv,train,walking,3,40.0\nb.csv,test,walking,3,40.0\n"
                 "c.csv,test,eating,4,40.0\n")
    with pytest.raises(ParseError, match=r"m\.txt:3: dim 4 differs"):
        load_manifest(f)
    # a mask cuts every entry to the same dims, so they may differ
    f.write_text(f.read_text() + "mask=0,2\n")
    assert load_manifest(f).dim == 2
    body = f.read_text()
    f.write_text(body + "mask=2,0,2\n")
    with pytest.raises(ParseError, match=r"m\.txt:5: mask index 2 appears twice"):
        load_manifest(f)
    # a second mask would replace the first and feed the columns permuted
    f.write_text(body + "mask=2,0\n")
    with pytest.raises(ParseError, match=r"m\.txt:5: second mask line \(the first is line 4\)"):
        load_manifest(f)


def test_comment_lines_are_skipped_in_manifests_not_in_sequences(tmp_path):
    # blank lines are skipped everywhere and `#` lines in manifests; every
    # line keeps its number.  In a sequence CSV a `#` line is a parse error
    # naming its line
    f = tmp_path / "m.txt"
    f.write_text("# header\n\n   \na.csv,train,walking,3,40.0\n\n  # more\n"
                 "b.csv,train,walking,4,40.0\n")
    with pytest.raises(ParseError, match=r"m\.txt:7: dim 4 differs"):
        load_manifest(f)
    s = tmp_path / "s.csv"
    s.write_text("1.0,2.0\n\n   \n3.0,4.0\n")
    assert np.array_equal(load_sequence(s).frames, [[1, 2], [3, 4]])
    for text, lineno in (("1.0,2.0\n\n# x,y\n3.0,4.0\n", 3), ("# frames\n1.0,2.0\n", 1)):
        s.write_text(text)
        with pytest.raises(ParseError, match=rf"s\.csv:{lineno}: "):
            load_sequence(s)


def test_byte_order_mark_past_the_first_byte_is_an_error(tmp_path):
    # only a mark opening the file is dropped (tests/test_cli.py runs every
    # command on such files); one anywhere else stays part of its line
    s = tmp_path / "s.csv"
    for text, lineno in (("1.0,2.0\n\ufeff3.0,4.0\n", 2), ("\ufeff\ufeff1.0,2.0\n", 1)):
        s.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=rf"s\.csv:{lineno}: could not convert"):
            load_sequence(s)
    m = tmp_path / "m.txt"
    m.write_text("# header\n\ufeffa.csv,train,walking,3,40.0\n", encoding="utf-8")
    assert load_manifest(m).entries[0].path == "\ufeffa.csv"


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_deterministic():
    a = synth_multiscale(3, 50, 4, seed=5)
    b = synth_multiscale(3, 50, 4, seed=5)
    for x, y in zip(a, b):
        assert np.array_equal(x.frames, y.frames)


def test_synth_zero_amplitude_is_constant():
    seqs = synth_multiscale(2, 30, 4, seed=1, amplitude_scale=0.0,
                            drift_scale=0.0)
    for s in seqs:
        assert np.allclose(s.frames, s.frames[0], atol=0)


def test_synth_rejects_dim_one():
    with pytest.raises(InputError):
        synth_multiscale(1, 30, 1, seed=0)


def test_synth_shapes_and_interval():
    seqs = synth_multiscale(4, 60, 6, seed=2, frame_interval_ms=40.0)
    assert len(seqs) == 4
    assert all(s.frames.shape == (60, 6) for s in seqs)
    assert all(s.frame_interval_ms == 40.0 for s in seqs)


def test_synth_periods_fall_in_declared_bands():
    # 1000 draws: even dims must use the fast band, odd dims the slow band
    from posecast.numcore import seeded_rng
    from posecast.posedata import _draw_dim_params
    for i in range(250):
        rng = seeded_rng(123, i)
        _, periods, _, _ = _draw_dim_params(rng, 4, 0.01)
        assert FAST_PERIOD_BAND[0] <= periods[0] <= FAST_PERIOD_BAND[1]
        assert FAST_PERIOD_BAND[0] <= periods[2] <= FAST_PERIOD_BAND[1]
        assert SLOW_PERIOD_BAND[0] <= periods[1] <= SLOW_PERIOD_BAND[1]
        assert SLOW_PERIOD_BAND[0] <= periods[3] <= SLOW_PERIOD_BAND[1]


def test_synth_dominant_periods_match_bands():
    # spectral sanity: the strongest FFT bin of a drift-free fast dimension
    # sits at a higher frequency than that of a slow dimension
    s = synth_multiscale(1, 256, 2, seed=9, drift_scale=0.0)[0]
    spec_fast = np.abs(np.fft.rfft(s.frames[:, 0]))
    spec_slow = np.abs(np.fft.rfft(s.frames[:, 1]))
    assert spec_fast[1:].argmax() > spec_slow[1:].argmax()
