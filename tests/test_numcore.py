import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posecast.numcore import as_f64, clip_global_norm, global_norm, seeded_rng


def test_global_norm():
    assert global_norm([np.array([3.0]), np.array([4.0])]) == 5.0
    assert global_norm([np.zeros((2, 2))]) == 0.0


def test_clip_noop_below_bound_returns_same_objects():
    g = [np.array([1.0, 2.0])]
    out, norm = clip_global_norm(g, 10.0)
    assert out[0] is g[0]
    assert norm == pytest.approx(np.sqrt(5.0))


def test_clip_scales_to_bound():
    g = [np.array([30.0]), np.array([40.0])]
    out, norm = clip_global_norm(g, 5.0)
    assert norm == 50.0
    assert np.allclose(out[0], [3.0]) and np.allclose(out[1], [4.0])
    assert global_norm(out) == pytest.approx(5.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
                min_size=1, max_size=4),
       st.floats(1e-3, 1e3))
def test_clip_norm_never_exceeds_bound(tensors, max_norm):
    grads = [np.array(t) for t in tensors]
    out, _ = clip_global_norm(grads, max_norm)
    assert global_norm(out) <= max_norm * (1 + 1e-12)


def test_clip_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        clip_global_norm([np.ones(2)], 0.0)


def test_seeded_rng_deterministic_and_stream_separated():
    a = seeded_rng(7, 0, 1).uniform(size=8)
    b = seeded_rng(7, 0, 1).uniform(size=8)
    c = seeded_rng(7, 0, 2).uniform(size=8)
    d = seeded_rng(8, 0, 1).uniform(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_as_f64_casts():
    out = as_f64([1, 2, 3])
    assert out.dtype == np.float64
