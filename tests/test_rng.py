import numpy as np
import pytest

from bmx.rng import CHUNK_SIZE, RngStream, chunk_ranges


def test_same_stream_reproduces():
    a = RngStream(123, 5).substream().standard_normal(16)
    b = RngStream(123, 5).substream().standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, 0).substream().standard_normal(16)
    b = RngStream(123, 1).substream().standard_normal(16)
    c = RngStream(124, 0).substream().standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_substream_determinism_and_independence():
    a = RngStream(9, 2).substream(7).standard_normal(8)
    b = RngStream(9, 2).substream(7).standard_normal(8)
    c = RngStream(9, 2).substream(8).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_child_stream():
    s = RngStream(77)
    assert s.child(3) == RngStream(77, 3)


def test_stream_correlation_is_negligible():
    n = 20000
    x = RngStream(5, 0).substream().standard_normal(n)
    y = RngStream(5, 1).substream().standard_normal(n)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.03


def test_chunk_ranges_partition():
    n = 3 * CHUNK_SIZE + 17
    ranges = chunk_ranges(n)
    assert ranges[0] == (0, CHUNK_SIZE)
    assert ranges[-1] == (3 * CHUNK_SIZE, n)
    covered = sum(hi - lo for lo, hi in ranges)
    assert covered == n


def test_seed_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, 2 ** 64)
