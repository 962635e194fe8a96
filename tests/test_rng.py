"""The vectorized generator must match a plain-integer reference bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riemqn import ConfigError, SplitMix64
from riemqn.rng import _CHUNK as CHUNK

from _support import single_block_normal

MASK = (1 << 64) - 1


def splitmix64_reference(seed, count):
    state = seed & MASK
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def box_muller_reference(seed, count):
    pairs = (count + 1) // 2
    raw = [u >> 11 for u in splitmix64_reference(seed, 2 * pairs)]
    u1 = [(u + 1) * 2.0**-53 for u in raw[:pairs]]
    u2 = [u * 2.0**-53 for u in raw[pairs:]]
    out = []
    for a, b in zip(u1, u2):
        r = math.sqrt(-2.0 * math.log(a))
        out.append(r * math.cos(2.0 * math.pi * b))
        out.append(r * math.sin(2.0 * math.pi * b))
    return out[:count]


def test_uint64_matches_reference():
    for seed in (0, 1, 42, 2**63 + 11, -5):
        got = SplitMix64(seed).uint64(64)
        want = splitmix64_reference(seed, 64)
        assert [int(v) for v in got] == want


def test_stream_is_position_addressed():
    rng = SplitMix64(123)
    first = rng.uint64(10)
    second = rng.uint64(10)
    both = SplitMix64(123).uint64(20)
    assert np.array_equal(np.concatenate([first, second]), both)


@pytest.mark.parametrize(
    "draw, size, key",
    [
        ("uint64", 2.5, "count"),
        ("uint64", True, "count"),
        ("uint64", 2.0, "count"),
        ("uint64", -1, "count"),
        ("normal", (2.5,), "shape"),
        ("normal", (True, 3), "shape"),
        ("normal", -1, "shape"),
        ("normal", (2, -1), "shape"),
        ("normal", 3.0, "shape"),
    ],
)
def test_malformed_size_raises_and_draws_nothing(draw, size, key):
    rng = SplitMix64(5)
    with pytest.raises(ConfigError, match=key):
        getattr(rng, draw)(size)
    assert rng._position == 0
    assert rng.uint64(1)[0] == SplitMix64(5).uint64(1)[0]


@pytest.mark.parametrize("shape", [0, (0,), (3, 0), (0, 4)])
def test_empty_shape_draws_nothing(shape):
    rng = SplitMix64(5)
    out = rng.normal(shape)
    assert out.shape == np.empty(shape).shape and out.flags.owndata
    assert rng._position == 0


def test_normal_matches_reference_bitwise():
    for seed, count in ((0, 8), (99, 7), (2**40, 12)):
        got = SplitMix64(seed).normal(count)
        want = np.array(box_muller_reference(seed, count))
        assert np.array_equal(got, want)


def test_normal_shape_and_moments():
    draws = SplitMix64(2024).normal((200, 50))
    assert draws.shape == (200, 50)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02
    assert np.all(np.isfinite(draws))


class TestChunkedNormal:
    """``normal`` works one chunk of pairs at a time and keeps the single block's bits."""

    # numpy's float64 log, cos and sin differ from the math module's in the last
    # bit on a few draws in a thousand (for a single-block draw too), so the
    # plain-integer reference bounds the draws in ulps and the single-block
    # formula pins their bits
    @pytest.mark.parametrize("count", [2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 2 * CHUNK + 2])
    def test_matches_reference_across_a_chunk_edge(self, count):
        got = SplitMix64(31).normal(count)
        assert got.tobytes() == single_block_normal(31, count).tobytes()
        np.testing.assert_array_max_ulp(got, np.array(box_muller_reference(31, count)), maxulp=2)

    @pytest.mark.parametrize("n", [1, 7, 129])
    def test_odd_square_shapes_match_reference(self, n):
        got = SplitMix64(2**40 + n).normal((n, n))
        assert got.shape == (n, n)
        assert got.tobytes() == single_block_normal(2**40 + n, n * n).tobytes()
        want = np.array(box_muller_reference(2**40 + n, n * n)).reshape(n, n)
        np.testing.assert_array_max_ulp(got, want, maxulp=2)

    @pytest.mark.parametrize("count", [5, 2 * CHUNK + 1, 3 * CHUNK])
    def test_uint64_continues_where_normal_left_off(self, count):
        rng = SplitMix64(77)
        rng.normal(count)
        used = 2 * ((count + 1) // 2)
        assert [int(v) for v in rng.uint64(6)] == splitmix64_reference(77, used + 6)[used:]

    @pytest.mark.parametrize(
        "shape", [10, (10, 5), (100, 100), 2 * CHUNK + 2, (3, CHUNK), 1, (7, 7), 2 * CHUNK + 1, (129, 129)]
    )
    def test_returns_the_array_itself(self, shape):
        out = SplitMix64(3).normal(shape)
        assert out.flags.owndata and out.base is None
        assert out.flags.c_contiguous and out.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        count=st.integers(0, 3 * CHUNK),
        skip=st.integers(0, 9),
    )
    def test_matches_the_single_block_formula(self, seed, count, skip):
        rng = SplitMix64(seed)
        rng.uint64(skip)
        got = rng.normal(count)
        assert got.tobytes() == single_block_normal(seed, count, skip).tobytes()
