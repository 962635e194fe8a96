"""Deterministic random numbers for reproducible problem instances.

SplitMix64 with a Box-Muller transform on top, implemented directly on
64-bit integer arrays, so the raw outputs are bit-identical across
platforms, numpy versions, and reimplementations in other languages.  The
normals go through numpy's float64 ``log``, ``cos`` and ``sin``, whose last
bit can depend on the numpy build and the CPU's SIMD dispatch, so they are
bit-identical under one such build and dispatch.

The i-th raw output depends on i alone, and Box-Muller maps each pair of
raw outputs to its pair of normals on its own, so ``normal`` produces a
draw one cache-sized chunk of ``_CHUNK`` pairs at a time: each chunk mixes
its raw outputs in place and writes its normals into the one output array.
The values are bit for bit those of a single block over the whole draw;
only the temporaries are bounded.  Every size is checked by ``schema`` before
the stream moves, so a malformed one raises ``ConfigError`` and draws nothing.
"""

from __future__ import annotations

import numpy as np

from .schema import array_shape, integer, nonnegative_integer

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
# shift counts as uint64 scalars, which numpy applies without converting a Python int
_R11, _R27, _R30, _R31 = (np.uint64(k) for k in (11, 27, 30, 31))
_CHUNK = 8192  # Box-Muller pairs per chunk: its temporaries are 448 KB


def _outputs(z: np.ndarray, seed: np.uint64) -> None:
    """The raw outputs ``mix(seed + i * golden)`` at the positions ``z``, made in place."""
    z *= _GOLDEN
    z += seed
    tmp = np.empty_like(z)
    np.right_shift(z, _R30, out=tmp)
    z ^= tmp
    z *= _MIX_1
    np.right_shift(z, _R27, out=tmp)
    z ^= tmp
    z *= _MIX_2
    np.right_shift(z, _R31, out=tmp)
    z ^= tmp


class SplitMix64:
    """SplitMix64 stream addressed by position, so blocks vectorize.

    The i-th raw output (1-based) is ``mix(seed + i * golden)``, which matches
    the scalar reference that advances the state by the golden-ratio constant
    before mixing.  A seed that is no integer raises ``ConfigError``.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(integer(seed, "seed") & _MASK)
        self._position = 0

    def uint64(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit outputs; ``count`` is a ``nonnegative_integer``."""
        count = nonnegative_integer(count, "count")
        z = np.arange(self._position + 1, self._position + count + 1, dtype=np.uint64)
        self._position += count
        _outputs(z, self._seed)
        return z

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws via Box-Muller, in an array of ``shape``: an
        ``array_shape``, so a count of at least 0 or a sequence of them.

        Each call consumes one block of raw outputs: the first half feeds the
        radius (mapped into (0, 1] so the log is finite), the second half the
        angle, and the resulting (cos, sin) pairs are interleaved.

        The block is produced ``_CHUNK`` pairs at a time.  A chunk holds the
        raw outputs of its radii and of its angles as the two rows of one
        array, mixed in place in one pass, and its (cos, sin) pairs go
        straight into the output, so no temporary spans the whole draw.  The
        values are bit for bit those of the single block.  The output array
        itself is returned, owning its data; for an odd count the last
        pair's cosine is written alone and its sine is not made.
        """
        out = np.empty(array_shape(shape, "shape"))
        pairs = (out.size + 1) // 2
        whole = out.size // 2  # the pairs that keep both their cosine and their sine
        start = self._position + 1  # the position of the first radius
        self._position += 2 * pairs
        flat = out.reshape(-1)
        both = flat[: 2 * whole].reshape(whole, 2)
        for lo in range(0, pairs, _CHUNK):
            hi = min(lo + _CHUNK, pairs)
            # row 0: the positions of radii lo..hi-1; row 1: of their angles, a half-block on
            z = np.arange(start + lo, start + lo + 2 * (hi - lo), dtype=np.uint64).reshape(2, -1)
            if hi - lo < pairs:
                z[1] += pairs - (hi - lo)
            _outputs(z, self._seed)
            z >>= _R11
            u = z.astype(np.float64)
            radius, angle = u[0], u[1]
            radius += 1.0
            u *= 2.0**-53
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            angle *= 2.0 * np.pi
            trig = np.cos(angle)
            if hi > whole:  # an odd count's last draw is its last pair's cosine
                flat[-1] = radius[-1] * trig[-1]
                hi = whole
                radius, angle, trig = radius[:-1], angle[:-1], trig[:-1]
            np.multiply(radius, trig, out=both[lo:hi, 0])
            np.sin(angle, out=trig)
            np.multiply(radius, trig, out=both[lo:hi, 1])
        return out
