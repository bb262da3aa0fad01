"""Deterministic seeded sampling.

All randomness in the package flows through counter-based Philox streams
keyed by hashes of (seed, label) tuples, so identical seeds reproduce
identical draws bit for bit regardless of call order, platform or thread
schedule.

Sampling works on [N, dim] coordinate rows, an array at a time.
`ball_rows` draws all its normals in one call and then all its radius
fractions in one call, so the stream a draw consumes is fixed by its shape;
`sphere_rows` draws the normals of all its points in one call.
`hashed_unit_rows` is a keyed counter hash (SplitMix64 words, as in
counter-based generators) evaluated on all rows at once in uint64 array
arithmetic: row k's floats depend on the prefix and row k's bytes alone,
never on the batch, the BLAS library or its thread count. `ball_point`,
`ball_points` and `hashed_unit_floats` are their one-row and fixed-radius
cases.
"""
from __future__ import annotations

import hashlib

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's counter increment


def philox_key(seed: int, *labels) -> int:
    """128-bit Philox key derived from a seed and a sequence of labels."""
    payload = repr((int(seed),) + tuple(labels)).encode()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return int.from_bytes(digest, "little")


def generator(seed: int, *labels) -> np.random.Generator:
    """Independent generator for one named purpose under one seed."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *labels)))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on a uint64 array (products wrap mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class RowHash:
    """hashed_unit_rows(prefix, rows, count) on rows of `width` bytes, its key
    (k1, the multipliers m_j and the steps (i+1) G) made once, read-only."""

    def __init__(self, prefix: bytes, width: int, count: int):
        k0, self.k1 = np.frombuffer(hashlib.blake2b(prefix, digest_size=16).digest(), dtype="<u8")
        steps = np.arange(1, max(width // 8, count) + 1, dtype=np.uint64) * GOLDEN
        self.multipliers, self.steps = _mix(k0 + steps[:width // 8]) | np.uint64(1), steps[:count]
        self.multipliers.setflags(write=False)
        self.steps.setflags(write=False)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        width = 8 * len(self.multipliers)
        words = np.ascontiguousarray(rows).view(np.uint8).reshape(len(rows), width).view("<u8")
        hashes = (words * self.multipliers).sum(axis=1, dtype=np.uint64) ^ self.k1
        return (_mix(hashes[:, None] + self.steps) >> np.uint64(11)) * 2.0**-53


def hashed_unit_rows(prefix: bytes, rows, count: int) -> np.ndarray:
    """Hash `prefix` and the bytes of each row of `rows` into `count` floats
    in [0, 1): an [N, count] array.

    Used where a value must be a deterministic function of its input bytes
    rather than of a stream position. With (k0, k1) the two little-endian
    words of blake2b(prefix, digest_size=16), G = 0x9E3779B97F4A7C15 and
    mix SplitMix64's finalizer, all arithmetic mod 2^64:

    - row k's bytes are read as little-endian words w_0, w_1, ... (a row
      holds a whole number of 8-byte words);
    - word j is weighted by the odd multiplier m_j = mix(k0 + (j+1) G) | 1,
      so changing any one bit of a row changes its hash
      h = (sum_j w_j m_j) ^ k1;
    - float i of the row is (mix(h + (i+1) G) >> 11) 2^-53.
    """
    return RowHash(prefix, np.asarray(rows)[:1].nbytes, count)(rows)


def hashed_unit_floats(payload: bytes, count: int) -> np.ndarray:
    """`count` floats in [0, 1) from one byte payload: the one-row case of
    hashed_unit_rows."""
    return hashed_unit_rows(payload, np.empty((1, 0)), count)[0]


def ball_rows(space, rng: np.random.Generator, radii) -> np.ndarray:
    """[N, dim] coordinates of N points, point k with norm at most radii[k].

    The generator draws `standard_normal((N, 2, dim))`, row k's dim real
    and dim imaginary normals, and then `random(N)`, one uniform fraction of
    each radius. Each row is scaled to its fraction of its radius; a row of
    zero normals stays zero (and still takes its fraction). One row draws
    what one `standard_normal((2, dim))` and one `random()` draw.
    """
    radii = np.asarray(radii, dtype=float).reshape(-1)
    count, dim = len(radii), space.dim
    if dim == 0 or count == 0:
        return np.zeros((count, dim), dtype=complex)
    normals = rng.standard_normal((count, 2, dim))
    fractions = rng.random(count)
    v = normals[:, 0] + 1j * normals[:, 1]
    norms = space.norms(v)
    scales = np.divide(radii * fractions, norms, out=np.zeros(count), where=norms > 0.0)
    return v * scales[:, None]


def ball_point(space, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Coordinates of one point with norm at most `scale` in the space."""
    return ball_rows(space, rng, (scale,))[0]


def sphere_point(space, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Coordinates of one point with norm exactly `scale` (up to rounding)."""
    dim = space.dim
    if dim == 0:
        return np.zeros(0, dtype=complex)
    while True:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        nv = space.norm(v)
        if nv > 0.0:
            return v * (scale / nv)


def sphere_rows(space, rng: np.random.Generator, count: int, scale: float = 1.0) -> np.ndarray:
    """[count, dim] coordinates of the points `count` sphere_point calls
    draw, in one draw.

    A point takes exactly 2 dim normals unless all of them are 0.0, so all
    points are drawn by one standard_normal call and scaled in sphere_point's
    expressions. When some row's norm is 0 the generator's state is restored
    and the points are drawn again one sphere_point call at a time.
    """
    dim = space.dim
    if dim == 0 or count == 0:
        return np.zeros((count, dim), dtype=complex)
    state = rng.bit_generator.state
    normals = rng.standard_normal((count, 2, dim))
    v = normals[:, 0] + 1j * normals[:, 1]
    norms = space.norms(v)
    if np.all(norms > 0.0):
        return v * (scale / norms)[:, None]
    rng.bit_generator.state = state
    return np.array([sphere_point(space, rng, scale) for _ in range(count)])


SCALE_GRID = (0.25, 1.0, 4.0, 16.0)


def ball_points(space, rng: np.random.Generator, count: int) -> np.ndarray:
    """[count, dim] ball points drawn in order, point k with radius
    SCALE_GRID[k % 4]."""
    return ball_rows(space, rng, np.resize(SCALE_GRID, count))
