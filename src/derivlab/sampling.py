"""Deterministic seeded sampling.

All randomness in the package flows through counter-based Philox streams
keyed by hashes of (seed, label) tuples, so identical seeds reproduce
identical draws bit for bit regardless of call order, platform or thread
schedule.

Sampling works on [N, dim] coordinate rows. `ball_rows` draws each row's
normals and radius fraction in stream order, one row after another: the
ziggurat normal sampler consumes a variable number of stream words, so
drawing the whole block at once would change every point after the
first. The norms and the scaling then run on all rows at once.
`sphere_rows` draws the normals of all its points in one call, as a
sphere point draws nothing between them. `hashed_unit_rows` keys one hash
stream per row. `ball_point`, `ball_points` and `hashed_unit_floats` are
their one-row and fixed-radius cases.
"""
from __future__ import annotations

import hashlib

import numpy as np


def philox_key(seed: int, *labels) -> int:
    """128-bit Philox key derived from a seed and a sequence of labels."""
    payload = repr((int(seed),) + tuple(labels)).encode()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return int.from_bytes(digest, "little")


def generator(seed: int, *labels) -> np.random.Generator:
    """Independent generator for one named purpose under one seed."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *labels)))


def hashed_unit_rows(prefix: bytes, rows, count: int) -> np.ndarray:
    """Expand `prefix` + the bytes of each row of `rows` into `count` floats
    in [0, 1): an [N, count] array.

    Pure hash expansion (blake2b with a block counter), used where a value
    must be a deterministic function of its input bytes rather than of a
    stream position. Each block of up to 8 floats is one digest per row.
    """
    rows = np.asarray(rows)
    data, width = rows.tobytes(), rows[0].nbytes if len(rows) else 0
    payloads = [prefix + data[k * width : (k + 1) * width] for k in range(len(rows))]
    out = np.empty((len(rows), count), dtype=float)
    for block, start in enumerate(range(0, count, 8)):
        take = min(count - start, 8)
        suffix = block.to_bytes(4, "little")
        digests = b"".join([hashlib.blake2b(payload + suffix, digest_size=8 * take).digest()
                            for payload in payloads])
        words = np.frombuffer(digests, dtype="<u8").reshape(len(rows), take)
        out[:, start : start + take] = words / 2.0**64
    return out


def hashed_unit_floats(payload: bytes, count: int) -> np.ndarray:
    """`count` floats in [0, 1) from one byte payload: the one-row case of
    hashed_unit_rows."""
    return hashed_unit_rows(payload, np.empty((1, 0)), count)[0]


def ball_rows(space, rng: np.random.Generator, radii) -> np.ndarray:
    """[N, dim] coordinates of N points, point k with norm at most radii[k].

    Each point draws, in stream order, dim real and dim imaginary standard
    normals (one call of 2 dim normals is the same stream as two calls of
    dim) and then, unless they are all zero, one uniform fraction of its
    radius (`random()`, the same draw as `uniform()`). The rows are then
    scaled to their radii at once; a zero row stays zero.
    """
    radii = np.asarray(radii, dtype=float).reshape(-1)
    count, dim = len(radii), space.dim
    if dim == 0 or count == 0:
        return np.zeros((count, dim), dtype=complex)
    normals = np.empty((count, 2, dim))
    fractions = np.zeros(count)
    for k in range(count):
        draws = normals[k]
        rng.standard_normal(out=draws)
        if draws[0, 0] != 0.0 or draws.any():  # the first test settles nearly every row
            fractions[k] = rng.random()
    v = normals[:, 0] + 1j * normals[:, 1]
    norms = space.norms(v)
    out = np.zeros((count, dim), dtype=complex)
    hit = norms > 0.0
    out[hit] = v[hit] * (radii[hit] * fractions[hit] / norms[hit])[:, None]
    return out


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
    return ball_rows(space, rng, [SCALE_GRID[k % len(SCALE_GRID)] for k in range(count)])
