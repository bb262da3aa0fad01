"""Deterministic seeded sampling.

All randomness in the package flows through counter-based Philox streams
keyed by hashes of (seed, label) tuples, so identical seeds reproduce
identical draws bit for bit regardless of call order, platform or thread
schedule.
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


def hashed_unit_floats(payload: bytes, count: int) -> np.ndarray:
    """Expand a byte payload into `count` floats in [0, 1).

    Pure hash expansion (blake2b with a block counter), used where a value
    must be a deterministic function of its input bytes rather than of a
    stream position.
    """
    out = np.empty(count, dtype=float)
    filled = 0
    block = 0
    while filled < count:
        take = min(count - filled, 8)
        digest = hashlib.blake2b(
            payload + block.to_bytes(4, "little"), digest_size=8 * take
        ).digest()
        words = np.frombuffer(digest, dtype="<u8")
        out[filled : filled + take] = words / 2.0**64
        filled += take
        block += 1
    return out


def ball_point(space, rng: np.random.Generator, scale: float) -> np.ndarray:
    """Coordinates of one point with norm at most `scale` in the space."""
    dim = space.dim
    if dim == 0:
        return np.zeros(0, dtype=complex)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    nv = space.norm(v)
    if nv == 0.0:
        return np.zeros(dim, dtype=complex)
    return v * (scale * rng.uniform() / nv)


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


SCALE_GRID = (0.25, 1.0, 4.0, 16.0)


def ball_points(space, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """`count` ball points drawn in order, point k with radius SCALE_GRID[k % 4]."""
    return [ball_point(space, rng, SCALE_GRID[k % len(SCALE_GRID)]) for k in range(count)]
