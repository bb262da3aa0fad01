"""Builtin algebra fixtures addressable by name.

Registry grammar: "matrix:n" (full n-by-n matrix algebra, n <= 12),
"dual-numbers" (the plane with one nilpotent direction),
"upper-triangular:n" (upper-triangular n-by-n matrices, n <= 12), and
"zero-product:n" (n dimensions, every product zero, n <= 64). All carry exact
small-integer structure constants, so structural certifications hold with
wide margins.
"""
from __future__ import annotations

from functools import cache

import numpy as np

from .algebra import FiniteAlgebra, _matrix_unit_algebra, make_algebra, make_matrix_algebra


def make_dual_numbers() -> FiniteAlgebra:
    """Two dimensions: a unit and a square-zero direction."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = 1.0  # e0 e0 = e0
    c[0, 1, 1] = 1.0  # e0 e1 = e1
    c[1, 0, 1] = 1.0  # e1 e0 = e1
    # e1 e1 = 0
    return make_algebra(c, unit_index=0)


def make_upper_triangular(n: int) -> FiniteAlgebra:
    """Upper-triangular n-by-n matrices in the matrix-unit basis.
    1 <= n <= 12."""
    if not 1 <= n <= 12:
        raise ValueError("upper-triangular size must satisfy 1 <= n <= 12")
    return _matrix_unit_algebra(n, [(i, j) for i in range(n) for j in range(i, n)])


def make_zero_product(n: int) -> FiniteAlgebra:
    """n dimensions with every product zero (both annihilators full).
    1 <= n <= 64."""
    if not 1 <= n <= 64:
        raise ValueError("zero-product dimension must satisfy 1 <= n <= 64")
    return make_algebra(np.zeros((n, n, n), dtype=complex))


@cache
def get_algebra(name: str) -> FiniteAlgebra:
    """Resolve a registry name to a certified algebra, built and certified
    once per name: the algebra's arrays are read-only and its generators are
    computed once, so every caller can share it."""
    if name == "dual-numbers":
        return make_dual_numbers()
    if ":" in name:
        kind, _, arg = name.partition(":")
        try:
            size = int(arg)
        except ValueError:
            raise ValueError(f"bad fixture size in {name!r}") from None
        if kind == "matrix":
            return make_matrix_algebra(size)
        if kind == "upper-triangular":
            return make_upper_triangular(size)
        if kind == "zero-product":
            return make_zero_product(size)
    raise ValueError(
        f"unknown fixture {name!r}; expected one of matrix:n, dual-numbers, "
        "upper-triangular:n, zero-product:n"
    )


FIXTURE_NAMES = ("matrix:n", "dual-numbers", "upper-triangular:n", "zero-product:n")
