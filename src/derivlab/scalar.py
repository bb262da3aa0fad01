"""Unit-circle scalar machinery.

Any complex number of modulus at most 3 is a sum of three unimodular
scalars. Combined with additivity, this upgrades a map that commutes with
unit-circle scalars to a fully complex-linear one; the certificate below
replays that argument numerically for a given matrix.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, LinearMap

RADIUS_SLACK = 1e-12


def unit_circle_grid(count: int = 64) -> np.ndarray:
    """count-th roots of unity, the default unimodular sampling grid."""
    k = np.arange(count)
    return np.exp(2j * np.pi * k / count)


@dataclass(frozen=True)
class UnimodularTriple:
    theta1: complex
    theta2: complex
    theta3: complex

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.theta1, self.theta2, self.theta3)

    @property
    def total(self) -> complex:
        return self.theta1 + self.theta2 + self.theta3


def three_unimodular(w) -> UnimodularTriple:
    """Write w (|w| <= 3) as a sum of three unit-modulus scalars.

    Deterministic rule: theta3 = w/|w| when |w| >= 1, else theta3 = 1; the
    remainder u = (w - theta3)/2 then satisfies |u| <= 1 and splits as
    theta1 + theta2 = 2u with theta_{1,2} = exp(i(arg u +- arccos|u|)),
    falling back to (i, -i) when u = 0. The branch at |w| < 1 avoids
    arg(0) and keeps golden outputs stable.
    """
    w = complex(w)
    r = abs(w)
    if r > 3.0 + RADIUS_SLACK:
        raise ValueError(f"|w| = {r:.6g} exceeds 3; no three-unimodular sum exists")
    theta3 = w / r if r >= 1.0 else complex(1.0)
    u = (w - theta3) / 2.0
    mu = abs(u)
    if mu == 0.0:
        theta1, theta2 = 1j, -1j
    else:
        phase = math.atan2(u.imag, u.real)
        spread = math.acos(min(mu, 1.0))
        theta1 = cmath.exp(1j * (phase + spread))
        theta2 = cmath.exp(1j * (phase - spread))
    return UnimodularTriple(theta1, theta2, theta3)


def scalar_homogeneity_certificate(d: LinearMap, gamma, a: AlgebraElement) -> float:
    """Distance between the three-unimodular reconstruction and gamma * d(a).

    With M the smallest integer exceeding 4|gamma|, the scalar 3 gamma / M
    has modulus below 3/4 and splits into three unimodulars; additivity of
    a matrix then forces (M/3) (d(t1 a) + d(t2 a) + d(t3 a)) = gamma d(a).
    The returned distance is the numerical defect of that chain.
    """
    gamma = complex(gamma)
    m_steps = math.floor(4.0 * abs(gamma)) + 1
    triple = three_unimodular(3.0 * gamma / m_steps)
    images = d.apply_rows(np.array(triple.as_tuple())[:, None] * a.coords)
    reconstructed = (m_steps / 3.0) * (images[0] + images[1] + images[2])
    return d.codomain.norm(reconstructed - gamma * d.apply_coords(a.coords))
