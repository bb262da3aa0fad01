"""Control functions and their doubling-series sums.

A control function assigns a nonnegative budget to every pair of algebra
elements. The quantity that actually bounds the distance between an
approximate map and its exact limit is the summed control

    (1/2) * sum_{n >= 0} 2^{-n} phi(2^n a, 2^n b),

which the power-norm family admits in closed form and which tabulated
controls approximate by a certified truncation.
`ControlTail` streams the remainder after n doublings along one orbit: one
pass over phi certifies the whole direct-method iteration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .encoding import document_field, document_number
from .errors import ControlError

DEFAULT_TRUNCATION = 64


def _signed_power(t: float, p: float) -> float:
    # convention: 0^p = 0 for every p, so phi(0, 0) = alpha for all exponents
    return 0.0 if t == 0.0 else t**p


class ControlFunction:
    """Base class: a nonnegative function of two normed elements."""

    kind = "abstract"

    def evaluate(self, a, b) -> float:
        raise NotImplementedError

    __call__ = evaluate

    def to_dict(self) -> dict:
        raise NotImplementedError


class PNormControl(ControlFunction):
    """alpha + beta * (|a|^p + |b|^p) with p < 1.

    The exponent restriction keeps the doubling series finite; at p = 1 the
    closed-form denominator 2 - 2^p vanishes and the series diverges.
    """

    def __init__(self, alpha: float, beta: float, p: float):
        if not (math.isfinite(alpha) and alpha >= 0.0):
            raise ControlError("alpha must be finite and nonnegative")
        if not (math.isfinite(beta) and beta >= 0.0):
            raise ControlError("beta must be finite and nonnegative")
        if not (math.isfinite(p) and p < 1.0):
            raise ControlError("exponent must satisfy p < 1 for the sum to converge")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.p = float(p)

    @property
    def kind(self) -> str:
        return "constant" if self.beta == 0.0 else "pnorm"

    def evaluate(self, a, b) -> float:
        if self.beta == 0.0:
            return self.alpha
        return self.alpha + self.beta * (
            _signed_power(a.norm(), self.p) + _signed_power(b.norm(), self.p)
        )

    def to_dict(self) -> dict:
        if self.beta == 0.0:
            return {"kind": "constant", "alpha": self.alpha}
        return {"kind": "pnorm", "alpha": self.alpha, "beta": self.beta, "p": self.p}

    def __repr__(self):
        return f"PNormControl(alpha={self.alpha}, beta={self.beta}, p={self.p})"


def constant_control(alpha: float) -> PNormControl:
    """Constant budget: the power-norm family with beta = 0."""
    return PNormControl(alpha, 0.0, 0.0)


class TabulatedControl(ControlFunction):
    """Black-box control with a user-asserted growth exponent.

    The callback must return a finite nonnegative float. The asserted
    exponent q < 1 promises phi(2a, 2b) <= 2^q phi(a, b), which is what
    makes a geometric tail bound for the truncated sum possible; without
    it the truncation would be unquantified and is rejected.
    """

    kind = "tabulated"

    def __init__(self, func, growth_exponent: float):
        if not (math.isfinite(growth_exponent) and growth_exponent < 1.0):
            raise ControlError(
                "tabulated control needs a growth exponent q < 1; "
                "the doubling series diverges otherwise"
            )
        self.func = func
        self.growth_exponent = float(growth_exponent)

    def evaluate(self, a, b) -> float:
        value = self.func(a, b)
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0.0:
            raise ControlError(f"control callback returned invalid value {value!r}")
        return float(value)

    def to_dict(self) -> dict:
        raise ControlError("tabulated controls are not serializable")


@dataclass(frozen=True)
class ControlSum:
    """Value of the summed control together with its truncation certificate.

    truncation_n is None for closed-form evaluations (tail_bound 0), else
    the number of series terms actually summed.
    """

    value: float
    truncation_n: int | None
    tail_bound: float

    @property
    def closed_form(self) -> bool:
        return self.truncation_n is None

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "truncation": "closed-form" if self.closed_form else self.truncation_n,
            "tail_bound": self.tail_bound,
        }


def control_from_dict(doc: dict) -> ControlFunction:
    kind = document_field(doc, "kind", ControlError, "control document")
    what = f"{kind} control document"
    if kind == "constant":
        return constant_control(document_number(doc, "alpha", ControlError, what))
    if kind == "pnorm":
        return PNormControl(*(document_number(doc, key, ControlError, what)
                              for key in ("alpha", "beta", "p")))
    raise ControlError(f"unknown control kind {kind!r}")


def pnorm_sum(phi: PNormControl, norm_a: float, norm_b: float) -> float:
    """The summed power-norm control at arguments with these norms, in
    closed form: alpha + beta (|a|^p + |b|^p) / (2 - 2^p)."""
    if phi.beta == 0.0:
        return phi.alpha
    s = _signed_power(norm_a, phi.p) + _signed_power(norm_b, phi.p)
    return phi.alpha + phi.beta * s / (2.0 - 2.0**phi.p)


def summed_control(phi: ControlFunction, a, b) -> ControlSum:
    """The doubling-series sum (1/2) sum 2^{-n} phi(2^n a, 2^n b).

    Power-norm controls evaluate in closed form (pnorm_sum); tabulated
    controls are summed to DEFAULT_TRUNCATION terms with a geometric tail
    bound from the asserted growth exponent. When b is a, each term passes
    one scaled element as both arguments.
    """
    if isinstance(phi, PNormControl):
        return ControlSum(pnorm_sum(phi, a.norm(), b.norm()), None, 0.0)
    if not isinstance(phi, TabulatedControl):
        raise ControlError(f"unsupported control type {type(phi).__name__}")
    q = phi.growth_exponent
    if q >= 1.0:
        raise ControlError("growth exponent q >= 1: the doubling series diverges")
    partials = []
    growth_scale = 0.0
    for n in range(DEFAULT_TRUNCATION):
        point = 2.0**n * a
        value = phi.evaluate(point, point if b is a else 2.0**n * b)
        partials.append(0.5 * 2.0**-n * value)
        growth_scale = max(growth_scale, value / 2.0 ** (n * q))
    tail = (0.5 * growth_scale * 2.0 ** (-DEFAULT_TRUNCATION * (1.0 - q))
            / (1.0 - 2.0 ** (q - 1.0)))
    return ControlSum(math.fsum(partials), DEFAULT_TRUNCATION, tail)


def _diagonal_term(phi: ControlFunction, a, k: int) -> float:
    # both arguments are 2^k a: one element serves both, and the k = 0 term
    # is a itself, so the streamed tail builds one element per doubling
    point = a if k == 0 else 2.0**k * a
    return 0.5 * 2.0**-k * phi.evaluate(point, point)


def partial_sum_bound(phi: ControlFunction, a, n: int) -> float:
    """(1/2) sum_{k=0}^{n-1} 2^{-k} phi(2^k a, 2^k a).

    Monotone nondecreasing in n and converging to the summed control at
    (a, a); this is the a-priori error certificate for stopping the
    direct-method iteration after n doublings.
    """
    n = int(n)
    if n < 1:
        raise ControlError("partial sum needs n >= 1")
    return math.fsum(_diagonal_term(phi, a, k) for k in range(n))


class ControlTail:
    """Remainder of the doubling series at (a, a) after n terms, for growing n.

    The summed control is evaluated once and each partial-sum term once;
    every read is an fsum of the same terms as partial_sum_bound.
    """

    def __init__(self, phi: ControlFunction, a):
        self.phi = phi
        self.a = a
        self.upper = summed_control(phi, a, a).upper
        self._terms: list[float] = []

    def after(self, n: int) -> float:
        """Upper bound on the series remainder after the first n terms."""
        n = int(n)
        if n <= 0:
            return self.upper
        while len(self._terms) < n:
            self._terms.append(_diagonal_term(self.phi, self.a, len(self._terms)))
        return max(self.upper - math.fsum(self._terms[:n]), 0.0)


def summed_control_tail(phi: ControlFunction, a, n: int) -> float:
    """Upper bound on the series remainder after the first n terms at (a, a)."""
    return ControlTail(phi, a).after(n)
