"""Control functions and their doubling-series sums.

A control function assigns a nonnegative budget to every pair of algebra
elements. The quantity that actually bounds the distance between an
approximate map and its exact limit is the summed control

    (1/2) * sum_{n >= 0} 2^{-n} phi(2^n a, 2^n b),

which the power-norm family admits in closed form and which tabulated
controls approximate by a certified truncation. The remainder after n
doublings, the terms k >= n of the series at (a, a), certifies the
direct-method iteration stopped there; `doubling_tails` tabulates it for
every n at once and is the one place a remainder is computed. A power-norm
control gives each remainder in closed form, a tabulated one sums its
truncation table from the end and adds the geometric bound past it.

phi and the sums are evaluated on [N, dim] coordinate rows (`phi_rows`,
`summed_control_rows`, `doubling_tails`); a power-norm control reads the
row norms, any other control is called once per row. The element forms
`evaluate`, `summed_control` and `summed_control_tail` are their one-row
cases.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

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
        return float(self.at_norms(a.norm(), b.norm()))

    def at_norms(self, ta, tb, summed: bool = False):
        """phi at arguments with norms ta and tb, elementwise over arrays of
        norms; with summed, the doubling-series sum in closed form,
        alpha + beta (|a|^p + |b|^p) / (2 - 2^p).

        Each power is a Python float power: numpy's vectorized power rounds
        differently in the last bit.
        """
        if self.beta == 0.0:
            return np.full(np.broadcast_shapes(np.shape(ta), np.shape(tb)), self.alpha)
        pa = self.powers(ta)
        budget = self.beta * (pa + (pa if tb is ta else self.powers(tb)))
        if summed:
            budget = budget / (2.0 - 2.0**self.p)
        return self.alpha + budget

    def powers(self, t) -> np.ndarray:
        """t^p elementwise over an array of norms, with 0^p = 0."""
        t = np.asarray(t, dtype=float)
        return np.array([_signed_power(x, self.p) for x in t.ravel().tolist()]).reshape(t.shape)

    def to_dict(self) -> dict:
        if self.beta == 0.0:
            return {"kind": "constant", "alpha": self.alpha}
        return {"kind": "pnorm", "alpha": self.alpha, "beta": self.beta, "p": self.p}

    def __repr__(self):
        return f"PNormControl(alpha={self.alpha}, beta={self.beta}, p={self.p})"


def constant_control(alpha: float) -> PNormControl:
    """Constant budget: the power-norm family with beta = 0."""
    return PNormControl(alpha, 0.0, 0.0)


def _checked_value(value) -> float:
    """A callback's value if a finite nonnegative real but no bool, else ControlError."""
    if type(value) is float and 0.0 <= value < math.inf:
        return value  # nearly every callback: a finite nonnegative float
    real = type(value) is float or (  # float first, as the abstract check is slow
        not isinstance(value, bool) and isinstance(value, numbers.Real))
    if not real or not math.isfinite(value) or value < 0.0:
        raise ControlError(f"control callback returned invalid value {value!r}")
    return float(value)


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
        return _checked_value(self.func(a, b))

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


def phi_rows(phi: ControlFunction, space, a_rows, b_rows) -> np.ndarray:
    """phi(a_k, b_k) for the rows of two [N, dim] coordinate arrays.

    A power-norm control reads the row norms (PNormControl.at_norms); any
    other control is called once per row, in row order, in one loop that
    makes the elements over a read-only copy of the rows as it goes
    (`call_on_rows`). The loop calls a tabulated control's callback itself,
    any other control's `evaluate`, and passes each value through
    `_checked_value`, the rule `evaluate` applies. When b_rows is a_rows one
    element serves as both arguments.
    """
    b_rows = None if b_rows is a_rows else b_rows
    if isinstance(phi, PNormControl):
        ta = space.norms(a_rows)
        return phi.at_norms(ta, ta if b_rows is None else space.norms(b_rows))
    func = phi.func if isinstance(phi, TabulatedControl) else phi.evaluate
    return np.array(space.call_on_rows(func, a_rows, b_rows, check=_checked_value), dtype=float)


def _doubling_rows(rows) -> np.ndarray:
    """The scaled rows 2^k a for k < DEFAULT_TRUNCATION of each row a of an
    [N, dim] array, row after row: an [N * DEFAULT_TRUNCATION, dim] array.

    The real and imaginary parts are scaled apart, so every zero keeps its
    sign; a complex product with 2^k + 0j would turn a -0.0 imaginary part,
    or a -0.0 real part beside a negative imaginary one, into +0.0. Each
    part is multiplied by the double 2^k, which gives ldexp's bits, an
    overflow to inf included.
    """
    parts = np.ascontiguousarray(rows, dtype=complex).view(float)
    scaled = parts[:, None, :] * np.ldexp(1.0, np.arange(DEFAULT_TRUNCATION))[:, None]
    return scaled.view(complex).reshape(len(parts) * DEFAULT_TRUNCATION, parts.shape[1] // 2)


_TABLE_ROWS = 16  # rows whose DEFAULT_TRUNCATION scaled rows are held at once


def _tabulated_terms(phi: ControlFunction, space, a_rows, b_rows):
    """A tabulated control's truncation table at each pair of rows: the
    series terms (1/2) 2^{-k} phi(2^k a, 2^k b) for k < DEFAULT_TRUNCATION,
    an [N, DEFAULT_TRUNCATION] array, and the geometric bound on the terms
    k >= n, (1/2) G 2^{-n(1-q)} / (1 - 2^{q-1}) with G the row's largest
    phi / 2^(k q), as a function giving the [N, len(ns)] bounds for a list
    ns of n.

    The growth exponent is checked before the callback is first called;
    the callback is then called row after row (every k of a row before the
    next row), the scaled rows built for a few rows at a time.
    """
    if not isinstance(phi, TabulatedControl):
        raise ControlError(f"unsupported control type {type(phi).__name__}")
    q = phi.growth_exponent
    if q >= 1.0:
        raise ControlError("growth exponent q >= 1: the doubling series diverges")
    growth_steps = [2.0 ** (k * q) for k in range(DEFAULT_TRUNCATION)]
    if 0.0 in growth_steps:
        raise _tail_underflow(q)
    diagonal = b_rows is a_rows
    a_rows = np.asarray(a_rows)
    values = np.empty((len(a_rows), DEFAULT_TRUNCATION))
    for s in range(0, len(a_rows), _TABLE_ROWS):
        a = _doubling_rows(a_rows[s:s + _TABLE_ROWS])
        b = a if diagonal else _doubling_rows(b_rows[s:s + _TABLE_ROWS])
        values[s:s + _TABLE_ROWS] = phi_rows(phi, space, a, b).reshape(-1, DEFAULT_TRUNCATION)
    terms = np.ldexp(0.5, -np.arange(DEFAULT_TRUNCATION)) * values
    with np.errstate(over="ignore", invalid="ignore"):
        top = (values / growth_steps).max(axis=1)
    growth = np.where(top > 0.0, top, 0.0)  # max(0.0, m): -0.0 and nan give +0.0

    def bound(ns):
        steps = [2.0 ** (-n * (1.0 - q)) for n in ns]
        with np.errstate(over="ignore", invalid="ignore"):
            return (0.5 * growth)[:, None] * steps / (1.0 - 2.0 ** (q - 1.0))

    if not np.all(np.isfinite(bound([DEFAULT_TRUNCATION]))):
        # phi / 2^(k q) overflowed: an inf growth scale times a tail factor
        # that underflowed to 0 gives nan, which no bound check would flag
        raise _tail_underflow(q)
    return terms, bound


def summed_control_rows(phi: ControlFunction, space, a_rows, b_rows):
    """The doubling-series sum (1/2) sum 2^{-n} phi(2^n a, 2^n b) at each pair
    of rows: (values, tail bounds), the tail bounds None in closed form.

    Power-norm controls evaluate in closed form from the row norms;
    tabulated controls are summed to DEFAULT_TRUNCATION terms of their
    truncation table with math.fsum, the tail bound being the geometric
    bound past them.
    """
    diagonal = b_rows is a_rows
    if isinstance(phi, PNormControl):
        ta = space.norms(a_rows)
        return phi.at_norms(ta, ta if diagonal else space.norms(b_rows), summed=True), None
    terms, bound = _tabulated_terms(phi, space, a_rows, b_rows)
    return np.array([math.fsum(row) for row in terms.tolist()]), bound([DEFAULT_TRUNCATION])[:, 0]


def doubling_tails(phi: ControlFunction, space, rows, count: int) -> np.ndarray:
    """The remainder of the doubling series at (a, a) after n doublings,
    sum_{k >= n} (1/2) 2^{-k} phi(2^k a, 2^k a), for each row a of an
    [N, dim] array and each n <= count: an [N, count + 1] array whose
    column 0 is the summed control.

    A power-norm control alpha + beta (|a|^p + |b|^p) gives it in closed
    form, alpha 2^{-n} + beta |a|^p q^n / (1 - q) with q = 2^(p - 1) and
    0^p = 0: exactly alpha 2^{-n} when beta = 0. q is taken as 2^p / 2, so
    column 0 has the bits of the closed-form sum. A tabulated control sums
    the terms n <= k < DEFAULT_TRUNCATION of its truncation table from the
    end and adds the geometric bound on the terms k >= max(n,
    DEFAULT_TRUNCATION): no two large numbers are subtracted, and the
    callback is called DEFAULT_TRUNCATION times per row whatever count is.
    Every term is >= 0, so no row increases with n.
    """
    n = np.arange(count + 1)
    if isinstance(phi, PNormControl):
        q = 2.0**phi.p / 2.0
        scale = phi.beta * phi.powers(space.norms(rows))
        return (np.ldexp(phi.alpha, -n)
                + scale[:, None] * [q**k for k in n.tolist()] / (1.0 - q))
    terms, bound = _tabulated_terms(phi, space, rows, rows)
    suffix = np.zeros((len(terms), max(count, DEFAULT_TRUNCATION) + 1))
    suffix[:, :DEFAULT_TRUNCATION] = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    return suffix[:, :count + 1] + bound(np.maximum(n, DEFAULT_TRUNCATION).tolist())


def _tail_underflow(q: float) -> ControlError:
    return ControlError(f"growth exponent {q} is too negative for the tail bound: "
                        f"2^(n q) underflows over {DEFAULT_TRUNCATION} terms")


def summed_control(phi: ControlFunction, a, b) -> ControlSum:
    """The summed control at one pair of elements: the one-row case of
    summed_control_rows."""
    rows = a.coords[None]
    values, tails = summed_control_rows(phi, a.space, rows, rows if b is a else b.coords[None])
    if tails is None:
        return ControlSum(float(values[0]), None, 0.0)
    return ControlSum(float(values[0]), DEFAULT_TRUNCATION, float(tails[0]))


def summed_control_tail(phi: ControlFunction, a, n: int) -> float:
    """The remainder of the doubling series at (a, a) after n doublings: the
    one-row case of doubling_tails."""
    n = max(int(n), 0)
    return float(doubling_tails(phi, a.space, a.coords[None], n)[0, n])
