"""Direct-method extraction of exact linear maps from approximate ones.

The engine iterates s_n = f(2^n a) / 2^n on each basis vector until the
step delta or the a-priori series tail certifies the remaining error, then
assembles the limits into a matrix. Bounded defects vanish under the
doubling, so the assembled map is the exact additive limit of f, and the
distance |f(a) - d(a)| is bounded by the summed control at (a, a).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LinearMap, _CoordinateSpace, _SpaceElement, record_dict
from .control import ControlFunction, doubling_tails, summed_control_rows
from .derivation import DerivationTriple, leibniz_residual
from .encoding import encode_complex
from .errors import ConstructionError, ConvergenceError, PreconditionError, SpaceMismatchError
from .sampling import ball_points, ball_rows, generator
from .scalar import unit_circle_grid

DEFAULT_MAX_DOUBLINGS = 48
DEFAULT_TOL = 1e-10
BOUND_SAMPLES = 32  # extraction's recorded (point, |f(a) - d(a)|, summed control) triples
ADDITIVITY_PAIRS = 8  # random pairs whose pointwise limits must be additive
LEIBNIZ_SAMPLES = 64  # unit-ball pairs the extracted triple's product rule is checked on
LEIBNIZ_TOL = 1e-9
STABILITY_SLACK = 1e-12  # violations of the stability bound count beyond this gap

LAMBDA_FULL = "full"
LAMBDA_ONE_I = "one-i"


def lambda_grid(mode: str) -> np.ndarray:
    """Unimodular scalars for hypothesis sampling: the full unit-circle grid,
    or the two-point grid {1, i}.

    The restricted grid suffices for span-generated algebras: real
    linearity plus compatibility at i already force complex linearity of
    the limit. Extraction itself never changes (it only uses lambda = 1).
    """
    if mode == LAMBDA_ONE_I:
        return np.array([1.0 + 0j, 1j])
    if mode == LAMBDA_FULL:
        return unit_circle_grid(64)
    raise ValueError(f"unknown lambda mode {mode!r}")


def _checked(out, shape) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise ConstructionError("map value contains non-finite entries")
    if np.shape(out) != shape:
        raise SpaceMismatchError(f"map value shape {np.shape(out)} does not match {shape}")
    return out


class PointMap:
    """Black-box evaluable map between coordinate spaces, fixing 0.

    A map has one evaluation path, `eval_rows`, from [N, n] domain
    coordinate rows to [N, m] codomain rows; no element objects are built on
    the way. `PointMap(func, domain, codomain)` wraps a function of one
    coordinate array and loops it over the rows; `from_rows` wraps a
    function of all rows at once, which must give each row the bits the
    one-row call gives it. Every result is checked: a non-finite entry
    raises ConstructionError and a wrong shape SpaceMismatchError. The zero
    condition is checked once at construction. `eval_coords` is the one-row
    case and `eval`/`__call__` the element facade.
    """

    __slots__ = ("_rows", "domain", "codomain")

    def __init__(self, func, domain: _CoordinateSpace, codomain: _CoordinateSpace):
        shape = (codomain.dim,)

        def looped(rows):
            out = np.empty((len(rows), codomain.dim), dtype=complex)
            for k, coords in enumerate(rows):
                out[k] = _checked(func(coords), shape)
            return out

        self._bind(looped, domain, codomain)

    @classmethod
    def from_rows(cls, rows, domain: _CoordinateSpace,
                  codomain: _CoordinateSpace) -> "PointMap":
        """A map given by a function of [N, n] coordinate rows."""
        pmap = cls.__new__(cls)
        pmap._bind(rows, domain, codomain)
        return pmap

    @classmethod
    def from_linear_map(cls, lin: LinearMap) -> "PointMap":
        return cls.from_rows(lin.apply_rows, lin.domain, lin.codomain)

    def _bind(self, rows, domain, codomain) -> None:
        self._rows = rows
        self.domain = domain
        self.codomain = codomain
        out = self.eval_rows(np.zeros((1, domain.dim), dtype=complex))
        if not np.all(out == 0.0):
            raise PreconditionError("map does not fix 0 exactly")

    def eval_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=complex)
        return _checked(self._rows(rows), (len(rows), self.codomain.dim))

    def eval_coords(self, coords) -> np.ndarray:
        return self.eval_rows(np.asarray(coords, dtype=complex)[None])[0]

    def eval(self, elt: _SpaceElement) -> _SpaceElement:
        return self.codomain.element(self.eval_coords(elt.coords))

    __call__ = eval


def sampled_envelope(pmap: PointMap, limit: LinearMap, points,
                     phi: ControlFunction | None = None):
    """Arrays of |f(a) - d(a)| and, when phi is given, of the summed control
    at (a, a) over the caller's points (None without phi). Callers draw the
    points and keep their own reduction. All points are evaluated at once;
    the control is the closed-form value or the truncated sum plus its tail
    bound (summed_control_rows).
    """
    rows = np.asarray(points, dtype=complex).reshape(len(points), pmap.domain.dim)
    deviations = pmap.codomain.norms(pmap.eval_rows(rows) - limit.apply_rows(rows))
    if phi is None:
        return deviations, None
    values, tails = summed_control_rows(phi, pmap.domain, rows, rows)
    return deviations, values if tails is None else values + tails


@dataclass
class ExtractionReport:
    """Limit map plus per-basis convergence diagnostics and bound samples:
    the sampled points [N, n], |f(a) - d(a)| at them [N] (bound_lhs) and
    the summed control at (a, a) [N] (bound_rhs)."""

    limit: LinearMap
    per_basis_iterations: list[int]
    per_basis_final_delta: list[float]
    per_basis_tail_bound: list[float]
    bound_points: np.ndarray
    bound_lhs: np.ndarray
    bound_rhs: np.ndarray
    bound_ok: bool

    def to_dict(self) -> dict:
        return {
            "matrix": encode_complex(self.limit.matrix),
            "per_basis_iterations": list(self.per_basis_iterations),
            "per_basis_final_delta": list(self.per_basis_final_delta),
            "per_basis_tail_bound": list(self.per_basis_tail_bound),
            "bound_check": [{"point": p, "lhs": l, "rhs": r} for p, l, r in zip(
                encode_complex(self.bound_points), self.bound_lhs.tolist(),
                self.bound_rhs.tolist())],
            "bound_ok": self.bound_ok,
        }


def _not_converged(max_n: int, delta: float, tail: float) -> ConvergenceError:
    return ConvergenceError(
        f"doubling iteration did not converge in {max_n} steps "
        f"(delta={delta:.3e}, tail={tail:.3e})",
        diagnostics={"iterations": max_n, "delta": float(delta), "tail": float(tail)},
    )


def _pointwise_limits(pmap: PointMap, rows: np.ndarray, phi: ControlFunction,
                      max_n: int, tol: float):
    """Iterate the doubling sequence L_n = f(2^n a) / 2^n at every row at once.

    Returns arrays (limits, iterations, final deltas, certified tails,
    converged). Each row stops at the first n that meets one of two rules:
    the a-priori series tail at or below tol, which for a controlled map
    rigorously bounds the distance to the limit, or a step delta
    |L_n - L_{n-1}| of exactly zero (a map that is linear along the doubling
    orbit is its own limit after one step). A small but nonzero delta proves
    nothing, since the defect magnitude fluctuates, so it never stops a row
    by itself. A row that reaches max_n unconverged keeps its last delta and
    tail.

    The tail after n doublings is column n of the control's doubling_tails
    table, built once for all rows before f is first evaluated: a row's tail
    stop is its first column n >= 1 at or below tol, else max_n, and its
    final tail is read at its stop. A row whose first delta is zero stops at
    n = 1: every row of a linear map's extraction is one.

    f is evaluated in three calls: at the rows, at the rows doubled once,
    and at every orbit point 2^n a with 2 <= n <= tail stop of the rows
    whose first delta is not zero, one orbit after another. A row may thus
    be evaluated past its first zero delta; those values are checked like
    every other and never read. Each row's stop, its first zero delta
    before its tail stop or else the tail stop, is picked on all orbits at
    once.
    """
    count = len(rows)
    table = doubling_tails(phi, pmap.domain, rows, max(max_n, 0))
    limits = pmap.eval_rows(rows)
    if max_n < 1:
        return (limits, np.full(count, max_n), np.full(count, np.inf), table[:, 0],
                np.zeros(count, dtype=bool))
    once = pmap.eval_rows(2.0 * rows) / 2.0
    # the last n each row may need: 1 after a zero first delta, else its tail stop
    certified = table[:, 1:] <= tol
    stops = np.where(certified.any(axis=1), certified.argmax(axis=1) + 1, max_n)
    stops[pmap.codomain.norms(once - limits) == 0.0] = 1
    # L_n for 1 <= n <= stop, one row's orbit after another, and L_{n-1}
    starts = np.cumsum(stops) - stops
    owner = np.repeat(np.arange(count), stops)
    orbit_n = np.arange(len(owner)) - np.repeat(starts, stops) + 1
    later = np.flatnonzero(orbit_n > 1)
    path = np.empty((len(owner), pmap.codomain.dim), dtype=complex)
    path[starts] = once
    if len(later):
        scale = np.ldexp(1.0, orbit_n[later])[:, None]
        path[later] = pmap.eval_rows(scale * rows[owner[later]]) / scale
    previous = np.empty_like(path)
    previous[starts] = limits
    previous[later] = path[later - 1]
    steps = pmap.codomain.norms(path - previous)
    # each row ends at its first zero step before its stop, else at its stop
    ends = starts + stops - 1
    zero = np.flatnonzero((steps == 0.0) & (orbit_n < stops[owner]))
    np.minimum.at(ends, owner[zero], zero)
    iterations = orbit_n[ends]
    deltas = steps[ends]
    tails = table[np.arange(count), iterations]
    return path[ends], iterations, deltas, tails, (tails <= tol) | (deltas == 0.0)


def extract_additive(pmap: PointMap, phi: ControlFunction,
                     max_n: int = DEFAULT_MAX_DOUBLINGS, tol: float = DEFAULT_TOL,
                     *, seed: int = 0) -> ExtractionReport:
    """Extract the exact additive limit of an approximately additive map.

    Runs the doubling iteration on every basis vector of the domain and
    assembles the limits into a matrix. The stopping rule accepts the
    a-priori series-tail certificate at tol (rigorous for controlled maps)
    or an exactly-zero step delta (exact fixpoints stop after one step);
    if neither is reached within max_n doublings the extraction fails with
    diagnostics.

    Afterwards the limit is cross-checked: pointwise limits at random pairs
    must be additive and agree with the matrix to 10 * tol (this guards
    against inputs whose defect is not actually controlled), and sampled
    points are recorded as (point, |f(a) - d(a)|, summed control) triples.
    The pairs are drawn first, and the basis orbits and the orbits of
    a, b and a + b for each pair run in one doubling loop. The checks run
    on all rows at once and raise the error a row-by-row reading meets
    first: an unconverged basis row, then per pair an unconverged a, b or
    a + b, non-additive limits, or a limit off the matrix.
    """
    domain, codomain = pmap.domain, pmap.codomain
    n_dim = domain.dim
    drawn = ball_rows(domain, generator(seed, "extract-additivity"), np.ones(2 * ADDITIVITY_PAIRS))
    a, b = drawn[0::2], drawn[1::2]
    pairs = np.stack([a, b, a + b], axis=1).reshape(3 * ADDITIVITY_PAIRS, n_dim)
    rows = np.vstack([np.eye(n_dim, dtype=complex), pairs])
    limits, iterations, deltas, tails, converged = _pointwise_limits(
        pmap, rows, phi, max_n, tol)
    unconverged = np.flatnonzero(~converged[:n_dim])
    if len(unconverged):
        raise _not_converged(max_n, deltas[unconverged[0]], tails[unconverged[0]])
    limit_map = LinearMap(np.ascontiguousarray(limits[:n_dim].T), domain, codomain)

    # per pair, in the order they are read: a, b and a + b converge, their
    # limits are additive, and a's limit is the matrix's
    la, lb, lab = limits[n_dim::3], limits[n_dim + 1::3], limits[n_dim + 2::3]
    failed = np.column_stack([
        ~converged[n_dim:].reshape(ADDITIVITY_PAIRS, 3),
        codomain.norms(lab - la - lb) > 10.0 * tol,
        codomain.norms(la - limit_map.apply_rows(pairs[0::3])) > 10.0 * tol,
    ]).ravel()
    if failed.any():
        pair, check = divmod(int(np.argmax(failed)), 5)
        if check < 3:
            r = n_dim + 3 * pair + check
            raise _not_converged(max_n, deltas[r], tails[r])
        if check == 3:
            raise ConvergenceError(
                "pointwise limits are not additive; the defect of the input "
                "map is not controlled by the declared control function"
            )
        raise ConvergenceError("pointwise limit disagrees with the assembled matrix")

    points = ball_points(domain, generator(seed, "extract-bound"), BOUND_SAMPLES)
    lhs, rhs = sampled_envelope(pmap, limit_map, points, phi)
    bound_ok = not np.any(lhs > rhs + 1e-9 * (1.0 + rhs))
    return ExtractionReport(limit_map, iterations[:n_dim].tolist(), deltas[:n_dim].tolist(),
                            tails[:n_dim].tolist(), points, lhs, rhs, bound_ok)


@dataclass
class TripleExtraction:
    """Limits of an approximate derivation and its two endomorphism candidates."""

    d: ExtractionReport
    sigma: ExtractionReport
    tau: ExtractionReport
    leibniz_max: float
    leibniz_samples: int

    def to_dict(self) -> dict:
        """The report; when tau's extraction is sigma's, its part is one
        dict under both keys."""
        sigma = self.sigma.to_dict()
        return {
            "d": self.d.to_dict(),
            "sigma": sigma,
            "tau": sigma if self.tau is self.sigma else self.tau.to_dict(),
            "leibniz_max": self.leibniz_max,
            "leibniz_samples": self.leibniz_samples,
        }


def extract_triple(approx_d: PointMap, approx_sigma: PointMap, approx_tau: PointMap,
                   phi: ControlFunction, max_n: int = DEFAULT_MAX_DOUBLINGS,
                   tol: float = DEFAULT_TOL, *, seed: int = 0) -> TripleExtraction:
    """Extract (d, sigma, tau) limits and verify the product rule they inherit.

    The three extractions are independent. When approx_tau is approx_sigma,
    tau's report is sigma's: an extraction is a function of the map, phi,
    max_n, tol and seed, so a second one would give the same report (and
    call a tabulated control's callback again for each of its queries).
    Afterwards the twisted product rule d(ab) = d(a).sigma(b) + tau(a).d(b)
    is sampled on LEIBNIZ_SAMPLES unit-ball pairs and must hold to
    LEIBNIZ_TOL, which is what the doubling of the product defect
    guarantees for controlled inputs.
    """
    d_report = extract_additive(approx_d, phi, max_n, tol, seed=seed)
    sigma_report = extract_additive(approx_sigma, phi, max_n, tol, seed=seed)
    tau_report = sigma_report if approx_tau is approx_sigma else extract_additive(
        approx_tau, phi, max_n, tol, seed=seed)

    triple = DerivationTriple(d_report.limit, sigma_report.limit, tau_report.limit)
    domain = approx_d.domain
    drawn = ball_rows(domain, generator(seed, "triple-leibniz"), np.ones(2 * LEIBNIZ_SAMPLES))
    residuals = leibniz_residual(triple, drawn[0::2], drawn[1::2])
    worst = float(np.max(residuals, initial=0.0))
    if worst > LEIBNIZ_TOL:
        raise ConvergenceError(
            f"extracted triple violates the product rule (residual {worst:.3e} "
            f"> {LEIBNIZ_TOL:.1e})",
            diagnostics={"leibniz_max": worst},
        )
    return TripleExtraction(d_report, sigma_report, tau_report, worst, LEIBNIZ_SAMPLES)


@dataclass
class StabilityReport:
    """Sampled comparison of |f(a) - d(a)| against the summed control."""

    samples: int
    max_violation: float
    num_violations: int
    worst_lhs: float
    worst_rhs: float
    worst_point: np.ndarray
    slack: float

    @property
    def satisfied(self) -> bool:
        return self.num_violations == 0

    to_dict = record_dict


def verify_stability_bound(pmap: PointMap, limit: LinearMap, phi: ControlFunction,
                           samples: int = 1000, seed: int = 0) -> StabilityReport:
    """Check |f(a) - d(a)| <= summed control at (a, a) on seeded samples.

    Violations beyond STABILITY_SLACK are counted and reported, never
    raised: a violation is evidence about the input map, not a failure of
    the verification itself. At least one sample is required.
    """
    if samples < 1:
        raise PreconditionError("stability verification needs at least one sample")
    points = ball_points(pmap.domain, generator(seed, "stability"), samples)
    lhs, rhs = sampled_envelope(pmap, limit, points, phi)
    gaps = lhs - rhs
    worst = int(np.argmax(gaps))
    return StabilityReport(
        samples=samples,
        max_violation=float(gaps[worst]),
        num_violations=int(np.count_nonzero(gaps > STABILITY_SLACK)),
        worst_lhs=float(lhs[worst]),
        worst_rhs=float(rhs[worst]),
        worst_point=points[worst],
        slack=STABILITY_SLACK,
    )
