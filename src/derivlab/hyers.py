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

from .algebra import LinearMap, _CoordinateSpace, _SpaceElement
from .control import ControlFunction, ControlTail, summed_control
from .encoding import encode_complex
from .errors import ConstructionError, ConvergenceError, PreconditionError, SpaceMismatchError
from .sampling import ball_point, ball_points, generator
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


class PointMap:
    """Black-box evaluable map between coordinate spaces, fixing 0.

    Wraps a deterministic function from domain coordinate arrays to
    codomain coordinate arrays; no element objects are built on the way.
    Every result is checked once: a wrong length raises SpaceMismatchError
    and a non-finite entry ConstructionError. The zero condition is checked
    once at construction. `eval` and `__call__` are the element facade.
    """

    __slots__ = ("func", "domain", "codomain")

    def __init__(self, func, domain: _CoordinateSpace, codomain: _CoordinateSpace):
        self.func = func
        self.domain = domain
        self.codomain = codomain
        out = self._checked(func(np.zeros(domain.dim, dtype=complex)))
        if not np.all(out == 0.0):
            raise PreconditionError("map does not fix 0 exactly")

    def _checked(self, out) -> np.ndarray:
        if not np.all(np.isfinite(out)):
            raise ConstructionError("map value contains non-finite entries")
        if np.shape(out) != (self.codomain.dim,):
            raise SpaceMismatchError(
                f"map value shape {np.shape(out)} does not match dim {self.codomain.dim}"
            )
        return out

    def eval_coords(self, coords) -> np.ndarray:
        return self._checked(self.func(np.asarray(coords, dtype=complex)))

    def eval(self, elt: _SpaceElement) -> _SpaceElement:
        return self.codomain.element(self.eval_coords(elt.coords))

    __call__ = eval

    @classmethod
    def from_linear_map(cls, lin: LinearMap) -> "PointMap":
        return cls(lin.apply_coords, lin.domain, lin.codomain)


def sampled_envelope(pmap: PointMap, limit: LinearMap, points,
                     phi: ControlFunction | None = None):
    """Arrays of |f(a) - d(a)| and, when phi is given, of the summed control
    at (a, a) over the caller's points (None without phi). Callers draw the
    points and keep their own reduction.
    """
    codomain = pmap.codomain
    deviations = np.array(
        [codomain.norm(pmap.eval_coords(c) - limit.apply_coords(c)) for c in points],
        dtype=float,
    )
    if phi is None:
        return deviations, None
    elements = [pmap.domain.element(c) for c in points]
    controls = np.array([summed_control(phi, e, e).upper for e in elements], dtype=float)
    return deviations, controls


@dataclass(frozen=True)
class BoundCheckSample:
    point: np.ndarray
    lhs: float
    rhs: float

    def to_dict(self) -> dict:
        return {"point": encode_complex(self.point), "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class ExtractionReport:
    """Limit map plus per-basis convergence diagnostics and bound samples."""

    limit: LinearMap
    per_basis_iterations: list[int]
    per_basis_final_delta: list[float]
    per_basis_tail_bound: list[float]
    bound_check: list[BoundCheckSample]
    bound_ok: bool

    def to_dict(self) -> dict:
        return {
            "matrix": encode_complex(self.limit.matrix),
            "per_basis_iterations": list(self.per_basis_iterations),
            "per_basis_final_delta": list(self.per_basis_final_delta),
            "per_basis_tail_bound": list(self.per_basis_tail_bound),
            "bound_check": [s.to_dict() for s in self.bound_check],
            "bound_ok": self.bound_ok,
        }


def _pointwise_limit(pmap: PointMap, coords: np.ndarray, phi: ControlFunction,
                     max_n: int, tol: float):
    """Iterate the doubling sequence at one point.

    Returns (limit coords, iterations, final delta, certified tail).

    The binding stop rule is the a-priori series tail at or below tol: for
    a controlled map it rigorously bounds the distance to the limit. A
    step delta of exactly zero is accepted as well (a map that is linear
    along the doubling orbit is its own limit after one step). A small but
    nonzero delta proves nothing, since the defect magnitude fluctuates,
    so it never stops the iteration by itself.
    """
    certificate = ControlTail(phi, pmap.domain.element(coords))
    current = pmap.eval_coords(coords)
    delta = np.inf
    tail = certificate.after(0)
    for n in range(1, max_n + 1):
        nxt = pmap.eval_coords(2.0**n * coords) / 2.0**n
        delta = pmap.codomain.norm(nxt - current)
        current = nxt
        tail = certificate.after(n)
        if tail <= tol or delta == 0.0:
            return current, n, delta, tail
    raise ConvergenceError(
        f"doubling iteration did not converge in {max_n} steps "
        f"(delta={delta:.3e}, tail={tail:.3e})",
        diagnostics={"iterations": max_n, "delta": float(delta), "tail": float(tail)},
    )


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
    """
    domain, codomain = pmap.domain, pmap.codomain
    n_dim = domain.dim
    columns = np.zeros((codomain.dim, n_dim), dtype=complex)
    iterations, deltas, tails = [], [], []
    for i in range(n_dim):
        basis = domain.basis_element(i)
        limit, its, delta, tail = _pointwise_limit(pmap, basis.coords, phi, max_n, tol)
        columns[:, i] = limit
        iterations.append(its)
        deltas.append(float(delta))
        tails.append(float(tail))
    limit_map = LinearMap(columns, domain, codomain)

    rng = generator(seed, "extract-additivity")
    for _ in range(ADDITIVITY_PAIRS):
        a = ball_point(domain, rng, 1.0)
        b = ball_point(domain, rng, 1.0)
        la, _, _, _ = _pointwise_limit(pmap, a, phi, max_n, tol)
        lb, _, _, _ = _pointwise_limit(pmap, b, phi, max_n, tol)
        lab, _, _, _ = _pointwise_limit(pmap, a + b, phi, max_n, tol)
        if codomain.norm(lab - la - lb) > 10.0 * tol:
            raise ConvergenceError(
                "pointwise limits are not additive; the defect of the input "
                "map is not controlled by the declared control function"
            )
        if codomain.norm(la - limit_map.apply_coords(a)) > 10.0 * tol:
            raise ConvergenceError(
                "pointwise limit disagrees with the assembled matrix"
            )

    points = ball_points(domain, generator(seed, "extract-bound"), BOUND_SAMPLES)
    lhs, rhs = sampled_envelope(pmap, limit_map, points, phi)
    samples = [BoundCheckSample(c, float(l), float(r)) for c, l, r in zip(points, lhs, rhs)]
    bound_ok = not np.any(lhs > rhs + 1e-9 * (1.0 + rhs))
    return ExtractionReport(limit_map, iterations, deltas, tails, samples, bound_ok)


@dataclass
class TripleExtraction:
    """Limits of an approximate derivation and its two endomorphism candidates."""

    d: ExtractionReport
    sigma: ExtractionReport
    tau: ExtractionReport
    leibniz_max: float
    leibniz_samples: int

    def to_dict(self) -> dict:
        return {
            "d": self.d.to_dict(),
            "sigma": self.sigma.to_dict(),
            "tau": self.tau.to_dict(),
            "leibniz_max": self.leibniz_max,
            "leibniz_samples": self.leibniz_samples,
        }


def extract_triple(approx_d: PointMap, approx_sigma: PointMap, approx_tau: PointMap,
                   phi: ControlFunction, max_n: int = DEFAULT_MAX_DOUBLINGS,
                   tol: float = DEFAULT_TOL, *, seed: int = 0) -> TripleExtraction:
    """Extract (d, sigma, tau) limits and verify the product rule they inherit.

    The three extractions are independent; afterwards the twisted product
    rule d(ab) = d(a).sigma(b) + tau(a).d(b) is sampled on LEIBNIZ_SAMPLES
    unit-ball pairs and must hold to LEIBNIZ_TOL, which is what the doubling
    of the product defect guarantees for controlled inputs.
    """
    from .derivation import DerivationTriple, leibniz_residual

    d_report = extract_additive(approx_d, phi, max_n, tol, seed=seed)
    sigma_report = extract_additive(approx_sigma, phi, max_n, tol, seed=seed)
    tau_report = extract_additive(approx_tau, phi, max_n, tol, seed=seed)

    triple = DerivationTriple(d_report.limit, sigma_report.limit, tau_report.limit)
    rng = generator(seed, "triple-leibniz")
    domain = approx_d.domain
    worst = 0.0
    for _ in range(LEIBNIZ_SAMPLES):
        a = domain.element(ball_point(domain, rng, 1.0))
        b = domain.element(ball_point(domain, rng, 1.0))
        worst = max(worst, leibniz_residual(triple, a, b))
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

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_violation": self.max_violation,
            "num_violations": self.num_violations,
            "worst_lhs": self.worst_lhs,
            "worst_rhs": self.worst_rhs,
            "worst_point": encode_complex(self.worst_point),
            "slack": self.slack,
        }


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
