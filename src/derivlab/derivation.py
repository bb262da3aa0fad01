"""Twisted derivations: residuals, subspaces, inner solves and verdicts.

A linear map d : A -> X is a twisted derivation for a pair of linear maps
(sigma, tau) on A when d(ab) = d(a).sigma(b) + tau(a).d(b). The set of such
maps is the nullspace of an explicit linear system in the values of d on the
algebra's generators (on every basis vector when sigma or tau is not
multiplicative); the inner ones, those of
the form d_x(a) = x.sigma(a) - tau(a).x, form the image of an explicit
linear map from the module. Comparing the two subspaces decides
contractibility, and the same comparison on the dual module decides
amenability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Bimodule,
    FiniteAlgebra,
    LinearMap,
    ModuleElement,
    dual_bimodule,
    nullspace,
    right_annihilator,
)
from .control import ControlFunction
from .encoding import encode_complex
from .errors import PreconditionError, SpaceMismatchError
from .sampling import SCALE_GRID, ball_points, ball_rows, generator

SVD_RTOL = 1e-10
MEMBERSHIP_TOL = 1e-9
ENDO_TOL = 1e-10
# Largest estimate (_system_bytes) derivation_space accepts. numpy's SVD
# copies the system, and the words the closure reduces in one block and
# LAPACK's workspace come on top, so peak RSS above the interpreter's grew by
# about 2 times the estimate (measured on zero-product:20 to :28, whose
# generators are the whole basis); at 1 GiB a run stays under about 2.3 GB,
# which an 8 GB machine shared with other work can hold. matrix:8 needs 25 MiB and zero-product:31 0.88 GiB;
# zero-product:40 (3.1 GiB) fails at once, naming its size, instead of
# meeting the OOM killer minutes later.
SYSTEM_BYTES_LIMIT = 2**30

VERDICT_CONTRACTIBLE = "contractible"
VERDICT_NOT_CONTRACTIBLE = "not_contractible"


@dataclass(frozen=True)
class DerivationTriple:
    """A candidate derivation with its two twisting maps."""

    d: LinearMap
    sigma: LinearMap
    tau: LinearMap

    def __post_init__(self):
        algebra = self.d.domain
        for name, m in (("sigma", self.sigma), ("tau", self.tau)):
            if not (m.domain.same_space(algebra) and m.codomain.same_space(algebra)):
                raise SpaceMismatchError(f"{name} must be an operator on the algebra")
        module = self.d.codomain
        if isinstance(module, Bimodule) and not module.algebra.same_space(algebra):
            raise SpaceMismatchError("derivation codomain is a module over a different algebra")

    @property
    def algebra(self) -> FiniteAlgebra:
        return self.d.domain

    @property
    def module(self) -> Bimodule:
        return self.d.codomain


def _products(algebra: FiniteAlgebra, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a_k b_k per pair of rows in any memory layout: the batched form of mul,
    # with its bits in each row, as the action einsums below are of act_left
    # and act_right
    return np.einsum("ni,nj,ijk->nk", np.ascontiguousarray(a), np.ascontiguousarray(b),
                     algebra.structure)


def leibniz_residual(triple: DerivationTriple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|d(ab) - d(a).sigma(b) - tau(a).d(b)| in the module norm at each pair
    of rows of two [N, n] coordinate arrays."""
    d, module = triple.d, triple.module
    first = np.einsum("nj,ni,jik->nk", d.apply_rows(a), triple.sigma.apply_rows(b),
                      module.right_action)
    second = np.einsum("ni,nj,ijk->nk", triple.tau.apply_rows(a), d.apply_rows(b),
                       module.left_action)
    return module.norms(d.apply_rows(_products(triple.algebra, a, b)) - first - second)


def _endo_defect(s: LinearMap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """s(ab) - s(a) s(b) at each pair of rows."""
    algebra = s.codomain
    return s.apply_rows(_products(algebra, a, b)) \
        - _products(algebra, s.apply_rows(a), s.apply_rows(b))


def endomorphism_residual(s: LinearMap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|s(ab) - s(a) s(b)| in the algebra norm at each pair of rows of two
    [N, n] coordinate arrays."""
    return s.codomain.norms(_endo_defect(s, a, b))


def _basis_endo_residual(algebra: FiniteAlgebra, s: LinearMap) -> float:
    """Worst |s(e_i e_j) - s(e_i) s(e_j)| over all basis pairs."""
    c, mat = algebra.structure, s.matrix
    image_of_products = np.einsum("ks,ijs->ijk", mat, c)
    products_of_images = np.einsum("pi,qj,pqk->ijk", mat, mat, c, optimize=True)
    defects = np.abs(image_of_products - products_of_images) @ algebra.norm_weights
    return float(defects.max())


@dataclass
class EndoCertificate:
    """Sampled evidence that the first twisting map multiplies correctly.

    The cancellation identity d(c).(sigma(ab) - sigma(a)sigma(b)) = 0 holds
    whenever tau is multiplicative; it upgrades to 'sigma is an
    endomorphism' when the algebra has no annihilating directions to hide
    in, which is what the two side-condition flags report.
    """

    max_cancellation: float
    tau_basis_residual: float
    ran_trivial: bool
    d_full_row_rank: bool
    samples: int

    def to_dict(self) -> dict:
        return {
            "max_cancellation": self.max_cancellation,
            "tau_basis_residual": self.tau_basis_residual,
            "ran_trivial": self.ran_trivial,
            "d_full_row_rank": self.d_full_row_rank,
            "samples": self.samples,
        }


def sigma_endo_certificate(triple: DerivationTriple, samples: int = 200,
                           seed: int = 0) -> EndoCertificate:
    """Evaluate |d(c).(sigma(ab) - sigma(a)sigma(b))| on sampled triples.

    Also reports whether the right annihilator of the algebra is trivial
    and whether d has full row rank (surjectivity onto the module), the two
    side conditions under which a zero certificate forces sigma to be
    multiplicative (unless d = 0).
    """
    if samples < 0:
        raise PreconditionError("the sigma certificate needs a nonnegative sample count")
    algebra = triple.algebra
    rows = ball_rows(algebra, generator(seed, "sigma-endo"), np.ones(3 * samples))
    a, b, c = rows[0::3], rows[1::3], rows[2::3]
    cancellation = np.einsum("nj,ni,jik->nk", triple.d.apply_rows(c),
                             _endo_defect(triple.sigma, a, b), triple.module.right_action)
    worst = np.max(triple.module.norms(cancellation), initial=0.0)
    ran = right_annihilator(algebra)
    rank = np.linalg.matrix_rank(triple.d.matrix, tol=None) if triple.d.matrix.size else 0
    return EndoCertificate(
        max_cancellation=float(worst),
        tau_basis_residual=float(_basis_endo_residual(algebra, triple.tau)),
        ran_trivial=bool(ran.shape[0] == 0),
        d_full_row_rank=bool(rank == triple.module.dim),
        samples=samples,
    )


class SubspaceBasis:
    """Orthonormal basis of a space of vectorized linear maps A -> X.

    Vectors are row-major flattenings of (module dim) x (algebra dim)
    matrices, orthonormal under the standard hermitian inner product.
    """

    def __init__(self, vectors: np.ndarray, domain, codomain):
        self.vectors = np.asarray(vectors, dtype=complex)
        self.domain = domain
        self.codomain = codomain
        self.map_shape = (codomain.dim, domain.dim)
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def matrix(self, index: int) -> np.ndarray:
        return self.vectors[index].reshape(self.map_shape)

    def linear_map(self, index: int) -> LinearMap:
        return LinearMap(self.matrix(index), self.domain, self.codomain)

    def project(self, vecs) -> np.ndarray:
        """Orthogonal projection onto the span of a flattened map, or of each
        row of an array of them. It depends on the span, not on the basis."""
        return (np.asarray(vecs, dtype=complex) @ self.vectors.conj().T) @ self.vectors

    def projection_residual(self, vec) -> float:
        """Distance from vec (a flattened map or LinearMap) to the span."""
        if isinstance(vec, LinearMap):
            vec = vec.matrix.reshape(-1)
        v = np.asarray(vec, dtype=complex).reshape(-1)
        return float(np.linalg.norm(v - self.project(v)))

    def unit_projection(self, key: str) -> np.ndarray:
        """P v / |P v| for the fixed map v = keyed_map(..., key), flattened:
        a unit vector of the span chosen without regard to its basis, zero
        when the span is {0}."""
        vec = self.project(keyed_map(self.domain, self.codomain, key).reshape(-1))
        return _unit(vec) if self.dim else vec

    def contains(self, vec, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.projection_residual(vec) <= tol


def keyed_map(algebra: FiniteAlgebra, module: Bimodule, key: str) -> np.ndarray:
    """A fixed complex Gaussian map A -> X, a (module dim) x (algebra dim)
    matrix drawn from generator(0, key): its projections choose vectors of a
    subspace that do not depend on the subspace's basis or on any seed."""
    rng = generator(0, key)
    shape = (module.dim, algebra.dim)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _twist_matrices(module: Bimodule, sigma: LinearMap,
                    tau: LinearMap) -> tuple[np.ndarray, np.ndarray]:
    """Per-basis matrices of x -> x.sigma(e_i) and of x -> tau(e_i).x,
    each stacked along the first axis."""
    right_sigma = np.einsum("ij,kir->jrk", sigma.matrix, module.right_action)
    left_tau = np.einsum("pi,pkr->irk", tau.matrix, module.left_action)
    return right_sigma, left_tau


def generator_system(algebra: FiniteAlgebra, module: Bimodule, sigma: LinearMap,
                     tau: LinearMap, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Leibniz constraints on u = (D(g_1), ..., D(g_k)) for the rows g_i
    of `rows`, shape ((n k + k - n) m, k m) when the rows generate the
    algebra, and the matrix (m n, k m) that takes u to row-major vec(D).

    The closure of the rows (`FiniteAlgebra._closure`) carries with each
    word w the m x k m matrix T_w with D(w) = T_w u: the selector E_i for
    g_i, and for b g_i the Leibniz rule R_sigma(g_i) T_b + L_tau(b) E_i,
    where R_sigma(a) is x -> x.sigma(a) and L_tau(a) is x -> tau(a).x. A
    word that enters the orthonormal basis q_l needs no constraint; one that
    falls inside the span leaves its reduced T as m constraint rows. The
    null vectors u are then the maps with the rule on every pair (q_l, g_i),
    and D(e_j) = sum_l conj(q_l[j]) T_l u.

    When sigma and tau are multiplicative, the rule on (a, g) for every a
    and each generator g gives it on (a, b g) (expand D(a b g) through
    sigma(b g) = sigma(b) sigma(g) and tau(a b) = tau(a) tau(b) with the
    bimodule axioms), so on all of the algebra. With the identity rows T is
    the identity and the constraints are the rule on every pair of basis
    vectors.
    """
    n, m, k = algebra.dim, module.dim, len(rows)
    right_sigma, left_tau = _twist_matrices(module, sigma, tau)
    right_at_rows = np.einsum("ai,irk->ark", rows, right_sigma)
    diagonal = np.arange(k)

    def extend(b, payloads):
        out = right_at_rows @ payloads[:, None]
        out.reshape(-1, k, m, k, m)[:, diagonal, :, diagonal, :] += np.tensordot(b, left_tau, 1)
        return out

    selectors = np.eye(k * m, dtype=complex).reshape(k, m, k * m)
    basis, payloads, inside = algebra._closure(rows, carry=(selectors, extend))
    if len(basis) < n:
        raise PreconditionError(
            f"the {k} generator rows span {len(basis)} of {n} dimensions"
        )
    to_vec = np.tensordot(basis.conj(), payloads, (0, 0)).transpose(1, 0, 2)
    return inside.reshape(-1, k * m), to_vec.reshape(m * n, k * m)


def _system_shape(n: int, m: int, k: int) -> tuple[int, int]:
    """Shape of generator_system's constraints for k rows that generate an
    n-dimensional algebra, into an m-dimensional module: every one of the
    k + n k words but the n basis rows falls inside the span."""
    return (n * k + k - n) * m, k * m


def _system_bytes(n: int, m: int, k: int) -> int:
    """Bytes of generator_system's complex constraints, of the SVD factors
    `nullspace` takes from them (U, rows x min(rows, cols), and the right
    factor, cols x cols) and of the n x m x k m stack of T matrices."""
    rows, cols = _system_shape(n, m, k)
    return 16 * (rows * cols + rows * min(rows, cols) + cols * cols + n * m * cols)


def derivation_space(algebra: FiniteAlgebra, module: Bimodule,
                     sigma: LinearMap, tau: LinearMap, *,
                     _endomorphisms: bool = False) -> SubspaceBasis:
    """Orthonormal basis of all maps D with D(ab) = D(a).sigma(b)
    + tau(a).D(b).

    The unknowns are the values of D on the algebra's generators when sigma
    and tau are multiplicative (basis residual at most ENDO_TOL), else on
    every basis vector; generator_system gives their constraints. The null
    vectors, from an SVD with a relative singular-value cutoff, are mapped
    to vec(D) and orthonormalized. A system whose estimated size exceeds
    SYSTEM_BYTES_LIMIT is refused before it is built. The private
    `_endomorphisms` says the caller has already certified sigma and tau as
    endomorphisms, so their basis residuals are not computed again.
    """
    n, m = algebra.dim, module.dim
    if m == 0:
        return SubspaceBasis(np.zeros((0, 0), dtype=complex), algebra, module)
    multiplicative = _endomorphisms or all(
        _basis_endo_residual(algebra, s) <= ENDO_TOL for s in (sigma, tau))
    rows = algebra.generators if multiplicative else np.eye(n, dtype=complex)
    need = _system_bytes(n, m, len(rows))
    if need > SYSTEM_BYTES_LIMIT:
        shape = _system_shape(n, m, len(rows))
        raise PreconditionError(
            f"the Leibniz system ({shape[0]} x {shape[1]} complex) with its "
            f"factorization and T matrices needs about {need / 2**30:.1f} GiB, over the "
            f"{SYSTEM_BYTES_LIMIT / 2**30:.0f} GiB limit"
        )
    system, to_vec = generator_system(algebra, module, sigma, tau, rows)
    maps = nullspace(system, SVD_RTOL) @ to_vec.T
    return SubspaceBasis(np.linalg.qr(maps.T)[0].T, algebra, module)


def _inner_operator_matrix(algebra: FiniteAlgebra, module: Bimodule,
                           sigma: LinearMap, tau: LinearMap) -> np.ndarray:
    """Matrix of x -> vec(d_x), shape (module dim * algebra dim, module dim)."""
    right_sigma, left_tau = _twist_matrices(module, sigma, tau)
    # column i of d_x lands at vec indices k * n + i
    return (right_sigma - left_tau).transpose(1, 0, 2).reshape(-1, module.dim)


def inner_space(algebra: FiniteAlgebra, module: Bimodule,
                sigma: LinearMap, tau: LinearMap) -> SubspaceBasis:
    """Orthonormal basis of the image of x -> (a -> x.sigma(a) - tau(a).x)."""
    if module.dim == 0:
        return SubspaceBasis(np.zeros((0, 0), dtype=complex), algebra, module)
    op = _inner_operator_matrix(algebra, module, sigma, tau)
    u, s, _ = np.linalg.svd(op, full_matrices=False)
    # the cutoff is relative to the two terms of x.sigma(a) - tau(a).x, not
    # to their difference: on a commutative algebra they cancel to rounding
    # noise, which a cutoff relative to s[0] would count as rank
    scale = max(np.linalg.norm(t) for t in _twist_matrices(module, sigma, tau))
    rank = int(np.sum(s > SVD_RTOL * scale))
    return SubspaceBasis(u[:, :rank].T, algebra, module)


def inner_derivation(module: Bimodule, sigma: LinearMap, tau: LinearMap,
                     x: ModuleElement) -> LinearMap:
    """The map a -> x.sigma(a) - tau(a).x as a LinearMap."""
    algebra = module.algebra
    op = _inner_operator_matrix(algebra, module, sigma, tau)
    vec = op @ x.coords
    return LinearMap(vec.reshape(module.dim, algebra.dim), algebra, module)


@dataclass
class InnerSolveResult:
    """Least-squares solve of x.sigma(e_i) - tau(e_i).x = d(e_i)."""

    feasible: bool
    x: ModuleElement | None
    residual: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "x": None if self.x is None else encode_complex(self.x.coords),
            "residual": self.residual,
            "tolerance": self.tolerance,
        }


def inner_solve(triple: DerivationTriple, tol: float = MEMBERSHIP_TOL) -> InnerSolveResult:
    """Find x with d_x = d, or report infeasibility.

    The stacked system has one module-dim block per algebra basis vector
    and is solved by least squares; the residual judged is the worst basis
    defect |x.sigma(e_i) - tau(e_i).x - d(e_i)| in the module norm, and the
    feasibility threshold scales with the operator norm of d.
    """
    algebra, module = triple.algebra, triple.module
    op = _inner_operator_matrix(algebra, module, triple.sigma, triple.tau)
    rhs = triple.d.matrix.reshape(-1)
    if module.dim == 0:
        return InnerSolveResult(True, module.zero(), 0.0, tol)
    x_coords, *_ = np.linalg.lstsq(op, rhs, rcond=None)
    defect = (op @ x_coords - rhs).reshape(module.dim, algebra.dim)
    residual = max(module.norms(defect.T).tolist(), default=0.0)
    threshold = tol * (1.0 + triple.d.operator_norm())
    x = module.element(x_coords)
    if residual <= threshold:
        return InnerSolveResult(True, x, float(residual), threshold)
    return InnerSolveResult(False, None, float(residual), threshold)


@dataclass
class ContractibilityReport:
    """Dimensions of the two subspaces and the inclusion verdict."""

    derivation_dim: int
    inner_dim: int
    verdict: str
    witness: LinearMap | None
    max_projection_residual: float
    kind: str = "contractibility"

    @property
    def contractible(self) -> bool:
        return self.verdict == VERDICT_CONTRACTIBLE

    def to_dict(self) -> dict:
        return {
            "derivation_dim": self.derivation_dim,
            "inner_dim": self.inner_dim,
            "verdict": self.verdict,
            "witness": None if self.witness is None else encode_complex(self.witness.matrix),
            "max_projection_residual": self.max_projection_residual,
            "kind": self.kind,
        }


def _require_endomorphisms(algebra: FiniteAlgebra, sigma: LinearMap, tau: LinearMap,
                           tol: float = ENDO_TOL) -> None:
    for name, m in (("sigma", sigma), ("tau", tau)):
        residual = _basis_endo_residual(algebra, m)
        if residual > tol:
            raise PreconditionError(
                f"{name} is not multiplicative (basis residual {residual:.3e}); "
                "contractibility verdicts require endomorphisms"
            )


def is_contractible(algebra: FiniteAlgebra, module: Bimodule,
                    sigma: LinearMap, tau: LinearMap) -> ContractibilityReport:
    """Decide whether every twisted derivation into the module is inner.

    Computes both subspaces; the residual is the largest distance from a
    unit vector of the derivation space to the inner space, the spectral
    norm of (I - P_Inner) on Der. The witness, when the verdict is negative,
    is the unit vector along (P_Der - P_Inner) v for the fixed map v =
    keyed_map(..., "contractibility-witness"): a derivation orthogonal to
    the inner ones. Neither depends on the bases the SVDs return.
    """
    _require_endomorphisms(algebra, sigma, tau)
    derivations = derivation_space(algebra, module, sigma, tau, _endomorphisms=True)
    inners = inner_space(algebra, module, sigma, tau)
    outside = derivations.vectors - inners.project(derivations.vectors)
    worst = float(np.linalg.norm(outside, 2)) if derivations.dim else 0.0
    witness = None
    if worst > MEMBERSHIP_TOL:
        v = keyed_map(algebra, module, "contractibility-witness").reshape(-1)
        vec = _unit(derivations.project(v) - inners.project(v))
        witness = LinearMap(vec.reshape(derivations.map_shape), algebra, module)
    verdict = VERDICT_CONTRACTIBLE if witness is None else VERDICT_NOT_CONTRACTIBLE
    return ContractibilityReport(
        derivation_dim=derivations.dim,
        inner_dim=inners.dim,
        verdict=verdict,
        witness=witness,
        max_projection_residual=worst,
    )


def is_amenable(algebra: FiniteAlgebra, module: Bimodule,
                sigma: LinearMap, tau: LinearMap) -> ContractibilityReport:
    """Contractibility computed over the dual module."""
    report = is_contractible(algebra, dual_bimodule(module), sigma, tau)
    report.kind = "amenability"
    return report


@dataclass
class RoundtripResult:
    """Outcome of the approximate-to-exact contractibility round trip.

    Feasible outcome: an element x whose inner derivation uniformly
    approximates the original approximate map, with the realized bound
    beta. Infeasible outcome: the exact extracted derivation as a witness
    that no such x exists even approximately (a uniform bound would scale
    away under doubling and force exactness).
    """

    feasible: bool
    x: ModuleElement | None
    beta: float | None
    beta_bound: float | None
    inner_residual: float
    scaling_residual: float | None
    witness: LinearMap | None

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "x": None if self.x is None else encode_complex(self.x.coords),
            "beta": self.beta,
            "beta_bound": self.beta_bound,
            "inner_residual": self.inner_residual,
            "scaling_residual": self.scaling_residual,
            "witness": None if self.witness is None else encode_complex(self.witness.matrix),
        }


def approx_contractibility_roundtrip(approx_map, phi: ControlFunction,
                                     algebra: FiniteAlgebra, module: Bimodule,
                                     sigma: LinearMap, tau: LinearMap,
                                     samples: int = 1000, seed: int = 0) -> RoundtripResult:
    """Round-trip an approximate twisted derivation through the exact theory.

    Verifies the constant-budget hypotheses by sampling, extracts the exact
    limit d, and solves for an inner representative. On success the
    realized uniform bound beta = max |x.sigma(a) - tau(a).x - f(a)| is
    reported and must not exceed the budget plus the inner residual slack.
    On failure the exact derivation itself certifies that no x works: a
    uniform bound at all scales collapses to zero under doubling.
    """
    from .control import PNormControl
    from .hyers import PointMap, extract_additive, sampled_envelope
    from .perturb import verify_hypotheses

    if not isinstance(phi, PNormControl) or phi.beta != 0.0:
        raise PreconditionError("round trip requires a constant control budget")
    hypothesis = verify_hypotheses(
        approx_map,
        PointMap.from_linear_map(sigma),
        PointMap.from_linear_map(tau),
        phi,
        samples=max(200, samples // 5),
        seed=seed,
    )
    if hypothesis.verdict != "satisfied":
        raise PreconditionError(
            "the supplied map violates the approximate-derivation hypotheses; "
            f"worst ratio {hypothesis.worst_ratio():.3g}"
        )

    report = extract_additive(approx_map, phi, seed=seed)
    d = report.limit
    triple = DerivationTriple(d, sigma, tau)
    solve = inner_solve(triple)
    alpha = phi.alpha

    if not solve.feasible:
        return RoundtripResult(
            feasible=False,
            x=None,
            beta=None,
            beta_bound=None,
            inner_residual=solve.residual,
            scaling_residual=None,
            witness=d,
        )

    d_x = inner_derivation(module, sigma, tau, solve.x)
    points = ball_points(algebra, generator(seed, "roundtrip-beta"), samples)
    deviations, _ = sampled_envelope(approx_map, d_x, points)
    beta = float(np.max(deviations, initial=0.0))
    slack = max(1e-9, solve.residual * (1.0 + max(SCALE_GRID)))
    beta_bound = alpha + slack
    if beta > beta_bound:
        raise PreconditionError(
            f"realized uniform bound {beta:.3e} exceeds the certified budget "
            f"{beta_bound:.3e}"
        )

    # doubling collapse: the inner defect against d, evaluated at 2^40 a
    # and scaled back, stays at the solve residual (exact for linear maps)
    scale = 2.0**40
    scaling_residual = 0.0
    for coords in ball_rows(algebra, generator(seed, "roundtrip-scaling"), np.ones(16)):
        value = module.norm(
            d_x.apply_coords(scale * coords) - d.apply_coords(scale * coords)
        ) / scale
        scaling_residual = max(scaling_residual, value)
    if scaling_residual > 1e-10:
        raise PreconditionError(
            f"doubling collapse failed: residual {scaling_residual:.3e}"
        )

    return RoundtripResult(
        feasible=True,
        x=solve.x,
        beta=float(beta),
        beta_bound=float(beta_bound),
        inner_residual=solve.residual,
        scaling_residual=float(scaling_residual),
        witness=None,
    )
