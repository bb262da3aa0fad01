"""Twisted derivations: residuals, subspaces, inner solves and verdicts.

A linear map d : A -> X is a twisted derivation for a pair of linear maps
(sigma, tau) on A when d(ab) = d(a).sigma(b) + tau(a).d(b). The set of such
maps is the nullspace of an explicit linear system in the values of d on the
algebra's generators (on every basis vector when sigma or tau is not
multiplicative); the inner ones, those of
the form d_x(a) = x.sigma(a) - tau(a).x, form the image of an explicit
linear map from the module, whose kernel is the twisted center. When sigma
and tau are endomorphisms every inner map is a derivation, so the first
cohomology H^1 into the module vanishes exactly when dim Der + dim Z equals
the module's dimension: two ranks decide it, for the regular module and for
its dual.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import (
    Bimodule,
    FiniteAlgebra,
    LinearMap,
    ModuleElement,
    bilinear_rows,
    dual_bimodule,
    kept_entry,
    nullspace,
    rank_margin,
    record_dict,
    right_annihilator,
)
from .blas import single_blas_thread
from .errors import PreconditionError, SpaceMismatchError
from .sampling import ball_rows, generator

SVD_RTOL = 1e-10
MEMBERSHIP_TOL = 1e-9
ENDO_TOL = 1e-10
# Largest estimate (_system_bytes) a Leibniz system may have. LAPACK's copies
# and the closure's words come on top: fresh zero-product:31 runs (0.88 GiB for
# a verdict, 0.94 GiB for extract) peak at 1.4-1.5 GB, so a run at 1 GiB stays
# near 1.6 GB. matrix:8 needs 25 MiB; zero-product:40 (3.1 GiB) fails at once,
# naming its size, instead of meeting the OOM killer minutes later.
SYSTEM_BYTES_LIMIT = 2**30

VERDICT_VANISHES = "h1_vanishes"
VERDICT_NONZERO = "h1_nonzero"
VERDICT_INDETERMINATE = "indeterminate"
# A verdict whose system or center has a kept singular value in this band,
# or a dropped one at or above its floor, relative to its scale, is
# indeterminate: the cutoff SVD_RTOL sits inside it, so rounding of the
# inputs could move the rank. The floor is over 10 times the largest
# dropped value rounding left on the registry fixtures (8.8e-16 up to
# matrix:8; 2.9e-15 up to matrix:4 after random complex changes of basis)
INDETERMINATE_BAND = (5e-14, 1e-8)


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


def leibniz_residual(triple: DerivationTriple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|d(ab) - d(a).sigma(b) - tau(a).d(b)| in the module norm at each pair
    of rows of two [N, n] coordinate arrays, each row with the bits of `mul`,
    `act_right` and `act_left` on its pair (`bilinear_rows`)."""
    d, module = triple.d, triple.module
    first = bilinear_rows(d.apply_rows(a), triple.sigma.apply_rows(b), module.right_action)
    second = bilinear_rows(triple.tau.apply_rows(a), d.apply_rows(b), module.left_action)
    products = bilinear_rows(a, b, triple.algebra.structure)
    return module.norms(d.apply_rows(products) - first - second)


def _endo_defect(s: LinearMap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """s(ab) - s(a) s(b) at each pair of rows."""
    c = s.codomain.structure
    return s.apply_rows(bilinear_rows(a, b, c)) - bilinear_rows(s.apply_rows(a), s.apply_rows(b), c)


def endomorphism_residual(s: LinearMap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|s(ab) - s(a) s(b)| in the algebra norm at each pair of rows of two
    [N, n] coordinate arrays."""
    return s.codomain.norms(_endo_defect(s, a, b))


def _generator_endo_residual(algebra: FiniteAlgebra, s: LinearMap) -> float:
    """Worst |s(e_i g) - s(e_i) s(g)| over basis vectors e_i and generator
    rows g.

    Zero exactly when s is multiplicative: the words in the generators span
    the algebra, and s(x (w g)) = s((x w) g) = s(x w) s(g) = s(x) s(w) s(g)
    = s(x) s(w g) by associativity and induction on the length of w g. Each
    generator costs two n x n matrix products: with R_g the matrix whose row
    i is e_i g, row i of R_g S^T is s(e_i g) and of S^T R_s(g) is
    s(e_i) s(g).
    """
    c, rows = algebra.structure, algebra.generators
    images = s.matrix.T
    right = np.tensordot(rows, c, (1, 1))  # [g, i, k]: e_i g
    right_of_images = np.tensordot(rows @ images, c, (1, 1))  # e_i s(g)
    defects = right @ images - images @ right_of_images
    return float((np.abs(defects) @ algebra.norm_weights).max())


def _endo_residual(algebra: FiniteAlgebra, s: LinearMap) -> float:
    """`_generator_endo_residual(algebra, s)`, computed once per map, matrix
    and algebra and kept on the map."""
    memo = s._endo_residual
    if memo is None or memo[0] is not algebra or memo[1] is not s.matrix:
        memo = s._endo_residual = (algebra, s.matrix, _generator_endo_residual(algebra, s))
    return memo[2]


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

    to_dict = record_dict


@single_blas_thread
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
    cancellation = bilinear_rows(triple.d.apply_rows(c), _endo_defect(triple.sigma, a, b),
                                 triple.module.right_action)
    worst = np.max(triple.module.norms(cancellation), initial=0.0)
    ran = right_annihilator(algebra)
    rank = np.linalg.matrix_rank(triple.d.matrix, tol=None) if triple.d.matrix.size else 0
    return EndoCertificate(
        max_cancellation=float(worst),
        tau_basis_residual=_endo_residual(algebra, triple.tau),
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

    @single_blas_thread
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
    subspace that do not depend on the subspace's basis or on any seed. One
    read-only array is drawn per shape and key."""
    return _keyed_array(module.dim, algebra.dim, key)


@cache
def _keyed_array(rows: int, cols: int, key: str) -> np.ndarray:
    rng = generator(0, key)
    out = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    out.setflags(write=False)
    return out


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _twisted_actions(module: Bimodule, sigma: LinearMap, tau: LinearMap,
                     rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_sigma(a) and L_tau(a), the [k, m, m] matrices of x -> x.sigma(a)
    and of x -> tau(a).x, at each row a of `rows`."""
    return (module.right_matrices(rows @ sigma.matrix.T),
            module.left_matrices(rows @ tau.matrix.T))


def _leibniz_payloads(module: Bimodule, right_at_rows: np.ndarray, tau: LinearMap):
    """The payloads `ClosurePlan.replay` carries through the closure of the
    rows for `_leibniz_constraints`, as (the rows' T matrices, extend), from
    R_sigma at the rows."""
    m, k = module.dim, len(right_at_rows)

    def extend(b, payloads):
        out = right_at_rows @ payloads[:, None]
        left = module.left_matrices(b @ tau.matrix.T)
        blocks = out.reshape(-1, k, m, k, m)
        for i in range(k):
            blocks[:, i, :, i, :] += left
        return out

    return np.eye(k * m, dtype=complex).reshape(k, m, k * m), extend


def _leibniz_constraints(algebra: FiniteAlgebra, module: Bimodule, right_at_rows: np.ndarray,
                         tau: LinearMap, rows: np.ndarray):
    """The Leibniz constraints S on u = (D(g_1), ..., D(g_k)) for the rows
    g_i, shape ((n k + k - n) m, k m) when they generate the algebra, from
    R_sigma at the rows; and the span (rows q_l, T matrices) `_vec_map` reads.

    The closure of the rows (`FiniteAlgebra.closure_plan`, replayed) carries
    with each word w the m x k m matrix T_w with D(w) = T_w u: the selector
    E_i for g_i, and for b g_i the Leibniz rule R_sigma(g_i) T_b + L_tau(b) E_i,
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
    plan = algebra.closure_plan(rows)
    if len(plan.basis) < n:
        raise PreconditionError(
            f"the {k} generator rows span {len(plan.basis)} of {n} dimensions"
        )
    payloads, inside = plan.replay(*_leibniz_payloads(module, right_at_rows, tau))
    return inside.reshape(-1, k * m), (plan.basis, payloads)


def _vec_map(span) -> np.ndarray:
    """The (m n, k m) matrix taking u to row-major vec(D), from the span rows
    q_l and their T matrices: D(e_j) = sum_l conj(q_l[j]) T_l u."""
    basis, payloads = span
    n, m, cols = payloads.shape
    to_vec = np.dot(basis.conj().T, payloads.reshape(n, -1)).reshape(n, m, cols)
    return to_vec.transpose(1, 0, 2).reshape(m * n, cols)


def _system_shape(n: int, m: int, k: int) -> tuple[int, int]:
    """Shape of the Leibniz constraints for k rows that generate an
    n-dimensional algebra, into an m-dimensional module: every one of the
    k + n k words but the n basis rows falls inside the span."""
    return (n * k + k - n) * m, k * m


def _system_bytes(n: int, m: int, k: int) -> int:
    """Bytes `_deflation` holds: the complex constraints S, its copy S U
    rotated by the center's left factor U (rows x cols = rows x min(rows,
    cols), as rows - cols = n (k - 1) m), U and the T matrices (n x m x k m)."""
    rows, cols = _system_shape(n, m, k)
    return 16 * (rows * cols + rows * min(rows, cols) + cols * cols + n * m * cols)


def _center_margin(s: np.ndarray, m: int, twists) -> dict:
    """`rank_margin` of the singular values s of x -> x.sigma(a) - tau(a).x
    on an m-dimensional module, given its two terms `twists`. The cutoff is
    relative to the larger term's norm, not to their difference: on a
    commutative algebra they cancel to rounding noise, which a cutoff
    relative to s[0] would count as rank."""
    return rank_margin(s, m, SVD_RTOL, max(np.linalg.norm(t) for t in twists))


_Deflation = namedtuple("_Deflation", "rows span system u center r deflated leak")


def _deflation(algebra: FiniteAlgebra, module: Bimodule, sigma: LinearMap,
               tau: LinearMap) -> _Deflation:
    """The one factorization of Der, shared by `derivation_space` and the
    verdict, in coordinates u = (D(g_1), ..., D(g_k)): the values of D at
    the generators when sigma and tau are multiplicative (residual on
    basis-generator pairs at most ENDO_TOL), else at every basis vector. A
    system whose estimate exceeds SYSTEM_BYTES_LIMIT is refused unbuilt.

    Then every inner map d_x is a derivation, and x -> d_x has the twisted
    center as its kernel, so dim Inner is the rank r of the k m x m operator
    x -> (x.sigma(g_i) - tau(g_i).x)_i, cut off by `_center_margin`. Its
    full SVD splits u-space into Inner, U_r, and W; S vanishes
    on Inner up to the leak, and Der is U_r plus W times the nullspace of
    S W. When a twist is not multiplicative, d_x(ab) - d_x(a).sigma(b) -
    tau(a).d_x(b) = x.(sigma(ab) - sigma(a)sigma(b)) - (tau(ab) -
    tau(a)tau(b)).x need not vanish, and S is not deflated.

    Returns the rows, the span (`_leibniz_constraints`), S, the center's
    full left factor u = [U_r | W] with its `rank_margin` and r (None, None
    and 0 when a twist is not multiplicative), S W (S when r = 0) and the
    leak |S U_r|_2 (0.0 when r = 0).
    """
    n, m = algebra.dim, module.dim
    multiplicative = all(_endo_residual(algebra, s) <= ENDO_TOL for s in (sigma, tau))
    rows = algebra.generators if multiplicative else np.eye(n, dtype=complex)
    k = len(rows)
    need = _system_bytes(n, m, k)
    if need > SYSTEM_BYTES_LIMIT:
        shape = _system_shape(n, m, k)
        raise PreconditionError(
            f"the Leibniz system ({shape[0]} x {shape[1]} complex) with its "
            f"factorization and T matrices needs about {need / 2**30:.1f} GiB, over the "
            f"{SYSTEM_BYTES_LIMIT / 2**30:.0f} GiB limit"
        )
    right, left = _twisted_actions(module, sigma, tau, rows)
    system, span = _leibniz_constraints(algebra, module, right, tau, rows)
    u, center, r, deflated, leak = None, None, 0, system, 0.0
    if multiplicative:
        u, s, _ = np.linalg.svd((right - left).reshape(k * m, m))
        center = _center_margin(s, m, (right, left))
        r = center["rank"]
        if r:
            rotated = system @ u
            gram = rotated[:, :r].conj().T @ rotated[:, :r]  # cheaper than an SVD of S U_r
            deflated, leak = rotated[:, r:], float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))
    return _Deflation(rows, span, system, u, center, r, deflated, leak)


def _outside_inner(deflation: _Deflation) -> np.ndarray:
    """W N as rows in u coordinates: an orthonormal basis of the derivations
    orthogonal there to Inner, with N the nullspace of S W (from its reduced
    SVD; the identity when S W is exactly zero) rotated by W = u[:, r:]."""
    deflated, r = deflation.deflated, deflation.r
    null = nullspace(deflated, SVD_RTOL) if deflated.any() else np.eye(deflated.shape[1])
    return null @ deflation.u[:, r:].T if r else null


@single_blas_thread
def derivation_space(algebra: FiniteAlgebra, module: Bimodule,
                     sigma: LinearMap, tau: LinearMap) -> SubspaceBasis:
    """Orthonormal basis of all maps D with D(ab) = D(a).sigma(b)
    + tau(a).D(b): Inner's U_r and W N (`_deflation`, `_outside_inner`),
    mapped from u coordinates to vec(D) and orthonormalized by QR."""
    if module.dim == 0:
        return SubspaceBasis(np.zeros((0, 0), dtype=complex), algebra, module)
    deflation = _deflation(algebra, module, sigma, tau)
    der = _outside_inner(deflation)
    if deflation.r:
        der = np.concatenate([deflation.u[:, :deflation.r].T, der])
    return SubspaceBasis(np.linalg.qr(_vec_map(deflation.span) @ der.T)[0].T, algebra, module)


def _inner_operator(module: Bimodule, sigma: LinearMap, tau: LinearMap):
    """Matrix of x -> vec(d_x), shape (module dim * algebra dim, module dim),
    and its two terms, `_twisted_actions` at the identity rows."""
    n, m = module.algebra.dim, module.dim
    right_sigma, left_tau = twists = _twisted_actions(module, sigma, tau, np.eye(n, dtype=complex))
    # column i of d_x lands at vec indices k * n + i
    return (right_sigma - left_tau).transpose(1, 0, 2).reshape(m * n, m), twists


@single_blas_thread
def inner_space(algebra: FiniteAlgebra, module: Bimodule,
                sigma: LinearMap, tau: LinearMap) -> SubspaceBasis:
    """Orthonormal basis of the image of x -> (a -> x.sigma(a) - tau(a).x)."""
    if module.dim == 0:
        return SubspaceBasis(np.zeros((0, 0), dtype=complex), algebra, module)
    op, twists = _inner_operator(module, sigma, tau)
    u, s, _ = np.linalg.svd(op, full_matrices=False)
    rank = _center_margin(s, module.dim, twists)["rank"]
    return SubspaceBasis(u[:, :rank].T, algebra, module)


@single_blas_thread
def inner_derivation(module: Bimodule, sigma: LinearMap, tau: LinearMap,
                     x: ModuleElement) -> LinearMap:
    """The map a -> x.sigma(a) - tau(a).x as a LinearMap."""
    algebra = module.algebra
    vec = _inner_operator(module, sigma, tau)[0] @ x.coords
    return LinearMap(vec.reshape(module.dim, algebra.dim), algebra, module)


@dataclass
class InnerSolveResult:
    """Least-squares solve of x.sigma(e_i) - tau(e_i).x = d(e_i)."""

    feasible: bool
    x: ModuleElement | None
    residual: float
    tolerance: float

    to_dict = record_dict


@single_blas_thread
def inner_solve(triple: DerivationTriple, tol: float = MEMBERSHIP_TOL) -> InnerSolveResult:
    """Find x with d_x = d, or report infeasibility.

    The stacked system has one module-dim block per algebra basis vector
    and is solved by least squares; the residual judged is the worst basis
    defect |x.sigma(e_i) - tau(e_i).x - d(e_i)| in the module norm, and the
    feasibility threshold scales with the operator norm of d.
    """
    algebra, module = triple.algebra, triple.module
    op = _inner_operator(module, triple.sigma, triple.tau)[0]
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
    """Whether H^1 into a module vanishes, with the two ranks that decide it.

    `diagnostics` holds the generator count and, for the Leibniz system and
    the twisted-center operator, the shape, and the rank with its margin
    (`rank_margin`).
    """

    derivation_dim: int
    inner_dim: int
    verdict: str
    witness: LinearMap | None
    module: str
    diagnostics: dict
    kind: str = "contractibility"

    @property
    def h1_vanishes(self) -> bool:
        return self.verdict == VERDICT_VANISHES

    to_dict = record_dict


def _require_endomorphisms(algebra: FiniteAlgebra, sigma: LinearMap, tau: LinearMap) -> None:
    for name, m in (("sigma", sigma), ("tau", tau)):
        residual = _endo_residual(algebra, m)
        if residual > ENDO_TOL:
            raise PreconditionError(
                f"{name} is not multiplicative (basis-generator residual {residual:.3e}); "
                "contractibility verdicts require endomorphisms"
            )


def _module_name(algebra: FiniteAlgebra, module: Bimodule) -> str:
    """"regular" for the algebra's kept regular module, "dual-regular" for
    that module's kept dual, else "custom"."""
    regular = kept_entry(algebra, "regular bimodule")
    if regular is not None:
        if module is regular:
            return "regular"
        if module is kept_entry(regular, "dual bimodule"):
            return "dual-regular"
    return "custom"


def _in_band(margin: dict) -> bool:
    """Whether a kept singular value lies in INDETERMINATE_BAND or a dropped
    one reaches it: a dropped value above the band is a bound that rounding
    alone does not explain."""
    low, high = INDETERMINATE_BAND
    kept, dropped = margin["kept"], margin["dropped"]
    return (kept is not None and low <= kept <= high) or (dropped is not None and dropped >= low)


@single_blas_thread
def is_contractible(algebra: FiniteAlgebra, module: Bimodule,
                    sigma: LinearMap, tau: LinearMap) -> ContractibilityReport:
    """Decide whether every twisted derivation into the module is inner.

    Both subspaces are counted in generator coordinates u = (D(g_1), ...,
    D(g_k)), from the Leibniz system S deflated by the twisted center
    (`_deflation`): dim Inner is the center operator's rank r, and dim Der
    is r plus the nullity of S W, from its singular values alone. H^1
    vanishes exactly when S W has full column rank.

    The system's `rank` is that of S W, its `kept` value the smallest kept
    one of S W (a lower bound for S's, since S W is S U without r columns)
    and its `dropped` value S W's largest dropped one plus the leak
    |S U_r|_2, both relative to S W's largest (or to the leak, should that
    be larger): by Weyl's inequality, a bound on S's largest dropped value.
    A kept value inside INDETERMINATE_BAND, or a dropped one that reaches
    it, in either matrix makes the verdict indeterminate.

    The witness, for a nonzero H^1, is the unit vector along vec(D) of
    W N N^H W^H v_u (`_outside_inner`), for the fixed map v =
    keyed_map(..., "contractibility-witness") at the generators: a
    derivation that is not inner, (P_Der - P_Inner) v_u up to rounding.
    """
    _require_endomorphisms(algebra, sigma, tau)
    name, m = _module_name(algebra, module), module.dim
    if m == 0:
        empty = {"shape": [0, 0], "rank": 0, "kept": None, "dropped": None}
        diagnostics = {"generators": 0, "system": empty, "center": dict(empty)}
        return ContractibilityReport(0, 0, VERDICT_VANISHES, None, name, diagnostics)
    deflation = _deflation(algebra, module, sigma, tau)
    rows, span, system, _, inner, r, deflated, leak = deflation
    (k, n), values = rows.shape, np.linalg.svd(deflated, compute_uv=False)
    scale = max(float(np.max(values, initial=0.0)), leak)
    der = rank_margin(values, k * m - r, SVD_RTOL, scale)
    if r:
        der["dropped"] = (der["dropped"] or 0.0) + (leak / scale if leak else 0.0)
    der_dim = k * m - der["rank"]
    if _in_band(der) or _in_band(inner):
        verdict = VERDICT_INDETERMINATE
    else:
        verdict = VERDICT_VANISHES if der_dim == r else VERDICT_NONZERO
    witness = None
    if verdict == VERDICT_NONZERO:
        v = (rows @ keyed_map(algebra, module, "contractibility-witness").T).reshape(-1)
        outside = _outside_inner(deflation)
        vec = _unit(_vec_map(span) @ (outside.T @ (outside.conj() @ v)))
        witness = LinearMap(vec.reshape(m, n), algebra, module)
    diagnostics = {"generators": k, "system": {"shape": list(system.shape), **der},
                   "center": {"shape": [k * m, m], **inner}}
    return ContractibilityReport(der_dim, r, verdict, witness, name, diagnostics)


@single_blas_thread
def is_amenable(algebra: FiniteAlgebra, module: Bimodule,
                sigma: LinearMap, tau: LinearMap) -> ContractibilityReport:
    """`is_contractible` over the dual module: whether H^1 into the dual of
    the module vanishes."""
    report = is_contractible(algebra, dual_bimodule(module), sigma, tau)
    report.kind = "amenability"
    return report
