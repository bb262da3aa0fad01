"""Manufactured approximate derivations and hypothesis verification.

The annihilator construction is the workhorse: noise valued in a subspace
killed by both module actions makes every product cross term vanish
exactly, so the additivity and product-rule defects are globally certified
by a constant budget rather than merely sampled. The clamped construction
trades that certificate for arbitrary control shapes inside a bounded
trust region; outside the safe regime the cross terms grow with the
partner's norm, which is exactly the negative control the verifier is
expected to flag. The constructors only build maps: verify_hypotheses
samples the hypotheses, once, wherever a report reads them. The
approximate-to-exact round trip starts from that check, then extracts the
exact limit and solves for an inner representative.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (Bimodule, FiniteAlgebra, LinearMap, ModuleElement, kept, module_annihilator,
                      outer_rows, record_dict)
from .blas import single_blas_thread
from .control import (ControlFunction, PNormControl, constant_control, control_from_dict,
                      phi_rows)
from .derivation import DerivationTriple, inner_derivation, inner_solve
from .encoding import document_field, document_number, encode_complex
from .errors import ConstructionError, PreconditionError
from .hyers import LAMBDA_FULL, PointMap, extract_additive, lambda_grid, sampled_envelope
from .sampling import SCALE_GRID, RowHash, ball_points, ball_rows, generator

QUANT_GRID = 2.0**-20
SEED_BOUND = 2**63  # a seed keys the noise hash as one signed 64-bit word
ANNIHILATION_TOL = 1e-12  # largest action on a supplied annihilator row, relative to the row


@dataclass(frozen=True)
class PerturbationSpec:
    """Recipe for a manufactured perturbation.

    mode "annihilator": bounded noise of size epsilon valued in a killed
    subspace. mode "clamped": noise bounded by the control inside a trust
    region of the given radius, smoothly cut off at twice the radius.
    """

    mode: str
    epsilon: float = 0.0
    control: ControlFunction | None = None
    region_radius: float = 1.0
    cap: float = float("inf")
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("annihilator", "clamped"):
            raise ConstructionError(f"unknown perturbation mode {self.mode!r}")
        if not -SEED_BOUND <= self.seed < SEED_BOUND:
            raise ConstructionError(f"seed must lie in [-2^63, 2^63), got {self.seed!r}")
        if not np.isfinite(self.epsilon) or self.epsilon < 0.0:
            raise ConstructionError("epsilon must be finite and nonnegative")
        if self.mode == "clamped":
            if self.control is None:
                raise ConstructionError("clamped mode needs a control function")
            if not (np.isfinite(self.region_radius) and self.region_radius > 0.0):
                raise ConstructionError(
                    f"region_radius must be finite and positive, got {self.region_radius!r}")
            if not self.cap >= 0.0:
                raise ConstructionError(f"cap must be nonnegative or inf, got {self.cap!r}")

    def to_dict(self) -> dict:
        if self.mode == "annihilator":
            return {"mode": "annihilator", "epsilon": self.epsilon, "seed": self.seed}
        doc = {
            "mode": "clamped",
            "control": self.control.to_dict(),
            "region_radius": self.region_radius,
            "seed": self.seed,
        }
        if np.isfinite(self.cap):
            doc["cap"] = self.cap
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "PerturbationSpec":
        mode = doc.get("mode")
        if mode not in ("annihilator", "clamped"):
            raise ConstructionError(f"unknown perturbation mode {mode!r}")
        what = f"{mode} perturbation document"

        def number(key, default, integer=False):
            return document_number(doc, key, ConstructionError, what, default, integer)

        seed = number("seed", 0, integer=True)
        if mode == "annihilator":
            return PerturbationSpec(mode, epsilon=number("epsilon", 0.0), seed=seed)
        control = control_from_dict(document_field(doc, "control", ConstructionError, what))
        return PerturbationSpec(mode, control=control, region_radius=number("region_radius", 1.0),
                                cap=number("cap", float("inf")), seed=seed)


def _keyed_directions(seed: int, label: bytes, space, out_dim: int):
    """The function of [N, dim] rows of the space giving deterministic
    (directions [N, out_dim], magnitudes [N]) keyed by the quantized rows.

    The input coordinates are snapped to a 2^-20 grid so the noise is a
    genuine function of its argument; the snapped bytes of a row (-0.0 read
    as 0.0) plus the seed key a hash that yields a complex direction and a
    magnitude in [0, 1). The hash is keyed once, here. A row that snaps to
    the origin gets zeros, so the noise fixes 0.
    """
    prefix = int(seed).to_bytes(8, "little", signed=True) + label
    key = RowHash(prefix, 16 * space.dim, 2 * out_dim + 1)

    def keyed(rows):
        snapped = np.round(rows / QUANT_GRID) * QUANT_GRID + 0.0  # + 0.0 turns -0.0 into 0.0
        floats = key(snapped)
        directions = (2.0 * floats[:, :out_dim] - 1.0) + 1j * (2.0 * floats[:, out_dim:-1] - 1.0)
        magnitudes = floats[:, -1] * (1.0 - 1e-12)
        origin = ~snapped.any(axis=1)
        directions[origin] = 0.0
        magnitudes[origin] = 0.0
        return directions, magnitudes
    return keyed


def _add_noise(space, values: np.ndarray, index: np.ndarray, sizes: np.ndarray,
               directions: np.ndarray) -> None:
    """values[index] += sizes * directions / |directions|, in place, on the
    rows whose direction has positive norm (the others keep their signed
    zeros)."""
    scales = space.norms(directions)
    hit = scales > 0.0
    rows = index[hit]
    values[rows] = values[rows] + (sizes[hit] / scales[hit])[:, None] * directions[hit]


@dataclass
class PerturbedMaps:
    """An approximate derivation with its two approximate twisting maps
    (one map, g_tau is g_sigma, when the triple's tau is its sigma)."""

    f: PointMap
    g_sigma: PointMap
    g_tau: PointMap
    control: ControlFunction


def extend_with_annihilator(module: Bimodule, k: int = 1):
    """Append a k-dimensional summand with zero actions on both sides.

    Returns the extended module and the orthonormal basis (rows) of the
    appended annihilator directions. Standard fixture: every bimodule can
    host certified annihilator noise after this extension. The module
    axioms hold on the zero-padded tensors because they hold on the
    module's own, so they are not checked again. One read-only pair is made
    per module and k and kept on the module.
    """
    if module.norm_kind != "l1":
        raise ConstructionError("only weighted-l1 modules can be extended")
    if k < 1:
        raise ConstructionError("extension dimension must be at least 1")
    return kept(module, ("annihilator extension", k), lambda: _extend(module, k))


def _extend(module: Bimodule, k: int):
    n, m = module.algebra.dim, module.dim
    left = np.zeros((n, m + k, m + k), dtype=complex)
    right = np.zeros((m + k, n, m + k), dtype=complex)
    left[:, :m, :m] = module.left_action
    right[:m, :, :m] = module.right_action
    weights = np.concatenate([module.norm_weights, np.ones(k)])
    extended = Bimodule(module.algebra, left, right, weights=weights, _axioms_proven=True)
    basis = np.zeros((k, m + k), dtype=complex)
    for j in range(k):
        basis[j, m + j] = 1.0
    basis.setflags(write=False)
    return extended, basis


def _twists(d0):
    """PointMaps of the twisting maps of d0: one map when tau is sigma."""
    g_sigma = PointMap.from_linear_map(d0.sigma)
    return g_sigma, g_sigma if d0.tau is d0.sigma else PointMap.from_linear_map(d0.tau)


def _check_annihilator_basis(module: Bimodule, basis: np.ndarray):
    """Refuse a basis that is not a finite (k, module dim) array, or a row z
    that a basis vector of the algebra sends above ANNIHILATION_TOL |z| on
    either side (the noise is scaled to its size, so a short row hides
    nothing)."""
    if basis.ndim != 2 or basis.shape[1] != module.dim:
        raise ConstructionError(
            f"supplied basis has shape {basis.shape}, not (k, {module.dim})")
    if not np.all(np.isfinite(basis)):
        raise ConstructionError("supplied basis contains non-finite entries")
    eye = np.eye(module.algebra.dim)
    actions = np.concatenate([module.left_matrices(eye), module.right_matrices(eye)])
    images = np.swapaxes(actions @ basis.T, 1, 2)  # [2 n, k, m]: e_i.z and z.e_i
    shape = (len(actions), len(basis))
    sizes = module.norms(images.reshape(shape[0] * shape[1], module.dim)).reshape(shape)
    if not np.all(sizes <= ANNIHILATION_TOL * module.norms(basis)):
        raise ConstructionError("supplied basis is not annihilated by the module actions")


@single_blas_thread
def make_annihilator_perturbation(d0, spec: PerturbationSpec, annihilator_basis=None):
    """Perturb a derivation triple by noise valued in a killed subspace.

    f(a) = d(a) + eta(a) with |eta(a)| <= epsilon and eta input-keyed
    deterministic; the twisting maps are passed through exactly. Since the
    noise values are annihilated by both actions, every cross term in the
    product defect vanishes identically and the defects are globally
    bounded: additivity by 3 epsilon, the product rule by epsilon. The
    returned control, constant 3 epsilon, therefore certifies the
    hypotheses everywhere, not just on samples.
    """
    if spec.mode != "annihilator":
        raise ConstructionError("spec mode must be 'annihilator'")
    module = d0.module
    if annihilator_basis is None:
        basis = module_annihilator(module)
    else:
        try:
            basis = np.asarray(annihilator_basis, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ConstructionError(f"supplied basis is not a coordinate array: {exc}") from exc
    _check_annihilator_basis(module, basis)
    if basis.shape[0] == 0 and spec.epsilon > 0.0:
        raise ConstructionError(
            "the module has no killed directions to host the noise; "
            "extend it first (extend_with_annihilator)"
        )
    epsilon = spec.epsilon
    noise = _keyed_directions(spec.seed, b"ann", d0.algebra, basis.shape[0])
    d_matrix = d0.d

    def f_rows(x):
        values = d_matrix.apply_rows(x)
        if epsilon > 0.0:
            coeffs, magnitudes = noise(x)
            raw = (coeffs[:, None, :] @ basis[None])[:, 0, :]  # coeffs @ basis per row
            _add_noise(module, values, np.arange(len(x)), epsilon * magnitudes, raw)
        return values

    f = PointMap.from_rows(f_rows, d0.algebra, module)
    return PerturbedMaps(f, *_twists(d0), constant_control(3.0 * epsilon))


def _cutoffs(t: np.ndarray, radius: float) -> np.ndarray:
    """The clamped noise's cutoff at each norm in t: 1 inside the region,
    smoothly 0 beyond twice the radius. The polynomial in s is read only
    strictly between the two; s is not clipped, so where 2 radius overflows
    the cutoff keeps the -inf the polynomial gives there."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = (2.0 * radius - t) / radius
        return np.where(t <= radius, 1.0,
                        np.where(t >= 2.0 * radius, 0.0, s * s * (3.0 - 2.0 * s)))


def make_clamped_perturbation(d0, spec: PerturbationSpec):
    """Perturb a derivation triple by region-limited noise.

    |eta(a)| <= min(phi(a, a) / 3, cap) inside the trust region, smoothly
    cut off at twice the region radius. Unlike the annihilator mode nothing
    cancels: the product cross terms eta(a).sigma(b) and tau(a).eta(b) grow
    with the partner's norm, so phi is a budget to check, not a certificate.
    This only builds the maps: verify_hypotheses checks them by sampling
    (inside the region: SCALE_GRID stretched to end at the radius), and its
    report must be read, not assumed. Oversized regions are expected to fail.
    """
    if spec.mode != "clamped":
        raise ConstructionError("spec mode must be 'clamped'")
    module = d0.module
    phi = spec.control
    radius = spec.region_radius
    cap = spec.cap
    d_matrix = d0.d
    algebra = d0.algebra
    noise = _keyed_directions(spec.seed, b"clamp", algebra, module.dim)

    def f_rows(x):
        values = d_matrix.apply_rows(x)
        cuts = _cutoffs(algebra.norms(x), radius)
        inside = np.flatnonzero(cuts > 0.0)
        region = x[inside]
        budgets = np.zeros(len(x))
        budgets[inside] = np.minimum(phi_rows(phi, algebra, region, region) / 3.0, cap) \
            * cuts[inside]
        noisy = np.flatnonzero(budgets > 0.0)
        coeffs, magnitudes = noise(x[noisy])
        _add_noise(module, values, noisy, budgets[noisy] * magnitudes, coeffs)
        return values

    f = PointMap.from_rows(f_rows, algebra, module)
    return PerturbedMaps(f, *_twists(d0), phi)


@dataclass
class HypothesisWitness:
    equation: str
    ratio: float
    scale: float
    lam: complex
    a: np.ndarray
    b: np.ndarray

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "ratio": self.ratio,
            "scale": self.scale,
            "lambda": [self.lam.real, self.lam.imag],
            "a": encode_complex(self.a),
            "b": encode_complex(self.b),
        }


@dataclass
class HypothesisReport:
    """Worst sampled defect-to-budget ratios, one per hypothesis family.

    additive_max: additivity defect of the main map under unimodular
    scaling. twist_additive_max: same for the two twisting candidates.
    product_max: the twisted product-rule defect. multiplicative_max: the
    multiplicativity defect of the tau candidate.
    Satisfied means every ratio is at most 1.
    """

    additive_max: float
    twist_additive_max: float
    product_max: float
    multiplicative_max: float
    samples: int
    lambda_mode: str
    verdict: str = "satisfied"
    witness: HypothesisWitness | None = None

    def maxima(self) -> dict:
        return {
            "additive_max": self.additive_max,
            "twist_additive_max": self.twist_additive_max,
            "product_max": self.product_max,
            "multiplicative_max": self.multiplicative_max,
        }

    def worst_ratio(self) -> float:
        return max(self.maxima().values())

    to_dict = record_dict


# the hypothesis families in the order one sample checks them; each twist
# candidate is its own column
FAMILIES = ("additive", "twist_additive", "twist_additive", "product", "multiplicative")
HYPOTHESIS_BLOCK = 1024  # samples evaluated per array pass; bounds the memory


def _ratios(defects: np.ndarray, budgets: np.ndarray, dust: np.ndarray) -> np.ndarray:
    # a zero budget means the defect must vanish; floating point gets a
    # scale-aware dust allowance so exact maps are not flagged
    with np.errstate(divide="ignore", invalid="ignore"):
        quotients = defects / budgets
    return np.where(budgets > 0.0, quotients, np.where(defects <= dust, 0.0, np.inf))


def _defect_ratios(f: PointMap, g_sigma: PointMap, g_tau: PointMap, a: np.ndarray,
                   b: np.ndarray, lam: np.ndarray, budgets: np.ndarray,
                   dust: np.ndarray) -> np.ndarray:
    """[N, 5] defect/budget ratios of the sample rows, columns in FAMILIES order.
    Each product is one matrix product of `outer_rows` with the tensor: 3x as fast
    as `bilinear_rows` on matrix:8, but its blocked sums may move a row's bits."""
    algebra, module = f.domain, f.codomain
    lam = lam[:, None]
    scaled = lam * (a + b)
    fa, fb = f.eval_rows(a), f.eval_rows(b)
    defects = [module.norms(f.eval_rows(scaled) - lam * fa - lam * fb)]
    for g in (g_sigma, g_tau):
        defects.append(algebra.norms(
            g.eval_rows(scaled) - lam * g.eval_rows(a) - lam * g.eval_rows(b)))
    n, m = algebra.dim, module.dim
    structure = algebra.structure.reshape(n * n, n)
    ab = outer_rows(a, b) @ structure
    tau_a = g_tau.eval_rows(a)
    right, left = module.right_action.reshape(m * n, m), module.left_action.reshape(n * m, m)
    defects.append(module.norms(f.eval_rows(ab) - outer_rows(fa, g_sigma.eval_rows(b)) @ right
                                - outer_rows(tau_a, fb) @ left))
    defects.append(algebra.norms(g_tau.eval_rows(ab)
                                 - outer_rows(tau_a, g_tau.eval_rows(b)) @ structure))
    return np.stack([_ratios(d, budgets, dust) for d in defects], axis=1)


@single_blas_thread
def verify_hypotheses(f: PointMap, g_sigma: PointMap, g_tau: PointMap,
                      phi: ControlFunction, lambda_mode: str = LAMBDA_FULL,
                      samples: int = 2000, seed: int = 0,
                      scales=SCALE_GRID) -> HypothesisReport:
    """Sample the approximate-derivation hypotheses for arbitrary maps.

    Draws seeded pairs across the scale grid and unimodular scalars from
    the grid lambda_mode names (the 64 roots of unity for "full", {1, i}
    for "one-i"), and records the worst defect/budget ratio per hypothesis.
    The verdict is 'violated' with a concrete witness as soon as any ratio
    exceeds 1: the first largest ratio in (sample, family) order.
    Violations are report content, never exceptions. The pairs are drawn
    in order and evaluated HYPOTHESIS_BLOCK samples at a time. At least one
    sample is required.
    """
    if samples < 1:
        raise PreconditionError("hypothesis verification needs at least one sample")
    if f.domain.dim == 0:
        raise PreconditionError("cannot sample a zero-dimensional algebra")
    lambdas = lambda_grid(lambda_mode)
    rng = generator(seed, "hypotheses")
    algebra = f.domain

    maxima = dict.fromkeys(FAMILIES, 0.0)
    witness = None
    scales = np.asarray(scales, dtype=float)
    for start in range(0, samples, HYPOTHESIS_BLOCK):
        block = np.arange(start, min(start + HYPOTHESIS_BLOCK, samples))
        scale, lam = scales[block % len(scales)], lambdas[block % len(lambdas)]
        drawn = ball_rows(algebra, rng, np.repeat(scale, 2))
        a, b = np.ascontiguousarray(drawn[0::2]), np.ascontiguousarray(drawn[1::2])
        budgets = phi_rows(phi, algebra, a, b)
        dust = 1e-12 * (1.0 + scale) * (1.0 + scale)
        ratios = _defect_ratios(f, g_sigma, g_tau, a, b, lam, budgets, dust)
        for column, name in enumerate(FAMILIES):
            maxima[name] = max(maxima[name], float(ratios[:, column].max()))
        # worst offender across all samples and hypothesis families
        r, column = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
        worst = float(ratios[r, column])
        if worst > 1.0 and (witness is None or worst > witness.ratio):
            witness = HypothesisWitness(FAMILIES[column], worst, float(scale[r]),
                                        complex(lam[r]), a[r].copy(), b[r].copy())

    return HypothesisReport(
        additive_max=maxima["additive"],
        twist_additive_max=maxima["twist_additive"],
        product_max=maxima["product"],
        multiplicative_max=maxima["multiplicative"],
        samples=samples,
        lambda_mode=lambda_mode,
        verdict="violated" if witness is not None else "satisfied",
        witness=witness,
    )


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

    to_dict = record_dict


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
    scaled = scale * ball_rows(algebra, generator(seed, "roundtrip-scaling"), np.ones(16))
    defects = module.norms(d_x.apply_rows(scaled) - d.apply_rows(scaled)) / scale
    scaling_residual = float(np.max(defects, initial=0.0))
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
        scaling_residual=scaling_residual,
        witness=None,
    )
