"""Row evaluation: every array form equals its one-point form bit for bit.

The row forms stack one small product per row (`matrix @ x`, `weights @
|x|`) instead of calling one matrix-matrix product, whose blocked sums
round differently. These tests compare `tobytes()` against the one-point
forms and against per-point reference loops kept here, so a numpy or BLAS
upgrade that changes the dispatch fails here first. The product-rule
residuals are also compared, to rounding, with the three-operand `einsum`
spelling of their products, a reference that shares no code with
`bilinear_rows`.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from derivlab import (
    ControlError,
    ConvergenceError,
    DerivationTriple,
    LinearMap,
    PNormControl,
    PerturbationSpec,
    PointMap,
    TabulatedControl,
    act_left,
    act_right,
    constant_control,
    derivation_space,
    dual_bimodule,
    endomorphism_residual,
    extend_with_annihilator,
    extract_additive,
    get_algebra,
    identity_map,
    leibniz_residual,
    make_annihilator_perturbation,
    make_clamped_perturbation,
    mul,
    regular_bimodule,
    sigma_endo_certificate,
    verify_hypotheses,
    zero_bimodule,
)
from derivlab.algebra import bilinear_rows, outer_rows
from derivlab.control import (DEFAULT_TRUNCATION, phi_rows, summed_control, summed_control_rows,
                              summed_control_tail)
from derivlab.hyers import (ADDITIVITY_PAIRS, _not_converged, _pointwise_limits, lambda_grid,
                            sampled_envelope)
from derivlab.perturb import HYPOTHESIS_BLOCK, QUANT_GRID, _smooth_cutoff
from derivlab.sampling import (SCALE_GRID, ball_point, ball_points, ball_rows, generator,
                               hashed_unit_floats, hashed_unit_rows, sphere_point, sphere_rows)

from test_derivation import change_of_basis

FAMILIES = ("matrix:2", "matrix:3", "upper-triangular:3", "dual-numbers", "zero-product:4")


def random_rows(count, dim, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    rows *= rng.uniform(0.0, 16.0, (count, 1))
    rows[::7] = 0.0  # exact zeros, including whole rows
    if dim:
        rows[1::5, 0] = -0.0
    return rows


LAYOUTS = ("transposed", "strided", "fortran")


def laid_out(rows, layout):
    """The same rows in another memory layout: not C-contiguous unless a
    row holds at most one value."""
    out = {"transposed": np.ascontiguousarray(rows.T).T,
           "strided": np.repeat(rows, 2, axis=0)[::2],
           "fortran": np.asfortranarray(rows)}[layout]
    assert not out.flags.c_contiguous or rows.shape[1] <= 1
    assert out.tobytes() == rows.tobytes()
    return out


def assert_rows_equal(rows, reference):
    assert rows.shape[0] == len(reference)
    for row, ref in zip(rows, reference):
        assert np.asarray(row).tobytes() == np.asarray(ref, dtype=rows.dtype).tobytes()


def spaces(fixture):
    algebra = get_algebra(fixture)
    regular = regular_bimodule(algebra)
    extended, _ = extend_with_annihilator(regular)
    return {"algebra": algebra, "extended": extended, "dual": dual_bimodule(regular),
            "zero": zero_bimodule(algebra)}


@pytest.fixture(scope="module", params=FAMILIES)
def family(request):
    return request.param, spaces(request.param)


class TestNormsAndLinearRows:
    @pytest.mark.parametrize("kind", ["algebra", "extended", "dual", "zero"])
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_norms_match_norm_per_row(self, family, kind, count):
        space = family[1][kind]
        assert space.norm_kind == ("linf" if kind == "dual" else "l1")
        rows = random_rows(count, space.dim, 1)
        norms = space.norms(rows)
        assert norms.shape == (count,) and norms.dtype == float
        assert_rows_equal(norms[:, None], [[space.norm(row)] for row in rows])

    @pytest.mark.parametrize("kind", ["algebra", "extended", "dual", "zero"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_norms_match_norm_in_any_memory_layout(self, family, kind, layout):
        space = family[1][kind]
        rows = random_rows(200, space.dim, 4)
        assert_rows_equal(space.norms(laid_out(rows, layout))[:, None],
                          [[space.norm(row)] for row in rows])

    @pytest.mark.parametrize("target", ["algebra", "extended", "dual", "zero"])
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_apply_rows_matches_apply_coords(self, family, target, count):
        algebra, codomain = family[1]["algebra"], family[1][target]
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((codomain.dim, algebra.dim)) \
            + 1j * rng.standard_normal((codomain.dim, algebra.dim))
        lin = LinearMap(matrix, algebra, codomain)
        rows = random_rows(count, algebra.dim, 3)
        out = lin.apply_rows(rows)
        assert out.shape == (count, codomain.dim)
        assert_rows_equal(out, [lin.apply_coords(row) for row in rows])
        if count > 1:
            for layout in LAYOUTS:
                assert lin.apply_rows(laid_out(rows, layout)).tobytes() == out.tobytes()


# --- product-rule residuals against the per-pair element forms -----------------

def random_triple(algebra, module, seed):
    """A triple of random maps, so that every residual is nonzero."""
    rng = np.random.default_rng(seed)

    def matrix(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    return DerivationTriple(LinearMap(matrix(module.dim, algebra.dim), algebra, module),
                            LinearMap(matrix(algebra.dim, algebra.dim), algebra, algebra),
                            LinearMap(matrix(algebra.dim, algebra.dim), algebra, algebra))


def reference_leibniz(triple, a, b):
    # the element forms are one-row calls of the kernel the row forms use:
    # equal bits show that a row does not depend on its batch or layout, and
    # `einsum_leibniz` below is the reference that shares no code with it
    x, y = triple.algebra.element(a), triple.algebra.element(b)
    d, sigma, tau = triple.d, triple.sigma, triple.tau
    return (d.apply(mul(x, y)) - act_right(d.apply(x), sigma.apply(y))
            - act_left(tau.apply(x), d.apply(y))).norm()


def reference_endomorphism(s, a, b):
    x, y = s.domain.element(a), s.domain.element(b)
    return (s.apply(mul(x, y)) - mul(s.apply(x), s.apply(y))).norm()


def einsum_leibniz(triple, a, b):
    """`leibniz_residual` with each product a three-operand `einsum`."""
    d, module = triple.d, triple.module
    products = np.einsum("ni,nj,ijk->nk", a, b, triple.algebra.structure)
    first = np.einsum("nj,ni,jik->nk", d.apply_rows(a), triple.sigma.apply_rows(b),
                      module.right_action)
    second = np.einsum("ni,nj,ijk->nk", triple.tau.apply_rows(a), d.apply_rows(b),
                       module.left_action)
    return module.norms(d.apply_rows(products) - first - second)


def einsum_endo_defect(s, a, b):
    """s(ab) - s(a) s(b) per row, each product a three-operand `einsum`."""
    c = s.codomain.structure
    return s.apply_rows(np.einsum("ni,nj,ijk->nk", a, b, c)) \
        - np.einsum("ni,nj,ijk->nk", s.apply_rows(a), s.apply_rows(b), c)


def assert_close_to_einsum(values, reference):
    # the einsum sums in another order: equal up to a few ulps of the terms
    assert values.shape == reference.shape
    assert np.allclose(values, reference, rtol=1e-12, atol=0.0)


RESIDUAL_FAMILIES = FAMILIES + ("matrix:4",)


def residual_algebra(fixture, basis):
    """The fixture, or the same algebra in a random basis, whose structure
    constants are not 0 or 1 (so a regrouped product rounds differently)."""
    algebra = get_algebra(fixture)
    return algebra if basis == "standard" else change_of_basis(algebra, seed=17)


class TestResidualRows:
    @pytest.mark.parametrize("basis", ["standard", "changed"])
    @pytest.mark.parametrize("module", ["regular", "extended", "dual", "zero"])
    @pytest.mark.parametrize("count", [0, 1, 37])
    @pytest.mark.parametrize("fixture", RESIDUAL_FAMILIES)
    def test_leibniz_residual_matches_per_pair(self, fixture, count, module, basis):
        algebra = residual_algebra(fixture, basis)
        regular = regular_bimodule(algebra)
        target = {"regular": regular, "extended": extend_with_annihilator(regular)[0],
                  "dual": dual_bimodule(regular), "zero": zero_bimodule(algebra)}[module]
        triple = random_triple(algebra, target, 7)
        a, b = random_rows(count, algebra.dim, 20), random_rows(count, algebra.dim, 21)
        residuals = leibniz_residual(triple, a, b)
        assert residuals.shape == (count,)
        assert_rows_equal(residuals[:, None],
                          [[reference_leibniz(triple, x, y)] for x, y in zip(a, b)])

    @pytest.mark.parametrize("basis", ["standard", "changed"])
    @pytest.mark.parametrize("count", [0, 1, 37])
    @pytest.mark.parametrize("fixture", RESIDUAL_FAMILIES)
    def test_endomorphism_residual_matches_per_pair(self, fixture, count, basis):
        algebra = residual_algebra(fixture, basis)
        s = random_triple(algebra, algebra, 8).sigma
        a, b = random_rows(count, algebra.dim, 22), random_rows(count, algebra.dim, 23)
        residuals = endomorphism_residual(s, a, b)
        assert residuals.shape == (count,)
        assert_rows_equal(residuals[:, None],
                          [[reference_endomorphism(s, x, y)] for x, y in zip(a, b)])

    @pytest.mark.parametrize("basis", ["standard", "changed"])
    @pytest.mark.parametrize("module", ["regular", "extended", "dual", "zero"])
    @pytest.mark.parametrize("count", [0, 1, 37])
    @pytest.mark.parametrize("fixture", RESIDUAL_FAMILIES)
    def test_residuals_match_the_einsum_spelling(self, fixture, count, module, basis):
        algebra = residual_algebra(fixture, basis)
        regular = regular_bimodule(algebra)
        target = {"regular": regular, "extended": extend_with_annihilator(regular)[0],
                  "dual": dual_bimodule(regular), "zero": zero_bimodule(algebra)}[module]
        triple = random_triple(algebra, target, 7)
        a, b = random_rows(count, algebra.dim, 20), random_rows(count, algebra.dim, 21)
        assert_close_to_einsum(leibniz_residual(triple, a, b), einsum_leibniz(triple, a, b))
        assert_close_to_einsum(endomorphism_residual(triple.sigma, a, b),
                               algebra.norms(einsum_endo_defect(triple.sigma, a, b)))

    @pytest.mark.parametrize("basis", ["standard", "changed"])
    @pytest.mark.parametrize("samples", [0, 1, 37])
    @pytest.mark.parametrize("fixture", RESIDUAL_FAMILIES)
    def test_sigma_endo_certificate_matches_the_einsum_spelling(self, fixture, samples, basis):
        algebra = residual_algebra(fixture, basis)
        triple = random_triple(algebra, regular_bimodule(algebra), 9)
        rows = ball_rows(algebra, generator(6, "sigma-endo"), np.ones(3 * samples))
        a, b, c = rows[0::3], rows[1::3], rows[2::3]
        cancellation = np.einsum("nj,ni,jik->nk", triple.d.apply_rows(c),
                                 einsum_endo_defect(triple.sigma, a, b),
                                 triple.module.right_action)
        worst = np.max(triple.module.norms(cancellation), initial=0.0)
        certificate = sigma_endo_certificate(triple, samples=samples, seed=6)
        assert_close_to_einsum(np.array([certificate.max_cancellation]), np.array([worst]))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("fixture", RESIDUAL_FAMILIES)
    def test_residuals_match_per_pair_in_any_memory_layout(self, fixture, layout):
        algebra = residual_algebra(fixture, "changed")
        triple = random_triple(algebra, regular_bimodule(algebra), 7)
        a, b = random_rows(37, algebra.dim, 20), random_rows(37, algebra.dim, 21)
        x, y = laid_out(a, layout), laid_out(b, layout)
        assert_rows_equal(leibniz_residual(triple, x, y)[:, None],
                          [[reference_leibniz(triple, u, v)] for u, v in zip(a, b)])
        assert_rows_equal(endomorphism_residual(triple.sigma, x, y)[:, None],
                          [[reference_endomorphism(triple.sigma, u, v)] for u, v in zip(a, b)])

    @pytest.mark.parametrize("basis", ["standard", "changed"])
    @pytest.mark.parametrize("samples", [0, 1, 40])
    @pytest.mark.parametrize("fixture", RESIDUAL_FAMILIES)
    def test_sigma_endo_certificate_matches_per_sample_loop(self, fixture, samples, basis):
        algebra = residual_algebra(fixture, basis)
        triple = random_triple(algebra, regular_bimodule(algebra), 9)
        rows = reference_ball_rows(algebra, generator(6, "sigma-endo"), [1.0] * (3 * samples))
        worst = 0.0
        for k in range(samples):
            a, b, c = (algebra.element(rows[3 * k + j]) for j in range(3))
            defect = triple.sigma.apply(mul(a, b)) - mul(triple.sigma.apply(a),
                                                         triple.sigma.apply(b))
            worst = max(worst, act_right(triple.d.apply(c), defect).norm())
        certificate = sigma_endo_certificate(triple, samples=samples, seed=6)
        assert certificate.max_cancellation.hex() == worst.hex()
        assert certificate.samples == samples
        # every product vanishes in a zero-product algebra, so its defect does too
        assert (worst > 0.0) == (samples > 0 and not fixture.startswith("zero-product"))


class TestBilinearRows:
    """`bilinear_rows` gives each row the bits of its one-row call."""

    @staticmethod
    def tensors(fixture):
        algebra = get_algebra(fixture)
        regular = regular_bimodule(algebra)
        dual, extended = dual_bimodule(regular), extend_with_annihilator(regular)[0]
        n, m = algebra.dim, extended.dim
        return {"structure": (algebra.structure, n, n),
                "dual left": (dual.left_action, n, n), "dual right": (dual.right_action, n, n),
                "extended left": (extended.left_action, n, m),
                "extended right": (extended.right_action, m, n),
                "zero left": (zero_bimodule(algebra).left_action, n, 0)}

    @pytest.mark.parametrize("fixture", RESIDUAL_FAMILIES + ("matrix:8",))
    def test_rows_match_one_row_calls(self, fixture):
        # 64 rows on matrix:8 is where one matrix-matrix product of the
        # stacked outer products rounds differently from the rows one at a time
        for name, (tensor, p, q) in self.tensors(fixture).items():
            x, y = random_rows(64, p, 30), random_rows(64, q, 31)
            rows = bilinear_rows(x, y, tensor)
            assert rows.shape == (64, tensor.shape[2]), name
            assert_rows_equal(rows, [bilinear_rows(u[None], v[None], tensor)[0]
                                     for u, v in zip(x, y)])
            assert_close_to_einsum(rows, np.einsum("ni,nj,ijk->nk", x, y, tensor))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rows_do_not_depend_on_memory_layout(self, layout):
        tensor, p, q = self.tensors("matrix:3")["dual right"]
        x, y = random_rows(37, p, 32), random_rows(37, q, 33)
        out = bilinear_rows(laid_out(x, layout), laid_out(y, layout), tensor)
        assert out.tobytes() == bilinear_rows(x, y, tensor).tobytes()

    @pytest.mark.parametrize("fixture", ["matrix:2", "zero-product:4"])
    def test_empty_batch(self, fixture):
        for name, (tensor, p, q) in self.tensors(fixture).items():
            out = bilinear_rows(np.zeros((0, p), dtype=complex), np.zeros((0, q)), tensor)
            assert out.shape == (0, tensor.shape[2]) and out.dtype == complex, name
            assert outer_rows(np.zeros((0, p)), np.zeros((0, q))).shape == (0, p * q)


# --- per-point references of the built-in maps ---------------------------------

def reference_keyed_direction(seed, label, coords, out_dim):
    snapped = np.round(coords / QUANT_GRID) * QUANT_GRID
    if out_dim == 0 or not np.any(snapped != 0.0):
        return np.zeros(out_dim, dtype=complex), 0.0
    # the row's bytes with every -0.0 read as 0.0 (`x or 0.0`)
    data = b"".join(struct.pack("<2d", c.real or 0.0, c.imag or 0.0) for c in snapped.tolist())
    prefix = int(seed).to_bytes(8, "little", signed=True) + label
    floats = reference_hashed_floats(prefix, data, 2 * out_dim + 1)
    direction = (2.0 * floats[:out_dim] - 1.0) + 1j * (2.0 * floats[out_dim:2 * out_dim] - 1.0)
    return direction, floats[-1] * (1.0 - 1e-12)


def reference_annihilator(d0, module, basis, spec):
    def f(x):
        value = d0.apply_coords(x)
        if spec.epsilon > 0.0:
            coeffs, magnitude = reference_keyed_direction(spec.seed, b"ann", x, basis.shape[0])
            raw = coeffs @ basis
            scale = module.norm(raw)
            if scale > 0.0:
                value = value + (spec.epsilon * magnitude / scale) * raw
        return value
    return f


def reference_clamped(d0, algebra, module, spec):
    def f(x):
        value = d0.apply_coords(x)
        cut = _smooth_cutoff(algebra.norm(x), spec.region_radius)
        if cut > 0.0:
            a = algebra.element(x)
            budget = min(spec.control.evaluate(a, a) / 3.0, spec.cap) * cut
            if budget > 0.0:
                coeffs, magnitude = reference_keyed_direction(spec.seed, b"clamp", x, module.dim)
                scale = module.norm(coeffs)
                if scale > 0.0:
                    value = value + (budget * magnitude / scale) * coeffs
        return value
    return f


def base_triple(fixture):
    algebra = get_algebra(fixture)
    module, ann = extend_with_annihilator(regular_bimodule(algebra))
    sid = identity_map(algebra)
    d = derivation_space(algebra, module, sid, sid).linear_map(0)
    return algebra, module, ann, DerivationTriple(d, sid, sid)


def annihilator_case(fixture, epsilon=1e-2, seed=5):
    algebra, module, ann, triple = base_triple(fixture)
    spec = PerturbationSpec(mode="annihilator", epsilon=epsilon, seed=seed)
    maps = make_annihilator_perturbation(triple, spec, ann)
    return maps, reference_annihilator(triple.d, module, ann, spec)


def clamped_case(fixture, radius=1.0, cap=float("inf"), seed=3):
    algebra, module, _, triple = base_triple(fixture)
    spec = PerturbationSpec(mode="clamped", control=PNormControl(0.05, 0.1, 0.5),
                            region_radius=radius, cap=cap, seed=seed)
    maps = make_clamped_perturbation(triple, spec)
    return maps, reference_clamped(triple.d, algebra, module, spec)


def doubling_rows(dim, seed):
    """Ball points across scales and their doublings, as extraction visits them."""
    rng = generator(seed, "rows")
    points = [ball_point_at(dim, rng, s) for s in (0.25, 1.0, 4.0, 16.0) for _ in range(12)]
    rows = np.array([2.0**n * p for p in points for n in (0, 1, 5, 20, 40)])
    rows[3] = 0.0
    return rows


def ball_point_at(dim, rng, scale):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v * (scale * rng.uniform() / np.abs(v).sum())


class TestEvalRows:
    @pytest.mark.parametrize("fixture", FAMILIES)
    def test_linear_map(self, fixture):
        algebra, _, _, triple = base_triple(fixture)
        pmap = PointMap.from_linear_map(triple.d)
        rows = doubling_rows(algebra.dim, 1)
        assert_rows_equal(pmap.eval_rows(rows), [triple.d.apply_coords(r) for r in rows])
        assert_rows_equal(pmap.eval_rows(rows), [pmap.eval_coords(r) for r in rows])

    @pytest.mark.parametrize("fixture", FAMILIES)
    def test_annihilator_map(self, fixture):
        maps, reference = annihilator_case(fixture)
        rows = doubling_rows(maps.f.domain.dim, 2)
        out = maps.f.eval_rows(rows)
        assert_rows_equal(out, [reference(r) for r in rows])
        assert_rows_equal(out, [maps.f.eval_coords(r) for r in rows])

    @pytest.mark.parametrize("radius, cap", [(1.0, float("inf")), (4.0, 0.002), (64.0, 0.0)])
    @pytest.mark.parametrize("fixture", FAMILIES)
    def test_clamped_map(self, fixture, radius, cap):
        maps, reference = clamped_case(fixture, radius, cap)
        rows = doubling_rows(maps.f.domain.dim, 3) / 8.0  # many rows inside the region
        out = maps.f.eval_rows(rows)
        assert_rows_equal(out, [reference(r) for r in rows])
        assert_rows_equal(out, [maps.f.eval_coords(r) for r in rows])

    def test_per_point_user_map_is_looped(self):
        algebra, module, _, triple = base_triple("matrix:2")
        calls = []

        def func(x):
            calls.append(1)
            return np.sin(algebra.norm(x)) * triple.d.apply_coords(x)

        pmap = PointMap(func, algebra, module)
        rows = doubling_rows(algebra.dim, 4)
        calls.clear()
        out = pmap.eval_rows(rows)
        assert len(calls) == len(rows)
        assert_rows_equal(out, [func(r) for r in rows])
        assert_rows_equal(out, [pmap.eval_coords(r) for r in rows])

    @pytest.mark.parametrize("case", ["linear", "annihilator", "user"])
    def test_zero_rows(self, case):
        maps, _ = annihilator_case("matrix:2")
        pmap = {"linear": maps.g_sigma, "annihilator": maps.f,
                "user": PointMap(maps.f.eval_coords, maps.f.domain, maps.f.codomain)}[case]
        out = pmap.eval_rows(np.zeros((0, pmap.domain.dim), dtype=complex))
        assert out.shape == (0, pmap.codomain.dim)

    def test_zero_dimensional_codomain(self):
        algebra = get_algebra("matrix:2")
        zero = zero_bimodule(algebra)
        pmap = PointMap.from_linear_map(LinearMap(np.zeros((0, 4)), algebra, zero))
        out = pmap.eval_rows(random_rows(5, 4, 6))
        assert out.shape == (5, 0)
        assert zero.norms(out).tobytes() == np.zeros(5).tobytes()


# --- extraction against the one-orbit-at-a-time loop ---------------------------

def doubled(a, k):
    """2^k a with the real and imaginary parts scaled apart: every zero keeps
    its sign, as it does in the doubling tables."""
    return a.space.element(np.ldexp(a.coords.view(float), k).view(complex))


def reference_tails(phi, a, count):
    """The remainder of the doubling series at (a, a) after n doublings, for
    each n <= count, in Python floats at one point.

    A power-norm control gives alpha 2^-n + beta |a|^p q^n / (1 - q) with
    q = 2^p / 2. A tabulated control's DEFAULT_TRUNCATION terms
    (1/2) 2^-k phi(2^k a, 2^k a), one scaled element per term, are summed
    from the last one down, and the geometric bound on the terms
    k >= max(n, DEFAULT_TRUNCATION) is added to each suffix sum.
    """
    if isinstance(phi, PNormControl):
        q = 2.0**phi.p / 2.0
        t = a.norm()
        scale = phi.beta * (0.0 if t == 0.0 else t**phi.p)
        return [math.ldexp(phi.alpha, -n) + scale * q**n / (1.0 - q) for n in range(count + 1)]
    q = phi.growth_exponent
    values = [phi.evaluate(x, x) for x in (doubled(a, k) for k in range(DEFAULT_TRUNCATION))]
    growth = 0.0
    for k, value in enumerate(values):
        growth = max(growth, value / 2.0 ** (k * q))
    suffix, total = [0.0] * (max(count, DEFAULT_TRUNCATION) + 1), 0.0
    for k in reversed(range(DEFAULT_TRUNCATION)):
        total += 0.5 * 2.0**-k * values[k]
        suffix[k] = total
    return [suffix[n] + 0.5 * growth * 2.0 ** (-max(n, DEFAULT_TRUNCATION) * (1.0 - q))
            / (1.0 - 2.0 ** (q - 1.0)) for n in range(count + 1)]


def reference_orbit(pmap, coords, phi, max_n, tol):
    tails = reference_tails(phi, pmap.domain.element(coords), max_n)
    current = pmap.eval_coords(coords)
    delta = np.inf
    tail = tails[0]
    for n in range(1, max_n + 1):
        nxt = pmap.eval_coords(2.0**n * coords) / 2.0**n
        delta = pmap.codomain.norm(nxt - current)
        current = nxt
        tail = tails[n]
        if tail <= tol or delta == 0.0:
            return current, n, delta, tail
    raise ConvergenceError("not converged",
                           diagnostics={"iterations": max_n, "delta": float(delta),
                                        "tail": float(tail)})


def reference_extraction(pmap, phi, max_n=48, tol=1e-10, seed=0):
    domain, codomain = pmap.domain, pmap.codomain
    columns = np.zeros((codomain.dim, domain.dim), dtype=complex)
    its, deltas, tails = [], [], []
    for i in range(domain.dim):
        limit, n, delta, tail = reference_orbit(pmap, domain.basis_element(i).coords,
                                                phi, max_n, tol)
        columns[:, i] = limit
        its.append(n)
        deltas.append(float(delta))
        tails.append(float(tail))
    drawn = reference_ball_rows(domain, generator(seed, "extract-additivity"),
                                [1.0] * (2 * ADDITIVITY_PAIRS))
    for a, b in zip(drawn[0::2], drawn[1::2]):
        for point in (a, b, a + b):
            reference_orbit(pmap, point, phi, max_n, tol)
    return columns, its, deltas, tails


def sublinear_map(algebra, module):
    """A map that grows like |a|^0.9: its doubling sequence tends to 0 but no
    summed control of exponent < 0.9 certifies it, so rows stay unconverged."""
    direction = module.basis_element(0).coords
    return PointMap(lambda x: algebra.norm(x) ** 0.9 * direction, algebra, module)


EXTRACTION_CONTROLS = {
    "constant": lambda maps: maps.control,
    "pnorm": lambda maps: PNormControl(maps.control.alpha, 1e-3, 0.25),
    "tabulated": lambda maps: TabulatedControl(lambda a, b: maps.control.alpha, 0.0),
}


class TestExtractionRows:
    @pytest.mark.parametrize("control", EXTRACTION_CONTROLS)
    @pytest.mark.parametrize("fixture", ["matrix:2", "upper-triangular:3", "zero-product:4"])
    def test_matches_one_orbit_at_a_time(self, fixture, control):
        maps, _ = annihilator_case(fixture, epsilon=1e-3, seed=11)
        phi = EXTRACTION_CONTROLS[control](maps)
        report = extract_additive(maps.f, phi, seed=4)
        columns, its, deltas, tails = reference_extraction(maps.f, phi, seed=4)
        assert report.limit.matrix.tobytes() == columns.tobytes()
        assert report.per_basis_iterations == its
        assert report.per_basis_final_delta == deltas
        assert report.per_basis_tail_bound == tails
        assert all(type(n) is int for n in report.per_basis_iterations)

    @pytest.mark.parametrize("max_n", [1, 3, 25, 48, 70])
    @pytest.mark.parametrize("control", ["pnorm", "tabulated"])
    def test_nonconvergence_diagnostics_match(self, control, max_n):
        algebra, module, _, _ = base_triple("matrix:2")
        pmap = sublinear_map(algebra, module)
        phi = {"pnorm": PNormControl(0.0, 1.0, 0.9),
               "tabulated": TabulatedControl(
                   lambda a, b: a.norm() ** 0.9 + b.norm() ** 0.9, 0.9)}[control]
        with pytest.raises(ConvergenceError) as ours:
            extract_additive(pmap, phi, max_n=max_n, tol=1e-10)
        with pytest.raises(ConvergenceError) as reference:
            reference_orbit(pmap, algebra.basis_element(0).coords, phi, max_n, 1e-10)
        assert ours.value.diagnostics == reference.value.diagnostics
        assert str(ours.value) == str(_not_converged(max_n, **{
            key: reference.value.diagnostics[key] for key in ("delta", "tail")}))
        assert ours.value.diagnostics["iterations"] == max_n
        delta, tail = ours.value.diagnostics["delta"], ours.value.diagnostics["tail"]
        assert f"delta={delta:.3e}, tail={tail:.3e}" in str(ours.value)

    def test_first_unconverged_orbit_in_basis_order(self):
        # only the second basis direction grows sublinearly: the error
        # carries that orbit's diagnostics, not the first row's
        algebra, module, _, _ = base_triple("matrix:2")
        direction = module.basis_element(0).coords

        def func(x):
            return abs(x[1]) ** 0.9 * direction

        pmap = PointMap(func, algebra, module)
        phi = PNormControl(0.0, 1.0, 0.9)
        with pytest.raises(ConvergenceError) as ours:
            extract_additive(pmap, phi, max_n=20, tol=1e-10)
        with pytest.raises(ConvergenceError) as reference:
            reference_orbit(pmap, algebra.basis_element(1).coords, phi, 20, 1e-10)
        assert ours.value.diagnostics == reference.value.diagnostics


# --- hypothesis sampling against the one-sample-at-a-time loop -----------------

def reference_hypotheses(f, g_sigma, g_tau, phi, lambda_mode, samples, seed, scales):
    lambdas = lambda_grid(lambda_mode)
    rng = generator(seed, "hypotheses")
    algebra, module = f.domain, f.codomain
    maxima = {"additive": 0.0, "twist_additive": 0.0, "product": 0.0, "multiplicative": 0.0}
    witness = None

    def ratio_of(defect, budget, dust):
        if budget > 0.0:
            return defect / budget
        return 0.0 if defect <= dust else math.inf

    # each evaluation block of samples draws its points in one ball_rows call
    drawn = []
    for start in range(0, samples, HYPOTHESIS_BLOCK):
        block = range(start, min(start + HYPOTHESIS_BLOCK, samples))
        drawn += reference_ball_rows(algebra, rng, [scales[k % len(scales)]
                                                    for k in block for _ in range(2)])
    for k in range(samples):
        scale = scales[k % len(scales)]
        lam = complex(lambdas[k % len(lambdas)])
        a, b = drawn[2 * k], drawn[2 * k + 1]
        budget = phi.evaluate(algebra.element(a), algebra.element(b))
        dust = 1e-12 * (1.0 + scale) * (1.0 + scale)
        fa, fb = f.eval_coords(a), f.eval_coords(b)
        ab = np.einsum("i,j,ijk->k", a, b, algebra.structure)
        defects = [("additive", module.norm(f.eval_coords(lam * (a + b)) - lam * fa - lam * fb))]
        for g in (g_sigma, g_tau):
            defects.append(("twist_additive", algebra.norm(
                g.eval_coords(lam * (a + b)) - lam * g.eval_coords(a) - lam * g.eval_coords(b))))
        defects.append(("product", module.norm(
            f.eval_coords(ab) - module.right_matrix(g_sigma.eval_coords(b)) @ fa
            - module.left_matrix(g_tau.eval_coords(a)) @ fb)))
        defects.append(("multiplicative", algebra.norm(
            g_tau.eval_coords(ab) - np.einsum("i,j,ijk->k", g_tau.eval_coords(a),
                                              g_tau.eval_coords(b), algebra.structure))))
        for name, defect in defects:
            ratio = ratio_of(defect, budget, dust)
            maxima[name] = max(maxima[name], ratio)
            if ratio > 1.0 and (witness is None or ratio > witness[1]):
                witness = (name, ratio, scale, lam, a, b)
    return maxima, witness


def assert_same_report(report, maxima, witness):
    # the rows form its three-index products as outer products and matrix
    # products, the reference per point through einsum: the sums are taken
    # in another order, and the cancelling product defects keep the
    # difference to about 1e-14 relative
    assert report.maxima() == pytest.approx(
        {f"{name}_max": value for name, value in maxima.items()}, rel=1e-12)
    if witness is None:
        assert report.verdict == "satisfied" and report.witness is None
        return
    assert report.verdict == "violated"
    w = report.witness
    assert (w.equation, w.scale, w.lam) == (witness[0], *witness[2:4])
    assert w.ratio == pytest.approx(witness[1], rel=1e-12)
    assert w.a.tobytes() == witness[4].tobytes() and w.b.tobytes() == witness[5].tobytes()


class TestHypothesisRows:
    @pytest.mark.parametrize("mode", ["full", "one-i"])
    @pytest.mark.parametrize("fixture", ["matrix:2", "matrix:3", "upper-triangular:3"])
    def test_annihilator_maps(self, fixture, mode):
        maps, _ = annihilator_case(fixture, epsilon=1e-3)
        # a budget below the noise makes ratios above 1, so the witness is compared too
        for phi in (maps.control, constant_control(1e-3), PNormControl(1e-4, 1e-4, 0.5)):
            report = verify_hypotheses(maps.f, maps.g_sigma, maps.g_tau, phi,
                                       lambda_mode=mode, samples=200, seed=8)
            expected = reference_hypotheses(maps.f, maps.g_sigma, maps.g_tau, phi, mode,
                                            200, 8, SCALE_GRID)
            assert_same_report(report, *expected)

    @pytest.mark.parametrize("mode", ["full", "one-i"])
    def test_violated_clamped_region(self, mode):
        _, _, _, triple = base_triple("matrix:2")
        spec = PerturbationSpec(mode="clamped", control=constant_control(0.1),
                                region_radius=64.0, seed=3)
        maps = make_clamped_perturbation(triple, spec)
        scales = tuple(s * spec.region_radius / max(SCALE_GRID) for s in SCALE_GRID)
        # more samples than one evaluation block, so blocks are merged too
        report = verify_hypotheses(maps.f, maps.g_sigma, maps.g_tau, spec.control,
                                   lambda_mode=mode, samples=1100, seed=spec.seed,
                                   scales=scales)
        expected = reference_hypotheses(maps.f, maps.g_sigma, maps.g_tau, spec.control,
                                        mode, 1100, spec.seed, scales)
        assert report.verdict == "violated"
        assert_same_report(report, *expected)


# --- ball draws, keyed hashes and control sums on rows --------------------------

def reference_ball_point(space, rng, scale):
    """One ball point drawn and scaled on its own: its normals, then its
    fraction."""
    return reference_ball_rows(space, rng, [scale])[0]


def reference_ball_rows(space, rng, radii):
    """Ball points as ball_rows defines them, one point at a time: every
    point's normals in order, then every point's fraction, then each point
    scaled on its own."""
    if space.dim == 0:
        return [np.zeros(0, dtype=complex) for _ in radii]
    normals = [rng.standard_normal(2 * space.dim) for _ in radii]
    fractions = [rng.uniform() for _ in radii]
    points = []
    for z, scale, fraction in zip(normals, radii, fractions):
        v = z[:space.dim] + 1j * z[space.dim:]
        nv = space.norm(v)
        points.append(np.zeros(space.dim, dtype=complex) if nv == 0.0
                      else v * (scale * fraction / nv))
    return points


MASK64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_hashed_floats(prefix, data, count):
    """The floats hashed_unit_rows gives one row with bytes `data`, as its
    docstring defines them, in Python ints."""
    key = hashlib.blake2b(prefix, digest_size=16).digest()
    k0, k1 = int.from_bytes(key[:8], "little"), int.from_bytes(key[8:], "little")
    h = 0
    for j in range(len(data) // 8):
        word = int.from_bytes(data[8 * j : 8 * j + 8], "little")
        h = (h + word * (splitmix64_mix((k0 + (j + 1) * GOLDEN) & MASK64) | 1)) & MASK64
    h ^= k1
    return np.array([(splitmix64_mix((h + (i + 1) * GOLDEN) & MASK64) >> 11) * 2.0**-53
                     for i in range(count)], dtype=float)


class ZeroingRng:
    """Philox draws, except that every normal of the listed points is zero.

    Draws are counted, so the row form and the per-point loop can be
    compared on how much of the stream they consume.
    """

    def __init__(self, dim, zero_points, seed=17):
        self.inner = generator(seed, "zeroing")
        self.per_point = 2 * dim
        self.zero_points = set(zero_points)
        self.normals = 0
        self.uniforms = 0

    def standard_normal(self, size=None, out=None):
        shape = out.shape if out is not None else size
        values = []
        for _ in range(int(np.prod(shape))):
            zero = self.normals // self.per_point in self.zero_points
            values.append(0.0 if zero else self.inner.standard_normal())
            self.normals += 1
        if out is None:
            return np.reshape(values, shape)
        out[...] = np.reshape(values, out.shape)
        return out

    def uniform(self):
        self.uniforms += 1
        return self.inner.uniform()

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self.inner.random(size)

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self.inner.bit_generator.state, self.normals, self.uniforms

    @state.setter
    def state(self, value):
        self.inner.bit_generator.state, self.normals, self.uniforms = value


RADII = [0.25, 1.0, 4.0, 16.0, 0.0, 3.5, 1e-300, 2.0**40]


class TestSamplingRows:
    @pytest.mark.parametrize("kind", ["algebra", "extended", "dual", "zero"])
    @pytest.mark.parametrize("count", [0, 1, 37])
    def test_ball_rows_match_point_loops(self, family, kind, count):
        space = family[1][kind]
        radii = [RADII[k % len(RADII)] for k in range(count)]
        rows = ball_rows(space, generator(5, "ball"), radii)
        assert rows.shape == (count, space.dim) and rows.dtype == complex
        rng = generator(5, "ball")
        assert_rows_equal(rows, reference_ball_rows(space, rng, radii))
        # one point is the one-row case
        for k, r in enumerate(radii):
            assert_rows_equal(ball_point(space, generator(5, "point", k), r)[None],
                              [reference_ball_point(space, generator(5, "point", k), r)])
        # the same stream was consumed: the next draws agree
        consumed = generator(5, "ball")
        ball_rows(space, consumed, radii)
        assert consumed.random() == rng.random()

    @pytest.mark.parametrize("count", [1, 37])
    def test_ball_rows_consume_one_normal_block_and_one_fraction_block(self, family, count):
        space = family[1]["algebra"]
        ours, block = generator(9, "block"), generator(9, "block")
        ball_rows(space, ours, np.full(count, 2.0))
        block.standard_normal((count, 2, space.dim))
        block.random(count)
        np.testing.assert_equal(ours.bit_generator.state, block.bit_generator.state)

    def test_dim_zero_and_no_rows_draw_nothing(self):
        zero = zero_bimodule(get_algebra("matrix:2"))
        stub = ZeroingRng(0, ())
        assert ball_rows(zero, stub, [1.0, 2.0]).shape == (2, 0)
        assert ball_point(zero, stub, 1.0).shape == (0,)
        algebra = get_algebra("matrix:2")
        assert ball_rows(algebra, stub, []).shape == (0, 4)
        assert stub.normals == stub.uniforms == 0

    @pytest.mark.parametrize("zero_points", [range(6), (0,), (2, 5), ()])
    def test_zero_draws_stay_zero_and_take_their_fraction(self, zero_points):
        space = get_algebra("upper-triangular:3")
        radii = [1.0, 4.0, 0.25, 16.0, 2.0, 1.0]
        ours = ZeroingRng(space.dim, zero_points)
        rows = ball_rows(space, ours, radii)
        reference = ZeroingRng(space.dim, zero_points)
        assert_rows_equal(rows, reference_ball_rows(space, reference, radii))
        assert (ours.normals, ours.uniforms) == (reference.normals, reference.uniforms)
        assert ours.uniforms == len(radii)
        for k in zero_points:
            assert rows[k].tobytes() == np.zeros(space.dim, dtype=complex).tobytes()

    @pytest.mark.parametrize("kind", ["algebra", "extended", "dual", "zero"])
    @pytest.mark.parametrize("count", [0, 1, 37])
    def test_sphere_rows_match_point_loops(self, family, kind, count):
        space = family[1][kind]
        rows = sphere_rows(space, generator(5, "sphere"), count, 2.5)
        assert rows.shape == (count, space.dim) and rows.dtype == complex
        rng = generator(5, "sphere")
        assert_rows_equal(rows, [sphere_point(space, rng, 2.5) for _ in range(count)])
        # the same stream was consumed: the next draws agree
        consumed = generator(5, "sphere")
        sphere_rows(space, consumed, count, 2.5)
        assert consumed.random() == rng.random()

    @pytest.mark.parametrize("zero_points", [(0,), (2, 5), range(3), ()])
    def test_sphere_rows_replay_zero_draws_point_by_point(self, family, zero_points):
        # a point whose normals are all zero is drawn again, so the points
        # after it start later in the stream
        space = family[1]["algebra"]
        ours = ZeroingRng(space.dim, zero_points)
        rows = sphere_rows(space, ours, 6, 1.0)
        reference = ZeroingRng(space.dim, zero_points)
        assert_rows_equal(rows, [sphere_point(space, reference, 1.0) for _ in range(6)])
        assert ours.normals == reference.normals == 2 * space.dim * (6 + len(zero_points))
        assert ours.inner.random() == reference.inner.random()
        assert np.all(space.norms(rows) > 0.0)

    def test_ball_points_cycle_the_scale_grid(self):
        space = get_algebra("matrix:3")
        points = ball_points(space, generator(6, "grid"), 10)
        rng = generator(6, "grid")
        assert_rows_equal(points, reference_ball_rows(space, rng, [SCALE_GRID[k % 4]
                                                                   for k in range(10)]))

    @pytest.mark.parametrize("count", [1, 3, 8, 9, 17])
    @pytest.mark.parametrize("rows", [0, 1, 25])
    def test_hashed_unit_rows_match_per_row(self, count, rows):
        prefix = (7).to_bytes(8, "little", signed=True) + b"ann"
        data = random_rows(rows, 5, 8)
        out = hashed_unit_rows(prefix, data, count)
        assert out.shape == (rows, count) and out.dtype == float
        assert_rows_equal(out, [hashed_unit_rows(prefix, data[k:k + 1], count)[0]
                                for k in range(rows)])
        assert_rows_equal(out, [reference_hashed_floats(prefix, r.tobytes(), count)
                                for r in data])

    @pytest.mark.parametrize("count", [0, 1, 9, 17])
    def test_hashed_unit_floats_is_one_row(self, count):
        out = hashed_unit_floats(b"payload", count)
        assert out.tobytes() == reference_hashed_floats(b"payload", b"", count).tobytes()


def reference_summed_control(phi, a, b):
    """(value, tail bound) of the doubling sum, one scaled element per term."""
    if isinstance(phi, PNormControl):
        if phi.beta == 0.0:
            return phi.alpha, 0.0
        s = sum(0.0 if t == 0.0 else t**phi.p for t in (a.norm(), b.norm()))
        return phi.alpha + phi.beta * s / (2.0 - 2.0**phi.p), 0.0
    q = phi.growth_exponent
    partials, growth = [], 0.0
    for n in range(64):
        point = 2.0**n * a
        value = phi.evaluate(point, point if b is a else 2.0**n * b)
        partials.append(0.5 * 2.0**-n * value)
        growth = max(growth, value / 2.0 ** (n * q))
    tail = 0.5 * growth * 2.0 ** (-64 * (1.0 - q)) / (1.0 - 2.0 ** (q - 1.0))
    return math.fsum(partials), tail


ROW_CONTROLS = {
    "constant": constant_control(3e-3),
    "pnorm": PNormControl(3e-3, 1e-2, 0.5),
    "negative-p": PNormControl(1e-3, 2e-2, -0.5),
    "tabulated": TabulatedControl(
        lambda a, b: 1e-3 + 1e-2 * (a.norm() ** 0.25 + 2.0 * b.norm() ** 0.5), 0.5),
}


def control_rows(dim, seed):
    rows = random_rows(12, dim, seed)
    rows[1] = 0.0  # a zero row next to nonzero ones
    return rows


class TestControlRows:
    @pytest.mark.parametrize("control", ROW_CONTROLS)
    @pytest.mark.parametrize("fixture", ["matrix:2", "upper-triangular:3"])
    def test_phi_rows_match_evaluate(self, fixture, control):
        phi, space = ROW_CONTROLS[control], get_algebra(fixture)
        a, b = control_rows(space.dim, 9), control_rows(space.dim, 10)
        assert_rows_equal(phi_rows(phi, space, a, b)[:, None],
                          [[phi.evaluate(space.element(x), space.element(y))]
                           for x, y in zip(a, b)])
        assert_rows_equal(phi_rows(phi, space, a, a)[:, None],
                          [[phi.evaluate(space.element(x), space.element(x))] for x in a])

    @pytest.mark.parametrize("control", ROW_CONTROLS)
    @pytest.mark.parametrize("fixture", ["matrix:2", "upper-triangular:3"])
    def test_summed_rows_match_summed_control(self, fixture, control):
        phi, space = ROW_CONTROLS[control], get_algebra(fixture)
        a, b = control_rows(space.dim, 11), control_rows(space.dim, 12)
        for b_rows in (a, b):
            values, tails = summed_control_rows(phi, space, a, b_rows)
            pairs = [(space.element(x), space.element(y)) for x, y in zip(a, b_rows)]
            sums = [summed_control(phi, x, x if b_rows is a else y) for x, y in pairs]
            references = [reference_summed_control(phi, x, x if b_rows is a else y)
                          for x, y in pairs]
            assert_rows_equal(values[:, None], [[s.value] for s in sums])
            assert_rows_equal(values[:, None], [[r[0]] for r in references])
            if tails is None:
                assert all(s.closed_form and s.tail_bound == 0.0 for s in sums)
            else:
                assert_rows_equal(tails[:, None], [[s.tail_bound] for s in sums])
                assert_rows_equal(tails[:, None], [[r[1]] for r in references])

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_summed_rows_call_the_control_as_the_per_term_loop(self, diagonal):
        space = get_algebra("matrix:2")
        a = control_rows(space.dim, 18)  # signed zeros in some coordinates
        b = a if diagonal else control_rows(space.dim, 19)
        ours, reference = LoggedCallback(), LoggedCallback()
        summed_control_rows(TabulatedControl(ours, 0.5), space, a, b)
        phi = TabulatedControl(reference, 0.5)
        for x, y in zip(a, b):
            x = space.element(x)
            reference_summed_control(phi, x, x if diagonal else space.element(y))
        assert ours.calls == reference.calls

    def test_negative_zero_budgets(self):
        # a budget of -0.0 passes the value check; the growth scale starts at
        # +0.0, so the tail bound stays +0.0
        space = get_algebra("matrix:2")
        phi = TabulatedControl(lambda a, b: -0.0, 0.5)
        rows = control_rows(space.dim, 20)
        values, tails = summed_control_rows(phi, space, rows, rows)
        expected = [reference_summed_control(phi, e, e) for e in map(space.element, rows)]
        assert_rows_equal(values[:, None], [[value] for value, _ in expected])
        assert_rows_equal(tails[:, None], [[bound] for _, bound in expected])

    @pytest.mark.parametrize("control", ROW_CONTROLS)
    def test_sampled_envelope_reads_summed_control_upper(self, control):
        phi = ROW_CONTROLS[control]
        _, _, _, triple = base_triple("matrix:2")
        points = control_rows(triple.d.domain.dim, 13)
        _, rhs = sampled_envelope(PointMap.from_linear_map(triple.d), triple.d, points, phi)
        elements = [triple.d.domain.element(p) for p in points]
        assert_rows_equal(rhs[:, None], [[summed_control(phi, e, e).upper] for e in elements])
        uppers = [[value + bound] for value, bound in
                  (reference_summed_control(phi, e, e) for e in elements)]
        assert_rows_equal(rhs[:, None], uppers)

    @pytest.mark.parametrize("control", ROW_CONTROLS)
    @pytest.mark.parametrize("max_n", [3, 48])
    def test_pointwise_limit_tails_match_control_tail(self, control, max_n):
        phi = ROW_CONTROLS[control]
        maps, _ = annihilator_case("upper-triangular:3", epsilon=1e-3)
        domain = maps.f.domain
        rows = np.vstack([np.eye(domain.dim, dtype=complex), control_rows(domain.dim, 14)])
        _, iterations, _, tails, _ = _pointwise_limits(maps.f, rows, phi, max_n, 1e-10)
        for row, n, tail in zip(rows, iterations.tolist(), tails.tolist()):
            element = domain.element(row)
            assert tail.hex() == summed_control_tail(phi, element, n).hex()
            assert tail.hex() == reference_tails(phi, element, n)[n].hex()


# --- the batched doubling engine against the step-major loop -------------------

def engine_case(kind):
    """(map, rows): basis vectors, random rows across scales and the same
    rows scaled into the clamped region."""
    algebra, module, _, triple = base_triple("matrix:2")
    pmap = {
        "annihilator": lambda: annihilator_case("matrix:2", epsilon=1e-3)[0].f,
        "linear": lambda: PointMap.from_linear_map(triple.d),
        "clamped": lambda: clamped_case("matrix:2", radius=1.0)[0].f,
        "sublinear": lambda: sublinear_map(algebra, module),
    }[kind]()
    small = control_rows(algebra.dim, 21) * 2.0**-8
    rows = np.vstack([np.eye(algebra.dim, dtype=complex), control_rows(algebra.dim, 22), small])
    return pmap, rows


ENGINE_CASES = ("annihilator", "linear", "clamped", "sublinear")
ENGINE_MAX_N = (1, 3, 25, 48, 70)


class TestDoublingEngine:
    @pytest.mark.parametrize("max_n", ENGINE_MAX_N)
    @pytest.mark.parametrize("control", ROW_CONTROLS)
    @pytest.mark.parametrize("kind", ENGINE_CASES)
    def test_matches_the_step_major_loop(self, kind, control, max_n):
        pmap, rows = engine_case(kind)
        phi = ROW_CONTROLS[control]
        got = _pointwise_limits(pmap, rows, phi, max_n, 1e-10)
        expected = reference_pointwise_limits(pmap, rows, phi, max_n, 1e-10)
        for x, y in zip(got, expected):
            assert x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()

    def test_cases_cover_every_stopping_rule(self):
        # linear maps stop at n = 1; clamped noise leaves exact-zero deltas
        # at n >= 2; sublinear rows never converge; noisy rows stop on the tail
        def run(kind, control):
            return _pointwise_limits(*engine_case(kind), ROW_CONTROLS[control], 48, 1e-10)

        _, iterations, _, _, converged = run("linear", "pnorm")
        assert set(iterations.tolist()) == {1} and converged.all()
        _, iterations, deltas, _, _ = run("clamped", "pnorm")
        assert np.any((iterations >= 2) & (deltas == 0.0))
        _, iterations, _, _, converged = run("sublinear", "pnorm")
        assert not converged.all() and np.all(iterations[~converged] == 48)
        _, iterations, deltas, tails, converged = run("annihilator", "constant")
        noisy = deltas > 0.0
        assert converged.all() and noisy.any() and np.all(tails[noisy] <= 1e-10)

    def test_looped_map_sees_each_orbit_in_order(self):
        maps, _ = annihilator_case("matrix:2", epsilon=1e-3)
        seen = []

        def func(x):
            seen.append(x.tobytes())
            return maps.f.eval_coords(x)

        pmap = PointMap(func, maps.f.domain, maps.f.codomain)
        dim = pmap.domain.dim
        rows = np.vstack([np.eye(dim, dtype=complex), control_rows(dim, 23)])
        seen.clear()
        _, iterations, _, _, _ = _pointwise_limits(pmap, rows, ROW_CONTROLS["pnorm"], 48, 1e-10)
        orbits = [(2.0**n * row).tobytes()
                  for row, stop in zip(rows, iterations.tolist()) for n in range(2, stop + 1)]
        assert seen == [r.tobytes() for r in rows] + [(2.0 * r).tobytes() for r in rows] + orbits


# --- invalid tabulated values: the same error from the same first (row, term) ---

class LoggedCallback:
    """A tabulated budget that logs each argument pair and returns an invalid
    value (minus the call number) at call `fail_at`, or once the argument
    norm exceeds `above`."""

    def __init__(self, fail_at=None, above=math.inf):
        self.fail_at = fail_at
        self.above = above
        self.calls = []

    def __call__(self, a, b):
        self.calls.append(a.coords.tobytes() + b.coords.tobytes())
        if len(self.calls) == self.fail_at or a.norm() > self.above:
            return -float(len(self.calls))
        return 1e-3 + 1e-4 * (a.norm() + b.norm()) ** 0.5


def reference_pointwise_limits(pmap, rows, phi, max_n, tol):
    """The doubling loop with each row's reference_tails, made row after row."""
    certificates = [reference_tails(phi, pmap.domain.element(c), max(max_n, 0)) for c in rows]
    limits = pmap.eval_rows(rows)
    count = len(rows)
    iterations, deltas = np.full(count, max_n), np.full(count, np.inf)
    tails = np.array([c[0] for c in certificates], dtype=float)
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    for n in range(1, max_n + 1):
        if not len(active):
            break
        nxt = pmap.eval_rows(2.0**n * rows[active]) / 2.0**n
        deltas[active] = pmap.codomain.norms(nxt - limits[active])
        limits[active] = nxt
        tails[active] = [certificates[r][n] for r in active]
        stop = (tails[active] <= tol) | (deltas[active] == 0.0)
        iterations[active[stop]] = n
        converged[active[stop]] = True
        active = active[~stop]
    return limits, iterations, deltas, tails, converged


def table_queries(space, rows, width):
    """The log of one diagonal query per (row, term k < width), row after
    row, of the scaled points 2^k a."""
    return [2 * (2.0**k * space.element(row)).coords.tobytes()
            for row in rows for k in range(width)]


def outcome(run, callback):
    try:
        result = run()
    except ControlError as exc:
        return str(exc), callback.calls
    return result, callback.calls


class TestInvalidTabulatedValues:
    def test_sampled_envelope_fails_at_the_first_row_and_term(self):
        _, _, _, triple = base_triple("matrix:2")
        pmap = PointMap.from_linear_map(triple.d)
        points = ball_points(triple.d.domain, generator(15, "points"), 8)
        ours, reference = LoggedCallback(above=2.0**20), LoggedCallback(above=2.0**20)
        message, calls = outcome(lambda: sampled_envelope(
            pmap, triple.d, points, TabulatedControl(ours, 0.5)), ours)
        phi = TabulatedControl(reference, 0.5)
        expected = outcome(lambda: [reference_summed_control(phi, e, e) for e in
                                    (triple.d.domain.element(p) for p in points)], reference)
        assert "invalid value" in message
        assert (message, calls) == expected
        assert len(calls) < 64  # the first point fails at its first large term

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.6, 0.9, 1.0])
    def test_doubling_loop_fails_at_the_same_call(self, fraction):
        # the loop reads the summed control's table: a failure at any call
        # is the one summed_control_rows meets at the same (row, term)
        maps, _ = annihilator_case("matrix:2", epsilon=1e-3)
        domain = maps.f.domain
        rows = np.vstack([np.eye(domain.dim, dtype=complex), control_rows(domain.dim, 16)])
        fail_at = 1 + int(fraction * (DEFAULT_TRUNCATION * len(rows) - 1))
        ours, reference = LoggedCallback(fail_at), LoggedCallback(fail_at)
        message, calls = outcome(lambda: _pointwise_limits(
            maps.f, rows, TabulatedControl(ours, 0.5), 48, 1e-10), ours)
        expected = outcome(lambda: summed_control_rows(
            TabulatedControl(reference, 0.5), domain, rows, rows), reference)
        assert message == expected[0]
        assert message == f"control callback returned invalid value {-float(fail_at)!r}"
        assert calls == expected[1]
        assert calls == table_queries(domain, rows, DEFAULT_TRUNCATION)[:fail_at]

    def test_doubling_loop_without_failure_matches(self):
        # each (row, k < DEFAULT_TRUNCATION) is queried once, in the summed
        # control's row-major order, whatever max_n is
        maps, _ = annihilator_case("upper-triangular:3", epsilon=1e-3)
        domain = maps.f.domain
        rows = np.vstack([np.eye(domain.dim, dtype=complex), control_rows(domain.dim, 17)])
        for max_n in (5, 48, 70):
            ours, reference = LoggedCallback(), LoggedCallback()
            got = _pointwise_limits(maps.f, rows, TabulatedControl(ours, 0.5), max_n, 1e-10)
            expected = reference_pointwise_limits(maps.f, rows, TabulatedControl(reference, 0.5),
                                                  max_n, 1e-10)
            for x, y in zip(got, expected):
                assert x.tobytes() == y.tobytes()
            assert ours.calls == table_queries(domain, rows, DEFAULT_TRUNCATION)
            logged = LoggedCallback()
            summed_control_rows(TabulatedControl(logged, 0.5), domain, rows, rows)
            assert ours.calls == logged.calls

    def test_hypothesis_budgets_fail_at_the_first_sample(self):
        maps, _ = annihilator_case("matrix:2", epsilon=1e-3)
        ours, reference = LoggedCallback(above=3.0), LoggedCallback(above=3.0)
        message, calls = outcome(lambda: verify_hypotheses(
            maps.f, maps.g_sigma, maps.g_tau, TabulatedControl(ours, 0.5), samples=50, seed=2),
            ours)
        expected = outcome(lambda: reference_hypotheses(
            maps.f, maps.g_sigma, maps.g_tau, TabulatedControl(reference, 0.5), "full", 50, 2,
            SCALE_GRID), reference)
        assert "invalid value" in message
        assert (message, calls) == expected
