"""Row evaluation: every array form equals its one-point form bit for bit.

The row forms stack one small product per row (`matrix @ x`, `weights @
|x|`) instead of calling one matrix-matrix product, whose blocked sums
round differently. These tests compare `tobytes()` against the one-point
forms and against per-point reference loops kept here, so a numpy or BLAS
upgrade that changes the dispatch fails here first.
"""

import math

import numpy as np
import pytest

from derivlab import (
    ConvergenceError,
    DerivationTriple,
    LinearMap,
    PNormControl,
    PerturbationSpec,
    PointMap,
    TabulatedControl,
    constant_control,
    derivation_space,
    dual_bimodule,
    extend_with_annihilator,
    extract_additive,
    get_algebra,
    identity_map,
    make_annihilator_perturbation,
    make_clamped_perturbation,
    regular_bimodule,
    verify_hypotheses,
    zero_bimodule,
)
from derivlab.control import ControlTail
from derivlab.hyers import ADDITIVITY_PAIRS, lambda_grid
from derivlab.perturb import QUANT_GRID, _smooth_cutoff
from derivlab.sampling import SCALE_GRID, ball_point, generator, hashed_unit_floats

FAMILIES = ("matrix:2", "matrix:3", "upper-triangular:3", "dual-numbers", "zero-product:4")


def random_rows(count, dim, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    rows *= rng.uniform(0.0, 16.0, (count, 1))
    rows[::7] = 0.0  # exact zeros, including whole rows
    if dim:
        rows[1::5, 0] = -0.0
    return rows


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


# --- per-point references of the built-in maps ---------------------------------

def reference_keyed_direction(seed, label, coords, out_dim):
    snapped = np.round(coords / QUANT_GRID) * QUANT_GRID
    snapped = np.where(snapped == 0.0, 0.0, snapped)
    if out_dim == 0 or not np.any(snapped != 0.0):
        return np.zeros(out_dim, dtype=complex), 0.0
    payload = int(seed).to_bytes(8, "little", signed=True) + label \
        + np.ascontiguousarray(snapped).tobytes()
    floats = hashed_unit_floats(payload, 2 * out_dim + 1)
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
        assert_rows_equal(out, [maps.f.func(r) for r in rows])

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
                "user": PointMap(maps.f.func, maps.f.domain, maps.f.codomain)}[case]
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

def reference_orbit(pmap, coords, phi, max_n, tol):
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
    rng = generator(seed, "extract-additivity")
    for _ in range(ADDITIVITY_PAIRS):
        a = ball_point(domain, rng, 1.0)
        b = ball_point(domain, rng, 1.0)
        for point in (a, b, a + b):
            reference_orbit(pmap, point, phi, max_n, tol)
    return columns, its, deltas, tails


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

    def test_nonconvergence_diagnostics_match(self):
        algebra, module, _, _ = base_triple("matrix:2")
        direction = module.basis_element(0).coords

        def func(x):
            return algebra.norm(x) ** 0.9 * direction

        pmap = PointMap(func, algebra, module)
        phi = PNormControl(0.0, 1.0, 0.9)
        with pytest.raises(ConvergenceError) as ours:
            extract_additive(pmap, phi, max_n=30, tol=1e-10)
        with pytest.raises(ConvergenceError) as reference:
            reference_orbit(pmap, algebra.basis_element(0).coords, phi, 30, 1e-10)
        assert ours.value.diagnostics == reference.value.diagnostics
        assert ours.value.diagnostics["iterations"] == 30
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

    for k in range(samples):
        scale = scales[k % len(scales)]
        lam = complex(lambdas[k % len(lambdas)])
        a = ball_point(algebra, rng, scale)
        b = ball_point(algebra, rng, scale)
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
    assert report.maxima() == {f"{name}_max": value for name, value in maxima.items()}
    if witness is None:
        assert report.verdict == "satisfied" and report.witness is None
        return
    assert report.verdict == "violated"
    w = report.witness
    assert (w.equation, w.ratio, w.scale, w.lam) == witness[:4]
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
