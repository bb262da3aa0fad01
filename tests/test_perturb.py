"""Perturbation generators: certification, determinism, negative controls."""

import numpy as np
import pytest

from derivlab import (
    ConstructionError,
    DerivationTriple,
    PreconditionError,
    LinearMap,
    PerturbationSpec,
    PointMap,
    constant_control,
    extend_with_annihilator,
    extract_additive,
    identity_map,
    inner_derivation,
    make_annihilator_perturbation,
    make_clamped_perturbation,
    make_matrix_algebra,
    verify_hypotheses,
)
from derivlab.algebra import regular_bimodule
from derivlab.sampling import SCALE_GRID, ball_point, ball_rows, generator, hashed_unit_floats


@pytest.fixture(scope="module")
def setup():
    a = make_matrix_algebra(2)
    module, ann = extend_with_annihilator(regular_bimodule(a))
    sid = identity_map(a)
    x = module.element(ball_point(module, generator(91, "x"), 1.0))
    d0 = inner_derivation(module, sid, sid, x)
    return a, module, ann, sid, DerivationTriple(d0, sid, sid)


def annihilator_maps(setup, epsilon, seed=7):
    _, _, ann, _, triple = setup
    spec = PerturbationSpec(mode="annihilator", epsilon=epsilon, seed=seed)
    return make_annihilator_perturbation(triple, spec, ann)


def region_report(maps, spec, samples):
    """Hypotheses of clamped maps sampled inside the trust region: the
    scale grid stretched to end at the region radius."""
    scales = tuple(s * spec.region_radius / max(SCALE_GRID) for s in SCALE_GRID)
    return verify_hypotheses(maps.f, maps.g_sigma, maps.g_tau, spec.control,
                             samples=samples, seed=spec.seed, scales=scales)


class TestAnnihilatorMode:
    def test_zero_epsilon_reproduces_the_derivation_exactly(self, setup):
        a, _, _, _, triple = setup
        maps = annihilator_maps(setup, 0.0)
        rng = generator(93, "pts")
        for _ in range(50):
            p = ball_point(a, rng, 4.0)
            assert np.array_equal(maps.f.eval_coords(p), triple.d.apply_coords(p))

    def test_certified_control_is_three_epsilon(self, setup):
        maps = annihilator_maps(setup, 1e-3)
        assert maps.control.to_dict() == {"kind": "constant", "alpha": 3e-3}

    def test_noise_is_bounded_by_epsilon(self, setup):
        a, module, _, _, triple = setup
        eps = 1e-3
        maps = annihilator_maps(setup, eps)
        rng = generator(95, "pts")
        for _ in range(200):
            p = ball_point(a, rng, 16.0)
            eta = maps.f.eval_coords(p) - triple.d.apply_coords(p)
            assert module.norm(eta) <= eps

    def test_noise_is_bounded_on_rows_and_doubled_orbits_and_fixes_zero(self, setup):
        a, module, _, _, triple = setup
        eps = 1e-3
        maps = annihilator_maps(setup, eps)
        points = ball_rows(a, generator(96, "pts"), np.full(100, 4.0))
        orbits = np.array([2.0**n * p for p in points[:12] for n in range(49)])
        for rows in (points, orbits):
            eta = maps.f.eval_rows(rows) - triple.d.apply_rows(rows)
            assert np.all(module.norms(eta) <= eps)
            assert np.all(module.norms(eta) > 0.0)
        # the origin, a signed zero and a row that snaps to the origin
        origin = np.zeros((3, a.dim), dtype=complex)
        origin[1] = -0.0
        origin[2, 0] = 1e-9 - 1e-9j
        assert maps.f.eval_rows(origin).tobytes() == triple.d.apply_rows(origin).tobytes()
        assert not np.any(maps.f.eval_rows(origin[:2]))

    def test_hypotheses_satisfied_on_ten_thousand_pairs(self, setup):
        maps = annihilator_maps(setup, 1e-3)
        report = verify_hypotheses(
            maps.f, maps.g_sigma, maps.g_tau, maps.control, samples=10000, seed=97
        )
        assert report.verdict == "satisfied"
        assert report.worst_ratio() <= 1.0
        assert report.multiplicative_max == 0.0

    def test_product_defect_is_exactly_the_noise_at_the_product(self, setup):
        # cross terms vanish identically: annihilator values hit zero rows
        # of the action tensors, so the defect reduces to eta(ab) up to the
        # float dust of the unperturbed derivation's own product rule
        a, module, _, sid, triple = setup
        maps = annihilator_maps(setup, 1e-2)
        rng = generator(99, "pairs")
        for _ in range(100):
            u = ball_point(a, rng, 2.0)
            v = ball_point(a, rng, 2.0)
            uv = np.einsum("i,j,ijk->k", u, v, a.structure)
            defect = (
                maps.f.eval_coords(uv)
                - module.right_matrix(v) @ maps.f.eval_coords(u)
                - module.left_matrix(u) @ maps.f.eval_coords(v)
            )
            eta_uv = maps.f.eval_coords(uv) - triple.d.apply_coords(uv)
            assert module.norm(defect - eta_uv) <= 1e-13

    def test_extraction_recovers_base_derivation(self, setup):
        _, _, _, _, triple = setup
        maps = annihilator_maps(setup, 1e-3)
        report = extract_additive(maps.f, maps.control, tol=1e-11, seed=3)
        assert np.abs(report.limit.matrix - triple.d.matrix).max() <= 1e-10

    def test_trivial_annihilator_with_noise_rejected(self, setup):
        a, _, _, sid, _ = setup
        plain = regular_bimodule(a)  # unital algebra: no killed directions
        x = plain.element(ball_point(plain, generator(101, "x"), 1.0))
        triple = DerivationTriple(inner_derivation(plain, sid, sid, x), sid, sid)
        spec = PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=1)
        with pytest.raises(ConstructionError, match="extend"):
            make_annihilator_perturbation(triple, spec)

    def test_seed_determinism_and_order_independence(self, setup):
        a, _, _, _, _ = setup
        rng = generator(103, "pts")
        points = [ball_point(a, rng, 2.0) for _ in range(10)]
        first = annihilator_maps(setup, 1e-3, seed=42)
        second = annihilator_maps(setup, 1e-3, seed=42)
        forward = [first.f.eval_coords(p) for p in points]
        backward = [second.f.eval_coords(p) for p in reversed(points)][::-1]
        for u, v in zip(forward, backward):
            assert np.array_equal(u, v)

    def test_different_seeds_differ(self, setup):
        a, _, _, _, _ = setup
        p = ball_point(a, generator(105, "p"), 1.0)
        one = annihilator_maps(setup, 1e-3, seed=1).f.eval_coords(p)
        two = annihilator_maps(setup, 1e-3, seed=2).f.eval_coords(p)
        assert not np.array_equal(one, two)


class TestClampedMode:
    def test_small_region_small_cap_satisfied(self, setup):
        _, _, _, _, triple = setup
        spec = PerturbationSpec(
            mode="clamped", control=constant_control(0.1),
            region_radius=1.0, cap=0.002, seed=3,
        )
        report = region_report(make_clamped_perturbation(triple, spec), spec, 10000)
        assert report.verdict == "satisfied"

    def test_oversized_region_violated_with_witness(self, setup):
        _, _, _, _, triple = setup
        spec = PerturbationSpec(
            mode="clamped", control=constant_control(0.1),
            region_radius=64.0, seed=3,
        )
        report = region_report(make_clamped_perturbation(triple, spec), spec, 10000)
        assert report.verdict == "violated"
        witness = report.witness
        assert witness is not None
        assert witness.ratio > 1.0
        assert witness.equation == "product"

    def test_zero_cap_means_no_noise(self, setup):
        a, _, _, _, triple = setup
        spec = PerturbationSpec(
            mode="clamped", control=constant_control(0.1),
            region_radius=1.0, cap=0.0, seed=3,
        )
        maps = make_clamped_perturbation(triple, spec)
        # only the base derivation's float dust remains
        assert region_report(maps, spec, 500).worst_ratio() <= 1e-12
        rng = generator(107, "pts")
        p = ball_point(a, rng, 0.5)
        assert np.array_equal(maps.f.eval_coords(p), triple.d.apply_coords(p))

    def test_noise_respects_its_own_budget_in_region(self, setup):
        a, module, _, _, triple = setup
        phi = constant_control(0.1)
        spec = PerturbationSpec(
            mode="clamped", control=phi, region_radius=4.0, seed=5,
        )
        maps = make_clamped_perturbation(triple, spec)
        rng = generator(109, "pts")
        for _ in range(200):
            p = ball_point(a, rng, 4.0)
            eta = maps.f.eval_coords(p) - triple.d.apply_coords(p)
            assert module.norm(eta) <= phi.evaluate(a.element(p), a.element(p))


class TestVerifyHypotheses:
    def test_exact_triple_all_zero(self, setup):
        a, module, _, sid, triple = setup
        report = verify_hypotheses(
            PointMap.from_linear_map(triple.d),
            PointMap.from_linear_map(sid),
            PointMap.from_linear_map(sid),
            constant_control(1.0),
            samples=500,
            seed=111,
        )
        assert report.verdict == "satisfied"
        assert report.worst_ratio() <= 1e-12

    def test_zero_samples_rejected(self, setup):
        maps = annihilator_maps(setup, 1e-3)
        with pytest.raises(PreconditionError):
            verify_hypotheses(maps.f, maps.g_sigma, maps.g_tau, maps.control, samples=0)

    def test_unbounded_linear_bias_violated_at_largest_scale(self, setup):
        # a linear bias keeps additivity exact but breaks the product rule
        # with defects growing like the product of the scales
        a, module, _, sid, triple = setup
        bias = np.zeros((module.dim, a.dim), dtype=complex)
        bias[0, 0] = 1.0
        biased = LinearMap(triple.d.matrix + bias, a, module)
        report = verify_hypotheses(
            PointMap.from_linear_map(biased),
            PointMap.from_linear_map(sid),
            PointMap.from_linear_map(sid),
            constant_control(1e-2),
            samples=2000,
            seed=113,
        )
        assert report.verdict == "violated"
        assert report.witness.scale == 16.0
        assert report.additive_max <= 1e-9

    def test_restricted_mode_misses_sign_flip_distortion(self, setup):
        # noise that switches on and off with the input: the defect reaches
        # 3 eps only when the unimodular factor is near -1, stays below
        # sqrt(5) eps at 1 and i, so a 2.5 eps budget separates the grids
        a, module, _, sid, triple = setup
        eps = 1e-2
        direction = np.zeros(module.dim, dtype=complex)
        direction[-1] = 1.0  # the killed coordinate of the extended module

        def func(x):
            value = triple.d.apply_coords(x)
            snapped = np.round(x / 2.0**-20)
            if np.any(snapped != 0.0):
                coin = hashed_unit_floats(
                    b"coin" + np.ascontiguousarray(snapped).tobytes(), 1
                )[0]
                if coin >= 0.5:
                    value = value + eps * direction
            return value

        f = PointMap(func, a, module)
        budget = constant_control(2.5 * eps)
        g_sigma = PointMap.from_linear_map(sid)
        g_tau = PointMap.from_linear_map(sid)
        full = verify_hypotheses(f, g_sigma, g_tau, budget, lambda_mode="full",
                                 samples=4000, seed=115)
        restricted = verify_hypotheses(f, g_sigma, g_tau, budget, lambda_mode="one-i",
                                       samples=4000, seed=115)
        assert full.verdict == "violated"
        assert abs(full.witness.lam - (-1.0)) < 0.2  # near the sign flip
        assert restricted.verdict == "satisfied"


def test_perturbation_recipe_roundtrip():
    spec = PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=5)
    assert PerturbationSpec.from_dict(spec.to_dict()) == spec
    clamped = PerturbationSpec(
        mode="clamped", control=constant_control(0.5), region_radius=2.0, seed=9
    )
    back = PerturbationSpec.from_dict(clamped.to_dict())
    assert back.mode == "clamped"
    assert back.region_radius == 2.0
    assert back.control.alpha == 0.5


def test_bad_mode_rejected():
    with pytest.raises(ConstructionError):
        PerturbationSpec(mode="gauss", epsilon=0.1)
