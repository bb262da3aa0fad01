"""Direct-method extraction: convergence, bounds, diagnostics."""

import math

import numpy as np
import pytest

from derivlab import (
    ConstructionError,
    ConvergenceError,
    DerivationTriple,
    LinearMap,
    PNormControl,
    PointMap,
    PreconditionError,
    SpaceMismatchError,
    constant_control,
    extract_additive,
    extract_triple,
    identity_map,
    inner_derivation,
    make_matrix_algebra,
    summed_control,
    verify_stability_bound,
)
from derivlab.algebra import regular_bimodule
from derivlab.hyers import lambda_grid
from derivlab.perturb import PerturbationSpec, extend_with_annihilator, make_annihilator_perturbation
from derivlab.sampling import ball_point, ball_rows, generator

from test_rows import reference_ball_rows


@pytest.fixture(scope="module")
def setup():
    a = make_matrix_algebra(2)
    module, ann = extend_with_annihilator(regular_bimodule(a))
    sid = identity_map(a)
    x0 = module.element(ball_point(module, generator(41, "x0"), 1.0))
    d0 = inner_derivation(module, sid, sid, x0)
    return a, module, ann, sid, d0


def partial_sum(phi, a, n):
    """(1/2) sum_{k<n} 2^-k phi(2^k a, 2^k a), the series the tail bound leaves out."""
    return math.fsum(0.5 * 2.0**-k * phi.evaluate(2.0**k * a, 2.0**k * a) for k in range(n))


def perturbed(setup, epsilon, seed=51):
    a, module, ann, sid, d0 = setup
    triple = DerivationTriple(d0, sid, sid)
    spec = PerturbationSpec(mode="annihilator", epsilon=epsilon, seed=seed)
    return make_annihilator_perturbation(triple, spec, ann)


class TestPointMapContract:
    @pytest.mark.parametrize(
        "spoil, error",
        [(lambda out: np.full_like(out, np.nan), ConstructionError),
         (lambda out: out[:-1], SpaceMismatchError)],
        ids=["non-finite", "wrong-length"],
    )
    def test_bad_values_rejected_at_construction_and_evaluation(self, setup, spoil, error):
        a, module, _, _, d0 = setup
        with pytest.raises(error):
            PointMap(lambda x: spoil(d0.apply_coords(x)), a, module)

        def func(x):  # fixes 0, misbehaves everywhere else
            out = d0.apply_coords(x)
            return spoil(out) if np.any(x) else out

        pmap = PointMap(func, a, module)
        point = np.ones(a.dim, dtype=complex)
        with pytest.raises(error):
            pmap.eval_coords(point)
        with pytest.raises(error):
            pmap.eval(a.element(point))

    def test_eval_matches_eval_coords_bit_for_bit(self, setup):
        maps = perturbed(setup, 1e-3)
        domain = maps.f.domain
        rng = generator(17, "facade")
        for _ in range(20):
            coords = ball_point(domain, rng, 4.0)
            expected = maps.f.eval_coords(coords).tobytes()
            for value in (maps.f.eval(domain.element(coords)), maps.f(domain.element(coords))):
                assert value.space is maps.f.codomain
                assert value.coords.tobytes() == expected

    def test_extraction_builds_fewer_elements_than_evaluations(self, monkeypatch):
        from derivlab.algebra import _SpaceElement

        _, _, _, _, _, maps = cli_maps("matrix:2")
        evaluations = elements = 0

        def counting(x):
            nonlocal evaluations
            evaluations += 1
            return maps.f.eval_coords(x)

        pmap = PointMap(counting, maps.f.domain, maps.f.codomain)
        evaluations = 0
        init = _SpaceElement.__init__

        def counting_init(self, space, coords):
            nonlocal elements
            elements += 1
            init(self, space, coords)

        monkeypatch.setattr(_SpaceElement, "__init__", counting_init)
        extract_additive(pmap, constant_control(3e-3), seed=3)
        # evaluation builds no element, and a power-norm control reads the
        # row norms of the doubling orbits and the bound samples
        assert evaluations > 0
        assert elements == 0


class TestExtractAdditive:
    def test_exactly_linear_input_one_iteration(self, setup):
        a, module, _, _, d0 = setup
        report = extract_additive(PointMap.from_linear_map(d0), constant_control(1e-6))
        assert all(it == 1 for it in report.per_basis_iterations)
        assert np.abs(report.limit.matrix - d0.matrix).max() <= 1e-14

    def test_reextraction_is_bit_identical(self, setup):
        a, module, _, _, d0 = setup
        phi = constant_control(1e-6)
        first = extract_additive(PointMap.from_linear_map(d0), phi, seed=1)
        second = extract_additive(PointMap.from_linear_map(first.limit), phi, seed=1)
        assert np.array_equal(first.limit.matrix, second.limit.matrix)

    def test_bounded_perturbation_vanishes_in_limit(self, setup):
        # oracle: the unperturbed matrix itself
        _, _, _, _, d0 = setup
        maps = perturbed(setup, 1e-3)
        report = extract_additive(maps.f, maps.control, tol=1e-11, seed=2)
        assert np.abs(report.limit.matrix - d0.matrix).max() <= 1e-10

    def test_bound_check_holds_on_reported_samples(self, setup):
        maps = perturbed(setup, 1e-2)
        report = extract_additive(maps.f, maps.control, seed=3)
        assert report.bound_ok
        for sample in report.bound_check:
            assert sample.lhs <= sample.rhs + 1e-9 * (1.0 + sample.rhs)

    def test_apriori_and_aposteriori_consistency(self, setup):
        # realized error at each basis point is below the full series bound,
        # which splits as partial sum at the stop index plus the tail
        a, _, _, _, d0 = setup
        maps = perturbed(setup, 1e-2)
        report = extract_additive(maps.f, maps.control, seed=4)
        for i in range(a.dim):
            basis = a.basis_element(i)
            realized = (maps.f.eval(basis) - report.limit.apply(basis)).norm()
            n_stop = report.per_basis_iterations[i]
            budget = partial_sum(maps.control, basis, n_stop) + report.per_basis_tail_bound[i]
            total = summed_control(maps.control, basis, basis).upper
            assert realized <= total + 1e-12
            assert budget <= total + 1e-12

    def test_uniqueness_across_budgets(self, setup):
        maps = perturbed(setup, 1e-3)
        first = extract_additive(maps.f, maps.control, max_n=48, tol=1e-10, seed=5)
        second = extract_additive(maps.f, maps.control, max_n=40, tol=1e-10, seed=5)
        assert np.abs(first.limit.matrix - second.limit.matrix).max() <= 10 * 1e-10

    def test_doubling_identity_exact(self, setup):
        maps = perturbed(setup, 1e-3)
        report = extract_additive(maps.f, maps.control, seed=6)
        rng = generator(7, "doubling")
        a = ball_point(report.limit.domain, rng, 1.0)
        assert np.array_equal(
            report.limit.apply_coords(2.0 * a), 2.0 * report.limit.apply_coords(a)
        )

    def test_zero_not_fixed_rejected(self, setup):
        a, module, _, _, _ = setup
        shift = module.basis_element(0)

        def func(x):
            return shift.coords + 0.0 * x[0]

        with pytest.raises(PreconditionError):
            PointMap(func, a, module)

    def test_nonconvergence_raises_with_diagnostics(self, setup):
        # sublinear growth: deltas decay like 2^(-n/10), far too slow for
        # the budget, and the matching control keeps the tail above tol
        a, module, _, _, _ = setup
        direction = module.basis_element(0)

        def func(x):
            return a.norm(x) ** 0.9 * direction.coords

        pmap = PointMap(func, a, module)
        phi = PNormControl(0.0, 1.0, 0.9)
        with pytest.raises(ConvergenceError) as err:
            extract_additive(pmap, phi, max_n=48, tol=1e-10)
        assert "delta" in str(err.value)

    def test_uncontrolled_defect_caught_by_additivity_guard(self, setup):
        # superlinear defect: the constant control's tail certificate stops
        # the iteration early, but the pointwise limits cannot be additive
        a, module, _, _, _ = setup
        direction = module.basis_element(1)

        def func(x):
            return a.norm(x) ** 1.2 * direction.coords

        pmap = PointMap(func, a, module)
        with pytest.raises(ConvergenceError):
            extract_additive(pmap, constant_control(1e-3), max_n=48, tol=1e-8)


class TestExtractTriple:
    def test_exact_inputs_are_their_own_limits(self, setup):
        a, module, _, sid, d0 = setup
        phi = constant_control(1e-9)
        result = extract_triple(
            PointMap.from_linear_map(d0),
            PointMap.from_linear_map(sid),
            PointMap.from_linear_map(sid),
            phi,
        )
        assert np.array_equal(result.sigma.limit.matrix, np.eye(a.dim))
        assert np.array_equal(result.tau.limit.matrix, np.eye(a.dim))
        assert np.array_equal(result.d.limit.matrix, d0.matrix)

    def test_linear_twist_maps_extract_exactly(self, setup):
        # a linear endomorphism candidate is fixed by the doubling limit,
        # bit for bit, even when the main map carries noise
        from derivlab import conjugation_map

        a, module, ann, _, _ = setup
        u = a.unit_coords.copy()
        u[1] += 1.0
        conj = conjugation_map(a, u)
        x0 = module.element(ball_point(module, generator(42, "x1"), 1.0))
        d0 = inner_derivation(module, conj, conj, x0)
        triple = DerivationTriple(d0, conj, conj)
        spec = PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=52)
        maps = make_annihilator_perturbation(triple, spec, ann)
        result = extract_triple(maps.f, maps.g_sigma, maps.g_tau, maps.control, seed=8)
        assert np.array_equal(result.tau.limit.matrix, conj.matrix)
        assert np.array_equal(result.sigma.limit.matrix, conj.matrix)

    def test_perturbed_triple_leibniz_residual(self, setup):
        from derivlab import leibniz_residual

        a, module, _, _, _ = setup
        maps = perturbed(setup, 1e-3)
        result = extract_triple(maps.f, maps.g_sigma, maps.g_tau, maps.control, seed=9)
        triple = DerivationTriple(result.d.limit, result.sigma.limit, result.tau.limit)
        rows = ball_rows(a, generator(10, "leibniz"), np.ones(1000))  # 500 pairs, in order
        worst = np.max(leibniz_residual(triple, rows[0::2], rows[1::2]), initial=0.0)
        assert worst <= 1e-9


class TestStabilityBound:
    def test_exact_map_never_violates(self, setup):
        _, _, _, _, d0 = setup
        pmap = PointMap.from_linear_map(d0)
        report = verify_stability_bound(pmap, d0, constant_control(0.0), samples=200, seed=11)
        assert report.satisfied
        assert report.max_violation <= 0.0

    def test_certified_perturbation_zero_violations(self, setup):
        maps = perturbed(setup, 1e-2)
        extraction = extract_additive(maps.f, maps.control, seed=12)
        report = verify_stability_bound(maps.f, extraction.limit, maps.control,
                                        samples=1000, seed=13)
        assert report.num_violations == 0

    def test_adversarial_map_flagged_not_raised(self, setup):
        # a linear bias survives the doubling limit, so pretending the
        # limit is d0 must produce reported violations
        a, module, _, _, d0 = setup
        bias = np.zeros((module.dim, a.dim), dtype=complex)
        bias[0, 0] = 1.0
        biased = LinearMap(d0.matrix + bias, a, module)
        report = verify_stability_bound(
            PointMap.from_linear_map(biased), d0, constant_control(1e-3),
            samples=200, seed=14,
        )
        assert report.num_violations > 0
        assert report.max_violation > 0
        assert report.worst_point is not None


    def test_zero_samples_rejected(self, setup):
        _, _, _, _, d0 = setup
        with pytest.raises(PreconditionError):
            verify_stability_bound(PointMap.from_linear_map(d0), d0, constant_control(1.0),
                                   samples=0)


class TestRestrictedLambdaMode:
    def test_extraction_unchanged_and_complex_homogeneous(self, setup):
        maps = perturbed(setup, 1e-3)
        report = extract_additive(maps.f, maps.control, seed=15)
        lam = np.exp(1j * np.pi / 4)
        rng = generator(16, "homog")
        a = ball_point(report.limit.domain, rng, 1.0)
        # the assembled matrix is complex-linear by construction
        assert np.allclose(
            report.limit.apply_coords(lam * a),
            lam * report.limit.apply_coords(a),
            atol=1e-14,
        )

    def test_toggle_changes_grid(self):
        assert len(lambda_grid("full")) == 64
        assert np.array_equal(lambda_grid("one-i"), np.array([1.0 + 0j, 1j]))


# --- the four consumers of sampled_envelope against per-point reference loops --

def cli_maps(fixture, seed=7):
    from derivlab.cli import ExperimentConfig, PerturbedExperiment

    config = ExperimentConfig(fixture=fixture, seed=seed)
    exp = PerturbedExperiment.build(config)
    return config, exp.algebra, exp.module, exp.sigma, exp.tau, exp.maps


def reference_pair(f, limit, phi, coords):
    """|f(a) - d(a)| and the summed control at (a, a), one point at a time."""
    element = f.domain.element(coords)
    lhs = f.codomain.norm(f.eval_coords(coords) - limit.apply_coords(coords))
    return lhs, summed_control(phi, element, element).upper


CONSUMER_FIXTURES = ("matrix:2", "zero-product:4")
ENVELOPES = (constant_control(1e-9), PNormControl(3e-3, 1e-2, 0.5))


class TestSampledEnvelopeConsumers:
    @pytest.mark.parametrize("fixture", CONSUMER_FIXTURES)
    def test_extraction_bound_check(self, fixture):
        from derivlab.sampling import SCALE_GRID

        _, _, _, _, _, maps = cli_maps(fixture)
        report = extract_additive(maps.f, maps.control, seed=3)
        points = reference_ball_rows(maps.f.domain, generator(3, "extract-bound"),
                                     [SCALE_GRID[k % len(SCALE_GRID)] for k in range(32)])
        bound_ok = True
        for sample, coords in zip(report.bound_check, points):
            lhs, rhs = reference_pair(maps.f, report.limit, maps.control, coords)
            assert np.array_equal(sample.point, coords)
            assert (sample.lhs, sample.rhs) == (lhs, rhs)
            bound_ok = bound_ok and not lhs > rhs + 1e-9 * (1.0 + rhs)
        assert len(report.bound_check) == 32
        assert report.bound_ok is bound_ok

    @pytest.mark.parametrize("phi", ENVELOPES, ids=["tiny", "pnorm"])
    @pytest.mark.parametrize("fixture", CONSUMER_FIXTURES)
    def test_verify_stability_bound(self, fixture, phi):
        from derivlab.sampling import SCALE_GRID

        _, _, _, _, _, maps = cli_maps(fixture)
        limit = extract_additive(maps.f, maps.control, seed=3).limit
        report = verify_stability_bound(maps.f, limit, phi, samples=100, seed=4)
        points = reference_ball_rows(maps.f.domain, generator(4, "stability"),
                                     [SCALE_GRID[k % len(SCALE_GRID)] for k in range(100)])
        max_violation, worst, violations = -np.inf, (0.0, 0.0, None), 0
        for coords in points:
            lhs, rhs = reference_pair(maps.f, limit, phi, coords)
            if lhs - rhs > max_violation:
                max_violation, worst = lhs - rhs, (lhs, rhs, coords)
            violations += lhs - rhs > 1e-12
        assert report.max_violation == max_violation
        assert report.num_violations == violations
        assert (report.worst_lhs, report.worst_rhs) == worst[:2]
        assert np.array_equal(report.worst_point, worst[2])

    @pytest.mark.parametrize("phi", ENVELOPES, ids=["tiny", "pnorm"])
    @pytest.mark.parametrize("fixture", CONSUMER_FIXTURES)
    def test_sweep_point(self, fixture, phi):
        from derivlab.cli import _sweep_point
        from derivlab.sampling import sphere_point

        config, algebra, _, _, _, maps = cli_maps(fixture)
        config.control = phi.to_dict()
        config.samples = 60
        outputs, _ = _sweep_point(config)
        limit = extract_additive(maps.f, maps.control, seed=config.seed).limit
        rng = generator(config.seed, "sweep-bound")
        max_error = envelope = 0.0
        violations = 0
        for _ in range(60):
            lhs, rhs = reference_pair(maps.f, limit, phi, sphere_point(algebra, rng, 1.0))
            max_error, envelope = max(max_error, lhs), max(envelope, rhs)
            violations += lhs > rhs + 1e-12
        assert (outputs["max_error"], outputs["envelope"], outputs["violations"]) == \
            (max_error, envelope, violations)

    @pytest.mark.parametrize("fixture", ("matrix:2", "upper-triangular:3", "zero-product:4"))
    def test_roundtrip_beta(self, fixture):
        from derivlab.derivation import approx_contractibility_roundtrip
        from derivlab.sampling import SCALE_GRID

        config, algebra, module, sigma, tau, maps = cli_maps(fixture)
        result = approx_contractibility_roundtrip(
            maps.f, maps.control, algebra, module, sigma, tau, samples=200, seed=5
        )
        if not result.feasible:
            # every derivation of a zero-product algebra is outer: no beta
            assert fixture == "zero-product:4" and result.beta is None
            return
        d_x = inner_derivation(module, sigma, tau, result.x)
        points = reference_ball_rows(algebra, generator(5, "roundtrip-beta"),
                                     [SCALE_GRID[k % len(SCALE_GRID)] for k in range(200)])
        beta = 0.0
        for coords in points:
            beta = max(beta, module.norm(d_x.apply_coords(coords) - maps.f.eval_coords(coords)))
        assert result.beta == beta


def test_one_phi_pass_per_doubling_orbit(setup):
    from derivlab.control import DEFAULT_TRUNCATION, TabulatedControl
    from derivlab.hyers import _pointwise_limits

    maps = perturbed(setup, 1e-3)
    budget = maps.control.alpha
    calls = []

    def counting(a, b):
        calls.append(1)
        return budget

    phi = TabulatedControl(counting, 0.0)
    basis = maps.f.domain.basis_element(0).coords
    _, iterations, _, _, converged = _pointwise_limits(maps.f, basis[None], phi, 48, 1e-10)
    assert converged.tolist() == [True]
    doublings = int(iterations[0])
    # a constant budget of ~3e-3 needs 25 doublings to certify 1e-10; the
    # per-step recomputation used to cost 1989 phi calls on this orbit, and
    # every term now comes from the summed control's one table
    assert doublings == 25
    assert len(calls) == DEFAULT_TRUNCATION
