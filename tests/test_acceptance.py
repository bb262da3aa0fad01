"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from derivlab import (
    DerivationTriple,
    LinearMap,
    PerturbationSpec,
    approx_contractibility_roundtrip,
    constant_control,
    derivation_space,
    dual_bimodule,
    extend_with_annihilator,
    extract_triple,
    get_algebra,
    identity_map,
    inner_derivation,
    inner_space,
    is_amenable,
    is_contractible,
    leibniz_residual,
    endomorphism_residual,
    make_annihilator_perturbation,
    make_clamped_perturbation,
    make_matrix_algebra,
    scalar_homogeneity_certificate,
    sigma_endo_certificate,
    three_unimodular,
    verify_hypotheses,
    verify_stability_bound,
)
from derivlab.algebra import regular_bimodule
from derivlab.control import PNormControl, summed_control
from derivlab.sampling import SCALE_GRID, ball_point, generator

from test_derivation import ball_pairs, brute_force_derivation_dim, brute_force_inner_dim

SRC = str(Path(__file__).resolve().parents[1] / "src")


def series_oracle(phi, a, b, terms=200):
    # |2^n a| = 2^n |a| exactly, so phi at the doubled points reads the scaled norms
    scales = np.ldexp(1.0, np.arange(terms))
    values = phi.at_norms(scales * a.norm(), scales * b.norm())
    return math.fsum(0.5 * 2.0**-n * value for n, value in enumerate(values.tolist()))


@pytest.fixture(scope="module")
def stability_runs():
    """Extracted triples for every (fixture, epsilon) in the grid."""
    runs = {}
    for fixture in ("matrix:2", "matrix:3"):
        algebra = get_algebra(fixture)
        module, ann = extend_with_annihilator(regular_bimodule(algebra))
        sid = identity_map(algebra)
        x = module.element(ball_point(module, generator(7, "x", fixture), 1.0))
        d0 = inner_derivation(module, sid, sid, x)
        triple = DerivationTriple(d0, sid, sid)
        for epsilon in (1e-1, 1e-2, 1e-3):
            maps = make_annihilator_perturbation(
                triple,
                PerturbationSpec(mode="annihilator", epsilon=epsilon, seed=13),
                ann,
            )
            extraction = extract_triple(
                maps.f, maps.g_sigma, maps.g_tau, maps.control, seed=17
            )
            runs[(fixture, epsilon)] = (algebra, module, sid, d0, maps, extraction)
    return runs


def test_criterion_1_closed_form_vs_series():
    algebra = make_matrix_algebra(2)
    rng = generator(1, "criterion-1")
    points = [
        (
            algebra.element(ball_point(algebra, rng, scale)),
            algebra.element(ball_point(algebra, rng, scale)),
        )
        for scale in (0.25, 1.0, 4.0, 16.0)
        for _ in range(25)
    ]
    worst = 0.0
    for alpha in (0.0, 1.0):
        for beta in (1.0, 2.0):
            for p in (0.0, 0.25, 0.5, 0.75):
                phi = PNormControl(alpha, beta, p)
                for a, b in points:
                    closed = summed_control(phi, a, b).value
                    worst = max(worst, abs(closed - series_oracle(phi, a, b)))
    assert worst <= 1e-12
    print(f"criterion 1 (closed form vs 200-term series, gap {worst:.2e}): PASS")


def test_criterion_2_stability_bound(stability_runs):
    for (fixture, epsilon), (algebra, module, sid, d0, maps, extraction) in stability_runs.items():
        report = verify_stability_bound(
            maps.f, extraction.d.limit, maps.control, samples=1000, seed=19
        )
        assert report.num_violations == 0, (fixture, epsilon)
        drift = np.abs(extraction.d.limit.matrix - d0.matrix).max()
        assert drift <= 1e-9, (fixture, epsilon, drift)
    print("criterion 2 (stability bound, 6 runs x 1000 samples, zero violations): PASS")


def test_criterion_3_leibniz_recovery(stability_runs):
    for (fixture, epsilon), (algebra, module, sid, d0, maps, extraction) in stability_runs.items():
        triple = DerivationTriple(
            extraction.d.limit, extraction.sigma.limit, extraction.tau.limit
        )
        rng = generator(23, "criterion-3", fixture, str(epsilon))
        a, b = ball_pairs(algebra, rng, 500, 1.0)
        worst_leibniz = np.max(leibniz_residual(triple, a, b), initial=0.0)
        worst_tau = np.max(endomorphism_residual(triple.tau, a, b), initial=0.0)
        assert worst_leibniz <= 1e-9, (fixture, epsilon, worst_leibniz)
        assert worst_tau <= 1e-9, (fixture, epsilon, worst_tau)
        certificate = sigma_endo_certificate(triple, samples=500, seed=29)
        assert certificate.max_cancellation <= 1e-9, (fixture, epsilon)
    print("criterion 3 (product rule, tau multiplicativity, sigma certificate <= 1e-9): PASS")


def test_criterion_4_subspace_oracle_equivalence():
    m2 = make_matrix_algebra(2)
    m2_mod = regular_bimodule(m2)
    m2_id = identity_map(m2)
    ds = derivation_space(m2, m2_mod, m2_id, m2_id)
    ins = inner_space(m2, m2_mod, m2_id, m2_id)
    assert (ds.dim, ins.dim) == (3, 3)
    assert brute_force_derivation_dim(m2, m2_mod, m2_id, m2_id) == 3
    assert brute_force_inner_dim(m2, m2_mod, m2_id, m2_id) == 3
    assert is_contractible(m2, m2_mod, m2_id, m2_id).verdict == "h1_vanishes"

    duals = get_algebra("dual-numbers")
    duals_mod = regular_bimodule(duals)
    duals_id = identity_map(duals)
    ds = derivation_space(duals, duals_mod, duals_id, duals_id)
    ins = inner_space(duals, duals_mod, duals_id, duals_id)
    assert (ds.dim, ins.dim) == (1, 0)
    assert brute_force_derivation_dim(duals, duals_mod, duals_id, duals_id) == 1
    assert brute_force_inner_dim(duals, duals_mod, duals_id, duals_id) == 0
    assert is_contractible(duals, duals_mod, duals_id, duals_id).verdict == "h1_nonzero"
    print("criterion 4 (subspace dims (3,3) and (1,0) vs brute-force oracles): PASS")


def test_criterion_5_roundtrip():
    algebra = make_matrix_algebra(2)
    module, ann = extend_with_annihilator(regular_bimodule(algebra))
    sid = identity_map(algebra)
    x = module.element(ball_point(module, generator(31, "x"), 1.0))
    d0 = inner_derivation(module, sid, sid, x)
    triple = DerivationTriple(d0, sid, sid)
    maps = make_annihilator_perturbation(
        triple, PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=37), ann
    )
    result = approx_contractibility_roundtrip(
        maps.f, maps.control, algebra, module, sid, sid, samples=1000, seed=41
    )
    assert result.feasible
    assert result.beta <= 3e-3 * (1.0 + module.action_bound) + 1e-9
    assert result.scaling_residual <= 1e-10
    print(
        f"criterion 5 (roundtrip beta {result.beta:.2e} within budget, "
        f"doubling residual {result.scaling_residual:.2e}): PASS"
    )


def test_criterion_6_amenability_dual_module():
    algebra = make_matrix_algebra(2)
    module = regular_bimodule(algebra)
    sid = identity_map(algebra)
    report = is_amenable(algebra, module, sid, sid)
    dual = dual_bimodule(module)
    expected_derivations = brute_force_derivation_dim(algebra, dual, sid, sid)
    expected_inner = brute_force_inner_dim(algebra, dual, sid, sid)
    assert report.verdict == "h1_vanishes"
    assert report.derivation_dim == expected_derivations
    assert report.inner_dim == expected_inner
    print(
        f"criterion 6 (amenability on the dual module, dims "
        f"({report.derivation_dim},{report.inner_dim}) match brute force): PASS"
    )


def test_criterion_7_scalar_machinery():
    rng = generator(43, "criterion-7")
    radii = 3.0 * np.sqrt(rng.uniform(0.0, 1.0, 10000))
    angles = rng.uniform(0.0, 2.0 * np.pi, 10000)
    for w in radii * np.exp(1j * angles):
        triple = three_unimodular(w)
        for theta in triple.as_tuple():
            assert abs(abs(theta) - 1.0) <= 1e-14
        assert abs(triple.total - w) <= 1e-13

    algebra = make_matrix_algebra(2)
    mat = generator(47, "d").standard_normal((4, 4)) + 1j * generator(
        53, "d"
    ).standard_normal((4, 4))
    d = LinearMap(mat, algebra, algebra)
    d_norm = d.operator_norm()
    rng = generator(59, "gamma-a")
    for _ in range(100):
        gamma = complex(rng.uniform(-100, 100), rng.uniform(-100, 100))
        a = algebra.element(ball_point(algebra, rng, 4.0))
        certificate = scalar_homogeneity_certificate(d, gamma, a)
        assert certificate <= 1e-10 * (1.0 + abs(gamma)) * d_norm * max(a.norm(), 1e-30)
    print("criterion 7 (10^4 unimodular decompositions, homogeneity certificates): PASS")


def test_criterion_8_determinism_byte_identical(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    jobs = {
        "extract": ["--fixture", "matrix:2", "--pipeline", "extract"],
        "hypotheses": ["--fixture", "matrix:2", "--pipeline", "hypotheses"],
        "contractibility": ["--fixture", "dual-numbers", "--pipeline", "contractibility"],
        "amenability": ["--fixture", "matrix:2", "--pipeline", "amenability"],
        "roundtrip": ["--fixture", "matrix:2", "--pipeline", "roundtrip"],
    }
    for name, flags in jobs.items():
        payloads = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{name}-{attempt}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "derivlab.cli", "run", *flags,
                 "--seed", "61", "--samples", "300", "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode in (0, 2), (name, proc.stderr)
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], f"pipeline {name} not byte-identical"
        json.loads(payloads[0])  # reports stay valid json
    print("criterion 8 (two executions per pipeline, byte-identical reports): PASS")


def test_criterion_9_negative_controls():
    algebra = make_matrix_algebra(2)
    module, ann = extend_with_annihilator(regular_bimodule(algebra))
    sid = identity_map(algebra)
    x = module.element(ball_point(module, generator(67, "x"), 1.0))
    triple = DerivationTriple(inner_derivation(module, sid, sid, x), sid, sid)
    spec = PerturbationSpec(
        mode="clamped", control=constant_control(0.1), region_radius=64.0, seed=71
    )
    maps = make_clamped_perturbation(triple, spec)
    # sampled inside the trust region: the scale grid stretched to end at it
    region_scales = tuple(s * spec.region_radius / max(SCALE_GRID) for s in SCALE_GRID)
    oversized = verify_hypotheses(maps.f, maps.g_sigma, maps.g_tau, spec.control,
                                  samples=10000, seed=spec.seed, scales=region_scales)
    assert oversized.verdict == "violated"
    assert oversized.witness is not None
    assert oversized.witness.ratio > 1.0

    duals = get_algebra("dual-numbers")
    duals_mod, duals_ann = extend_with_annihilator(regular_bimodule(duals))
    duals_id = identity_map(duals)
    d_mat = np.zeros((3, 2), dtype=complex)
    d_mat[1, 1] = 1.0  # the non-inner derivation: eps goes to eps
    noninner = DerivationTriple(LinearMap(d_mat, duals, duals_mod), duals_id, duals_id)
    maps = make_annihilator_perturbation(
        noninner, PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=73), duals_ann
    )
    result = approx_contractibility_roundtrip(
        maps.f, maps.control, duals, duals_mod, duals_id, duals_id, samples=300, seed=79
    )
    assert not result.feasible
    witness = result.witness.matrix
    assert abs(witness[1, 1] - 1.0) <= 1e-9
    assert np.abs(witness[:, 0]).max() <= 1e-9
    print("criterion 9 (oversized-region violation witness, infeasibility certificate): PASS")
