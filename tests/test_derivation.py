"""Derivation subspaces, inner solves, verdicts, and the round trip.

The subspace dimensions are validated against brute-force oracles built
from element-level operations (mul, act_left, act_right) and a plain
matrix-rank call, independently of the library's vectorized constraint
assembly.
"""

import numpy as np
import pytest

from derivlab import (
    DerivationTriple,
    LinearMap,
    PreconditionError,
    act_left,
    act_right,
    approx_contractibility_roundtrip,
    conjugation_map,
    constant_control,
    derivation_space,
    dual_bimodule,
    endomorphism_residual,
    get_algebra,
    identity_map,
    inner_derivation,
    inner_solve,
    inner_space,
    is_amenable,
    is_contractible,
    leibniz_residual,
    make_algebra,
    make_matrix_algebra,
    mul,
    sigma_endo_certificate,
    zero_bimodule,
)
from derivlab.algebra import nullspace, regular_bimodule
from derivlab.cli import _resolve_endomorphism
from derivlab import derivation as derivation_module
from derivlab.derivation import (
    _basis_endo_residual,
    _system_bytes,
    leibniz_rows,
    leibniz_system,
)
from derivlab.perturb import PerturbationSpec, extend_with_annihilator, make_annihilator_perturbation
from derivlab.sampling import ball_point, ball_rows, generator


def ball_pairs(space, rng, count, scale):
    """count pairs (a, b) as two row arrays, drawn as 2 * count ball points
    in stream order (the draws of count ball_point pairs)."""
    rows = ball_rows(space, rng, np.full(2 * count, scale))
    return rows[0::2], rows[1::2]


def basis_pairs(space):
    """Rows (e_i, e_j) for every pair of basis vectors, i major."""
    eye = np.eye(space.dim, dtype=complex)
    return np.repeat(eye, space.dim, axis=0), np.tile(eye, (space.dim, 1))


def brute_force_derivation_dim(algebra, module, sigma, tau, tol=1e-8):
    """Element-by-element constraint assembly plus a rank call."""
    n, m = algebra.dim, module.dim
    if m == 0:
        return 0
    columns = []
    for r in range(m):
        for s in range(n):
            candidate = np.zeros((m, n), dtype=complex)
            candidate[r, s] = 1.0
            defects = []
            for i in range(n):
                for j in range(n):
                    ei, ej = algebra.basis_element(i), algebra.basis_element(j)
                    lhs = candidate @ mul(ei, ej).coords
                    t1 = act_right(
                        module.element(candidate @ ei.coords),
                        algebra.element(sigma.matrix[:, j]),
                    ).coords
                    t2 = act_left(
                        algebra.element(tau.matrix[:, i]),
                        module.element(candidate @ ej.coords),
                    ).coords
                    defects.append(lhs - t1 - t2)
            columns.append(np.concatenate(defects))
    system = np.array(columns).T
    return n * m - np.linalg.matrix_rank(system, tol=tol)


def brute_force_inner_dim(algebra, module, sigma, tau, tol=1e-8):
    n, m = algebra.dim, module.dim
    if m == 0:
        return 0
    vectors = []
    for s in range(m):
        x = module.basis_element(s)
        columns = []
        for i in range(n):
            value = (
                act_right(x, algebra.element(sigma.matrix[:, i])).coords
                - act_left(algebra.element(tau.matrix[:, i]), x).coords
            )
            columns.append(value)
        vectors.append(np.array(columns).T.reshape(-1))
    return int(np.linalg.matrix_rank(np.array(vectors).T, tol=tol))


def kron_leibniz_system(algebra, module, sigma, tau):
    """One block of module-dim rows per basis pair (e_i, e_j), by np.kron."""
    n, m = algebra.dim, module.dim
    right_sigma = [module.right_matrix(sigma.matrix[:, i]) for i in range(n)]
    left_tau = [module.left_matrix(tau.matrix[:, i]) for i in range(n)]
    eye_m = np.eye(m, dtype=complex)
    blocks = []
    for i in range(n):
        e_i = np.zeros((1, n), dtype=complex)
        e_i[0, i] = 1.0
        for j in range(n):
            e_j = np.zeros((1, n), dtype=complex)
            e_j[0, j] = 1.0
            product_row = algebra.structure[i, j].reshape(1, n)
            blocks.append(
                np.kron(eye_m, product_row)
                - np.kron(right_sigma[j], e_i)
                - np.kron(left_tau[i], e_j)
            )
    return np.vstack(blocks)


def projector(rows):
    """Orthogonal projector onto the span of orthonormal rows."""
    return rows.T @ rows.conj()


def closed_form_dims(fixture, module_kind):
    """(Der, Inner) for the identity twist; a conjugation twist is an
    automorphism and gives the same dimensions.

    matrix:n: every derivation is inner and the centre is the scalars, on
    the regular module and on its dual (isomorphic through the trace).
    upper-triangular:n: every derivation is inner; the centre is the
    scalars, and the dual module's centraliser has dimension n.
    zero-product:n: every linear map is a derivation and no inner map is
    nonzero. dual-numbers: see the hand argument below.
    """
    if fixture == "dual-numbers":
        return 1, 0
    kind, _, size = fixture.partition(":")
    n = int(size)
    if kind == "matrix":
        return n * n - 1, n * n - 1
    if kind == "upper-triangular":
        dim = n * (n + 1) // 2 - 1 if module_kind == "regular" else n * (n - 1) // 2
        return dim, dim
    return n * n, 0


def change_of_basis(algebra, seed):
    """The same algebra in the basis f_i = sum_p P[p, i] e_p for a random,
    well-conditioned complex P: non-integer structure constants."""
    n = algebra.dim
    rng = generator(seed, "change-of-basis")
    p = np.eye(n) + 0.5 * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / np.sqrt(n)
    p_inv = np.linalg.inv(p)
    structure = np.einsum("pi,qj,pqs,ks->ijk", p, p, algebra.structure, p_inv)
    unit = None if algebra.unit_coords is None else p_inv @ algebra.unit_coords
    return make_algebra(structure, unit=unit)


def verdict_cases(fixtures):
    """(fixture, module kind, twist) for both modules, with conjugation:shear
    on the unital fixtures."""
    return [
        (fixture, module_kind, twist)
        for fixture in fixtures
        for module_kind in ("regular", "dual")
        for twist in ("id", "conjugation:shear")
        if twist == "id" or not fixture.startswith("zero-product")
    ]


def decide(algebra, module_kind, twist):
    sigma = _resolve_endomorphism(algebra, twist)
    tau = identity_map(algebra)
    check = is_contractible if module_kind == "regular" else is_amenable
    return check(algebra, regular_bimodule(algebra), sigma, tau)


CLOSED_FORM_FIXTURES = (
    "matrix:1", "matrix:2", "matrix:3", "matrix:4", "matrix:5",
    "upper-triangular:1", "upper-triangular:2", "upper-triangular:3", "upper-triangular:4",
    "zero-product:1", "zero-product:4", "zero-product:6", "dual-numbers",
)
CHANGE_OF_BASIS_FIXTURES = (
    "matrix:2", "matrix:3", "matrix:4", "upper-triangular:3", "upper-triangular:4",
    "dual-numbers",
)


@pytest.fixture(scope="module")
def m2():
    a = make_matrix_algebra(2)
    return a, regular_bimodule(a), identity_map(a)


@pytest.fixture(scope="module")
def duals():
    a = get_algebra("dual-numbers")
    return a, regular_bimodule(a), identity_map(a)


class TestResiduals:
    def test_exact_inner_triple_residual(self, m2):
        a, module, sid = m2
        rng = generator(61, "inner")
        x = module.element(ball_point(module, rng, 1.0))
        triple = DerivationTriple(inner_derivation(module, sid, sid, x), sid, sid)
        u, v = ball_pairs(a, rng, 100, 2.0)
        assert np.all(leibniz_residual(triple, u, v) <= 1e-13)

    def test_endomorphism_is_half_half_derivation(self, m2):
        # an endomorphism phi satisfies the product rule for the pair
        # (phi/2, phi/2): phi(ab) = phi(a) (phi(b)/2) + (phi(a)/2) phi(b)
        a, module, sid = m2
        u = a.unit_coords.copy()
        u[2] += 1.0
        phi = conjugation_map(a, u)
        half = LinearMap(0.5 * phi.matrix, a, a)
        d_map = LinearMap(phi.matrix, a, module)
        triple = DerivationTriple(d_map, half, half)
        x, y = ball_pairs(a, generator(63, "half"), 100, 2.0)
        assert np.all(leibniz_residual(triple, x, y) <= 1e-13)

    def test_zero_map_is_a_derivation_for_anything(self, m2):
        a, module, sid = m2
        rng = generator(65, "zero")
        arbitrary = LinearMap(
            generator(66, "m").standard_normal((a.dim, a.dim)), a, a
        )
        triple = DerivationTriple(
            LinearMap(np.zeros((module.dim, a.dim)), a, module), arbitrary, sid
        )
        u, v = ball_pairs(a, rng, 1, 1.0)
        assert leibniz_residual(triple, u, v).tolist() == [0.0]

    def test_identity_endomorphism_residual(self, m2):
        a, _, sid = m2
        eye = np.eye(a.dim, dtype=complex)
        assert endomorphism_residual(sid, eye[1:2], eye[2:3]).tolist() == [0.0]

    def test_conjugation_endomorphism_residual(self, m2):
        a, _, _ = m2
        u = a.unit_coords.copy()
        u[1] += 1.0
        conj = conjugation_map(a, u)
        x, y = ball_pairs(a, generator(67, "conj"), 100, 2.0)
        assert np.all(endomorphism_residual(conj, x, y) <= 1e-13)


    def test_basis_endo_residual_matches_the_pairwise_loop(self, m2):
        a, _, sid = m2
        u = a.unit_coords.copy()
        u[1] += 1.0
        weird = LinearMap(generator(68, "w").standard_normal((a.dim, a.dim)), a, a)
        for s in (sid, conjugation_map(a, u), weird):
            loop = max(endomorphism_residual(s, *basis_pairs(a)).tolist())
            assert _basis_endo_residual(a, s) == pytest.approx(loop, rel=1e-12, abs=1e-15)


class TestSigmaCertificate:
    def test_exact_triple_zero_certificate(self, m2):
        a, module, sid = m2
        x = module.element(ball_point(module, generator(69, "x"), 1.0))
        triple = DerivationTriple(inner_derivation(module, sid, sid, x), sid, sid)
        cert = sigma_endo_certificate(triple, samples=100, seed=1)
        assert cert.max_cancellation <= 1e-13
        assert cert.tau_basis_residual == 0.0
        assert cert.ran_trivial  # unital algebra

    def test_zero_derivation_certifies_for_any_sigma(self, m2):
        a, module, sid = m2
        weird = LinearMap(generator(70, "w").standard_normal((a.dim, a.dim)), a, a)
        triple = DerivationTriple(
            LinearMap(np.zeros((module.dim, a.dim)), a, module), weird, sid
        )
        cert = sigma_endo_certificate(triple, samples=50, seed=2)
        assert cert.max_cancellation == 0.0
        assert not cert.d_full_row_rank

    def test_surjective_d_reported(self, m2):
        a, module, sid = m2
        d_map = LinearMap(np.eye(a.dim, dtype=complex), a, module)
        triple = DerivationTriple(d_map, sid, sid)
        cert = sigma_endo_certificate(triple, samples=10, seed=3)
        assert cert.d_full_row_rank

    def test_negative_sample_count_rejected(self, m2):
        # it used to certify a zero cancellation over -1 samples
        a, module, sid = m2
        triple = DerivationTriple(LinearMap(np.eye(a.dim, dtype=complex), a, module), sid, sid)
        with pytest.raises(PreconditionError, match="nonnegative sample count"):
            sigma_endo_certificate(triple, samples=-1)


class TestSubspaces:
    def test_matrix2_dims_match_brute_force(self, m2):
        a, module, sid = m2
        ds = derivation_space(a, module, sid, sid)
        ins = inner_space(a, module, sid, sid)
        assert ds.dim == brute_force_derivation_dim(a, module, sid, sid) == 3
        assert ins.dim == brute_force_inner_dim(a, module, sid, sid) == 3

    def test_dual_numbers_dims_match_brute_force_and_hand_argument(self, duals):
        # hand oracle: d(eps eps) = 0 forces 2 eps d(eps) = 0, so d(eps) is
        # a multiple of eps; the unit forces d(e0) = 0: dimension 1.
        # commutativity makes every inner map vanish: dimension 0.
        a, module, sid = duals
        ds = derivation_space(a, module, sid, sid)
        ins = inner_space(a, module, sid, sid)
        assert ds.dim == brute_force_derivation_dim(a, module, sid, sid) == 1
        assert ins.dim == brute_force_inner_dim(a, module, sid, sid) == 0
        witness = ds.matrix(0)
        assert abs(witness[0, 0]) <= 1e-10  # d(e0) = 0
        assert abs(witness[0, 1]) <= 1e-10  # d(eps) has no unit component
        assert abs(witness[1, 1]) == pytest.approx(1.0, abs=1e-10)

    def test_zero_module_dims(self, m2):
        a, _, sid = m2
        z = zero_bimodule(a)
        assert derivation_space(a, z, sid, sid).dim == 0
        assert inner_space(a, z, sid, sid).dim == 0

    def test_twisted_dims_match_brute_force(self, m2):
        a, module, sid = m2
        u = a.unit_coords.copy()
        u[1] += 1.0
        conj = conjugation_map(a, u)
        ds = derivation_space(a, module, conj, sid)
        ins = inner_space(a, module, conj, sid)
        assert ds.dim == brute_force_derivation_dim(a, module, conj, sid)
        assert ins.dim == brute_force_inner_dim(a, module, conj, sid)

    def test_inner_space_contained_in_derivation_space(self, m2):
        a, module, sid = m2
        ds = derivation_space(a, module, sid, sid)
        ins = inner_space(a, module, sid, sid)
        for idx in range(ins.dim):
            assert ds.projection_residual(ins.vectors[idx]) <= 1e-9

    def test_every_derivation_basis_vector_satisfies_the_rule(self, m2):
        a, module, sid = m2
        ds = derivation_space(a, module, sid, sid)
        rng = generator(71, "check")
        for idx in range(ds.dim):
            triple = DerivationTriple(ds.linear_map(idx), sid, sid)
            u, v = ball_pairs(a, rng, 20, 1.0)
            assert np.all(leibniz_residual(triple, u, v) <= 1e-10)

    def test_dims_invariant_under_weight_rescaling(self):
        a = make_matrix_algebra(2)
        b = make_algebra(a.structure, weights=2.0 * np.ones(4), unit=a.unit_coords)
        for alg in (a, b):
            module = regular_bimodule(alg)
            sid = identity_map(alg)
            assert derivation_space(alg, module, sid, sid).dim == 3
            assert inner_space(alg, module, sid, sid).dim == 3

    def test_endomorphism_lies_in_half_half_derivation_space(self, m2):
        a, module, _ = m2
        u = a.unit_coords.copy()
        u[1] += 1.0
        phi = conjugation_map(a, u)
        half = LinearMap(0.5 * phi.matrix, a, a)
        ds = derivation_space(a, module, half, half)
        assert ds.projection_residual(phi.matrix.reshape(-1)) <= 1e-10


class TestClosedForms:
    @pytest.mark.parametrize("fixture,module_kind,twist", verdict_cases(CLOSED_FORM_FIXTURES))
    def test_dims_match_closed_form(self, fixture, module_kind, twist):
        report = decide(get_algebra(fixture), module_kind, twist)
        der, inner = closed_form_dims(fixture, module_kind)
        assert (report.derivation_dim, report.inner_dim) == (der, inner)
        assert report.contractible == (der == inner)

    @pytest.mark.parametrize("fixture,module_kind,twist",
                             verdict_cases(CHANGE_OF_BASIS_FIXTURES))
    def test_dims_invariant_under_change_of_basis(self, fixture, module_kind, twist):
        algebra = change_of_basis(get_algebra(fixture), seed=17)
        assert np.abs(algebra.structure.imag).max() > 0.1
        report = decide(algebra, module_kind, twist)
        der, inner = closed_form_dims(fixture, module_kind)
        assert (report.derivation_dim, report.inner_dim) == (der, inner)
        assert report.contractible == (der == inner)


class TestLeibnizSystem:
    @pytest.mark.parametrize("fixture,twist", [
        ("matrix:3", "id"), ("matrix:3", "conjugation:shear"),
        ("upper-triangular:3", "id"), ("upper-triangular:3", "conjugation:shear"),
        ("zero-product:4", "id"), ("dual-numbers", "id"), ("dual-numbers", "conjugation:shear"),
    ])
    def test_identity_rows_reproduce_the_kron_system(self, fixture, twist):
        a = get_algebra(fixture)
        sigma, tau = _resolve_endomorphism(a, twist), identity_map(a)
        for module in (regular_bimodule(a), dual_bimodule(regular_bimodule(a)),
                       extend_with_annihilator(regular_bimodule(a))[0]):
            system = leibniz_system(a, module, sigma, tau, np.eye(a.dim, dtype=complex))
            assert np.array_equal(system, kron_leibniz_system(a, module, sigma, tau))

    @pytest.mark.parametrize("fixture", ["matrix:3", "upper-triangular:4", "dual-numbers"])
    def test_generator_rows_give_the_same_space(self, fixture):
        a = get_algebra(fixture)
        a_changed = change_of_basis(a, seed=23)
        for alg in (a, a_changed):
            sigma, tau = _resolve_endomorphism(alg, "conjugation:shear"), identity_map(alg)
            for module in (regular_bimodule(alg), dual_bimodule(regular_bimodule(alg)),
                           extend_with_annihilator(regular_bimodule(alg))[0]):
                reduced = derivation_space(alg, module, sigma, tau)
                full = nullspace(
                    leibniz_system(alg, module, sigma, tau, np.eye(alg.dim)), 1e-10
                )
                gap = np.abs(projector(reduced.vectors) - projector(full)).max()
                assert gap <= 1e-10

    def test_generators_shrink_the_system_when_the_algebra_allows(self):
        for fixture in ("matrix:3", "upper-triangular:4"):
            a = get_algebra(fixture)
            sid = identity_map(a)
            assert leibniz_rows(a, sid, sid).shape == (2, a.dim)
        # every product vanishes, so only the whole basis generates
        z = get_algebra("zero-product:4")
        zid = identity_map(z)
        assert np.array_equal(leibniz_rows(z, zid, zid), np.eye(4))

    @pytest.mark.parametrize("fixture", ["matrix:2", "upper-triangular:3", "dual-numbers"])
    def test_closure_grown_by_a_row_matches_the_closure_from_scratch(self, fixture):
        # generators grows the closure one added basis row at a time
        a = get_algebra(fixture)
        order = generator(37, "closure", fixture).permutation(a.dim)
        for k in range(2, a.dim + 1):
            rows = np.eye(a.dim, dtype=complex)[order[:k]]
            grown = a._closure(rows, a._closure(rows[:-1]))
            assert np.abs(projector(grown) - projector(a._closure(rows))).max() <= 1e-12

    def test_nonmultiplicative_twist_uses_every_basis_row(self, m2):
        a, module, _ = m2
        u = a.unit_coords.copy()
        u[1] += 1.0
        half = LinearMap(0.5 * conjugation_map(a, u).matrix, a, a)
        assert np.array_equal(leibniz_rows(a, half, half), np.eye(a.dim))
        space = derivation_space(a, module, half, half)
        full = nullspace(kron_leibniz_system(a, module, half, half), 1e-10)
        assert np.abs(projector(space.vectors) - projector(full)).max() <= 1e-10


class TestSizeGuard:
    @pytest.mark.parametrize("shape", [(12, 5), (5, 12)])
    def test_estimate_is_the_system_and_the_factors_nullspace_takes(self, shape):
        system = np.ones(shape, dtype=complex)
        u, _, vh = np.linalg.svd(system, full_matrices=shape[0] < shape[1])
        assert _system_bytes(*shape) == system.nbytes + u.nbytes + vh.nbytes

    @pytest.mark.parametrize("pipeline", [is_contractible, is_amenable])
    def test_oversized_system_refused_before_it_is_built(self, pipeline, monkeypatch):
        built = []
        monkeypatch.setattr(derivation_module, "leibniz_system",
                            lambda *args: built.append(args))
        a = get_algebra("zero-product:40")  # 64000 x 1600 complex, 1.6 GB alone
        sid = identity_map(a)
        with pytest.raises(PreconditionError, match=r"64000 x 1600 .* 3\.1 GiB"):
            pipeline(a, regular_bimodule(a), sid, sid)
        assert built == []

    def test_zero_product_dimension_capped_at_64(self):
        assert get_algebra("zero-product:64").dim == 64
        with pytest.raises(ValueError, match="64"):
            get_algebra("zero-product:65")


class TestNullspace:
    @pytest.mark.parametrize("shape,rank", [((3, 7), 3), ((3, 7), 2), ((9, 4), 4),
                                            ((9, 4), 1)])
    def test_orthonormal_complement_of_the_row_space(self, shape, rank):
        rng = generator(31, "nullspace", *shape, rank)
        left = rng.standard_normal((shape[0], rank)) + 1j * rng.standard_normal((shape[0], rank))
        right = rng.standard_normal((rank, shape[1])) + 1j * rng.standard_normal((rank, shape[1]))
        mat = left @ right
        basis = nullspace(mat, 1e-10)
        assert basis.shape == (shape[1] - rank, shape[1])
        gram = basis.conj() @ basis.T
        assert np.abs(gram - np.eye(basis.shape[0])).max(initial=0.0) <= 1e-12
        assert np.abs(mat @ basis.T).max(initial=0.0) <= 1e-12 * np.abs(mat).max() * shape[1]

    def test_zero_and_empty_matrices(self):
        assert nullspace(np.zeros((2, 3)), 1e-10).shape == (3, 3)
        assert np.array_equal(nullspace(np.zeros((0, 3)), 1e-10), np.eye(3))


class TestInnerSolve:
    def test_recovers_inner_derivation_up_to_kernel(self, m2):
        a, module, sid = m2
        x = module.basis_element(1)  # the off-diagonal unit
        d_map = inner_derivation(module, sid, sid, x)
        result = inner_solve(DerivationTriple(d_map, sid, sid), tol=1e-9)
        assert result.feasible
        rebuilt = inner_derivation(module, sid, sid, result.x)
        assert np.abs(rebuilt.matrix - d_map.matrix).max() <= 1e-12

    def test_dual_numbers_noninner_derivation_infeasible(self, duals):
        a, module, sid = duals
        d_mat = np.zeros((2, 2), dtype=complex)
        d_mat[1, 1] = 1.0  # d(eps) = eps
        result = inner_solve(DerivationTriple(LinearMap(d_mat, a, module), sid, sid))
        assert not result.feasible
        assert result.residual > result.tolerance

    def test_zero_derivation_feasible_with_zero_witness(self, m2):
        a, module, sid = m2
        zero = LinearMap(np.zeros((module.dim, a.dim)), a, module)
        result = inner_solve(DerivationTriple(zero, sid, sid))
        assert result.feasible
        assert np.all(result.x.coords == 0)

    def test_success_implies_small_leibniz_for_rebuilt_map(self, m2):
        a, module, sid = m2
        x = module.element(ball_point(module, generator(73, "x"), 1.0))
        d_map = inner_derivation(module, sid, sid, x)
        result = inner_solve(DerivationTriple(d_map, sid, sid))
        rebuilt = DerivationTriple(
            inner_derivation(module, sid, sid, result.x), sid, sid
        )
        assert np.all(leibniz_residual(rebuilt, *basis_pairs(a)) <= 1e-10)


class TestVerdicts:
    def test_matrix2_contractible(self, m2):
        a, module, sid = m2
        report = is_contractible(a, module, sid, sid)
        assert report.contractible
        assert (report.derivation_dim, report.inner_dim) == (3, 3)
        assert report.witness is None

    def test_dual_numbers_not_contractible_with_witness(self, duals):
        a, module, sid = duals
        report = is_contractible(a, module, sid, sid)
        assert not report.contractible
        assert (report.derivation_dim, report.inner_dim) == (1, 0)
        witness = report.witness.matrix
        assert abs(witness[1, 1]) == pytest.approx(1.0, abs=1e-9)

    def test_zero_module_contractible(self, m2):
        a, _, sid = m2
        report = is_contractible(a, zero_bimodule(a), sid, sid)
        assert report.contractible
        assert (report.derivation_dim, report.inner_dim) == (0, 0)

    def test_nonmultiplicative_twist_rejected(self, m2):
        a, module, sid = m2
        half = LinearMap(0.5 * np.eye(a.dim, dtype=complex), a, a)
        with pytest.raises(PreconditionError):
            is_contractible(a, module, half, sid)

    def test_matrix2_amenable_matches_dual_brute_force(self, m2):
        a, module, sid = m2
        report = is_amenable(a, module, sid, sid)
        dual = dual_bimodule(module)
        assert report.contractible
        assert report.kind == "amenability"
        assert report.derivation_dim == brute_force_derivation_dim(a, dual, sid, sid)
        assert report.inner_dim == brute_force_inner_dim(a, dual, sid, sid)

    def test_dual_numbers_amenability_computed_not_assumed(self, duals):
        a, module, sid = duals
        report = is_amenable(a, module, sid, sid)
        dual = dual_bimodule(module)
        assert report.derivation_dim == brute_force_derivation_dim(a, dual, sid, sid)
        assert report.inner_dim == brute_force_inner_dim(a, dual, sid, sid)

    def test_zero_module_amenable(self, m2):
        a, _, sid = m2
        assert is_amenable(a, zero_bimodule(a), sid, sid).contractible

    @pytest.mark.parametrize("pipeline", [is_contractible, is_amenable])
    def test_each_endomorphism_residual_computed_once(self, m2, pipeline, monkeypatch):
        a, module, sid = m2
        computed = []
        monkeypatch.setattr(derivation_module, "_basis_endo_residual",
                            lambda algebra, s: computed.append(s) or _basis_endo_residual(algebra, s))
        pipeline(a, module, sid, sid)
        assert len(computed) == 2  # sigma and tau


class TestRoundtrip:
    def build(self, epsilon, seed=81):
        a = make_matrix_algebra(2)
        module, ann = extend_with_annihilator(regular_bimodule(a))
        sid = identity_map(a)
        x = module.element(ball_point(module, generator(seed, "x"), 1.0))
        d0 = inner_derivation(module, sid, sid, x)
        triple = DerivationTriple(d0, sid, sid)
        maps = make_annihilator_perturbation(
            triple, PerturbationSpec(mode="annihilator", epsilon=epsilon, seed=seed), ann
        )
        return a, module, sid, maps

    def test_noisy_inner_derivation_roundtrip(self):
        a, module, sid, maps = self.build(1e-3)
        result = approx_contractibility_roundtrip(
            maps.f, maps.control, a, module, sid, sid, samples=1000, seed=5
        )
        assert result.feasible
        assert result.beta <= 3e-3 * (1.0 + module.action_bound) + 1e-9
        assert result.scaling_residual <= 1e-10

    def test_exact_inner_derivation_beta_negligible(self):
        a, module, sid, maps = self.build(0.0)
        result = approx_contractibility_roundtrip(
            maps.f, constant_control(0.0), a, module, sid, sid, samples=300, seed=6
        )
        assert result.feasible
        assert result.beta <= 1e-12

    def test_dual_numbers_infeasible_certificate(self):
        a = get_algebra("dual-numbers")
        module, ann = extend_with_annihilator(regular_bimodule(a))
        sid = identity_map(a)
        d_mat = np.zeros((3, 2), dtype=complex)
        d_mat[1, 1] = 1.0  # d(eps) = eps inside the extended module
        triple = DerivationTriple(LinearMap(d_mat, a, module), sid, sid)
        maps = make_annihilator_perturbation(
            triple, PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=7), ann
        )
        result = approx_contractibility_roundtrip(
            maps.f, maps.control, a, module, sid, sid, samples=300, seed=8
        )
        assert not result.feasible
        assert result.witness is not None
        witness = result.witness.matrix
        assert abs(witness[1, 1] - 1.0) <= 1e-9
        assert np.abs(witness[:, 0]).max() <= 1e-9
        assert result.inner_residual > 0.5  # the derivation is far from inner
