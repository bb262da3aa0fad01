"""Algebra and bimodule construction, norms, actions, annihilators."""

from dataclasses import dataclass

import numpy as np
import pytest

from derivlab import (
    ConstructionError,
    SpaceMismatchError,
    act_left,
    act_right,
    algebra_from_dict,
    algebra_to_dict,
    bimodule_from_dict,
    bimodule_to_dict,
    conjugation_map,
    dual_bimodule,
    get_algebra,
    identity_map,
    left_annihilator,
    make_algebra,
    make_matrix_algebra,
    module_annihilator,
    mul,
    right_annihilator,
    zero_bimodule,
)
from derivlab import algebra as algebra_module
from derivlab.algebra import (STRUCTURE_TOL, AlgebraElement, Bimodule, FiniteAlgebra, LinearMap,
                              ModuleElement, record_dict, regular_bimodule)
from derivlab.fixtures import make_upper_triangular
from derivlab.perturb import extend_with_annihilator
from derivlab.sampling import ball_point, ball_rows, generator


def matrix_units(n):
    """Index p = n*i + j <-> numpy matrix unit, the hand oracle for products."""
    units = []
    for i in range(n):
        for j in range(n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    return units


def coords_to_matrix(coords, n):
    return np.sum([c * u for c, u in zip(coords, matrix_units(n))], axis=0)


class TestMatrixAlgebra:
    def test_scalars(self):
        a = make_matrix_algebra(1)
        assert a.dim == 1
        e0 = a.basis_element(0)
        assert np.allclose((e0 * e0).coords, e0.coords)
        assert a.unit_index == 0

    def test_matrix_unit_table_against_numpy_products(self):
        # oracle: actual 2x2 matrix multiplication
        a = make_matrix_algebra(2)
        units = matrix_units(2)
        for p in range(4):
            for q in range(4):
                product = mul(a.basis_element(p), a.basis_element(q))
                expected = units[p] @ units[q]
                assert np.array_equal(coords_to_matrix(product.coords, 2), expected)

    def test_known_products(self):
        a = make_matrix_algebra(2)
        e01, e10 = a.basis_element(1), a.basis_element(2)
        assert np.array_equal((e01 * e10).coords, [1, 0, 0, 0])
        assert np.all((e01 * e01).coords == 0)

    def test_associativity_residual_is_exactly_zero(self):
        a = make_matrix_algebra(2)
        c = a.structure
        left = np.einsum("ijm,mkl->ijkl", c, c)
        right = np.einsum("jkm,iml->ijkl", c, c)
        assert np.array_equal(left, right)

    def test_unit_multiplies_trivially(self):
        a = make_matrix_algebra(3)
        unit = a.unit
        rng = generator(0, "unit-check")
        for _ in range(20):
            x = a.element(ball_point(a, rng, 2.0))
            assert np.allclose((unit * x).coords, x.coords, atol=1e-14)
            assert np.allclose((x * unit).coords, x.coords, atol=1e-14)

    @pytest.mark.parametrize("n", [0, 13, -1])
    def test_size_limits(self, n):
        with pytest.raises(ConstructionError, match="1 <= n <= 12"):
            make_matrix_algebra(n)
        with pytest.raises(ValueError, match="1 <= n <= 12"):
            make_upper_triangular(n)


class TestMakeAlgebra:
    def test_dual_numbers_accepted(self):
        # four hand-checked triples: any product with a unit collapses and
        # eps*eps = 0 makes the rest vanish
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
        a = make_algebra(c, unit_index=0)
        eps = a.basis_element(1)
        assert np.all((eps * eps).coords == 0)

    def test_broken_associativity_rejected(self):
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 0, 0] = 1.0
        c[0, 0, 1] = 0.5
        c[1, 0, 0] = 1.0  # e1 e0 = e0 while e0 e0 has an e1 component
        with pytest.raises(ConstructionError, match="associativity"):
            make_algebra(c)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflowing_associator_rejected(self):
        # not associative ((e1 e0) e1 = 3e400 e1, e1 (e0 e1) = 1e400 e1), but
        # both sides overflow and inf - inf = nan slipped past `worst > tol`
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 0, 0] = c[0, 1, 1] = c[1, 1, 0] = 1e200
        c[1, 0, 1] = 3e200
        with pytest.raises(ConstructionError, match="associativity fails .* nan"):
            make_algebra(c)

    def test_nonpositive_weight_rejected(self):
        c = np.zeros((1, 1, 1), dtype=complex)
        with pytest.raises(ConstructionError):
            make_algebra(c, weights=[0.0])

    def test_unit_weights_on_dual_numbers_certify_without_rescale(self):
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
        a = make_algebra(c, weights=[1.0, 1.0], unit_index=0)
        assert a.rescale_factor == 1.0
        assert np.array_equal(a.norm_weights, [1.0, 1.0])

    def test_rescale_repairs_submultiplicativity(self):
        # e1 e1 = 4 e0 violates |e1 e1| <= 1 until weights are scaled by 4
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
        c[1, 1, 0] = 4.0
        a = make_algebra(c, unit_index=0)
        assert a.rescale_factor == pytest.approx(4.0)
        w = a.norm_weights
        pair_norms = np.einsum("k,ijk->ij", w, np.abs(a.structure))
        assert np.all(pair_norms <= np.outer(w, w) + 1e-12)

    def test_fake_unit_rejected(self):
        c = np.zeros((2, 2, 2), dtype=complex)
        c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
        with pytest.raises(ConstructionError, match="unit"):
            make_algebra(c, unit_index=1)


@pytest.mark.parametrize(
    "fixture",
    ["matrix:2", "matrix:3", "dual-numbers", "upper-triangular:3", "zero-product:2"],
)
def test_submultiplicative_on_seeded_pairs_exactly(fixture):
    # weighted-l1 certification turns this into an inequality of
    # nonnegative reals: no tolerance
    a = get_algebra(fixture)
    rng = generator(17, "submult", fixture)
    for _ in range(1000):
        x = a.element(ball_point(a, rng, 4.0))
        y = a.element(ball_point(a, rng, 4.0))
        assert (x * y).norm() <= x.norm() * y.norm()


def test_mul_bilinearity_and_zero():
    a = get_algebra("matrix:2")
    z = a.zero()
    x = a.element([1, 2j, -1, 0.5])
    assert np.all((x * z).coords == 0)
    assert np.all((z * x).coords == 0)


def test_mul_rejects_mismatched_algebras():
    a, b = make_matrix_algebra(2), make_matrix_algebra(3)
    with pytest.raises(SpaceMismatchError):
        mul(a.basis_element(0), b.basis_element(0))


class TestBimodule:
    def test_regular_actions_are_multiplication(self):
        a = make_matrix_algebra(2)
        x_mod = regular_bimodule(a)
        rng = generator(3, "regular")
        for _ in range(20):
            u = a.element(ball_point(a, rng, 2.0))
            v = ball_point(a, rng, 2.0)
            xe = x_mod.element(v)
            ve = a.element(v)
            assert np.allclose(act_left(u, xe).coords, (u * ve).coords, atol=1e-14)
            assert np.allclose(act_right(xe, u).coords, (ve * u).coords, atol=1e-14)

    def test_action_bound_certified_on_samples(self):
        a = make_matrix_algebra(3)
        x_mod = regular_bimodule(a)
        c = x_mod.action_bound
        rng = generator(5, "bound")
        for _ in range(200):
            u = a.element(ball_point(a, rng, 4.0))
            x = x_mod.element(ball_point(x_mod, rng, 4.0))
            assert act_left(u, x).norm() <= c * u.norm() * x.norm() + 1e-12
            assert act_right(x, u).norm() <= c * u.norm() * x.norm() + 1e-12

    def test_zero_element_acts_to_zero(self):
        a = make_matrix_algebra(2)
        x_mod = regular_bimodule(a)
        x = x_mod.element([1, 1, 1, 1])
        assert np.all(act_left(a.zero(), x).coords == 0)

    def test_zero_module(self):
        a = make_matrix_algebra(2)
        z = zero_bimodule(a)
        assert z.dim == 0
        assert z.norm(np.zeros(0)) == 0.0
        assert dual_bimodule(z).dim == 0

    def test_broken_module_axioms_rejected(self):
        a = make_matrix_algebra(2)
        left = a.structure.copy()
        left[0, 0, 0] += 1.0
        with pytest.raises(ConstructionError, match="module axiom"):
            bimodule_from_dict(
                a,
                {
                    "dim": 4,
                    "left_action": [[[[c.real, c.imag] for c in row] for row in plane]
                                    for plane in left],
                    "right_action": [[[[c.real, c.imag] for c in row] for row in plane]
                                     for plane in a.structure],
                    "weights": [1, 1, 1, 1],
                },
            )

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflowing_module_axiom_rejected(self):
        # e e = 1e150 e, so e.x = 1e160 x is no module action, but (e e).x and
        # e.(e.x) both overflow and inf - inf = nan slipped past `worst > tol`
        a = make_algebra(np.full((1, 1, 1), 1e150))
        left, right = np.full((1, 1, 1), 1e160), np.zeros((1, 1, 1))
        with pytest.raises(ConstructionError, match="left associativity' fails \\(nan\\)"):
            Bimodule(a, left, right)

    def test_module_document_names_a_missing_key(self):
        with pytest.raises(ConstructionError, match="missing 'left_action'"):
            bimodule_from_dict(make_matrix_algebra(2), {})

    @pytest.mark.parametrize("dim", [3, 5, None])
    def test_module_document_dim_must_match_the_tensors(self, dim):
        a = make_matrix_algebra(2)
        doc = bimodule_to_dict(regular_bimodule(a))
        if dim is None:
            del doc["dim"]
        else:
            doc["dim"] = dim
        with pytest.raises(ConstructionError, match="dim"):
            bimodule_from_dict(a, doc)


class TestDualBimodule:
    def test_dual_action_is_transpose_on_dual_numbers(self):
        # commutative regular module: left action of a on a functional is
        # the transpose of right multiplication by a
        a = get_algebra("dual-numbers")
        x_mod = regular_bimodule(a)
        dual = dual_bimodule(x_mod)
        rng = generator(9, "dual")
        for _ in range(20):
            u = ball_point(a, rng, 2.0)
            expected = x_mod.right_matrix(u).T
            assert np.allclose(dual.left_matrix(u), expected, atol=1e-14)

    def test_double_dual_tensors_equal_original_entrywise(self):
        a = make_matrix_algebra(2)
        x_mod = regular_bimodule(a)
        dd = dual_bimodule(dual_bimodule(x_mod))
        assert np.array_equal(dd.left_action, x_mod.left_action)
        assert np.array_equal(dd.right_action, x_mod.right_action)
        assert dd.norm_kind == x_mod.norm_kind

    def test_dual_norm_is_weighted_sup(self):
        a = make_matrix_algebra(2)
        dual = dual_bimodule(regular_bimodule(a))
        assert dual.norm_kind == "linf"
        assert dual.norm([1.0, -2.0, 0.5, 0.0]) == 2.0

    def test_dual_action_bound_certified_on_samples(self):
        a = make_matrix_algebra(2)
        dual = dual_bimodule(regular_bimodule(a))
        c = dual.action_bound
        rng = generator(12, "dual-bound")
        for _ in range(200):
            u = a.element(ball_point(a, rng, 4.0))
            f = dual.element(ball_point(dual, rng, 4.0))
            assert act_left(u, f).norm() <= c * u.norm() * f.norm() + 1e-12
            assert act_right(f, u).norm() <= c * u.norm() * f.norm() + 1e-12

    def test_dual_actions_satisfy_the_pairing_identities(self):
        # (a.f)(x) = f(x.a) and (f.a)(x) = f(a.x), the defining equations
        a = make_matrix_algebra(2)
        x_mod = regular_bimodule(a)
        dual = dual_bimodule(x_mod)
        rng = generator(14, "pairing-id")
        for _ in range(100):
            u = a.element(ball_point(a, rng, 2.0))
            f = dual.element(ball_point(dual, rng, 2.0))
            x = x_mod.element(ball_point(x_mod, rng, 2.0))
            lhs = act_left(u, f).coords @ x.coords
            rhs = f.coords @ act_right(x, u).coords
            assert abs(lhs - rhs) <= 1e-12
            lhs = act_right(f, u).coords @ x.coords
            rhs = f.coords @ act_left(u, x).coords
            assert abs(lhs - rhs) <= 1e-12

    def test_dual_pairing_bound(self):
        # |f(x)| <= |f|_dual |x| on samples: the defining duality
        a = make_matrix_algebra(2)
        x_mod = regular_bimodule(a)
        dual = dual_bimodule(x_mod)
        rng = generator(11, "pairing")
        for _ in range(200):
            f = ball_point(dual, rng, 3.0)
            x = ball_point(x_mod, rng, 3.0)
            assert abs(f @ x) <= dual.norm(f) * x_mod.norm(x) + 1e-12


class TestAnnihilators:
    def test_unital_algebras_have_trivial_annihilators(self):
        for name in ("matrix:2", "matrix:3", "dual-numbers", "upper-triangular:2"):
            a = get_algebra(name)
            assert right_annihilator(a).shape[0] == 0
            assert left_annihilator(a).shape[0] == 0

    def test_dual_numbers_by_hand(self):
        # eps*eps = 0 but e0*eps = eps != 0, so the joint nullspace is {0}
        a = get_algebra("dual-numbers")
        regular = regular_bimodule(a)
        stacked = np.vstack([regular.left_matrix([1, 0]), regular.left_matrix([0, 1])])
        _, s, _ = np.linalg.svd(stacked)
        assert np.all(s > 0.5)  # full column rank by hand: rows include identity
        assert right_annihilator(a).shape[0] == 0

    def test_zero_product_algebra_annihilator_is_everything(self):
        a = get_algebra("zero-product:3")
        assert right_annihilator(a).shape[0] == 3
        assert left_annihilator(a).shape[0] == 3

    def test_annihilator_vectors_are_killed(self):
        a = get_algebra("zero-product:2")
        basis = right_annihilator(a)
        regular = regular_bimodule(a)
        for x in basis:
            for i in range(a.dim):
                assert a.norm(regular.left_matrix(np.eye(2)[i]) @ x) <= 1e-12

    def test_module_annihilator_of_extended_module(self):
        from derivlab.perturb import extend_with_annihilator

        a = make_matrix_algebra(2)
        ext, basis = extend_with_annihilator(regular_bimodule(a), k=2)
        found = module_annihilator(ext)
        assert found.shape[0] == 2
        for z in found:
            for i in range(a.dim):
                assert ext.norm(ext.left_matrix(np.eye(4)[i]) @ z) <= 1e-12
                assert ext.norm(ext.right_matrix(np.eye(4)[i]) @ z) <= 1e-12


class TestLinearMap:
    def test_operator_norm_bounds_application(self):
        a = make_matrix_algebra(2)
        rng = generator(13, "opnorm")
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lin = identity_map(a)
        lin = type(lin)(mat, a, a)
        bound = lin.operator_norm()
        for _ in range(100):
            x = a.element(ball_point(a, rng, 2.0))
            assert lin.apply(x).norm() <= bound * x.norm() + 1e-12

    def test_domain_checked(self):
        a, b = make_matrix_algebra(2), make_matrix_algebra(3)
        lin = identity_map(a)
        with pytest.raises(SpaceMismatchError):
            lin.apply(b.basis_element(0))

    def test_conjugation_is_an_automorphism(self):
        from derivlab import endomorphism_residual

        a = make_matrix_algebra(2)
        u = a.unit_coords.copy()
        u[1] += 1.0  # unit plus a nilpotent shear: invertible
        conj = conjugation_map(a, u)
        rows = ball_rows(a, generator(15, "conj"), np.full(100, 2.0))
        assert np.all(endomorphism_residual(conj, rows[0::2], rows[1::2]) <= 1e-13)

    @pytest.mark.parametrize("coords", [np.ones(3), np.array(1 + 2j), np.ones((4, 1))],
                             ids=["too few", "scalar", "column"])
    def test_conjugating_element_of_the_wrong_shape_is_refused(self, coords):
        with pytest.raises(ConstructionError, match="must have 4 coordinates"):
            conjugation_map(make_matrix_algebra(2), coords)


class TestElements:
    def test_sum_difference_and_negation(self):
        a = make_matrix_algebra(2)
        module = regular_bimodule(a)
        x, y = a.element([1, 2j, 0, -3]), a.element([0.5, 1, 1j, 3])
        for value, want in ((x + y, [1.5, 1 + 2j, 1j, 0]), (x - y, [0.5, 2j - 1, -1j, -6]),
                            (-x, [-1, -2j, 0, 3])):
            assert type(value) is AlgebraElement
            assert np.array_equal(value.coords, want)
        assert (x + -x).norm() == 0.0
        z = module.element([1, 0, 0, 1j])
        assert type(z + z) is ModuleElement and np.array_equal((-z).coords, [-1, 0, 0, -1j])
        with pytest.raises(SpaceMismatchError):
            x + z

    @pytest.mark.parametrize("scalar", [2, -0.5, 1j])
    def test_scalar_times_element_on_either_side(self, scalar):
        a = make_matrix_algebra(2)
        x = a.element([1, 2j, 0, -3])
        for value in (x * scalar, scalar * x):
            assert type(value) is AlgebraElement
            assert np.array_equal(value.coords, scalar * np.array([1, 2j, 0, -3]))
        with pytest.raises(TypeError):
            x * "2"

    def test_elements_name_their_space(self):
        a = make_matrix_algebra(2)
        module = regular_bimodule(a)
        assert a.basis_element(1).algebra is a
        assert module.zero().module is module

    def test_reprs(self):
        from derivlab import constant_control

        a = make_matrix_algebra(2)
        module = regular_bimodule(a)
        assert repr(a) == f"FiniteAlgebra(dim=4, tag={a.tag!r})"
        assert repr(module) == f"Bimodule(dim=4, algebra_dim=4, tag={module.tag!r})"
        assert repr(LinearMap(np.ones((4, 4)), a, module)) == \
            f"LinearMap(4x4, {a.tag} -> {module.tag})"
        assert repr(a.basis_element(1)) == \
            "AlgebraElement(array([0.+0.j, 1.+0.j, 0.+0.j, 0.+0.j]))"
        assert repr(constant_control(0.25)) == "PNormControl(alpha=0.25, beta=0.0, p=0.0)"


class TestSerialization:
    def test_algebra_roundtrip_recertifies(self):
        a = make_matrix_algebra(2)
        doc = algebra_to_dict(a)
        b = algebra_from_dict(doc)
        assert b.tag == a.tag
        assert np.array_equal(b.structure, a.structure)
        assert np.array_equal(b.unit_coords, a.unit_coords)

    def test_bimodule_roundtrip(self):
        a = make_matrix_algebra(2)
        x_mod = regular_bimodule(a)
        doc = bimodule_to_dict(x_mod)
        y_mod = bimodule_from_dict(a, doc)
        assert y_mod.tag == x_mod.tag
        assert y_mod.action_bound == x_mod.action_bound

    def test_record_document_writes_each_field_kind(self):
        @dataclass
        class Nested:
            def to_dict(self):
                return {"nested": [1, None]}

        @dataclass
        class Record:
            linear_map: LinearMap
            element: ModuleElement
            algebra_element: AlgebraElement
            array: np.ndarray
            missing: LinearMap | None
            nested: Nested
            diagnostics: dict
            count: int
            verdict: str

            to_dict = record_dict

        algebra = get_algebra("dual-numbers")
        module = regular_bimodule(algebra)
        diagnostics = {"rank": 1, "kept": None}
        record = Record(
            linear_map=LinearMap([[1.0, 2j], [0.0, -1.5]], algebra, module),
            element=module.element(np.array([1j, 3.0])),
            algebra_element=algebra.element(np.array([0.25, -1j])),
            array=np.array([[0.5 + 0.5j], [-2.0 + 0j]]),
            missing=None,
            nested=Nested(),
            diagnostics=diagnostics,
            count=7,
            verdict="h1_vanishes",
        )
        doc = record.to_dict()
        assert doc == {
            "linear_map": [[[1.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [-1.5, 0.0]]],
            "element": [[0.0, 1.0], [3.0, 0.0]],
            "algebra_element": [[0.25, 0.0], [0.0, -1.0]],
            "array": [[[0.5, 0.5]], [[-2.0, 0.0]]],
            "missing": None,
            "nested": {"nested": [1, None]},
            "diagnostics": {"rank": 1, "kept": None},
            "count": 7,
            "verdict": "h1_vanishes",
        }
        assert list(doc) == list(Record.__dataclass_fields__)
        assert doc["diagnostics"] is diagnostics

    @pytest.mark.parametrize("dim", [True, "1", 1.0, 2, None])
    def test_algebra_document_dim_must_be_the_integer_dimension(self, dim):
        # "dim": true compared equal to 1 and loaded a one-dimensional algebra
        doc = algebra_to_dict(make_algebra(np.ones((1, 1, 1))))
        if dim is None:
            del doc["dim"]
        else:
            doc["dim"] = dim
        with pytest.raises(ConstructionError, match="dim"):
            algebra_from_dict(doc)

    def test_rescaled_weights_survive_a_reload(self):
        # the rescaled worst pair ratio rounded to 1 + 2^-52 on this copy, and
        # the reload rescaled the weights again: new weights, new tag
        from test_derivation import unitary_change_of_basis

        a, _ = unitary_change_of_basis(get_algebra("upper-triangular:3"), 43)
        assert a.rescale_factor > 1.0
        b = algebra_from_dict(algebra_to_dict(a))
        assert b.tag == a.tag
        assert np.array_equal(b.norm_weights, a.norm_weights)
        assert b.rescale_factor == 1.0
        w = a.norm_weights
        assert (np.einsum("k,ijk->ij", w, np.abs(a.structure)) / np.outer(w, w)).max() <= 1.0

    def test_every_rescaled_copy_reloads_with_its_tag(self):
        # 21 of these 100 copies used to get a new tag on reload
        from test_derivation import unitary_change_of_basis

        for fixture in ("matrix:2", "matrix:3", "upper-triangular:3", "upper-triangular:4",
                        "dual-numbers"):
            for seed in range(40, 60):
                a, _ = unitary_change_of_basis(get_algebra(fixture), seed)
                assert algebra_from_dict(algebra_to_dict(a)).tag == a.tag, (fixture, seed)

    def test_loader_rejects_corrupted_structure(self):
        a = make_matrix_algebra(2)
        doc = algebra_to_dict(a)
        doc["structure"][0][1][0] = [1.0, 0.0]  # breaks associativity
        with pytest.raises(ConstructionError):
            algebra_from_dict(doc)


# --- certification: per-index products, and axioms inherited by derived modules

INHERITANCE_FIXTURES = ("matrix:1", "matrix:2", "matrix:3", "dual-numbers",
                        "upper-triangular:2", "upper-triangular:3", "zero-product:3")


def reference_associativity_gap(c):
    """|(e_i e_j) e_k - e_i (e_j e_k)| as one four-index einsum each side."""
    return np.abs(np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c))


def reference_generator_slot_gap(c, rows):
    """|(e_i e_j) g - e_i (e_j g)| for basis e_i, e_j and each row g, indexed
    [i, j, g, coordinate], as one einsum each side."""
    return np.abs(np.einsum("ijs,gp,spt->ijgt", c, rows, c)
                  - np.einsum("gp,jps,ist->ijgt", rows, c, c))


def certified_generators(monkeypatch):
    """The generator rows of each FiniteAlgebra construction from here on, the
    rows its associativity is certified against, in construction order."""
    seen = []
    search = FiniteAlgebra.generators.func
    monkeypatch.setattr(FiniteAlgebra, "generators",
                        property(lambda self: seen.append(search(self)) or seen[-1]))
    return seen


def reference_axiom_gaps(c, l, r):
    """The three module axioms as four-index einsums, in the order they are
    checked."""
    return {
        "left associativity": np.abs(np.einsum("ijm,mkl->ijkl", c, l)
                                     - np.einsum("jkm,iml->ijkl", l, l)),
        "right associativity": np.abs(np.einsum("ijm,kml->ijkl", c, r)
                                      - np.einsum("kim,mjl->ijkl", r, r)),
        "middle associativity": np.abs(np.einsum("ikm,mjl->ijkl", l, r)
                                       - np.einsum("kjm,iml->ijkl", r, l)),
    }


def fixture_in_basis(fixture, basis_seed):
    from test_derivation import change_of_basis

    algebra = get_algebra(fixture)
    return algebra if basis_seed is None else change_of_basis(algebra, basis_seed)


def derived_modules(algebra):
    regular = regular_bimodule(algebra)
    dual = dual_bimodule(regular)
    extended = extend_with_annihilator(regular)[0]
    return {
        "regular": regular,
        "dual": dual,
        "double dual": dual_bimodule(dual),
        "extended": extended,
        "dual of extended": dual_bimodule(extended),
    }


BROKEN_FIXTURES = ("matrix:2", "dual-numbers", "upper-triangular:3", "zero-product:3")


def broken_structure(fixture, seed, basis_seed):
    """Structure constants of the fixture with two seeded entries moved by
    multiples of 1/8, which keep the arithmetic exact in the own basis."""
    c = np.array(fixture_in_basis(fixture, basis_seed).structure)
    rng = generator(seed, "broken-algebra", fixture)
    for _ in range(2):
        c[tuple(rng.integers(0, len(c), 3))] += rng.integers(1, 8) / 8
    return c


def broken_actions(fixture, seed, basis_seed):
    """(algebra, left, right): the regular module's actions with one seeded
    entry of one side moved by a multiple of 1/8."""
    algebra = fixture_in_basis(fixture, basis_seed)
    regular = regular_bimodule(algebra)
    left, right = np.array(regular.left_action), np.array(regular.right_action)
    side = left if seed % 2 else right
    rng = generator(seed, "broken-module", fixture)
    side[tuple(rng.integers(0, len(side), 3))] += rng.integers(1, 8) / 8
    return algebra, left, right


class TestCertification:
    @pytest.mark.parametrize("basis_seed", [None, 0])
    @pytest.mark.parametrize("fixture", INHERITANCE_FIXTURES)
    def test_derived_modules_pass_the_full_checks(self, fixture, basis_seed):
        # the constructors skip the axiom checks; public Bimodule runs them
        algebra = fixture_in_basis(fixture, basis_seed)
        for name, module in derived_modules(algebra).items():
            gaps = reference_axiom_gaps(algebra.structure, module.left_action,
                                        module.right_action)
            for axiom, gap in gaps.items():
                assert gap.max(initial=0.0) <= STRUCTURE_TOL, (name, axiom)
            rebuilt = Bimodule(algebra, module.left_action, module.right_action,
                               weights=module.norm_weights, norm_kind=module.norm_kind)
            assert rebuilt.tag == module.tag
            assert rebuilt.action_bound == module.action_bound

    @pytest.mark.parametrize("fixture", ["matrix:2", "dual-numbers", "upper-triangular:3"])
    def test_sup_norm_action_bound_matches_the_matrix_form(self, fixture):
        # the weighted row sums of the matrices of x -> e_i.x and x -> x.e_i,
        # built here through left_matrix and right_matrix
        algebra = fixture_in_basis(fixture, 1)
        dual = dual_bimodule(regular_bimodule(algebra))
        v, eye = dual.norm_weights, np.eye(algebra.dim)
        bound = 0.0
        for i in range(algebra.dim):
            for mat in (dual.left_matrix(eye[i]), dual.right_matrix(eye[i])):
                op = float(np.max((v[:, None] * np.abs(mat) / v[None, :]).sum(axis=1)))
                bound = max(bound, op / algebra.norm_weights[i])
        assert dual.action_bound == bound

    def test_only_outside_input_is_checked_again(self, monkeypatch):
        checked = []
        original = algebra_module._worst_associator
        monkeypatch.setattr(algebra_module, "_worst_associator",
                            lambda *factors: checked.append(1) or original(*factors))
        a = make_matrix_algebra(2)
        assert len(checked) == 1  # associativity
        modules = derived_modules(a)
        assert len(checked) == 1
        Bimodule(a, a.structure, a.structure)
        assert len(checked) == 4
        bimodule_from_dict(a, bimodule_to_dict(modules["dual"]))
        assert len(checked) == 7

    @pytest.mark.parametrize("basis_seed", [None, 0])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fixture", BROKEN_FIXTURES)
    def test_broken_algebra_reports_the_reference_triple(self, fixture, seed, basis_seed,
                                                         monkeypatch):
        c = broken_structure(fixture, seed, basis_seed)
        seen = certified_generators(monkeypatch)
        if reference_associativity_gap(c).max() <= STRUCTURE_TOL:
            make_algebra(c)
            assert reference_generator_slot_gap(c, seen[-1]).max() <= STRUCTURE_TOL
            return
        # every structure the full check refuses is refused
        with pytest.raises(ConstructionError) as info:
            make_algebra(c)
        rows = seen[-1]
        gap = reference_generator_slot_gap(c, rows)
        worst = gap.max()
        assert worst > STRUCTURE_TOL
        head, residual = str(info.value).split(" with residual ")
        assert head.startswith("associativity fails on basis, basis, generator triple (")
        reported = tuple(int(x) for x in head.split("(")[1].rstrip(")").split(", "))
        first = tuple(int(x) for x in np.unravel_index(np.argmax(gap), gap.shape)[:3])
        ties = {tuple(int(x) for x in t)
                for t in np.argwhere(gap.max(axis=3) >= worst * (1 - 1e-12))}
        # with the basis as generators in the fixture's own basis the
        # arithmetic is exact, and ties go to the first triple as np.argmax
        # breaks them; with generic rows or in another basis rounding may
        # break a tie either way
        exact = basis_seed is None and np.array_equal(rows, np.eye(len(c)))
        assert reported == first if exact else reported in ties
        assert float(residual) == pytest.approx(worst, rel=1e-3)

    @pytest.mark.parametrize("basis_seed", [None, 0, 1])
    @pytest.mark.parametrize("fixture", INHERITANCE_FIXTURES + ("matrix:4", "upper-triangular:4",
                                                                "sum"))
    def test_generator_slot_and_full_gaps_agree(self, fixture, basis_seed):
        # both pass on every certified algebra; test_broken_algebra_reports_the_reference_triple
        # has them fail together
        if fixture == "sum":
            from test_derivation import direct_sum

            algebra = direct_sum(get_algebra("dual-numbers"), make_matrix_algebra(2))
            if basis_seed is not None:
                from test_derivation import change_of_basis

                algebra = change_of_basis(algebra, basis_seed)
        else:
            algebra = fixture_in_basis(fixture, basis_seed)
        c = algebra.structure
        assert reference_associativity_gap(c).max() <= STRUCTURE_TOL
        assert reference_generator_slot_gap(c, algebra.generators).max() <= STRUCTURE_TOL

    @pytest.mark.parametrize("basis_seed", [None, 0])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fixture", BROKEN_FIXTURES)
    def test_broken_module_reports_the_reference_axiom(self, fixture, seed, basis_seed):
        algebra, left, right = broken_actions(fixture, seed, basis_seed)
        failing = [(axiom, gap.max()) for axiom, gap in
                   reference_axiom_gaps(algebra.structure, left, right).items()
                   if gap.max() > STRUCTURE_TOL]
        if not failing:
            Bimodule(algebra, left, right)
            return
        axiom, worst = failing[0]
        with pytest.raises(ConstructionError, match=f"module axiom '{axiom}' fails") as info:
            Bimodule(algebra, left, right)
        assert float(str(info.value).rsplit("(", 1)[1][:-1]) == pytest.approx(worst, rel=1e-3)

    def test_seeded_breakages_mostly_break(self):
        # the two tests above check the reported failure on these cases only
        # where the reference finds one: most of them
        algebras = modules = 0
        for fixture in BROKEN_FIXTURES:
            for seed in range(4):
                c = broken_structure(fixture, seed, None)
                algebras += reference_associativity_gap(c).max() > STRUCTURE_TOL
                algebra, left, right = broken_actions(fixture, seed, None)
                gaps = reference_axiom_gaps(algebra.structure, left, right).values()
                modules += max(gap.max() for gap in gaps) > STRUCTURE_TOL
        assert algebras >= 12 and modules >= 12
