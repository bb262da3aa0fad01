"""Control functions: evaluation, closed-form sums, truncation certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivlab import (
    ControlError,
    PNormControl,
    PointMap,
    TabulatedControl,
    constant_control,
    control_from_dict,
    identity_map,
    make_matrix_algebra,
    summed_control,
)
from derivlab.control import (DEFAULT_TRUNCATION, doubling_tails, summed_control_rows,
                              summed_control_tail)
from derivlab.hyers import _pointwise_limits
from derivlab.sampling import ball_point, generator

from test_rows import control_rows, reference_tails

A = make_matrix_algebra(2)


def series_oracle(phi, a, b, terms=200):
    """Independent oracle: direct summation of the doubling series."""
    return math.fsum(
        0.5 * 2.0**-n * phi.evaluate((2.0**n) * a, (2.0**n) * b) for n in range(terms)
    )


def element_of_norm(value):
    # diagonal direction with unit weights: norm is exactly 2 * |value| / 2
    coords = np.zeros(4, dtype=complex)
    coords[0] = value
    return A.element(coords)


class TestEvaluate:
    def test_constant_ignores_arguments(self):
        phi = PNormControl(1.0, 0.0, 0.5)
        assert phi.evaluate(element_of_norm(3.0), element_of_norm(7.0)) == 1.0

    def test_power_norm_hand_value(self):
        phi = PNormControl(0.0, 1.0, 0.5)
        # sqrt(4) + sqrt(9) = 5
        assert phi.evaluate(element_of_norm(4.0), element_of_norm(9.0)) == pytest.approx(5.0)

    def test_zero_at_origin(self):
        phi = PNormControl(0.0, 1.0, 0.5)
        assert phi.evaluate(A.zero(), A.zero()) == 0.0

    def test_origin_gives_alpha_for_every_exponent(self):
        for p in (-1.0, 0.0, 0.5, 0.99):
            phi = PNormControl(2.5, 1.0, p)
            assert phi.evaluate(A.zero(), A.zero()) == 2.5

    def test_inadmissible_exponent_rejected(self):
        with pytest.raises(ControlError):
            PNormControl(1.0, 1.0, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ControlError):
            PNormControl(-1.0, 0.0, 0.0)

    def test_tabulated_bad_callback(self):
        phi = TabulatedControl(lambda a, b: -1.0, 0.5)
        with pytest.raises(ControlError):
            phi.evaluate(A.zero(), A.zero())

    @pytest.mark.parametrize("value", [True, False, np.True_, "1.0", None, 1j])
    def test_tabulated_rejects_non_real_budgets(self, value):
        # a bool is an int, but True is not a budget of 1.0
        phi = TabulatedControl(lambda a, b: value, 0.5)
        with pytest.raises(ControlError, match="invalid value"):
            phi.evaluate(A.zero(), A.zero())

    @pytest.mark.parametrize("value", [np.float32(0.1), np.int64(2), np.float64(0.25), 3,
                                       np.float16(0.5)])
    def test_tabulated_accepts_numpy_reals(self, value):
        phi = TabulatedControl(lambda a, b: value, 0.5)
        result = phi.evaluate(A.zero(), A.zero())
        assert type(result) is float
        assert result == float(value)

    @pytest.mark.parametrize("value", [np.float32("nan"), np.float64("inf"), np.int64(-1)])
    def test_tabulated_rejects_invalid_numpy_reals(self, value):
        phi = TabulatedControl(lambda a, b: value, 0.5)
        with pytest.raises(ControlError, match="invalid value"):
            phi.evaluate(A.zero(), A.zero())


class TestSummedControl:
    def test_constant_sums_to_alpha(self):
        cs = summed_control(constant_control(2.0), element_of_norm(5.0), A.zero())
        assert cs.value == 2.0
        assert cs.closed_form
        assert cs.tail_bound == 0.0

    def test_closed_form_matches_series_oracle(self):
        phi = PNormControl(0.0, 1.0, 0.5)
        a = element_of_norm(1.0)
        cs = summed_control(phi, a, a)
        assert abs(cs.value - series_oracle(phi, a, a)) <= 1e-12
        assert cs.value == pytest.approx(3.414213562, abs=1e-8)

    def test_closed_form_at_origin(self):
        phi = PNormControl(1.5, 2.0, 0.5)
        cs = summed_control(phi, A.zero(), A.zero())
        assert cs.value == 1.5

    def test_tabulated_truncation_brackets_series(self):
        phi = TabulatedControl(
            lambda a, b: 1.0 + 0.5 * (a.norm() ** 0.5 + b.norm() ** 0.5), 0.5
        )
        a = element_of_norm(1.0)
        cs = summed_control(phi, a, a)
        assert not cs.closed_form
        oracle = series_oracle(phi, a, a, terms=400)
        assert cs.value <= oracle <= cs.value + cs.tail_bound + 1e-12

    @pytest.mark.parametrize("q", [-16.5, -17.0, -20.0])
    def test_tabulated_growth_that_underflows_rejected(self, q):
        # 2^(63 q) is subnormal below q = -16.2 (value / 2^(63 q) overflows,
        # and the tail bound was nan) and 0 below about -17 (a division by zero)
        a = element_of_norm(1.0)
        with pytest.raises(ControlError, match="underflows"):
            summed_control(TabulatedControl(lambda a, b: 1.0, q), a, a)

    def test_tabulated_steep_decay_keeps_a_finite_tail(self):
        a = element_of_norm(1.0)
        cs = summed_control(TabulatedControl(lambda a, b: 1.0, -16.0), a, a)
        assert cs.value == 1.0 and cs.tail_bound == 0.0

    def test_tabulated_divergent_growth_rejected(self):
        with pytest.raises(ControlError):
            TabulatedControl(lambda a, b: a.norm() + b.norm(), 1.0)


class TestPartialSums:
    """The partial sums of the doubling series: the direct sum of the series
    oracle, and the summed control's upper bound less summed_control_tail."""

    def test_single_term(self):
        phi = PNormControl(0.0, 1.0, 0.5)
        a = element_of_norm(4.0)
        upper = summed_control(phi, a, a).upper
        assert upper - summed_control_tail(phi, a, 1) == pytest.approx(0.5 * phi.evaluate(a, a))

    def test_constant_three_terms_geometric(self):
        a = element_of_norm(1.0)
        assert 1.0 - summed_control_tail(constant_control(1.0), a, 3) == pytest.approx(7.0 / 8.0)

    def test_partial_sums_converge_to_closed_form(self):
        # tail after n terms is 2^(-n/2)/(1 - 2^(-1/2)) here, so n = 90
        # drives it below 1e-12
        phi = PNormControl(0.0, 1.0, 0.5)
        a = element_of_norm(1.0)
        total = summed_control(phi, a, a)
        partial = series_oracle(phi, a, a, terms=90)
        assert abs(partial - total.value) <= 1e-12
        assert partial <= total.upper + 1e-12
        assert 0.0 <= summed_control_tail(phi, a, 90) <= 1e-12

    def test_monotone_and_bounded(self):
        phi = PNormControl(1.0, 2.0, 0.75)
        a = element_of_norm(2.0)
        total = summed_control(phi, a, a)
        previous_partial, previous_tail = 0.0, summed_control_tail(phi, a, 0)
        assert previous_tail == total.upper
        for n in range(1, 40):
            partial = series_oracle(phi, a, a, terms=n)
            tail = summed_control_tail(phi, a, n)
            assert previous_partial <= partial <= total.upper + 1e-12
            # the true remainder is still above 1e-3 here, far from the floor at 0
            assert 0.0 < tail <= previous_tail
            assert tail == pytest.approx(total.upper - partial, rel=0.0, abs=1e-12)
            previous_partial, previous_tail = partial, tail


class TestControlTail:
    @pytest.mark.parametrize("phi", [
        constant_control(3e-3),
        PNormControl(1e-3, 0.5, 0.5),
        TabulatedControl(lambda a, b: 1e-3 + 0.1 * (a.norm() ** 0.25 + b.norm() ** 0.25), 0.25),
    ], ids=["constant", "pnorm", "tabulated"])
    def test_streamed_tail_is_bit_identical_to_reference(self, phi):
        a = element_of_norm(1.5)
        reference = reference_tails(phi, a, 70)
        assert [summed_control_tail(phi, a, n).hex() for n in range(71)] == \
            [r.hex() for r in reference]
        if phi.kind != "constant":  # the remainder keeps falling past the 64 tabulated terms
            assert 0.0 < reference[70] < reference[64]

    @pytest.mark.parametrize("n", [0, 1, 17, 48, 70])
    def test_tail_calls_a_tabulated_control_in_order(self, n):
        # coordinates with signed zeros: the callback sees the bytes of each point
        coords = np.array([complex(1.5, -0.0), complex(-0.0, -0.0), complex(0.0, -0.25), 0.5j])
        a = A.element(coords)
        ours, reference = [], []

        def logged(calls):
            def callback(x, y):
                calls.append(x.coords.tobytes() + y.coords.tobytes())
                return 1e-3 + 1e-2 * x.norm() ** 0.5
            return TabulatedControl(callback, 0.5)

        tail = summed_control_tail(logged(ours), a, n)
        expected = reference_tails(logged(reference), a, n)[n]
        assert tail.hex() == expected.hex()
        assert ours == reference
        assert len(ours) == DEFAULT_TRUNCATION


TABLE_CONTROLS = {
    "constant": constant_control(3e-3),
    "pnorm": PNormControl(1e-3, 0.5, 0.5),
    "negative-p": PNormControl(1e-3, 2e-2, -0.5),
    "tabulated": TabulatedControl(lambda a, b: 1e-3 + 0.1 * (a.norm() ** 0.25 + b.norm() ** 0.25),
                                  0.25),
}


class TestDoublingTails:
    def test_constant_tails_are_alpha_halved_n_times(self):
        for alpha in (3e-3, 3e-4, 0.1, 1.0):
            table = doubling_tails(constant_control(alpha), A, control_rows(A.dim, 50), 48)
            expected = [math.ldexp(alpha, -n) for n in range(49)]
            assert all(row == expected for row in table.tolist())

    @pytest.mark.parametrize("p", [-0.5, 0.0, 0.5, 0.9])
    def test_power_norm_tails_match_exact_rationals(self, p):
        # the exact remainder alpha 2^-n + beta |a|^p q^n / (1 - q) from the
        # same float |a|^p and q = 2^p / 2
        phi = PNormControl(1e-3, 0.75, p)
        rows = control_rows(A.dim, 51)
        table = doubling_tails(phi, A, rows, 60)
        assert table[:, 0].tobytes() == summed_control_rows(phi, A, rows, rows)[0].tobytes()
        q = Fraction(2.0**p) / 2
        for row, tails in zip(rows, table.tolist()):
            t = A.element(row).norm()
            scale = Fraction(phi.beta) * Fraction(0.0 if t == 0.0 else t**p)
            for n, tail in enumerate(tails):
                exact = Fraction(phi.alpha) / 2**n + scale * q**n / (1 - q)
                assert abs(Fraction(tail) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("control", TABLE_CONTROLS)
    def test_no_row_increases(self, control):
        table = doubling_tails(TABLE_CONTROLS[control], A, control_rows(A.dim, 52), 80)
        assert table.shape == (12, 81)
        assert np.all(table >= 0.0) and np.all(np.diff(table, axis=1) <= 0.0)

    @pytest.mark.parametrize("cuts", [(), (1,), (5, 6), (2, 7, 11)])
    @pytest.mark.parametrize("control", TABLE_CONTROLS)
    def test_any_batch_split_gives_the_same_tails(self, control, cuts):
        phi, rows = TABLE_CONTROLS[control], control_rows(A.dim, 53)
        whole = doubling_tails(phi, A, rows, 70)
        parts = [doubling_tails(phi, A, part, 70) for part in np.split(rows, cuts)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_a_tabulated_callback_is_called_64_times_per_row(self):
        calls = []

        def callback(x, y):
            calls.append(1)
            return 1e-3 + 1e-2 * x.norm() ** 0.5

        phi, rows = TabulatedControl(callback, 0.5), control_rows(A.dim, 54)
        identity = PointMap.from_linear_map(identity_map(A))
        _pointwise_limits(identity, rows, phi, 70, 1e-10)
        assert len(calls) == DEFAULT_TRUNCATION * len(rows)
        calls.clear()
        doubling_tails(phi, A, rows, 70)
        assert len(calls) == DEFAULT_TRUNCATION * len(rows)


# every zero a complex product with 2^k + 0j would flip, and ones it keeps
SIGNED_ZERO_ROWS = np.array([
    [complex(-0.0, -1.0), complex(1.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 2.0)],
    [complex(0.0, -0.5), complex(-4.0, 0.0), complex(0.0, 0.0), complex(-0.0, -0.0)],
])


class TestDoublingZeroSigns:
    """A tabulated callback sees the bytes of 2^k a, every zero keeping its
    sign, in the summed control's table and in the extraction's."""

    @staticmethod
    def logged():
        calls = []

        def callback(x, y):
            calls.append(x.coords.tobytes() + y.coords.tobytes())
            return 1e-3 + 1e-2 * x.norm() ** 0.5

        return TabulatedControl(callback, 0.5), calls

    @staticmethod
    def scaled_rows(width):
        return [2 * np.ldexp(row.view(float), k).tobytes()
                for row in SIGNED_ZERO_ROWS for k in range(width)]

    def test_the_rows_tell_the_scalings_apart(self):
        row = SIGNED_ZERO_ROWS[0]
        assert (2.0 * row).tobytes() != np.ldexp(row.view(float), 1).tobytes()
        assert np.array_equal(np.signbit(np.ldexp(row.view(float), 5)),
                              np.signbit(row.view(float)))

    def test_summed_control(self):
        phi, calls = self.logged()
        summed_control_rows(phi, A, SIGNED_ZERO_ROWS, SIGNED_ZERO_ROWS)
        assert calls == self.scaled_rows(DEFAULT_TRUNCATION)

    def test_extraction(self):
        phi, calls = self.logged()
        _pointwise_limits(PointMap.from_linear_map(identity_map(A)), SIGNED_ZERO_ROWS, phi,
                          48, 1e-10)
        assert calls == self.scaled_rows(DEFAULT_TRUNCATION)


class TestInvariants:
    def test_first_term_lower_bound(self):
        rng = generator(21, "first-term")
        for p in (0.0, 0.25, 0.5, 0.75):
            phi = PNormControl(0.5, 1.5, p)
            for _ in range(50):
                a = A.element(ball_point(A, rng, 4.0))
                b = A.element(ball_point(A, rng, 4.0))
                assert summed_control(phi, a, b).value >= 0.5 * phi.evaluate(a, b) - 1e-12

    @pytest.mark.parametrize("p,doublings", [(0.0, 60), (0.25, 60), (0.5, 64), (0.75, 128)])
    def test_scaled_terms_vanish(self, p, doublings):
        # 2^-n phi(2^n a, 2^n a) -> 0; the n needed for 1e-9 grows as p -> 1
        phi = PNormControl(1.0, 2.0, p)
        a = element_of_norm(1.0)
        value = 2.0**-doublings * phi.evaluate((2.0**doublings) * a, (2.0**doublings) * a)
        assert value <= 1e-9

    @given(
        alpha=st.floats(0.0, 10.0),
        beta=st.floats(0.0, 10.0),
        p=st.floats(-1.0, 0.99),
        scale=st.floats(0.01, 16.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_doubling_recursion(self, alpha, beta, p, scale):
        # summed(a, b) = phi(a, b)/2 + summed(2a, 2b)/2, directly from the series
        phi = PNormControl(alpha, beta, p)
        a = element_of_norm(scale)
        b = element_of_norm(scale / 2.0)
        lhs = summed_control(phi, a, b).value
        rhs = 0.5 * phi.evaluate(a, b) + 0.5 * summed_control(phi, 2.0 * a, 2.0 * b).value
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestSerialization:
    def test_roundtrip_pnorm(self):
        phi = PNormControl(1.0, 2.0, 0.25)
        doc = phi.to_dict()
        back = control_from_dict(doc)
        assert (back.alpha, back.beta, back.p) == (1.0, 2.0, 0.25)

    def test_constant_kind(self):
        assert constant_control(3.0).to_dict() == {"kind": "constant", "alpha": 3.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ControlError):
            control_from_dict({"kind": "mystery"})
