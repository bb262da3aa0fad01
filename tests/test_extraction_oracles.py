"""The extraction loops as they ran before they were cut down, kept as
references.

Each `previous_*` function below is a replaced loop: the per-row stop
selection and additivity checks of extraction, the generator-fed tabulated
phi loop with its one checking `evaluate`, the broadcast `ldexp` doubling
and the per-pair report writer. The tests compare the current forms with
them bit for bit over every fixture family, and compare failures by type,
message and the first row and term they are raised at. The noise hash is
checked against its definition, one row at a time in Python ints.
"""

import json
import math
import numbers
from bisect import bisect_left

import numpy as np
import pytest

from derivlab import (
    ConstructionError,
    ControlError,
    ConvergenceError,
    LinearMap,
    PNormControl,
    PerturbationSpec,
    PointMap,
    TabulatedControl,
    constant_control,
    extract_additive,
    extract_triple,
    get_algebra,
    identity_map,
    make_annihilator_perturbation,
    make_clamped_perturbation,
    verify_stability_bound,
)
from derivlab import perturb
from derivlab.cli import report_json
from derivlab.control import (_TABLE_ROWS, DEFAULT_TRUNCATION, _doubling_rows, doubling_tails,
                              phi_rows, summed_control_rows)
from derivlab.derivation import DerivationTriple
from derivlab.hyers import (ADDITIVITY_PAIRS, BOUND_SAMPLES, ExtractionReport, _not_converged,
                            _pointwise_limits, sampled_envelope)
from derivlab.sampling import RowHash, ball_points, ball_rows, generator, hashed_unit_rows

from test_rows import (FAMILIES, ROW_CONTROLS, annihilator_case, base_triple, clamped_case,
                       control_rows, laid_out, random_rows, reference_hashed_floats,
                       reference_tails, sublinear_map)


# --- the references --------------------------------------------------------------

def previous_pointwise_limits(pmap, rows, phi, max_n, tol):
    """The doubling engine with every row's tail stop bisected on its
    reference_tails and each row's stop picked in a per-row loop."""
    count = len(rows)
    table = [reference_tails(phi, pmap.domain.element(row), max(max_n, 0)) for row in rows]

    def tail(r, n):
        return table[r][n]

    limits = pmap.eval_rows(rows)
    iterations = np.full(count, max_n)
    deltas = np.full(count, np.inf)
    tails = np.array([t[0] for t in table], dtype=float)
    converged = np.zeros(count, dtype=bool)
    if max_n < 1:
        return limits, iterations, deltas, tails, converged
    doublings = range(1, max_n + 1)
    stops = np.array([min(1 + bisect_left(doublings, True, key=lambda n: tail(r, n) <= tol),
                          max_n) for r in range(count)], dtype=int)
    once = pmap.eval_rows(2.0 * rows) / 2.0
    stops[pmap.codomain.norms(once - limits) == 0.0] = 1
    starts = np.cumsum(stops) - stops
    owner = np.repeat(np.arange(count), stops)
    orbit_n = np.arange(len(owner)) - np.repeat(starts, stops) + 1
    later = np.flatnonzero(orbit_n > 1)
    path = np.empty((len(owner), pmap.codomain.dim), dtype=complex)
    path[starts] = once
    if len(later):
        scale = np.ldexp(1.0, orbit_n[later])[:, None]
        path[later] = pmap.eval_rows(scale * rows[owner[later]]) / scale
    previous = np.empty_like(path)
    previous[starts] = limits
    previous[later] = path[later - 1]
    steps = pmap.codomain.norms(path - previous)
    zero = (steps == 0.0).tolist()
    for r, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
        n = next((k for k in range(1, stop) if zero[start + k - 1]), stop)
        at = start + n - 1
        limits[r], deltas[r], tails[r] = path[at], steps[at], tail(r, n)
        iterations[r] = n
        converged[r] = tails[r] <= tol or deltas[r] == 0.0
    return limits, iterations, deltas, tails, converged


def previous_extract_additive(pmap, phi, max_n=48, tol=1e-10, *, seed=0):
    """extract_additive with its checks read row by row, in pair order."""
    domain, codomain = pmap.domain, pmap.codomain
    n_dim = domain.dim
    drawn = ball_rows(domain, generator(seed, "extract-additivity"), np.ones(2 * ADDITIVITY_PAIRS))
    a, b = drawn[0::2], drawn[1::2]
    pairs = np.stack([a, b, a + b], axis=1).reshape(3 * ADDITIVITY_PAIRS, n_dim)
    rows = np.vstack([np.eye(n_dim, dtype=complex), pairs])
    limits, iterations, deltas, tails, converged = previous_pointwise_limits(
        pmap, rows, phi, max_n, tol)

    def limit_at(r):
        if not converged[r]:
            raise _not_converged(max_n, deltas[r], tails[r])
        return limits[r]

    for i in range(n_dim):
        limit_at(i)
    limit_map = LinearMap(np.ascontiguousarray(limits[:n_dim].T), domain, codomain)
    for k in range(ADDITIVITY_PAIRS):
        la, lb, lab = (limit_at(n_dim + 3 * k + j) for j in range(3))
        if codomain.norm(lab - la - lb) > 10.0 * tol:
            raise ConvergenceError(
                "pointwise limits are not additive; the defect of the input "
                "map is not controlled by the declared control function"
            )
        if codomain.norm(la - limit_map.apply_coords(pairs[3 * k])) > 10.0 * tol:
            raise ConvergenceError("pointwise limit disagrees with the assembled matrix")
    points = ball_points(domain, generator(seed, "extract-bound"), BOUND_SAMPLES)
    lhs, rhs = sampled_envelope(pmap, limit_map, points, phi)
    bound_ok = not np.any(lhs > rhs + 1e-9 * (1.0 + rhs))
    return ExtractionReport(limit_map, iterations[:n_dim].tolist(), deltas[:n_dim].tolist(),
                            tails[:n_dim].tolist(), points, lhs, rhs, bound_ok)


def row_by_row(prefix, rows, count):
    """hashed_unit_rows as its docstring defines it, one row at a time in
    Python ints."""
    rows = np.asarray(rows)
    out = np.empty((len(rows), count), dtype=float)
    for k in range(len(rows)):
        out[k] = reference_hashed_floats(prefix, np.ascontiguousarray(rows[k]).tobytes(), count)
    return out


def previous_evaluate(func, a, b):
    """TabulatedControl.evaluate with only its full check."""
    value = func(a, b)
    real = type(value) is float or (
        not isinstance(value, bool) and isinstance(value, numbers.Real))
    if not real or not math.isfinite(value) or value < 0.0:
        raise ControlError(f"control callback returned invalid value {value!r}")
    return float(value)


def previous_table(func, space, rows, width):
    """phi(2^k a, 2^k a) for k < width at each row, one element per
    (row, term), through a generator of elements."""
    def elements():
        for row in rows:
            for k in range(width):
                yield space.element(np.ldexp(row.view(float), k).view(complex))

    return np.array([previous_evaluate(func, x, x) for x in elements()]).reshape(-1, width)


def previous_doubling_rows(rows, count):
    parts = np.ascontiguousarray(rows, dtype=complex).view(float)
    scaled = np.ldexp(parts[:, None, :], np.arange(count)[None, :, None])
    return scaled.view(complex).reshape(len(parts) * count, parts.shape[1] // 2)


def previous_report_json(value, indent=""):
    """The report writer with every list of pairs written pair by pair."""
    if isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        body = ",\n".join(inner + previous_report_json(x, inner) for x in value)
        return f"[\n{body}\n{indent}]"
    if isinstance(value, dict) and value:
        inner = indent + "  "
        body = ",\n".join(f"{inner}{json.dumps(key)}: {previous_report_json(item, inner)}"
                          for key, item in sorted(value.items()))
        return f"{{\n{body}\n{indent}}}"
    return json.dumps(value)


def outcome(run):
    """A run's result, or its error's type, message and diagnostics."""
    try:
        return run()
    except (ControlError, ConvergenceError) as exc:
        return type(exc), str(exc), getattr(exc, "diagnostics", None)


# --- stop selection -----------------------------------------------------------------

def family_case(fixture, kind):
    algebra, module, _, triple = base_triple(fixture)
    pmap = {
        "annihilator": lambda: annihilator_case(fixture, epsilon=1e-3)[0].f,
        "linear": lambda: PointMap.from_linear_map(triple.d),
        "clamped": lambda: clamped_case(fixture, radius=1.0)[0].f,
        "sublinear": lambda: sublinear_map(algebra, module),
    }[kind]()
    small = control_rows(algebra.dim, 31) * 2.0**-8
    rows = np.vstack([np.eye(algebra.dim, dtype=complex), control_rows(algebra.dim, 32), small])
    return pmap, rows


class TestStopSelection:
    @pytest.mark.parametrize("max_n", [1, 3, 48, 70])
    @pytest.mark.parametrize("control", ["constant", "pnorm", "tabulated"])
    @pytest.mark.parametrize("kind", ["annihilator", "linear", "clamped", "sublinear"])
    @pytest.mark.parametrize("fixture", FAMILIES)
    def test_matches_the_per_row_loop(self, fixture, kind, control, max_n):
        pmap, rows = family_case(fixture, kind)
        phi = ROW_CONTROLS[control]
        got = _pointwise_limits(pmap, rows, phi, max_n, 1e-10)
        expected = previous_pointwise_limits(pmap, rows, phi, max_n, 1e-10)
        for x, y in zip(got, expected):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()

    def test_cases_hold_late_zero_deltas_and_unconverged_rows(self):
        for fixture in FAMILIES:
            pmap, rows = family_case(fixture, "clamped")
            _, iterations, deltas, _, _ = _pointwise_limits(
                pmap, rows, ROW_CONTROLS["pnorm"], 48, 1e-10)
            assert np.any((iterations >= 2) & (deltas == 0.0)), fixture
            pmap, rows = family_case(fixture, "sublinear")
            _, iterations, _, _, converged = _pointwise_limits(
                pmap, rows, ROW_CONTROLS["pnorm"], 48, 1e-10)
            assert not converged.all() and np.all(iterations[~converged] == 48), fixture

    def test_one_tail_table_per_call(self, monkeypatch):
        # every row's tails come from one table of max_n + 1 columns, built
        # before the map is evaluated; a linear map's rows then stop at n = 1
        from derivlab import hyers
        tables = []

        def spy(phi, space, rows, count):
            tables.append((len(rows), count))
            return doubling_tails(phi, space, rows, count)

        monkeypatch.setattr(hyers, "doubling_tails", spy)
        pmap, rows = family_case("matrix:3", "linear")
        _, iterations, _, _, _ = _pointwise_limits(pmap, rows, ROW_CONTROLS["pnorm"], 48, 1e-10)
        assert set(iterations.tolist()) == {1}
        assert tables == [(len(rows), 48)]


EXTRACTION_CONTROLS = {
    "constant": constant_control(3e-3),
    "pnorm": PNormControl(3e-3, 1e-3, 0.25),
    "tabulated": TabulatedControl(lambda a, b: 3e-3 + 1e-3 * a.norm() ** 0.25, 0.25),
}


class TestExtractionChecks:
    @pytest.mark.parametrize("control", ["constant", "pnorm", "tabulated"])
    @pytest.mark.parametrize("fixture", FAMILIES)
    def test_reports_match(self, fixture, control):
        maps, _ = annihilator_case(fixture, epsilon=1e-3, seed=13)
        phi = EXTRACTION_CONTROLS[control]
        ours = extract_additive(maps.f, phi, seed=6)
        reference = previous_extract_additive(maps.f, phi, seed=6)
        assert report_json(ours.to_dict()) == report_json(reference.to_dict())

    @pytest.mark.parametrize("kind", ["basis", "pair", "not additive", "off the matrix"])
    @pytest.mark.parametrize("fixture", ["matrix:2", "upper-triangular:3", "zero-product:4"])
    def test_the_same_first_error(self, fixture, kind):
        algebra, module, _, _ = base_triple(fixture)
        e0 = module.basis_element(0).coords
        func = {
            # grows like |a|^0.9 along every orbit
            "basis": lambda x: algebra.norm(x) ** 0.9 * e0,
            # zero on the basis, sublinear where two coordinates are nonzero
            "pair": lambda x: abs(x[0] * x[1]) ** 0.45 * e0,
            # homogeneous, so every orbit stops at once, but not additive
            "not additive": lambda x: algebra.norm(x) * e0,
            # additive and real-homogeneous, but not complex-linear
            "off the matrix": lambda x: np.conj(x[0]) * e0,
        }[kind]
        pmap = PointMap(func, algebra, module)
        phi = PNormControl(0.0, 1.0, 0.5)
        ours = outcome(lambda: extract_additive(pmap, phi, max_n=20, seed=2))
        reference = outcome(lambda: previous_extract_additive(pmap, phi, max_n=20, seed=2))
        assert ours[0] is ConvergenceError
        assert ours == reference


# --- hashed noise -------------------------------------------------------------------

class TestHashedRows:
    @pytest.mark.parametrize("count", [1, 8, 9, 17])
    @pytest.mark.parametrize("rows", [0, 1, 25])
    def test_one_hash_per_row(self, rows, count):
        prefix = (-3).to_bytes(8, "little", signed=True) + b"clamp"
        data = random_rows(rows, 6, 41)
        ours = hashed_unit_rows(prefix, data, count)
        assert ours.shape == (rows, count)
        assert ours.tobytes() == row_by_row(prefix, data, count).tobytes()

    @pytest.mark.parametrize("layout", ["transposed", "strided", "fortran"])
    def test_non_contiguous_rows(self, layout):
        data = random_rows(9, 4, 42)
        rows = laid_out(data, layout)
        ours = hashed_unit_rows(b"p", rows, 9)
        assert ours.tobytes() == row_by_row(b"p", rows, 9).tobytes()
        assert ours.tobytes() == hashed_unit_rows(b"p", data, 9).tobytes()

    def test_empty_prefix_and_empty_rows(self):
        for prefix, rows in ((b"", random_rows(3, 2, 43)), (b"x", np.empty((4, 0)))):
            ours = hashed_unit_rows(prefix, rows, 10)
            assert ours.tobytes() == row_by_row(prefix, rows, 10).tobytes()

    @pytest.mark.parametrize("cuts", [(), (1,), (12, 13), (3, 7, 24)])
    def test_any_batch_split_gives_the_one_row_floats(self, cuts):
        prefix = (5).to_bytes(8, "little", signed=True) + b"ann"
        data = random_rows(25, 6, 44)
        whole = hashed_unit_rows(prefix, data, 9)
        parts = [hashed_unit_rows(prefix, part, 9) for part in np.split(data, cuts)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        for k in range(len(data)):
            assert hashed_unit_rows(prefix, data[k:k + 1], 9).tobytes() == whole[k].tobytes()

    def test_known_answer(self):
        prefix = (7).to_bytes(8, "little", signed=True) + b"ann"
        row = np.array([[1.5 - 0.25j, 0.0, -2.0**-20 + 3j]])
        expected = [0.231958202363994, 0.2705537233626467, 0.1274268023307623,
                    0.160856688543359, 0.20724240993265952]
        assert hashed_unit_rows(prefix, row, 5)[0].tolist() == expected
        assert row_by_row(prefix, row, 5)[0].tolist() == expected

    def test_keys_made_once_give_the_reference_floats(self):
        # keys of several prefixes, row widths and counts, used in turn
        cases = [((s).to_bytes(8, "little", signed=True) + label, dim, count)
                 for s, label in ((-3, b"clamp"), (5, b"ann"), (0, b""))
                 for dim, count in ((0, 3), (2, 5), (6, 13), (9, 2))]
        keys = [RowHash(prefix, 16 * dim, count) for prefix, dim, count in cases]
        for turn in range(2):
            for k, ((prefix, dim, count), key) in enumerate(zip(cases, keys)):
                rows = random_rows((k + turn) % 5, dim, 50 + k)
                ours = key(rows)
                assert ours.shape == (len(rows), count)
                assert ours.tobytes() == row_by_row(prefix, rows, count).tobytes()
                assert ours.tobytes() == hashed_unit_rows(prefix, rows, count).tobytes()

    def test_key_arrays_are_read_only(self):
        key = RowHash(b"p", 48, 7)
        for array in (key.multipliers, key.steps):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("case", ["annihilator", "clamped"])
    def test_noise_keeps_its_bytes_beside_other_seeds(self, case):
        make = {"annihilator": lambda seed: annihilator_case("matrix:2", seed=seed),
                "clamped": lambda seed: clamped_case("matrix:2", radius=8.0, seed=seed)}[case]
        rows = random_rows(20, 4, 51)
        (first, reference), (other, _) = make(5), make(6)
        before = first.f.eval_rows(rows)
        other.f.eval_rows(rows)
        again, _ = make(5)
        expected = np.array([reference(row) for row in rows])
        assert before.tobytes() == expected.tobytes()
        assert first.f.eval_rows(rows).tobytes() == expected.tobytes()
        assert again.f.eval_rows(rows).tobytes() == expected.tobytes()
        assert other.f.eval_rows(rows).tobytes() != expected.tobytes()

    def test_flipping_any_bit_of_a_snapped_row_changes_its_floats(self):
        prefix = (3).to_bytes(8, "little", signed=True) + b"clamp"
        snapped = np.round(random_rows(1, 3, 45) / perturb.QUANT_GRID) * perturb.QUANT_GRID
        base = hashed_unit_rows(prefix, snapped, 3)[0]
        bits = snapped.view(np.uint8)
        for byte in range(bits.size):
            for bit in range(8):
                flipped = bits.copy()
                flipped[0, byte] ^= 1 << bit
                assert np.all(hashed_unit_rows(prefix, flipped.view(complex), 3)[0] != base)


# --- the tabulated callback ---------------------------------------------------------

class Returns:
    """A callback logging its arguments and returning `bad` at call k, a
    valid float before and after."""

    def __init__(self, k, bad):
        self.k, self.bad, self.calls = k, bad, []

    def __call__(self, a, b):
        self.calls.append(a.coords.tobytes() + b.coords.tobytes())
        if len(self.calls) == self.k:
            return self.bad
        return 1e-3 + 1e-4 * a.norm() ** 0.5


class Real(float):
    pass


BAD_VALUES = {
    "float64": np.float64(0.25),
    "int": 3,
    "negative zero": -0.0,
    "float subclass": Real(0.5),
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "negative": -1e-300,
    "bool": True,
    "float64 nan": np.float64("nan"),
    "str": "0.5",
}


class TestTabulatedCallback:
    @pytest.mark.parametrize("k", [1, 2, 64, 65, 300, 768])
    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_the_same_result_at_the_same_row_and_term(self, value, k):
        # 12 rows x 64 terms: call k is term (k - 1) % 64 of row (k - 1) // 64
        space = get_algebra("upper-triangular:3")
        rows = control_rows(space.dim, 44)
        table = _doubling_rows(rows)
        ours, reference = Returns(k, BAD_VALUES[value]), Returns(k, BAD_VALUES[value])
        got = outcome(lambda: phi_rows(TabulatedControl(ours, 0.5), space, table, table).tobytes())
        expected = outcome(lambda: previous_table(
            reference, space, rows, DEFAULT_TRUNCATION).tobytes())
        assert got == expected
        assert ours.calls == reference.calls
        # the summed control reads the same table
        summed = Returns(k, BAD_VALUES[value])
        result = outcome(lambda: summed_control_rows(
            TabulatedControl(summed, 0.5), space, rows, rows)[0].tobytes())
        assert summed.calls == ours.calls
        if isinstance(got, tuple):
            assert result == got and "invalid value" in got[1]

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_phi_rows_on_two_arrays(self, value):
        space = get_algebra("matrix:2")
        a, b = control_rows(space.dim, 45), control_rows(space.dim, 46)
        ours, reference = Returns(5, BAD_VALUES[value]), Returns(5, BAD_VALUES[value])
        got = outcome(lambda: phi_rows(TabulatedControl(ours, 0.5), space, a, b).tobytes())
        expected = outcome(lambda: np.array([
            previous_evaluate(reference, space.element(x), space.element(y))
            for x, y in zip(a, b)]).tobytes())
        assert got == expected
        assert ours.calls == reference.calls

    def test_elements_view_read_only_rows(self):
        space = get_algebra("matrix:2")
        rows = control_rows(space.dim, 47)
        seen = []

        def func(a, b):
            seen.append((a, b))
            return 1.0

        phi_rows(TabulatedControl(func, 0.5), space, rows, rows)
        assert all(a is b and type(a) is type(space.zero()) for a, b in seen)
        assert all(not a.coords.flags.writeable for a, _ in seen)
        assert [a.coords.tobytes() for a, _ in seen] == [r.tobytes() for r in rows]
        assert not any(np.shares_memory(a.coords, rows) for a, _ in seen)

    @pytest.mark.parametrize("k", [_TABLE_ROWS * DEFAULT_TRUNCATION + 1,
                                   (_TABLE_ROWS + 5) * DEFAULT_TRUNCATION + 7])
    @pytest.mark.parametrize("value", ["float64", "int", "nan", "negative", "bool", "str"])
    def test_past_the_first_table_chunk(self, value, k):
        # the summed control fills its table a chunk of rows at a time; call k
        # is the first of the second chunk, or one in the last row
        space = get_algebra("upper-triangular:3")
        rows = random_rows(_TABLE_ROWS + 6, space.dim, 49)
        ours, reference = Returns(k, BAD_VALUES[value]), Returns(k, BAD_VALUES[value])
        got = outcome(lambda: summed_control_rows(
            TabulatedControl(ours, 0.5), space, rows, rows)[0].tobytes())
        terms = lambda: np.ldexp(0.5, -np.arange(DEFAULT_TRUNCATION)) * previous_table(
            reference, space, rows, DEFAULT_TRUNCATION)
        expected = outcome(lambda: np.array([math.fsum(row) for row in terms().tolist()]).tobytes())
        assert got == expected
        assert ours.calls == reference.calls
        assert len(ours.calls) == (k if isinstance(got, tuple) else len(rows) * DEFAULT_TRUNCATION)

    def test_one_stability_check_is_1000_times_64_calls(self):
        calls = []

        def budget(a, b):
            calls.append(1)
            return 3e-3

        maps, _ = annihilator_case("matrix:3", epsilon=1e-3)
        phi = TabulatedControl(budget, 0.0)
        limit = LinearMap(np.zeros((maps.f.codomain.dim, maps.f.domain.dim)),
                          maps.f.domain, maps.f.codomain)
        report = verify_stability_bound(maps.f, limit, phi, samples=1000, seed=3)
        assert report.samples == 1000
        assert len(calls) == 1000 * DEFAULT_TRUNCATION


# --- doubling rows ------------------------------------------------------------------

class TestDoublingRows:
    def test_bits_of_ldexp(self):
        rows = random_rows(9, 5, 48)
        rows[2, 1] = complex(-0.0, -0.0)
        rows[3] *= 1e-300
        rows[4, 2] = 5e-324 - 5e-324j
        rows[5] *= 1e300
        with np.errstate(over="ignore"):
            ours = _doubling_rows(rows)
            expected = previous_doubling_rows(rows, DEFAULT_TRUNCATION)
        assert ours.shape == expected.shape == (9 * DEFAULT_TRUNCATION, 5)
        assert ours.tobytes() == expected.tobytes()

    def test_no_invalid_operations(self):
        with np.errstate(all="raise"):
            _doubling_rows(np.array([[0.0, -0.0j, 1e-310]]))


# --- the report writer --------------------------------------------------------------

class Float(float):
    def __repr__(self):
        return "Float()"


PAIR_DOCUMENTS = {
    "pairs": [[1.0, -0.0], [5e-324, 1.7976931348623157e308], [0.1, -1e16]],
    "nan pair": [[1.0, 2.0], [float("nan"), 0.0]],
    "inf pairs": [[float("inf"), 1.0], [2.0, float("-inf")]],
    "negative zeros": [[-0.0, -0.0]],
    "float subclass": [[1.0, 2.0], [Float(3.0), 4.0]],
    "float64": [[np.float64(0.1), 2.0]],
    "tuples": [(1.0, 2.0), (3.0, 4.0)],
    "tuple of pairs": ([1.0, 2.0], [3.0, 4.0]),
    "int pairs": [[1, 2], [3, 4]],
    "mixed pairs": [[1.0, 2], [None, 3.0]],
    "strings": [["1.0", "2.0"]],
    "bools": [[True, False]],
    "triples": [[1.0, 2.0, 3.0]],
    "singles": [[1.0], [2.0]],
    "empty pairs": [[], []],
    "pairs and floats": [[1.0, 2.0], 3.0],
    "matrix": [[[1.0, 0.0], [0.0, -1.0]], [[0.5, 0.25], [-0.0, 1e-300]]],
    "nested pair": [[[1.0, 2.0], [3.0, 4.0]]],
    "in a document": {"matrix": [[[1.0, 2.0]]], "point": [[0.5, -0.5], [1.0, 0.0]], "x": 1},
}


class TestReportPairs:
    @pytest.mark.parametrize("doc", PAIR_DOCUMENTS.values(), ids=PAIR_DOCUMENTS)
    def test_json_dumps_bytes(self, doc):
        expected = json.dumps(doc, sort_keys=True, indent=2)
        assert report_json(doc) == expected
        assert previous_report_json(doc) == expected


# --- sigma and tau as one map ---------------------------------------------------------

def twist_maps(fixture, shared):
    algebra = get_algebra(fixture)
    sigma = identity_map(algebra)
    return algebra, sigma, sigma if shared else identity_map(algebra)


class TestSharedTwists:
    @pytest.mark.parametrize("control", ["constant", "tabulated"])
    @pytest.mark.parametrize("fixture", FAMILIES)
    def test_extract_triple_report_bytes(self, fixture, control):
        maps, _ = annihilator_case(fixture, epsilon=1e-3, seed=17)
        logs = {}
        reports = {}
        for shared in (True, False):
            algebra, sigma, tau = twist_maps(fixture, shared)
            g_sigma = PointMap.from_linear_map(sigma)
            g_tau = g_sigma if shared else PointMap.from_linear_map(tau)
            calls = logs[shared] = []

            def func(a, b, calls=calls):
                calls.append(a.coords.tobytes())
                return 3e-3

            phi = {"constant": constant_control(3e-3),
                   "tabulated": TabulatedControl(func, 0.0)}[control]
            triple = extract_triple(maps.f, g_sigma, g_tau, phi, seed=8)
            reports[shared] = report_json(triple.to_dict())
            assert (triple.tau is triple.sigma) == shared
        assert reports[True] == reports[False]
        if control == "tabulated":
            # extracted again, tau repeats sigma's queries
            repeated = len(logs[False]) - len(logs[True])
            assert repeated > 0
            assert logs[False] == logs[True] + logs[True][-repeated:]

    @pytest.mark.parametrize("shared", [True, False])
    def test_perturbations_share_one_twist_map(self, shared):
        algebra, module, ann, triple = base_triple("matrix:2")
        _, sigma, tau = twist_maps("matrix:2", shared)
        d0 = DerivationTriple(triple.d, sigma, tau)
        annihilated = make_annihilator_perturbation(
            d0, PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=1), ann)
        clamped = make_clamped_perturbation(d0, PerturbationSpec(
            mode="clamped", control=constant_control(0.1), seed=1))
        for maps in (annihilated, clamped):
            assert (maps.g_tau is maps.g_sigma) == shared
            rows = control_rows(algebra.dim, 49)
            assert maps.g_tau.eval_rows(rows).tobytes() == tau.apply_rows(rows).tobytes()


# --- the annihilator perturbation's basis check -----------------------------------

class TestKeptChecks:
    def test_every_basis_is_checked_once(self, monkeypatch):
        checked = []
        check = perturb._check_annihilator_basis
        monkeypatch.setattr(perturb, "_check_annihilator_basis",
                            lambda module, basis, *args: checked.append(basis) or check(
                                module, basis, *args))
        algebra, module, ann, triple = base_triple("matrix:3")
        spec = PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=2)
        kept_maps = make_annihilator_perturbation(triple, spec, ann)
        assert len(checked) == 1 and checked[0] is ann
        supplied = make_annihilator_perturbation(triple, spec, np.array(ann))
        assert len(checked) == 2 and checked[1] is not ann
        computed = make_annihilator_perturbation(triple, spec)
        assert len(checked) == 3
        rows = control_rows(algebra.dim, 50)
        for maps in (supplied, computed):
            assert maps.f.eval_rows(rows).tobytes() == kept_maps.f.eval_rows(rows).tobytes()

    def test_a_supplied_basis_that_is_not_annihilated_raises(self):
        algebra, module, ann, triple = base_triple("matrix:2")
        bad = np.zeros((1, module.dim), dtype=complex)
        bad[0, 0] = 1.0
        spec = PerturbationSpec(mode="annihilator", epsilon=1e-3)
        with pytest.raises(ConstructionError, match="not annihilated"):
            make_annihilator_perturbation(triple, spec, bad)
        with pytest.raises(ConstructionError, match="not annihilated"):
            make_annihilator_perturbation(triple, spec, np.vstack([ann, bad]))
        # the noise is scaled to epsilon whatever the row's norm
        with pytest.raises(ConstructionError, match="not annihilated"):
            make_annihilator_perturbation(triple, spec, 1e-13 * bad)

    @pytest.mark.parametrize("slot", [4, 0])  # the killed direction, and one that is not
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_supplied_basis_that_is_not_finite_raises(self, slot, value):
        algebra, module, ann, triple = base_triple("matrix:2")
        bad = np.zeros((1, module.dim), dtype=complex)
        bad[0, slot] = value
        spec = PerturbationSpec(mode="annihilator", epsilon=1e-3)
        with pytest.raises(ConstructionError, match="non-finite"):
            make_annihilator_perturbation(triple, spec, bad)

    @pytest.mark.parametrize("shape", [(5,), (1, 4), (1, 5, 1)])
    def test_a_supplied_basis_of_the_wrong_shape_raises(self, shape):
        algebra, module, ann, triple = base_triple("matrix:2")
        assert module.dim == 5
        spec = PerturbationSpec(mode="annihilator", epsilon=1e-3)
        with pytest.raises(ConstructionError, match="shape"):
            make_annihilator_perturbation(triple, spec, np.zeros(shape))

    @pytest.mark.parametrize("supplied", [[[0, 1], [2]], [["x"] * 5], {}])
    def test_a_supplied_basis_that_is_not_an_array_raises(self, supplied):
        algebra, module, ann, triple = base_triple("matrix:2")
        spec = PerturbationSpec(mode="annihilator", epsilon=1e-3)
        with pytest.raises(ConstructionError):
            make_annihilator_perturbation(triple, spec, supplied)
