"""Experiment runner: pipelines, exit codes, determinism, sweeps."""

import csv
import io
import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from derivlab import ConstructionError, PerturbationSpec, get_algebra
from derivlab import cli as cli_module
from derivlab.algebra import regular_bimodule
from derivlab.derivation import derivation_space
from derivlab.perturb import extend_with_annihilator
from derivlab.blas import blas_threads
from derivlab.cli import (EXIT_ERROR, EXIT_OK, EXIT_UNSATISFIED, PIPELINES, ExperimentConfig,
                          PerturbedExperiment, _resolve_endomorphism, main, report_json, run,
                          sweep)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_main(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    payload = json.loads(out.read_text()) if out.exists() else None
    if out.exists():
        out.unlink()
    return code, payload


class TestRunPipelines:
    def test_contractibility_matrix2(self, tmp_path):
        code, doc = run_main(
            tmp_path, "run", "--fixture", "matrix:2",
            "--pipeline", "contractibility", "--sigma", "id", "--tau", "id",
        )
        assert code == EXIT_OK
        report = doc["outputs"]["contractibility"]
        assert report["derivation_dim"] == 3
        assert report["inner_dim"] == 3
        assert report["verdict"] == "h1_vanishes"

    def test_contractibility_dual_numbers_exits_2(self, tmp_path):
        code, doc = run_main(
            tmp_path, "run", "--fixture", "dual-numbers", "--pipeline", "contractibility",
        )
        assert code == EXIT_UNSATISFIED
        assert doc["outputs"]["contractibility"]["verdict"] == "h1_nonzero"
        assert doc["outputs"]["contractibility"]["witness"] is not None

    def test_amenability_matrix2(self, tmp_path):
        code, doc = run_main(
            tmp_path, "run", "--fixture", "matrix:2", "--pipeline", "amenability",
        )
        assert code == EXIT_OK
        assert doc["outputs"]["amenability"]["verdict"] == "h1_vanishes"

    def test_extract_zero_epsilon_has_zero_deltas(self, tmp_path):
        code, doc = run_main(
            tmp_path, "run", "--fixture", "matrix:2", "--pipeline", "extract",
            "--seed", "3", "--samples", "200",
            "--perturb", '{"mode": "annihilator", "epsilon": 0.0, "seed": 3}',
        )
        assert code == EXIT_OK
        extraction = doc["outputs"]["extraction"]
        assert all(d == 0.0 for d in extraction["d"]["per_basis_final_delta"])
        assert all(it == 1 for it in extraction["d"]["per_basis_iterations"])

    def test_extract_reports_stability(self, tmp_path):
        code, doc = run_main(
            tmp_path, "run", "--fixture", "matrix:2", "--pipeline", "extract",
            "--seed", "7", "--samples", "300",
        )
        assert code == EXIT_OK
        assert doc["outputs"]["stability"]["num_violations"] == 0
        assert doc["outputs"]["control"] == {"kind": "constant", "alpha": 3e-3}

    def test_roundtrip_matrix2_feasible(self, tmp_path):
        code, doc = run_main(
            tmp_path, "run", "--fixture", "matrix:2", "--pipeline", "roundtrip",
            "--seed", "5", "--samples", "300",
        )
        assert code == EXIT_OK
        assert doc["outputs"]["roundtrip"]["feasible"] is True

    def test_roundtrip_dual_numbers_infeasible(self, tmp_path):
        # the seeded base derivation is the non-inner one: exit 2 plus a
        # witness matrix in the report
        code, doc = run_main(
            tmp_path, "run", "--fixture", "dual-numbers", "--pipeline", "roundtrip",
            "--seed", "5", "--samples", "200",
        )
        assert code == EXIT_UNSATISFIED
        assert doc["outputs"]["roundtrip"]["feasible"] is False
        assert doc["outputs"]["roundtrip"]["witness"] is not None

    def test_hypotheses_pipeline(self, tmp_path):
        code, doc = run_main(
            tmp_path, "run", "--fixture", "matrix:2", "--pipeline", "hypotheses",
            "--seed", "9", "--samples", "500",
        )
        assert code == EXIT_OK
        assert doc["outputs"]["hypotheses"]["verdict"] == "satisfied"

    def test_conjugation_endomorphisms(self, tmp_path):
        code, doc = run_main(
            tmp_path, "run", "--fixture", "matrix:2", "--pipeline", "contractibility",
            "--sigma", "conjugation:shear", "--tau", "conjugation:shear",
        )
        assert code == EXIT_OK
        assert doc["outputs"]["contractibility"]["verdict"] == "h1_vanishes"


class TestFixtureDocuments:
    def test_fixture_document_loaded_and_recertified(self, tmp_path):
        from derivlab import algebra_to_dict, make_matrix_algebra

        doc = tmp_path / "fixture.json"
        doc.write_text(json.dumps({"algebra": algebra_to_dict(make_matrix_algebra(2))}))
        code, payload = run_main(
            tmp_path, "run", "--fixture", str(doc), "--pipeline", "contractibility",
        )
        assert code == EXIT_OK
        assert payload["outputs"]["contractibility"]["derivation_dim"] == 3

    def test_corrupt_fixture_document_rejected(self, tmp_path):
        from derivlab import algebra_to_dict, make_matrix_algebra

        raw = algebra_to_dict(make_matrix_algebra(2))
        raw["structure"][0][1][0] = [1.0, 0.0]
        doc = tmp_path / "fixture.json"
        doc.write_text(json.dumps({"algebra": raw}))
        code, _ = run_main(
            tmp_path, "run", "--fixture", str(doc), "--pipeline", "contractibility",
        )
        assert code == EXIT_ERROR

    def test_conjugation_by_serialized_element(self, tmp_path):
        from derivlab.encoding import encode_complex

        coords = tmp_path / "u.json"
        coords.write_text(json.dumps({"coords": encode_complex([1.0, 1.0, 0.0, 1.0])}))
        code, payload = run_main(
            tmp_path, "run", "--fixture", "matrix:2", "--pipeline", "contractibility",
            "--sigma", f"conjugation:{coords}", "--tau", "id",
        )
        assert code == EXIT_OK
        assert payload["outputs"]["contractibility"]["verdict"] == "h1_vanishes"


class TestErrors:
    def test_unknown_fixture(self, tmp_path):
        code, _ = run_main(tmp_path, "run", "--fixture", "octonions", "--pipeline", "extract")
        assert code == EXIT_ERROR

    def test_unknown_pipeline_flag(self, capsys, tmp_path):
        code = main(["run", "--fixture", "matrix:2", "--pipeline", "nonsense"])
        assert code == EXIT_ERROR
        assert "usage error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fixture": "matrix:2", "mystery": 1}))
        code = main(["run", "--config", str(cfg)])
        assert code == EXIT_ERROR


MALFORMED_CONFIGS = {
    "fractional samples": {"pipeline": "extract", "samples": 2.5},
    "boolean samples": {"pipeline": "extract", "samples": True},
    "fractional seed": {"pipeline": "extract", "seed": 1.5},
    "numeric sigma": {"pipeline": "contractibility", "sigma": 5},
    "pnorm without beta": {"pipeline": "extract",
                           "control": {"kind": "pnorm", "alpha": 1e-3, "p": 0.5}},
    "clamped without control": {"pipeline": "hypotheses",
                                "perturbation": {"mode": "clamped", "region_radius": 1.0}},
    "numeric control": {"pipeline": "extract", "control": 5},
    "null epsilon": {"pipeline": "extract",
                     "perturbation": {"mode": "annihilator", "epsilon": None}},
    "string epsilon": {"pipeline": "extract",
                       "perturbation": {"mode": "annihilator", "epsilon": "0.01"}},
    "boolean epsilon": {"pipeline": "extract",
                        "perturbation": {"mode": "annihilator", "epsilon": True}},
    "fractional perturbation seed": {"pipeline": "extract",
                                     "perturbation": {"mode": "annihilator", "seed": 1.5}},
    "boolean perturbation seed": {"pipeline": "extract",
                                  "perturbation": {"mode": "annihilator", "seed": True}},
    "null region radius": {"pipeline": "hypotheses",
                           "perturbation": {"mode": "clamped", "region_radius": None,
                                            "control": {"kind": "constant", "alpha": 0.1}}},
    "string control alpha": {"pipeline": "extract",
                             "control": {"kind": "constant", "alpha": "0.01"}},
    "boolean control alpha": {"pipeline": "extract",
                              "control": {"kind": "constant", "alpha": True}},
    "format key": {"pipeline": "contractibility", "format": "json"},
    # a negative or NaN cap silently turned the noise off
    "negative cap": {"pipeline": "hypotheses",
                     "perturbation": {"mode": "clamped", "region_radius": 64.0, "cap": -1.0,
                                      "control": {"kind": "constant", "alpha": 0.1}}},
    "nan cap": {"pipeline": "hypotheses",
                "perturbation": {"mode": "clamped", "region_radius": 64.0, "cap": float("nan"),
                                 "control": {"kind": "constant", "alpha": 0.1}}},
    # an infinite radius was written to the report as Infinity, not JSON
    "infinite region radius": {"pipeline": "hypotheses",
                               "perturbation": {"mode": "clamped", "region_radius": float("inf"),
                                                "control": {"kind": "constant", "alpha": 0.1}}},
    # write_report opened these as file descriptors
    "numeric out": {"pipeline": "contractibility", "out": 7},
    "boolean out": {"pipeline": "contractibility", "out": True},
}


@pytest.mark.parametrize("doc", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_malformed_config_is_one_error_line(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "matrix:2", **doc}))
    # an --out flag would replace the config's own out
    out = [] if "out" in doc else ["--out", str(tmp_path / "report.json")]
    code = main(["run", "--config", str(cfg), *out])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--sigma", "conjugation:{}", "coords"),
    ("--sigma", "file:{}", "matrix"),
    ("--fixture", "{}", "structure"),
])
def test_document_without_its_key_is_one_error_line(tmp_path, capsys, flag, value, key):
    from derivlab import algebra_to_dict, make_matrix_algebra

    raw = algebra_to_dict(make_matrix_algebra(2))
    del raw["structure"]
    doc = tmp_path / "doc.json"
    # an algebra document without structure lacks all three keys
    doc.write_text(json.dumps({"algebra": raw}))
    # a second --fixture flag replaces the first
    code = main(["run", "--fixture", "matrix:2", "--pipeline", "contractibility",
                 flag, value.format(doc)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"missing {key!r}" in err[0]


@pytest.mark.parametrize("coords", [[[1, 0], [0, 0], [0, 0]], [1, 2]],
                         ids=["three coordinates", "one scalar"])
def test_conjugating_element_of_the_wrong_shape_is_one_error_line(tmp_path, capsys, coords):
    doc = tmp_path / "u.json"
    doc.write_text(json.dumps({"coords": coords}))
    code = main(["run", "--fixture", "matrix:2", "--pipeline", "contractibility",
                 "--sigma", f"conjugation:{doc}", "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error:")
    assert "must have 4 coordinates" in err[0]
    assert not (tmp_path / "report.json").exists()


MALFORMED_GRIDS = {
    "value not a list": '{"perturbation.epsilon": 0.1}',
    "dotted key through a number": '{"perturbation.epsilon.x": [0.1]}',
    "grid not an object": "[1]",
    "unknown key": '{"foo": [1]}',
}


@pytest.mark.parametrize("grid", MALFORMED_GRIDS.values(), ids=MALFORMED_GRIDS.keys())
def test_malformed_sweep_grid_is_one_error_line(capsys, grid):
    code = main(["sweep", "--fixture", "matrix:2", "--samples", "5", "--grid", grid])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


OUT_OF_RANGE_SEEDS = [2**63, -2**63 - 1, 10**20]


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
@pytest.mark.parametrize("where", ["--seed", "--perturb"])
def test_out_of_range_seed_is_one_error_line(tmp_path, capsys, where, seed):
    # a seed keys the noise hash as one signed 64-bit word
    out = tmp_path / "report.json"
    args = (["--seed", str(seed)] if where == "--seed" else
            ["--perturb", json.dumps({"mode": "annihilator", "epsilon": 1e-3, "seed": seed})])
    code = main(["run", "--fixture", "matrix:2", "--pipeline", "extract", "--out", str(out)]
                + args)
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error:") and "[-2^63, 2^63)" in err[0]
    assert not out.exists()


def test_the_seed_range_ends_are_accepted():
    for seed in (2**63 - 1, -2**63):
        ExperimentConfig(seed=seed).validate()
        PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=seed)
    with pytest.raises(ConstructionError, match="seed"):
        PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=2**63)


@pytest.mark.parametrize("fixture, reason", [
    ("zero-product:40", "3.1 GiB"),  # the Leibniz system alone would be 1.6 GB
    ("zero-product:65", "<= 64"),
])
def test_oversized_request_is_one_error_line(tmp_path, capsys, fixture, reason):
    out = tmp_path / "report.json"
    code = main(["run", "--fixture", fixture, "--pipeline", "contractibility", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error:") and reason in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_config_file_that_is_not_an_object_is_one_error_line(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = main([command, "--config", str(cfg)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("out", [7, True])
def test_sweep_config_out_that_is_not_a_path_is_one_error_line(tmp_path, capsys, out):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "matrix:2", "samples": 5, "out": out}))
    code = main(["sweep", "--config", str(cfg), "--grid", '{"perturbation.epsilon": [0.01]}'])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert code == EXIT_ERROR
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_help_names_every_endomorphism_form(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    assert ("--sigma SIGMA endomorphism: id | conjugation:shear | "
            "conjugation:<coords.json> | file:<matrix.json>") in text


def test_clamped_pipelines_verify_hypotheses_once(monkeypatch):
    import derivlab.cli
    import derivlab.perturb

    samples = []
    verify = derivlab.perturb.verify_hypotheses

    def counting(*args, **kwargs):
        samples.append(kwargs["samples"])
        return verify(*args, **kwargs)

    monkeypatch.setattr(derivlab.perturb, "verify_hypotheses", counting)
    monkeypatch.setattr(derivlab.cli, "verify_hypotheses", counting)
    clamped = {"mode": "clamped", "control": {"kind": "constant", "alpha": 0.1},
               "region_radius": 1.0, "cap": 0.002, "seed": 3}
    for pipeline, expected in (("extract", []), ("hypotheses", [50])):
        samples.clear()
        record = run(ExperimentConfig(fixture="matrix:2", pipeline=pipeline,
                                      perturbation=clamped, samples=50, seed=3))
        assert record.exit_code == EXIT_OK
        assert samples == expected, pipeline


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "fixture": "dual-numbers",
            "pipeline": "contractibility",
            "seed": 1,
        }))
        out = tmp_path / "r.json"
        code = main(["run", "--config", str(cfg), "--fixture", "matrix:2",
                     "--out", str(out)])
        assert code == EXIT_OK  # matrix:2 won over dual-numbers
        assert json.loads(out.read_text())["config"]["fixture"] == "matrix:2"

    def test_env_var_provides_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DERIVLAB_SEED", "1234")
        out = tmp_path / "r.json"
        main(["run", "--fixture", "matrix:2", "--pipeline", "contractibility",
              "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 1234

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DERIVLAB_SEED", "1234")
        out = tmp_path / "r.json"
        main(["run", "--fixture", "matrix:2", "--pipeline", "contractibility",
              "--seed", "9", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 9


# every pipeline at the sizes whose reports change with the OpenBLAS thread
# count when derivlab's linear algebra runs at the process's count (8 of these
# 15 at seed 3)
THREAD_COUNT_CHILD = """
import json, sys
from derivlab.cli import PIPELINES, ExperimentConfig, run
reports = {}
for fixture in ("matrix:4", "matrix:5", "zero-product:6"):
    for pipeline in PIPELINES:
        record = run(ExperimentConfig(fixture=fixture, pipeline=pipeline, seed=3))
        reports[f"{fixture} {pipeline}"] = record.report_bytes().decode()
json.dump(reports, sys.stdout)
"""


class TestDeterminism:
    @pytest.mark.skipif(blas_threads() is None,
                        reason="numpy's OpenBLAS has no thread-count setter")
    def test_reports_do_not_depend_on_the_blas_thread_count(self):
        children = [
            subprocess.Popen([sys.executable, "-c", THREAD_COUNT_CHILD],
                             env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for threads in ("1", "2")
        ]
        outputs = [child.communicate(timeout=300) for child in children]
        for child, (_, err) in zip(children, outputs):
            assert child.returncode == 0, err
        one, two = (json.loads(out) for out, _ in outputs)
        assert len(one) == 15
        assert [name for name in one if one[name] != two[name]] == []

    def test_repeat_runs_byte_identical_in_subprocesses(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "derivlab.cli", "run",
                 "--fixture", "matrix:2", "--pipeline", "extract",
                 "--seed", "21", "--samples", "300", "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]

    def test_config_hash_ignores_output_routing(self):
        one = ExperimentConfig(fixture="matrix:2", out="x.json")
        two = ExperimentConfig(fixture="matrix:2", out="y.json")
        assert one.hash() == two.hash()

    def test_different_seeds_change_extract_outputs(self, tmp_path):
        docs = []
        for seed in ("1", "2"):
            _, doc = run_main(
                tmp_path, "run", "--fixture", "matrix:2", "--pipeline", "extract",
                "--seed", seed, "--samples", "100",
            )
            docs.append(doc)
        assert docs[0]["outputs"]["stability"] != docs[1]["outputs"]["stability"]


REUSE_FIXTURES = ("matrix:3", "upper-triangular:4", "zero-product:6", "dual-numbers")


def reuse_configs(pipelines=PIPELINES):
    """Each pipeline on each reuse fixture, with conjugation:shear beside id
    on the unital ones."""
    return [ExperimentConfig(fixture=fixture, pipeline=pipeline, sigma=sigma, seed=11,
                             samples=200)
            for fixture in REUSE_FIXTURES
            for pipeline in pipelines
            for sigma in ("id", "conjugation:shear")
            if sigma == "id" or not fixture.startswith("zero-product")]


@pytest.fixture(scope="module")
def fresh_reports():
    """Report bytes of every reuse config, each run on a fresh algebra
    instance with nothing derived from it yet."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli_module, "get_algebra", get_algebra.__wrapped__)
        return {config.hash(): run(config).report_bytes() for config in reuse_configs()}


class TestReuse:
    """What is built once per algebra or module (closure plans, derived
    modules, named twists and their certificates, keyed maps) changes no
    report byte, however often and from however many threads it is reused."""

    def test_repeated_runs_on_the_shared_fixtures_give_the_fresh_bytes(self, fresh_reports):
        for _ in range(2):
            for config in reuse_configs():
                assert run(config).report_bytes() == fresh_reports[config.hash()], config

    @pytest.mark.parametrize("fixture", REUSE_FIXTURES)
    def test_threads_on_one_cold_algebra_give_the_fresh_bytes(self, fresh_reports,
                                                              monkeypatch, fixture):
        # more threads than cores, switching often, all missing the same
        # entries at once: every thread must get the bytes of a fresh run
        # and the one instance of each object kept on the algebra
        shared = get_algebra.__wrapped__(fixture)
        monkeypatch.setattr(cli_module, "get_algebra", lambda name: shared)
        configs = [config for config in reuse_configs(("contractibility", "amenability"))
                   if config.fixture == fixture]
        workers = 4
        start = threading.Barrier(workers)

        def verdicts(_):
            start.wait(timeout=60)
            reports = [run(config).report_bytes() for config in configs]
            kept = (regular_bimodule(shared), shared.closure_plan(shared.generators),
                    _resolve_endomorphism(shared, "id"))
            return reports, kept

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(verdicts, i) for i in range(workers)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        want = [fresh_reports[config.hash()] for config in configs]
        assert [reports for reports, _ in results] == [want] * workers
        for _, kept in results:
            assert all(mine is first for mine, first in zip(kept, results[0][1]))

    def test_base_derivation_kept_per_module_and_twist_pair(self, monkeypatch):
        shared = get_algebra.__wrapped__("matrix:3")
        monkeypatch.setattr(cli_module, "get_algebra", lambda name: shared)
        shear = "conjugation:shear"
        pairs = [("id", "id"), (shear, "id"), (shear, shear)]
        configs = [ExperimentConfig(fixture="matrix:3", pipeline="extract", sigma=sigma, tau=tau)
                   for sigma, tau in pairs]
        kept = [PerturbedExperiment.build(config).d0.d for config in configs]
        for (sigma, tau), config, d0 in zip(pairs, configs, kept):
            # the bits of a derivation space factored on an algebra nothing is kept on
            fresh = get_algebra.__wrapped__("matrix:3")
            module, _ = extend_with_annihilator(regular_bimodule(fresh))
            space = derivation_space(fresh, module, _resolve_endomorphism(fresh, sigma),
                                     _resolve_endomorphism(fresh, tau))
            d = space.unit_projection("base-derivation").reshape(space.map_shape)
            assert d0.matrix.tobytes() == d.tobytes(), (sigma, tau)
            assert PerturbedExperiment.build(config).d0.d is d0

    def test_file_twists_keep_no_base_derivation(self, tmp_path, monkeypatch):
        shared = get_algebra.__wrapped__("matrix:2")
        monkeypatch.setattr(cli_module, "get_algebra", lambda name: shared)
        doc = tmp_path / "identity.json"
        doc.write_text(json.dumps({"matrix": [[[float(i == j), 0.0] for j in range(4)]
                                              for i in range(4)]}))
        config = ExperimentConfig(fixture="matrix:2", pipeline="extract", sigma=f"file:{doc}")
        first = PerturbedExperiment.build(config)
        store = dict(first.module.__dict__.get("_kept", {}))
        second = PerturbedExperiment.build(config)
        assert second.module is first.module
        assert first.module.__dict__.get("_kept", {}) == store
        assert not any("base derivation" in key for key in store if isinstance(key, tuple))
        assert second.d0.d is not first.d0.d
        assert second.d0.d.matrix.tobytes() == first.d0.d.matrix.tobytes()

    def test_non_multiplicative_file_twist_refused_on_every_run(self, tmp_path, capsys):
        doc = tmp_path / "half.json"
        doc.write_text(json.dumps({"matrix": [[[0.5 * (i == j), 0.0] for j in range(9)]
                                              for i in range(9)]}))
        for sigma in (f"file:{doc}", "id", f"file:{doc}"):
            code = main(["run", "--fixture", "matrix:3", "--pipeline", "contractibility",
                         "--sigma", sigma, "--out", str(tmp_path / "report.json")])
            err = capsys.readouterr().err.splitlines()
            if sigma == "id":
                assert code == EXIT_OK
                continue
            assert code == EXIT_ERROR
            assert len(err) == 1 and "sigma is not multiplicative" in err[0]


class TestSweep:
    def parse(self, text):
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "config_hash"
        header, data = rows[1], rows[2:]
        return header, data

    def test_epsilon_sweep_rows_and_bound(self):
        cfg = ExperimentConfig(fixture="matrix:2", seed=5, samples=100)
        text = sweep(cfg, {"perturbation.epsilon": [1e-1, 1e-2, 1e-3]})
        header, data = self.parse(text)
        assert header[0] == "perturbation.epsilon"
        assert len(data) == 3
        for row in data:
            assert row[-1] == "ok"
            assert float(row[1]) <= float(row[2])  # realized error <= envelope

    def test_p_sweep_envelope_matches_closed_form(self):
        cfg = ExperimentConfig(
            fixture="matrix:2", seed=5, samples=50,
            control={"kind": "pnorm", "alpha": 1.0, "beta": 1.0, "p": 0.5},
        )
        text = sweep(cfg, {"control.p": [0.0, 0.25, 0.5, 0.75]})
        _, data = self.parse(text)
        for row, p in zip(data, [0.0, 0.25, 0.5, 0.75]):
            envelope = float(row[2])
            assert envelope == pytest.approx(1.0 + 2.0 / (2.0 - 2.0**p), abs=1e-12)

    def test_empty_grid_is_usage_error(self, capsys):
        code = main(["sweep", "--fixture", "matrix:2", "--grid", "{}"])
        assert code == EXIT_ERROR

    def test_sweep_deterministic(self):
        cfg = ExperimentConfig(fixture="matrix:2", seed=5, samples=50)
        grid = {"perturbation.epsilon": [1e-2, 1e-3]}
        assert sweep(cfg, grid) == sweep(cfg, grid)

    def test_violations_counted_on_the_rows_own_samples(self, tmp_path):
        # a budget far below the noise: every sample breaks the configured
        # envelope, and the violation count must say so
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--fixture", "matrix:2", "--seed", "5", "--samples", "50",
            "--control", '{"kind": "constant", "alpha": 1e-9}',
            "--grid", '{"perturbation.epsilon": [1e-3]}', "--out", str(out),
        ])
        assert code == EXIT_OK
        header, data = self.parse(out.read_text())
        row = dict(zip(header, data[0]))
        assert row["status"] == "ok"
        assert float(row["max_error"]) > float(row["envelope"])
        assert 0 < int(row["violations"]) <= 50

    def test_partial_failure_recorded_per_row(self):
        cfg = ExperimentConfig(fixture="matrix:2", seed=5, samples=50)
        text = sweep(cfg, {"perturbation.epsilon": [1e-2, -1.0]})
        _, data = self.parse(text)
        assert data[0][-1] == "ok"
        assert data[1][-1].startswith("error:")


    def test_out_of_range_seed_becomes_an_error_row(self):
        cfg = ExperimentConfig(fixture="matrix:2", samples=20)
        for grid in ({"seed": [1, 10**20]}, {"perturbation.seed": [1, 10**20]}):
            _, data = self.parse(sweep(cfg, grid))
            assert data[0][-1] == "ok"
            assert data[1][-1].startswith("error: seed must lie in [-2^63, 2^63)")

    def test_malformed_row_values_become_error_rows(self):
        cfg = ExperimentConfig(fixture="matrix:2", seed=5, samples=50)
        text = sweep(cfg, {"samples": [2.5, True, 20]})
        _, data = self.parse(text)
        assert [row[-1].startswith("error:") for row in data] == [True, True, False]
        assert data[2][-1] == "ok"


def test_record_documents_are_their_fields():
    """Each record written by record_dict has a document whose keys are its
    field names, in field order: the report schema is the fields."""
    from dataclasses import fields

    from derivlab import (approx_contractibility_roundtrip, inner_solve, is_contractible,
                          sigma_endo_certificate, verify_hypotheses, verify_stability_bound)

    exp = cli_module.PerturbedExperiment.build(ExperimentConfig(fixture="matrix:2", seed=5))
    maps = exp.maps
    records = [
        sigma_endo_certificate(exp.d0, samples=10),
        inner_solve(exp.d0),
        is_contractible(exp.algebra, regular_bimodule(exp.algebra), exp.sigma, exp.tau),
        approx_contractibility_roundtrip(maps.f, exp.control, exp.algebra, exp.module,
                                         exp.sigma, exp.tau, samples=10),
        verify_stability_bound(maps.f, exp.d0.d, exp.control, samples=10),
        verify_hypotheses(maps.f, maps.g_sigma, maps.g_tau, exp.control, samples=10),
    ]
    names = ["EndoCertificate", "InnerSolveResult", "ContractibilityReport", "RoundtripResult",
             "StabilityReport", "HypothesisReport"]
    assert [type(record).__name__ for record in records] == names
    for record in records:
        assert list(record.to_dict()) == [f.name for f in fields(record)]


def test_run_record_excludes_wall_time():
    record = run(ExperimentConfig(fixture="matrix:2", pipeline="contractibility"))
    assert record.wall_time > 0.0
    assert b"wall_time" not in record.report_bytes()


@pytest.mark.parametrize("seed", [17, 23])
@pytest.mark.parametrize("pipeline", ["extract", "roundtrip"])
@pytest.mark.parametrize("fixture", ["dual-numbers", "matrix:2", "upper-triangular:3",
                                     "zero-product:4"])
def test_extraction_pipelines_invariant_under_change_of_basis(fixture, pipeline, seed):
    from derivlab import algebra_to_dict, get_algebra
    from test_derivation import change_of_basis

    original = run(ExperimentConfig(fixture=fixture, pipeline=pipeline))
    changed = run(ExperimentConfig(
        fixture=algebra_to_dict(change_of_basis(get_algebra(fixture), seed)), pipeline=pipeline))
    assert changed.exit_code == original.exit_code
    if pipeline == "extract":
        extraction = changed.outputs["extraction"]
        assert extraction["leibniz_max"] <= 1e-9
        assert all(extraction[part]["bound_ok"] for part in ("d", "sigma", "tau"))
        assert changed.outputs["stability"]["num_violations"] == 0
    else:
        assert changed.outputs["roundtrip"]["feasible"] == original.outputs["roundtrip"]["feasible"]


# --- the report writer against json.dumps -----------------------------------------

def json_dumps_report(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


class TestReportWriter:
    @pytest.mark.parametrize("pipeline", PIPELINES)
    @pytest.mark.parametrize("fixture", ["matrix:2", "dual-numbers"])
    def test_every_pipeline_report_is_json_dumps(self, fixture, pipeline):
        record = run(ExperimentConfig(fixture=fixture, pipeline=pipeline, samples=50, seed=7))
        expected = json_dumps_report(record.to_dict())
        assert report_json(record.to_dict()) == expected
        assert record.report_bytes() == (expected + "\n").encode()

    def test_clamped_and_envelope_reports_are_json_dumps(self):
        clamped = {"mode": "clamped", "control": {"kind": "constant", "alpha": 0.1},
                   "region_radius": 64.0, "seed": 3}
        envelope = {"kind": "pnorm", "alpha": 3e-3, "beta": 1e-2, "p": 0.5}
        for config in (ExperimentConfig(pipeline="hypotheses", perturbation=clamped, samples=50),
                       ExperimentConfig(pipeline="extract", control=envelope)):
            doc = run(config).to_dict()
            assert report_json(doc) == json_dumps_report(doc)

    @pytest.mark.parametrize("doc", [
        {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "zero": -0.0},
        [1.5, float("nan"), -2.0],
        [float("inf"), float("-inf")],
        [[1.0, -0.0], [5e-324, 1.7976931348623157e308], [0.1, 1e16]],
        {"empty list": [], "empty dict": {}, "nested": [[], {}, [[]], {"x": {}}, [{}]]},
        [],
        {},
        {"é ": "caf\xe9 ÿ \U0001f600 \"quoted\" back\\slash", "ctl": "\x00\x01\n\t\x7f\x1f"},
        {"np": np.float64(0.1), "list": [np.float64(1.5), 2.0], "nan64": np.float64("nan")},
        {"bools": [True, False], "true": True, "none": None, "nones": [None]},
        {"big": 2**53 + 1, "huge": -(2**100), "ints": [1, 2, 3], "mixed": [1, 2.0, "3"]},
        {"tuple": (1.0, 2.0), "nested tuple": ((), (0.5, "a"), [(None,)])},
        {"b": 1, "a": 2, "B": 3, "_": 4, "aa": 5, "": 6},
        "top-level string",
        3.25,
        None,
    ], ids=lambda doc: type(doc).__name__)
    def test_edge_documents(self, doc):
        assert report_json(doc) == json_dumps_report(doc)

    def test_a_repeated_sub_document_is_rendered_once(self, monkeypatch):
        shared = {"matrix": [[1.0, -0.5], [0.25, 0.0]], "ok": True, "n": [3, 4]}
        doc = {"sigma": shared, "tau": shared, "deeper": {"again": shared}}
        rendered = []
        render = cli_module._render_container
        monkeypatch.setattr(cli_module, "_render_container",
                            lambda value, indent, memo: rendered.append((id(value), indent))
                            or render(value, indent, memo))
        assert report_json(doc) == json_dumps_report(doc)
        # once at the depth of sigma and tau, once one level deeper
        assert rendered.count((id(shared), "  ")) == 1
        assert rendered.count((id(shared), "    ")) == 1

    def test_sigma_and_tau_share_one_part_when_they_are_one_map(self):
        outputs = run(ExperimentConfig(fixture="matrix:2", pipeline="extract")).outputs
        assert outputs["extraction"]["tau"] is outputs["extraction"]["sigma"]
        shear = run(ExperimentConfig(fixture="matrix:2", pipeline="extract",
                                     sigma="conjugation:shear")).outputs["extraction"]
        assert shear["tau"] is not shear["sigma"] and shear["tau"] != shear["sigma"]

    @pytest.mark.parametrize("doc", [
        {"x": np.int64(3)}, [np.bool_(True)], {"x": {1, 2}}, {1: "int key"}, object(),
    ], ids=["np.int64", "np.bool_", "set", "int key", "object"])
    def test_anything_else_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            report_json(doc)
