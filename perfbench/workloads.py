"""Seeded job lists for the three benchmark workloads, and their oracles.

A job is one call into derivlab's public API: a `cli.run` pipeline, a
`cli.sweep`, or a library extraction with a tabulated control. Every job
carries the outcome it must produce: `execute` runs it and returns its
output bytes (hashed for the thread-count probe) and its result, which
`check` judges.

Job seeds are derived from the workload seed, so the same workload seed
gives the same jobs and the same reports.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

from derivlab import (DerivationTriple, PerturbationSpec, TabulatedControl, cli,
                      derivation_space, extend_with_annihilator, get_algebra, hyers,
                      identity_map, make_annihilator_perturbation, regular_bimodule)

WORKLOADS = ("verdicts", "extraction", "sampling")

# upper-triangular:2 is left out: its four ~3 ms jobs would put the median
# job on the edge between the ~3 ms and ~10 ms groups, where it flips
VERDICT_UNITAL = ("matrix:2", "matrix:3", "upper-triangular:3", "upper-triangular:4",
                  "dual-numbers")
# conjugation:shear needs a unit, so the zero-product fixtures run with id only
VERDICT_NONUNITAL = ("zero-product:4", "zero-product:6")
EXTRACT_FIXTURES = ("dual-numbers", "matrix:2", "matrix:3", "upper-triangular:3",
                    "zero-product:4")
# seeds per lambda mode; upper-triangular:3 jobs are ~20% faster, so the
# median and p60 job land inside the matrix:3 group, not on its edge
HYPOTHESIS_SEEDS = {"matrix:3": 4, "upper-triangular:3": 2}
HYPOTHESIS_SAMPLES = 1000
# alpha covers the default annihilator budget 3 * 1e-3; the beta term makes
# the envelope a genuine power-norm control
ENVELOPE = {"kind": "pnorm", "alpha": 3e-3, "beta": 1e-2, "p": 0.5}
CLAMP_CONTROL = {"kind": "constant", "alpha": 0.1}
LEIBNIZ_TOL = 1e-9
EPSILON = 1e-3


class OracleError(Exception):
    """A job produced an outcome other than the one its oracle demands."""


def job_seed(workload_seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{workload_seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def verdict_dims(fixture: str, module: str) -> tuple[int, int]:
    """Closed-form (Der, Inner) dimensions for the identity-twisted verdicts.

    module is "regular" (contractibility) or "dual" (amenability). A
    conjugation twist is an automorphism, so the dimensions are the same.
    """
    if fixture == "dual-numbers":
        return 1, 0
    kind, _, size = fixture.partition(":")
    n = int(size)
    if kind == "matrix":
        return n * n - 1, n * n - 1
    if kind == "upper-triangular":
        dim = n * (n + 1) // 2 - 1 if module == "regular" else n * (n - 1) // 2
        return dim, dim
    if kind == "zero-product":
        return n * n, 0
    raise ValueError(f"no closed form for fixture {fixture!r}")


def roundtrip_feasible(fixture: str) -> bool:
    """Every derivation is inner exactly on the matrix and triangular fixtures."""
    return fixture.startswith(("matrix:", "upper-triangular:"))


@dataclass(frozen=True)
class Job:
    label: str
    kind: str  # "run", "sweep" or "library"
    config: dict = field(default_factory=dict)
    grid: dict | None = None
    fixture: str = ""


def job_list(workload: str, seed: int) -> list[Job]:
    """The fixed, seeded list of jobs that makes up one pass of a workload."""
    if workload == "verdicts":
        return _verdict_jobs(seed)
    if workload == "extraction":
        return _extraction_jobs(seed)
    if workload == "sampling":
        return _sampling_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _run_job(seed: int, label: str, **config) -> Job:
    config["seed"] = job_seed(seed, label)
    return Job(label, "run", config, fixture=config["fixture"])


def _verdict_jobs(seed: int) -> list[Job]:
    jobs = []
    for pipeline in ("contractibility", "amenability"):
        for fixture in VERDICT_UNITAL:
            for sigma in ("id", "conjugation:shear"):
                jobs.append(_run_job(seed, f"{pipeline} {fixture} {sigma}",
                                     fixture=fixture, pipeline=pipeline, sigma=sigma))
        for fixture in VERDICT_NONUNITAL:
            jobs.append(_run_job(seed, f"{pipeline} {fixture} id",
                                 fixture=fixture, pipeline=pipeline, sigma="id"))
    # matrix:4 is the SVD-bound case (~5.5 s each); one job per pipeline,
    # one per twist, keeps a pass near 12 s
    jobs.append(_run_job(seed, "contractibility matrix:4 id",
                         fixture="matrix:4", pipeline="contractibility", sigma="id"))
    jobs.append(_run_job(seed, "amenability matrix:4 conjugation:shear",
                         fixture="matrix:4", pipeline="amenability",
                         sigma="conjugation:shear"))
    return jobs


def _extraction_jobs(seed: int) -> list[Job]:
    jobs = []
    for fixture in EXTRACT_FIXTURES:
        jobs.append(_run_job(seed, f"extract {fixture}", fixture=fixture, pipeline="extract"))
        jobs.append(_run_job(seed, f"extract {fixture} envelope", fixture=fixture,
                             pipeline="extract", control=dict(ENVELOPE)))
        jobs.append(_run_job(seed, f"roundtrip {fixture}", fixture=fixture,
                             pipeline="roundtrip"))
    grid = {
        "perturbation.epsilon": [1e-2, 1e-3],
        "seed": [job_seed(seed, "sweep row 0"), job_seed(seed, "sweep row 1")],
    }
    jobs.append(Job("sweep matrix:3", "sweep",
                    {"fixture": "matrix:3", "pipeline": "extract",
                     "seed": job_seed(seed, "sweep matrix:3")},
                    grid=grid, fixture="matrix:3"))
    jobs.append(Job("tabulated matrix:3", "library",
                    {"seed": job_seed(seed, "tabulated matrix:3")}, fixture="matrix:3"))
    return jobs


def _sampling_jobs(seed: int) -> list[Job]:
    annihilator = []
    for k in range(max(HYPOTHESIS_SEEDS.values())):
        for fixture, seeds in HYPOTHESIS_SEEDS.items():
            for mode in ("full", "one-i") if k < seeds else ():
                annihilator.append(_run_job(seed, f"hypotheses {fixture} {mode} {k}",
                                            fixture=fixture, pipeline="hypotheses",
                                            lambda_mode=mode, samples=HYPOTHESIS_SAMPLES))
    clamped = []
    for radius, cap in ((1.0, 0.002), (64.0, None)):
        label = f"hypotheses matrix:2 clamped r={radius:g}"
        perturbation = {"mode": "clamped", "control": dict(CLAMP_CONTROL),
                        "region_radius": radius, "seed": job_seed(seed, label)}
        if cap is not None:
            perturbation["cap"] = cap
        clamped.append(_run_job(seed, label, fixture="matrix:2", pipeline="hypotheses",
                                perturbation=perturbation, samples=HYPOTHESIS_SAMPLES))
    # the ~5.5 s clamped jobs split the ~0.5 s annihilator jobs into three
    # stretches of the pass, each with matrix:3 jobs: the box's speed changes
    # from second to second, and one stretch would make the median job time
    # follow one speed
    return annihilator[:4] + clamped[:1] + annihilator[4:8] + clamped[1:] + annihilator[8:]


# --- execution and oracles ---------------------------------------------------

def prepare(jobs: list[Job]) -> dict:
    """Build everything a pass needs before timing: the fixtures and the
    inputs of library jobs. Returns per-job prepared state keyed by label."""
    for fixture in sorted({job.fixture for job in jobs}):
        get_algebra(fixture)
    return {job.label: _library_inputs(job) for job in jobs if job.kind == "library"}


def _library_inputs(job: Job):
    """Annihilator-perturbed base derivation on the fixture, as `cli` builds it,
    with a tabulated control holding the same constant budget."""
    algebra = get_algebra(job.fixture)
    module, ann = extend_with_annihilator(regular_bimodule(algebra))
    sid = identity_map(algebra)
    d0 = derivation_space(algebra, module, sid, sid).linear_map(0)
    spec = PerturbationSpec(mode="annihilator", epsilon=EPSILON, seed=job.config["seed"])
    maps = make_annihilator_perturbation(DerivationTriple(d0, sid, sid), spec, ann)
    budget = maps.control.alpha
    return maps.f, TabulatedControl(lambda a, b: budget, 0.0)


def execute(job: Job, prepared: dict):
    """Run one job through derivlab's public API.

    Returns (output bytes, result); `check` judges the result. A derivlab
    error (the CLI's exit 1) propagates and counts as a failed job.
    """
    if job.kind == "run":
        record = cli.run(cli.ExperimentConfig(**job.config))
        return record.report_bytes(), record
    if job.kind == "sweep":
        text = cli.sweep(cli.ExperimentConfig(**job.config), job.grid)
        return text.encode(), text
    if job.kind == "library":
        f, control = prepared[job.label]
        seed = job.config["seed"]
        report = hyers.extract_additive(f, control, seed=seed)
        stability = hyers.verify_stability_bound(f, report.limit, control, seed=seed)
        doc = {"extraction": report.to_dict(), "stability": stability.to_dict()}
        return json.dumps(doc, sort_keys=True).encode(), (report, stability)
    raise ValueError(f"unknown job kind {job.kind!r}")


def check(job: Job, result) -> None:
    """Raise OracleError unless the job's result is the one its oracle demands."""
    if job.kind == "run":
        check_run(job, result.exit_code, result.outputs)
    elif job.kind == "sweep":
        check_sweep(job, result)
    else:
        check_library(job, *result)


def _require(condition: bool, job: Job, message: str) -> None:
    if not condition:
        raise OracleError(f"{job.label}: {message}")


def expected_exit(job: Job) -> int:
    """0 for satisfied/feasible/contractible outcomes, 2 for the expected
    negative ones: non-contractible fixtures, infeasible round trips and
    the oversized clamped region."""
    pipeline = job.config["pipeline"]
    fixture = job.fixture
    if pipeline in ("contractibility", "amenability"):
        module = "regular" if pipeline == "contractibility" else "dual"
        der, inner = verdict_dims(fixture, module)
        return 0 if der == inner else 2
    if pipeline == "roundtrip":
        return 0 if roundtrip_feasible(fixture) else 2
    if pipeline == "hypotheses":
        perturbation = job.config.get("perturbation") or {}
        return 2 if perturbation.get("region_radius", 1.0) > 1.0 else 0
    return 0


def check_run(job: Job, exit_code: int, outputs: dict) -> None:
    pipeline = job.config["pipeline"]
    want = expected_exit(job)
    _require(exit_code == want, job, f"exit code {exit_code}, expected {want}")
    if pipeline in ("contractibility", "amenability"):
        module = "regular" if pipeline == "contractibility" else "dual"
        report = outputs[pipeline]
        dims = (report["derivation_dim"], report["inner_dim"])
        want_dims = verdict_dims(job.fixture, module)
        _require(dims == want_dims, job, f"(Der, Inner) = {dims}, expected {want_dims}")
    elif pipeline == "extract":
        extraction = outputs["extraction"]
        _require(outputs["stability"]["num_violations"] == 0, job, "stability violated")
        for part in ("d", "sigma", "tau"):
            _require(extraction[part]["bound_ok"], job, f"{part} bound check failed")
        _require(extraction["leibniz_max"] <= LEIBNIZ_TOL, job,
                 f"leibniz_max {extraction['leibniz_max']:.3e} > {LEIBNIZ_TOL:g}")
    elif pipeline == "roundtrip":
        _require(outputs["roundtrip"]["feasible"] == (want == 0), job,
                 "round-trip feasibility does not match the fixture")
    elif pipeline == "hypotheses":
        report = outputs["hypotheses"]
        verdict = "satisfied" if want == 0 else "violated"
        _require(report["verdict"] == verdict, job, f"verdict {report['verdict']!r}")
        _require(report["samples"] == job.config["samples"], job, "sample count")


def check_sweep(job: Job, text: str) -> None:
    lines = list(csv.reader(io.StringIO(text)))
    rows = [dict(zip(lines[1], line)) for line in lines[2:]]
    points = 1
    for values in job.grid.values():
        points *= len(values)
    _require(len(rows) == points, job, f"{len(rows)} rows, expected {points}")
    for row in rows:
        _require(row["status"] == "ok", job, f"row status {row['status']!r}")
        _require(row["violations"] == "0", job, "row has violations")
        _require(float(row["max_error"]) <= float(row["envelope"]), job,
                 "max_error exceeds the envelope")


def check_library(job: Job, report, stability) -> None:
    _require(report.bound_ok, job, "bound check failed")
    _require(stability.satisfied, job, "stability violated")
