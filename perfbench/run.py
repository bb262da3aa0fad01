#!/usr/bin/env python3
"""derivlab benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`. Set-up is timed in fresh child processes (interpreter
start, `import derivlab`, the workload's fixtures, one BLAS warm-up). Then
whole passes over the workload's job list run until `--seconds` have
passed, and at least MIN_PASSES times. Every job's result is checked
against its oracle. The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced passes, reports the per-layer metrics (per-job latencies from
the untraced passes), reruns one pass in a child process with one BLAS
thread to count jobs whose report bytes change with the thread count, and
writes the spans to `.perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("verdicts", "extraction", "sampling")
SETUP_REPEATS = 7
MIN_PASSES = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 60.0, 50.0)
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}
SPAN_BUSY = ("algebra.certify", "derivation.derivation_space", "derivation.inner_space",
             "derivation.inner_solve", "derivation.svd", "hyers.extract_additive",
             "hyers.verify_stability_bound", "control.summed_control",
             "control.summed_control_tail", "perturb.verify_hypotheses",
             "sampling.hashed_unit_floats", "cli.report")
SPAN_SELF = ("derivation.verdict", "hyers.extract_triple", "perturb.make_perturbation",
             "cli.run")
SPAN_CALLS = ("algebra.certify", "derivation.derivation_space", "derivation.svd",
              "hyers.extract_additive", "control.summed_control",
              "control.summed_control_tail", "perturb.verify_hypotheses",
              "sampling.hashed_unit_floats")
COUNTERS = {
    "algebra.elements": "count",
    "derivation.svd.in_elems": "count",
    "derivation.svd.out_bytes": "B",
    "hyers.pointmap_evals": "count",
    "hyers.doublings": "count",
    "control.phi_evals": "count",
    "perturb.hypothesis_samples": "count",
    "sampling.ball_point.calls": "count",
    "sampling.generator.calls": "count",
    "cli.report.bytes": "B",
}
DERIVED = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "control.tail_phi_evals_per_doubling": "evals/doubling",
    "cli.thread_mismatch_jobs": "count",
    "failed_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.job_coverage_min": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{name}.s": "s" for name in SPAN_BUSY}
    units.update({f"{name}.self_s": "s" for name in SPAN_SELF})
    units.update({f"{name}.calls": "count" for name in SPAN_CALLS})
    units.update(COUNTERS)
    units.update(DERIVED)
    return units


def tail_percentile(values: list[float], basis: int | None = None) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that leaves at
    least TAIL_BEYOND of `basis` samples beyond it (nearest rank); `basis`
    defaults to all of them. With too few samples for any, the median.

    The value is read from all the samples. Choosing the percentile from
    the job executions of MIN_PASSES passes keeps it fixed per workload,
    so it does not jump when a run fits one pass more.
    """
    ordered = sorted(values)
    count = len(ordered)
    basis = count if basis is None else min(basis, count)
    for pct in TAIL_LADDER:
        if basis - math.ceil(pct * basis / 100) >= TAIL_BEYOND:
            return pct, ordered[math.ceil(pct * count / 100) - 1]
    return 50.0, statistics.median(ordered)


def job_tail(passes: list["Pass"]) -> tuple[float, float, int]:
    """(percentile, value, sample count) of job_s.tail for a run."""
    job_times = [t for p in passes for t in p.job_times]
    pct, value = tail_percentile(job_times, len(passes[0].job_times) * MIN_PASSES)
    return pct, value, len(job_times)


def machine() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": round(pages / 2**20),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# --- passes ----------------------------------------------------------------------

class Pass:
    """Wall, CPU and per-job times, failures and output digests of one pass."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.job_times: list[float] = []
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}


def run_pass(workloads, jobs, prepared, tracer=None) -> Pass:
    result = Pass()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for job in jobs:
        start = time.perf_counter()
        try:
            if tracer is None:
                payload, outcome = workloads.execute(job, prepared)
            else:
                with tracer.job():
                    payload, outcome = workloads.execute(job, prepared)
        except Exception as exc:  # a derivlab error fails the job, not the run
            result.job_times.append(time.perf_counter() - start)
            result.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
            continue
        result.job_times.append(time.perf_counter() - start)
        try:
            workloads.check(job, outcome)
        except Exception as exc:  # a wrong or malformed result fails the job
            result.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
            continue
        result.digests[job.label] = hashlib.sha256(payload).hexdigest()
    result.wall = time.perf_counter() - wall0
    result.cpu = time.process_time() - cpu0
    return result


def warm_blas() -> None:
    """One untimed LAPACK call, so the first job does not pay thread start-up."""
    import numpy as np

    rng = np.random.default_rng(0)
    mat = rng.standard_normal((729, 81)) + 1j * rng.standard_normal((729, 81))
    np.linalg.svd(mat)


def set_up(workload: str, seed: int):
    """Import the program, build the workload's inputs, warm BLAS."""
    sys.path.insert(0, str(SRC))
    import workloads

    jobs = workloads.job_list(workload, seed)
    prepared = workloads.prepare(jobs)
    warm_blas()
    return workloads, jobs, prepared


def child(args, mode: str, blas_threads: int) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--mode", mode,
           "--blas-threads", str(blas_threads), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)


def measure_setup(args, threads: int) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    start = time.perf_counter()
    proc = child(args, "setup", threads)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return elapsed


def probe_digests(args) -> dict:
    """Output digests of one pass in a child process with one BLAS thread."""
    proc = child(args, "probe", 1)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"probe child failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


# --- metrics -----------------------------------------------------------------------

def end_to_end_metrics(setup_times, passes: list[Pass], peak_rss_mb: float) -> dict:
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": statistics.median(p.cpu for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(summary: dict, counts, traced: list[Pass], untraced: list[Pass],
                      mismatches: int) -> dict:
    """Per-pass layer numbers from the traced passes' spans and counters;
    job latencies from the untraced passes."""
    n = len(traced)
    values = {f"{name}.s": summary["busy"][name] / n for name in SPAN_BUSY}
    values.update({f"{name}.self_s": summary["self"][name] / n for name in SPAN_SELF})
    values.update({f"{name}.calls": summary["calls"][name] / n for name in SPAN_CALLS})
    values.update({name: counts[name] / n for name in COUNTERS})
    doublings = counts["hyers.doublings"]
    traced_wall = statistics.median(p.wall for p in traced)
    attempted = sum(len(p.job_times) for p in traced + untraced)
    failed = sum(len(p.failures) for p in traced + untraced)
    values.update({
        "job_s.p50": statistics.median(t for p in untraced for t in p.job_times),
        "job_s.tail": job_tail(untraced)[1],
        "control.tail_phi_evals_per_doubling":
            counts["control.tail_phi_evals"] / doublings if doublings else 0.0,
        "cli.thread_mismatch_jobs": mismatches,
        "failed_ratio": failed / attempted,
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / statistics.median(p.wall for p in untraced),
        "trace.job_coverage_min": summary["coverage_min"],
    })
    out = {}
    for name, unit in per_layer_units().items():
        value = values[name]
        if unit in ("count", "B") and float(value).is_integer():
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


# --- modes --------------------------------------------------------------------------

def bench(args, threads: int) -> dict:
    setup_times = [measure_setup(args, threads) for _ in range(SETUP_REPEATS)]
    workloads, jobs, prepared = set_up(args.workload, args.seed)
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    if args.trace:
        return traced_bench(args, workloads, jobs, prepared)
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(workloads, jobs, prepared))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(passes)} passes of {len(jobs)} jobs; pass walls "
          f"{[round(p.wall, 3) for p in passes]}")
    return result(passes, end_to_end_metrics(setup_times, passes, peak_rss_mb))


def traced_bench(args, workloads, jobs, prepared) -> dict:
    from tracer import Tracer, instrumented, summarize

    tracer = Tracer()
    traced: list[Pass] = []
    untraced: list[Pass] = []
    start = time.perf_counter()
    while len(untraced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        untraced.append(run_pass(workloads, jobs, prepared))
        with instrumented(tracer):
            traced.append(run_pass(workloads, jobs, prepared, tracer))
    probe = probe_digests(args)
    reference = untraced[0].digests
    mismatches = sorted(label for label in reference if probe.get(label) != reference[label])
    pct, _, count = job_tail(untraced)
    print(f"{len(traced)} traced and {len(untraced)} untraced passes; job_s.tail is "
          f"p{pct:g} over {count} untraced job executions; {len(mismatches)} jobs "
          f"differ with 1 BLAS thread: {mismatches}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
    summary = summarize(tracer.spans)
    metrics = per_layer_metrics(summary, tracer.counts, traced, untraced, len(mismatches))
    return result(traced + untraced, metrics)


def result(passes: list[Pass], metrics: dict) -> dict:
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    attempted = sum(len(p.job_times) for p in passes)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the set-up timing and thread-count probe children
    parser.add_argument("--mode", choices=("bench", "setup", "probe"), default="bench")
    parser.add_argument("--blas-threads", type=int, default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "derivlab" / "__init__.py").is_file():
        print(f"error: no derivlab sources under {SRC}", file=sys.stderr)
        return 2
    threads = args.blas_threads or len(os.sched_getaffinity(0))
    # must be set before numpy loads OpenBLAS
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    if args.mode == "setup":
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.mode == "probe":
        pass_ = run_pass(*set_up(args.workload, args.seed))
        print(json.dumps(pass_.digests, sort_keys=True))
        return 0
    print(json.dumps(bench(args, threads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
