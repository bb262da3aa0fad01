"""Spans and counters recorded around derivlab's public functions.

The benchmark wraps, from the outside, each public function of interest in
every `derivlab` module namespace that binds it (`cli` imports names
directly, `ball_point` is bound in four modules), plus `numpy.linalg.svd`
as derivlab looks it up. The wrappers are installed for a traced pass only
and removed afterwards, so untraced passes run the program unmodified.

A span is a list [name, start, end, parent index, job id, outermost]:
`outermost` is false when a span of the same name is already open (as when
`is_amenable` calls `is_contractible`), so busy time is not counted twice.
Spans stay in memory until the benchmark writes them out at the end.
"""
from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, JOB, OUTERMOST = range(6)
JOB_SPAN = "job"

# (module, attribute path, span name): functions timed as spans
SPANNED = (
    ("derivlab.algebra", "FiniteAlgebra.__init__", "algebra.certify"),
    ("derivlab.algebra", "Bimodule.__init__", "algebra.certify"),
    ("derivlab.derivation", "derivation_space", "derivation.derivation_space"),
    ("derivlab.derivation", "inner_space", "derivation.inner_space"),
    ("derivlab.derivation", "inner_solve", "derivation.inner_solve"),
    ("derivlab.derivation", "is_contractible", "derivation.verdict"),
    ("derivlab.derivation", "is_amenable", "derivation.verdict"),
    ("numpy.linalg", "svd", "derivation.svd"),
    ("derivlab.hyers", "extract_additive", "hyers.extract_additive"),
    ("derivlab.hyers", "extract_triple", "hyers.extract_triple"),
    ("derivlab.hyers", "verify_stability_bound", "hyers.verify_stability_bound"),
    ("derivlab.control", "summed_control", "control.summed_control"),
    ("derivlab.control", "summed_control_tail", "control.summed_control_tail"),
    ("derivlab.perturb", "verify_hypotheses", "perturb.verify_hypotheses"),
    ("derivlab.perturb", "make_annihilator_perturbation", "perturb.make_perturbation"),
    ("derivlab.perturb", "make_clamped_perturbation", "perturb.make_perturbation"),
    ("derivlab.sampling", "hashed_unit_floats", "sampling.hashed_unit_floats"),
    ("derivlab.cli", "run", "cli.run"),
    ("derivlab.cli", "sweep", "cli.sweep"),
    ("derivlab.cli", "RunRecord.report_bytes", "cli.report"),
)

# (module, attribute path, counter name): calls counted without a span
COUNTED = (
    ("derivlab.algebra", "AlgebraElement.__init__", "algebra.elements"),
    ("derivlab.algebra", "ModuleElement.__init__", "algebra.elements"),
    ("derivlab.hyers", "PointMap.eval", "hyers.pointmap_evals"),
    ("derivlab.hyers", "PointMap.__call__", "hyers.pointmap_evals"),
    ("derivlab.hyers", "PointMap.eval_coords", "hyers.pointmap_evals"),
    ("derivlab.control", "PNormControl.evaluate", "control.phi_evals"),
    ("derivlab.control", "TabulatedControl.evaluate", "control.phi_evals"),
    ("derivlab.sampling", "ball_point", "sampling.ball_point.calls"),
    ("derivlab.sampling", "generator", "sampling.generator.calls"),
)


def _svd_counts(tracer: "Tracer", args, result) -> None:
    rows, cols = np.shape(args[0])[-2:]
    tracer.counts["derivation.svd.in_elems"] += int(rows) * int(cols)
    arrays = result if isinstance(result, tuple) else (result,)
    tracer.counts["derivation.svd.out_bytes"] += sum(int(a.nbytes) for a in arrays)


def _doubling_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["hyers.doublings"] += sum(result.per_basis_iterations)


def _sample_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["perturb.hypothesis_samples"] += result.samples


def _report_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["cli.report.bytes"] += len(result)


# exact counters read from wrapper arguments and return values
ON_RETURN = {
    "derivation.svd": _svd_counts,
    "hyers.extract_additive": _doubling_counts,
    "perturb.verify_hypotheses": _sample_counts,
    "cli.report": _report_counts,
}


class Tracer:
    """In-memory span stack and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.open_depth: Counter = Counter()
        self.job_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outermost = self.open_depth[name] == 0
        self.spans.append([name, perf_counter(), 0.0, parent, self.job_id, outermost])
        self._stack.append(index)
        self.open_depth[name] += 1
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = perf_counter()
        self._stack.pop()
        self.open_depth[span[NAME]] -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def job(self):
        """Root span of one job; every span opened inside shares its id."""
        self.job_id += 1
        return self.span(JOB_SPAN)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def _span_wrapper(tracer: Tracer, name: str, fn):
    on_return = ON_RETURN.get(name)

    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if on_return is not None:
            on_return(tracer, args, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    counts = tracer.counts
    depth = tracer.open_depth

    if name == "control.phi_evals":
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if depth["control.summed_control_tail"]:
                counts["control.tail_phi_evals"] += 1
            return fn(*args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

    return wrapper


def _bindings(module_name: str, path: str):
    """The function at `path` and every (namespace, attribute) that binds it:
    the class for a method, else the defining module and each derivlab
    module that imported the name."""
    root = sys.modules[module_name]
    owner_path, _, attr = path.rpartition(".")
    if owner_path:
        owner = getattr(root, owner_path)
        return getattr(owner, attr), [(owner, attr)]
    original = getattr(root, attr)
    owners = [(root, attr)]
    for name, module in list(sys.modules.items()):
        if (name == "derivlab" or name.startswith("derivlab.")) and module is not None \
                and name != module_name and vars(module).get(attr) is original:
            owners.append((module, attr))
    return original, owners


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the span and count wrappers; remove them on exit."""
    patches = []  # (owner, attribute, had own attribute, original)
    try:
        for table, make in ((SPANNED, _span_wrapper), (COUNTED, _count_wrapper)):
            for module_name, path, name in table:
                original, owners = _bindings(module_name, path)
                wrapper = make(tracer, name, original)
                for owner, attr in owners:
                    patches.append((owner, attr, attr in vars(owner), original))
                    setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, had, original in reversed(patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# --- aggregation ---------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one parent run one after another on a single thread, so
    the covered part is the sum of their durations clipped to the parent.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            p = spans[parent]
            covered[parent] += max(0.0, min(span[END], p[END]) - max(span[START], p[START]))
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def summarize(spans: list[list]) -> dict:
    """Busy time (outermost spans), self time and call count per span name,
    and the smallest share of a job's wall time covered by derivlab spans."""
    busy: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    selfs = self_times(spans)
    coverage = []
    for span, self_s in zip(spans, selfs):
        name, duration = span[NAME], span[END] - span[START]
        if name == JOB_SPAN:
            if duration > 0.0:
                coverage.append((duration - self_s) / duration)
            continue
        calls[name] += 1
        own[name] += self_s
        if span[OUTERMOST]:
            busy[name] += duration
    return {"busy": busy, "self": own, "calls": calls,
            "coverage_min": min(coverage, default=0.0)}
