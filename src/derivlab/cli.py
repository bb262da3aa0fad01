"""Experiment runner.

Loads a fixture and a pipeline configuration, orchestrates the
perturb -> extract -> decide chain, and writes machine-readable reports.
Reports are byte-identical for identical (config, seed) on the same machine:
all randomness is counter-based and keyed by the seed, derivlab's own linear
algebra runs in one OpenBLAS thread whatever the process's thread count
(`blas.single_blas_thread`; where numpy's OpenBLAS has no thread-count
setter, identity holds at a fixed thread count), and volatile quantities
such as wall time go to stderr, never into the report.

Exit codes: 0 for satisfied/feasible outcomes and verdicts that H^1
vanishes, 2 for violated or infeasible outcomes and verdicts that H^1 is
nonzero (still successful runs), 3 for an indeterminate verdict (a rank
margin inside the band around the cutoff), 1 for errors.

Flag precedence: values from --config are defaults; explicit command-line
flags override them.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .algebra import (
    Bimodule,
    FiniteAlgebra,
    LinearMap,
    algebra_from_dict,
    conjugation_map,
    identity_map,
    kept,
    regular_bimodule,
)
from .control import ControlFunction, control_from_dict
from .derivation import (
    VERDICT_INDETERMINATE,
    DerivationTriple,
    approx_contractibility_roundtrip,
    derivation_space,
    is_amenable,
    is_contractible,
)
from .encoding import decode_complex, document_field
from .errors import ConstructionError, DerivlabError
from .fixtures import get_algebra
from .hyers import extract_additive, extract_triple, sampled_envelope, verify_stability_bound
from .perturb import (
    SEED_BOUND,
    PerturbationSpec,
    PerturbedMaps,
    extend_with_annihilator,
    make_annihilator_perturbation,
    make_clamped_perturbation,
    verify_hypotheses,
)
from .sampling import generator, sphere_rows

PIPELINES = ("extract", "contractibility", "amenability", "roundtrip", "hypotheses")
SEED_ENV_VAR = "DERIVLAB_SEED"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSATISFIED = 2
EXIT_INDETERMINATE = 3


@dataclass
class ExperimentConfig:
    """Validated pipeline configuration."""

    fixture: str | dict = "matrix:2"
    pipeline: str = "extract"
    sigma: str = "id"
    tau: str = "id"
    control: dict | None = None
    perturbation: dict | None = None
    seed: int = 0
    samples: int = 1000
    lambda_mode: str = "full"
    out: str | None = None

    def validate(self) -> None:
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DerivlabError(f"{name} must be an integer, got {value!r}")
        if not -SEED_BOUND <= self.seed < SEED_BOUND:
            raise DerivlabError(f"seed must lie in [-2^63, 2^63), got {self.seed!r}")
        for name in ("sigma", "tau"):
            if not isinstance(getattr(self, name), str):
                raise DerivlabError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("control", "perturbation"):
            if not isinstance(getattr(self, name), (dict, type(None))):
                raise DerivlabError(f"{name} must be a JSON object, got {getattr(self, name)!r}")
        if self.pipeline not in PIPELINES:
            raise DerivlabError(
                f"unknown pipeline {self.pipeline!r}; choose from {PIPELINES}"
            )
        if self.lambda_mode not in ("full", "one-i"):
            raise DerivlabError("lambda-mode must be 'full' or 'one-i'")
        if self.samples < 1:
            raise DerivlabError("samples must be positive")

    def semantic_dict(self) -> dict:
        """Everything that affects the numbers (output routing excluded)."""
        return {
            "fixture": self.fixture,
            "pipeline": self.pipeline,
            "sigma": self.sigma,
            "tau": self.tau,
            "control": self.control,
            "perturbation": self.perturbation,
            "seed": self.seed,
            "samples": self.samples,
            "lambda_mode": self.lambda_mode,
        }

    def hash(self) -> str:
        canonical = json.dumps(self.semantic_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """One pipeline execution: outputs plus provenance.

    Wall time is measured but deliberately kept out of the serialized
    report so that identical (config, seed) runs stay byte-identical.
    """

    config: ExperimentConfig
    outputs: dict
    exit_code: int
    wall_time: float = 0.0
    tool_version: str = __version__

    def to_dict(self) -> dict:
        return {
            "tool": {"name": "derivlab", "version": self.tool_version},
            "config": self.config.semantic_dict(),
            "config_hash": self.config.hash(),
            "seed": self.config.seed,
            "pipeline": self.config.pipeline,
            "outputs": self.outputs,
            "exit_code": self.exit_code,
        }

    def report_bytes(self) -> bytes:
        return (report_json(self.to_dict()) + "\n").encode()


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def report_json(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, for
    documents of dicts with str keys, lists, tuples, str, int, float, bool
    and None (subclasses included, as json writes them); anything else,
    a non-str key included, raises TypeError. With an indent, json runs its
    pure-Python encoder; this writer takes fewer steps per value and joins
    a list of plain floats, or of [re, im] lists of two plain floats, in
    one call. A dict that is the value of more than one key in the
    document, as an extraction's sigma and tau part are when the two are
    one map, is rendered once per indent.
    """
    memo: dict = {}
    if isinstance(value, dict):
        _repeated_dicts(value, set(), memo)
    return _render(value, indent, memo)


def _repeated_dicts(doc: dict, seen: set, memo: dict) -> None:
    """Give `memo` an empty entry for the id of each dict met more than once
    among the values of `doc` and of the dicts below it."""
    for item in doc.values():
        if isinstance(item, dict):
            if id(item) in seen:
                memo[id(item)] = {}
            else:
                seen.add(id(item))
                _repeated_dicts(item, seen, memo)


_PLAIN_SCALARS = {
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: _json_float,
}


def _render(value, indent: str, memo: dict) -> str:
    """report_json(value, indent); `memo` holds the text of each repeated
    dict by indent, once it is rendered."""
    plain = _PLAIN_SCALARS.get(type(value))
    if plain is not None:
        return plain(value)
    if isinstance(value, (list, tuple, dict)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        texts = memo.get(id(value))
        if texts is None:
            return _render_container(value, indent, memo)
        if indent not in texts:
            texts[indent] = _render_container(value, indent, memo)
        return texts[indent]
    # subclasses of the scalar types, as json writes them
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_container(value, indent: str, memo: dict) -> str:
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        body = sep.join([f"{encode_basestring_ascii(key)}: {_render(item, inner, memo)}"
                         for key, item in sorted(value.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    body = ""
    if all(type(x) is float for x in value):
        body = sep.join(map(float.__repr__, value))
    elif all(type(x) is list and len(x) == 2 and type(x[0]) is float
             and type(x[1]) is float for x in value):  # [re, im] pairs
        deeper = inner + "  "
        body = sep.join([f"[\n{deeper}{re!r},\n{deeper}{im!r}\n{inner}]"
                         for re, im in value])
    if not body or "n" in body:  # other items, or a nan or an inf among the floats
        body = sep.join([_render(x, inner, memo) for x in value])
    return f"[\n{inner}{body}\n{indent}]"


def _resolve_algebra(fixture) -> FiniteAlgebra:
    if isinstance(fixture, str):
        return get_algebra(fixture)
    if isinstance(fixture, dict):
        return algebra_from_dict(fixture["algebra"] if "algebra" in fixture else fixture)
    raise DerivlabError("fixture must be a registry name or a document")


def _resolve_endomorphism(algebra: FiniteAlgebra, name: str) -> LinearMap:
    """The twist `name` names; the named twists (`_KEPT_TWISTS`) are made
    once per algebra and kept on it, and a file is read and certified on
    every call."""
    if name in _KEPT_TWISTS:
        return kept(algebra, f"twist: {name}", lambda: _KEPT_TWISTS[name](algebra))
    if name.startswith("conjugation:"):
        arg = name.split(":", 1)[1]
        with open(arg, encoding="utf-8") as fh:
            u = document_field(json.load(fh), "coords", ConstructionError, f"document {arg}")
        return conjugation_map(algebra, decode_complex(u))
    if name.startswith("file:"):
        path = name.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            matrix = document_field(json.load(fh), "matrix", ConstructionError, f"document {path}")
        return LinearMap(decode_complex(matrix), algebra, algebra)
    raise DerivlabError(
        f"unknown endomorphism {name!r}; use 'id', 'conjugation:shear', "
        "'conjugation:<coords.json>' or 'file:<matrix.json>'"
    )


def _shear(algebra: FiniteAlgebra) -> LinearMap:
    """Conjugation by the unit plus the first basis vector that keeps it
    invertible."""
    if algebra.unit_coords is None:
        raise DerivlabError("conjugation:shear needs a unital algebra")
    u = algebra.unit_coords.copy()
    for k in range(algebra.dim):
        candidate = u.copy()
        candidate[k] += 1.0
        try:
            return conjugation_map(algebra, candidate)
        except DerivlabError:
            continue
    raise DerivlabError("no invertible shear found")


_KEPT_TWISTS = {"id": identity_map, "conjugation:shear": _shear}  # twists kept on the algebra


@dataclass
class PerturbedExperiment:
    """The setup extract, hypotheses, roundtrip and sweep rows share: the
    base derivation d0 is P v / |P v| (else zero) for the projection P onto
    the derivation space into the regular bimodule extended by one
    zero-action direction and the fixed map v keyed "base-derivation";
    control is the requested one, else the maps' own. d0's map is kept on
    that module per pair of twists kept on the algebra."""

    algebra: FiniteAlgebra
    module: Bimodule
    sigma: LinearMap
    tau: LinearMap
    d0: DerivationTriple
    spec: PerturbationSpec
    maps: PerturbedMaps
    control: ControlFunction

    @staticmethod
    def perturbation(config: ExperimentConfig) -> PerturbationSpec:
        """The configured perturbation, else annihilator noise of size 1e-3."""
        if config.perturbation is None:
            return PerturbationSpec(mode="annihilator", epsilon=1e-3, seed=config.seed)
        return PerturbationSpec.from_dict(config.perturbation)

    @classmethod
    def build(cls, config: ExperimentConfig) -> "PerturbedExperiment":
        algebra = _resolve_algebra(config.fixture)
        module, ann_basis = extend_with_annihilator(regular_bimodule(algebra))
        sigma = _resolve_endomorphism(algebra, config.sigma)
        tau = _resolve_endomorphism(algebra, config.tau)
        def base() -> LinearMap:
            space = derivation_space(algebra, module, sigma, tau)
            d = space.unit_projection("base-derivation").reshape(space.map_shape)
            return LinearMap(d, algebra, module)

        named = {config.sigma, config.tau} <= _KEPT_TWISTS.keys()
        key = ("base derivation", config.sigma, config.tau)
        d0 = DerivationTriple(kept(module, key, base) if named else base(), sigma, tau)
        spec = cls.perturbation(config)
        if spec.mode == "annihilator":
            maps = make_annihilator_perturbation(d0, spec, ann_basis)
        else:
            maps = make_clamped_perturbation(d0, spec)
        control = maps.control if config.control is None else control_from_dict(config.control)
        return cls(algebra, module, sigma, tau, d0, spec, maps, control)

    def outputs(self, **entries) -> dict:
        """The report's perturbation and control entries plus the given ones."""
        return {"perturbation": self.spec.to_dict(), "control": self.control.to_dict(),
                **entries}


def _pipeline_extract(config: ExperimentConfig) -> tuple[dict, int]:
    exp = PerturbedExperiment.build(config)
    maps = exp.maps
    # the generator's own control certifies the iteration; the requested
    # control is the envelope the stability bound is verified against
    # (the extracted limit is unique, so the choice cannot change it)
    extraction = extract_triple(maps.f, maps.g_sigma, maps.g_tau, maps.control, seed=config.seed)
    stability = verify_stability_bound(
        maps.f, extraction.d.limit, exp.control, samples=config.samples, seed=config.seed
    )
    outputs = exp.outputs(
        extraction_control=maps.control.to_dict(),
        extraction=extraction.to_dict(),
        stability=stability.to_dict(),
    )
    return outputs, EXIT_OK if stability.satisfied else EXIT_UNSATISFIED


def _pipeline_hypotheses(config: ExperimentConfig) -> tuple[dict, int]:
    exp = PerturbedExperiment.build(config)
    report = verify_hypotheses(
        exp.maps.f, exp.maps.g_sigma, exp.maps.g_tau, exp.control,
        lambda_mode=config.lambda_mode,
        samples=config.samples,
        seed=config.seed,
    )
    outputs = exp.outputs(hypotheses=report.to_dict())
    return outputs, EXIT_OK if report.verdict == "satisfied" else EXIT_UNSATISFIED


def _pipeline_verdict(config: ExperimentConfig) -> tuple[dict, int]:
    algebra = _resolve_algebra(config.fixture)
    module = regular_bimodule(algebra)
    sigma = _resolve_endomorphism(algebra, config.sigma)
    tau = _resolve_endomorphism(algebra, config.tau)
    decide = is_amenable if config.pipeline == "amenability" else is_contractible
    report = decide(algebra, module, sigma, tau)
    if report.verdict == VERDICT_INDETERMINATE:
        code = EXIT_INDETERMINATE
    else:
        code = EXIT_OK if report.h1_vanishes else EXIT_UNSATISFIED
    return {report.kind: report.to_dict()}, code


def _pipeline_roundtrip(config: ExperimentConfig) -> tuple[dict, int]:
    exp = PerturbedExperiment.build(config)
    result = approx_contractibility_roundtrip(
        exp.maps.f, exp.control, exp.algebra, exp.module, exp.sigma, exp.tau,
        samples=config.samples, seed=config.seed,
    )
    outputs = exp.outputs(roundtrip=result.to_dict())
    return outputs, EXIT_OK if result.feasible else EXIT_UNSATISFIED


_PIPELINE_IMPL = {
    "extract": _pipeline_extract,
    "hypotheses": _pipeline_hypotheses,
    "contractibility": _pipeline_verdict,
    "amenability": _pipeline_verdict,
    "roundtrip": _pipeline_roundtrip,
}


def run(config: ExperimentConfig) -> RunRecord:
    """Execute one pipeline and return the record (not yet written)."""
    config.validate()
    start = time.perf_counter()
    outputs, code = _PIPELINE_IMPL[config.pipeline](config)
    record = RunRecord(config, outputs, code, wall_time=time.perf_counter() - start)
    return record


def write_report(record: RunRecord, out: str | None) -> None:
    payload = record.report_bytes()
    if out is None or out == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(payload)


# --- parameter sweeps --------------------------------------------------------

def _set_dotted(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        if node.get(key) is None:
            node[key] = {}
        node = node[key]
        if not isinstance(node, dict):
            raise DerivlabError(f"grid key {dotted!r} passes through {key!r}, which is "
                                "not a JSON object")
    node[keys[-1]] = value


def sweep(template: ExperimentConfig, grid: dict[str, list]) -> str:
    """Run the extract pipeline over a parameter grid; returns CSV text.

    One row per grid point in deterministic order (sorted keys, row-major
    value order): the parameters, the realized worst |f(a) - d(a)| over the
    row's unit-sphere samples, the largest summed control of the configured
    control over the same samples, the deepest doubling iteration, the
    number of those samples whose error exceeds their own summed control,
    and a status column.
    Rows that fail keep the sweep going and record the error.
    """
    if not isinstance(grid, dict):
        raise DerivlabError(f"sweep grid must be a JSON object, got {grid!r}")
    if not grid:
        raise DerivlabError("sweep needs a nonempty parameter grid")
    for key, values in grid.items():
        if key.split(".")[0] not in ExperimentConfig.__dataclass_fields__:
            raise DerivlabError(f"unknown grid key {key!r}")
        if not isinstance(values, list):
            raise DerivlabError(f"grid values for {key!r} must be a list, got {values!r}")
    if template.pipeline != "extract":
        raise DerivlabError("sweep supports the extract pipeline")
    keys = sorted(grid)
    columns = keys + ["max_error", "envelope", "max_iterations", "violations", "status"]
    base = json.loads(json.dumps(template.semantic_dict()))
    # materialize defaults so dotted overrides have a document to land in
    if base.get("perturbation") is None and any(k.startswith("perturbation.") for k in keys):
        base["perturbation"] = PerturbedExperiment.perturbation(template).to_dict()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["config_hash", template.hash()])
    writer.writerow(columns)
    for values in itertools.product(*(grid[k] for k in keys)):
        doc = json.loads(json.dumps(base))
        for key, value in zip(keys, values):
            _set_dotted(doc, key, value)
        row_config = ExperimentConfig(**doc)
        try:
            outputs, _ = _sweep_point(row_config)
            writer.writerow(
                [repr(v) for v in values]
                + [
                    repr(outputs["max_error"]),
                    repr(outputs["envelope"]),
                    outputs["max_iterations"],
                    outputs["violations"],
                    "ok",
                ]
            )
        except DerivlabError as exc:
            writer.writerow(
                [repr(v) for v in values] + ["", "", "", "", f"error: {exc}"]
            )
    return buffer.getvalue()


def _sweep_point(config: ExperimentConfig) -> tuple[dict, int]:
    """Extract once and summarize the bound on unit-norm samples."""
    config.validate()
    exp = PerturbedExperiment.build(config)
    report = extract_additive(exp.maps.f, exp.maps.control, seed=config.seed)
    points = sphere_rows(exp.algebra, generator(config.seed, "sweep-bound"), config.samples)
    lhs, rhs = sampled_envelope(exp.maps.f, report.limit, points, exp.control)
    return {
        "max_error": float(np.max(lhs, initial=0.0)),
        "envelope": float(np.max(rhs, initial=0.0)),
        "max_iterations": int(max(report.per_basis_iterations, default=0)),
        "violations": int(np.count_nonzero(lhs > rhs + 1e-12)),
    }, EXIT_OK


# --- argument handling -------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for unsatisfied verdicts; usage problems are
    # plain errors (exit 1), routed through main's handler
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    exit_codes = ("exit codes: 0 satisfied, feasible or H^1 vanishes; 1 error; 2 violated, "
                  "infeasible or H^1 nonzero; 3 indeterminate verdict (a rank margin "
                  "inside the band around the cutoff)")
    parser = _Parser(
        prog="derivlab",
        description="Twisted-derivation experiments: extraction, stability, verdicts.",
        epilog=exit_codes,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--fixture", help="registry name (matrix:n, dual-numbers, ...) or document path")
        p.add_argument("--pipeline", choices=PIPELINES)
        p.add_argument("--sigma", help="endomorphism: id | conjugation:shear | "
                       "conjugation:<coords.json> | file:<matrix.json>")
        p.add_argument("--tau", help="endomorphism, same grammar as --sigma")
        p.add_argument("--control", help="inline JSON control document")
        p.add_argument("--perturb", help="inline JSON perturbation document")
        p.add_argument("--seed", type=int, help=f"default from ${SEED_ENV_VAR}, else 0")
        p.add_argument("--samples", type=int)
        p.add_argument("--lambda-mode", choices=("full", "one-i"), dest="lambda_mode")
        p.add_argument("--out", help="report path (default stdout)")

    run_p = sub.add_parser("run", help="execute one pipeline", epilog=exit_codes)
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="run the extract pipeline over a grid")
    add_common(sweep_p)
    sweep_p.add_argument(
        "--grid",
        help="inline JSON grid, e.g. '{\"perturbation.epsilon\": [0.1, 0.01]}'",
    )
    return parser


def _config_from_args(args) -> ExperimentConfig:
    doc: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DerivlabError(f"config file {args.config} must hold a JSON object")
        doc.update(loaded)
    doc.pop("sweep", None)

    def flag(name, parse=None):
        value = getattr(args, name, None)
        if value is not None:
            doc[name] = parse(value) if parse else value

    flag("fixture")
    flag("pipeline")
    flag("sigma")
    flag("tau")
    flag("control", json.loads)
    flag("samples")
    flag("lambda_mode")
    flag("out")
    if getattr(args, "perturb", None) is not None:
        doc["perturbation"] = json.loads(args.perturb)
    if args.seed is not None:
        doc["seed"] = args.seed
    elif "seed" not in doc:
        doc["seed"] = int(os.environ.get(SEED_ENV_VAR, "0"))
    if isinstance(doc.get("fixture"), str) and doc["fixture"].endswith(".json"):
        with open(doc["fixture"], encoding="utf-8") as fh:
            doc["fixture"] = json.load(fh)
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(doc) - known
    if unknown:
        raise DerivlabError(f"unknown config keys: {sorted(unknown)}")
    # main opens out for run and sweep alike; an int would open a file descriptor
    if not isinstance(doc.get("out"), (str, type(None))):
        raise DerivlabError(f"out must be a string or null, got {doc['out']!r}")
    return ExperimentConfig(**doc)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            config = _config_from_args(args)
            record = run(config)
            write_report(record, config.out)
            print(f"wall_time={record.wall_time:.3f}s", file=sys.stderr)
            return record.exit_code
        if args.command == "sweep":
            config = _config_from_args(args)
            grid = None
            if args.grid:
                grid = json.loads(args.grid)
            elif args.config:
                with open(args.config, encoding="utf-8") as fh:
                    entry = json.load(fh).get("sweep") or {}
                if not isinstance(entry, dict):
                    raise DerivlabError("the config file's sweep entry must be a JSON object")
                grid = entry.get("grid")
            if not grid:
                raise DerivlabError(
                    "sweep needs --grid or a config file with a sweep.grid entry"
                )
            text = sweep(config, grid)
            if config.out and config.out != "-":
                with open(config.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return EXIT_OK
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (DerivlabError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
