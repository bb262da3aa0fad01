"""Print one `label sha256` line per derivlab report, to compare two trees.

Every pipeline runs on each fixture below with the twists `id`/`id` and,
where the algebra is unital, `conjugation:shear`/`id` (sigma is not tau)
and `conjugation:shear`/`conjugation:shear` (sigma is tau); one sweep and
one clamped `hypotheses` run follow. A run that raises a DerivlabError is
digested by the error line the CLI prints for it. The derivlab imported is
the one on the path, so two trees give byte-identical reports at a seed
exactly when the outputs are equal:

    diff <(PYTHONPATH=../parent/src python tests/report_digests.py --seed 1) \\
         <(PYTHONPATH=src python tests/report_digests.py --seed 1)

pytest does not collect this file: its name does not start with `test_`.
"""
from __future__ import annotations

import argparse
import hashlib

from derivlab.cli import PIPELINES, ExperimentConfig, run, sweep
from derivlab.errors import DerivlabError
from derivlab.fixtures import get_algebra

FIXTURES = ("matrix:2", "matrix:3", "upper-triangular:3", "dual-numbers", "zero-product:4")
SHEAR = "conjugation:shear"
SWEEP_GRID = {"perturbation.epsilon": [0.01, 0.001]}
CLAMPED = {"mode": "clamped", "control": {"kind": "constant", "alpha": 0.1},
           "region_radius": 1.0, "cap": 0.002}


def cases(seed: int):
    """(label, function returning the report's bytes), in a fixed order."""
    for fixture in FIXTURES:
        twists = [("id", "id")]
        if get_algebra(fixture).unit_coords is not None:
            twists += [(SHEAR, "id"), (SHEAR, SHEAR)]
        for pipeline in PIPELINES:
            for sigma, tau in twists:
                config = ExperimentConfig(fixture=fixture, pipeline=pipeline,
                                          sigma=sigma, tau=tau, seed=seed)
                yield f"{fixture}/{pipeline}/{sigma}/{tau}", lambda c=config: run(c).report_bytes()
    template = ExperimentConfig(fixture="matrix:2", seed=seed)
    yield "matrix:2/sweep", lambda: sweep(template, SWEEP_GRID).encode()
    clamped = ExperimentConfig(fixture="matrix:2", pipeline="hypotheses", seed=seed,
                               perturbation=dict(CLAMPED, seed=seed))
    yield "matrix:2/hypotheses/clamped", lambda: run(clamped).report_bytes()


def digest(make) -> str:
    try:
        payload = make()
    except DerivlabError as exc:
        payload = f"error: {type(exc).__name__}: {exc}\n".encode()
    return hashlib.sha256(payload).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for label, make in cases(args.seed):
        print(label, digest(make), flush=True)


if __name__ == "__main__":
    main()
