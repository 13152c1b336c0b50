#!/usr/bin/env python3
"""Run one study: theory + replica simulations + comparison into one output
directory.

  fgr  Fit-get-richer: two-point fitness law {0.5, 1.0}, lambda = 2. The
       normalisation limit for this law solves a quadratic, so the run is a
       sharp end-to-end check of the whole pipeline.

  be   Condensation: density 3(1-f)^2, lambda = 1. The phase integral
       int f/(1-f) dmu = 1/2 < lambda, so the limiting impact measure
       carries an atom of mass 1/2 at fitness 1. Finite-size convergence
       towards that atom is extremely slow. The normalisation climbs towards
       theta* = 1 from below (~0.82 at n = 1e6), which the report checks as
       the corridor [a-priori floor, theta*) with a rising trend. The window
       mass on [0.9, 1] stays far from its limit 0.515 (~0.02 at 1e6,
       heavy-tailed over replicas), so the two window criteria fail at desk
       scale and the report's overall verdict is FAIL. docs/DECISIONS.md
       records the measured gap, and scripts/be_ledger.py reproduces it
       (`run OUT` reads this study's output).

    PYTHONPATH=src python scripts/run_study.py fgr --replicas 4
    PYTHONPATH=src python scripts/run_study.py be --n 200000
"""

import argparse
import json
import sys
from pathlib import Path

from pafit import cli

STUDIES = {
    "fgr": {
        "lambda": 2.0,
        "fitness": {"type": "discrete", "points": [[0.5, 0.5], [1.0, 0.5]]},
        "n": 200_000,
        "replicas": 10,
        "out": "runs/fgr_two_point",
    },
    "be": {
        "lambda": 1.0,
        "fitness": {"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]},
        "n": 1_000_000,
        "replicas": 5,
        "out": "runs/be_cubic",
    },
}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    studies = parser.add_subparsers(dest="study", required=True)
    for name, study in STUDIES.items():
        sub = studies.add_parser(name)
        sub.add_argument("--n", type=int, default=study["n"], help="final graph size")
        sub.add_argument("--replicas", type=int, default=study["replicas"])
        sub.add_argument("--seed", type=int, default=20240810)
        sub.add_argument("--out", default=study["out"])
        sub.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()
    study = STUDIES[args.study]

    config = {
        "schema_version": 1,
        "model": {"type": "poisson"},
        "lambda": study["lambda"],
        "fitness": study["fitness"],
        "n_target": args.n,
        "replicas": args.replicas,
        "base_seed": args.seed,
        "bins": 20,
        "max_tracked_impact": 10,
        "epsilon": 0.1,
        "out_dir": args.out,
    }
    Path(args.out).mkdir(parents=True, exist_ok=True)
    config_path = Path(args.out) / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    for command in (
        ["theory", "--config", str(config_path)],
        ["simulate", "--config", str(config_path)]
        + (["--threads", str(args.threads)] if args.threads else []),
        ["compare", "--config", str(config_path)],
    ):
        rc = cli.main(command)
        if rc not in (0, 1):
            return rc
    print(f"outputs under {args.out}/ (theory/, sim/, compare/report.json)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
