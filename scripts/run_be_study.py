#!/usr/bin/env python3
"""Condensation study: density 3(1-f)^2, lambda = 1.

The phase integral int f/(1-f) dmu = 1/2 < lambda, so the limiting impact
measure carries an atom of mass 1/2 at fitness 1. Finite-size convergence
towards that atom is extremely slow. The normalisation climbs towards
theta* = 1 from below (~0.82 at n = 1e6), which the report checks as the
corridor [a-priori floor, theta*) with a rising trend. The window mass on
[0.9, 1] stays far from its limit 0.515 (~0.02 at 1e6, heavy-tailed over
replicas), so the two window criteria fail at desk scale and the report's
overall verdict is FAIL. docs/DECISIONS.md records the measured gap, and
scripts/be_ledger.py reproduces it (`run OUT` reads this script's output).
"""

import argparse
import json
import sys
from pathlib import Path

from pafit import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1_000_000, help="final graph size")
    parser.add_argument("--replicas", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20240810)
    parser.add_argument("--out", default="runs/be_cubic")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()

    config = {
        "schema_version": 1,
        "model": {"type": "poisson"},
        "lambda": 1.0,
        "fitness": {"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]},
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
