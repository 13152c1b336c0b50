"""Run the benchmark once per seed and print each metric's median and
quartile spread (IQR / median), as used to judge whether a metric is steady:

    python3 perfbench/sweep.py --workload be_pipeline --seeds 1-10 [--seconds 20] [--trace 0]

Runs are sequential; run nothing else on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            capture_output=True, text=True, check=True, timeout=600,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        row = {name: metric["value"] for name, metric in result["metrics"].items()}
        print(json.dumps({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], **row}), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            q1, _, q3 = statistics.quantiles(series, n=4)
            print(f"{name}: median {median:.6g} spread {(q3 - q1) / median:.4f} over {len(series)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
