#!/usr/bin/env python3
"""Where the time of a pooled `pafit simulate` goes, besides the replicas.

`cmd_simulate` maps its replicas over a `multiprocessing.Pool` and pickles
each replica's snapshots back to the parent. This script times those parts
separately, each over --repeats runs (median, min-max):

  pool     start-up and tear-down of an idle Pool(workers)
  pickle   size and dumps+loads time of one replica's result
  alone    one replica in a pool of one: the pool's wall time and the
           replica's own time inside its worker
  pooled   `workers` replicas at once in a pool of `workers`
  spin     a pure-Python loop alone, then `workers` copies at once, which
           shows what two busy processes cost each other on this machine

    PYTHONPATH=src python scripts/pool_cost.py --fitness cubic --n 200000
"""

import argparse
import multiprocessing
import pickle
import statistics
import sys
import time

from pafit import cli

FITNESS = {
    "two_point": ({"type": "discrete", "points": [[0.5, 0.5], [1.0, 0.5]]}, 2.0),
    "cubic": ({"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]}, 1.0),
}


def _idle(_):
    return None


def _timed_replica(job):
    start = time.perf_counter()
    result = cli._replica_worker(job)
    return time.perf_counter() - start, result


def _spin(loops: int) -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i
    return time.perf_counter() - start


def _pooled(jobs, fn, workers: int):
    start = time.perf_counter()
    with multiprocessing.Pool(workers) as pool:
        results = pool.map(fn, jobs)
    return time.perf_counter() - start, results


def describe(samples: list[float], unit: str = "s") -> str:
    return f"{statistics.median(samples):.4f} {unit} ({min(samples):.4f}-{max(samples):.4f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--fitness", choices=sorted(FITNESS), default="cubic")
    parser.add_argument("--n", type=int, default=200_000)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--spin", type=int, default=5_000_000, help="loop length of the spin test")
    args = parser.parse_args()

    fitness, lam = FITNESS[args.fitness]
    config = {
        "schema_version": 1,
        "model": {"type": "poisson"},
        "lambda": lam,
        "fitness": fitness,
        "n_target": args.n,
        "replicas": args.workers,
        "base_seed": args.seed,
        "bins": 20,
        "max_tracked_impact": 10,
        "epsilon": 0.1,
        "out_dir": ".",
    }
    jobs = [(config, r) for r in range(args.workers)]
    print(f"{args.fitness}, lambda {lam}, {args.workers} x {args.n} vertices, {args.repeats} repeats")

    idle = [_pooled(range(args.workers), _idle, args.workers)[0] for _ in range(args.repeats)]
    print(f"  pool start+teardown   {describe(idle)}")

    _, result = _timed_replica(jobs[0])
    blob = pickle.dumps(result)
    start = time.perf_counter()
    for _ in range(args.repeats):
        pickle.loads(pickle.dumps(result))
    per_copy = (time.perf_counter() - start) / args.repeats
    print(f"  pickle                {len(blob) / 1e3:.1f} kB per replica, dumps+loads {per_copy * 1e3:.2f} ms")

    alone_wall, alone_self, pooled_wall, pooled_self = [], [], [], []
    for _ in range(args.repeats):
        wall, results = _pooled(jobs[:1], _timed_replica, 1)
        alone_wall.append(wall)
        alone_self.append(results[0][0])
        wall, results = _pooled(jobs, _timed_replica, args.workers)
        pooled_wall.append(wall)
        pooled_self.extend(seconds for seconds, _ in results)
    print(f"  alone   pool wall     {describe(alone_wall)}, replica {describe(alone_self)}")
    print(f"  pooled  pool wall     {describe(pooled_wall)}, each replica {describe(pooled_self)}")

    spin_alone = [_spin(args.spin) for _ in range(args.repeats)]
    spin_pooled = []
    for _ in range(args.repeats):
        spin_pooled.extend(_pooled([args.spin] * args.workers, _spin, args.workers)[1])
    slowdown = statistics.median(spin_pooled) / statistics.median(spin_alone) - 1.0
    print(f"  spin    alone {describe(spin_alone)}, {args.workers} at once {describe(spin_pooled)}"
          f" ({100 * slowdown:+.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
