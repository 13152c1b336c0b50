#!/usr/bin/env python3
"""Where the time of a pooled `pafit simulate` goes, besides the replicas.

With W workers, `cmd_simulate` runs the first ceil(replicas / W) replicas
in the calling process and the rest on a `multiprocessing.Pool(W - 1)`;
each replica writes its own files, and the pool's workers pickle their
replicas' snapshots back. This script times those parts separately, each
over --repeats runs (median, min-max):

  pool     start-up and tear-down of an idle Pool(workers)
  pickle   size and dumps+loads time of one replica's result
  alone    one replica in a pool of one: the pool's wall time and the
           replica's own wall and process CPU time inside its worker
  pooled   `workers` replicas as `cmd_simulate` runs them: the caller's
           share here and the rest in a Pool(workers - 1)
  spin     a pure-Python loop alone, then `workers` copies at once, which
           shows what two busy processes cost each other on this machine
  marks    one replica's fitness draws, the `measures.quantile` call of
           `simulator.run`: the variant of `_urn.c`'s compiled replay that
           this process selected, then the call through each variant this
           CPU runs and through the fallback bisection that runs without a
           compiler (80 numpy passes), in wall time, ns a draw and minor
           page faults (the same code on a discrete law, which needs no
           replay)

A replica's process CPU time counts every thread of its worker, so a CPU
time above its wall time shows a native thread pool (such as a BLAS
library's) busy beside the replica.

    PYTHONPATH=src python scripts/pool_cost.py --fitness cubic --n 200000
"""

import argparse
import multiprocessing
import pickle
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

from pafit import cli, measures, quantile_replay, simulator
from pafit.config import ExperimentConfig

FITNESS = {
    "two_point": ({"type": "discrete", "points": [[0.5, 0.5], [1.0, 0.5]]}, 2.0),
    "cubic": ({"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]}, 1.0),
}


def _idle(_):
    return None


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # all threads of this process
    return usage.ru_utime + usage.ru_stime


def _timed_replica(job):
    cpu, start = _cpu_seconds(), time.perf_counter()
    result = cli._replica_worker(job)
    return time.perf_counter() - start, _cpu_seconds() - cpu, result


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


def _shared(jobs, fn, workers: int):
    """Run ``jobs`` the way ``cmd_simulate`` does: the first
    ``ceil(len(jobs) / workers)`` here, the rest in a Pool(workers - 1)."""
    start = time.perf_counter()
    share = -(-len(jobs) // workers)
    if share == len(jobs):
        results = [fn(job) for job in jobs]
    else:
        with multiprocessing.Pool(workers - 1) as pool:
            rest = pool.map_async(fn, jobs[share:])
            results = [fn(job) for job in jobs[:share]]
            results += rest.get()
    return time.perf_counter() - start, results


def _marks(config: dict, variant: str):
    """Wall time and minor page faults of replica 0's ``quantile`` call,
    with its replay through ``variant`` of ``_urn.c``, or through the
    fallback bisection for "fallback"."""
    config = ExperimentConfig.from_dict(config)
    dist = config.distribution()
    u = simulator.ReplicaStreams(config.base_seed).fitness.random(config.n_target - 1)
    if variant == "fallback":
        route = mock.patch.object(simulator, "_compiled_urn", lambda: None)
    else:
        route = mock.patch.object(
            quantile_replay.BisectionReplay, "__call__", lambda self, t: self.compiled(t, variant)
        )
    with route:
        faults, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        measures.quantile(dist, u)
        seconds = time.perf_counter() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


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
    out = tempfile.TemporaryDirectory(prefix="pool_cost-")  # the replicas' files
    jobs = [(config, r, Path(out.name)) for r in range(args.workers)]
    print(f"{args.fitness}, lambda {lam}, {args.workers} x {args.n} vertices, {args.repeats} repeats")

    idle = [_pooled(range(args.workers), _idle, args.workers)[0] for _ in range(args.repeats)]
    print(f"  pool start+teardown   {describe(idle)}")

    *_, result = _timed_replica(jobs[0])
    blob = pickle.dumps(result)
    start = time.perf_counter()
    for _ in range(args.repeats):
        pickle.loads(pickle.dumps(result))
    per_copy = (time.perf_counter() - start) / args.repeats
    print(f"  pickle                {len(blob) / 1e3:.1f} kB per replica, dumps+loads {per_copy * 1e3:.2f} ms")

    alone_wall, alone_self, alone_cpu, pooled_wall, pooled_self, pooled_cpu = [], [], [], [], [], []
    for _ in range(args.repeats):
        wall, results = _pooled(jobs[:1], _timed_replica, 1)
        alone_wall.append(wall)
        alone_self.append(results[0][0])
        alone_cpu.append(results[0][1])
        wall, results = _shared(jobs, _timed_replica, args.workers)
        pooled_wall.append(wall)
        pooled_self.extend(seconds for seconds, _, _ in results)
        pooled_cpu.extend(cpu for _, cpu, _ in results)
    print(f"  alone   pool wall     {describe(alone_wall)}, replica {describe(alone_self)},"
          f" CPU {describe(alone_cpu)}")
    print(f"  pooled  wall          {describe(pooled_wall)}, each replica {describe(pooled_self)},"
          f" CPU {describe(pooled_cpu)}")

    spin_alone = [_spin(args.spin) for _ in range(args.repeats)]
    spin_pooled = []
    for _ in range(args.repeats):
        spin_pooled.extend(_pooled([args.spin] * args.workers, _spin, args.workers)[1])
    slowdown = statistics.median(spin_pooled) / statistics.median(spin_alone) - 1.0
    print(f"  spin    alone {describe(spin_alone)}, {args.workers} at once {describe(spin_pooled)}"
          f" ({100 * slowdown:+.0f}%)")

    native = simulator._compiled_urn()  # built before timing
    variants = native.variants if native else ()
    print(f"  marks   selected {variants[-1] if variants else 'none (no compiler)'}")
    routes = [*variants, "fallback"]
    marks = {route: [] for route in routes}
    for _ in range(args.repeats):
        for route in routes:
            marks[route].append(_marks(config, route))
    for route in routes:
        seconds, faults = zip(*marks[route])
        per_draw = statistics.median(seconds) / (args.n - 1) * 1e9
        print(f"  marks   {route:10s} {describe(list(seconds))}, {per_draw:.0f} ns/draw,"
              f" minor faults {statistics.median(faults):.0f} ({min(faults)}-{max(faults)})")
    out.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
