"""Benchmark of pafit's public Python API (``pafit.cli``).

Run from the repository root:

    python3 perfbench/run.py --workload fgr_pipeline --seed 1 --seconds 50 --trace 0

Each workload is one closed loop of API calls from this process: the next
call starts when the previous one has returned, and simulation passes use a
pool of at most ``WORKERS`` processes. A run repeats whole passes of the
workload for ``--seconds`` and reports medians over passes. Every call's
output is checked; a call that raises or fails its check counts as failed.
Outputs go to a temporary directory under ``.bench_tmp/`` in the working
tree, which is removed at the end.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` cycles through an
untraced pass with ``WORKERS`` workers, an untraced pass with one worker and
a traced pass with one worker (spans stay in one process), and prints the
per-layer metrics. The last line of standard output is one JSON object.

Workloads (why each was chosen):

* ``fgr_pipeline`` -- theory, simulate, compare on the two-point law
  {0.5, 1.0}, lambda = 2: the Fenwick growth loop dominates.
* ``be_pipeline`` -- the same on the density 3(1-f)^2, lambda = 1
  (condensation phase): fitness inverse-CDF bisection is a large share and
  lambda = 1 halves the edges per vertex, so per-vertex and per-edge costs
  come apart.

``kernel_check`` (the attachment-contract suite) is not a workload: its
statistical verdicts false-fail on a few percent of seeds (see README.md).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from benchlib import Tracer, outermost, self_times, tail_percentile, tree_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}

WORKERS = 2          # pool size of untraced simulation passes (nproc of the reference machine)
REPLICAS = 2
N_VERTICES = 200_000
MIN_PASSES = 3
MIN_TRACE_CYCLES = 2
SETUP_REPEATS = 5
# root of 2 t^2 - 3.75 t + 1.5 = 0: theta* of the two-point law at lambda = 2
FGR_THETA_STAR = (3.75 + math.sqrt(3.75**2 - 12.0)) / 4.0
FGR_CRITERIA = 6
BE_GATED = "gamma_total_mass_3se"

TWO_POINT = {"type": "discrete", "points": [[0.5, 0.5], [1.0, 0.5]]}
CUBIC_GAP = {"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]}
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])

SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import scipy.integrate, scipy.special, scipy.stats
from pafit import cli
from pafit.config import ExperimentConfig
ExperimentConfig.from_dict(json.loads(sys.argv[2]))
"""


if not (SRC / "pafit" / "__init__.py").is_file():
    sys.exit(f"error: no pafit sources under {SRC}")
sys.path.insert(0, str(SRC))

import pafit  # noqa: E402  (imported from this tree's sources only)
from pafit import cli, empirics, limit_theory, measures, simulator  # noqa: E402
from pafit.config import ExperimentConfig  # noqa: E402

if Path(pafit.__file__).resolve().parent != (SRC / "pafit").resolve():
    sys.exit(f"error: pafit imported from {pafit.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def pipeline_spec(fitness: dict, lam: float, seed: int) -> dict:
    return {
        "schema_version": 1,
        "model": {"type": "poisson"},
        "lambda": lam,
        "fitness": fitness,
        "n_target": N_VERTICES,
        "replicas": REPLICAS,
        "base_seed": seed,
        "bins": 20,
        "max_tracked_impact": 10,
        "epsilon": 0.1,
        "out_dir": ".",
    }


def workload_spec(workload: str, seed: int) -> dict:
    """The config the program sees; the seed becomes its ``base_seed``."""
    if workload == "fgr_pipeline":
        return pipeline_spec(TWO_POINT, 2.0, seed)
    return pipeline_spec(CUBIC_GAP, 1.0, seed)


# ---------------------------------------------------------------------------
# calls and their checks
# ---------------------------------------------------------------------------


@dataclass
class Ledger:
    """Attempted and failed API calls; a failed check counts as a failed call."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def call(self, label: str, fn, check):
        """Time ``fn()``; run ``check(result)`` (None or a problem) untimed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failing call is counted and the run goes on
            elapsed = time.perf_counter() - start
            self.fail(label, traceback.format_exc())
            return None, elapsed
        elapsed = time.perf_counter() - start
        problem = check(result)
        if problem:
            self.fail(label, problem)
        return result, elapsed

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {problem}")


def _no_check(_result) -> None:
    return None


def _check_fgr_theory(payload) -> str | None:
    if payload["phase"] != "FitGetRicher":
        return f"phase {payload['phase']}, expected FitGetRicher"
    if abs(payload["theta_star"] - FGR_THETA_STAR) > 1e-8:
        return f"theta_star {payload['theta_star']!r} != closed-form root {FGR_THETA_STAR!r}"
    return None


def _check_fgr_compare(report) -> str | None:
    failing = [c["name"] for c in report["criteria"] if not c["passed"]]
    if failing or len(report["criteria"]) != FGR_CRITERIA:
        return f"{len(report['criteria'])} criteria, failing: {failing}"
    return None


def _check_be_theory(payload) -> str | None:
    if payload["phase"] != "BoseEinstein":
        return f"phase {payload['phase']}, expected BoseEinstein"
    return None


def _check_be_compare(report) -> str | None:
    gated = [c for c in report["criteria"] if c["name"] == BE_GATED]
    if len(gated) != 1 or not gated[0]["passed"]:
        return f"{BE_GATED} did not pass: {gated}"
    return None


@dataclass
class Pass:
    wall_s: float
    call_s: dict[str, float]
    digest: str
    work: float            # simulated vertices, all replicas
    notes: list[str]


def run_pass(workload: str, config, out: Path, workers: int, ledger: Ledger) -> Pass:
    call_s: dict[str, float] = {}
    notes: list[str] = []
    fgr = workload == "fgr_pipeline"
    _, call_s["theory"] = ledger.call(
        "theory", lambda: cli.cmd_theory(config, out_dir=out),
        _check_fgr_theory if fgr else _check_be_theory,
    )
    _, call_s["simulate"] = ledger.call(
        "simulate", lambda: cli.cmd_simulate(config, out_dir=out, threads=workers), _no_check
    )
    report, call_s["compare"] = ledger.call(
        "compare", lambda: cli.cmd_compare(config, out_dir=out),
        _check_fgr_compare if fgr else _check_be_compare,
    )
    if report is not None and not fgr:
        notes = [
            f"expected red {c['name']}: passed={c['passed']} measured={c['measured']!r}"
            for c in report["criteria"]
            if c["name"] != BE_GATED
        ]
    tree = out / "sim"
    digest = tree_digest(tree) if tree.exists() else ""
    return Pass(sum(call_s.values()), call_s, digest, config.n_target * config.replicas, notes)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def _bytes_written(_pre, args, _kwargs, _result) -> dict:
    return {"bytes": Path(args[0]).stat().st_size}


def _run_before(args, _kwargs):
    state = args[0]
    return state.n, state.total_impact - state.n


def _run_after(pre, _args, _kwargs, snapshots) -> dict:
    n0, edges0 = pre
    last = snapshots[-1]
    return {
        "vertices": last.n - n0,
        "edges": last.total_impact - last.n - edges0,
        "checkpoints": len(snapshots),
    }


def install_probes(tracer: Tracer) -> None:
    """Spans around the public entry points of each module, at every binding."""

    def add(owner, attr, name, **hooks):
        tracer.install(owner, attr, name, package="pafit", **hooks)

    add(measures, "quantile", "measures.quantile",
        after=lambda _p, _a, _k, result: {"draws": int(getattr(result, "size", 1))})
    add(measures, "integrate", "measures.integrate")
    add(limit_theory, "summarize", "limit_theory.summarize")
    add(limit_theory.LimitMeasure, "bin_masses", "limit_theory.bin_masses")
    add(simulator, "new_graph", "simulator.new_graph")
    add(simulator, "run", "simulator.run", before=_run_before, after=_run_after)
    add(empirics, "snapshot", "empirics.snapshot")
    add(empirics, "aggregate", "empirics.aggregate")
    for name in ("cmd_theory", "cmd_simulate", "cmd_compare", "_replica_worker"):
        add(cli, name, f"cli.{name}")
    for name in ("write_csv", "write_json"):
        add(cli, name, f"cli.{name}", after=_bytes_written)


def layer_metrics(spans, pool_simulate_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass; ``pool_simulate_s`` is the
    untraced simulate time with ``WORKERS`` workers."""

    def inclusive(name):
        return sum(s.duration for s in outermost(spans, name))

    def calls(name):
        return len(outermost(spans, name))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in outermost(spans, name))

    selfs = self_times(spans)
    run_self = sum(t for s, t in zip(spans, selfs) if s.name == "simulator.run")
    draws = count("measures.quantile", "draws")
    edges = count("simulator.run", "edges")
    vertices = count("simulator.run", "vertices")
    return {
        "measures.quantile_s": inclusive("measures.quantile"),
        "measures.quantile_draws": draws,
        "measures.quantile_ns_per_draw": 1e9 * inclusive("measures.quantile") / draws if draws else 0.0,
        "measures.integrate_s": inclusive("measures.integrate"),
        "measures.integrate_calls": calls("measures.integrate"),
        "limit_theory.summarize_s": inclusive("limit_theory.summarize"),
        "limit_theory.bin_masses_s": inclusive("limit_theory.bin_masses"),
        "limit_theory.bin_masses_calls": calls("limit_theory.bin_masses"),
        "simulator.run_self_s": run_self,
        "simulator.edges": edges,
        "simulator.checkpoints": count("simulator.run", "checkpoints"),
        "simulator.us_per_edge": 1e6 * run_self / edges if edges else 0.0,
        "simulator.us_per_vertex": 1e6 * run_self / vertices if vertices else 0.0,
        "empirics.snapshot_s": inclusive("empirics.snapshot"),
        "empirics.snapshot_calls": calls("empirics.snapshot"),
        "empirics.aggregate_s": inclusive("empirics.aggregate"),
        "cli.theory_s": inclusive("cli.cmd_theory"),
        "cli.simulate_s": inclusive("cli.cmd_simulate"),
        "cli.compare_s": inclusive("cli.cmd_compare"),
        "cli.write_s": inclusive("cli.write_csv") + inclusive("cli.write_json"),
        "cli.bytes_written": count("cli.write_csv", "bytes") + count("cli.write_json", "bytes"),
        "cli.pool_efficiency": inclusive("cli._replica_worker") / (WORKERS * pool_simulate_s),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def measure_setup(spec: dict) -> float:
    """One fresh-process set-up: interpreter start, imports, config validation."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(spec)],
        check=True, timeout=120,
    )
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def describe(samples: list[float]) -> str:
    _, n, p, value = tail_percentile(samples)
    tail = f", p{p:g} {value:.4f}" if p is not None else ", too few for a tail percentile"
    return f"median of {n}{tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = workload_spec(args.workload, args.seed)
    config = ExperimentConfig.from_dict(spec)
    ledger = Ledger()
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    counter = itertools.count()

    def one_pass(workers: int) -> Pass:
        out = scratch / f"pass_{next(counter):04d}"
        try:
            return run_pass(args.workload, config, out, workers, ledger)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    try:
        if args.trace:
            result = traced_run(args, one_pass)
        else:
            result = untraced_run(args, one_pass, spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    passes, metrics, lines = result
    declared = DECLARED["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in declared):
        raise RuntimeError("reported metrics differ from those BENCHMARK.json declares")
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        ledger.fail("determinism", f"{len(digests)} distinct output-tree digests over {len(passes)} passes")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{ledger.attempted} calls, {ledger.failed} failed")
    for line in lines:
        print(line)
    print(f"  failed_ratio        {ledger.failed / ledger.attempted:.4f} "
          f"({ledger.failed} of {ledger.attempted} calls)")
    print(f"  output digest       {' '.join(sorted(digests))}")
    for note in passes[-1].notes:
        print(note)
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced_run(args, one_pass, spec: dict):
    passes: list[Pass] = []
    setup: list[float] = []
    start = time.perf_counter()
    # Set-ups alternate with passes so that both sample the same stretch of
    # machine speed; a pass starts only while it should end within the run.
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + passes[-1].wall_s <= args.seconds
    ):
        if len(setup) < SETUP_REPEATS:
            setup.append(measure_setup(spec))
        passes.append(one_pass(WORKERS))
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(spec))
    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    work = statistics.median(p.work for p in passes)
    rate = work / wall
    metrics = {
        "wall_s": (wall, UNITS["wall_s"]),
        "setup_s": (statistics.median(setup), UNITS["setup_s"]),
        "peak_rss_mb": (peak_rss_mb(), UNITS["peak_rss_mb"]),
    }
    lines = [
        f"  setup_s             {metrics['setup_s'][0]:.4f} s ({describe(setup)})",
        f"  wall_s              {wall:.4f} s ({describe(walls)})",
        f"  vertices_per_s      {rate:.1f} 1/s",
        f"  peak_rss_mb         {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    return passes, metrics, lines


def write_spans(path: Path, traced) -> None:
    path.parent.mkdir(exist_ok=True)
    rows = [
        {"pass": index, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         "counts": s.counts}
        for index, (_, spans) in enumerate(traced)
        for s in spans
    ]
    path.write_text(json.dumps(rows) + "\n")


def traced_run(args, one_pass):
    tracer = Tracer()
    untraced_pool: list[Pass] = []
    untraced_serial: list[Pass] = []
    traced: list[tuple[Pass, list]] = []
    start = time.perf_counter()
    cycle_s = 0.0
    while len(traced) < MIN_TRACE_CYCLES or time.perf_counter() - start + cycle_s <= args.seconds:
        cycle_start = time.perf_counter()
        untraced_pool.append(one_pass(WORKERS))
        untraced_serial.append(one_pass(1))
        tracer.reset()
        install_probes(tracer)
        try:
            done = one_pass(1)
        finally:
            tracer.uninstall()
        traced.append((done, tracer.spans))
        cycle_s = time.perf_counter() - cycle_start
    write_spans(ROOT / ".bench_spans" / f"{args.workload}_seed{args.seed}.json", traced)
    pool_sim = statistics.median(p.call_s["simulate"] for p in untraced_pool)
    per_pass = [layer_metrics(spans, pool_sim) for _, spans in traced]
    layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    layers["trace.overhead_s"] = (
        statistics.median(p.wall_s for p, _ in traced)
        - statistics.median(p.wall_s for p in untraced_serial)
    )
    metrics = {name: (value, UNITS[name]) for name, value in layers.items()}
    lines = [f"  {name:<32} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    passes = untraced_pool + untraced_serial + [p for p, _ in traced]
    return passes, metrics, lines


if __name__ == "__main__":
    sys.exit(main())
