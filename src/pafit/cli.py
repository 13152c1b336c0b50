"""Command-line orchestration: theory | simulate | compare | check-kernel.

Every output is a function of (config, code version) alone: replica streams
are derived from (base_seed, replica), replica results come back in replica
order whatever order the workers finish in, JSON is written with sorted
keys, and CSV numbers use full round-trip decimal formatting. Nothing is
written outside the resolved output directory. The output directory comes
from, in increasing precedence: the config's ``out_dir``, the ``PAFIT_OUT``
environment variable, the ``--out`` flag.

``simulate --threads T`` runs on T processes counting the calling one, which
grows the first ``ceil(replicas / T)`` replicas itself; each replica writes
its own files. ``sim/`` is written whole or not at all: it is staged beside
the old one and swapped in when complete, so a rerun leaves no stale file
and a failing run leaves the old ``sim/`` as it was.
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import empirics, limit_theory, measures, simulator
from .config import ConfigError, ExperimentConfig
from .empirics import EmpiricalSnapshot, ReplicaAggregate
from .measures import MeasureError

ENV_OUT = "PAFIT_OUT"
_CSV_CHUNK = 1 << 16


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows``. A numeric array's rows go out a chunk
    of Python numbers at a time, without :func:`_fmt`: ``csv`` writes an
    int with ``str`` and a float with ``repr``, as :func:`_fmt` does."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and np.issubdtype(rows.dtype, np.number):
            for lo in range(0, len(rows), _CSV_CHUNK):
                writer.writerows(rows[lo : lo + _CSV_CHUNK].tolist())
        else:
            for row in rows:
                writer.writerow([_fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def resolve_out_dir(config: ExperimentConfig, flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_OUT)
    if env:
        return Path(env)
    return Path(config.out_dir)


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------


def cmd_theory(config: ExperimentConfig, *, out_dir: Path) -> dict:
    """Write the limit summary (JSON) and plot-ready CSV tables."""
    out = out_dir / "theory"
    dist = config.distribution()
    lam = config.lam
    summary = limit_theory.summarize(dist, lam)
    k_max = config.max_tracked_impact
    pk = [summary.pk(k) for k in range(1, k_max + 1)]
    edges = config.bin_edges()
    gamma_bins = summary.gamma.bin_masses(edges)

    grid = [(j + 0.5) / 200 for j in range(200)]
    density = [summary.gamma.density_at(f) for f in grid]

    payload = {
        "schema_version": 1,
        "lambda": lam,
        "fitness": config.fitness,
        "phase": summary.phase.value,
        "theta_star": summary.theta_star,
        "condensate_mass": summary.condensate_mass,
        "gamma_total_mass": summary.gamma.total_mass(),
        "gamma_atom_at_one": summary.gamma.atom_at_one,
        "pk": pk,
        "gamma_density_samples": [[f, d] for f, d in zip(grid, density)],
    }
    write_json(out / "limit_summary.json", payload)
    write_csv(out / "pk.csv", ["k", "pk"], [(k + 1, v) for k, v in enumerate(pk)])
    write_csv(out / "gamma_density.csv", ["f", "density_factor"], zip(grid, density))
    write_csv(
        out / "gamma_bins.csv",
        ["bin_lo", "bin_hi", "predicted_mass"],
        zip(edges[:-1], edges[1:], gamma_bins),
    )
    gamma_k_rows = []
    for k in range(1, k_max + 1):
        masses = summary.gamma_k(k).bin_masses(edges)
        gamma_k_rows.extend(
            (k, lo, hi, m) for lo, hi, m in zip(edges[:-1], edges[1:], masses)
        )
    write_csv(
        out / "gamma_k_bins.csv",
        ["k", "bin_lo", "bin_hi", "predicted_mass"],
        gamma_k_rows,
    )
    return payload


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _replica_worker(payload: tuple[dict, int, Path]) -> list[EmpiricalSnapshot]:
    """Grow one replica, write its ``replica_XXX/`` files under ``out`` and
    return its snapshots; the edge log never leaves the process."""
    config_dict, replica, out = payload
    config = ExperimentConfig.from_dict(config_dict)
    try:
        state = simulator.new_graph(
            config.distribution(),
            config.lam,
            config.attachment_model(),
            config.base_seed,
            replica=replica,
        )
        snapshots = simulator.run(
            state,
            config.n_target,
            schedule=config.checkpoints,
            bins=config.bins,
            k_max=config.max_tracked_impact,
        )
    except (simulator.AuditError, MeasureError) as exc:
        raise type(exc)(f"replica {replica}: {exc}") from exc
    edge_log = simulator.edge_log(state) if config.edge_log else None
    _write_replica_files(out, replica, snapshots, edge_log)
    return snapshots


def _write_replica_files(out: Path, replica: int, snapshots, edge_log) -> None:
    rep_dir = out / f"replica_{replica:03d}"
    write_csv(
        rep_dir / "trajectory.csv",
        ["n", "fbar", "total_impact", "max_impact", "fitness_of_max"],
        [
            (s.n, s.fbar, s.total_impact, s.max_impact, s.max_impact_fitness)
            for s in snapshots
        ],
    )
    for snap in snapshots:
        header = (
            ["bin_lo", "bin_hi", "gamma_mass"]
            + [f"impact_{k}" for k in range(1, snap.k_max + 1)]
            + ["impact_tail"]
        )
        n = snap.n
        table = np.column_stack(
            (snap.edges[:-1], snap.edges[1:], snap.gamma_counts / n, (snap.impact_counts / n).T)
        )
        write_csv(rep_dir / f"hist_{n:08d}.csv", header, table)
    if edge_log is not None:
        write_csv(rep_dir / "edges.csv", ["source", "target", "multiplicity"], edge_log)


def _simulate_into(
    config: ExperimentConfig, out: Path, workers: int
) -> dict[int, ReplicaAggregate]:
    """Run the replicas and write the whole simulation tree into ``out``.

    The calling process runs the first ``ceil(replicas / workers)`` replicas
    itself and a pool of ``workers - 1`` processes the rest. The pool is
    forked after this process loads ``_urn.c``, so only this process
    compiles it, and before it grows anything, so each fork copies a small
    process; the workers exit while this process writes the aggregates.
    """
    out.mkdir()
    jobs = [(config.to_dict(), r, out) for r in range(config.replicas)]
    if workers == 1:
        return _write_aggregates(config, out, [_replica_worker(job) for job in jobs])
    share = -(-len(jobs) // workers)
    simulator._compiled_urn()  # the workers inherit the library, or its absence
    with multiprocessing.Pool(workers - 1) as pool:
        rest = pool.map_async(_replica_worker, jobs[share:])
        try:
            runs = [_replica_worker(job) for job in jobs[:share]]
        except Exception:
            # tearing the pool down while a worker sends its result leaves
            # the result queue locked and the teardown hangs, so wait for the
            # pool's replicas first, as ``Pool.map`` would
            rest.wait()
            raise
        runs += rest.get()  # map_async keeps job order
        pool.close()
        return _write_aggregates(config, out, runs)


def cmd_simulate(
    config: ExperimentConfig,
    *,
    out_dir: Path,
    threads: int | None = None,
) -> dict[int, ReplicaAggregate]:
    """Run the replicas on ``threads`` processes, this one included; write
    per-replica and aggregate files.

    ``sim/`` is replaced whole: everything is written into a staging
    directory under ``out_dir`` that is renamed onto ``sim/`` only once
    complete, so a failing run leaves an earlier ``sim/`` as it was (and
    writes nothing at all when ``out_dir`` did not exist), and a rerun
    leaves no file of an earlier run behind.

    Returns the cross-replica aggregate per checkpoint size. Any invariant
    audit failure propagates, naming its replica (the CLI exits nonzero).
    """
    if threads is not None and threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    workers = min(threads or os.cpu_count() or 1, config.replicas)
    # the topmost directory this call creates, removed again if it fails
    created = next((p for p in reversed((out_dir, *out_dir.parents)) if not p.exists()), None)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the tree is staged in a plain subdirectory of the mkdtemp, so ``sim/``
    # gets the mode any new directory gets, not mkdtemp's 0o700
    scratch = Path(tempfile.mkdtemp(prefix=".sim-", dir=out_dir))
    try:
        aggregates = _simulate_into(config, scratch / "sim", workers)
        sim = out_dir / "sim"
        if sim.exists():
            sim.rename(scratch / "old")
        (scratch / "sim").rename(sim)
    except BaseException:  # the pool has been torn down: nothing writes here any more
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return aggregates


def _write_aggregates(
    config: ExperimentConfig, out: Path, runs: list
) -> dict[int, ReplicaAggregate]:
    # every replica snapshots at the config's checkpoints; aggregate checks it
    aggregates = {snaps[0].n: empirics.aggregate(snaps) for snaps in zip(*runs)}

    write_csv(
        out / "aggregate_trajectory.csv",
        ["n", "fbar_mean", "fbar_stderr", "total_impact_mean", "max_impact_mean"],
        [
            (a.n, a.fbar_mean, a.fbar_stderr, a.total_impact_mean, a.max_impact_mean)
            for a in aggregates.values()
        ],
    )
    write_csv(
        out / "trajectories_long.csv",
        ["replica", "n", "fbar"],
        [(r, s.n, s.fbar) for r, snapshots in enumerate(runs) for s in snapshots],
    )
    final = aggregates[config.n_target]
    write_csv(
        out / "aggregate_gamma.csv",
        ["bin_lo", "bin_hi", "mean", "stderr"],
        zip(final.edges[:-1], final.edges[1:], final.gamma_mean, final.gamma_stderr),
    )
    rows = []
    for k in range(1, final.k_max + 1):
        rows.extend(
            (k, lo, hi, m, se)
            for lo, hi, m, se in zip(
                final.edges[:-1],
                final.edges[1:],
                final.gamma_k_mean[k - 1],
                final.gamma_k_stderr[k - 1],
            )
        )
    write_csv(out / "aggregate_gamma_k.csv", ["k", "bin_lo", "bin_hi", "mean", "stderr"], rows)
    write_csv(
        out / "aggregate_pk.csv",
        ["k", "mean", "stderr"],
        [
            (k + 1, final.pk_mean[k], final.pk_stderr[k])
            for k in range(len(final.pk_mean))
        ],
    )
    write_json(
        out / "summary.json",
        {
            "schema_version": 1,
            "lambda": config.lam,
            "fitness": config.fitness,
            "model": config.model,
            "n_target": config.n_target,
            "replicas": config.replicas,
            "base_seed": config.base_seed,
            "bins": config.bins,
            "max_tracked_impact": config.max_tracked_impact,
            "checkpoints": [a.n for a in aggregates.values()],
            "final_fbar_per_replica": [snapshots[-1].fbar for snapshots in runs],
        },
    )
    return aggregates


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


SIM_TABLES = ("aggregate_trajectory", "aggregate_gamma", "aggregate_gamma_k", "aggregate_pk")
THEORY_TABLES = ("gamma_bins", "gamma_k_bins")


def _read_csv(path: Path) -> list[dict[str, float]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {key: float(value) for key, value in row.items()}
            for row in csv.DictReader(fh)
        ]


def cmd_compare(config: ExperimentConfig, *, out_dir: Path) -> dict:
    """Join simulation aggregates with theory outputs; emit the report.

    The criteria are :func:`empirics.evaluate`'s; this reads its inputs and
    writes its outputs, after checking that both sides come from ``config``.
    """
    theory_dir, sim_dir = out_dir / "theory", out_dir / "sim"
    out = out_dir / "compare"
    if not (theory_dir / "limit_summary.json").exists():
        raise MeasureError(f"no theory output under {theory_dir}; run `theory` first")
    if not (sim_dir / "summary.json").exists():
        raise MeasureError(f"no simulation output under {sim_dir}; run `simulate` first")
    theory = json.loads((theory_dir / "limit_summary.json").read_text())
    sim = json.loads((sim_dir / "summary.json").read_text())
    # the model sets the total-mass band and the rest the tables' shape; seed
    # and replica count may differ legitimately (``simulate --seed/--replicas``)
    expected = config.to_dict()
    law = ("lambda", "fitness")
    shape = ("model", "n_target", "bins", "max_tracked_impact")
    for side, payload, keys in (("theory", theory, law), ("simulation", sim, law + shape)):
        for key in keys:
            if payload[key] != expected[key]:
                raise MeasureError(
                    f"{key} mismatch: {side} files have {payload[key]}, "
                    f"config has {expected[key]}"
                )
    if len(theory["pk"]) != config.max_tracked_impact:
        raise MeasureError(
            f"max_tracked_impact mismatch: theory files have {len(theory['pk'])}, "
            f"config has {config.max_tracked_impact}"
        )

    tables = {name: _read_csv(sim_dir / f"{name}.csv") for name in SIM_TABLES}
    tables.update((name, _read_csv(theory_dir / f"{name}.csv")) for name in THEORY_TABLES)
    report, outputs = empirics.evaluate(theory, tables, config, sim["replicas"])
    for name, (header, rows) in outputs.items():
        write_csv(out / f"{name}.csv", header, rows)
    write_json(out / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# check-kernel
# ---------------------------------------------------------------------------


def cmd_check_kernel(
    config: ExperimentConfig,
    *,
    out_dir: Path,
    ns: tuple[int, ...] | None = None,
    trials: int | None = None,
) -> dict:
    """Run the attachment-contract suite for the configured model; ``ns``
    and ``trials`` default to ``run_contract_suite``'s."""
    from . import kernel_contract  # loads scipy.stats, which no other command needs

    out = out_dir / "check_kernel"
    sizes = {key: value for key, value in (("ns", ns), ("trials", trials)) if value is not None}
    report = kernel_contract.run_contract_suite(
        config.attachment_model(),
        config.distribution(),
        config.lam,
        base_seed=config.base_seed,
        **sizes,
    )
    payload = {
        "schema_version": 1,
        "config_model": config.model,
        "fitness": config.fitness,
        **report.to_dict(),
    }
    write_json(out / "report.json", payload)
    return payload


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pafit",
        description="Preferential attachment with fitness: simulation and limit laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("theory", "compute the limit summary"),
        ("simulate", "run replica simulations"),
        ("compare", "join simulation and theory outputs into a report"),
        ("check-kernel", "verify the attachment-kernel contract"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the experiment config JSON")
        cmd.add_argument("--out", default=None, help="output directory (overrides config/env)")
        if name == "simulate":
            cmd.add_argument("--replicas", type=int, default=None)
            cmd.add_argument("--seed", type=int, default=None)
            cmd.add_argument("--threads", type=int, default=None)
        if name == "check-kernel":
            cmd.add_argument("--trials", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.load(args.config)
        flags = {
            "base_seed": getattr(args, "seed", None),
            "replicas": getattr(args, "replicas", None),
        }
        overrides = {key: value for key, value in flags.items() if value is not None}
        if overrides:
            config = ExperimentConfig.from_dict({**config.to_dict(), **overrides})
        out = resolve_out_dir(config, args.out)
        if args.command == "theory":
            payload = cmd_theory(config, out_dir=out)
            print(f"phase={payload['phase']} theta_star={payload['theta_star']:.8f}")
        elif args.command == "simulate":
            aggregates = cmd_simulate(config, out_dir=out, threads=args.threads)
            final = aggregates[config.n_target]
            print(
                f"n={final.n} replicas={final.replicas} "
                f"fbar={final.fbar_mean:.6f}+-{final.fbar_stderr:.6f}"
            )
        elif args.command == "compare":
            report = cmd_compare(config, out_dir=out)
            for crit in report["criteria"]:
                flag = "PASS" if crit["passed"] else "FAIL"
                print(f"{flag} {crit['name']}: measured={crit['measured']}")
            print("overall:", "PASS" if report["passed"] else "FAIL")
            return 0 if report["passed"] else 1
        elif args.command == "check-kernel":
            payload = cmd_check_kernel(config, out_dir=out, trials=args.trials)
            print(json.dumps(payload["verdicts"], sort_keys=True))
            return 0 if all(v == "pass" for v in payload["verdicts"].values()) else 1
        return 0
    except (ConfigError, MeasureError, simulator.AuditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
