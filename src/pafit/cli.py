"""Command-line orchestration: theory | simulate | compare | check-kernel.

Every output is a function of (config, code version) alone: replica streams
are derived from (base_seed, replica), aggregation is sorted by replica
index regardless of worker completion order, JSON is written with sorted
keys, and CSV numbers use full round-trip decimal formatting. Nothing is
written outside the resolved output directory. The output directory comes
from, in increasing precedence: the config's ``out_dir``, the ``PAFIT_OUT``
environment variable, the ``--out`` flag.
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import empirics, kernel_contract, limit_theory, measures, simulator
from .config import ConfigError, ExperimentConfig
from .empirics import EmpiricalSnapshot, ReplicaAggregate
from .measures import MeasureError

ENV_OUT = "PAFIT_OUT"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
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


def cmd_theory(config: ExperimentConfig, *, out_dir: Path | None = None) -> dict:
    """Write the limit summary (JSON) and plot-ready CSV tables."""
    out = (out_dir or resolve_out_dir(config, None)) / "theory"
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


def _replica_worker(
    payload: tuple[dict, int],
) -> tuple[int, list[EmpiricalSnapshot], list | None]:
    config_dict, replica = payload
    config = ExperimentConfig.from_dict(config_dict)
    try:
        state = simulator.new_graph(
            config.distribution(),
            config.lam,
            config.attachment_model(),
            config.base_seed,
            replica=replica,
            edge_log=config.edge_log,
        )
        snapshots = simulator.run(
            state,
            config.n_target,
            schedule=config.schedule(),
            bins=config.bins,
            k_max=config.max_tracked_impact,
            bin_edges=config.bin_edges(),
        )
    except (simulator.AuditError, MeasureError) as exc:
        raise type(exc)(f"replica {replica}: {exc}") from exc
    edge_log = list(state.edge_log) if state.edge_log is not None else None
    return replica, snapshots, edge_log


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
        k_max = snap.k_max
        header = (
            ["bin_lo", "bin_hi", "gamma_mass"]
            + [f"impact_{k}" for k in range(1, k_max + 1)]
            + ["impact_tail"]
        )
        rows = []
        for b in range(len(snap.edges) - 1):
            rows.append(
                [snap.edges[b], snap.edges[b + 1], snap.gamma_counts[b] / snap.n]
                + [snap.impact_counts[k][b] / snap.n for k in range(k_max + 1)]
            )
        write_csv(rep_dir / f"hist_{snap.n:08d}.csv", header, rows)
    if edge_log is not None:
        write_csv(rep_dir / "edges.csv", ["source", "target", "multiplicity"], edge_log)


def cmd_simulate(
    config: ExperimentConfig,
    *,
    out_dir: Path | None = None,
    threads: int | None = None,
) -> dict[int, ReplicaAggregate]:
    """Run the replicas (process pool), write per-replica and aggregate files.

    Returns the cross-replica aggregate per checkpoint size. Any invariant
    audit failure propagates, naming its replica (the CLI exits nonzero).
    """
    if threads is not None and threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    out = (out_dir or resolve_out_dir(config, None)) / "sim"
    jobs = [(config.to_dict(), r) for r in range(config.replicas)]
    workers = min(threads or os.cpu_count() or 1, config.replicas)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_replica_worker, jobs)
    else:
        results = [_replica_worker(job) for job in jobs]
    results.sort(key=lambda item: item[0])

    for replica, snapshots, edge_log in results:
        _write_replica_files(out, replica, snapshots, edge_log)

    by_n: dict[int, list[EmpiricalSnapshot]] = {}
    for _, snapshots, _ in results:
        for snap in snapshots:
            by_n.setdefault(snap.n, []).append(snap)
    aggregates = {n: empirics.aggregate(snaps) for n, snaps in sorted(by_n.items())}

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
        [(r, s.n, s.fbar) for r, snapshots, _ in results for s in snapshots],
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
            "final_fbar_per_replica": [s[-1].fbar for _, s, _ in results],
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


def cmd_compare(config: ExperimentConfig, *, out_dir: Path | None = None) -> dict:
    """Join simulation aggregates with theory outputs; emit the report.

    The criteria are :func:`empirics.evaluate`'s; this reads its inputs and
    writes its outputs, after checking that both sides come from ``config``.
    """
    root = out_dir or resolve_out_dir(config, None)
    theory_dir, sim_dir = root / "theory", root / "sim"
    out = root / "compare"
    if not (theory_dir / "limit_summary.json").exists():
        raise MeasureError(f"no theory output under {theory_dir}; run `theory` first")
    if not (sim_dir / "summary.json").exists():
        raise MeasureError(f"no simulation output under {sim_dir}; run `simulate` first")
    theory = json.loads((theory_dir / "limit_summary.json").read_text())
    sim = json.loads((sim_dir / "summary.json").read_text())
    for side, payload in (("theory", theory), ("simulation", sim)):
        if payload["lambda"] != config.lam:
            raise MeasureError(
                f"lambda mismatch: {side} files have {payload['lambda']}, config has {config.lam}"
            )
        if payload["fitness"] != config.fitness:
            raise MeasureError(f"fitness distribution mismatch against {side} files")
    # the model sets the total-mass band and the rest the tables' shape; seed
    # and replica count may differ legitimately (``simulate --seed/--replicas``)
    for key in ("model", "n_target", "bins", "max_tracked_impact"):
        if sim[key] != getattr(config, key):
            raise MeasureError(
                f"{key} mismatch: simulation files have {sim[key]}, "
                f"config has {getattr(config, key)}"
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
    out_dir: Path | None = None,
    ns: tuple[int, ...] | None = None,
    trials: int | None = None,
) -> dict:
    """Run the attachment-contract suite for the configured model; ``ns``
    and ``trials`` default to ``run_contract_suite``'s."""
    out = (out_dir or resolve_out_dir(config, None)) / "check_kernel"
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
