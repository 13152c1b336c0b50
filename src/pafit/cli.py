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
import math
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

# report thresholds (fixed, not configurable: they define the acceptance gate)
FBAR_REL_TOL = 0.02
GAMMA_BIN_TOL_FACTOR = 0.05          # x (1 + lambda), max over bins
PK_ABS_TOL = 0.01                    # per k = 1..5
GAMMA_K_L1_TOL = 0.05                # k = 1, 2
BE_TREND_CHECKPOINTS = 3
CONDENSATION_ABS_TOL = 0.1
CONDENSATION_SIGNATURE_FACTOR = 10.0


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
    density = [float(summary.gamma.density_at(f)) for f in grid]

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
    replicas: int | None = None,
    threads: int | None = None,
) -> dict[int, ReplicaAggregate]:
    """Run the replicas (process pool), write per-replica and aggregate files.

    Returns the cross-replica aggregate per checkpoint size. Any invariant
    audit failure propagates (the CLI exits nonzero).
    """
    out = (out_dir or resolve_out_dir(config, None)) / "sim"
    n_replicas = replicas if replicas is not None else config.replicas
    jobs = [(config.to_dict(), r) for r in range(n_replicas)]
    workers = min(threads or os.cpu_count() or 1, n_replicas)
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
            "replicas": n_replicas,
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


def _read_csv(path: Path) -> list[dict[str, float]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {key: float(value) for key, value in row.items()}
            for row in csv.DictReader(fh)
        ]


def _criterion(name: str, passed: bool, measured, threshold, **details) -> dict:
    entry = {"name": name, "passed": bool(passed), "measured": measured, "threshold": threshold}
    entry.update(details)
    return entry


def cmd_compare(config: ExperimentConfig, *, out_dir: Path | None = None) -> dict:
    """Join simulation aggregates with theory outputs; emit the report."""
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

    lam = config.lam
    phase = theory["phase"]
    theta_star = theory["theta_star"]
    trajectory = _read_csv(sim_dir / "aggregate_trajectory.csv")
    gamma_rows = _read_csv(sim_dir / "aggregate_gamma.csv")
    theory_gamma = _read_csv(theory_dir / "gamma_bins.csv")
    pk_rows = _read_csv(sim_dir / "aggregate_pk.csv")

    if [r["bin_lo"] for r in gamma_rows] != [r["bin_lo"] for r in theory_gamma]:
        raise MeasureError("simulation and theory used different bin edges")

    criteria: list[dict] = []
    final = trajectory[-1]

    empirical = np.array([r["mean"] for r in gamma_rows])
    predicted = np.array([r["predicted_mass"] for r in theory_gamma])
    abs_err = np.abs(empirical - predicted)
    write_csv(
        out / "gamma_compare.csv",
        ["bin_lo", "bin_hi", "empirical_mass", "predicted_mass", "abs_error"],
        [
            (r["bin_lo"], r["bin_hi"], e, p, a)
            for r, e, p, a in zip(gamma_rows, empirical, predicted, abs_err)
        ],
    )

    # total impact mass 1 + edges/n, within 3 SE. Under the Poisson model a
    # replica's edge count is exactly Poisson(lambda (n - 1)), so the mean of
    # R replicas has target 1 + lambda (n - 1)/n and SE
    # sqrt(lambda (n - 1) / (R n^2)). Under the fixed-outdegree model every
    # replica has exactly lambda (n - 1) edges, so the total is exact. Custom
    # kernels use the per-bin cross-replica SEs around 1 + lambda
    n = int(final["n"])
    total = float(empirical.sum())
    model = config.attachment_model()
    if isinstance(model, simulator.PoissonOutdegree):
        target = 1.0 + lam * (n - 1) / n
        se = math.sqrt(lam * (n - 1) / (sim["replicas"] * n * n))
        passed = abs(total - target) <= 3.0 * se
        band = {"target": target, "band": 3.0 * se}
    elif isinstance(model, simulator.FixedOutdegree):
        exact = (1.0 + lam) - lam / n
        passed = abs(total - exact) <= 1e-9
        band = {"target": exact, "band": "exact (deterministic outdegree)"}
    else:
        totals_se = math.sqrt(sum(r["stderr"] ** 2 for r in gamma_rows))
        passed = abs(total - (1.0 + lam)) <= 3.0 * totals_se
        band = {"target": 1.0 + lam, "band": 3.0 * totals_se}
    criteria.append(_criterion("gamma_total_mass_3se", passed, total, band))

    pk_pred = theory["pk"]
    write_csv(
        out / "pk_compare.csv",
        ["k", "empirical_mean", "empirical_stderr", "predicted", "abs_error"],
        [
            (
                int(row["k"]),
                row["mean"],
                row["stderr"],
                pk_pred[int(row["k"]) - 1],
                abs(row["mean"] - pk_pred[int(row["k"]) - 1]),
            )
            for row in pk_rows
        ],
    )

    if phase == "FitGetRicher":
        rel = abs(final["fbar_mean"] - theta_star) / theta_star
        criteria.append(
            _criterion("normalisation_vs_theta_star", rel <= FBAR_REL_TOL, final["fbar_mean"],
                       {"theta_star": theta_star, "rel_tol": FBAR_REL_TOL})
        )
        bin_tol = GAMMA_BIN_TOL_FACTOR * (1.0 + lam)
        criteria.append(
            _criterion("gamma_max_bin_error", float(abs_err.max()) <= bin_tol,
                       float(abs_err.max()), bin_tol)
        )
        pk_err = [
            abs(row["mean"] - pk_pred[int(row["k"]) - 1])
            for row in pk_rows
            if int(row["k"]) <= 5
        ]
        criteria.append(
            _criterion("impact_fraction_error_k1_5", max(pk_err) <= PK_ABS_TOL,
                       max(pk_err), PK_ABS_TOL)
        )
        gamma_k_sim = _read_csv(sim_dir / "aggregate_gamma_k.csv")
        gamma_k_theory = _read_csv(theory_dir / "gamma_k_bins.csv")
        for k in (1, 2):
            sim_k = np.array([r["mean"] for r in gamma_k_sim if int(r["k"]) == k])
            theory_k = np.array(
                [r["predicted_mass"] for r in gamma_k_theory if int(r["k"]) == k]
            )
            l1 = float(np.abs(sim_k - theory_k).sum())
            criteria.append(
                _criterion(f"impact_law_l1_k{k}", l1 <= GAMMA_K_L1_TOL, l1, GAMMA_K_L1_TOL)
            )
    else:
        # from a cold start the normalisation climbs towards theta* = 1 from
        # below at every n (docs/DECISIONS.md): the corridor is the a-priori
        # floor up to theta*, half-open, and the trend is rising
        lo = simulator.normalisation_lower_edge(config.distribution(), lam)
        fbar_final = final["fbar_mean"]
        criteria.append(
            _criterion("normalisation_corridor", lo <= fbar_final < theta_star,
                       fbar_final, [lo, theta_star])
        )
        tail = [row["fbar_mean"] for row in trajectory[-BE_TREND_CHECKPOINTS:]]
        increasing = all(a < b for a, b in zip(tail, tail[1:]))
        criteria.append(
            _criterion("normalisation_trend_increasing", increasing, tail, "strictly increasing")
        )
        # condensation window [1 - eps, 1]
        eps = config.epsilon
        cut = 1.0 - eps
        lows = [r["bin_lo"] for r in gamma_rows]
        j = int(np.argmin(np.abs(np.array(lows) - cut)))
        if abs(lows[j] - cut) > 1e-9:
            raise MeasureError("epsilon window does not align with the histogram bins")
        emp_window = float(empirical[j:].sum())
        pred_window = float(predicted[j:].sum())
        bulk_window = pred_window - theory["condensate_mass"]
        criteria.append(
            _criterion("condensation_window_abs",
                       abs(emp_window - pred_window) <= CONDENSATION_ABS_TOL,
                       emp_window, {"predicted": pred_window, "abs_tol": CONDENSATION_ABS_TOL})
        )
        criteria.append(
            _criterion("condensation_window_signature",
                       emp_window >= CONDENSATION_SIGNATURE_FACTOR * bulk_window,
                       emp_window,
                       {"bulk_only": bulk_window, "factor": CONDENSATION_SIGNATURE_FACTOR})
        )

    report = {
        "schema_version": 1,
        "phase": phase,
        "lambda": lam,
        "theta_star": theta_star,
        "n": int(final["n"]),
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
    }
    write_json(out / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# check-kernel
# ---------------------------------------------------------------------------


def cmd_check_kernel(
    config: ExperimentConfig,
    *,
    out_dir: Path | None = None,
    ns: tuple[int, ...] = (100, 1_000, 10_000),
    trials: int = 10_000,
) -> dict:
    """Run the attachment-contract suite for the configured model."""
    out = (out_dir or resolve_out_dir(config, None)) / "check_kernel"
    report = kernel_contract.run_contract_suite(
        config.attachment_model(),
        config.distribution(),
        config.lam,
        ns=ns,
        trials=trials,
        base_seed=config.base_seed,
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
            cmd.add_argument("--trials", type=int, default=10_000)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.load(args.config)
        if getattr(args, "seed", None) is not None:
            data = config.to_dict()
            data["base_seed"] = args.seed
            config = ExperimentConfig.from_dict(data)
        out = resolve_out_dir(config, args.out)
        if args.command == "theory":
            payload = cmd_theory(config, out_dir=out)
            print(f"phase={payload['phase']} theta_star={payload['theta_star']:.8f}")
        elif args.command == "simulate":
            aggregates = cmd_simulate(
                config, out_dir=out, replicas=args.replicas, threads=args.threads
            )
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
