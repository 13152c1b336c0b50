#!/usr/bin/env python3
"""Reproduce the condensation-phase figures of docs/DECISIONS.md.

Density 3(1-f)^2 on (0, 1), lambda = 1, Poisson outdegree. Three parts:

  mean-field   integrate dg/dtau = mu + g (f/theta - 1), theta = int f g / lambda,
               tau = ln n, from g = mu at n = 1; print theta_n and the window
               mass Gamma_n[0.9, 1] at chosen n, and the n at which the window
               first reaches each criterion-5 bound
  urn          an independent token-urn sampler (pick a uniform impact token,
               accept it with probability F) against pafit's simulator, plus a
               check of the fitness inverse CDF
  run DIR      per-replica tails of a finished `pafit simulate` output tree
               (such as `scripts/run_study.py be` writes), and its bulk bins
               against fbar_n / (fbar_n - f) mu

    PYTHONPATH=src python scripts/be_ledger.py mean-field
    PYTHONPATH=src python scripts/be_ledger.py urn --replicas 40 --n 32768
    PYTHONPATH=src python scripts/be_ledger.py run runs/be_cubic
"""

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp

from pafit import measures, simulator

LAM = 1.0
CUBIC = measures.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),))
WINDOW_LO = 0.9
WINDOW_LIMIT = 0.515          # limit window mass: condensate 1/2 + bulk
BULK_WINDOW = 0.015           # bulk-only share of the limit window
THETA_STAR = 1.0


def mu_density(f):
    return 3.0 * (1.0 - f) ** 2


# -- mean field ---------------------------------------------------------------


def _nodes() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes in u = 1 - f, panels refined towards f = 1 where
    the condensate layer (width ~ theta / ln n) forms."""
    cuts = [0.0] + [10.0**e for e in range(-10, 0)] + [0.3, 0.6, 1.0]
    x, w = np.polynomial.legendre.leggauss(24)
    us, ws = [], []
    for a, b in zip(cuts, cuts[1:]):
        us.append(0.5 * (b - a) * x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w)
    u, w = np.concatenate(us), np.concatenate(ws)
    return 1.0 - u, w * mu_density(1.0 - u)     # nodes f, weights of mu(df)


def mean_field(log10_ns: list[float]) -> list[tuple[float, float, float]]:
    """(log10 n, theta_n, window mass) along the mean-field path; h = g / mu."""
    f, w = _nodes()
    in_window = f >= WINDOW_LO

    def theta(h):
        return float(np.dot(w, f * h)) / LAM

    def rhs(_tau, h):
        return 1.0 + h * (f / theta(h) - 1.0)

    taus = [x * math.log(10.0) for x in log10_ns]
    sol = solve_ivp(rhs, (0.0, taus[-1]), np.ones_like(f), method="DOP853",
                    t_eval=taus, rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(sol.message)
    return [
        (x, theta(h), float(np.dot(w[in_window], h[in_window])))
        for x, h in zip(log10_ns, sol.y.T)
    ]


def cmd_mean_field(_args) -> None:
    table = [3, 4, 5, 6, 7, 8, 9, 12, 17, 20, 30, 50, 100, 139]
    print("log10 n  theta_n   window[0.9,1]")
    for x, th, win in mean_field([float(v) for v in table]):
        print(f"{x:7.0f}  {th:.4f}    {win:.4f}")
    fine = mean_field([0.25 * k for k in range(1, 4 * 139 + 1)])
    for label, bound in (
        (f"10 x bulk ({10 * BULK_WINDOW:.3f})", 10 * BULK_WINDOW),
        (f"within 0.1 of {WINDOW_LIMIT} ({WINDOW_LIMIT - 0.1:.3f})", WINDOW_LIMIT - 0.1),
    ):
        first = next((x for x, _, win in fine if win >= bound), None)
        where = f"n ~ 1e{first:.2f}" if first is not None else "beyond n = 1e139"
        print(f"window first reaches {label} at {where}")
    print("theta_n never exceeds theta* = 1:", all(th < THETA_STAR for _, th, _ in fine))
    print("theta_n rises at every step:", all(a[1] < b[1] for a, b in zip(fine, fine[1:])))


# -- independent sampler --------------------------------------------------------


def urn_fbar(n: int, rng: np.random.Generator) -> float:
    """Token urn: token t belongs to vertex owner[t]; each vertex holds 1 + indegree
    tokens. An edge picks a uniform token of the graph frozen at the step's start
    and keeps it with probability F of its owner, else redraws."""
    fitness = measures.quantile(CUBIC, rng.random(n)).tolist()
    owner = [0]
    random = rng.random
    for v in range(1, n):
        frozen = len(owner)
        for _ in range(int(rng.poisson(LAM))):
            while True:
                t = owner[int(random() * frozen)]
                if random() < fitness[t]:
                    owner.append(t)
                    break
        owner.append(v)
    return math.fsum(fitness[t] for t in owner) / (LAM * n)


def pafit_fbar(n: int, seed: int, replica: int) -> float:
    state = simulator.new_graph(CUBIC, LAM, simulator.PoissonOutdegree(), seed, replica=replica)
    simulator.run(state, n, schedule=[n], bins=20)
    return simulator.fbar(state)


def _mean_se(values) -> str:
    a = np.asarray(values)
    return f"{a.mean():.4f} +- {a.std(ddof=1) / math.sqrt(len(a)):.4f}"


def cmd_urn(args) -> None:
    rng = np.random.default_rng(args.seed)
    urn = [urn_fbar(args.n, rng) for _ in range(args.replicas)]
    ours = [pafit_fbar(args.n, args.seed, r) for r in range(args.replicas)]
    print(f"fbar at n={args.n} over {args.replicas} replicas")
    print(f"  token urn: {_mean_se(urn)}")
    print(f"  pafit:     {_mean_se(ours)}")
    draws = measures.quantile(CUBIC, rng.random(args.draws))
    print(f"inverse CDF, {args.draws} draws: mean {draws.mean():.4f} (exact 0.25), "
          f"P(F > 0.9) {np.mean(draws > 0.9):.5f} (exact 0.001)")


# -- finished runs ----------------------------------------------------------------


def _rows(path: Path) -> list[dict[str, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def cmd_run(args) -> None:
    sim = Path(args.dir) / "sim"
    replicas = sorted(sim.glob("replica_*"))
    n = int(_rows(replicas[0] / "trajectory.csv")[-1]["n"])
    print(f"{sim}: {len(replicas)} replicas at n = {n}")
    finals, windows = [], []
    for rep in replicas:
        traj = _rows(rep / "trajectory.csv")
        hist = _rows(rep / f"hist_{n:08d}.csv")
        window = sum(r["gamma_mass"] for r in hist if r["bin_lo"] >= WINDOW_LO - 1e-12)
        finals.append(traj[-1]["fbar"])
        windows.append(window)
        tail = ", ".join(f"{r['fbar']:.4f}" for r in traj[-3:])
        print(f"  {rep.name}: fbar tail [{tail}], window {window:.4f}")
    print(f"final fbar in [{min(finals):.4f}, {max(finals):.4f}], mean {_mean_se(finals)}")
    print(f"window in [{min(windows):.4f}, {max(windows):.4f}], mean {_mean_se(windows)}")
    agg = _rows(sim / "aggregate_trajectory.csv")
    tail = [r["fbar_mean"] for r in agg[-3:]]
    rising = all(a < b for a, b in zip(tail, tail[1:]))
    print(f"cross-replica mean tail {[round(v, 4) for v in tail]}: rising {rising}, "
          f"below theta* {tail[-1] < THETA_STAR}")
    if args.group:
        for g in range(0, len(replicas) - args.group + 1, args.group):
            trajs = [_rows(rep / "trajectory.csv") for rep in replicas[g:g + args.group]]
            means = [float(np.mean([t[i]["fbar"] for t in trajs])) for i in (-3, -2, -1)]
            win = float(np.mean(windows[g:g + args.group]))
            print(f"  replicas {g}-{g + args.group - 1}: mean fbar tail "
                  f"{[round(v, 4) for v in means]} rising {means[0] < means[1] < means[2]}, "
                  f"mean window {win:.4f}")
    fbar = agg[-1]["fbar_mean"]
    print(f"bulk bins against fbar/(fbar - f) mu at fbar = {fbar:.4f}:")
    for row in _rows(sim / "aggregate_gamma.csv"):
        if row["bin_hi"] > args.bulk_below + 1e-12:
            break
        pred = quad(lambda f: fbar / (fbar - f) * mu_density(f), row["bin_lo"], row["bin_hi"])[0]
        z = (row["mean"] - pred) / row["stderr"]
        print(f"  [{row['bin_lo']:.2f}, {row['bin_hi']:.2f}): {row['mean']:.5f} "
              f"vs {pred:.5f} (z {z:+.2f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="part", required=True)
    sub.add_parser("mean-field")
    urn = sub.add_parser("urn")
    urn.add_argument("--replicas", type=int, default=40)
    urn.add_argument("--n", type=int, default=32768)
    urn.add_argument("--seed", type=int, default=7)
    urn.add_argument("--draws", type=int, default=2_000_000)
    run = sub.add_parser("run")
    run.add_argument("dir", help="output directory of `pafit simulate` (holding sim/)")
    run.add_argument("--group", type=int, default=5, help="replicas per group mean")
    run.add_argument("--bulk-below", type=float, default=0.3)
    args = parser.parse_args()
    {"mean-field": cmd_mean_field, "urn": cmd_urn, "run": cmd_run}[args.part](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
