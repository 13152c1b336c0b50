#!/usr/bin/env python3
"""How often the contract suite rejects the built-in models, which meet A1-A5.

Runs the default ``check-kernel`` suite (two-point law, lambda 2, the
default ``ns`` and ``trials``) for ``poisson`` and ``multinomial`` over base
seeds 0-999 on two worker processes, and prints per check the seeds that
failed, the fail count and its Clopper-Pearson 95% interval, and the
inconclusive count. Both models meet the contract, so every fail is a false
fail of the check.

Run: PYTHONPATH=src python scripts/kernel_false_fails.py
"""

import multiprocessing

from scipy import stats

from pafit import kernel_contract, measures, simulator

SEEDS = range(1000)
MODELS = {"poisson": simulator.PoissonOutdegree(), "multinomial": simulator.FixedOutdegree()}
CHECKS = ("A1", "A2", "A3", "A4", "A5")


def verdicts(job: tuple[str, int]) -> dict[str, str]:
    label, seed = job
    dist = measures.FiniteDiscrete([(0.5, 0.5), (1.0, 0.5)])
    return kernel_contract.run_contract_suite(MODELS[label], dist, 2.0, base_seed=seed).verdicts


def clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    alpha = 1.0 - level
    lower = float(stats.beta.ppf(alpha / 2, k, n - k + 1)) if k > 0 else 0.0
    upper = float(stats.beta.ppf(1 - alpha / 2, k + 1, n - k)) if k < n else 1.0
    return lower, upper


def main() -> None:
    jobs = [(label, seed) for label in MODELS for seed in SEEDS]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        results = dict(zip(jobs, pool.map(verdicts, jobs, chunksize=25)))
    n = len(SEEDS)
    for label in MODELS:
        per_seed = {seed: results[label, seed] for seed in SEEDS}
        for check in CHECKS + ("any",):
            names = CHECKS if check == "any" else (check,)
            failed = [s for s, v in per_seed.items() if any(v[c] == "fail" for c in names)]
            unsure = sum(any(v[c] == "inconclusive" for c in names) for v in per_seed.values())
            lo, hi = clopper_pearson(len(failed), n)
            print(
                f"{label:12s} {check:4s} fails {len(failed):3d}/{n} "
                f"= {len(failed) / n:.4f} [{lo:.4f}, {hi:.4f}]  inconclusive {unsure}  "
                f"seeds {failed}"
            )


if __name__ == "__main__":
    main()
