import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pafit import limit_theory as LT
from pafit import measures as M
from pafit.config import ExperimentConfig


@pytest.fixture
def two_point():
    """mu = {0.5 -> 0.5, 1.0 -> 0.5}; fit-get-richer at lambda = 2."""
    return M.FiniteDiscrete([(0.5, 0.5), (1.0, 0.5)])


@pytest.fixture
def cubic_gap():
    """Density 3(1-f)^2 on (0, 1); Bose-Einstein at lambda = 1."""
    return M.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),))


@pytest.fixture
def uniform():
    return M.Uniform01()


@pytest.fixture
def beta23():
    return M.BetaShape(2.0, 3.0)


@pytest.fixture
def packaged(tmp_path):
    """pafit as ``build_py`` installs it under ``tmp_path / "lib"``, with no
    compiled library beside ``_urn.c``; returns that directory."""
    root = Path(__file__).resolve().parents[1]
    shutil.copy(root / "pyproject.toml", tmp_path)
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    setup = [sys.executable, "-c", "from setuptools import setup; setup()"]
    build = setup + ["-q", "build_py", "--build-lib", str(tmp_path / "lib")]
    subprocess.run(build, cwd=tmp_path, check=True, capture_output=True)
    return tmp_path / "lib"


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240810))


@pytest.fixture
def on_limit():
    """Inputs of ``empirics.evaluate`` for a run that sits exactly on its
    limit: every aggregate mean is the predicted mass, with zero SE.

    ``build(fbar_means, **config)`` returns ``(config, theory, tables)``; the
    trajectory ends at ``n_target`` with the normalisation ``fbar_means``,
    and ``config`` overrides the two-point Poisson run at lambda = 2.
    """

    def build(fbar_means, **overrides):
        data = {
            "schema_version": 1,
            "model": {"type": "poisson"},
            "lambda": 2.0,
            "fitness": {"type": "discrete", "points": [[0.5, 0.5], [1.0, 0.5]]},
            "n_target": 600,
            "bins": 10,
            "max_tracked_impact": 5,
            "epsilon": 0.1,
            "out_dir": "unused",
        }
        data.update(overrides)
        config = ExperimentConfig.from_dict(data)
        summary = LT.summarize(config.distribution(), config.lam)
        edges = config.bin_edges()
        k_max = config.max_tracked_impact
        bins = list(zip(edges[:-1], edges[1:], summary.gamma.bin_masses(edges)))
        gamma_k = [
            (k, lo, hi, m)
            for k in range(1, k_max + 1)
            for lo, hi, m in zip(edges[:-1], edges[1:], summary.gamma_k(k).bin_masses(edges))
        ]
        pk = [summary.pk(k) for k in range(1, k_max + 1)]
        theory = {
            "phase": summary.phase.value,
            "theta_star": summary.theta_star,
            "condensate_mass": summary.condensate_mass,
            "pk": pk,
        }
        n = config.n_target
        tables = {
            "aggregate_trajectory": [
                {"n": n - len(fbar_means) + 1 + i, "fbar_mean": f} for i, f in enumerate(fbar_means)
            ],
            "aggregate_gamma": [
                {"bin_lo": lo, "bin_hi": hi, "mean": m, "stderr": 0.0} for lo, hi, m in bins
            ],
            "aggregate_gamma_k": [
                {"k": k, "bin_lo": lo, "bin_hi": hi, "mean": m, "stderr": 0.0}
                for k, lo, hi, m in gamma_k
            ],
            "aggregate_pk": [{"k": k, "mean": p, "stderr": 0.0} for k, p in enumerate(pk, 1)],
            "gamma_bins": [
                {"bin_lo": lo, "bin_hi": hi, "predicted_mass": m} for lo, hi, m in bins
            ],
            "gamma_k_bins": [
                {"k": k, "bin_lo": lo, "bin_hi": hi, "predicted_mass": m}
                for k, lo, hi, m in gamma_k
            ],
        }
        return config, theory, tables

    return build
