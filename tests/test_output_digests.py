"""Pinned digests of the ``sim/`` output tree.

Hot-path rewrites of the sampler must not move one output bit. These tests
run ``pafit simulate`` on two small configs, with one and with two workers,
and compare a SHA-256 over the written tree with the value the code wrote
before the inverse-CDF replay and the batched token-urn bookkeeping. A
deliberate output change updates the pinned values and says so in
``CHANGES.md``.
"""

import hashlib
from pathlib import Path

import pytest

from pafit import cli
from pafit.config import ExperimentConfig

TWO_POINT = {"type": "discrete", "points": [[0.5, 0.5], [1.0, 0.5]]}
CUBIC_GAP = {"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]}

PINNED = {
    "poisson_two_point": "07f3534ec48e90daf0484d4e5340a9b031bb2c8752ecb5c4793b638b7215faf8",
    "poisson_cubic_gap": "00e8722c6292c7507b39681e284d613905d9dd1198f8d91dec256564c1db146a",
}


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def config_for(name: str, out: Path) -> ExperimentConfig:
    fitness, lam = (TWO_POINT, 2.0) if name == "poisson_two_point" else (CUBIC_GAP, 1.0)
    return ExperimentConfig.from_dict(
        {
            "schema_version": 1,
            "model": {"type": "poisson"},
            "lambda": lam,
            "fitness": fitness,
            "n_target": 4000,
            "replicas": 2,
            "base_seed": 9103,
            "bins": 20,
            "max_tracked_impact": 10,
            "epsilon": 0.1,
            "out_dir": str(out),
        }
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_sim_tree_digest_is_pinned(name, workers, tmp_path):
    config = config_for(name, tmp_path)
    cli.cmd_simulate(config, out_dir=tmp_path, threads=workers)
    assert tree_digest(tmp_path / "sim") == PINNED[name]
