"""Pinned digests of the ``sim/`` and ``theory/`` output trees and the
``check-kernel`` report.

Hot-path rewrites of the sampler must not move one output bit. These tests
run ``pafit simulate`` on four small configs, with one and with two
workers, and compare a SHA-256 over the written tree with a pinned value.
The two Poisson trees are pinned to the value the code wrote before the
inverse-CDF replay and the batched token-urn bookkeeping; the ``pairs_demo``
tree, which grows through a custom kernel, to the value written when custom
kernels moved onto the token urn; the Poisson tree with ``edges.csv`` to the
value written before the growth loop was compiled, and the ``pairs_demo`` and
``coupled_demo`` trees with ``edges.csv`` to the values written while growth
still recorded the edge log beside the urn. The Poisson trees and
the built-in models' ``check-kernel`` reports are written once more with
the compiler disabled, through the loop's Python twin, and the
``poisson_cubic_gap`` tree once more by ``python -m pafit`` from a packaged
copy run without ``cc`` on ``PATH``. The
``theory/`` trees of five laws are pinned to the values written before the
integrands moved from numpy 0-d arrays to plain floats: discrete sums, the
condensation phase's t-substitution, a density with an atom at 1, a Beta
body integrated against its numpy density, and the uniform law. The
``check-kernel`` report of every config model is pinned too; it moves with
any of ``kernel_contract``'s constants or with the order of its draws. A
deliberate output change updates the pinned values and says so in
``CHANGES.md``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pafit import cli, quantile_replay, simulator
from pafit.config import ExperimentConfig

TWO_POINT = {"type": "discrete", "points": [[0.5, 0.5], [1.0, 0.5]]}
CUBIC_GAP = {"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]}
CUBIC_GAP_ATOM = {
    "type": "density", "edges": [0.0, 1.0], "coeffs": [[2.7, -5.4, 2.7]], "atom_at_one": 0.1
}
BETA_2_3 = {"type": "beta", "alpha": 2.0, "beta": 3.0}

PINNED = {
    "poisson_two_point": "07f3534ec48e90daf0484d4e5340a9b031bb2c8752ecb5c4793b638b7215faf8",
    "poisson_cubic_gap": "00e8722c6292c7507b39681e284d613905d9dd1198f8d91dec256564c1db146a",
    "pairs_demo_two_point": "82762a2c3024c83780b530819398518be7a93f9d7f8dff36467864dfccad4a1f",
    "poisson_two_point_edge_log": "7e045001e0f8f40e91b353d0dd6f03f741dccec970d5c167192f68fdfee312d4",
    "pairs_demo_edge_log": "077750d3ce87a2ec8eb594d8a646d6bf09767bcfc66a644cac9204144d73c671",
    "coupled_demo_edge_log": "7fb71af8981f8db181d1c0341a24f0a74515f1c7b8677f765d35ae5a26743d1d",
}
SIM_CONFIGS = {  # name -> (model, fitness, lambda, edge_log, n_target)
    "poisson_two_point": ("poisson", TWO_POINT, 2.0, False, 4000),
    "poisson_cubic_gap": ("poisson", CUBIC_GAP, 1.0, False, 4000),
    "pairs_demo_two_point": ("pairs_demo", TWO_POINT, 2.0, False, 4000),
    "poisson_two_point_edge_log": ("poisson", TWO_POINT, 2.0, True, 4000),
    "pairs_demo_edge_log": ("pairs_demo", TWO_POINT, 2.0, True, 2000),
    "coupled_demo_edge_log": ("coupled_demo", TWO_POINT, 1.0, True, 2000),
}
PINNED_THEORY = {
    "two_point_lam2": "f98588d1386823e95be1b0d0641b248e96d64448460e36a41e12c3c31c7fc2f6",
    "cubic_gap_lam1": "f20799aeeaaf8c5bcde8a8845fbb41c5cd110fc48bc1e5690ea39e33bb606c3d",
    "cubic_gap_atom_lam2": "8bb57734500a4a7b6d094d77a916a0babb805878ecaeac9928eb05f9ea499e78",
    "beta_2_3_lam2": "26b9f8e4257ff0fa4e45c2436458b27373d467dadf9239d36431e18a9daa9266",
    "uniform_lam1": "939a7e0007f3a8586fe56f486fe026752961363633e0a01e7608300b0fa66f40",
}
THEORY_CONFIGS = {  # name -> (fitness, lambda)
    "two_point_lam2": (TWO_POINT, 2.0),
    "cubic_gap_lam1": (CUBIC_GAP, 1.0),
    "cubic_gap_atom_lam2": (CUBIC_GAP_ATOM, 2.0),
    "beta_2_3_lam2": (BETA_2_3, 2.0),
    "uniform_lam1": ({"type": "uniform"}, 1.0),
}
PINNED_CHECK_KERNEL = {
    "poisson": "5ca233620cf52996eeca944218c095b017737867181cd852e1670d43d1d59e5a",
    "multinomial": "8a970a207e2fc63b9d1ac1937eb91b60a4d4910673040d944d448368023ebc2f",
    "pairs_demo": "9ce6ad2389d6f372434b93f31496591475b0fd01e5624233abb19f690aa691ac",
    "uniform_demo": "9dccfffda3c1bbc2b80f3ed71dc4e97c683cc9bb38b23163c5fe876a6fcebcd9",
    "bursty_demo": "6a6b7562d398eb2a6cfad4cd5e34a05fd26b2f43845dca8a0f444e04bb774beb",
    "coupled_demo": "971339984566cb238fcfaf7ac344943626e06301eb15603fa4e55b3ee1f785a7",
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


def small_config(
    out: Path, model: str, fitness: dict, lam: float, edge_log=False, n_target=4000
):
    return ExperimentConfig.from_dict(
        {
            "schema_version": 1,
            "model": {"type": model},
            "lambda": lam,
            "fitness": fitness,
            "n_target": n_target,
            "replicas": 2,
            "base_seed": 9103,
            "bins": 20,
            "max_tracked_impact": 10,
            "epsilon": 0.1,
            "edge_log": edge_log,
            "out_dir": str(out),
        }
    )


def config_for(name: str, out: Path) -> ExperimentConfig:
    return small_config(out, *SIM_CONFIGS[name])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_sim_tree_digest_is_pinned(name, workers, tmp_path):
    config = config_for(name, tmp_path)
    cli.cmd_simulate(config, out_dir=tmp_path, threads=workers)
    assert tree_digest(tmp_path / "sim") == PINNED[name]


def test_edges_csv_is_written_the_same_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_CHUNK", 7)  # many chunk boundaries, most inside a step
    name = "poisson_two_point_edge_log"
    cli.cmd_simulate(config_for(name, tmp_path), out_dir=tmp_path, threads=1)
    assert tree_digest(tmp_path / "sim") == PINNED[name]


@pytest.mark.parametrize("name", sorted(n for n in PINNED if n.endswith("_edge_log")))
def test_edge_log_is_read_the_same_across_chunks(name, tmp_path, monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK", 7)  # steps read seven vertices at a time
    cli.cmd_simulate(config_for(name, tmp_path), out_dir=tmp_path, threads=1)
    assert tree_digest(tmp_path / "sim") == PINNED[name]


def test_rerun_leaves_no_stale_files(tmp_path):
    name = "poisson_two_point"
    config = config_for(name, tmp_path)
    three = ExperimentConfig.from_dict({**config.to_dict(), "replicas": 3})
    cli.cmd_simulate(three, out_dir=tmp_path, threads=1)
    cli.cmd_simulate(config, out_dir=tmp_path, threads=1)
    assert sorted(p.name for p in (tmp_path / "sim").glob("replica_*")) == [
        "replica_000",
        "replica_001",
    ]
    assert tree_digest(tmp_path / "sim") == PINNED[name]


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_rerun_keeps_the_earlier_tree(workers, tmp_path, monkeypatch):
    name = "poisson_two_point"
    config = config_for(name, tmp_path)
    cli.cmd_simulate(config, out_dir=tmp_path, threads=workers)

    def audit(state):
        if state.streams.replica == 1:
            raise simulator.AuditError("boom")

    monkeypatch.setattr(simulator, "_audit", audit)
    with pytest.raises(simulator.AuditError, match=r"^replica 1: boom$"):
        cli.cmd_simulate(config, out_dir=tmp_path, threads=workers)
    assert [p.name for p in tmp_path.iterdir()] == ["sim"]  # no .sim-* staging left
    assert tree_digest(tmp_path / "sim") == PINNED[name]


@pytest.fixture
def no_compiler(monkeypatch):
    """Growth, resampling and fitness draws in a process where ``_urn.c``
    cannot be built: the growth loop's Python twin and the fitness draw's
    definition, 80 numpy bisection passes, run instead."""

    def fail():
        raise FileNotFoundError("no C compiler")

    monkeypatch.setattr(simulator, "_build_urn", fail)
    monkeypatch.setattr(simulator, "_urn_loop", None)


@pytest.mark.parametrize("workers", [1, 2])
def test_pure_python_fallback_writes_the_pinned_poisson_trees(
    workers, tmp_path, no_compiler, capfd
):
    for name in sorted(name for name in PINNED if SIM_CONFIGS[name][0] == "poisson"):
        out = tmp_path / name
        cli.cmd_simulate(config_for(name, out), out_dir=out, threads=workers)
        assert tree_digest(out / "sim") == PINNED[name]
    lines = capfd.readouterr().err.splitlines()
    # one line in all: the pool's workers inherit the caller's failed build
    assert len(lines) == 1 and "growing in pure Python" in lines[0]


def test_pure_python_fallback_draws_fitness_through_the_bisection(
    tmp_path, no_compiler, capfd, monkeypatch
):
    # every fitness draw of the pinned density tree goes through the numpy
    # bisection: the compiled replay is never reached
    solved = []
    draw = quantile_replay.BisectionReplay.__call__

    def counted_draw(self, t):
        solved.append(t.size)
        return draw(self, t)

    def compiled_law(self):
        raise AssertionError("the compiled replay was called")

    monkeypatch.setattr(quantile_replay.BisectionReplay, "__call__", counted_draw)
    monkeypatch.setattr(quantile_replay.BisectionReplay, "_law", compiled_law)
    name = "poisson_cubic_gap"
    config = config_for(name, tmp_path)
    cli.cmd_simulate(config, out_dir=tmp_path, threads=1)
    assert tree_digest(tmp_path / "sim") == PINNED[name]
    assert sum(solved) == config.replicas * config.n_target  # vertex 0 included
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and "growing in pure Python" in lines[0]


def test_packaged_copy_without_a_compiler_writes_the_pinned_tree(tmp_path, packaged):
    # the fallback as a user meets it: an installed copy with no cached
    # library, run on two processes where no ``cc`` is on PATH
    name = "poisson_cubic_gap"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_for(name, tmp_path).to_dict()))
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(packaged), "PATH": str(tmp_path / "no_cc")}
    argv = ["simulate", "--config", str(config), "--out", str(out), "--threads", "2"]
    done = subprocess.run(
        [sys.executable, "-m", "pafit", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert tree_digest(out / "sim") == PINNED[name]
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and "growing in pure Python" in lines[0]


@pytest.mark.parametrize("name", sorted(PINNED_THEORY))
def test_theory_tree_digest_is_pinned(name, tmp_path):
    config = small_config(tmp_path, "poisson", *THEORY_CONFIGS[name])
    cli.cmd_theory(config, out_dir=tmp_path)
    assert tree_digest(tmp_path / "theory") == PINNED_THEORY[name]


def check_kernel_digest(model: str, out: Path) -> str:
    config = ExperimentConfig.from_dict(
        {
            "schema_version": 1,
            "model": {"type": model},
            "lambda": 2.0,
            "fitness": TWO_POINT,
            "n_target": 1000,
            "replicas": 1,
            "base_seed": 20240810,
            "bins": 20,
            "max_tracked_impact": 10,
            "epsilon": 0.1,
            "out_dir": str(out),
        }
    )
    cli.cmd_check_kernel(config, out_dir=out, ns=(100, 1000), trials=2000)
    return hashlib.sha256((out / "check_kernel" / "report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(PINNED_CHECK_KERNEL))
def test_check_kernel_report_digest_is_pinned(model, tmp_path):
    assert check_kernel_digest(model, tmp_path) == PINNED_CHECK_KERNEL[model]


def test_pure_python_fallback_writes_the_pinned_builtin_check_kernel_reports(
    tmp_path, no_compiler, capfd
):
    # the Python twin of the growth loop serves resampling as well as growth
    for model in ("multinomial", "poisson"):
        assert check_kernel_digest(model, tmp_path / model) == PINNED_CHECK_KERNEL[model]
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and "growing in pure Python" in lines[0]
