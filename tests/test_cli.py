"""CLI tests: config validation, command outputs, byte-for-byte
reproducibility, and output-directory confinement."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pafit import cli, empirics, kernel_contract, simulator
from pafit.config import ConfigError, ExperimentConfig
from pafit.measures import MeasureError


def small_config(tmp_path, **overrides) -> ExperimentConfig:
    data = {
        "schema_version": 1,
        "model": {"type": "multinomial"},
        "lambda": 2.0,
        "fitness": {"type": "discrete", "points": [[0.5, 0.5], [1.0, 0.5]]},
        "n_target": 2000,
        "checkpoints": None,
        "replicas": 2,
        "base_seed": 424242,
        "bins": 20,
        "max_tracked_impact": 8,
        "epsilon": 0.1,
        "out_dir": str(tmp_path / "runs"),
        "edge_log": False,
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


NON_FINITE_FITNESS = {  # json reads NaN and Infinity; none of these is a law
    "discrete_nan_mass": {"type": "discrete", "points": [[0.5, math.nan], [0.7, 0.5], [1.0, 0.5]]},
    "density_nan_coeff": {
        "type": "density", "edges": [0.0, 1.0], "coeffs": [[math.nan]], "atom_at_one": 0.5
    },
    "density_nan_edge": {
        "type": "density", "edges": [0.0, math.nan, 1.0], "coeffs": [[1.0], [1.0]]
    },
    "beta_infinite_alpha": {"type": "beta", "alpha": math.inf, "beta": 2.0},
    "beta_nan_beta": {"type": "beta", "alpha": 2.0, "beta": math.nan},
}


def write_config(path: Path, config: ExperimentConfig) -> None:
    path.write_text(json.dumps(config.to_dict()))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfig:
    def test_round_trip(self, tmp_path):
        config = small_config(tmp_path)
        path = tmp_path / "config.json"
        write_config(path, config)
        assert ExperimentConfig.load(path) == config

    def test_unknown_key_rejected(self, tmp_path):
        data = small_config(tmp_path).to_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_wrong_schema_version_rejected(self, tmp_path):
        data = small_config(tmp_path).to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_multinomial_integer_lambda(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, **{"lambda": 1.5})

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lambda_rejected(self, tmp_path, lam):
        with pytest.raises(ConfigError):
            small_config(tmp_path, model={"type": "poisson"}, **{"lambda": lam})

    @pytest.mark.parametrize("name", sorted(NON_FINITE_FITNESS))
    def test_non_finite_fitness_rejected(self, tmp_path, name):
        with pytest.raises(ConfigError, match="finite"):
            small_config(tmp_path, fitness=NON_FINITE_FITNESS[name])

    def test_dirac_fitness_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, fitness={"type": "discrete", "points": [[1.0, 1.0]]})

    def test_unnormalised_fitness_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(
                tmp_path, fitness={"type": "discrete", "points": [[0.25, 0.5], [0.5, 0.5]]}
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_target", 2000.5),
            ("n_target", "2000"),
            ("replicas", 2.7),
            ("replicas", True),
            ("bins", "20"),
            ("checkpoints", [1.5, 10]),
            ("checkpoints", "10"),
            ("lambda", "2.0"),
            ("lambda", True),
            ("epsilon", "0.1"),
            ("edge_log", "false"),
            ("edge_log", 1),
        ],
    )
    def test_ill_typed_value_rejected(self, tmp_path, key, value):
        data = {**small_config(tmp_path).to_dict(), key: value}
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(data)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert cli.main(["theory", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_integral_floats_are_integers(self, tmp_path):
        config = small_config(tmp_path, n_target=2e3, replicas=2.0, checkpoints=[1e1, 2e3])
        assert (config.n_target, config.replicas, config.checkpoints) == (2000, 2, (10, 2000))
        assert all(type(v) is int for v in (config.n_target, config.replicas, *config.checkpoints))

    def test_bad_checkpoints_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, checkpoints=[10, 5])
        with pytest.raises(ConfigError):
            small_config(tmp_path, checkpoints=[10, 999999])


class TestTheory:
    def test_two_point_summary(self, tmp_path):
        config = small_config(tmp_path)
        payload = cli.cmd_theory(config, out_dir=tmp_path / "out")
        assert payload["phase"] == "FitGetRicher"
        assert payload["theta_star"] == pytest.approx(1.29653516, abs=1e-6)
        assert (tmp_path / "out/theory/pk.csv").exists()
        assert (tmp_path / "out/theory/gamma_density.csv").exists()

    def test_condensation_summary(self, tmp_path):
        config = small_config(
            tmp_path,
            model={"type": "poisson"},
            **{"lambda": 1.0},
            fitness={"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]},
        )
        payload = cli.cmd_theory(config, out_dir=tmp_path / "out")
        assert payload["phase"] == "BoseEinstein"
        assert payload["theta_star"] == 1.0
        assert payload["condensate_mass"] == pytest.approx(0.5, abs=1e-9)

    def test_uniform_is_fit_get_richer(self, tmp_path):
        config = small_config(
            tmp_path, model={"type": "poisson"}, **{"lambda": 1.0}, fitness={"type": "uniform"}
        )
        payload = cli.cmd_theory(config, out_dir=tmp_path / "out")
        assert payload["phase"] == "FitGetRicher"

    def test_byte_identical_between_runs(self, tmp_path):
        config = small_config(tmp_path)
        cli.cmd_theory(config, out_dir=tmp_path / "a")
        cli.cmd_theory(config, out_dir=tmp_path / "b")
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


class TestSimulate:
    def test_outputs_and_reproducibility(self, tmp_path):
        config = small_config(tmp_path, n_target=1500)
        agg_a = cli.cmd_simulate(config, out_dir=tmp_path / "a", threads=1)
        agg_b = cli.cmd_simulate(config, out_dir=tmp_path / "b", threads=2)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        final = agg_a[1500]
        assert final.replicas == 2
        assert (tmp_path / "a/sim/replica_000/trajectory.csv").exists()
        assert (tmp_path / "a/sim/replica_001/hist_00001500.csv").exists()
        assert (tmp_path / "a/sim/aggregate_pk.csv").exists()
        # sim/ is staged under a mkdtemp (mode 0o700) but made by a plain mkdir
        assert (tmp_path / "a/sim").stat().st_mode == (tmp_path / "a").stat().st_mode

    def test_uneven_split_writes_one_tree(self, tmp_path):
        # 3 replicas: the caller runs 3, 2 (pool of 1) or 1 (pool of 2) of them
        config = small_config(tmp_path, n_target=600, replicas=3)
        for threads in (1, 2, 3, 8):
            cli.cmd_simulate(config, out_dir=tmp_path / str(threads), threads=threads)
        trees = [tree_bytes(tmp_path / str(threads)) for threads in (1, 2, 3, 8)]
        assert {name.split("/")[1] for name in trees[0] if "/replica_" in name} == {
            "replica_000", "replica_001", "replica_002"
        }
        assert all(tree == trees[0] for tree in trees[1:])

    def test_pool_builds_the_urn_once(self, tmp_path, monkeypatch):
        # the caller loads _urn.c before it forks the pool: no worker
        # compiles or loads the library again
        builds = tmp_path / "builds"
        build = simulator._build_urn

        def logged_build():
            with builds.open("a") as log:
                log.write(f"{os.getpid()}\n")
            return build()

        monkeypatch.setattr(simulator, "_build_urn", logged_build)
        monkeypatch.setattr(simulator, "_urn_loop", None)
        config = small_config(tmp_path, model={"type": "poisson"}, n_target=300)
        cli.cmd_simulate(config, out_dir=tmp_path / "out", threads=2)
        assert builds.read_text().splitlines() == [str(os.getpid())]

    def test_replicas_distinct(self, tmp_path):
        config = small_config(tmp_path, n_target=800)
        cli.cmd_simulate(config, out_dir=tmp_path / "out", threads=1)
        a = (tmp_path / "out/sim/replica_000/trajectory.csv").read_text()
        b = (tmp_path / "out/sim/replica_001/trajectory.csv").read_text()
        assert a != b

    def test_writes_only_inside_out_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        config = small_config(tmp_path, n_target=300, replicas=1)
        cli.cmd_simulate(config, out_dir=tmp_path / "only_here", threads=1)
        assert list(workdir.iterdir()) == []

    def test_edge_log_toggle(self, tmp_path):
        config = small_config(tmp_path, n_target=200, replicas=1, edge_log=True)
        cli.cmd_simulate(config, out_dir=tmp_path / "out", threads=1)
        edges = (tmp_path / "out/sim/replica_000/edges.csv").read_text().splitlines()
        assert len(edges) >= 200  # header + at least one edge row per step

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: a native pool runs one thread")
    def test_replica_keeps_to_one_cpu(self, tmp_path):
        # a pool worker that wakes a native thread pool (a BLAS call) leaves
        # its threads spinning on the CPU the pool's other worker needs
        probe = f"""
import resource, time
from pathlib import Path
from pafit import cli, simulator
config = {small_config(tmp_path, model={"type": "poisson"}, n_target=200_000).to_dict()!r}
simulator._compiled_urn()
def cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime
cpu_0, wall_0 = cpu(), time.perf_counter()
cli._replica_worker((config, 0, Path({str(tmp_path / 'out')!r})))
print(time.perf_counter() - wall_0, cpu() - cpu_0)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        wall, cpu = map(float, out.stdout.split())
        assert cpu <= 1.3 * wall, f"replica used {cpu:.3f} s of CPU in {wall:.3f} s"


class TestCompare:
    @pytest.fixture
    def complete_run(self, tmp_path):
        config = small_config(tmp_path, n_target=4000, replicas=3)
        out = tmp_path / "out"
        cli.cmd_theory(config, out_dir=out)
        cli.cmd_simulate(config, out_dir=out, threads=2)
        return config, out

    def test_report_written(self, complete_run):
        config, out = complete_run
        report = cli.cmd_compare(config, out_dir=out)
        names = {c["name"] for c in report["criteria"]}
        assert "normalisation_vs_theta_star" in names
        assert "gamma_total_mass_3se" in names
        assert (out / "compare/report.json").exists()
        assert (out / "compare/gamma_compare.csv").exists()

    def test_total_mass_band_is_exact_poisson_se(self, on_limit):
        """The Poisson edge count is exactly Poisson(lambda (n-1)): the band is
        3 exact SE around 1 + lambda (n-1)/n, whatever the per-bin SEs say."""
        n, lam, replicas = 600, 2.0, 2
        config, theory, tables = on_limit([1.2965], n_target=n)
        target = 1.0 + lam * (n - 1) / n
        se = math.sqrt(lam * (n - 1) / (replicas * n * n))
        rows = tables["aggregate_gamma"]
        for z, expected in ((1.46, True), (2.9, True), (-2.9, True), (3.1, False), (-3.1, False)):
            # a tiny per-bin spread, as when two replicas fill the same two bins
            rows[-1]["mean"] += target + z * se - sum(r["mean"] for r in rows)
            for row in rows:
                row["stderr"] = 1e-6
            report, _ = empirics.evaluate(theory, tables, config, replicas)
            mass = next(c for c in report["criteria"] if c["name"] == "gamma_total_mass_3se")
            assert mass["threshold"]["target"] == pytest.approx(target, abs=1e-15)
            assert mass["threshold"]["band"] == pytest.approx(3.0 * se, rel=1e-12)
            assert mass["passed"] is expected, (z, mass)

    def test_fixed_outdegree_total_mass_is_exact(self, on_limit):
        """Every fixed-outdegree replica has exactly lambda (n-1) edges: the
        total is checked against 1 + lambda (n-1)/n exactly, however wide
        the per-bin SEs are, so a run that lost 1% of its mass fails."""
        n, lam = 4000, 2.0
        config, theory, tables = on_limit([1.2965], model={"type": "multinomial"}, n_target=n)
        exact = 1.0 + lam * (n - 1) / n
        rows = tables["aggregate_gamma"]
        for scale, expected in ((1.0, True), (0.99, False)):
            rows[-1]["mean"] += scale * exact - sum(r["mean"] for r in rows)
            for row in rows:
                row["stderr"] = 0.05
            report, _ = empirics.evaluate(theory, tables, config, 3)
            mass = next(c for c in report["criteria"] if c["name"] == "gamma_total_mass_3se")
            assert mass["threshold"]["target"] == pytest.approx(exact, abs=1e-15)
            assert mass["passed"] is expected, (scale, mass)

    def test_lambda_mismatch_rejected(self, complete_run, tmp_path):
        config, out = complete_run
        doctored = json.loads((out / "theory/limit_summary.json").read_text())
        doctored["lambda"] = 3.0
        (out / "theory/limit_summary.json").write_text(json.dumps(doctored))
        with pytest.raises(Exception, match="lambda mismatch"):
            cli.cmd_compare(config, out_dir=out)

    @pytest.mark.parametrize(
        "path, side", [("theory/limit_summary.json", "theory"), ("sim/summary.json", "simulation")]
    )
    def test_fitness_mismatch_rejected(self, complete_run, path, side):
        config, out = complete_run
        doctored = json.loads((out / path).read_text())
        doctored["fitness"] = {"type": "discrete", "points": [[0.5, 0.25], [1.0, 0.75]]}
        (out / path).write_text(json.dumps(doctored))
        with pytest.raises(MeasureError, match=f"fitness mismatch: {side} files"):
            cli.cmd_compare(config, out_dir=out)

    def test_model_mismatch_rejected(self, complete_run):
        """The model sets the total-mass band, so a run compared under another
        model's config is refused rather than judged by the wrong band."""
        config, out = complete_run
        for model in ({"type": "poisson"}, {"type": "pairs_demo"}):
            other = ExperimentConfig.from_dict({**config.to_dict(), "model": model})
            with pytest.raises(MeasureError, match="model mismatch"):
                cli.cmd_compare(other, out_dir=out)

    @pytest.mark.parametrize(
        "key, value", [("n_target", 3000), ("bins", 10), ("max_tracked_impact", 5)]
    )
    def test_simulation_shape_mismatch_rejected(self, complete_run, key, value):
        """A run made under another size, binning or impact range is refused,
        not reported on silently."""
        config, out = complete_run
        other = ExperimentConfig.from_dict({**config.to_dict(), key: value})
        with pytest.raises(MeasureError, match=f"{key} mismatch: simulation files"):
            cli.cmd_compare(other, out_dir=out)

    def test_theory_impact_range_mismatch_rejected(self, complete_run):
        """Theory written for fewer impact levels than the simulation tracks
        is refused with exit code 2, not an IndexError (exit code 1)."""
        config, out = complete_run
        fewer = ExperimentConfig.from_dict({**config.to_dict(), "max_tracked_impact": 3})
        cli.cmd_theory(fewer, out_dir=out)
        with pytest.raises(MeasureError, match="max_tracked_impact mismatch: theory files"):
            cli.cmd_compare(config, out_dir=out)
        path = out / "config.json"
        write_config(path, config)
        assert cli.main(["compare", "--config", str(path), "--out", str(out)]) == 2

    def test_empty_run_dir_rejected(self, tmp_path):
        config = small_config(tmp_path)
        with pytest.raises(Exception, match="run `theory` first"):
            cli.cmd_compare(config, out_dir=tmp_path / "nothing")


class TestCheckKernel:
    def test_builtin_passes(self, tmp_path):
        config = small_config(tmp_path)
        payload = cli.cmd_check_kernel(
            config, out_dir=tmp_path / "out", ns=(100, 400), trials=4000
        )
        assert payload["verdicts"]["A1"] == "pass"
        assert (tmp_path / "out/check_kernel/report.json").exists()

    def test_pathological_fails_a4(self, tmp_path):
        config = small_config(tmp_path, model={"type": "pairs_demo"})
        payload = cli.cmd_check_kernel(
            config, out_dir=tmp_path / "out", ns=(100, 400), trials=4000
        )
        assert payload["verdicts"]["A4"] == "fail"


class TestMain:
    def test_end_to_end_via_argv(self, tmp_path):
        config = small_config(tmp_path, n_target=600, replicas=2)
        path = tmp_path / "config.json"
        write_config(path, config)
        out = str(tmp_path / "cli_out")
        assert cli.main(["theory", "--config", str(path), "--out", out]) == 0
        assert (
            cli.main(["simulate", "--config", str(path), "--out", out, "--threads", "1"]) == 0
        )
        rc = cli.main(["compare", "--config", str(path), "--out", out])
        assert rc in (0, 1)  # criteria may fail at this tiny n; command still works
        assert (Path(out) / "compare/report.json").exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        config = small_config(tmp_path)
        path = tmp_path / "config.json"
        write_config(path, config)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv(cli.ENV_OUT, str(env_out))
        assert cli.main(["theory", "--config", str(path)]) == 0
        assert (env_out / "theory/limit_summary.json").exists()

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1}')
        assert cli.main(["theory", "--config", str(path)]) == 2

    @pytest.mark.parametrize("lam", ["NaN", "Infinity"])
    def test_non_finite_lambda_exits_2(self, tmp_path, lam):
        # json reads NaN and Infinity; neither may reach the sampler
        data = small_config(
            tmp_path,
            model={"type": "poisson"},
            fitness={"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]},
        ).to_dict()
        text = json.dumps(data).replace('"lambda": 2.0', f'"lambda": {lam}')
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "cli_out"
        argv = ["simulate", "--config", str(path), "--out", str(out), "--threads", "1"]
        assert cli.main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(NON_FINITE_FITNESS))
    def test_non_finite_fitness_exits_2(self, tmp_path, capsys, name):
        data = {**small_config(tmp_path).to_dict(), "fitness": NON_FINITE_FITNESS[name]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "cli_out"
        assert cli.main(["theory", "--config", str(path), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_replicas_flag_is_validated_as_config(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path, small_config(tmp_path, n_target=300))
        out = tmp_path / "cli_out"
        argv = ["simulate", "--config", str(path), "--out", str(out), "--threads", "1"]
        assert cli.main(argv + ["--replicas", "0"]) == 2
        assert not out.exists()  # rejected before anything is written
        assert cli.main(argv + ["--replicas", "1"]) == 0
        assert json.loads((out / "sim/summary.json").read_text())["replicas"] == 1

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, threads):
        path = tmp_path / "config.json"
        write_config(path, small_config(tmp_path, n_target=300))
        out = tmp_path / "cli_out"
        argv = ["simulate", "--config", str(path), "--out", str(out), "--threads", threads]
        assert cli.main(argv) == 2
        assert not out.exists()  # rejected before anything is written

    # with 3 replicas on 2 processes, replica 1 fails in the caller's own
    # share while the pool still holds replica 2
    @pytest.mark.parametrize(
        "threads, replicas", [(1, 2), (2, 2), (2, 3)], ids=["1", "2", "2-of-3"]
    )
    @pytest.mark.parametrize("error", [simulator.AuditError, MeasureError])
    def test_failing_replica_is_named(
        self, tmp_path, monkeypatch, capsys, error, threads, replicas
    ):
        def audit(state):
            if state.streams.replica == 1:
                raise error("boom")

        monkeypatch.setattr(simulator, "_audit", audit)
        config = small_config(tmp_path, n_target=300, replicas=replicas)
        with pytest.raises(error, match=r"^replica 1: boom$"):
            cli.cmd_simulate(config, out_dir=tmp_path / "lib_out", threads=threads)
        path = tmp_path / "config.json"
        write_config(path, config)
        out = tmp_path / "cli_out"
        argv = ["simulate", "--config", str(path), "--out", str(out), "--threads", str(threads)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: replica 1: boom\n"
        assert not out.exists()

    def test_failure_in_callers_share_waits_for_the_pool(self, tmp_path, monkeypatch):
        # a pool torn down while a worker sends its result can hang, so the
        # caller lets the pool's replicas finish before it raises
        done = tmp_path / "replica_2_done"

        def audit(state):
            if state.streams.replica == 1:
                raise simulator.AuditError("boom")
            if state.streams.replica == 2 and state.n == 300:
                time.sleep(0.2)
                done.touch()

        monkeypatch.setattr(simulator, "_audit", audit)
        config = small_config(tmp_path, n_target=300, replicas=3)
        with pytest.raises(simulator.AuditError, match=r"^replica 1: boom$"):
            cli.cmd_simulate(config, out_dir=tmp_path / "out", threads=2)
        assert done.exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("model", "poisson", "model"),
            ("model", ["poisson"], "model"),
            ("fitness", {"type": "discrete", "points": [0.5, 1.0]}, "points"),
            ("fitness", {"type": "discrete"}, "points"),
        ],
    )
    def test_malformed_model_or_fitness_exits_2(self, tmp_path, capsys, key, value, named):
        data = {**small_config(tmp_path).to_dict(), key: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "cli_out"
        assert cli.main(["theory", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("trials", [0, 1])
    def test_check_kernel_needs_two_trials(self, tmp_path, trials):
        path = tmp_path / "config.json"
        write_config(path, small_config(tmp_path))
        out = tmp_path / "cli_out"
        argv = ["check-kernel", "--config", str(path), "--out", str(out), "--trials", str(trials)]
        assert cli.main(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags, forwarded", [([], {}), (["--trials", "7"], {"trials": 7})])
    def test_check_kernel_forwards_only_set_sizes(self, tmp_path, monkeypatch, flags, forwarded):
        # ns and trials default in one place: run_contract_suite's signature
        seen = {}

        def suite(model, dist, lam, *, base_seed, **sizes):
            seen.update(sizes)
            raise MeasureError("stop before sampling")

        monkeypatch.setattr(kernel_contract, "run_contract_suite", suite)
        path = tmp_path / "config.json"
        write_config(path, small_config(tmp_path))
        assert cli.main(["check-kernel", "--config", str(path), *flags]) == 2
        assert seen == forwarded
