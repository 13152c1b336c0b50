"""Empirics tests: snapshot bookkeeping identities (exact, integer
arithmetic), snapshots against the limit laws, aggregation, and the
criteria of ``evaluate`` on synthetic tables."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pafit import empirics as E
from pafit import limit_theory as LT
from pafit import measures as M
from pafit import simulator as S


def brute_force_snapshot(fitness, impact, edges, k_max):
    """Naive per-vertex recomputation of the binned measures."""
    n_bins = len(edges) - 1
    gamma = np.zeros(n_bins, dtype=np.int64)
    by_k = np.zeros((k_max + 1, n_bins), dtype=np.int64)
    for f, z in zip(fitness, impact):
        b = next(j for j in range(n_bins) if edges[j] < f <= edges[j + 1])
        gamma[b] += z
        by_k[min(z, k_max + 1) - 1, b] += 1
    return gamma, by_k


def binned_snapshot(state, bins, k_max):
    """A snapshot on ``bins`` uniform bins, binning the state's vertices as ``run`` does."""
    edges = E.uniform_edges(bins)
    return E.snapshot(state, edges, E.fitness_bins(state.fitness, edges), k_max=k_max)


@pytest.fixture
def grown_state(two_point):
    state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=99)
    S.run(state, 1500, bins=10, k_max=6)
    return state


class TestSnapshot:
    def test_single_vertex(self, uniform):
        state = S.new_graph(uniform, 1.0, S.PoissonOutdegree(), seed=1)
        snap = binned_snapshot(state, 5, k_max=3)
        assert snap.gamma_counts.sum() == 1
        assert snap.pk[0] == 1.0
        assert snap.max_impact == 1

    def test_matches_brute_force_exactly(self, grown_state):
        snap = binned_snapshot(grown_state, 13, k_max=6)
        gamma, by_k = brute_force_snapshot(
            grown_state.fitness, grown_state.impact, snap.edges, 6
        )
        assert np.array_equal(snap.gamma_counts, gamma)
        assert np.array_equal(snap.impact_counts, by_k)

    def test_counts_in_chunks_match_one_pass(self, grown_state, monkeypatch):
        whole = binned_snapshot(grown_state, 13, k_max=6)
        monkeypatch.setattr(E, "_BIN_CHUNK", 7)
        cut = binned_snapshot(grown_state, 13, k_max=6)
        assert np.array_equal(cut.gamma_counts, whole.gamma_counts)
        assert np.array_equal(cut.impact_counts, whole.impact_counts)

    def test_bin_sum_equals_total_impact(self, grown_state):
        snap = binned_snapshot(grown_state, 7, k_max=4)
        assert snap.gamma_counts.sum() == snap.total_impact
        assert snap.total_impact == grown_state.total_impact

    def test_m2_lambda1_bin_sum(self, two_point):
        state = S.new_graph(two_point, 1.0, S.FixedOutdegree(), seed=3)
        S.run(state, 1000, bins=10, k_max=5)
        snap = binned_snapshot(state, 10, k_max=5)
        assert snap.gamma_counts.sum() == 2 * 1000 - 1
        assert float(snap.gamma_mass.sum()) == pytest.approx((2 * 1000 - 1) / 1000)

    def test_pk_plus_tail_is_one_exactly(self, grown_state):
        snap = binned_snapshot(grown_state, 10, k_max=4)
        assert snap.impact_counts.sum() == snap.n
        tail_fraction = snap.impact_counts[-1].sum() / snap.n
        assert float(snap.pk.sum() + tail_fraction) == pytest.approx(1.0, abs=1e-15)

    def test_weighted_impact_counts_bounded_by_gamma(self, grown_state):
        snap = binned_snapshot(grown_state, 10, k_max=8)
        ks = np.arange(1, 9)[:, None]
        weighted = (snap.impact_counts[:-1] * ks).sum(axis=0)
        assert np.all(weighted <= snap.gamma_counts)
        big_k = binned_snapshot(grown_state, 10, k_max=snap.max_impact)
        ks = np.arange(1, snap.max_impact + 1)[:, None]
        weighted = (big_k.impact_counts[:-1] * ks).sum(axis=0)
        assert np.array_equal(weighted, big_k.gamma_counts)

    def test_atom_lands_in_last_bin(self, two_point):
        state = S.new_graph(two_point, 1.0, S.FixedOutdegree(), seed=5)
        S.run(state, 200, bins=4, k_max=3)
        snap = binned_snapshot(state, 4, k_max=3)
        fitness = np.asarray(state.fitness)
        impact = np.asarray(state.impact)
        assert snap.gamma_counts[-1] == impact[fitness == 1.0].sum()
        assert snap.gamma_counts[1] == impact[fitness == 0.5].sum()

    def test_run_bins_each_vertex_once_for_all_its_snapshots(self, cubic_gap):
        # two run calls: the second bins the vertices the first grew, and its
        # snapshots bincount prefixes of one index
        state = S.new_graph(cubic_gap, 1.0, S.PoissonOutdegree(), seed=17)
        S.run(state, 300, bins=7, k_max=3)
        binned, fitness_bins = [], E.fitness_bins

        def counted(fitness, *args, **kwargs):
            binned.append(len(fitness))
            return fitness_bins(fitness, *args, **kwargs)

        with mock.patch.object(E, "fitness_bins", counted):
            snaps = S.run(state, 3000, schedule=[300, 1000, 3000], bins=7, k_max=3)
        assert binned == [300, 2700]
        assert [s.n for s in snaps] == [300, 1000, 3000]
        fresh = binned_snapshot(state, 7, k_max=3)
        assert np.array_equal(snaps[-1].gamma_counts, fresh.gamma_counts)
        assert np.array_equal(snaps[-1].impact_counts, fresh.impact_counts)

    def test_fitness_bins_in_chunks_and_the_narrowest_dtype(self):
        fitness = np.random.default_rng(7).uniform(1e-9, 1.0, 3 * E._BIN_CHUNK // 2)
        fitness[:3] = [1.0, 0.5, 1e-300]
        for bins, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16)):
            edges = E.uniform_edges(bins)
            index = E.fitness_bins(fitness, edges)
            assert index.dtype == dtype
            b = index.astype(int)
            assert np.all(edges[b] < fitness) and np.all(fitness <= edges[b + 1])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_fitness_bins_equal_the_search(self, data):
        # the definition is numpy's search; edges are uniform, shifted off
        # atoms, or any sorted values (repeats allowed) from 0 to 1 or beyond
        bins = data.draw(st.integers(1, 300), label="bins")
        kind = data.draw(st.sampled_from(["uniform", "shifted", "sorted"]), label="kind")
        edges = E.uniform_edges(bins)
        if kind == "shifted" and bins > 1:
            atoms = data.draw(st.lists(st.sampled_from(edges[1:-1].tolist()), min_size=1,
                                       max_size=3, unique=True), label="atoms")
            points = [(a, 1.0 / (len(atoms) + 1)) for a in atoms] + [(1.0, 1.0 / (len(atoms) + 1))]
            edges = E.collision_free_edges(M.FiniteDiscrete(points), bins)
            assert not set(atoms) & set(edges.tolist())
        elif kind == "sorted":
            inner = data.draw(st.lists(st.floats(0.0, 1.0), max_size=40), label="inner")
            top = data.draw(st.sampled_from([1.0, 1.25]), label="top")
            edges = np.array([0.0, *sorted(inner), top])
        fitness = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [1.0, 5e-324], np.random.default_rng(bins).uniform(0.0, 1.0, 2000),
            data.draw(st.lists(st.floats(5e-324, 1.0), max_size=20), label="fitness"),
        ])
        index = E.fitness_bins(fitness, edges)
        searched = np.clip(np.searchsorted(edges, fitness, "left") - 1, 0, len(edges) - 2)
        assert index.dtype == E.index_dtype(edges)
        assert np.array_equal(index, searched)

    @pytest.mark.parametrize("edges", [[0.1, 1.0], [0.0, 0.9], [0.0]])
    def test_bin_edges_must_cover_the_unit_interval(self, edges):
        with pytest.raises(M.MeasureError, match="bin edges"):
            E.fitness_bins([0.5], edges)

    def test_collision_free_edges_shift_atoms(self, two_point):
        edges = E.collision_free_edges(two_point, 10)
        assert 0.5 not in edges
        assert edges[0] == 0.0 and edges[-1] == 1.0
        plain = E.collision_free_edges(M.Uniform01(), 10)
        assert np.array_equal(plain, E.uniform_edges(10))


FGR_CRITERIA = [
    "gamma_total_mass_3se",
    "normalisation_vs_theta_star",
    "gamma_max_bin_error",
    "impact_fraction_error_k1_5",
    "impact_law_l1_k1",
    "impact_law_l1_k2",
]
BE_CRITERIA = [
    "gamma_total_mass_3se",
    "normalisation_corridor",
    "normalisation_trend_increasing",
    "condensation_window_abs",
    "condensation_window_signature",
]
CUBIC_GAP = {"type": "density", "edges": [0.0, 1.0], "coeffs": [[3.0, -6.0, 3.0]]}
BE_FBAR = [0.80, 0.81, 0.82]  # rising towards theta* = 1 from below


def criteria_by_name(report: dict) -> dict[str, dict]:
    return {c["name"]: c for c in report["criteria"]}


class TestCompare:
    def test_limit_against_itself_is_zero(self, on_limit):
        config, theory, tables = on_limit([1.2965])
        report, outputs = E.evaluate(theory, tables, config, replicas=2)
        crit = criteria_by_name(report)
        for name in ("gamma_max_bin_error", "impact_fraction_error_k1_5",
                     "impact_law_l1_k1", "impact_law_l1_k2"):
            assert crit[name]["measured"] == 0.0, name
        header, rows = outputs["gamma_compare"]
        assert header[-1] == "abs_error" and all(row[-1] == 0.0 for row in rows)
        assert report["passed"]

    def test_fgr_criteria_names_and_order(self, on_limit):
        config, theory, tables = on_limit([1.2965])
        report, _ = E.evaluate(theory, tables, config, replicas=2)
        assert report["phase"] == "FitGetRicher"
        assert [c["name"] for c in report["criteria"]] == FGR_CRITERIA

    def test_custom_kernel_band_sums_bin_stderrs(self, on_limit):
        """A custom kernel has no known edge-count law: the band is 3 times
        the root sum of squares of the per-bin SEs, around 1 + lambda."""
        config, theory, tables = on_limit([1.2965], model={"type": "pairs_demo"})
        rows = tables["aggregate_gamma"]
        for b, row in enumerate(rows):
            row["stderr"] = 0.001 * (b + 1)
        band = 3.0 * math.sqrt(sum((0.001 * (b + 1)) ** 2 for b in range(len(rows))))
        for z, expected in ((2.9, True), (-2.9, True), (3.1, False), (-3.1, False)):
            rows[-1]["mean"] += 3.0 + z * band / 3.0 - sum(r["mean"] for r in rows)
            report, _ = E.evaluate(theory, tables, config, replicas=2)
            mass = criteria_by_name(report)["gamma_total_mass_3se"]
            assert mass["threshold"] == {"target": 3.0, "band": pytest.approx(band, rel=1e-12)}
            assert mass["passed"] is expected, (z, mass)

    def test_fgr_run_approaches_limit(self, two_point):
        gamma = LT.limit_gamma(two_point, 2.0)
        state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=7)
        snap = S.run(state, 30_000, bins=20, k_max=5)[-1]
        assert np.abs(snap.gamma_mass - gamma.bin_masses(snap.edges)).max() < 0.15
        assert snap.gamma_mass.sum() == pytest.approx(3.0, abs=0.05)

    def test_max_bin_error_trend(self, two_point):
        # eventually decreasing along checkpoints: first vs last
        gamma = LT.limit_gamma(two_point, 2.0)
        state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=11)
        snaps = S.run(state, 30_000, bins=20, k_max=5)
        errors = [np.abs(s.gamma_mass - gamma.bin_masses(s.edges)).max() for s in snaps]
        assert errors[-1] < errors[2]

    def test_gamma_k_comparison(self, two_point):
        theta = LT.solve_theta_star(two_point, 2.0)
        state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=13)
        snap = S.run(state, 30_000, bins=20, k_max=5)[-1]
        limit_k1 = LT.limit_gamma_k(two_point, theta, 1)
        assert np.abs(snap.impact_counts[0] / snap.n - limit_k1.bin_masses(snap.edges)).sum() < 0.1

    def test_mismatched_bins_rejected(self, on_limit):
        config, theory, tables = on_limit([1.2965])
        tables["gamma_bins"] = tables["gamma_bins"][::2]
        with pytest.raises(M.MeasureError, match="different bin edges"):
            E.evaluate(theory, tables, config, replicas=2)


class TestCondensation:
    def test_be_criteria_names_and_order(self, on_limit):
        config, theory, tables = on_limit(BE_FBAR, fitness=CUBIC_GAP, **{"lambda": 1.0})
        report, _ = E.evaluate(theory, tables, config, replicas=2)
        assert report["phase"] == "BoseEinstein"
        assert [c["name"] for c in report["criteria"]] == BE_CRITERIA
        assert report["passed"]

    @pytest.mark.parametrize("fbar_means", [[0.80], [0.80, 0.81]])
    def test_trend_needs_all_its_checkpoints(self, on_limit, fbar_means):
        # one or two rising points are no trend over three checkpoints
        config, theory, tables = on_limit(fbar_means, fitness=CUBIC_GAP, **{"lambda": 1.0})
        report, _ = E.evaluate(theory, tables, config, replicas=2)
        trend = criteria_by_name(report)["normalisation_trend_increasing"]
        assert trend["measured"] == fbar_means
        assert not trend["passed"] and not report["passed"]

    def test_predicted_window_be(self, on_limit):
        config, theory, tables = on_limit(BE_FBAR, fitness=CUBIC_GAP, **{"lambda": 1.0})
        report, _ = E.evaluate(theory, tables, config, replicas=2)
        window = criteria_by_name(report)["condensation_window_abs"]
        assert window["threshold"]["predicted"] == pytest.approx(0.015 + 0.5, abs=1e-8)

    def test_full_window_is_total_mass(self, on_limit):
        config, theory, tables = on_limit(
            BE_FBAR, fitness=CUBIC_GAP, epsilon=1.0, **{"lambda": 1.0}
        )
        for row in tables["aggregate_gamma"]:
            row["mean"] *= 0.5
        report, _ = E.evaluate(theory, tables, config, replicas=2)
        window = criteria_by_name(report)["condensation_window_abs"]
        assert window["threshold"]["predicted"] == pytest.approx(2.0, abs=1e-8)
        assert window["measured"] == pytest.approx(
            sum(row["mean"] for row in tables["aggregate_gamma"])
        )

    def test_unaligned_window_rejected(self, on_limit):
        config, theory, tables = on_limit(
            BE_FBAR, fitness=CUBIC_GAP, epsilon=0.05, **{"lambda": 1.0}
        )
        with pytest.raises(M.MeasureError, match="epsilon window"):
            E.evaluate(theory, tables, config, replicas=2)


class TestAggregate:
    def test_mean_and_stderr(self, two_point):
        runs = []
        for replica in range(3):
            state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=23, replica=replica)
            runs.append(S.run(state, 512, bins=8, k_max=4))
        agg = E.aggregate(runs)[-1]
        snaps = [run[-1] for run in runs]
        fbars = np.array([s.fbar for s in snaps])
        assert agg.fbar_mean == pytest.approx(fbars.mean())
        assert agg.fbar_stderr == pytest.approx(fbars.std(ddof=1) / np.sqrt(3))
        gammas = np.stack([s.gamma_mass for s in snaps])
        assert np.allclose(agg.gamma_mean, gammas.mean(axis=0))
        assert agg.replicas == 3

    def test_mismatched_snapshots_rejected(self, two_point):
        state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=23)
        snaps = S.run(state, 64, bins=8, k_max=4)
        with pytest.raises(M.MeasureError):
            E.aggregate([[snaps[-1]], [snaps[-2]]])
        with pytest.raises(M.MeasureError):
            E.aggregate([snaps, snaps[:-1]])

    def test_aggregation_order_invariant(self, two_point):
        runs = []
        for replica in range(3):
            state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=29, replica=replica)
            runs.append(S.run(state, 256, bins=8, k_max=4))
        a = E.aggregate(runs)[-1]
        b = E.aggregate(list(reversed(runs)))[-1]
        assert a.fbar_mean == b.fbar_mean
        assert np.array_equal(a.gamma_mean, b.gamma_mean)

    @pytest.mark.parametrize("bins, k_max", [(8, 4), (1, 1)])
    @pytest.mark.parametrize("replicas", [2, 9])
    def test_every_checkpoint_has_the_bits_of_its_own_stack(self, two_point, replicas, bins, k_max):
        # numpy sums one checkpoint's stack of tables row by row but a
        # column of single values pairwise, which differs from 8 replicas up
        runs = []
        for replica in range(replicas):
            state = S.new_graph(two_point, 2.0, S.PoissonOutdegree(), seed=31, replica=replica)
            runs.append(S.run(state, 300, bins=bins, k_max=k_max))
        for agg, snaps in zip(E.aggregate(runs), zip(*runs)):
            for name, rows in [
                ("fbar", np.array([[s.fbar] for s in snaps])),
                ("gamma", np.stack([s.gamma_mass for s in snaps])),
                ("gamma_k", np.stack([s.impact_counts[:-1] / s.n for s in snaps])),
                ("pk", np.stack([s.pk for s in snaps])),
            ]:
                mean, stderr = rows.mean(axis=0), rows.std(axis=0, ddof=1) / math.sqrt(replicas)
                got = np.array([getattr(agg, f"{name}_mean"), getattr(agg, f"{name}_stderr")])
                assert got.tobytes() == np.array([mean.reshape(got[0].shape),
                                                  stderr.reshape(got[0].shape)]).tobytes(), name
            assert agg.total_impact_mean == np.mean([s.total_impact for s in snaps])
            assert agg.max_impact_mean == np.mean([s.max_impact for s in snaps])
