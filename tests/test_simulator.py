"""Simulator tests: construction, one-step laws, bookkeeping, determinism,
the token-urn engine, and the prefix-sum sampler against a naive
linear-scan oracle."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pafit import measures as M
from pafit import simulator as S


def linear_scan_pick(weights, u):
    """Independent oracle: first index whose running sum exceeds u * total."""
    total = 0.0
    for w in weights:
        total += w
    target = u * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if acc > target:
            return i
    return len(weights) - 1


class TestNewGraph:
    def test_initial_state(self, uniform):
        state = S.new_graph(uniform, 3.0, S.PoissonOutdegree(), seed=42)
        assert state.n == 1
        assert list(state.impact) == [1]
        assert state.total_impact == 1
        assert state.edge_count == 0

    def test_same_seed_same_first_fitness(self, uniform):
        a = S.new_graph(uniform, 3.0, S.PoissonOutdegree(), seed=42)
        b = S.new_graph(uniform, 3.0, S.PoissonOutdegree(), seed=42)
        assert a.fitness == b.fitness

    def test_fixed_outdegree_needs_integer_lambda(self, two_point):
        with pytest.raises(M.MeasureError):
            S.new_graph(two_point, 1.5, S.FixedOutdegree(), seed=1)

    def test_unnormalised_distribution_rejected(self):
        raw = M.FiniteDiscrete([(0.25, 0.5), (0.5, 0.5)])
        with pytest.raises(M.MeasureError):
            S.new_graph(raw, 1.0, S.PoissonOutdegree(), seed=1)


class TestStep:
    def test_single_old_vertex_gets_the_edge(self, two_point):
        state = S.new_graph(two_point, 1.0, S.FixedOutdegree(), seed=5)
        S.step(state)
        assert list(state.impact) == [2, 1]
        assert state.edge_count == 1

    def test_fixed_outdegree_impact_increment(self, two_point):
        state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=5)
        for _ in range(50):
            before = state.total_impact
            S.step(state)
            assert state.total_impact == before + 1 + 2

    def test_poisson_outdegree_distribution(self, uniform):
        # outdegree of vertex 2 given G_1 is Poisson(lambda); chi-square on 1e5 draws
        lam = 2.0
        state = S.new_graph(uniform, lam, S.PoissonOutdegree(), seed=7)
        trials = 100_000
        counts = np.zeros(12, dtype=int)
        for _ in range(trials):
            incs = state.model.draw_increments(state, state.streams)
            counts[min(sum(incs.values()), 11)] += 1
        expected = np.array(
            [stats.poisson.pmf(k, lam) for k in range(11)] + [stats.poisson.sf(10, lam)]
        ) * trials
        keep = expected > 5
        chi2 = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        pvalue = stats.chi2.sf(chi2, keep.sum() - 1)
        assert pvalue > 1e-3

    def test_zero_outdegree_step_is_legal(self, uniform):
        state = S.new_graph(uniform, 0.01, S.PoissonOutdegree(), seed=3)
        for _ in range(20):
            S.step(state)
        assert state.n == 21
        assert all(z >= 1 for z in state.impact)

    def test_multigraph_multiplicity_counted(self, two_point):
        # lambda = 4 onto a single old vertex: all four edges hit it
        state = S.new_graph(two_point, 4.0, S.FixedOutdegree(), seed=9)
        S.step(state)
        assert state.impact[0] == 5
        assert state.total_impact == 6

    def test_custom_kernel_negative_increment_rejected(self, uniform):
        kernel = S.CustomKernel(lambda view, rng: {0: -1})
        state = S.new_graph(uniform, 1.0, kernel, seed=1)
        with pytest.raises(M.MeasureError):
            S.step(state)


class TestFbar:
    def test_direct_formula_n1(self):
        state = S.GraphState.from_arrays([0.7], [1], lam=2.0, model=S.PoissonOutdegree())
        assert S.fbar(state) == pytest.approx(0.35, abs=1e-15)

    def test_long_run_corridor(self, two_point):
        # lambda >= 1 config: both the spec corridor and the tighter
        # lambda-corrected corridor hold for the second-half time average
        lam = 2.0
        state = S.new_graph(two_point, lam, S.FixedOutdegree(), seed=11)
        snaps = S.run(state, 30_000, bins=10, k_max=5)
        mean_fit = M.mean_fitness(two_point)
        second_half = [s.fbar for s in snaps if s.n >= 15_000]
        avg = sum(second_half) / len(second_half)
        assert mean_fit - 0.05 <= avg <= 1.0 + lam + 0.05
        assert mean_fit / lam - 0.05 <= avg <= (1.0 + lam) / lam + 0.05


class TestSampler:
    def test_spec_examples(self):
        tree = S.PrefixSumTree([1.0, 3.0])  # weights of F = (1, 1), Z = (1, 3)
        assert tree.find(0.1 * tree.total) == 0  # 0.1 * 4 < 1
        assert tree.find(0.5 * tree.total) == 1  # 2 >= 1

    def test_matches_linear_scan_on_grid(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 200))
            weights = rng.uniform(0.01, 1.0, n)
            tree = S.PrefixSumTree(weights.tolist())
            for u in np.linspace(0.0, 0.999, 61):
                assert tree.find(u * tree.total) == linear_scan_pick(weights, u)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        weights=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=64),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_matches_linear_scan_hypothesis(self, weights, u):
        tree = S.PrefixSumTree(weights)
        assert tree.find(u * tree.total) == linear_scan_pick(weights, u)

    def test_prefix_tree_bookkeeping(self, rng):
        values = rng.uniform(0.0, 2.0, 500)
        expected = values.copy()
        tree = S.PrefixSumTree(values[:100].tolist())
        for v in values[100:]:
            tree.append(float(v))
        for idx in rng.integers(0, 500, 50):
            tree.add(int(idx), 0.25)
            expected[int(idx)] += 0.25
        # the midpoint of each element's share of the total picks that element
        mids = (np.cumsum(expected) - expected / 2.0) / expected.sum()
        for i, u in enumerate(mids):
            assert tree.find(u * tree.total) == linear_scan_pick(expected, u) == i
        assert tree.total == pytest.approx(expected.sum(), rel=1e-12)


class TestTokenUrn:
    FITNESS = [1.0, 0.5, 0.25, 0.8, 0.1, 0.6, 0.95]
    IMPACT = [1, 3, 7, 2, 10, 1, 4]

    @pytest.mark.parametrize("model", [S.PoissonOutdegree(), S.FixedOutdegree()])
    def test_one_step_law_chi_square(self, model):
        # pooled draws of the frozen one-step transition against lambda w_i / W
        lam, trials = 3.0, 20_000
        state = S.GraphState.from_arrays(self.FITNESS, self.IMPACT, lam=lam, model=model, seed=3)
        counts = np.zeros(state.n)
        for _ in range(trials):
            for i, c in model.draw_increments(state, state.streams).items():
                counts[i] += c
        weights = np.asarray(self.FITNESS) * np.asarray(self.IMPACT)
        expected = trials * lam * weights / weights.sum()
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # pooled Poisson counts are independent; the fixed total costs one df
        dof = state.n if isinstance(model, S.PoissonOutdegree) else state.n - 1
        assert stats.chi2.sf(chi2, dof) > 1e-3
        assert list(state.impact) == self.IMPACT  # the draws left the state frozen

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([1.0, 2.0, 3.0]),
        poisson=st.booleans(),
        density=st.booleans(),
        n=st.integers(1, 400),
        stepped=st.integers(0, 20),
    )
    def test_tokens_mirror_impacts(self, seed, lam, poisson, density, n, stepped):
        dist = (
            M.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),))
            if density
            else M.FiniteDiscrete([(0.5, 0.5), (1.0, 0.5)])
        )
        model = S.PoissonOutdegree() if poisson else S.FixedOutdegree()
        state = S.new_graph(dist, lam, model, seed=seed)
        S.run(state, n, bins=5, k_max=3)
        for _ in range(stepped):
            S.step(state)
        assert Counter(state.tokens) == dict(enumerate(state.impact))
        assert len(state.tokens) == state.total_impact
        exact = math.fsum(f * z for f, z in zip(state.fitness, state.impact))
        assert state.total_weight == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([1.0, 2.0, 3.0]),
        poisson=st.booleans(),
        density=st.booleans(),
        n=st.integers(1, 300),
        cuts=st.lists(st.integers(1, 300), max_size=6),
        tail=st.integers(0, 12),
    )
    def test_growth_is_independent_of_segmentation(
        self, seed, lam, poisson, density, n, cuts, tail
    ):
        # checkpoints and single steps only cut the same chain into pieces:
        # the bookkeeping batched per piece must not depend on where
        dist = (
            M.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),))
            if density
            else M.FiniteDiscrete([(0.5, 0.5), (1.0, 0.5)])
        )
        model = S.PoissonOutdegree() if poisson else S.FixedOutdegree()
        cut = S.new_graph(dist, lam, model, seed=seed, edge_log=True)
        S.run(cut, n, schedule=sorted({c for c in cuts if c <= n}), bins=5, k_max=3)
        for _ in range(tail):
            S.step(cut)
        whole = S.new_graph(dist, lam, model, seed=seed, edge_log=True)
        S.run(whole, n + tail, schedule=[n + tail], bins=5, k_max=3)
        assert cut.tokens == whole.tokens
        assert cut.fitness == whole.fitness
        assert cut.impact == whole.impact
        assert cut.edge_log == whole.edge_log
        assert cut.total_weight.hex() == whole.total_weight.hex()
        assert (cut.total_impact, cut.edge_count) == (whole.total_impact, whole.edge_count)

    @pytest.mark.parametrize("model", [S.PoissonOutdegree(), S.FixedOutdegree()])
    def test_draw_increments_leaves_a_grown_state_frozen(self, cubic_gap, model):
        state = S.new_graph(cubic_gap, 2.0, model, seed=59, edge_log=True)
        S.run(state, 500, bins=5, k_max=3)
        before = (
            list(state.tokens), list(state.fitness), list(state.impact),
            state.total_weight, state.total_impact, state.edge_count, list(state.edge_log),
        )
        drawn = sum(sum(model.draw_increments(state, state.streams).values()) for _ in range(50))
        assert drawn > 0
        after = (
            list(state.tokens), list(state.fitness), list(state.impact),
            state.total_weight, state.total_impact, state.edge_count, list(state.edge_log),
        )
        assert after == before

    def test_audit_counts_tokens(self, two_point):
        state = S.new_graph(two_point, 2.0, S.PoissonOutdegree(), seed=43)
        S.run(state, 64, bins=5, k_max=3)
        state.tokens.pop()
        with pytest.raises(S.AuditError, match="token"):
            S.run(state, 128, bins=5, k_max=3)

    def test_audit_resums_total_weight(self, two_point):
        state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=47)
        S.run(state, 64, bins=5, k_max=3)
        state.total_weight += 1e-6
        with pytest.raises(S.AuditError, match="total weight"):
            S.run(state, 128, bins=5, k_max=3)

    def test_only_custom_states_keep_a_weight_index(self, uniform):
        builtin = S.new_graph(uniform, 1.0, S.PoissonOutdegree(), seed=53)
        assert builtin.tree is None and builtin.view().pick is None
        custom = S.new_graph(uniform, 1.0, S.CustomKernel(lambda view, rng: {}), seed=53)
        assert custom.tokens is None
        assert custom.view().pick(0.5) == 0


class TestRun:
    def test_run_to_current_size_returns_one_snapshot(self, uniform):
        state = S.new_graph(uniform, 1.0, S.PoissonOutdegree(), seed=2)
        snaps = S.run(state, 1)
        assert len(snaps) == 1
        assert snaps[0].n == 1
        assert snaps[0].pk[0] == 1.0

    def test_run_backwards_rejected(self, uniform):
        state = S.new_graph(uniform, 1.0, S.PoissonOutdegree(), seed=2)
        S.run(state, 16)
        with pytest.raises(M.MeasureError):
            S.run(state, 8)

    def test_total_impact_identity(self, two_point):
        state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=13)
        snaps = S.run(state, 5000, bins=10, k_max=5)
        final = snaps[-1]
        assert final.total_impact == state.n + state.edge_count
        assert final.total_impact == 3 * 5000 - 2  # 1 + lambda edges per step, exactly

    def test_poisson_total_impact_rate(self, uniform):
        lam = 1.5
        state = S.new_graph(uniform, lam, S.PoissonOutdegree(), seed=17)
        snaps = S.run(state, 20_000, bins=10, k_max=5)
        n = snaps[-1].n
        se = np.sqrt(lam * n)
        assert abs(snaps[-1].total_impact - (1 + lam) * n) <= 3 * se + lam + 1

    def test_weight_index_matches_full_resum(self, cubic_gap):
        state = S.new_graph(cubic_gap, 1.0, S.PoissonOutdegree(), seed=19)
        S.run(state, 10_000, bins=10, k_max=5)
        resum = float(np.dot(np.asarray(state.fitness), np.asarray(state.impact, dtype=float)))
        assert state.total_weight == pytest.approx(resum, rel=1e-9)

    def test_run_equals_repeated_step(self, two_point):
        # the inlined hot loop and the generic step must produce identical states
        a = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=23, edge_log=True)
        S.run(a, 400, schedule=[400], bins=5, k_max=3)
        b = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=23, edge_log=True)
        while b.n < 400:
            S.step(b)
        assert a.fitness == b.fitness
        assert a.impact == b.impact
        assert a.edge_log == b.edge_log

    def test_poisson_run_equals_repeated_step(self, uniform):
        a = S.new_graph(uniform, 1.0, S.PoissonOutdegree(), seed=29, edge_log=True)
        S.run(a, 400, schedule=[100, 400], bins=5, k_max=3)
        b = S.new_graph(uniform, 1.0, S.PoissonOutdegree(), seed=29, edge_log=True)
        while b.n < 400:
            S.step(b)
        assert a.fitness == b.fitness
        assert a.impact == b.impact
        assert a.edge_log == b.edge_log

    def test_determinism_same_seed(self, cubic_gap):
        runs = []
        for _ in range(2):
            state = S.new_graph(cubic_gap, 1.0, S.PoissonOutdegree(), seed=31, edge_log=True)
            snaps = S.run(state, 2000, bins=10, k_max=5)
            runs.append((state.edge_log, [s.fbar for s in snaps]))
        assert runs[0] == runs[1]

    def test_replicas_differ(self, cubic_gap):
        fbars = []
        for replica in (0, 1):
            state = S.new_graph(cubic_gap, 1.0, S.PoissonOutdegree(), seed=31, replica=replica)
            S.run(state, 2000, bins=10, k_max=5)
            fbars.append(S.fbar(state))
        assert fbars[0] != fbars[1]

    def test_observers_called_per_checkpoint(self, uniform):
        seen = []
        state = S.new_graph(uniform, 1.0, S.PoissonOutdegree(), seed=37)
        S.run(state, 64, observers=[lambda st, snap: seen.append(snap.n)], bins=5, k_max=3)
        assert seen == [1, 2, 4, 8, 16, 32, 64]

    def test_custom_kernel_runs(self, uniform):
        # kernel that mimics the fixed-outdegree law through the public view
        def draw(view, rng):
            i = view.pick(rng.random())
            return {i: 1}

        state = S.new_graph(uniform, 1.0, S.CustomKernel(draw), seed=41)
        snaps = S.run(state, 500, bins=5, k_max=3)
        assert snaps[-1].total_impact == 2 * 500 - 1
