"""Simulator tests: construction, one-step laws, bookkeeping, determinism,
and the token urn, which every model draws from: its draws against a naive
linear-scan oracle over the impacts, the urn under built-in and
custom-kernel growth, the compiled growth loop against its Python twin,
batched resampling of a frozen transition against one draw at a time, and
the edge log read off the urn against each step's impact differences."""

import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pafit import kernel_contract as K
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


def urn_draw(state, uniforms):
    """One draw of the state's urn, fed a fixed uniform sequence."""
    return state.pick(SimpleNamespace(random=iter(uniforms).__next__))


def step(state):
    """One growth step through ``run``: a one-vertex checkpoint."""
    S.run(state, state.n + 1, schedule=[state.n + 1], bins=5, k_max=3)


def law_and_model(density, kind, lam):
    """The law 3(1-f)^2 or the two-point law, and a model of the given kind."""
    dist = (
        M.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),))
        if density
        else M.FiniteDiscrete([(0.5, 0.5), (1.0, 0.5)])
    )
    model = {
        "poisson": S.PoissonOutdegree(),
        "multinomial": S.FixedOutdegree(),
        "pairs": K.pair_emitting_kernel(lam),  # custom kernel, two edges per pick
    }[kind]
    return dist, model


def pick_kernel(lam):
    """lam token-urn picks a step through ``GraphState.pick``: the fixed-outdegree law."""
    return S.CustomKernel(
        lambda state, rng: Counter(state.pick(rng) for _ in range(int(lam))), label="picks"
    )


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

    @pytest.mark.parametrize(
        "model", [S.PoissonOutdegree(), S.FixedOutdegree()], ids=["poisson", "multinomial"]
    )
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_lambda_rejected(self, two_point, lam, model):
        with pytest.raises(M.MeasureError, match="positive and finite"):
            S.new_graph(two_point, lam, model, seed=1)

    def test_unnormalised_distribution_rejected(self):
        raw = M.FiniteDiscrete([(0.25, 0.5), (0.5, 0.5)])
        with pytest.raises(M.MeasureError):
            S.new_graph(raw, 1.0, S.PoissonOutdegree(), seed=1)


class TestStep:
    def test_single_old_vertex_gets_the_edge(self, two_point):
        state = S.new_graph(two_point, 1.0, S.FixedOutdegree(), seed=5)
        step(state)
        assert list(state.impact) == [2, 1]
        assert state.edge_count == 1

    def test_fixed_outdegree_impact_increment(self, two_point):
        state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=5)
        for _ in range(50):
            before = state.total_impact
            step(state)
            assert state.total_impact == before + 1 + 2

    def test_poisson_outdegree_distribution(self, uniform):
        # outdegree of vertex 2 given G_1 is Poisson(lambda); chi-square on 1e5 draws
        lam = 2.0
        state = S.new_graph(uniform, lam, S.PoissonOutdegree(), seed=7)
        trials = 100_000
        counts = np.zeros(12, dtype=int)
        rows = K.sample_counts(state.model, state, state.streams, trials, range(state.n))
        np.add.at(counts, np.minimum(rows.sum(axis=1), 11), 1)  # every vertex tracked
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
            step(state)
        assert state.n == 21
        assert all(z >= 1 for z in state.impact)

    def test_multigraph_multiplicity_counted(self, two_point):
        # lambda = 4 onto a single old vertex: all four edges hit it
        state = S.new_graph(two_point, 4.0, S.FixedOutdegree(), seed=9)
        step(state)
        assert state.impact[0] == 5
        assert state.total_impact == 6

    def test_custom_kernel_negative_increment_rejected(self, uniform):
        kernel = S.CustomKernel(lambda state, rng: {0: -1})
        state = S.new_graph(uniform, 1.0, kernel, seed=1)
        with pytest.raises(M.MeasureError):
            step(state)


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
        state = S.GraphState.from_arrays([1.0, 1.0], [1, 3], 1.0, S.PoissonOutdegree())
        assert list(state.tokens) == [0, 1, 1, 1]
        assert urn_draw(state, [0.1, 0.0]) == 0  # token int(0.1 * 4) = 0
        assert urn_draw(state, [0.5, 0.0]) == 1  # token 2

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        marks=st.lists(
            st.tuples(st.floats(1e-3, 1.0), st.integers(1, 20)), min_size=1, max_size=64
        ),
        u=st.floats(0.0, 1.0, exclude_max=True),
        v=st.floats(0.0, 1.0, exclude_max=True),
        retry=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_matches_linear_scan_hypothesis(self, marks, u, v, retry):
        # pairs (u, v) then (retry, 0): the oracle keeps the scanned target if v < F
        fitness, impacts = zip(*marks)
        state = S.GraphState.from_arrays(fitness, impacts, 1.0, S.PoissonOutdegree())
        first = linear_scan_pick(impacts, u)
        expected = first if v < fitness[first] else linear_scan_pick(impacts, retry)
        assert urn_draw(state, [u, v, retry, 0.0]) == expected


class TestFromArrays:
    @pytest.mark.parametrize(
        "fitness, impact",
        [(0.0, 1), (1.5, 1), (math.nan, 1), (0.5, 0)],
        ids=["fitness-0", "fitness-1.5", "fitness-nan", "impact-0"],
    )
    def test_invalid_vertex_rejected(self, fitness, impact):
        with pytest.raises(M.MeasureError):
            S.GraphState.from_arrays([0.5, fitness], [2, impact], 1.0, S.PoissonOutdegree())

    def test_lengths_must_match(self):
        with pytest.raises(M.MeasureError):
            S.GraphState.from_arrays([0.5, 0.5], [1], 1.0, S.PoissonOutdegree())

    def test_tokens_in_index_order_and_weight_of_a_running_sum(self):
        rng = np.random.default_rng(61)
        fitness = rng.uniform(1e-3, 1.0, 500).tolist()
        impact = rng.integers(1, 21, 500).tolist()
        state = S.GraphState.from_arrays(fitness, impact, 2.0, S.PoissonOutdegree())
        assert list(state.tokens) == [i for i, z in enumerate(impact) for _ in range(z)]
        total = 0.0
        for f, z in zip(fitness, impact):
            total += f * z
        assert state.total_weight.hex() == total.hex()
        assert list(state.fitness) == fitness and list(state.impact) == impact
        assert (state.total_impact, state.edge_count) == (sum(impact), sum(impact) - 500)
        assert state.streams is None


class TestTokenUrn:
    FITNESS = [1.0, 0.5, 0.25, 0.8, 0.1, 0.6, 0.95]
    IMPACT = [1, 3, 7, 2, 10, 1, 4]

    @pytest.mark.parametrize("model", [S.PoissonOutdegree(), S.FixedOutdegree(), pick_kernel(3.0)])
    def test_one_step_law_chi_square(self, model):
        # pooled draws of the frozen one-step transition against lambda w_i / W
        lam, trials = 3.0, 20_000
        state = S.GraphState.from_arrays(self.FITNESS, self.IMPACT, lam=lam, model=model)
        streams = S.ReplicaStreams(3)
        counts = K.sample_counts(model, state, streams, trials, range(state.n)).sum(axis=0)
        weights = np.asarray(self.FITNESS) * np.asarray(self.IMPACT)
        expected = trials * lam * weights / weights.sum()
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # pooled Poisson counts are independent; a fixed total costs one df
        dof = state.n if isinstance(model, S.PoissonOutdegree) else state.n - 1
        assert stats.chi2.sf(chi2, dof) > 1e-3
        assert list(state.impact) == self.IMPACT  # the draws left the state frozen

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([1.0, 2.0, 3.0]),
        kind=st.sampled_from(["poisson", "multinomial", "pairs"]),
        density=st.booleans(),
        n=st.integers(1, 400),
        stepped=st.integers(0, 20),
    )
    def test_tokens_mirror_impacts(self, seed, lam, kind, density, n, stepped):
        dist, model = law_and_model(density, kind, lam)
        state = S.new_graph(dist, lam, model, seed=seed)
        S.run(state, n, bins=5, k_max=3)
        for _ in range(stepped):
            step(state)
        assert Counter(state.tokens) == dict(enumerate(state.impact))
        assert len(state.tokens) == state.total_impact
        exact = math.fsum(f * z for f, z in zip(state.fitness, state.impact))
        assert state.total_weight == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([1.0, 2.0, 3.0]),
        kind=st.sampled_from(["poisson", "multinomial", "pairs"]),
        density=st.booleans(),
        n=st.integers(1, 300),
        cuts=st.lists(st.integers(1, 300), max_size=6),
        tail=st.integers(0, 12),
    )
    def test_growth_is_independent_of_segmentation(
        self, seed, lam, kind, density, n, cuts, tail
    ):
        # checkpoints and single steps only cut the same chain into pieces:
        # the bookkeeping batched per piece must not depend on where
        dist, model = law_and_model(density, kind, lam)
        cut = S.new_graph(dist, lam, model, seed=seed)
        S.run(cut, n, schedule=sorted({c for c in cuts if c <= n}), bins=5, k_max=3)
        for _ in range(tail):
            step(cut)
        whole = S.new_graph(dist, lam, model, seed=seed)
        S.run(whole, n + tail, schedule=[n + tail], bins=5, k_max=3)
        assert cut.tokens == whole.tokens
        assert cut.fitness == whole.fitness
        assert cut.impact == whole.impact
        assert cut.total_weight.hex() == whole.total_weight.hex()
        assert (cut.total_impact, cut.edge_count) == (whole.total_impact, whole.edge_count)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([1.0, 2.0, 3.0]),
        kind=st.sampled_from(["poisson", "multinomial", "pairs"]),
        density=st.booleans(),
        n=st.integers(1, 120),
    )
    def test_edge_log_reads_each_step_off_the_urn(self, seed, lam, kind, density, n):
        # one vertex at a time: step v's targets are its impact differences,
        # listed in the order they first occur among the tokens it appended
        dist, model = law_and_model(density, kind, lam)
        state = S.new_graph(dist, lam, model, seed=seed)
        reference = []
        while state.n < n:
            v, impact, begin = state.n, list(state.impact), len(state.tokens)
            step(state)
            gained = {i: z - before for i, (z, before) in enumerate(zip(state.impact, impact))}
            drawn = state.tokens[begin:]
            assert drawn[-1] == v
            order = list(dict.fromkeys(drawn[:-1]))
            assert sorted(order) == [i for i, d in gained.items() if d]
            reference += [[v, i, gained[i]] for i in order]
        rows = S.edge_log(state)
        assert rows.dtype == np.intc and rows.shape == (len(reference), 3)
        assert rows.tolist() == reference

    @pytest.mark.parametrize("model", [S.PoissonOutdegree(), S.FixedOutdegree()])
    def test_resampling_leaves_a_grown_state_frozen(self, cubic_gap, model):
        state = S.new_graph(cubic_gap, 2.0, model, seed=59)
        S.run(state, 500, bins=5, k_max=3)
        before = (
            list(state.tokens), list(state.fitness), list(state.impact),
            state.total_weight, state.total_impact, state.edge_count,
        )
        drawn = K.sample_counts(model, state, state.streams, 50, range(state.n)).sum()
        assert drawn > 0
        after = (
            list(state.tokens), list(state.fitness), list(state.impact),
            state.total_weight, state.total_impact, state.edge_count,
        )
        assert after == before

    def test_audit_counts_tokens(self, two_point):
        for model in (S.PoissonOutdegree(), pick_kernel(2.0)):
            state = S.new_graph(two_point, 2.0, model, seed=43)
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

    def test_audit_resums_across_chunks(self):
        # three whole re-sum chunks and a partial one; the bound is 1e-9 relative
        n = 3 * S._CHUNK + 12_345
        rng = np.random.default_rng(61)
        fitness = 1.0 - rng.random(n)
        impact = rng.integers(1, 50, size=n)
        state = S.GraphState.from_arrays(fitness, impact, 2.0, pick_kernel(2.0))
        S._audit(state)  # W as built, a running sum
        exact = math.fsum(f * z for f, z in zip(fitness.tolist(), impact.tolist()))
        for drift in (0.0, 0.5e-9):
            state.total_weight = exact * (1.0 + drift)
            S._audit(state)
        for drift in (2e-9, -2e-9):
            state.total_weight = exact * (1.0 + drift)
            with pytest.raises(S.AuditError, match="total weight"):
                S._audit(state)

    def test_every_state_keeps_tokens_and_a_pick(self, uniform):
        for model in (S.PoissonOutdegree(), S.FixedOutdegree(), pick_kernel(1.0)):
            state = S.new_graph(uniform, 1.0, model, seed=53)
            assert list(state.tokens) == [0]
            assert state.pick(np.random.default_rng(53)) == 0
            S.run(state, 200, bins=5, k_max=3)
            assert Counter(state.tokens) == dict(enumerate(state.impact))
            picks = [state.pick(np.random.default_rng(seed)) for seed in range(50)]
            assert all(0 <= i < state.n for i in picks)


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
        # one checkpoint and 399 one-vertex checkpoints must produce identical states
        a = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=23)
        S.run(a, 400, schedule=[400], bins=5, k_max=3)
        b = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=23)
        while b.n < 400:
            step(b)
        assert a.fitness == b.fitness
        assert a.impact == b.impact
        assert np.array_equal(S.edge_log(a), S.edge_log(b))

    def test_poisson_run_equals_repeated_step(self, uniform):
        a = S.new_graph(uniform, 1.0, S.PoissonOutdegree(), seed=29)
        S.run(a, 400, schedule=[100, 400], bins=5, k_max=3)
        b = S.new_graph(uniform, 1.0, S.PoissonOutdegree(), seed=29)
        while b.n < 400:
            step(b)
        assert a.fitness == b.fitness
        assert a.impact == b.impact
        assert np.array_equal(S.edge_log(a), S.edge_log(b))

    def test_determinism_same_seed(self, cubic_gap):
        runs = []
        for _ in range(2):
            state = S.new_graph(cubic_gap, 1.0, S.PoissonOutdegree(), seed=31)
            snaps = S.run(state, 2000, bins=10, k_max=5)
            runs.append((S.edge_log(state).tolist(), [s.fbar for s in snaps]))
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
        # kernel that mimics the fixed-outdegree law through the urn's pick
        def draw(state, rng):
            return {state.pick(rng): 1}

        state = S.new_graph(uniform, 1.0, S.CustomKernel(draw), seed=41)
        snaps = S.run(state, 500, bins=5, k_max=3)
        assert snaps[-1].total_impact == 2 * 500 - 1


class GivenCounts:
    """A built-in model stand-in whose outdegrees are fixed in advance."""

    def __init__(self, counts):
        self.counts = np.asarray(counts, dtype=np.int64)

    def outdegrees(self, lam, streams, size):
        taken, self.counts = self.counts[:size], self.counts[size:]
        return taken


def cut_stream(seed, sizes, ties):
    """Uniforms in blocks of the given ``sizes`` (cyclically); 30% of the
    acceptance uniforms (the odd places of the stream), on average, are set
    to one of the values ``ties``. Returns the stream and a one-element list
    counting the values served."""
    rng = np.random.default_rng(seed)
    sizes = itertools.cycle(sizes)
    served = [0]

    def refill():
        u = rng.random(next(sizes))
        accept = u[1 - served[0] % 2 :: 2]
        if ties:
            tie = rng.random(accept.size) < 0.3
            accept[tie] = rng.choice(ties, tie.sum())
        served[0] += u.size
        return u

    return S._Stream(refill), served


def flat_reader(refill):
    """One value at a time from the blocks that ``refill`` returns."""
    return itertools.chain.from_iterable(iter(lambda: refill().tolist(), None)).__next__


def reference_draw(tokens, fitness, count, uniform):
    """``count`` token-urn draws against ``tokens`` as it is, one uniform at a time."""
    size, targets = len(tokens), []
    for _ in range(count):
        i = tokens[int(uniform() * size)]
        while uniform() >= fitness[i]:
            i = tokens[int(uniform() * size)]
        targets.append(i)
    return targets


def reference_growth_and_draws(fitness, lam, seed, plan):
    """Pure-Python growth and resampled transitions of a Poisson state:
    channel 1 read as one flat sequence and channel 2 one count at a time,
    each through a single reader, and the urn as a list. ``plan`` holds
    ("run", n) and ("draw", repeats) items; returns the tokens and the
    drawn targets."""

    def reader(channel, block):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, channel))
        rng = np.random.Generator(np.random.PCG64(seq))
        return flat_reader(lambda: block(rng))

    uniform = reader(1, lambda rng: rng.random(S._BLOCK))
    count = reader(2, lambda rng: rng.poisson(lam, 1))
    tokens, drawn = [0], []

    def draw():
        return reference_draw(tokens, fitness, count(), uniform)

    n = 1
    for kind, arg in plan:
        if kind == "draw":
            drawn += [draw() for _ in range(arg)]
        while kind == "run" and n < arg:
            tokens += draw() + [n]
            n += 1
    return tokens, drawn


FITNESS = st.one_of(st.sampled_from([1.0, 0.5, 0.25, 1e-3]), st.floats(1e-3, 1.0))


class TestGrowMemory:
    BYTES_PER_TOKEN = 2.0  # transient allocations above the grown state

    def test_growth_holds_nothing_per_token_beside_the_state(self, two_point):
        # the loop counts impacts and the total weight itself, so a growth
        # call allocates nothing the size of its appended tokens beside the
        # state: no copy of them, no array of their fitnesses, no index cast
        state = S.new_graph(two_point, 2.0, S.PoissonOutdegree(), seed=83)
        marks = M.quantile(two_point, state.streams.fitness.random(100_000))
        S._compiled_urn()  # built before tracing
        first = len(state.tokens)
        tracemalloc.start()
        try:
            S._grow(state, marks)
            grown, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        appended = len(state.tokens) - first
        assert appended > 250_000
        assert (peak - grown) / appended <= self.BYTES_PER_TOKEN


class TestCompiledUrn:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        old=st.lists(st.tuples(FITNESS, st.integers(1, 10)), min_size=1, max_size=20),
        new=st.lists(st.tuples(FITNESS, st.integers(0, 10)), min_size=1, max_size=30),
        cuts=st.lists(st.integers(1, 24), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_compiled_loop_matches_python_loop(self, old, new, cuts, seed):
        # the same growth call, compiled and through its Python twin, on
        # blocks cut small so that the compiled loop stops and resumes mid-step
        if S._compiled_urn() is None:
            pytest.skip("no working C compiler")
        fitness, impact = zip(*old)
        marks = np.array([f for f, _ in new])
        ties = sorted({f for f in fitness + tuple(marks.tolist()) if f < 1.0})
        grown = []
        for compiled in (True, False):
            state = S.GraphState.from_arrays(fitness, impact, 1.0, None)
            state.model = GivenCounts([c for _, c in new])
            stream, served = cut_stream(seed, [2 * c for c in cuts], ties)
            state.streams = SimpleNamespace(edges=stream)
            urn = S._compiled_urn() if compiled else None
            with mock.patch.object(S, "_compiled_urn", lambda: urn):
                S._grow(state, marks)
            read = served[0] - (len(stream.block) - stream.pos)
            grown.append((list(state.tokens), list(state.impact), state.total_weight.hex(), read))
        assert grown[0] == grown[1]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        old=st.lists(st.tuples(FITNESS, st.integers(1, 10)), min_size=1, max_size=20),
        outdegrees=st.lists(st.integers(0, 10), min_size=2, max_size=30),
        picks=st.lists(st.integers(0, 19), min_size=1, max_size=8),
        sizes=st.lists(st.integers(1, 49), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_resampling_matches_one_trial_at_a_time(
        self, old, outdegrees, picks, sizes, seed
    ):
        # blocks of odd sizes end between a try's two uniforms, so the loop
        # stops mid-try and resumes on the next block
        fitness, impact = zip(*old)
        ties = sorted({f for f in fitness if f < 1.0})
        tracked = list(dict.fromkeys(v % len(old) for v in picks))
        for urn in (S._compiled_urn(), None):
            state = S.GraphState.from_arrays(fitness, impact, 1.0, None)
            stream, served = cut_stream(seed, sizes, ties)
            streams = SimpleNamespace(edges=stream)
            model, trials = GivenCounts(outdegrees), len(outdegrees)
            with mock.patch.object(S, "_compiled_urn", lambda: urn):
                counts = K.sample_counts(model, state, streams, trials, tracked)
            reads = [0]
            values = flat_reader(cut_stream(seed, sizes, ties)[0]._refill)

            def uniform():
                reads[0] += 1
                return values()

            expected = np.zeros_like(counts)
            for t, count in enumerate(outdegrees):
                targets = Counter(reference_draw(list(state.tokens), fitness, count, uniform))
                expected[t] = [targets[v] for v in tracked]
            assert counts.tolist() == expected.tolist()
            assert served[0] - (len(stream.block) - stream.pos) == reads[0]
            assert list(state.tokens) == [i for i, z in enumerate(impact) for _ in range(z)]

    def test_draws_and_growth_share_one_stream_per_channel(self, two_point):
        # transitions resampled between growth calls read where growth
        # stopped, on both channels, across channel 1's block boundaries;
        # the growth call to 9000 takes its outdegrees in two chunks, and
        # the reference takes them one at a time, so channel 2's counts
        # must not depend on how their reads are cut
        plan = [("draw", 2), ("run", 40), ("draw", 3), ("run", 41), ("draw", 1),
                ("run", 9000), ("draw", 4), ("run", 12000), ("draw", 3)]
        state = S.new_graph(two_point, 2.0, S.PoissonOutdegree(), seed=71)
        drawn = []
        for kind, arg in plan:
            if kind == "run":
                S.run(state, arg, schedule=[arg], bins=5, k_max=3)
            else:
                rows = K.sample_counts(state.model, state, state.streams, arg, range(state.n))
                drawn += [Counter({i: int(c) for i, c in enumerate(row) if c}) for row in rows]
        tokens, targets = reference_growth_and_draws(list(state.fitness), 2.0, 71, plan)
        assert list(state.tokens) == tokens
        assert drawn == [Counter(t) for t in targets]

    def test_packaged_module_finds_its_source(self, tmp_path, packaged):
        # an installed pafit without _urn.c would silently grow in pure Python
        probe = "from pafit import simulator as S; print(S._URN_SOURCE.is_file(), S._URN_SOURCE)"
        env = {**os.environ, "PYTHONPATH": str(packaged)}
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert out.stdout.split() == ["True", str(tmp_path / "lib" / "pafit" / "_urn.c")]

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_source_builds_cleanly_without_fused_multiply_adds(self, tmp_path):
        # the build's own flags keep every floating-point operation as
        # written and tune for no CPU: _urn.c selects its vectors at run time
        flags = S._URN_FLAGS
        assert "-ffp-contract=off" in flags
        assert not [f for f in flags if f.startswith("-march") or f in ("-ffast-math", "-Ofast")]
        lib = tmp_path / "urn.so"
        # -Wpsabi warns where a vector argument's ABI depends on the target
        command = ["cc", *flags, "-Wall", "-Wextra", "-Werror", "-o", str(lib), str(S._URN_SOURCE)]
        built = subprocess.run(command, capture_output=True, text=True)
        assert built.returncode == 0, built.stderr
        if shutil.which("objdump") is not None:
            listing = subprocess.run(
                ["objdump", "-d", str(lib)], capture_output=True, text=True, check=True
            ).stdout
            assert not re.findall(r"\bv(fmadd|fmsub|fnmadd)\w*", listing)
