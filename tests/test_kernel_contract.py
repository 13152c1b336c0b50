"""Contract-check tests: built-ins must pass, each demonstration kernel must
fail its designated condition, reports must be deterministic, and the
statistics reach their edge verdicts on hand-built samples."""

import json
import math

import numpy as np
import pytest

from pafit import kernel_contract as KC
from pafit import measures as M
from pafit import simulator as S


@pytest.fixture(scope="module")
def fgr_state(request):
    two_point = M.FiniteDiscrete([(0.5, 0.5), (1.0, 0.5)])
    state = S.new_graph(two_point, 2.0, S.PoissonOutdegree(), seed=77)
    S.run(state, 2000, bins=10, k_max=5)
    return state


# probe streams (base seed 0) of the resampled samples below
A1_PROBE, A2_PROBE, A3_A5_PROBE = 1_000_000, 1_000_001, 1_000_002


def sample(model, state, trials, replica):
    """``(state, counts, tracked)``: ``trials`` resampled transitions of
    ``state``'s test vertices, drawn from stream (0, ``replica``)."""
    tracked = KC.select_test_vertices(state)
    streams = S.ReplicaStreams(0, replica=replica)
    return state, KC.sample_counts(model, state, streams, trials, tracked), tracked


def flat_state(n):
    """n vertices of fitness 1 and impact 1 at lambda = 2: E[dZ(i)] = 2/n."""
    return S.GraphState.from_arrays([1.0] * n, [1] * n, lam=2.0, model=S.PoissonOutdegree())


class TestA1:
    def test_m2_single_vertex_deterministic(self, two_point):
        state = S.new_graph(two_point, 2.0, S.FixedOutdegree(), seed=1)
        result = KC.check_A1(*sample(S.FixedOutdegree(), state, 200, A1_PROBE))
        assert result.verdict == KC.PASS
        assert result.stats["worst_z"] == 0.0

    def test_poisson_passes(self, fgr_state):
        result = KC.check_A1(*sample(S.PoissonOutdegree(), fgr_state, 20_000, A1_PROBE))
        assert result.verdict == KC.PASS

    def test_uniform_kernel_fails_on_skewed_state(self):
        # state with strongly unequal weights: formula and uniform attachment
        # differ by far more than 5 standard errors at the heavy vertex
        fitness = [1.0] + [0.1] * 49
        impact = [200] + [1] * 49
        state = S.GraphState.from_arrays(fitness, impact, lam=2.0, model=S.PoissonOutdegree())
        result = KC.check_A1(*sample(KC.uniform_target_kernel(2.0), state, 20_000, A1_PROBE))
        assert result.verdict == KC.FAIL
        assert result.stats["worst_z"] > 5.0

    def test_underpowered_zero_columns_are_skipped(self):
        """All-zero columns whose expected hit count target * trials is at
        most log(2 * 6 / 1e-3) say nothing: with no vertex left, A1 is
        inconclusive. One trial more than that bound, they fail."""
        state, tracked = flat_state(1000), list(range(6))
        bound = math.log(2 * len(tracked) / KC.A1_SIGNIFICANCE)
        trials = math.floor(bound / (2.0 / 1000))  # 4696 trials: 9.392 <= 9.3927 expected hits
        result = KC.check_A1(state, np.zeros((trials, 6), dtype=np.int32), tracked)
        assert result.verdict == KC.INCONCLUSIVE
        assert result.stats["skipped"] == tracked
        assert result.stats["vertices"] == []
        result = KC.check_A1(state, np.zeros((trials + 1, 6), dtype=np.int32), tracked)
        assert result.verdict == KC.FAIL
        assert result.stats["skipped"] == []
        assert result.stats["worst_z"] == math.inf


class TestA2:
    def test_poisson_ratio_near_one(self, fgr_state):
        result = KC.check_A2(*sample(S.PoissonOutdegree(), fgr_state, 20_000, A2_PROBE))
        assert result.verdict == KC.PASS
        assert result.stats["c_var"] == pytest.approx(1.0, abs=0.15)

    def test_multinomial_ratio_at_most_one(self, fgr_state):
        result = KC.check_A2(*sample(S.FixedOutdegree(), fgr_state, 20_000, A2_PROBE))
        assert result.verdict == KC.PASS
        assert result.stats["c_var"] <= 1.05

    def test_too_few_hits_is_inconclusive(self):
        """A vertex enters A2 with 30 nonzero draws, not with 29."""
        state, tracked = flat_state(100), [0, 1]
        for hits, verdict in ((29, KC.INCONCLUSIVE), (30, KC.PASS)):
            counts = np.zeros((1000, 2), dtype=np.int32)
            counts[:hits] = 1
            result = KC.check_A2(state, counts, tracked)
            assert result.verdict == verdict, hits
        assert result.stats["c_var"] == pytest.approx((1.0 - 30 / 1000) * 1000 / 999)

    def test_trend_flags_growing_ratio(self):
        growing = [(100, 10.0), (1000, 31.6), (10000, 100.0)]
        assert KC.variance_ratio_trend(growing).verdict == KC.FAIL
        flat = [(100, 1.01), (1000, 0.99), (10000, 1.02)]
        assert KC.variance_ratio_trend(flat).verdict == KC.PASS


class TestA3A5:
    def test_builtins_pass(self, fgr_state):
        for model in (S.PoissonOutdegree(), S.FixedOutdegree()):
            a3, a5 = KC.check_A3_A5(*sample(model, fgr_state, 20_000, A3_A5_PROBE))
            assert a3.verdict == KC.PASS
            assert a5.verdict == KC.PASS

    def test_coupled_kernel_fails_both(self, fgr_state):
        a3, a5 = KC.check_A3_A5(
            *sample(KC.coupled_pair_kernel(), fgr_state, 20_000, A3_A5_PROBE)
        )
        assert a3.verdict == KC.FAIL
        assert a5.verdict == KC.FAIL

    def test_identical_columns_fail_independent_columns_pass(self):
        """Two tracked vertices make one pair. Equal increments are as
        positively coupled as can be; the full product grid of values
        0..3 is independent in its empirical law, so every covariance is 0."""
        state, tracked = flat_state(100), [0, 1]
        values = np.arange(4)
        column = np.repeat(values, 50)
        a3, a5 = KC.check_A3_A5(state, np.column_stack([column, column]), tracked)
        assert (a3.verdict, a5.verdict) == (KC.FAIL, KC.FAIL)
        grid = np.column_stack([np.repeat(values, 4), np.tile(values, 4)])
        a3, a5 = KC.check_A3_A5(state, np.repeat(grid, 50, axis=0), tracked)
        assert (a3.verdict, a5.verdict) == (KC.PASS, KC.PASS)
        assert len(a5.stats["pairs"]) == len(KC.A5_LEVELS) ** 2
        assert max(abs(row["cov"]) for row in a3.stats["pairs"] + a5.stats["pairs"]) < 1e-15


class TestA4:
    def test_pair_kernel_fails(self, two_point):
        report = KC.run_contract_suite(
            KC.pair_emitting_kernel(2.0), two_point, 2.0, ns=(100, 1000), base_seed=5
        )
        assert report.verdicts["A4"] == KC.FAIL

    def test_builtin_passes(self, two_point):
        report = KC.run_contract_suite(
            S.FixedOutdegree(), two_point, 2.0, ns=(100, 1000), base_seed=5
        )
        assert report.verdicts["A4"] == KC.PASS


class TestSuite:
    def test_report_serializable_and_deterministic(self, two_point):
        reports = [
            KC.run_contract_suite(
                S.PoissonOutdegree(), two_point, 2.0, ns=(100, 400), trials=4000, base_seed=11
            )
            for _ in range(2)
        ]
        payloads = [json.dumps(r.to_dict(), sort_keys=True) for r in reports]
        assert payloads[0] == payloads[1]

    def test_bursty_kernel_fails_a2_trend(self, two_point):
        report = KC.run_contract_suite(
            KC.bursty_variance_kernel(2.0),
            two_point,
            2.0,
            ns=(100, 1000, 10_000),
            base_seed=13,
        )
        assert report.verdicts["A2"] == KC.FAIL
        assert report.verdicts["A1"] == KC.PASS
