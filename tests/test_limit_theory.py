"""Tests for phase classification, the normalisation root, and limit measures.

Oracles are independent of the production code paths: quadratic roots in
closed form, bisection on hand-derived antiderivatives, and mpmath
quadrature.
"""

import math

import mpmath
import pytest

from pafit import limit_theory as LT
from pafit import measures as M


def two_point_theta_oracle():
    # 0.25/(t-0.5) + 0.5/(t-1) = 2  <=>  2t^2 - 3.75t + 1.5 = 0, larger root
    return (3.75 + math.sqrt(3.75**2 - 4 * 2 * 1.5)) / (2 * 2)


def uniform_theta_oracle():
    # int f/(t-f) df = t*ln(t/(t-1)) - 1 = 1; bisection on the closed form
    def g(t):
        return t * math.log(t / (t - 1.0)) - 2.0

    lo, hi = 1.0 + 1e-12, 8.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPhase:
    def test_uniform_always_fit_get_richer(self, uniform):
        assert LT.classify_phase(uniform, 5.0) is LT.Phase.FIT_GET_RICHER

    def test_cubic_gap_condenses_at_lambda_one(self, cubic_gap):
        # int f/(1-f) 3(1-f)^2 df = 1/2 < 1
        assert LT.classify_phase(cubic_gap, 1.0) is LT.Phase.BOSE_EINSTEIN

    def test_boundary_counts_as_fit_get_richer(self, cubic_gap):
        assert LT.classify_phase(cubic_gap, 0.5) is LT.Phase.FIT_GET_RICHER

    def test_monotone_in_lambda(self, cubic_gap, two_point, beta23):
        for dist in (cubic_gap, two_point, beta23):
            seen_be = False
            for lam in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                phase = LT.classify_phase(dist, lam)
                if seen_be:
                    assert phase is LT.Phase.BOSE_EINSTEIN
                seen_be = phase is LT.Phase.BOSE_EINSTEIN

    def test_rejects_unnormalised(self):
        raw = M.FiniteDiscrete([(0.25, 0.5), (0.5, 0.5)])
        with pytest.raises(M.MeasureError):
            LT.classify_phase(raw, 1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_lambda_rejected(self, cubic_gap, lam):
        for solve in (LT.classify_phase, LT.solve_theta_star,
                      lambda dist, lam: LT.map_T(dist, lam, 1.5)):
            with pytest.raises(M.MeasureError):
                solve(cubic_gap, lam)


class TestThetaStar:
    def test_two_point_against_quadratic_root(self, two_point):
        theta = LT.solve_theta_star(two_point, 2.0, tol=1e-12)
        assert theta == pytest.approx(two_point_theta_oracle(), abs=1e-8)

    def test_uniform_against_independent_bisection(self, uniform):
        theta = LT.solve_theta_star(uniform, 1.0, tol=1e-12)
        assert theta == pytest.approx(uniform_theta_oracle(), abs=1e-8)

    def test_condensation_returns_exactly_one(self, cubic_gap):
        assert LT.solve_theta_star(cubic_gap, 1.0) == 1.0

    def test_boundary_returns_one(self, cubic_gap):
        assert LT.solve_theta_star(cubic_gap, 0.5) == 1.0

    def test_residual_within_tol(self, beta23):
        # Beta(2,3): int f/(1-f) dmu = 1, so lambda = 0.8 is fit-get-richer
        lam, tol = 0.8, 1e-10
        theta = LT.solve_theta_star(beta23, lam, tol=tol)
        assert theta > 1.0
        resid = M.integrate(beta23, M.f_over_theta_minus_f(theta), tol=1e-13)
        assert abs(resid - lam) <= tol


class TestMapT:
    def test_theta_one_is_fixed(self, two_point, cubic_gap, uniform):
        for dist in (two_point, cubic_gap, uniform):
            assert LT.map_T(dist, 1.7, 1.0) == 1.0

    def test_fixed_point_at_theta_star(self, two_point):
        theta = LT.solve_theta_star(two_point, 2.0, tol=1e-12)
        assert LT.map_T(two_point, 2.0, theta) == pytest.approx(theta, abs=1e-10)

    def test_value_against_mpmath(self, cubic_gap):
        oracle = 1.0 + float(
            mpmath.quad(lambda f: 0.5 / (1.5 - f) * f * 3 * (1 - f) ** 2, [0, 1])
        )
        assert LT.map_T(cubic_gap, 1.0, 1.5) == pytest.approx(oracle, abs=1e-10)

    def test_contraction_above_fixed_point(self, two_point, uniform):
        for dist, lam in ((two_point, 2.0), (uniform, 1.0)):
            theta_star = LT.solve_theta_star(dist, lam, tol=1e-12)
            for theta in (theta_star + 0.01, theta_star + 0.5, theta_star + 2.0):
                mapped = LT.map_T(dist, lam, theta)
                assert theta_star < mapped < theta

    def test_fixed_point_grid_both_phases(self):
        dists = [
            M.FiniteDiscrete([(0.5, 0.5), (1.0, 0.5)]),
            M.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),)),
            M.Uniform01(),
            M.BetaShape(2.0, 3.0),
            M.BetaShape(0.7, 1.2),
        ]
        lams = (0.5, 1.0, 2.0, 5.0)
        for dist in dists:
            for lam in lams:
                theta = LT.solve_theta_star(dist, lam, tol=1e-9)
                assert abs(LT.map_T(dist, lam, theta) - theta) <= 1e-8


class TestLimitGamma:
    def test_two_point_masses_and_total(self, two_point):
        theta = two_point_theta_oracle()
        gamma = LT.limit_gamma(two_point, 2.0)
        lo = gamma.mass(0.45, 0.55)
        hi = gamma.mass(0.95, 1.0)
        assert lo == pytest.approx(0.5 * theta / (theta - 0.5), abs=1e-8)
        assert hi == pytest.approx(0.5 * theta / (theta - 1.0), abs=1e-7)
        assert lo + hi == pytest.approx(3.0, abs=1e-7)

    def test_condensation_density_and_atom(self, cubic_gap):
        gamma = LT.limit_gamma(cubic_gap, 1.0)
        assert gamma.atom_at_one == pytest.approx(0.5, abs=1e-10)
        # continuous part integrates 3(1-f) over (0,1) = 3/2
        assert gamma.mass(0.0, 1.0) - gamma.atom_at_one == pytest.approx(1.5, abs=1e-9)
        assert gamma.density_at(0.5) == pytest.approx(2.0, abs=1e-12)

    def test_window_masses(self, two_point, cubic_gap):
        # the condensation window (1 - eps, 1] at eps = 0.1, and the full window
        be = LT.limit_gamma(cubic_gap, 1.0)
        assert be.mass(0.9, 1.0) == pytest.approx(0.015 + 0.5, abs=1e-8)
        assert be.mass(0.0, 1.0) == pytest.approx(2.0, abs=1e-8)
        # fit-get-richer: only the discrete point at 1 lies in (0.9, 1], no atom
        theta = two_point_theta_oracle()
        fgr = LT.limit_gamma(two_point, 2.0)
        assert fgr.mass(0.9, 1.0) == pytest.approx(0.5 * theta / (theta - 1.0), abs=1e-7)

    def test_total_mass_one_plus_lambda(self, two_point, cubic_gap, uniform, beta23):
        for dist, lam in (
            (two_point, 2.0),
            (cubic_gap, 1.0),
            (cubic_gap, 0.5),
            (uniform, 1.0),
            (beta23, 3.0),
        ):
            gamma = LT.limit_gamma(dist, lam)
            assert gamma.total_mass() == pytest.approx(1.0 + lam, abs=1e-8)

    def test_condensate_mass_examples(self, cubic_gap, uniform):
        assert LT.summarize(cubic_gap, 1.0).condensate_mass == pytest.approx(0.5, abs=1e-10)
        assert LT.summarize(cubic_gap, 0.5).condensate_mass == 0.0
        assert LT.summarize(uniform, 7.0).condensate_mass == 0.0


class TestGammaK:
    def test_k1_density_factor(self, two_point):
        gk = LT.limit_gamma_k(two_point, 1.3, 1)
        for f in (0.25, 0.5, 1.0):
            assert gk.density_at(f) == pytest.approx(1.3 / (1.3 + f), abs=1e-14)

    def test_k1_at_one_with_theta_one(self):
        # fitness pinned at 1 with unit normalisation: half the vertices keep impact 1
        assert float(M.impact_factor(1.0, 1)(1.0)) == pytest.approx(0.5, abs=1e-15)

    def test_k2_at_one_with_theta_one(self):
        assert float(M.impact_factor(1.0, 2)(1.0)) == pytest.approx(1 / 6, abs=1e-15)

    def test_k0_rejected(self, two_point):
        with pytest.raises(M.MeasureError):
            LT.limit_gamma_k(two_point, 1.3, 0)

    def test_pk_sums_to_one(self, two_point, cubic_gap, beta23):
        for dist, lam in ((two_point, 2.0), (cubic_gap, 1.0), (beta23, 2.0)):
            theta = LT.solve_theta_star(dist, lam, tol=1e-12)
            partial, tail = LT.pk_sum_with_tail(dist, theta, 40)
            assert partial + tail == pytest.approx(1.0, abs=1e-9)

    def test_impact_mean_fit_get_richer(self, two_point):
        theta = LT.solve_theta_star(two_point, 2.0, tol=1e-12)
        partial, tail = LT.impact_mean_sum_with_tail(two_point, theta, 60)
        gamma_total = LT.limit_gamma(two_point, 2.0).total_mass()
        assert partial + tail == pytest.approx(gamma_total, abs=1e-6)
        assert partial + tail == pytest.approx(3.0, abs=1e-6)

    def test_impact_mean_condensation(self, cubic_gap):
        # mean impact of the non-condensed bulk: 1 + lambda - condensate = 3/2
        partial, tail = LT.impact_mean_sum_with_tail(cubic_gap, 1.0, 60)
        assert partial + tail == pytest.approx(1.5, abs=1e-6)

    def test_weighted_gamma_k_consistent_with_gamma(self, two_point):
        # sum_k k * Gamma^(k)((a, b]) == Gamma((a, b]) away from 1
        lam = 2.0
        theta = LT.solve_theta_star(two_point, lam, tol=1e-12)
        gamma = LT.limit_gamma(two_point, lam, theta_star=theta)
        lo, hi = 0.4, 0.6
        partial = sum(
            k * LT.limit_gamma_k(two_point, theta, k).mass(lo, hi) for k in range(1, 81)
        )
        tail = M.integrate(
            two_point,
            M.impact_mean_tail(theta, 81).restrict(lo, hi).without_point_one(),
        )
        assert partial + tail == pytest.approx(gamma.mass(lo, hi), abs=1e-6)


class TestSummary:
    def test_summary_consistency(self, two_point, cubic_gap):
        fgr = LT.summarize(two_point, 2.0)
        assert fgr.phase is LT.Phase.FIT_GET_RICHER
        assert fgr.condensate_mass == 0.0
        assert fgr.theta_star > 1.0
        assert fgr.pk(1) == pytest.approx(
            LT.limit_gamma_k(two_point, fgr.theta_star, 1).total_mass(), abs=1e-12
        )

        be = LT.summarize(cubic_gap, 1.0)
        assert be.phase is LT.Phase.BOSE_EINSTEIN
        assert be.theta_star == 1.0
        assert be.condensate_mass == pytest.approx(0.5, abs=1e-10)
        assert be.gamma.total_mass() == pytest.approx(2.0, abs=1e-8)
