"""Tests for fitness-distribution construction, sampling and integration.

Expected values marked as oracle-derived are computed inside the tests with
mpmath quadrature or hand antiderivatives, independently of the production
integration paths.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pafit import measures as M
from pafit import quantile_replay


def mp_quad(fn, lo=0.0, hi=1.0):
    """Independent oracle: tanh-sinh quadrature handles endpoint singularities."""
    return float(mpmath.quad(fn, [lo, hi]))


def frozen_reference(dist):
    """The inverse-CDF bisection before its per-piece masses and
    antiderivatives were hoisted out of the passes, kept verbatim as the
    reference: returns its ``(reference_cdf, reference_quantile)``."""
    from numpy.polynomial import polynomial as npoly

    def reference_cdf(x):
        edges = np.asarray(dist.edges)
        piece_mass = np.array(
            [
                M._poly_segment_integral(piece, a, b)
                for (a, b), piece in zip(zip(dist.edges, dist.edges[1:]), dist.coeffs)
            ]
        )
        cum = np.concatenate([[0.0], np.cumsum(piece_mass)])
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(dist.coeffs) - 1)
        out = np.empty_like(x)
        for j, piece in enumerate(dist.coeffs):
            mask = idx == j
            if np.any(mask):
                anti = npoly.polyint(list(piece))
                out[mask] = cum[j] + npoly.polyval(np.clip(x[mask], dist.edges[j], dist.edges[j + 1]), anti) - npoly.polyval(dist.edges[j], anti)
        out[x <= edges[0]] = 0.0
        out[x >= edges[-1]] = cum[-1]
        return out

    def reference_quantile(targets):
        lo = np.full_like(targets, dist.edges[0])
        hi = np.full_like(targets, dist.edges[-1])
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = reference_cdf(mid) < targets
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return hi

    return reference_cdf, reference_quantile


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_dirac_rejected(self):
        with pytest.raises(M.MeasureError):
            M.FiniteDiscrete([(1.0, 1.0)])

    def test_duplicate_points_merge_to_dirac_rejected(self):
        with pytest.raises(M.MeasureError):
            M.FiniteDiscrete([(0.5, 0.4), (0.5, 0.6)])

    def test_mass_must_sum_to_one(self):
        with pytest.raises(M.MeasureError):
            M.FiniteDiscrete([(0.5, 0.5), (1.0, 0.6)])

    def test_nonpositive_support_rejected(self):
        with pytest.raises(M.MeasureError):
            M.FiniteDiscrete([(0.0, 0.5), (1.0, 0.5)])

    def test_negative_density_rejected(self):
        with pytest.raises(M.MeasureError):
            M.PiecewiseDensity((0.0, 1.0), ((2.0, -4.0),))

    def test_pure_atom_density_rejected(self):
        with pytest.raises(M.MeasureError):
            M.PiecewiseDensity((0.0, 1.0), ((0.0,),), atom_at_one=1.0)

    def test_density_mass_validated(self):
        with pytest.raises(M.MeasureError):
            M.PiecewiseDensity((0.0, 1.0), ((2.0,),))

    def test_beta_params_positive(self):
        with pytest.raises(M.MeasureError):
            M.BetaShape(0.0, 1.0)

    def test_ess_sup(self, two_point, cubic_gap, uniform, beta23):
        for dist in (two_point, cubic_gap, uniform, beta23):
            assert dist.ess_sup == 1.0
        assert M.FiniteDiscrete([(0.25, 0.5), (0.5, 0.5)]).ess_sup == 0.5


class TestNormalise:
    def test_pushforward_consistency_of_mean(self):
        raw = M.FiniteDiscrete([(0.2, 0.25), (0.3, 0.25), (0.4, 0.5)])
        s = raw.ess_sup
        out = M.FiniteDiscrete([(v / s, m) for v, m in raw.points])
        assert M.mean_fitness(out) == pytest.approx(M.mean_fitness(raw) / s, abs=1e-14)

    def test_require_normalized(self, two_point):
        raw = M.FiniteDiscrete([(0.25, 0.5), (0.5, 0.5)])
        with pytest.raises(M.MeasureError):
            M.require_normalized(raw)
        M.require_normalized(two_point)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


class TestSampling:
    def test_discrete_inverse_cdf_value_order(self, two_point):
        assert M.quantile(two_point, 0.3) == 0.5

    def test_discrete_boundary_goes_to_upper_point(self, two_point):
        assert M.quantile(two_point, 0.5) == 1.0

    def test_uniform_mean_of_million(self, uniform, rng):
        mean = M.quantile(uniform, rng.random(10**6)).mean()
        assert abs(mean - 0.5) < 0.002

    def test_samples_in_support(self, cubic_gap, beta23, rng):
        for dist in (cubic_gap, beta23):
            xs = M.quantile(dist, rng.random(2000))
            assert np.all(xs > 0.0) and np.all(xs <= 1.0)

    def test_density_sample_mean_matches_first_moment(self, cubic_gap, rng):
        xs = M.quantile(cubic_gap, rng.random(10**5))
        assert abs(xs.mean() - M.mean_fitness(cubic_gap)) < 0.005

    def test_atom_sampled_with_its_mass(self, rng):
        dist = M.PiecewiseDensity((0.0, 1.0), ((0.6,),), atom_at_one=0.4)
        xs = M.quantile(dist, rng.random(20000))
        assert abs(np.mean(xs == 1.0) - 0.4) < 0.02

    def test_one_uniform_per_sample(self, two_point, cubic_gap, uniform, beta23):
        # each uniform maps to its own fitness, alone or inside a batch
        us = np.linspace(0.0, 0.99, 17)
        for dist in (two_point, cubic_gap, uniform, beta23):
            assert M.quantile(dist, us).tolist() == [M.quantile(dist, u) for u in us]

    @pytest.mark.parametrize(
        "dist",
        [
            M.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),)),
            M.PiecewiseDensity((0.0, 0.3, 0.7, 1.0), ((1.0,), (0.5,), (0.5, 0.5)),
                               atom_at_one=0.2225),
            M.PiecewiseDensity((0.0, 1.0), ((0.6,),), atom_at_one=0.4),
        ],
        ids=["cubic_gap", "three_pieces_atom", "flat_atom"],
    )
    def test_piecewise_quantile_equals_frozen_reference(self, dist, rng):
        reference_cdf, reference_quantile = frozen_reference(dist)

        edge_masses = reference_cdf(np.asarray(dist.edges))
        body = 1.0 - dist.atom_at_one
        u = np.concatenate([rng.random(100_000), edge_masses, np.nextafter(edge_masses, 0.0),
                            [0.0, np.nextafter(body, 0.0), body]])
        u = u[(u >= 0.0) & (u < 1.0)]
        inside = u[u < body]
        assert np.array_equal(M._piecewise_quantile(dist, inside), reference_quantile(inside))
        expected = np.ones_like(u)
        expected[u < body] = reference_quantile(inside)
        assert np.array_equal(M.quantile(dist, u), np.maximum(expected, np.nextafter(0.0, 1.0)))


    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(law=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_piecewise_quantile_replays_reference_bisection(self, law, seed):
        # laws of 1-3 pieces with nonnegative coefficients of degree <= 4, on
        # dyadic domains (the exact jump applies) and others (it does not)
        pieces = law.draw(st.integers(1, 3), label="pieces")
        if law.draw(st.booleans(), label="dyadic"):
            inner = law.draw(
                st.lists(st.sampled_from([0.125, 0.3, 0.5, 0.7, 0.875]),
                         min_size=pieces - 1, max_size=pieces - 1, unique=True),
                label="inner",
            )
            edges = [0.0, *sorted(inner), 1.0]
        else:
            lo = law.draw(st.sampled_from([0.05, 0.1, 0.3]), label="lo")
            hi = law.draw(st.sampled_from([0.7, 0.9, 0.95]), label="hi")
            edges = np.linspace(lo, hi, pieces + 1).tolist()
        coeff = st.floats(0.0, 5.0, allow_subnormal=False)
        raw = [
            [law.draw(st.floats(0.1, 5.0), label="c0")]
            + law.draw(st.lists(coeff, max_size=4), label="higher")
            for _ in range(len(edges) - 1)
        ]
        atom = law.draw(st.sampled_from([0.0, 0.25, 0.4]), label="atom")
        mass = sum(M._poly_segment_integral(c, a, b) for a, b, c in zip(edges, edges[1:], raw))
        scale = (1.0 - atom) / mass
        dist = M.PiecewiseDensity(edges, [[c * scale for c in piece] for piece in raw], atom)
        self._assert_replays_reference(dist, seed)

    def test_piecewise_quantile_replays_reference_on_dipping_density(self):
        # 12 (f - 1/2)^2 - 9e-10 dips below zero, as validation allows: the
        # exact CDF falls near 1/2, so the jump's certificate must cover it
        dip = 9e-10
        dist = M.PiecewiseDensity((0.0, 1.0), ((3.0 - dip, -12.0, 12.0),), atom_at_one=dip)
        assert min(M._polyval(dist.coeffs[0], np.linspace(0.0, 1.0, 1001))) < 0.0
        self._assert_replays_reference(dist, seed=7, draws=20_000)

    @pytest.mark.parametrize(
        "dist",
        [
            M.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),)),
            M.PiecewiseDensity((0.0, 0.3, 0.7, 1.0), ((1.0,), (0.5,), (0.5, 0.5)),
                               atom_at_one=0.2225),
            # half the mass on a piece 2^-20 wide: its pdf asks for levels
            # beyond the exact ones
            M.PiecewiseDensity((0.0, 0.5, 0.5 + 2.0**-20, 1.0),
                               ((0.5,), (2.0**19,), (0.25 / (0.5 - 2.0**-20),))),
        ],
        ids=["cubic_gap", "three_pieces_atom", "spike"],
    )
    def test_certificate_alone_keeps_the_deepest_jumps_exact(self, dist, monkeypatch):
        # a span of 2^-30 margins sends every draw to the deepest exact
        # level, where brackets are a few ulps wide and the computed CDF is
        # not monotone: only the certificate keeps the replay exact there
        monkeypatch.setattr(quantile_replay, "JUMP_SPAN", 2.0**-30)
        self._assert_replays_reference(dist, seed=11, draws=20_000)

    @staticmethod
    def _assert_replays_reference(dist, seed, draws=2_000):
        reference_cdf, reference_quantile = frozen_reference(dist)
        body = 1.0 - dist.atom_at_one
        edge_masses = reference_cdf(np.asarray(dist.edges, dtype=float))
        rng = np.random.default_rng(seed)
        u = np.concatenate([
            rng.random(draws) * body,
            edge_masses, np.nextafter(edge_masses, 0.0), np.nextafter(edge_masses, 1.0),
            [0.0, np.nextafter(body, 0.0)],
        ])
        u = u[(u >= 0.0) & (u < body)]
        assert np.array_equal(M._piecewise_quantile(dist, u), reference_quantile(u))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


class TestIntegrate:
    def test_two_point_rational_exact_sum(self, two_point):
        # 0.5 * (0.5/1.5) + 0.5 * (1/1) = 2/3
        value = M.integrate(two_point, M.f_over_theta_minus_f(2.0))
        assert value == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_cubic_gap_pole_cancellation(self, cubic_gap):
        # 3 * int f(1-f) df = 1/2, hand antiderivative
        value = M.integrate(cubic_gap, M.f_over_one_minus_f())
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_uniform_first_moment(self, uniform):
        assert M.integrate(uniform, M.fitness_identity()) == pytest.approx(0.5, abs=1e-12)

    def test_atom_at_singularity_diverges(self):
        dist = M.PiecewiseDensity((0.0, 1.0), ((0.5,),), atom_at_one=0.5)
        assert M.integrate(dist, M.one_over_one_minus_f()) == math.inf
        assert M.integrate(dist, M.f_over_one_minus_f()) == math.inf

    def test_uniform_gap_integrals_diverge(self, uniform):
        assert M.integrate(uniform, M.one_over_one_minus_f()) == math.inf

    def test_discrete_point_at_one_with_pole_diverges(self, two_point):
        assert M.integrate(two_point, M.f_over_one_minus_f()) == math.inf

    def test_beta_divergence_boundary(self):
        assert M.integrate(M.BetaShape(2.0, 1.0), M.one_over_one_minus_f()) == math.inf
        assert M.integrate(M.BetaShape(2.0, 0.5), M.one_over_one_minus_f()) == math.inf
        assert math.isfinite(M.integrate(M.BetaShape(2.0, 1.5), M.one_over_one_minus_f()))

    def test_beta_rational_vs_mpmath(self, beta23):
        oracle = mp_quad(lambda f: 12 * f * (1 - f) ** 2 * f / (1 - f))
        value = M.integrate(beta23, M.f_over_one_minus_f())
        assert value == pytest.approx(oracle, abs=1e-9)

    def test_beta_singular_but_convergent_vs_mpmath(self):
        # Beta(1, 1.5) density is 1.5 * (1-f)^0.5: integrable endpoint singularity
        dist = M.BetaShape(1.0, 1.5)
        value = M.integrate(dist, M.f_over_one_minus_f())
        oracle = mp_quad(lambda f: 1.5 * (1 - f) ** 0.5 * f / (1 - f))
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_indicator_total_mass_each_representation(
        self, two_point, cubic_gap, uniform, beta23
    ):
        withatom = M.PiecewiseDensity((0.0, 1.0), ((0.25, 1.0),), atom_at_one=0.25)
        for dist in (two_point, cubic_gap, uniform, beta23, withatom):
            total = M.integrate(dist, M.window_indicator(0.0, 1.0))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_exact_and_quadrature_paths_agree(self, cubic_gap, two_point):
        for g in (
            M.f_over_theta_minus_f(1.7),
            M.f_over_one_minus_f(),
            M.fitness_identity(),
            M.window_indicator(0.2, 0.8),
        ):
            exact = M.integrate(cubic_gap, g, method="exact")
            quad = M.integrate(cubic_gap, g, method="quadrature")
            assert quad == pytest.approx(exact, abs=1e-12)
        for g in (M.f_over_theta_minus_f(2.0), M.fitness_identity()):
            assert M.integrate(two_point, g, method="exact") == M.integrate(
                two_point, g, method="quadrature"
            )

    def test_window_restriction(self, cubic_gap):
        g = M.f_over_theta_minus_f(2.0).restrict(0.25, 0.75)
        oracle = mp_quad(lambda f: f / (2 - f) * 3 * (1 - f) ** 2, 0.25, 0.75)
        assert M.integrate(cubic_gap, g) == pytest.approx(oracle, abs=1e-10)

    def test_exclude_point_one(self, two_point):
        g = M.window_indicator(0.0, 1.0).without_point_one()
        assert M.integrate(two_point, g) == pytest.approx(0.5, abs=1e-15)

    def test_non_catalog_integrand_rejected(self, uniform):
        with pytest.raises(M.MeasureError):
            M.integrate(uniform, lambda f: f)

    def test_multi_piece_density(self):
        dist = M.PiecewiseDensity((0.0, 0.5, 1.0), ((1.2,), (0.8,)))
        oracle = mp_quad(lambda f: 1.2 * f / (2 - f), 0, 0.5) + mp_quad(
            lambda f: 0.8 * f / (2 - f), 0.5, 1
        )
        assert M.integrate(dist, M.f_over_theta_minus_f(2.0)) == pytest.approx(
            oracle, abs=1e-10
        )

    @settings(max_examples=60, deadline=None)
    @given(
        theta1=st.floats(1.01, 4.0),
        bump=st.floats(0.01, 4.0),
    )
    def test_monotone_in_theta(self, theta1, bump):
        theta2 = theta1 + bump
        dists = (
            M.FiniteDiscrete([(0.5, 0.5), (1.0, 0.5)]),
            M.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),)),
            M.Uniform01(),
            M.BetaShape(2.0, 3.0),
        )
        for dist in dists:
            lo = M.integrate(dist, M.f_over_theta_minus_f(theta2))
            hi = M.integrate(dist, M.f_over_theta_minus_f(theta1))
            assert hi > lo

    @settings(max_examples=40, deadline=None)
    @given(
        p1=st.floats(0.05, 0.95),
        w=st.floats(0.05, 0.9),
    )
    def test_pushforward_scales_rational_integral(self, p1, w):
        # integrate(normalized, f) == integrate(raw, f) / s for the pushforward
        raw = M.FiniteDiscrete([(p1 * 0.5, w), (0.5, 1.0 - w)])
        out = M.FiniteDiscrete([(v / 0.5, m) for v, m in raw.points])
        assert M.mean_fitness(out) == pytest.approx(M.mean_fitness(raw) / 0.5, rel=1e-12)


class TestImpactFactors:
    def test_impact_factor_k1_closed_form(self):
        g = M.impact_factor(1.5, 1)
        for f in (0.25, 0.5, 1.0):
            assert g(f) == pytest.approx(1.5 / (1.5 + f), abs=1e-15)

    def test_impact_factor_k2_at_one(self):
        # 1/(2 + 1) * 1 * 1/(1 + 1) = 1/6
        assert M.impact_factor(1.0, 2)(1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_pointwise_normalisation_via_survival(self):
        # telescoping: sum_k pmf(k) + P(K > K0) == 1 at fixed f
        for theta in (1.0, 1.3, 2.5):
            for f in (0.25, 0.5, 1.0):
                partial = sum(float(M.impact_factor(theta, k)(f)) for k in range(1, 40))
                tail = float(M.impact_survival(theta, 40)(f))
                assert partial + tail == pytest.approx(1.0, abs=1e-12)

    def test_mean_tail_matches_brute_force(self):
        theta, f, k0 = 1.4, 0.35, 5  # rho = 4: brute-force tail decays like j^-3
        rho = theta / f
        surv = 1.0
        for i in range(1, k0):
            surv *= i / (i + rho)
        total = 0.0
        for j in range(k0, 300000):
            pmf = rho / (j + rho) * surv
            total += j * pmf
            surv *= j / (j + rho)
        value = float(M.impact_mean_tail(theta, k0)(f))
        assert value == pytest.approx(total, rel=1e-9)

    def test_mean_tail_k1_is_yule_simon_mean(self):
        # sum_j j * pmf(j) = rho / (rho - 1) = theta / (theta - f)
        g = M.impact_mean_tail(2.0, 1)
        assert g(0.5) == pytest.approx(2.0 / 1.5, abs=1e-14)
