"""Asymptotic quantities of the attachment process.

Everything the long-run analysis predicts is computed here: the phase of the
model (fit-get-richer vs Bose-Einstein condensation), the limiting
normalisation ``theta_star`` solving ``int f/(theta - f) mu(df) = lambda``,
the bootstrap map ``T`` whose stable fixed point is ``theta_star``, the
impact-weighted fitness law ``Gamma`` (total mass ``1 + lambda``, with an
atom at 1 in the condensation phase), the fixed-impact laws ``Gamma^(k)``
(Yule-Simon mixtures over fitness) and the limiting impact frequencies
``p(k)``.

All operations are pure; distributions are immutable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .measures import FitnessDistribution, Integrand, MeasureError, integrate

# bisection steps of solve_theta_star; its bracket reaches 1e-15 * theta within ~90
MAX_BISECTIONS = 200


class Phase(enum.Enum):
    FIT_GET_RICHER = "FitGetRicher"
    BOSE_EINSTEIN = "BoseEinstein"


class SolverError(RuntimeError):
    """Root bracketing / bisection failed; carries the bracket state."""


def _gap_integral(dist: FitnessDistribution, theta: float, tol: float) -> float:
    return integrate(dist, measures.f_over_theta_minus_f(theta), tol=tol)


def classify_phase(dist: FitnessDistribution, lam: float) -> Phase:
    """Fit-get-richer iff int f/(1-f) dmu >= lambda (divergence counts)."""
    measures.require_normalized(dist)
    if not lam > 0.0:
        raise MeasureError("lambda must be positive")
    boundary = integrate(dist, measures.f_over_one_minus_f())
    return Phase.FIT_GET_RICHER if boundary >= lam else Phase.BOSE_EINSTEIN


def solve_theta_star(dist: FitnessDistribution, lam: float, *, tol: float = 1e-10) -> float:
    """Solve int f/(theta - f) dmu = lambda on (1, inf); 1 in the condensation phase.

    The integral is continuous and strictly decreasing in theta, so a
    doubling bracket followed by bisection is unconditionally robust. The
    returned value satisfies |integral(theta) - lambda| <= tol.
    """
    measures.require_normalized(dist)
    if not lam > 0.0:
        raise MeasureError("lambda must be positive")
    if tol <= 0.0:
        raise MeasureError("tol must be positive")
    quad_tol = max(min(tol * 1e-2, 1e-12), 1e-14)
    at_one = integrate(dist, measures.f_over_one_minus_f(), tol=quad_tol)
    if at_one <= lam:
        # Bose-Einstein phase, or exactly the boundary: theta_star = 1.
        return 1.0

    hi = 2.0
    while _gap_integral(dist, hi, quad_tol) > lam:
        hi *= 2.0
        if hi > 1e12:
            raise SolverError(f"no upper bracket below theta = {hi}")
    lo = 1.0
    mid = hi
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        value = _gap_integral(dist, mid, quad_tol)
        if abs(value - lam) <= tol:
            return mid
        if value > lam:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            return mid
    raise SolverError(
        f"bisection stalled after {MAX_BISECTIONS} iterations; bracket [{lo}, {hi}], "
        f"residual {_gap_integral(dist, mid, quad_tol) - lam}"
    )


def map_T(dist: FitnessDistribution, lam: float, theta: float) -> float:
    """Bootstrap map T(theta) = 1 + (theta-1)/lambda * int f/(theta-f) dmu.

    Iterating an a-priori bound on the normalisation through T contracts it
    towards theta_star; exposed for fixed-point diagnostics.
    """
    measures.require_normalized(dist)
    if not lam > 0.0:
        raise MeasureError("lambda must be positive")
    if theta < 1.0:
        raise MeasureError("theta must be >= 1")
    if theta == 1.0:
        return 1.0
    return 1.0 + (theta - 1.0) / lam * integrate(dist, measures.f_over_theta_minus_f(theta))


@dataclass(frozen=True)
class LimitMeasure:
    """A measure ``factor * mu`` restricted to [0, 1) plus an atom at 1.

    Any mass mu puts exactly at 1 is folded into ``atom_at_one`` (scaled by
    the factor's value there), so the continuous/discrete part below 1 and
    the atom never double count.
    """

    base: FitnessDistribution
    factor: Integrand
    atom_at_one: float

    def density_at(self, f):
        """Density factor with respect to mu, evaluated below 1."""
        return self.factor(f)

    def mass(self, lo: float, hi: float) -> float:
        """Measure of the window (lo, hi]; includes the atom when hi >= 1."""
        if lo >= hi:
            return 0.0
        below = integrate(
            self.base, self.factor.restrict(lo, min(hi, 1.0)).without_point_one()
        )
        return below + (self.atom_at_one if hi >= 1.0 else 0.0)

    def total_mass(self) -> float:
        return self.mass(0.0, 1.0)

    def bin_masses(self, edges) -> np.ndarray:
        edges = np.asarray(edges, dtype=float)
        return np.array([self.mass(a, b) for a, b in zip(edges[:-1], edges[1:])])


def limit_gamma(
    dist: FitnessDistribution,
    lam: float,
    *,
    theta_star: float | None = None,
) -> LimitMeasure:
    """Limit of the impact-weighted fitness law; total mass 1 + lambda.

    Fit-get-richer: density factor theta*/(theta* - f) against mu (an atom of
    mu at 1 is scaled along). Condensation: density factor 1/(1 - f) below 1
    plus the condensate atom 1 + lambda - int_{[0,1)} 1/(1-f) dmu at 1.
    """
    phase = classify_phase(dist, lam)
    if theta_star is None:
        theta_star = solve_theta_star(dist, lam)
    if phase is Phase.FIT_GET_RICHER and theta_star > 1.0:
        factor = measures.theta_over_theta_minus_f(theta_star)
        atom = dist.atom_at_one * theta_star / (theta_star - 1.0) if dist.atom_at_one else 0.0
        return LimitMeasure(dist, factor, atom)
    factor = measures.one_over_one_minus_f()
    if phase is Phase.FIT_GET_RICHER:
        # boundary case: both phase formulas coincide and the atom vanishes
        return LimitMeasure(dist, factor, 0.0)
    atom = 1.0 + lam - integrate(dist, factor.without_point_one())
    return LimitMeasure(dist, factor, max(atom, 0.0))


def limit_gamma_k(dist: FitnessDistribution, theta_star: float, k: int) -> LimitMeasure:
    """Limit law of (fitness, impact == k): Yule-Simon pmf at k against mu.

    ``theta_star`` is an explicit input rather than recomputed: for custom
    attachment kernels the normalisation limit may be known externally.
    """
    measures.require_normalized(dist)
    if k < 1:
        raise MeasureError("impact level k must be >= 1")
    if theta_star < 1.0:
        raise MeasureError("theta_star must be >= 1")
    factor = measures.impact_factor(theta_star, k)
    atom = dist.atom_at_one * factor(1.0) if dist.atom_at_one else 0.0
    return LimitMeasure(dist, factor, atom)


def limit_pk(dist: FitnessDistribution, theta_star: float, k: int) -> float:
    """Limiting fraction of vertices with impact k."""
    return limit_gamma_k(dist, theta_star, k).total_mass()


def pk_sum_with_tail(
    dist: FitnessDistribution, theta_star: float, k_max: int
) -> tuple[float, float]:
    """(sum_{k<=k_max} p(k), exact remainder int P(K > k_max) dmu).

    The remainder uses the telescoped Yule-Simon survival function, so the
    pair always adds to 1 up to quadrature error regardless of k_max.
    """
    partial = sum(limit_pk(dist, theta_star, k) for k in range(1, k_max + 1))
    surv = measures.impact_survival(theta_star, k_max + 1)
    atom = dist.atom_at_one * surv(1.0) if dist.atom_at_one else 0.0
    tail = integrate(dist, surv.without_point_one()) + atom
    return partial, tail


def impact_mean_sum_with_tail(
    dist: FitnessDistribution, theta_star: float, k_max: int
) -> tuple[float, float]:
    """(sum_{k<=k_max} k p(k), exact remainder sum_{k>k_max} k p(k)).

    In the condensation phase the remainder integrand grows like 1/(1-f)
    towards 1; it stays mu-integrable exactly when the phase integral does.
    """
    partial = sum(k * limit_pk(dist, theta_star, k) for k in range(1, k_max + 1))
    tail_g = measures.impact_mean_tail(theta_star, k_max + 1)
    atom = 0.0
    if dist.atom_at_one:
        value = tail_g(1.0)
        if math.isinf(value):
            return partial, math.inf
        atom = dist.atom_at_one * value
    tail = integrate(dist, tail_g.without_point_one()) + atom
    return partial, tail


@dataclass(frozen=True)
class LimitSummary:
    """Phase, normalisation limit, and the limit measures of one model."""

    dist: FitnessDistribution
    lam: float
    phase: Phase
    theta_star: float
    gamma: LimitMeasure
    condensate_mass: float

    def gamma_k(self, k: int) -> LimitMeasure:
        return limit_gamma_k(self.dist, self.theta_star, k)

    def pk(self, k: int) -> float:
        return limit_pk(self.dist, self.theta_star, k)


def summarize(dist: FitnessDistribution, lam: float) -> LimitSummary:
    phase = classify_phase(dist, lam)
    theta_star = solve_theta_star(dist, lam)
    gamma = limit_gamma(dist, lam, theta_star=theta_star)
    condensate = gamma.atom_at_one if phase is Phase.BOSE_EINSTEIN else 0.0
    return LimitSummary(dist, lam, phase, theta_star, gamma, condensate)
