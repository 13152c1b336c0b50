"""Fitness distributions on (0, 1] and integration against them.

A fitness distribution mu is a probability measure with bounded support and
essential supremum normalised to 1. Four representations are supported:

* :class:`FiniteDiscrete` -- finitely many atoms (an atom at 1 is simply a
  support point at 1.0),
* :class:`PiecewiseDensity` -- piecewise-polynomial Lebesgue density plus an
  optional explicit atom at 1,
* :class:`BetaShape` -- a Beta(alpha, beta) body (ess sup already 1) plus an
  optional atom at 1,
* :class:`Uniform01` -- the standard uniform law.

Integration is against a small catalog of integrands (rational weights
f/(theta-f), plain polynomials/indicators, and the Yule-Simon impact
factors). Divergent integrals are reported as ``math.inf`` rather than
raised: the phase test downstream legitimately compares an infinite
integral against a finite threshold.

Numerics: closed forms are used where an antiderivative exists (discrete
sums, polynomial densities against rational weights); otherwise adaptive
quadrature. Integrands with a 1/(1-f) factor are integrated after the
substitution f = 1 - exp(-t), which cancels the endpoint singularity
analytically and maps the last piece onto an exponentially decaying
integrand on [t0, inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import integrate as scipy_integrate
from scipy import special

MASS_TOL = 1e-12
DEFAULT_TOL = 1e-10
_QUAD_LIMIT = 200


class MeasureError(ValueError):
    """Invalid fitness-distribution construction or operation."""


# ---------------------------------------------------------------------------
# integrand catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Integrand:
    """A catalog integrand, optionally restricted to a window (lo, hi].

    kind:
      * ``rational``      -- p(f) / (theta - f) with polynomial numerator p
      * ``poly``          -- plain polynomial of f
      * ``impact_factor`` -- Yule-Simon pmf at k with rate theta/f
      * ``impact_survival`` -- Yule-Simon survival P(K >= k)
      * ``impact_mean_tail`` -- sum_{j >= k} j * pmf(j)

    ``include_one`` controls whether mass sitting exactly at f = 1 (explicit
    atoms and discrete support points) belongs to the window. Continuous
    parts are unaffected.
    """

    kind: str
    coeffs: tuple[float, ...] = ()
    theta: float = 0.0
    k: int = 0
    lo: float = 0.0
    hi: float = 1.0
    include_one: bool = True

    def restrict(self, lo: float, hi: float) -> "Integrand":
        return replace(self, lo=max(self.lo, lo), hi=min(self.hi, hi))

    def without_point_one(self) -> "Integrand":
        return replace(self, include_one=False)

    @property
    def pole_at_one(self) -> bool:
        """True when the integrand carries a 1/(1-f) factor."""
        if self.kind == "rational":
            return self.theta == 1.0 and _polyval(self.coeffs, 1.0) != 0.0
        if self.kind == "impact_mean_tail":
            return self.theta == 1.0
        return False

    def __call__(self, f: float) -> float:
        if self.kind == "poly":
            return _polyval(self.coeffs, f)
        if self.kind == "rational":
            den = self.theta - f
            return _polyval(self.coeffs, f) / den if den > 0.0 else math.inf
        if self.kind == "impact_factor":
            return self.theta / (self.theta + self.k * f) * _yule_survival(f, self.theta, self.k)
        if self.kind == "impact_survival":
            return _yule_survival(f, self.theta, self.k)
        if self.kind == "impact_mean_tail":
            gap = self.theta - f
            mean_factor = self.theta / gap if gap > 0.0 else math.inf
            return self.k * _yule_survival(f, self.theta, self.k) * mean_factor
        raise MeasureError(f"unknown integrand kind {self.kind!r}")  # pragma: no cover


def _polyval(coeffs: Sequence[float], f: float) -> float:
    """Horner's rule on one float in ``npoly.polyval``'s operation order."""
    coeffs = coeffs or (0.0,)
    acc = coeffs[-1] + f * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * f
    return acc


def _yule_survival(f: float, theta: float, k: int) -> float:
    """prod_{i=1}^{k-1} i*f / (i*f + theta); equals P(K >= k) at rate theta/f."""
    out = 1.0
    for i in range(1, k):
        out = out * (i * f) / (i * f + theta)
    return out


def f_over_theta_minus_f(theta: float) -> Integrand:
    """f / (theta - f); the integrand defining the normalisation root."""
    if theta < 1.0:
        raise MeasureError("pole location theta must be >= 1")
    return Integrand("rational", coeffs=(0.0, 1.0), theta=float(theta))


def theta_over_theta_minus_f(theta: float) -> Integrand:
    """theta / (theta - f); the fit-get-richer density factor."""
    if theta < 1.0:
        raise MeasureError("pole location theta must be >= 1")
    return Integrand("rational", coeffs=(float(theta),), theta=float(theta))


def one_over_one_minus_f() -> Integrand:
    """1 / (1 - f); the condensation density factor."""
    return Integrand("rational", coeffs=(1.0,), theta=1.0)


def f_over_one_minus_f() -> Integrand:
    """f / (1 - f); the phase-boundary integrand."""
    return Integrand("rational", coeffs=(0.0, 1.0), theta=1.0)


def fitness_identity() -> Integrand:
    """The coordinate f itself (first moment)."""
    return Integrand("poly", coeffs=(0.0, 1.0))


def impact_factor(theta_star: float, k: int) -> Integrand:
    """Density factor of the impact-k fitness law (Yule-Simon pmf at k)."""
    if k < 1:
        raise MeasureError("impact level k must be >= 1")
    if theta_star < 1.0:
        raise MeasureError("theta_star must be >= 1")
    return Integrand("impact_factor", theta=float(theta_star), k=int(k))


def impact_survival(theta_star: float, k: int) -> Integrand:
    """P(K >= k) under the Yule-Simon impact law; tail of the pmf sum."""
    if k < 1:
        raise MeasureError("impact level k must be >= 1")
    if theta_star < 1.0:
        raise MeasureError("theta_star must be >= 1")
    return Integrand("impact_survival", theta=float(theta_star), k=int(k))


def impact_mean_tail(theta_star: float, k: int) -> Integrand:
    """sum_{j >= k} j * pmf(j) under the Yule-Simon impact law."""
    if k < 1:
        raise MeasureError("impact level k must be >= 1")
    if theta_star < 1.0:
        raise MeasureError("theta_star must be >= 1")
    return Integrand("impact_mean_tail", theta=float(theta_star), k=int(k))


# ---------------------------------------------------------------------------
# distribution representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteDiscrete:
    """Finitely many atoms (value, mass); values sorted, masses sum to 1."""

    points: tuple[tuple[float, float], ...]

    def __init__(self, points):
        merged: dict[float, float] = {}
        for value, mass in points:
            value = float(value)
            mass = float(mass)
            if not math.isfinite(value) or value <= 0.0:
                raise MeasureError(f"support point {value} outside (0, inf)")
            if not 0.0 <= mass < math.inf:  # False for NaN as well
                raise MeasureError(f"point mass {mass} is negative or not finite")
            if mass > 0.0:
                merged[value] = merged.get(value, 0.0) + mass
        if len(merged) < 2:
            raise MeasureError("discrete fitness law needs >= 2 support points (no Dirac)")
        total = sum(merged.values())
        if abs(total - 1.0) > MASS_TOL:
            raise MeasureError(f"total mass {total} != 1")
        object.__setattr__(self, "points", tuple(sorted(merged.items())))

    @property
    def ess_sup(self) -> float:
        return self.points[-1][0]

    @property
    def atom_at_one(self) -> float:
        return sum(m for v, m in self.points if v == 1.0)

    def values_masses(self) -> tuple[np.ndarray, np.ndarray]:
        values = np.array([v for v, _ in self.points])
        masses = np.array([m for _, m in self.points])
        return values, masses


@dataclass(frozen=True)
class PiecewiseDensity:
    """Piecewise-polynomial density plus an optional atom at f = 1.

    ``coeffs[j]`` are ascending-power polynomial coefficients of the density
    on (edges[j], edges[j+1]). The density must be nonnegative and the body
    mass plus the atom must equal 1.
    """

    edges: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]
    atom_at_one: float = 0.0

    def __init__(self, edges, coeffs, atom_at_one=0.0):
        edges = tuple(float(e) for e in edges)
        coeffs = tuple(tuple(float(c) for c in piece) for piece in coeffs)
        atom = float(atom_at_one)
        if len(edges) < 2 or len(coeffs) != len(edges) - 1:
            raise MeasureError("need len(edges) == len(coeffs) + 1 >= 2")
        if not all(map(math.isfinite, edges + sum(coeffs, ()))):
            raise MeasureError("edges and coefficients must be finite")
        if edges[0] < 0.0 or any(b <= a for a, b in zip(edges, edges[1:])):
            raise MeasureError("edges must be strictly increasing and start >= 0")
        if not 0.0 <= atom <= 1.0:
            raise MeasureError("atom mass must lie in [0, 1]")
        for (a, b), piece in zip(zip(edges, edges[1:]), coeffs):
            grid = np.linspace(a, b, 257)
            if np.min(npoly.polyval(grid, piece)) < -1e-9:
                raise MeasureError(f"density negative on ({a}, {b})")
        body = sum(
            _poly_segment_integral(piece, a, b)
            for (a, b), piece in zip(zip(edges, edges[1:]), coeffs)
        )
        if abs(body + atom - 1.0) > MASS_TOL:
            raise MeasureError(f"body mass {body} + atom {atom} != 1")
        if body <= 0.0:
            raise MeasureError("density carries no mass (Dirac at 1 is not allowed)")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "atom_at_one", atom)

    @property
    def ess_sup(self) -> float:
        sup = 1.0 if self.atom_at_one > 0.0 else 0.0
        for (a, b), piece in zip(zip(self.edges, self.edges[1:]), self.coeffs):
            if _poly_segment_integral(piece, a, b) > 1e-15:
                sup = max(sup, b)
        return sup

    def density_at_one(self) -> float:
        """Density value at the upper edge when the support reaches 1."""
        for (a, b), piece in zip(zip(self.edges, self.edges[1:]), self.coeffs):
            if a < 1.0 <= b:
                value = _polyval(piece, 1.0)
                scale = max((abs(c) for c in piece), default=0.0)
                return 0.0 if abs(value) <= 1e-12 * max(scale, 1.0) else value
        return 0.0


@dataclass(frozen=True)
class BetaShape:
    """Beta(alpha, beta) body (support (0, 1)) plus an optional atom at 1."""

    alpha: float
    beta: float
    atom_at_one: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise MeasureError("Beta shape parameters must be positive and finite")
        if not 0.0 <= self.atom_at_one < 1.0:
            raise MeasureError("atom mass must lie in [0, 1)")

    @property
    def ess_sup(self) -> float:
        return 1.0


@dataclass(frozen=True)
class Uniform01:
    """Standard uniform fitness law on (0, 1]."""

    @property
    def ess_sup(self) -> float:
        return 1.0

    @property
    def atom_at_one(self) -> float:
        return 0.0

    def _as_piecewise(self) -> PiecewiseDensity:
        return PiecewiseDensity((0.0, 1.0), ((1.0,),))


FitnessDistribution = Union[FiniteDiscrete, PiecewiseDensity, BetaShape, Uniform01]


def require_normalized(dist: FitnessDistribution) -> None:
    if dist.ess_sup != 1.0:
        raise MeasureError(
            f"fitness law has ess sup {dist.ess_sup}; rescale it so that its ess sup is 1"
        )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def quantile(dist: FitnessDistribution, u):
    """Inverse CDF; maps one uniform in [0, 1) to one fitness in (0, 1].

    Every representation consumes exactly one uniform per sample. Discrete
    laws invert the CDF in ascending value order; densities place the atom
    at 1 (when present) on the top quantile range [1 - atom, 1); the uniform
    law returns 1 - u, which decreases in u.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if isinstance(dist, FiniteDiscrete):
        values, masses = dist.values_masses()
        cum = np.cumsum(masses)
        out = values[np.minimum(np.searchsorted(cum, u, side="right"), len(values) - 1)]
    elif isinstance(dist, Uniform01):
        out = 1.0 - u
    else:
        body = 1.0 - dist.atom_at_one

        def body_quantile(v):
            if isinstance(dist, BetaShape):
                return special.betaincinv(dist.alpha, dist.beta, v / body)
            return _piecewise_quantile(dist, v)

        if dist.atom_at_one:
            out = np.ones_like(u)
            inside = u < body
            if np.any(inside):
                out[inside] = body_quantile(u[inside])
        else:  # every u in [0, 1) lies in the body: no mask, no copies
            out = body_quantile(u)
    np.maximum(out, np.nextafter(0.0, 1.0), out=out)  # out is this call's own array
    return float(out[0]) if scalar else out


def _piecewise_quantile(dist: PiecewiseDensity, targets: np.ndarray) -> np.ndarray:
    """Invert the body CDF: the ``hi`` end of 80 bisection passes over
    ``[edges[0], edges[-1]]`` (``mid = lo + hi; mid *= 0.5``; ``lo = mid``
    where ``cdf(mid) < target``, else ``hi = mid``), where ``cdf`` is the
    per-piece antiderivative evaluated by Horner's rule in ``npoly.polyval``'s
    operation order, plus the cumulative mass, minus the antiderivative at
    the piece's left edge. :mod:`pafit.quantile_replay` computes exactly
    these bits in about 16 passes on 3(1-f)^2: it jumps to a deep level only
    where the nodes are exact and the target clears the computed CDF at
    both ends of the bracket by a margin that bounds the CDF's rounding
    error and its non-monotonicity.
    """
    from .quantile_replay import BisectionReplay  # deferred: quantile_replay imports measures

    return BisectionReplay(dist)(np.asarray(targets, dtype=float))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _poly_segment_integral(coeffs, a: float, b: float) -> float:
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if coeffs.size == 0:
        return 0.0
    anti = npoly.polyint(coeffs)
    return float(npoly.polyval(b, anti) - npoly.polyval(a, anti))


def _diverges(dist: FitnessDistribution, g: Integrand) -> bool:
    if not g.pole_at_one or g.hi < 1.0:
        return False
    if g.include_one and dist.atom_at_one > 0.0:
        return True
    if isinstance(dist, FiniteDiscrete):
        return False
    if isinstance(dist, Uniform01):
        return True
    if isinstance(dist, BetaShape):
        return dist.beta <= 1.0
    return dist.density_at_one() != 0.0


def integrate(dist: FitnessDistribution, g: Integrand, *, tol: float = DEFAULT_TOL) -> float:
    """Integrate a catalog integrand against mu over the window (lo, hi]:
    in closed form where one is known, by quadrature otherwise.

    Returns ``math.inf`` for divergent integrals.
    """
    if not isinstance(g, Integrand):
        raise MeasureError("integrand must come from the measures catalog")
    if g.lo >= g.hi:
        return 0.0
    if _diverges(dist, g):
        return math.inf

    if isinstance(dist, FiniteDiscrete):
        return _integrate_discrete(dist, g)
    if isinstance(dist, Uniform01):
        return integrate(dist._as_piecewise(), g, tol=tol)

    atom_part = 0.0
    if dist.atom_at_one > 0.0 and g.hi >= 1.0 and g.include_one:
        value = g(1.0)
        if math.isinf(value):
            return math.inf
        atom_part = dist.atom_at_one * value

    if isinstance(dist, BetaShape):
        exact = _beta_exact(dist, g)
        return (_beta_quad(dist, g, tol) if exact is None else exact) + atom_part
    # piecewise-polynomial density
    exact = _piecewise_exact(dist, g)
    return (_piecewise_quad(dist, g, tol) if exact is None else exact) + atom_part


def _integrate_discrete(dist: FiniteDiscrete, g: Integrand) -> float:
    total = 0.0
    for v, m in dist.points:
        if not (g.lo < v <= g.hi):
            continue
        if v == 1.0 and not g.include_one:
            continue
        value = g(v)
        if math.isinf(value):
            return math.inf
        total += m * value
    return total


def _piece_windows(dist: PiecewiseDensity, g: Integrand):
    for (a, b), piece in zip(zip(dist.edges, dist.edges[1:]), dist.coeffs):
        lo, hi = max(a, g.lo), min(b, g.hi)
        if lo < hi:
            yield lo, hi, piece


def _piecewise_exact(dist: PiecewiseDensity, g: Integrand):
    if g.kind not in ("poly", "rational"):
        return None
    total = 0.0
    for lo, hi, piece in _piece_windows(dist, g):
        if g.kind == "poly":
            prod = npoly.polymul(list(piece), list(g.coeffs))
            total += _poly_segment_integral(prod, lo, hi)
            continue
        num = npoly.polymul(list(piece), list(g.coeffs))
        quotient, remainder = npoly.polydiv(num, [g.theta, -1.0])
        resid = float(remainder[0]) if len(remainder) else 0.0
        scale = max(np.max(np.abs(num)), 1.0)
        if abs(resid) <= 1e-12 * scale:
            resid = 0.0
        total += _poly_segment_integral(quotient, lo, hi)
        if resid != 0.0:
            if g.theta - hi <= 0.0:
                return None  # convergent only through cancellation; use quadrature
            total += resid * (math.log(g.theta - lo) - math.log(g.theta - hi))
    return total


def _piecewise_quad(dist: PiecewiseDensity, g: Integrand, tol: float) -> float:
    total = 0.0
    for lo, hi, piece in _piece_windows(dist, g):
        total += _quad_segment(lambda f, omf, p=piece: _polyval(p, f), lo, hi, g, tol)
    return total


def _beta_exact(dist: BetaShape, g: Integrand):
    if g.kind != "poly" or len(g.coeffs) > 2:
        return None
    body = 1.0 - dist.atom_at_one
    lo, hi = max(g.lo, 0.0), min(g.hi, 1.0)
    a, b = dist.alpha, dist.beta
    total = 0.0
    if len(g.coeffs) >= 1 and g.coeffs[0] != 0.0:
        total += g.coeffs[0] * (special.betainc(a, b, hi) - special.betainc(a, b, lo))
    if len(g.coeffs) == 2 and g.coeffs[1] != 0.0:
        mean = a / (a + b)
        total += g.coeffs[1] * mean * (
            special.betainc(a + 1.0, b, hi) - special.betainc(a + 1.0, b, lo)
        )
    return body * total


def _beta_quad(dist: BetaShape, g: Integrand, tol: float) -> float:
    body = 1.0 - dist.atom_at_one
    lo, hi = max(g.lo, 0.0), min(g.hi, 1.0)
    if lo >= hi:
        return 0.0
    lbeta = special.betaln(dist.alpha, dist.beta)
    am1, bm1 = dist.alpha - 1.0, dist.beta - 1.0

    def density(f, omf):
        with np.errstate(divide="ignore"):
            return np.exp(am1 * np.log(f) + bm1 * np.log(omf) - lbeta)

    return body * _quad_segment(density, lo, hi, g, tol)


def _quad_segment(density, lo: float, hi: float, g: Integrand, tol: float) -> float:
    """Quadrature of g * density over (lo, hi); hi == 1 uses f = 1 - exp(-t).

    ``density(f, one_minus_f)`` receives 1 - f computed exactly in t-space so
    that singular powers of (1 - f) keep full precision near the endpoint.
    """
    epsrel = max(tol, 1e-13)
    if hi < 1.0:
        def fn(f):
            return g(f) * density(f, 1.0 - f)

        value, _ = scipy_integrate.quad(
            fn, lo, hi, epsabs=tol, epsrel=epsrel, limit=_QUAD_LIMIT
        )
        return value

    t0 = -math.log1p(-lo) if lo > 0.0 else 0.0
    theta_gap = g.theta - 1.0 if g.kind in ("rational", "impact_mean_tail") else None

    def fn_t(t):
        w = math.exp(-t)
        f = 1.0 - w
        rho = density(f, w)
        if rho == 0.0:
            return 0.0
        if g.kind == "rational":
            # p(f)/(theta-f) * e^{-t}; theta - f = (theta-1) + e^{-t} exactly
            return _polyval(g.coeffs, f) * w / (theta_gap + w) * rho
        if g.kind == "impact_mean_tail":
            surv = _yule_survival(f, g.theta, g.k)
            return g.k * surv * g.theta / (theta_gap + w) * w * rho
        return g(f) * w * rho

    value, _ = scipy_integrate.quad(
        fn_t, t0, np.inf, epsabs=tol, epsrel=epsrel, limit=_QUAD_LIMIT
    )
    return value


def mean_fitness(dist: FitnessDistribution, *, tol: float = DEFAULT_TOL) -> float:
    return integrate(dist, fitness_identity(), tol=tol)
