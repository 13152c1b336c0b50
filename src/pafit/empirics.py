"""Empirical measures extracted from graph states, and their comparison
against limit predictions.

Histogram counts are kept in integer arithmetic wherever possible so the
bookkeeping identities (bin sums equal total impact, impact fractions sum
to one) hold exactly. Bins are the half-open cells (edge[b], edge[b+1]]
over (0, 1]; both the empirical assignment and the predicted masses use
identical float comparisons, so a discrete support point sitting exactly on
an edge lands in the same bin on both sides. Edges can additionally be
nudged off discrete support points (see :func:`collision_free_edges`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .limit_theory import LimitMeasure
from .measures import DEFAULT_TOL, FiniteDiscrete, FitnessDistribution, MeasureError

EDGE_SHIFT = math.sqrt(2.0) * 1e-9  # irrational-ish nudge applied on atom collisions


def uniform_edges(bins: int) -> np.ndarray:
    if bins < 1:
        raise MeasureError("need at least one bin")
    return np.linspace(0.0, 1.0, bins + 1)


def collision_free_edges(dist: FitnessDistribution, bins: int) -> np.ndarray:
    """Uniform edges, with interior edges shifted off discrete atoms of mu."""
    edges = uniform_edges(bins)
    if isinstance(dist, FiniteDiscrete):
        values = {v for v, _ in dist.points}
        for j in range(1, bins):
            if edges[j] in values:
                edges[j] = edges[j] + EDGE_SHIFT
    return edges


@dataclass(frozen=True)
class EmpiricalSnapshot:
    """Binned empirical measures of one state at one time.

    ``gamma_counts[b]`` sums the impacts of vertices in bin b (so
    gamma_counts / n is the binned impact-weighted fitness measure);
    ``impact_counts[k-1, b]`` counts vertices with impact exactly k in bin
    b for k = 1..k_max, and ``impact_counts[k_max, b]`` aggregates the tail
    of vertices with impact above k_max.
    """

    n: int
    lam: float
    fbar: float
    edges: np.ndarray
    gamma_counts: np.ndarray
    impact_counts: np.ndarray
    total_impact: int
    max_impact: int
    max_impact_fitness: float

    @property
    def k_max(self) -> int:
        return self.impact_counts.shape[0] - 1

    @property
    def gamma_mass(self) -> np.ndarray:
        return self.gamma_counts / self.n

    def gamma_k_mass(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.k_max:
            raise MeasureError(f"tracked impacts are 1..{self.k_max}")
        return self.impact_counts[k - 1] / self.n

    @property
    def pk(self) -> np.ndarray:
        """p_n(k) for k = 1..k_max."""
        return self.impact_counts[:-1].sum(axis=1) / self.n

    @property
    def tail_fraction(self) -> float:
        """Fraction of vertices with impact above k_max."""
        return float(self.impact_counts[-1].sum()) / self.n

    def window_mass(self, lo_edge_index: int) -> float:
        """Empirical impact mass of the bins from ``lo_edge_index`` upward."""
        return float(self.gamma_counts[lo_edge_index:].sum()) / self.n


def snapshot(state, *, bins: int = 100, k_max: int = 10, bin_edges=None) -> EmpiricalSnapshot:
    """Single pass over the vertices of a state."""
    if k_max < 1:
        raise MeasureError("k_max must be >= 1")
    edges = np.asarray(bin_edges, dtype=float) if bin_edges is not None else uniform_edges(bins)
    if edges[0] != 0.0 or edges[-1] < 1.0:
        raise MeasureError("bin edges must start at 0 and cover (0, 1]")
    n_bins = len(edges) - 1
    fitness = np.asarray(state.fitness)
    impact = np.asarray(state.impact, dtype=np.int64)
    n = len(fitness)

    bin_idx = np.searchsorted(edges, fitness, side="left") - 1
    bin_idx = np.clip(bin_idx, 0, n_bins - 1)

    gamma_counts = np.bincount(bin_idx, weights=impact, minlength=n_bins).astype(np.int64)
    k_idx = np.minimum(impact, k_max + 1) - 1
    impact_counts = (
        np.bincount(k_idx * n_bins + bin_idx, minlength=(k_max + 1) * n_bins)
        .reshape(k_max + 1, n_bins)
        .astype(np.int64)
    )

    argmax = int(np.argmax(impact))
    return EmpiricalSnapshot(
        n=n,
        lam=state.lam,
        fbar=state.total_weight / (state.lam * n),
        edges=edges,
        gamma_counts=gamma_counts,
        impact_counts=impact_counts,
        total_impact=int(impact.sum()),
        max_impact=int(impact[argmax]),
        max_impact_fitness=float(fitness[argmax]),
    )


@dataclass(frozen=True)
class GammaComparison:
    edges: np.ndarray
    empirical: np.ndarray
    predicted: np.ndarray

    @property
    def abs_errors(self) -> np.ndarray:
        return np.abs(self.empirical - self.predicted)

    @property
    def max_abs_error(self) -> float:
        return float(self.abs_errors.max())

    @property
    def l1_distance(self) -> float:
        return float(self.abs_errors.sum())

    @property
    def empirical_total(self) -> float:
        return float(self.empirical.sum())

    @property
    def predicted_total(self) -> float:
        return float(self.predicted.sum())


def compare_masses(edges, empirical_mass, limit: LimitMeasure, *, tol: float = DEFAULT_TOL) -> GammaComparison:
    """Bin-by-bin comparison of an empirical mass vector against a limit law.

    The predicted mass of the last bin includes the limit's atom at 1.
    """
    edges = np.asarray(edges, dtype=float)
    empirical_mass = np.asarray(empirical_mass, dtype=float)
    if len(empirical_mass) != len(edges) - 1:
        raise MeasureError("mass vector does not match the bin edges")
    predicted = limit.bin_masses(edges, tol=tol)
    return GammaComparison(edges=edges, empirical=empirical_mass, predicted=predicted)


def compare_gamma(snap: EmpiricalSnapshot, limit: LimitMeasure, *, tol: float = DEFAULT_TOL) -> GammaComparison:
    """Binned empirical impact measure against the predicted limit."""
    return compare_masses(snap.edges, snap.gamma_mass, limit, tol=tol)


def compare_gamma_k(
    snap: EmpiricalSnapshot, limit_k: LimitMeasure, k: int, *, tol: float = DEFAULT_TOL
) -> GammaComparison:
    return compare_masses(snap.edges, snap.gamma_k_mass(k), limit_k, tol=tol)


def condensation_diagnostic(
    snap: EmpiricalSnapshot, limit: LimitMeasure, eps: float, *, tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """(empirical, predicted) impact mass of the window [1 - eps, 1].

    1 - eps must land on a bin edge (the empirical side is binned); the
    default bin counts make eps = 0.1 or 0.01 exact.
    """
    if not 0.0 < eps <= 1.0:
        raise MeasureError("eps must lie in (0, 1]")
    edges = snap.edges
    cut = 1.0 - eps
    j = int(np.argmin(np.abs(edges - cut)))
    if abs(edges[j] - cut) > 1e-9:
        raise MeasureError(
            f"window edge {cut} does not align with the snapshot bins; "
            "choose eps as a multiple of the bin width"
        )
    empirical = snap.window_mass(j)
    predicted = limit.mass(float(edges[j]), 1.0, tol=tol)
    return empirical, predicted


@dataclass(frozen=True)
class ReplicaAggregate:
    """Cross-replica mean and standard error of one checkpoint's snapshots."""

    n: int
    lam: float
    replicas: int
    edges: np.ndarray
    fbar_mean: float
    fbar_stderr: float
    gamma_mean: np.ndarray
    gamma_stderr: np.ndarray
    gamma_k_mean: np.ndarray  # shape (k_max, bins)
    gamma_k_stderr: np.ndarray
    pk_mean: np.ndarray
    pk_stderr: np.ndarray
    total_impact_mean: float
    total_impact_stderr: float
    max_impact_mean: float

    @property
    def k_max(self) -> int:
        return self.gamma_k_mean.shape[0]


def _mean_stderr(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = np.asarray(rows, dtype=float)
    mean = rows.mean(axis=0)
    if rows.shape[0] < 2:
        return mean, np.zeros_like(mean)
    return mean, rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])


def aggregate(snaps: list[EmpiricalSnapshot]) -> ReplicaAggregate:
    """Combine matched-time snapshots from independent replicas."""
    if not snaps:
        raise MeasureError("nothing to aggregate")
    first = snaps[0]
    if any(s.n != first.n or not np.array_equal(s.edges, first.edges) for s in snaps):
        raise MeasureError("snapshots disagree on time or binning")
    fbar_mean, fbar_stderr = _mean_stderr(np.array([[s.fbar] for s in snaps]))
    gamma_mean, gamma_stderr = _mean_stderr(np.stack([s.gamma_mass for s in snaps]))
    gk = np.stack([s.impact_counts[:-1] / s.n for s in snaps])
    gk_mean = gk.mean(axis=0)
    gk_stderr = (
        gk.std(axis=0, ddof=1) / math.sqrt(len(snaps)) if len(snaps) > 1 else np.zeros_like(gk_mean)
    )
    pk_mean, pk_stderr = _mean_stderr(np.stack([s.pk for s in snaps]))
    ti_mean, ti_stderr = _mean_stderr(np.array([[float(s.total_impact)] for s in snaps]))
    return ReplicaAggregate(
        n=first.n,
        lam=first.lam,
        replicas=len(snaps),
        edges=first.edges,
        fbar_mean=float(fbar_mean[0]),
        fbar_stderr=float(fbar_stderr[0]),
        gamma_mean=gamma_mean,
        gamma_stderr=gamma_stderr,
        gamma_k_mean=gk_mean,
        gamma_k_stderr=gk_stderr,
        pk_mean=pk_mean,
        pk_stderr=pk_stderr,
        total_impact_mean=float(ti_mean[0]),
        total_impact_stderr=float(ti_stderr[0]),
        max_impact_mean=float(np.mean([s.max_impact for s in snaps])),
    )
