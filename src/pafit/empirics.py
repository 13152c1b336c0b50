"""Empirical measures extracted from graph states, their cross-replica
aggregate, and :func:`evaluate`, which turns the aggregate and the limit
predictions into the pass/fail criteria of ``pafit compare``.

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
from typing import Mapping

import numpy as np

from . import simulator
from .measures import FiniteDiscrete, FitnessDistribution, MeasureError

EDGE_SHIFT = math.sqrt(2.0) * 1e-9  # irrational-ish nudge applied on atom collisions
_BIN_CHUNK = 1 << 16  # vertices binned or counted per numpy call

# criteria thresholds (fixed, not configurable: they define the acceptance gate)
FBAR_REL_TOL = 0.02
GAMMA_BIN_TOL_FACTOR = 0.05          # x (1 + lambda), max over bins
PK_ABS_TOL = 0.01                    # per k = 1..5
GAMMA_K_L1_TOL = 0.05                # k = 1, 2
BE_TREND_CHECKPOINTS = 3
CONDENSATION_ABS_TOL = 0.1
CONDENSATION_SIGNATURE_FACTOR = 10.0


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

    @property
    def pk(self) -> np.ndarray:
        """p_n(k) for k = 1..k_max."""
        return self.impact_counts[:-1].sum(axis=1) / self.n


def index_dtype(edges) -> np.dtype:
    """The narrowest unsigned dtype that holds a bin index under ``edges``."""
    return np.min_scalar_type(max(len(edges) - 2, 0))


def fitness_bins(fitness, edges, out: np.ndarray | None = None) -> np.ndarray:
    """Bin index b of each fitness f, edges[b] < f <= edges[b + 1], into
    ``out`` (by default a new array of :func:`index_dtype`): numpy's
    ``clip(searchsorted(edges, f, "left") - 1, 0, bins - 1)``.

    A search on random keys mispredicts its branches. Instead each f starts
    at its bin under uniform edges, ceil(f * bins) - 1, and the few that lie
    outside their bin step one bin at a time towards it. That settles any
    sorted edges; uniform or shifted edges take at most one step. Binned in
    chunks, so the temporaries stay small."""
    edges = np.asarray(edges, dtype=float)
    if len(edges) < 2 or edges[0] != 0.0 or edges[-1] < 1.0:
        raise MeasureError("bin edges must start at 0 and cover (0, 1]")
    fitness = np.asarray(fitness, dtype=float)
    if out is None:
        out = np.empty(len(fitness), dtype=index_dtype(edges))
    top = len(edges) - 2  # the last bin
    # b is right where below[b] < f <= above[b]: the edges, with the outer
    # two opened to infinity as the clip to the first and last bin does
    below = edges.copy()
    below[0], below[-1] = -np.inf, np.inf
    above = below[1:]
    for lo in range(0, len(fitness), _BIN_CHUNK):
        f = fitness[lo : lo + _BIN_CHUNK]
        guess = f * (top + 1)
        np.ceil(guess, out=guess)
        guess -= 1
        b = np.clip(guess, 0, top, out=guess).astype(np.intp)
        wrong = np.flatnonzero((f <= below.take(b)) | (f > above.take(b)))
        while wrong.size:
            fw, bw = f[wrong], b[wrong]
            bw += fw > above.take(bw)
            bw -= fw <= below.take(bw)
            b[wrong] = bw
            wrong = wrong[(fw <= below.take(bw)) | (fw > above.take(bw))]
        out[lo : lo + _BIN_CHUNK] = b
    return out


def snapshot(state, edges, bin_index: np.ndarray, *, k_max: int = 10) -> EmpiricalSnapshot:
    """Single pass over the vertices of a state. ``bin_index`` holds at
    least the state's vertices' bins under ``edges`` (:func:`fitness_bins`),
    in vertex order; a run bins each vertex once for all its snapshots."""
    if k_max < 1:
        raise MeasureError("k_max must be >= 1")
    n_bins = len(edges) - 1
    fitness = np.asarray(state.fitness)
    impact = np.asarray(state.impact, dtype=np.int64)
    n = len(fitness)
    bin_idx = bin_index[:n]

    # counted in chunks, so that the int64 and float casts stay small
    gamma_counts = np.zeros(n_bins, dtype=np.int64)
    impact_counts = np.zeros((k_max + 1) * n_bins, dtype=np.int64)
    for lo in range(0, n, _BIN_CHUNK):
        z, b = impact[lo : lo + _BIN_CHUNK], bin_idx[lo : lo + _BIN_CHUNK]
        gamma_counts += np.bincount(b, weights=z, minlength=n_bins).astype(np.int64)
        k_idx = np.minimum(z, k_max + 1)
        k_idx -= 1
        k_idx *= n_bins
        k_idx += b
        impact_counts += np.bincount(k_idx, minlength=impact_counts.size)
    impact_counts = impact_counts.reshape(k_max + 1, n_bins)

    argmax = int(np.argmax(impact))
    return EmpiricalSnapshot(
        n=n,
        fbar=simulator.fbar(state),
        edges=edges,
        gamma_counts=gamma_counts,
        impact_counts=impact_counts,
        total_impact=int(impact.sum()),
        max_impact=int(impact[argmax]),
        max_impact_fitness=float(fitness[argmax]),
    )


@dataclass(frozen=True)
class ReplicaAggregate:
    """Cross-replica mean and standard error of one checkpoint's snapshots."""

    n: int
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
    max_impact_mean: float

    @property
    def k_max(self) -> int:
        return self.gamma_k_mean.shape[0]


def _mean_stderr(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over the replicas of ``tables``, indexed
    (replica, checkpoint, ...), for each checkpoint. numpy reduces one
    checkpoint's stack of tables row by row, but sums a column of single
    values pairwise; the replicas go innermost for single values, so each
    checkpoint gets the bits of its own reduction.

    That bit equality rests on numpy's reduction order, an implementation
    detail: row by row along a strided axis, pairwise from 8 elements up
    along a contiguous one. ``tests/test_empirics.py``'s
    ``test_every_checkpoint_has_the_bits_of_its_own_stack`` guards it
    (2 and 9 replicas, one bin and eight)."""
    replicas, axis = tables.shape[0], 0
    if tables[0, 0].size == 1:
        tables, axis = np.ascontiguousarray(np.moveaxis(tables, 0, -1)), -1
    mean = tables.mean(axis=axis)
    if replicas < 2:
        return mean, np.zeros_like(mean)
    return mean, tables.std(axis=axis, ddof=1) / math.sqrt(replicas)


def aggregate(runs: list[list[EmpiricalSnapshot]]) -> list[ReplicaAggregate]:
    """Combine independent replicas' snapshots, checkpoint by checkpoint:
    ``runs`` holds each replica's snapshots in checkpoint order, and the
    result each checkpoint's aggregate. One stacked pass over all replicas
    and checkpoints; each aggregate has the bits of a pass over its
    checkpoint alone."""
    if not runs or not runs[0]:
        raise MeasureError("nothing to aggregate")
    first = runs[0]
    if any(
        len(run) != len(first)
        or any(s.n != f.n or not np.array_equal(s.edges, f.edges) for s, f in zip(run, first))
        for run in runs
    ):
        raise MeasureError("snapshots disagree on time or binning")
    n = np.array([s.n for s in first])
    fbar = np.array([[s.fbar for s in run] for run in runs])  # replica, checkpoint
    counts = np.array([[s.gamma_counts for s in run] for run in runs])
    impact = np.array([[s.impact_counts for s in run] for run in runs])[:, :, :-1]
    fbar_mean, fbar_stderr = _mean_stderr(fbar)
    gamma_mean, gamma_stderr = _mean_stderr(counts / n[:, None])
    gk_mean, gk_stderr = _mean_stderr(impact / n[:, None, None])
    pk_mean, pk_stderr = _mean_stderr(impact.sum(axis=3) / n[:, None])
    totals = np.array([[(s.total_impact, s.max_impact) for s in run] for run in runs])
    total_mean, max_mean = totals.mean(axis=0).T  # integers: their float sums are exact
    return [
        ReplicaAggregate(
            n=s.n,
            replicas=len(runs),
            edges=s.edges,
            fbar_mean=float(fbar_mean[c]),
            fbar_stderr=float(fbar_stderr[c]),
            gamma_mean=gamma_mean[c],
            gamma_stderr=gamma_stderr[c],
            gamma_k_mean=gk_mean[c],
            gamma_k_stderr=gk_stderr[c],
            pk_mean=pk_mean[c],
            pk_stderr=pk_stderr[c],
            total_impact_mean=float(total_mean[c]),
            max_impact_mean=float(max_mean[c]),
        )
        for c, s in enumerate(first)
    ]


def _criterion(name: str, passed: bool, measured, threshold, **details) -> dict:
    entry = {"name": name, "passed": bool(passed), "measured": measured, "threshold": threshold}
    entry.update(details)
    return entry


def evaluate(
    theory: dict, tables: Mapping[str, list[dict[str, float]]], config, replicas: int
) -> tuple[dict, dict[str, tuple[list[str], list[tuple]]]]:
    """The criteria of ``pafit compare``: a simulation aggregate against the limit.

    ``theory`` is the limit summary written by ``pafit theory``. ``tables``
    maps each table's file stem to its rows: ``aggregate_trajectory``,
    ``aggregate_gamma``, ``aggregate_gamma_k`` and ``aggregate_pk`` from the
    simulation, ``gamma_bins`` and ``gamma_k_bins`` from the theory.
    ``config`` supplies lambda, the fitness law, the attachment model and
    epsilon; ``replicas`` is the number of replicas behind the aggregate.

    Returns the report and the comparison tables, each keyed by file stem
    as ``(header, rows)``. Raises :class:`MeasureError` when the two sides
    use different bin edges, or when the condensation window [1 - eps, 1]
    does not start on a bin edge.
    """
    lam = config.lam
    phase = theory["phase"]
    theta_star = theory["theta_star"]
    trajectory = tables["aggregate_trajectory"]
    gamma_rows = tables["aggregate_gamma"]
    theory_gamma = tables["gamma_bins"]
    pk_rows = tables["aggregate_pk"]

    if [r["bin_lo"] for r in gamma_rows] != [r["bin_lo"] for r in theory_gamma]:
        raise MeasureError("simulation and theory used different bin edges")

    criteria: list[dict] = []
    final = trajectory[-1]

    empirical = np.array([r["mean"] for r in gamma_rows])
    predicted = np.array([r["predicted_mass"] for r in theory_gamma])
    abs_err = np.abs(empirical - predicted)
    gamma_compare = [
        (r["bin_lo"], r["bin_hi"], e, p, a)
        for r, e, p, a in zip(gamma_rows, empirical, predicted, abs_err)
    ]

    # total impact mass 1 + edges/n, within 3 SE. Under the Poisson model a
    # replica's edge count is exactly Poisson(lambda (n - 1)), so the mean of
    # R replicas has target 1 + lambda (n - 1)/n and SE
    # sqrt(lambda (n - 1) / (R n^2)). Under the fixed-outdegree model every
    # replica has exactly lambda (n - 1) edges, so the total is exact. Custom
    # kernels use the per-bin cross-replica SEs around 1 + lambda
    n = int(final["n"])
    total = float(empirical.sum())
    model = config.attachment_model()
    if isinstance(model, simulator.PoissonOutdegree):
        target = 1.0 + lam * (n - 1) / n
        se = math.sqrt(lam * (n - 1) / (replicas * n * n))
        passed = abs(total - target) <= 3.0 * se
        band = {"target": target, "band": 3.0 * se}
    elif isinstance(model, simulator.FixedOutdegree):
        exact = (1.0 + lam) - lam / n
        passed = abs(total - exact) <= 1e-9
        band = {"target": exact, "band": "exact (deterministic outdegree)"}
    else:
        totals_se = math.sqrt(sum(r["stderr"] ** 2 for r in gamma_rows))
        passed = abs(total - (1.0 + lam)) <= 3.0 * totals_se
        band = {"target": 1.0 + lam, "band": 3.0 * totals_se}
    criteria.append(_criterion("gamma_total_mass_3se", passed, total, band))

    pk_pred = theory["pk"]
    pk_compare = [
        (
            int(row["k"]),
            row["mean"],
            row["stderr"],
            pk_pred[int(row["k"]) - 1],
            abs(row["mean"] - pk_pred[int(row["k"]) - 1]),
        )
        for row in pk_rows
    ]

    if phase == "FitGetRicher":
        rel = abs(final["fbar_mean"] - theta_star) / theta_star
        criteria.append(
            _criterion("normalisation_vs_theta_star", rel <= FBAR_REL_TOL, final["fbar_mean"],
                       {"theta_star": theta_star, "rel_tol": FBAR_REL_TOL})
        )
        bin_tol = GAMMA_BIN_TOL_FACTOR * (1.0 + lam)
        criteria.append(
            _criterion("gamma_max_bin_error", float(abs_err.max()) <= bin_tol,
                       float(abs_err.max()), bin_tol)
        )
        pk_err = [
            abs(row["mean"] - pk_pred[int(row["k"]) - 1])
            for row in pk_rows
            if int(row["k"]) <= 5
        ]
        criteria.append(
            _criterion("impact_fraction_error_k1_5", max(pk_err) <= PK_ABS_TOL,
                       max(pk_err), PK_ABS_TOL)
        )
        gamma_k_sim = tables["aggregate_gamma_k"]
        gamma_k_theory = tables["gamma_k_bins"]
        for k in (1, 2):
            sim_k = np.array([r["mean"] for r in gamma_k_sim if int(r["k"]) == k])
            theory_k = np.array(
                [r["predicted_mass"] for r in gamma_k_theory if int(r["k"]) == k]
            )
            l1 = float(np.abs(sim_k - theory_k).sum())
            criteria.append(
                _criterion(f"impact_law_l1_k{k}", l1 <= GAMMA_K_L1_TOL, l1, GAMMA_K_L1_TOL)
            )
    else:
        # from a cold start the normalisation climbs towards theta* = 1 from
        # below at every n (docs/DECISIONS.md): the corridor is the a-priori
        # floor up to theta*, half-open, and the trend is rising
        lo = simulator.normalisation_lower_edge(config.distribution(), lam)
        fbar_final = final["fbar_mean"]
        criteria.append(
            _criterion("normalisation_corridor", lo <= fbar_final < theta_star,
                       fbar_final, [lo, theta_star])
        )
        tail = [row["fbar_mean"] for row in trajectory[-BE_TREND_CHECKPOINTS:]]
        # a trend needs all its points: over fewer, all() of no pairs is vacuous
        increasing = len(tail) == BE_TREND_CHECKPOINTS and all(
            a < b for a, b in zip(tail, tail[1:])
        )
        criteria.append(
            _criterion("normalisation_trend_increasing", increasing, tail, "strictly increasing")
        )
        # condensation window [1 - eps, 1]
        cut = 1.0 - config.epsilon
        lows = [r["bin_lo"] for r in gamma_rows]
        j = int(np.argmin(np.abs(np.array(lows) - cut)))
        if abs(lows[j] - cut) > 1e-9:
            raise MeasureError("epsilon window does not align with the histogram bins")
        emp_window = float(empirical[j:].sum())
        pred_window = float(predicted[j:].sum())
        bulk_window = pred_window - theory["condensate_mass"]
        criteria.append(
            _criterion("condensation_window_abs",
                       abs(emp_window - pred_window) <= CONDENSATION_ABS_TOL,
                       emp_window, {"predicted": pred_window, "abs_tol": CONDENSATION_ABS_TOL})
        )
        criteria.append(
            _criterion("condensation_window_signature",
                       emp_window >= CONDENSATION_SIGNATURE_FACTOR * bulk_window,
                       emp_window,
                       {"bulk_only": bulk_window, "factor": CONDENSATION_SIGNATURE_FACTOR})
        )

    report = {
        "schema_version": 1,
        "phase": phase,
        "lambda": lam,
        "theta_star": theta_star,
        "n": n,
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
    }
    outputs = {
        "gamma_compare": (
            ["bin_lo", "bin_hi", "empirical_mass", "predicted_mass", "abs_error"],
            gamma_compare,
        ),
        "pk_compare": (
            ["k", "empirical_mean", "empirical_stderr", "predicted", "abs_error"],
            pk_compare,
        ),
    }
    return report, outputs
