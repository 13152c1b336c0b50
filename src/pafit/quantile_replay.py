"""Exact replay of the piecewise-density inverse CDF in few passes.

``measures._piecewise_quantile`` is defined as the ``hi`` end of 80
bisection passes over the law's domain ``[edges[0], edges[-1]]``
(``mid = lo + hi; mid *= 0.5``; ``lo = mid`` where ``cdf(mid) < target``,
else ``hi = mid``), with ``cdf`` (:meth:`BisectionReplay.cdf`) the
per-piece antiderivative by Horner's rule in ``npoly.polyval``'s order,
``+ cum[j]``, ``- base[j]``. Where no C compiler works,
:meth:`BisectionReplay.__call__` runs exactly these passes. Elsewhere
``quantile_replay_variant`` of ``_urn.c``, compiled and loaded with the
growth loop (``simulator._compiled_urn``), returns the same bits in three steps,
from the tables and constants prepared here:

1. The first 12 levels of the bisection tree are tabulated once per call
   with the same operations; a draw descends them by integer gathers.
2. On a dyadic domain, where every node down to level ``kmax`` is exact
   (:func:`exact_levels`), a secant and a Newton step estimate the root
   and pick the deepest level K whose bracket still spans about 32
   certificate margins of CDF. The draw jumps to its level-K bracket when
   ``cdf(lo_K) + M < target <= cdf(hi_K) - M``, with
   ``M = 2 eps + delta + 2u (S + 1)`` (:func:`certificate_margin`): eps
   bounds the Horner error of the computed CDF, delta the total decrease
   of the exact CDF of the rounded coefficients, and the last term the
   rounding of the test itself. Every node left of the bracket then
   compares below the target and every node right of it does not, so the
   passes reach this bracket. A draw that fails the test stays at the
   table's level.
3. Plain passes finish the bisection. A pass whose mid equals ``lo`` or
   ``hi`` leaves a fixed point, ``(lo, hi)`` or ``(mid, mid)``: such a draw
   leaves the active set. No draw takes more than 80 passes.

On the density 3(1-f)^2 a compiled draw costs the 12 table gathers, three
CDF and one pdf evaluation for the jump, and about 16 passes instead of
80. ``_urn.c`` runs these over 8 draws at a time with AVX-512, 4 with AVX2
and 2 elsewhere, the widest the CPU has (``simulator._build_urn`` asks
once): about 40-55, 60-85 and 120-150 ns
a draw, against 1.2 µs for the 80 numpy passes (2-CPU Xeon).
:meth:`BisectionReplay.compiled` runs a named variant. Preparing a law
takes about a millisecond; a replica draws all its marks in one call.
``docs/DECISIONS.md`` section 8 derives the margin and records the checks;
section 20 covers the compiled replay, section 21 the fallback and section
22 the wide variants.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import simulator
from .measures import PiecewiseDensity, _poly_segment_integral

PASSES = 80  # bisection passes of the inverse CDF
TABLE_LEVELS = 12  # levels of the bisection tree tabulated once per law
JUMP_SPAN = 32.0  # CDF span of the jump bracket, in certificate margins
BERNSTEIN_DEPTH = 10  # halvings of a piece in the decrease bound
CHUNK = 32768  # draws per batch of the numpy passes, which bounds their memory
UNIT_ROUNDOFF = 2.0**-53


class _Law(ctypes.Structure):
    """``struct law`` of ``_urn.c``."""

    ARRAYS = ("heap", "bounds", "bounds_cdf", "anti", "dens", "edges", "cum", "base")
    _fields_ = (
        [(name, ctypes.c_void_p) for name in ARRAYS]
        + [(name, ctypes.c_long) for name in
           ("pieces", "anti_rows", "dens_rows", "levels", "passes", "jumps", "kmax")]
        + [(name, ctypes.c_double) for name in
           ("lo", "hi", "total", "margin", "level_scale", "width")]
    )


class BisectionReplay:
    """The inverse-CDF bisection of one :class:`PiecewiseDensity`, prepared
    for exact replay; calling it on an array of targets in the body's mass
    range returns the bisection's result for each."""

    def __init__(self, dist: PiecewiseDensity):
        pieces = list(zip(dist.edges, dist.edges[1:], dist.coeffs))
        masses = [_poly_segment_integral(c, a, b) for a, b, c in pieces]
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        antis = [npoly.polyint(list(c)) for _, _, c in pieces]
        bases = [npoly.polyval(a, anti) for (a, _, _), anti in zip(pieces, antis)]
        # row k holds the x^k coefficients of every piece; the zero padding
        # above a piece's degree leaves its Horner values unchanged
        self.anti = np.zeros((max(map(len, antis)), len(pieces)))
        self.dens = np.zeros((len(self.anti) - 1, len(pieces)))
        for j, (anti, (_, _, coeffs)) in enumerate(zip(antis, pieces)):
            self.anti[: len(anti), j] = anti
            self.dens[: len(coeffs), j] = coeffs
        self.edges = np.asarray(dist.edges)
        self.lo, self.hi = dist.edges[0], dist.edges[-1]
        self.cum = cum[:-1]
        self.base = np.asarray(bases)
        self.total = cum[-1]

        # the first levels of the tree in heap order, and the level-L leaves
        lo, hi = np.array([self.lo]), np.array([self.hi])
        heap = []
        for _ in range(TABLE_LEVELS):
            mid = lo + hi
            mid *= 0.5
            heap.append(self.cdf(mid))
            lo, hi = np.column_stack([lo, mid]).ravel(), np.column_stack([mid, hi]).ravel()
        self.heap = np.concatenate(heap)
        self.bounds = np.append(lo, self.hi)
        self.bounds_cdf = np.append(self.cdf(lo), self.total)

        self.kmax = exact_levels(self.lo, self.hi)
        self.margin = certificate_margin(dist.edges, antis, cum, bases)
        self.jumps = self.kmax > TABLE_LEVELS and self.margin < 1.0
        self.width = self.hi - self.lo  # exact on a dyadic domain
        self.level_scale = self.width / (JUMP_SPAN * self.margin)

    def _piece(self, x: np.ndarray):
        """Each point's piece index, as the reference picks it; None for one piece."""
        if len(self.cum) == 1:
            return None
        idx = np.searchsorted(self.edges, x, side="right")
        idx -= 1
        np.clip(idx, 0, len(self.cum) - 1, out=idx)
        return idx

    @staticmethod
    def _gather(table: np.ndarray, idx):
        return table[..., 0] if idx is None else table.take(idx, axis=-1)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """The computed body CDF at ``x`` in the domain, with
        ``npoly.polyval``'s operations: the CDF of the definition, to the bit."""
        idx = self._piece(x)
        rows = self._gather(self.anti, idx)
        acc = x * 0.0
        acc += rows[-1]
        for coef in rows[-2::-1]:
            acc *= x
            acc += coef
        acc += self._gather(self.cum, idx)
        acc -= self._gather(self.base, idx)
        acc[x <= self.lo] = 0.0
        acc[x >= self.hi] = self.total
        return acc

    def __call__(self, t: np.ndarray) -> np.ndarray:
        native = simulator._compiled_urn()
        if native is not None:
            return self.compiled(t, native.variants[-1])
        t = np.ascontiguousarray(t, dtype=float)
        out = np.empty_like(t)
        # no compiler: the definition itself, 80 plain passes
        for start in range(0, t.size, CHUNK):
            target = t[start : start + CHUNK]
            lo, hi = np.full_like(target, self.lo), np.full_like(target, self.hi)
            for _ in range(PASSES):
                mid = lo + hi
                mid *= 0.5
                below = self.cdf(mid) < target
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            out[start : start + CHUNK] = hi
        return out

    def compiled(self, t: np.ndarray, variant: str) -> np.ndarray | None:
        """The compiled replay of ``t`` through the named variant of
        ``quantile_replay_variant`` (one of ``simulator.REPLAY_VARIANTS``); None
        where no compiler works or this CPU lacks the variant. ``__call__``
        runs the widest variant the CPU has."""
        native = simulator._compiled_urn()
        if native is None or variant not in native.variants:
            return None
        t = np.ascontiguousarray(t, dtype=float)
        out = np.empty_like(t)
        v = simulator.REPLAY_VARIANTS.index(variant)
        native.replay_variant(ctypes.byref(self._law()), t.ctypes.data, out.ctypes.data, t.size, v)
        return out

    def _law(self) -> _Law:
        """The tables and constants that ``quantile_replay_variant`` of
        ``_urn.c`` reads; the arrays stay referenced by ``self``."""
        self._arrays = [
            np.ascontiguousarray(getattr(self, name), dtype=float) for name in _Law.ARRAYS
        ]
        return _Law(
            *(a.ctypes.data for a in self._arrays),
            len(self.cum), len(self.anti), len(self.dens), TABLE_LEVELS, PASSES,
            int(self.jumps), self.kmax, self.lo, self.hi, self.total, self.margin,
            self.level_scale, self.width,
        )


def exact_levels(a: float, b: float) -> int:
    """Deepest level K whose bisection nodes of [a, b] are computed exactly.

    With a = A/den and b = B/den (den a power of two), the level-k nodes are
    integers over den 2^k, at most max(|A|, |B|) 2^k, and each ``lo + hi``
    at level k - 1 is an integer over den 2^(k-1), at most 2 max(|A|, |B|)
    2^(k-1). All of them are doubles, so every sum and halving is exact,
    while these bounds stay within 2^53, i.e. while 2 max(|A|, |B|) 2^K
    <= 2^54. On [0, 1] that is K = 53.
    """
    (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
    den = max(da, db)
    top = 2 * max(abs(na) * (den // da), abs(nb) * (den // db))
    level = 54 - top.bit_length() + (top & (top - 1) == 0)  # top * 2^K <= 2^54
    return min(level, 1000 - den.bit_length())


def certificate_margin(edges, antis, cum, bases) -> float:
    """M = 2 eps + delta + 2u (S + 1) of the jump certificate.

    eps: the computed CDF on piece j carries d Horner multiplications and
    additions and two more additions (``+ cum``, ``- base``), so it is within
    gamma_{2d+2} (sum |a_k| x^k + |cum_j| + |base_j|) of the exact value of
    its own rounded coefficients (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.1 and 5.1); S is the largest
    of these sums. delta: that exact function decreases by at most
    width * max(0, -min Bernstein coefficient of its derivative) on a piece,
    and by the downward jump at each piece edge, computed in rationals.
    2u (S + 1) covers the rounding of ``cdf + M`` and ``cdf - M``. The
    factor 1.001 covers the rounding of this float evaluation of M.
    """
    from fractions import Fraction

    u = UNIT_ROUNDOFF
    eps = scale = 0.0
    delta = Fraction(0)
    previous = None  # the last piece's coefficients and offset, in rationals
    for j, anti in enumerate(antis):
        a, b = edges[j], edges[j + 1]
        size = sum(abs(c) * b**k for k, c in enumerate(anti)) + abs(cum[j]) + abs(bases[j])
        steps = 2 * len(anti)  # 2d + 2 rounded operations
        eps = max(eps, steps * u / (1.0 - steps * u) * size)
        scale = max(scale, size)
        coeffs = [Fraction(c) for c in anti]
        shift = Fraction(cum[j]) - Fraction(bases[j])
        slope = [k * c for k, c in enumerate(coeffs)][1:] or [Fraction(0)]
        delta += _decrease_bound(slope, Fraction(a), Fraction(b), BERNSTEIN_DEPTH)
        if previous is not None:  # the downward jump at edge a, if any
            left = _horner(previous[0], Fraction(a)) + previous[1]
            delta += max(Fraction(0), left - _horner(coeffs, Fraction(a)) - shift)
        previous = coeffs, shift
    return 1.001 * (2.0 * eps + float(delta) + 2.0 * u * (scale + 1.0))


def _horner(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _decrease_bound(slope, a, b, depth: int):
    """Upper bound on the integral of max(0, -slope) over [a, b]: the width
    times the most negative Bernstein coefficient, halving [a, b] (up to
    ``depth`` times) wherever that bound is not yet zero."""
    low = min(_bernstein(slope, a, b))
    if low >= 0:
        return 0
    if depth == 0:
        return -low * (b - a)
    mid = (a + b) / 2
    return _decrease_bound(slope, a, mid, depth - 1) + _decrease_bound(slope, mid, b, depth - 1)


def _bernstein(coeffs, a, b):
    """Bernstein coefficients on [a, b] of sum coeffs[k] x^k (exact in
    rationals); the polynomial is at least their minimum on [a, b]."""
    n = len(coeffs) - 1
    w = b - a
    # coefficients in s of p(a + w s)
    g = [
        sum(coeffs[k] * math.comb(k, m) * a ** (k - m) for k in range(m, n + 1)) * w**m
        for m in range(n + 1)
    ]
    return [
        sum(g[m] * math.comb(i, m) / math.comb(n, m) for m in range(i + 1))
        for i in range(n + 1)
    ]
