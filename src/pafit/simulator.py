"""Sequential growth of the random multigraph under impact evolutions.

The graph is represented only through the per-vertex fitness and impact
arrays (``array("d")`` and ``array("q")``, 16 bytes a vertex), the token
urn below and the running total weight ``W = sum_i fitness_i * impact_i``.
No adjacency is kept beside the urn: the urn is itself the ordered edge
record, which :func:`edge_log` reads off on demand.
Each growth step freezes the current weights, draws the edge increments of
the chosen attachment model against them, applies the increments, and
appends the new vertex with impact 1. :func:`new_graph` places vertex 0;
:func:`run` adds every later one, through :func:`_grow`.

Attachment models:

* :class:`PoissonOutdegree` -- independent Poisson(w_i / sum w) edge counts
  per old vertex, realised as one Poisson(lambda) total split categorically
  (exact by Poisson superposition/thinning; O(lambda) work per step, not O(n)).
* :class:`FixedOutdegree` -- multinomial with exactly lambda edges per step,
  realised as lambda iid categorical draws.
* :class:`CustomKernel` -- arbitrary increment law over the frozen state.

Every state keeps one token urn (Batagelj & Brandes, Phys. Rev. E 71,
036113, 2005, plus a rejection step): vertex i holds ``impact[i]``
tokens, and a draw picks a uniform token and keeps its owner with
probability F_i <= 1, so it lands on i with probability F_i Z_i / W. A
step's draws see only the tokens present when the step began. A draw takes
``total_impact / total_weight`` tries on average (1.16 on the two-point law
at lambda 2, about 2.5 on the density 3(1-f)^2 at lambda 1). The loop of
:func:`_grow` does nothing else per edge: two uniforms and a token lookup
per try, one append per target. For the built-in models it runs as the C
function of ``_urn.c``, compiled on first use and loaded with ``ctypes``;
it makes the Python loop's double multiply, truncation and compare, so
its output is the same bits. Where no C compiler works, its line-for-line
Python twin runs instead. The same source holds the fitness inverse-CDF
replay of :mod:`pafit.quantile_replay`, so one compile, one cached library
and one fallback switch (:func:`_compiled_urn`) serve both; on the density
a replica's 2e5 fitness draws take about 8-11 ms compiled for AVX-512
(12-17 ms for AVX2, 24-30 ms without either: the source picks its vector
width at run time) and 0.24 s through the 80 numpy bisection passes that
define them, which run where no compiler works. The same loop, run for
one step on copies of a
frozen state's arrays, resamples its transitions for ``kernel_contract``
(:func:`frozen_targets`). As it appends a token, the loop
also adds one to its owner's impact and the owner's fitness to W, so W
is a running sum in the order the tokens are appended, and nothing
passes over the appended tokens again. A replica's growth costs about
0.15 µs per edge on the two-point law and 0.25 µs on the density, against
1.0-1.5 and 1.9-2.4 µs with the Python loop (2-CPU Xeon, traced
``perfbench`` runs). Custom
kernels get the state itself and draw from the same urn through
:meth:`GraphState.pick`, on channel 3, one vertex at a time, in Python.

Randomness is organised in four documented channels per replica so that a
value's position in a stream never depends on internal batching:
``SeedSequence(entropy=base_seed, spawn_key=(replica, channel))`` feeding a
PCG64 generator, with channel 0 = fitness inverse-CDF uniforms (one per
vertex), channel 1 = edge-target uniforms (two per try: the first picks the
token, the second decides acceptance), channel 2 = outdegree counts,
channel 3 = custom-kernel draws. A generator draws the same values however
its reads are cut, so channels 0, 2 and 3 are plain generator calls of the
size each caller needs. Only channel 1 is read from a block, at one
position, by :func:`_draw_steps` alone, which growth and resampled
transitions (:func:`frozen_targets`) both run through: the compiled loop
reads the block in place.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import measures
from .measures import FitnessDistribution, MeasureError

_BLOCK = 8192
_CHUNK = 1 << 16  # vertices per numpy pass of the audit and the edge log, as empirics counts


class AuditError(RuntimeError):
    """A checkpoint bookkeeping audit failed; the run state is suspect."""


class _Stream:
    """Channel 1, read in numpy blocks from one position by its only reader,
    :func:`_draw_steps`. The compiled loop reads a block's uniforms in place,
    and a block lets the CPU overlap the urn's random token lookups.
    """

    __slots__ = ("_refill", "block", "pos")

    def __init__(self, refill: Callable[[], np.ndarray]):
        self._refill = refill
        self.block = np.empty(0)
        self.pos = 0

    def fill(self) -> None:
        """Start a new block after the values not yet read."""
        rest = self.block[self.pos :]
        self.block = np.concatenate((rest, self._refill())) if rest.size else self._refill()
        self.pos = 0


class ReplicaStreams:
    """A replica's four random channels: ``fitness`` (0), ``edges`` (1, the
    growth loop's block), ``counts`` (2) and ``kernel`` (3). Channels 0, 2
    and 3 are plain generators, which draw the same values however their
    reads are cut."""

    __slots__ = ("replica", "fitness", "edges", "counts", "kernel")

    def __init__(self, base_seed: int, replica: int = 0):
        self.replica = int(replica)

        def generator(channel: int) -> np.random.Generator:
            seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(self.replica, channel))
            return np.random.Generator(np.random.PCG64(seq))

        self.fitness, self.counts, self.kernel = generator(0), generator(2), generator(3)
        edge_rng = generator(1)
        self.edges = _Stream(lambda: edge_rng.random(_BLOCK))


@dataclass(frozen=True)
class PoissonOutdegree:
    label: str = "poisson"

    def outdegrees(self, lam: float, streams: ReplicaStreams, size: int) -> np.ndarray:
        return streams.counts.poisson(lam, size)


@dataclass(frozen=True)
class FixedOutdegree:
    label: str = "multinomial"

    def outdegrees(self, lam: float, streams: ReplicaStreams, size: int) -> np.ndarray:
        return np.full(size, int(lam), dtype=np.int64)


@dataclass(frozen=True)
class CustomKernel:
    """User attachment law: draw(state, rng) -> {vertex index: edge count}.

    ``draw`` reads the frozen :class:`GraphState` (``n``, ``fitness``,
    ``impact``, and :meth:`GraphState.pick` for a token-urn draw) and must
    not mutate it: growth applies the increments after the draw.
    """

    draw: Callable[[GraphState, np.random.Generator], Mapping[int, int]]
    label: str = "custom"

    def increments(self, state: GraphState, rng: np.random.Generator) -> dict[int, int]:
        """One checked draw; a frozen state may serve many."""
        incs: dict[int, int] = {}
        for index, count in self.draw(state, rng).items():
            index = int(index)
            if not 0 <= index < state.n:
                raise MeasureError(f"kernel emitted edge to nonexistent vertex {index}")
            count = int(count)
            if count < 0:
                raise MeasureError("kernel emitted a negative edge increment")
            if count:
                incs[index] = incs.get(index, 0) + count
        return incs


AttachmentModel = PoissonOutdegree | FixedOutdegree | CustomKernel


class GraphState:
    """The evolving network; confined to a single worker. Vertex i owns
    ``impact[i]`` entries of the token urn ``tokens``, under every model.
    ``fitness``, ``impact`` and ``tokens`` are typed arrays, so that numpy
    reads them without a copy."""

    __slots__ = (
        "dist",
        "lam",
        "model",
        "streams",
        "fitness",
        "impact",
        "tokens",
        "total_weight",
        "total_impact",
        "edge_count",
    )

    def __init__(self, dist, lam, model, streams):
        self.dist = dist
        self.lam = float(lam)
        self.model = model
        self.streams = streams
        self.fitness = array("d")  # 8 bytes a vertex
        self.impact = array("q")
        self.tokens = array("i")  # 4 bytes a token
        self.total_weight = 0.0
        self.total_impact = 0
        self.edge_count = 0

    @property
    def n(self) -> int:
        return len(self.fitness)

    def _add_vertex(self, f: float) -> None:
        """Append a vertex of fitness ``f`` with impact 1 and its token."""
        self.tokens.append(self.n)
        self.fitness.append(f)
        self.impact.append(1)
        self.total_weight += f
        self.total_impact += 1

    def apply_increments(self, incs: Mapping[int, int]) -> None:
        """Apply a custom kernel's increments (built-in models count theirs in bulk)."""
        for i, count in incs.items():
            self.impact[i] += count
            self.tokens.extend([i] * count)
            self.total_weight += self.fitness[i] * count
            self.total_impact += count
            self.edge_count += count

    def pick(self, rng: np.random.Generator) -> int:
        """One token-urn draw: vertex i with probability F_i Z_i / W."""
        tokens, fitness = self.tokens, self.fitness
        size = len(tokens)  # int(u * size) < size for every double u < 1
        i = tokens[int(rng.random() * size)]
        while rng.random() >= fitness[i]:
            i = tokens[int(rng.random() * size)]
        return i

    @classmethod
    def from_arrays(cls, fitness, impact, lam, model):
        """Build a frozen synthetic state (used by contract checks and tests)
        without streams: callers that sample it pass their own. Tokens come
        in index order; W is a sequential ``cumsum``, a running sum's bits."""
        f = np.asarray(fitness, dtype=float)
        z = np.asarray(impact, dtype=np.int64)
        shaped = f.size and f.shape == z.shape == (f.size,)
        if not (shaped and np.all((f > 0) & (f <= 1) & (z >= 1))):
            raise MeasureError("a state needs fitnesses in (0, 1] and as many impacts >= 1")
        state = cls(None, lam, model, None)
        state.fitness.frombytes(f.tobytes())
        state.impact.frombytes(z.tobytes())
        state.tokens.frombytes(np.repeat(np.arange(f.size, dtype=np.intc), z).tobytes())
        state.total_weight = float(np.cumsum(f * z)[-1])
        state.total_impact = int(z.sum())
        state.edge_count = state.total_impact - f.size
        return state


def new_graph(
    dist: FitnessDistribution,
    lam: float,
    model: AttachmentModel,
    seed: int,
    *,
    replica: int = 0,
) -> GraphState:
    """Single-vertex start: one vertex, impact 1, no edges."""
    measures.require_normalized(dist)
    if not 0.0 < lam < math.inf:  # False for NaN as well
        raise MeasureError(f"lambda must be positive and finite, got {lam}")
    if isinstance(model, FixedOutdegree) and lam != int(lam):
        raise MeasureError(f"fixed-outdegree model needs integer lambda, got {lam}")
    state = GraphState(dist, lam, model, ReplicaStreams(seed, replica))
    state._add_vertex(float(measures.quantile(dist, state.streams.fitness.random(1))[0]))
    return state


def fbar(state: GraphState) -> float:
    """Normalisation: total weight / (lambda * n)."""
    return state.total_weight / (state.lam * state.n)


def edge_log(state: GraphState) -> np.ndarray:
    """The grown state's edges as int32 rows (source, target, multiplicity),
    read off its token urn.

    Growth appends each step's targets and then the step's own token, and
    every target is an older vertex, so a token is a step's own token
    exactly when it exceeds every earlier token; step v's targets are the
    tokens between own tokens v - 1 and v. A step's rows come in the order
    its targets first occur: the order a built-in model drew them in and a
    custom kernel listed them in. The steps are read ``_CHUNK`` vertices at
    a time, each chunk starting at an own token. A
    :meth:`GraphState.from_arrays` state, never grown, has no such layout.
    """
    tokens = np.frombuffer(state.tokens, dtype=np.intc)
    top = np.maximum.accumulate(tokens)  # the last own token at or before each token
    # a chunk starts at the own token of a multiple of _CHUNK, where top first reaches it
    cuts = [*np.searchsorted(top, range(0, state.n, _CHUNK)).tolist(), len(tokens)]
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        chunk_top = top[lo:hi]
        edge = np.zeros(hi - lo, dtype=bool)  # False at own tokens, which raise top
        np.equal(chunk_top[1:], chunk_top[:-1], out=edge[1:])
        source, target = chunk_top[edge] + 1, tokens[lo:hi][edge]
        key = source.astype(np.int64) * state.n + target
        _, first, multiplicity = np.unique(key, return_index=True, return_counts=True)
        order = np.argsort(first)
        first = first[order]
        parts.append(
            np.column_stack((source[first], target[first], multiplicity[order].astype(np.intc)))
        )
    return np.concatenate(parts)


def default_schedule(start_n: int, n_target: int) -> list[int]:
    """Geometric checkpoints: powers of two in [start_n, n_target], plus the end."""
    points = {n_target}
    p = 1
    while p <= n_target:
        if p >= start_n:
            points.add(p)
        p *= 2
    return sorted(points)


def _audit(state: GraphState) -> None:
    n = state.n
    if state.total_impact != n + state.edge_count:
        raise AuditError(
            f"impact bookkeeping broken at n={n}: total_impact={state.total_impact}, "
            f"vertices+edges={n + state.edge_count}"
        )
    if len(state.tokens) != state.total_impact:
        raise AuditError(
            f"token urn broken at n={n}: {len(state.tokens)} tokens, "
            f"total_impact={state.total_impact}"
        )
    # sum of F_i Z_i in 64k-vertex chunks, the chunk sums added exactly: no
    # float copy of impact, and no BLAS call, whose threads would spin on
    # the CPU a pool's other worker needs
    fitness, impact = np.asarray(state.fitness), np.asarray(state.impact)
    resum = math.fsum(
        np.multiply(fitness[lo : lo + _CHUNK], impact[lo : lo + _CHUNK]).sum()
        for lo in range(0, n, _CHUNK)
    )
    if abs(state.total_weight - resum) > 1e-9 * max(resum, 1.0):
        raise AuditError(
            f"total weight drifted at n={n}: running total {state.total_weight} vs re-sum {resum}"
        )
    if isinstance(state.model, FixedOutdegree):
        expected = int(state.lam) * (n - 1)
        if state.edge_count != expected:
            raise AuditError(f"fixed outdegree lost edges: {state.edge_count} != {expected}")
    elif isinstance(state.model, PoissonOutdegree) and n > 1:
        mean = state.lam * (n - 1)
        slack = 6.0 * math.sqrt(mean) + 10.0
        if abs(state.edge_count - mean) > slack:
            raise AuditError(
                f"edge count {state.edge_count} implausible for Poisson total "
                f"(mean {mean:.1f} +- {slack:.1f})"
            )


def normalisation_lower_edge(dist: FitnessDistribution, lam: float) -> float:
    """A-priori lower edge of the normalisation, min(E F, E F / lambda) - 0.05.

    Every vertex carries impact at least 1, so fbar is at least the sample
    mean fitness over lambda, at any size; the 0.05 slack absorbs the
    sampling error of that mean. ``empirics.evaluate`` uses this edge as the
    floor of the condensation-phase corridor.
    """
    mean_fit = measures.mean_fitness(dist)
    return min(mean_fit, mean_fit / lam) - 0.05


def _final_corridor_audit(state: GraphState, snapshots) -> None:
    """A-priori normalisation corridor, applied to the time average of the
    second half of a long run of a built-in model.

    lambda * fbar averages the edge weights, so it is bounded between the
    mean fitness and 1 + lambda in the limit; the corridor below combines
    that with the direct bounds 1 <= theta* and fbar -> theta*.
    """
    if state.dist is None or isinstance(state.model, CustomKernel) or state.n < 10_000:
        return
    lam = state.lam
    lo = normalisation_lower_edge(state.dist, lam)
    hi = max(1.0 + lam, (1.0 + lam) / lam) + 0.05
    half = [snap.fbar for snap in snapshots if snap.n >= state.n // 2]
    avg = sum(half) / len(half)
    if not lo <= avg <= hi:
        raise AuditError(
            f"time-averaged normalisation {avg:.4f} escaped the a-priori corridor "
            f"[{lo:.4f}, {hi:.4f}]"
        )


def run(
    state: GraphState,
    n_target: int,
    schedule: Sequence[int] | None = None,
    *,
    bins: int = 100,
    k_max: int = 10,
    observers: Sequence[Callable] = (),
):
    """Advance to ``n_target``, snapshotting at each checkpoint.

    The checkpoints are ``schedule``'s (by default :func:`default_schedule`'s)
    and ``n_target``; snapshots bin fitness by :func:`empirics.collision_free_edges`.

    The only code that adds vertices after vertex 0: one ``quantile`` call
    draws all new fitness marks (a density's inverse CDF takes milliseconds
    to prepare per call), and :func:`_grow` takes each checkpoint's slice.
    Each vertex is binned once, for every snapshot of the call.
    Returns the snapshots; audits at every checkpoint raise :class:`AuditError`.
    """
    from . import empirics  # local import: empirics feeds on states, not vice versa

    if n_target < state.n:
        raise MeasureError(f"n_target {n_target} below current size {state.n}")
    checkpoints = sorted(set(schedule)) if schedule is not None else default_schedule(
        state.n, n_target
    )
    if any(cp < state.n or cp > n_target for cp in checkpoints):
        raise MeasureError("schedule entries must lie in [current n, n_target]")
    if n_target not in checkpoints:
        checkpoints.append(n_target)

    edges = empirics.collision_free_edges(state.dist, bins)
    start = state.n
    bin_index = np.empty(n_target, dtype=empirics.index_dtype(edges))
    empirics.fitness_bins(state.fitness, edges, out=bin_index[:start])
    marks = measures.quantile(state.dist, state.streams.fitness.random(n_target - start))
    empirics.fitness_bins(marks, edges, out=bin_index[start:])
    snapshots = []
    for cp in checkpoints:
        _grow(state, marks[state.n - start : cp - start])
        _audit(state)
        snap = empirics.snapshot(state, edges, bin_index, k_max=k_max)
        snapshots.append(snap)
        for observer in observers:
            observer(state, snap)
    _final_corridor_audit(state, snapshots)
    return snapshots


def _grow(state: GraphState, marks: np.ndarray) -> None:
    """Append one vertex per fitness mark, in order, each after its edges.

    A custom kernel draws each step from the state itself, and its vertices
    are drawn, applied and appended one mark at a time, its targets' tokens
    in the order it listed them. On a built-in model the marks come first:
    a draw reads only vertices that own a token, and a vertex gets its
    token after its own targets are drawn.
    :func:`_draw_steps` then draws and appends tokens, each step's targets
    and then the new vertex's own token, for the outdegrees of up to
    ``_BLOCK`` steps at a time (channel 2 draws them in the same order
    however they are cut), and counts each appended token into its
    owner's impact and into the total weight as it goes. Either way the
    urn holds each step's targets and then its own token, the layout
    :func:`edge_log` reads. The edge count and total impact come from the
    outdegrees, apart from the loop, for the audit.
    """
    if isinstance(state.model, CustomKernel):
        for f in marks.tolist():
            state.apply_increments(state.model.increments(state, state.streams.kernel))
            state._add_vertex(f)
        return
    start_n = state.n
    steps = len(marks)
    state.fitness.frombytes(np.ascontiguousarray(marks, dtype=float).view(np.uint8))
    weight = ctypes.c_double(state.total_weight)
    edges = 0
    for lo in range(0, steps, _BLOCK):
        counts = state.model.outdegrees(state.lam, state.streams, min(_BLOCK, steps - lo))
        edges += int(counts.sum())
        _draw_steps(
            state.tokens, state.fitness, state.impact, weight, counts, start_n + lo,
            state.streams.edges,
        )
    state.total_weight = weight.value
    state.edge_count += edges
    state.total_impact += edges + steps


def frozen_targets(state: GraphState, counts: np.ndarray, stream: _Stream) -> np.ndarray:
    """The targets of ``len(counts)`` transitions of the frozen ``state``, in
    order, transition t drawing ``counts[t]``: one step of the growth loop
    on copies of the tokens, the impacts and the fitnesses (plus a slot for
    the step's own vertex, which is never a target), so each draw sees the
    urn as it is and reads the uniforms of ``stream`` that one transition
    at a time would read. The state itself is left alone."""
    tokens, fitness = state.tokens[:], state.fitness + array("d", [0.0])
    step = np.array([counts.sum()])
    _draw_steps(tokens, fitness, state.impact[:], ctypes.c_double(), step, state.n, stream)
    return np.frombuffer(tokens, dtype=np.intc)[len(state.tokens) : -1]


def _draw_steps(
    tokens: array,
    fitness: array,
    impact: array,
    weight: ctypes.c_double,
    counts,
    start: int,
    stream: _Stream,
) -> None:
    """Steps ``start``, ``start + 1``, ...: step s appends its ``counts[s]``
    targets to ``tokens``, then the token of its own vertex. Each appended
    token adds one to its owner's impact (the new vertex's starts at 1) and
    its fitness to ``weight``.

    The loop runs in ``_urn.c`` or, where no C compiler works, in its twin
    :func:`_urn_grow`. This is the only reader of channel 1: the loop reads
    ``stream``'s block in place from its position, until the steps are done
    or fewer than two uniforms are left, and the block is refilled from
    there.
    """
    counts = np.ascontiguousarray(counts, dtype=np.int64)  # what the C loop reads
    steps = len(counts)
    pos = (ctypes.c_long * 3)(0, 0, len(tokens))  # step, edge, token count
    tokens.frombytes(bytes(tokens.itemsize * (int(counts.sum()) + steps)))
    impact.frombytes(bytes(impact.itemsize * steps))  # the loop sets each to 1
    native = _compiled_urn()
    loop = native.grow if native else _urn_grow
    while pos[0] < steps:
        if len(stream.block) - stream.pos < 2:
            stream.fill()
        u = stream.block[stream.pos :]
        stream.pos += loop(tokens, fitness, impact, weight, counts, start, u, pos)


def _urn_grow(
    tokens: array,
    fitness: array,
    impact: array,
    weight: ctypes.c_double,
    counts,
    first: int,
    u: np.ndarray,
    pos,
) -> int:
    """``urn_grow`` of ``_urn.c``, line for line, in Python."""
    counts, u, nu = counts.tolist(), u.tolist(), len(u)
    step, edge, ntok = pos
    w = weight.value
    k = 0
    while step < len(counts):
        size = ntok - edge
        while edge < counts[step]:
            while True:
                if nu - k < 2:
                    pos[:] = step, edge, ntok
                    weight.value = w
                    return k
                i = tokens[int(u[k] * size)]
                k += 2
                if not u[k - 1] >= fitness[i]:
                    break
            tokens[ntok] = i
            ntok += 1
            impact[i] += 1
            w += fitness[i]
            edge += 1
        v = first + step
        tokens[ntok] = v
        ntok += 1
        impact[v] = 1
        w += fitness[v]
        step, edge = step + 1, 0
    pos[:] = step, edge, ntok
    weight.value = w
    return k


_URN_SOURCE = Path(__file__).with_name("_urn.c")
_urn_loop = None  # the compiled functions once built, False once they could not be
# every floating-point operation as written (no fused multiply-add, no
# -ffast-math) and no -march: _urn.c picks its vector width at run time
_URN_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
REPLAY_VARIANTS = ("baseline", "avx2", "avx512f")  # of _urn.c's quantile_replay_variant, by number


@dataclass(frozen=True)
class _Native:
    """The functions of ``_urn.c``: ``grow`` is called as :func:`_urn_grow`
    and ``replay_variant`` as ``quantile_replay_variant(law, t, out, n, v)``
    of the C source. ``variants`` names the variants this CPU runs,
    narrowest first; the fitness draws run the last."""

    grow: Callable
    replay_variant: Callable
    variants: tuple[str, ...]


def _compiled_urn() -> _Native | None:
    """The functions of ``_urn.c``, compiled on first use; None where no
    compiler works. Growth and the fitness replay share this one switch."""
    global _urn_loop
    if _urn_loop is None:
        try:
            _urn_loop = _build_urn()
        except (OSError, subprocess.CalledProcessError) as exc:
            sys.stderr.write(  # one write, so that pool workers' lines stay whole
                f"pafit: cannot build {_URN_SOURCE.name} ({exc}); "
                "growing in pure Python and drawing fitness in numpy, several times slower\n"
            )
            _urn_loop = False
    return _urn_loop or None


def _build_urn() -> _Native:
    """Load ``__pycache__/_urn-<sha256 of the source>.so``, compiling and
    publishing it atomically if absent; a private temporary directory
    stands in when ``__pycache__`` is not writable. The flags keep every
    floating-point operation as written, so the functions' results are bits."""
    source = _URN_SOURCE.read_bytes()
    name = f"_urn-{hashlib.sha256(source).hexdigest()}.so"

    def load(directory: Path) -> ctypes.CDLL:
        lib = directory / name
        if not lib.exists():
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(fd)
            try:
                command = ["cc", *_URN_FLAGS, "-o", tmp, str(_URN_SOURCE)]
                subprocess.run(command, check=True, capture_output=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return ctypes.CDLL(str(lib))

    try:
        cache = _URN_SOURCE.parent / "__pycache__"
        cache.mkdir(exist_ok=True)
        lib = load(cache)
    except OSError:
        with tempfile.TemporaryDirectory() as tmp:
            lib = load(Path(tmp))
    urn = lib.urn_grow
    urn.restype = ctypes.c_long
    urn.argtypes = [ctypes.c_void_p] * 3 + [
        ctypes.POINTER(ctypes.c_double),
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.POINTER(ctypes.c_long),
    ]

    def loop(tokens, fitness, impact, weight, counts, first, u, pos):  # as _urn_grow's
        address = (a.buffer_info()[0] for a in (tokens, fitness, impact))
        return urn(
            *address, weight, counts.ctypes.data, len(counts), first,
            u.ctypes.data, len(u), pos,
        )

    variant = lib.quantile_replay_variant
    variant.restype = ctypes.c_int
    variant.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long, ctypes.c_int]
    supported = lib.quantile_replay_supported
    supported.restype = ctypes.c_int
    supported.argtypes = [ctypes.c_int]
    variants = tuple(name for v, name in enumerate(REPLAY_VARIANTS) if supported(v))
    return _Native(loop, variant, variants)
