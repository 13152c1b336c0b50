"""Sequential growth of the random multigraph under impact evolutions.

The graph is represented only through the per-vertex fitness and impact
arrays (``array("d")`` and ``array("q")``, 16 bytes a vertex) plus the
running total weight ``W = sum_i fitness_i * impact_i``; the full adjacency
is never stored (an optional edge log can be switched on for debugging).
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
Python twin runs instead. The same loop resamples a frozen state's
transitions for ``kernel_contract``. Impacts and W are updated from the
appended tokens once per call, by numpy, in the order a running sum would
add them. A replica's growth costs about 0.15 µs per edge on the
two-point law and 0.25 µs on the density, against 1.0-1.5 and 1.9-2.4 µs
with the Python loop (2-CPU Xeon, traced ``perfbench`` runs). Custom
kernels draw from the same urn through ``KernelView.pick``, on channel 3,
one vertex at a time, in Python.

Randomness is organised in four documented channels per replica so that a
value's position in a stream never depends on internal batching:
``SeedSequence(entropy=base_seed, spawn_key=(replica, channel))`` feeding a
PCG64 generator, with channel 0 = fitness inverse-CDF uniforms (one per
vertex), channel 1 = edge-target uniforms (two per try: the first picks the
token, the second decides acceptance), channel 2 = outdegree counts,
channel 3 = custom-kernel draws. Channels 1 and 2 are each read from one
block and one position by every consumer: the outdegrees of a growth call
or of resampled transitions (:func:`frozen_targets`) and the growth loop.
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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import measures
from .measures import FitnessDistribution, MeasureError

_BLOCK = 8192


class AuditError(RuntimeError):
    """A checkpoint bookkeeping audit failed; the run state is suspect."""


class _Stream:
    """One random channel, read in numpy blocks from one position.

    Array reads (``take``) and the growth loop (``block``, ``pos`` and
    ``advance``) move the same position, so a value's place in the stream
    never depends on which of them read it.
    """

    __slots__ = ("_refill", "block", "pos")

    def __init__(self, refill: Callable[[], np.ndarray]):
        self._refill = refill
        self.block = np.empty(0)
        self.pos = 0

    def advance(self, k: int) -> None:
        self.pos += k

    def fill(self) -> None:
        """Start a new block after the values not yet read."""
        rest = self.block[self.pos :]
        self.block = np.concatenate((rest, self._refill())) if rest.size else self._refill()
        self.pos = 0

    def take(self, size: int) -> np.ndarray:
        parts = []
        while True:
            if self.pos == len(self.block):
                self.fill()
            part = self.block[self.pos : self.pos + size]
            parts.append(part)
            self.advance(len(part))
            size -= len(part)
            if not size:
                return np.concatenate(parts) if len(parts) > 1 else part


class ReplicaStreams:
    """Per-replica random channels with batch-size-independent draws."""

    __slots__ = (
        "base_seed",
        "replica",
        "_fitness_rng",
        "_count_rng",
        "kernel_rng",
        "edges",
        "_counts",
        "_clam",
    )

    def __init__(self, base_seed: int, replica: int = 0):
        self.base_seed = int(base_seed)
        self.replica = int(replica)

        def generator(channel: int) -> np.random.Generator:
            seq = np.random.SeedSequence(
                entropy=self.base_seed, spawn_key=(self.replica, channel)
            )
            return np.random.Generator(np.random.PCG64(seq))

        self._fitness_rng = generator(0)
        edge_rng = generator(1)
        self._count_rng = generator(2)
        self.kernel_rng = generator(3)
        self.edges = _Stream(lambda: edge_rng.random(_BLOCK))
        self._counts: _Stream | None = None
        self._clam: float | None = None

    def poisson_counts(self, lam: float) -> _Stream:
        """Stream of Poisson(lam) outdegrees; a new lam starts a new block."""
        if self._clam != lam:
            self._counts = _Stream(lambda: self._count_rng.poisson(lam, _BLOCK))
            self._clam = lam
        return self._counts

    def fitness_uniforms(self, size: int) -> np.ndarray:
        return self._fitness_rng.random(size)


@dataclass(frozen=True)
class KernelView:
    """Read-only view of the frozen state handed to custom kernels."""

    n: int
    lam: float
    fitness: Sequence[float]
    impact: Sequence[int]
    total_weight: float
    fbar: float
    # one token-urn draw from the generator: vertex i with probability F_i Z_i / W
    pick: Callable[[np.random.Generator], int]


@dataclass(frozen=True)
class PoissonOutdegree:
    label: str = "poisson"

    def outdegrees(self, lam: float, streams: ReplicaStreams, size: int) -> np.ndarray:
        return streams.poisson_counts(lam).take(size)


@dataclass(frozen=True)
class FixedOutdegree:
    label: str = "multinomial"

    def outdegrees(self, lam: float, streams: ReplicaStreams, size: int) -> np.ndarray:
        return np.full(size, int(lam), dtype=np.int64)


@dataclass(frozen=True)
class CustomKernel:
    """User attachment law: draw(view, rng) -> {vertex index: edge count}."""

    draw: Callable[[KernelView, np.random.Generator], Mapping[int, int]]
    label: str = "custom"

    def increments(self, view: KernelView, rng: np.random.Generator) -> dict[int, int]:
        """One checked draw; a frozen state's view may serve many."""
        incs: dict[int, int] = {}
        for index, count in self.draw(view, rng).items():
            index = int(index)
            if not 0 <= index < view.n:
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
        "edge_log",
    )

    def __init__(self, dist, lam, model, streams, *, edge_log: bool = False):
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
        self.edge_log: list[tuple[int, int, int]] | None = [] if edge_log else None

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
        source = self.n  # index the new vertex will take
        for i, count in incs.items():
            self.impact[i] += count
            self.tokens.extend([i] * count)
            self.total_weight += self.fitness[i] * count
            self.total_impact += count
            self.edge_count += count
            if self.edge_log is not None:
                self.edge_log.append((source, i, count))

    def view(self) -> KernelView:
        tokens, fitness = self.tokens, self.fitness

        def pick(rng: np.random.Generator) -> int:
            target: list[int] = []
            _draw_targets(tokens, fitness, 1, rng.random, target.append)
            return target[0]

        return KernelView(
            n=self.n,
            lam=self.lam,
            fitness=self.fitness,
            impact=self.impact,
            total_weight=self.total_weight,
            fbar=fbar(self),
            pick=pick,
        )

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
    edge_log: bool = False,
) -> GraphState:
    """Single-vertex start: one vertex, impact 1, no edges."""
    measures.require_normalized(dist)
    if lam <= 0.0:
        raise MeasureError("lambda must be positive")
    if isinstance(model, FixedOutdegree) and lam != int(lam):
        raise MeasureError(f"fixed-outdegree model needs integer lambda, got {lam}")
    state = GraphState(dist, lam, model, ReplicaStreams(seed, replica), edge_log=edge_log)
    state._add_vertex(float(measures.quantile(dist, state.streams.fitness_uniforms(1))[0]))
    return state


def fbar(state: GraphState) -> float:
    """Normalisation: total weight / (lambda * n)."""
    return state.total_weight / (state.lam * state.n)


def default_schedule(start_n: int, n_target: int) -> list[int]:
    """Geometric checkpoints: powers of two in [start_n, n_target], plus the end."""
    points = {n_target}
    p = 1
    while p <= n_target:
        if p >= start_n:
            points.add(p)
        p *= 2
    return sorted(points)


def _audit(state: GraphState, fbar_track: list[tuple[int, float]]) -> None:
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
    resum = float(np.dot(np.asarray(state.fitness), np.asarray(state.impact, dtype=float)))
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
    fbar_track.append((n, fbar(state)))


def normalisation_lower_edge(dist: FitnessDistribution, lam: float) -> float:
    """A-priori lower edge of the normalisation, min(E F, E F / lambda) - 0.05.

    Every vertex carries impact at least 1, so fbar is at least the sample
    mean fitness over lambda, at any size; the 0.05 slack absorbs the
    sampling error of that mean. ``empirics.evaluate`` uses this edge as the
    floor of the condensation-phase corridor.
    """
    mean_fit = measures.mean_fitness(dist)
    return min(mean_fit, mean_fit / lam) - 0.05


def _final_corridor_audit(state: GraphState, fbar_track: list[tuple[int, float]]) -> None:
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
    half = [value for n, value in fbar_track if n >= state.n // 2]
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
    bin_edges: Sequence[float] | None = None,
    observers: Sequence[Callable] = (),
):
    """Advance to ``n_target``, snapshotting at each checkpoint.

    The only code that adds vertices after vertex 0: one ``quantile`` call
    draws all new fitness marks (a density's inverse CDF takes milliseconds
    to prepare per call), and :func:`_grow` takes each checkpoint's slice.
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

    start = state.n
    marks = measures.quantile(state.dist, state.streams.fitness_uniforms(n_target - start))
    snapshots = []
    fbar_track: list[tuple[int, float]] = []
    for cp in checkpoints:
        _grow(state, marks[state.n - start : cp - start])
        _audit(state, fbar_track)
        snap = empirics.snapshot(state, bins=bins, k_max=k_max, bin_edges=bin_edges)
        snapshots.append(snap)
        for observer in observers:
            observer(state, snap)
    _final_corridor_audit(state, fbar_track)
    return snapshots


def _draw_targets(
    tokens: array,
    fitness: Sequence[float],
    count: int,
    uniform: Callable[[], float],
    out: Callable[[int], object],
) -> None:
    """``count`` token-urn draws against the first ``len(tokens)`` tokens,
    two uniforms per try, each target passed to ``out``: ``KernelView.pick``'s
    draw on channel 3. The size is read once, so ``out`` may append to
    ``tokens`` itself (``int(u * size)`` stays below ``size`` for every
    double u < 1)."""
    size = len(tokens)
    for _ in range(count):
        i = tokens[int(uniform() * size)]
        while uniform() >= fitness[i]:
            i = tokens[int(uniform() * size)]
        out(i)


def _grow(state: GraphState, marks: np.ndarray) -> None:
    """Append one vertex per fitness mark, in order, each after its edges.

    A custom kernel's vertices are drawn, applied and appended one mark at
    a time. On a built-in model the marks come first: a draw reads only
    vertices that own a token, and a vertex gets its token after its own
    targets are drawn. :func:`_draw_steps` then only draws and appends
    tokens, each step's targets and then the new vertex's own token, for
    the outdegrees of up to ``_BLOCK`` steps at a time; the edge log is
    rebuilt from each step's range of tokens. Impacts and the total weight
    are updated once per call from the appended tokens: one unit of impact
    each (``np.add.at``), and a sequential ``cumsum`` of their fitnesses,
    which adds them in the order a running sum would.
    """
    if isinstance(state.model, CustomKernel):
        for f in marks.tolist():
            state.apply_increments(state.model.increments(state.view(), state.streams.kernel_rng))
            state._add_vertex(f)
        return
    tokens = state.tokens
    fitness = state.fitness
    start_n = state.n
    steps = len(marks)
    first = len(tokens)
    fitness.frombytes(marks.tobytes())
    edges = 0  # counted from the outdegrees, apart from the tokens, for the audit
    for lo in range(0, steps, _BLOCK):
        counts = state.model.outdegrees(state.lam, state.streams, min(_BLOCK, steps - lo))
        edges += int(counts.sum())
        begin = len(tokens)
        _draw_steps(tokens, fitness, counts, start_n + lo, state.streams.edges)
        if state.edge_log is not None:  # step n's targets end just before its own token
            ends = begin - 1 + np.cumsum(counts + 1)
            for n, (count, end) in enumerate(zip(counts.tolist(), ends.tolist()), start_n + lo):
                if count:
                    targets = Counter(tokens[end - count : end])
                    state.edge_log.extend((n, i, c) for i, c in targets.items())

    added = np.frombuffer(tokens[first:], dtype=np.intc)
    state.impact.frombytes(bytes(8 * steps))  # own tokens are in `added`
    np.add.at(np.frombuffer(state.impact, dtype=np.int64), added, 1)
    terms = np.empty(added.size + 1)  # W, then the appended tokens' fitnesses
    terms[0] = state.total_weight
    np.frombuffer(fitness).take(added, out=terms[1:])
    state.total_weight = float(np.cumsum(terms, out=terms)[-1])
    state.edge_count += edges
    state.total_impact += edges + steps


def frozen_targets(state: GraphState, counts: np.ndarray, stream: _Stream) -> np.ndarray:
    """The targets of ``len(counts)`` transitions of the frozen ``state``, in
    order, transition t drawing ``counts[t]``: one step of the growth loop
    on a copy of the tokens, so each draw sees the urn as it is and reads
    the uniforms of ``stream`` that one transition at a time would read."""
    tokens = state.tokens[:]
    _draw_steps(tokens, state.fitness, np.array([counts.sum()]), state.n, stream)
    return np.frombuffer(tokens, dtype=np.intc)[len(state.tokens) : -1]


def _draw_steps(tokens: array, fitness: array, counts, start: int, stream: _Stream) -> None:
    """Steps ``start``, ``start + 1``, ...: step s appends its ``counts[s]``
    targets to ``tokens``, then the token of its own vertex.

    The loop runs in ``_urn.c`` or, where no C compiler works, in its twin
    :func:`_urn_grow`, on ``stream``'s block from its position, until the
    steps are done or fewer than two uniforms are left in the block.
    """
    counts = np.ascontiguousarray(counts, dtype=np.int64)  # what the C loop reads
    steps = len(counts)
    pos = (ctypes.c_long * 3)(0, 0, len(tokens))  # step, edge, token count
    tokens.frombytes(bytes(tokens.itemsize * (int(counts.sum()) + steps)))
    loop = _compiled_urn() or _urn_grow
    while pos[0] < steps:
        if len(stream.block) - stream.pos < 2:
            stream.fill()
        stream.advance(loop(tokens, fitness, counts, start, stream.block[stream.pos :], pos))


def _urn_grow(tokens: array, fitness: array, counts, first: int, u: np.ndarray, pos) -> int:
    """``urn_grow`` of ``_urn.c``, line for line, in Python."""
    counts, u, nu = counts.tolist(), u.tolist(), len(u)
    step, edge, ntok = pos
    k = 0
    while step < len(counts):
        size = ntok - edge
        while edge < counts[step]:
            while True:
                if nu - k < 2:
                    pos[:] = step, edge, ntok
                    return k
                i = tokens[int(u[k] * size)]
                k += 2
                if not u[k - 1] >= fitness[i]:
                    break
            tokens[ntok] = i
            ntok += 1
            edge += 1
        tokens[ntok] = first + step
        ntok += 1
        step, edge = step + 1, 0
    pos[:] = step, edge, ntok
    return k


_URN_SOURCE = Path(__file__).with_name("_urn.c")
_urn_loop = None  # the compiled loop once built, False once it could not be


def _compiled_urn():
    """The loop of ``_urn.c``, compiled on first use; None where no compiler works."""
    global _urn_loop
    if _urn_loop is None:
        try:
            _urn_loop = _build_urn()
        except (OSError, subprocess.CalledProcessError) as exc:
            sys.stderr.write(  # one write, so that pool workers' lines stay whole
                f"pafit: cannot build {_URN_SOURCE.name} ({exc}); "
                "growing in pure Python, several times slower\n"
            )
            _urn_loop = False
    return _urn_loop or None


def _build_urn():
    """Load ``__pycache__/_urn-<sha256 of the source>.so``, compiling and
    publishing it atomically if absent; a private temporary directory
    stands in when ``__pycache__`` is not writable. The flags keep every
    floating-point operation as written, so the loop's results are bits."""
    source = _URN_SOURCE.read_bytes()
    name = f"_urn-{hashlib.sha256(source).hexdigest()}.so"

    def load(directory: Path) -> ctypes.CDLL:
        lib = directory / name
        if not lib.exists():
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(fd)
            try:
                flags = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]
                command = ["cc", *flags, "-o", tmp, str(_URN_SOURCE)]
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
    urn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] * 2 + [
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.POINTER(ctypes.c_long),
    ]

    def loop(tokens, fitness, counts, first, u, pos):  # the arguments of _urn_grow
        address = tokens.buffer_info()[0], fitness.buffer_info()[0], counts.ctypes.data
        return urn(*address, len(counts), first, u.ctypes.data, len(u), pos)

    return loop
