"""Tests for fitness-distribution construction, sampling and integration.

Expected values marked as oracle-derived are computed inside the tests with
mpmath quadrature or hand antiderivatives, independently of the production
integration paths.
"""

import ctypes
import math
import mmap
import multiprocessing
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pafit import measures as M
from pafit import quantile_replay, simulator

LANE = 256  # draws per lane of quantile_replay in _urn.c
DIPPING = M.PiecewiseDensity((0.0, 1.0), ((3.0 - 9e-10, -12.0, 12.0),), atom_at_one=9e-10)
DEEPEST = [  # laws whose deepest jumps only the certificate keeps exact
    M.PiecewiseDensity((0.0, 1.0), ((3.0, -6.0, 3.0),)),
    M.PiecewiseDensity((0.0, 0.3, 0.7, 1.0), ((1.0,), (0.5,), (0.5, 0.5)), atom_at_one=0.2225),
    # half the mass on a piece 2^-20 wide: its pdf asks for levels beyond
    # the exact ones
    M.PiecewiseDensity((0.0, 0.5, 0.5 + 2.0**-20, 1.0),
                       ((0.5,), (2.0**19,), (0.25 / (0.5 - 2.0**-20),))),
]
DEEPEST_IDS = ["cubic_gap", "three_pieces_atom", "spike"]


def indicator(lo, hi):
    """The indicator of the window (lo, hi], as a catalog integrand."""
    return M.Integrand("poly", coeffs=(1.0,), lo=lo, hi=hi)


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
        assert min(M._polyval(DIPPING.coeffs[0], np.linspace(0.0, 1.0, 1001))) < 0.0
        self._assert_replays_reference(DIPPING, seed=7, draws=20_000)

    @pytest.mark.parametrize("dist", DEEPEST, ids=DEEPEST_IDS)
    def test_certificate_alone_keeps_the_deepest_jumps_exact(self, dist, monkeypatch):
        # a span of 2^-30 margins sends every draw to the deepest exact
        # level, where brackets are a few ulps wide and the computed CDF is
        # not monotone: only the certificate keeps the replay exact there
        monkeypatch.setattr(quantile_replay, "JUMP_SPAN", 2.0**-30)
        self._assert_replays_reference(dist, seed=11, draws=20_000)

    @pytest.mark.parametrize("dist", [DIPPING, *DEEPEST], ids=["dipping", *DEEPEST_IDS])
    def test_numpy_twin_on_dipping_density_and_deepest_jumps(self, dist, monkeypatch):
        # the laws of the two tests above, through the numpy fallback where
        # they ran compiled: the definition's 80 passes, which never jump
        monkeypatch.setattr(simulator, "_compiled_urn", lambda: None)
        self._assert_replays_reference(dist, seed=7 if dist is DIPPING else 11, draws=20_000)

    @staticmethod
    def _assert_replays_reference(dist, seed, draws=2_000):
        u = body_targets(dist, seed, draws)
        assert np.array_equal(M._piecewise_quantile(dist, u), frozen_reference(dist)[1](u))


def body_targets(dist, seed, draws):
    """Random targets in the body's mass range, plus the masses at the piece
    edges, their float neighbours, 0 and the top of the range."""
    body = 1.0 - dist.atom_at_one
    edge_masses = frozen_reference(dist)[0](np.asarray(dist.edges, dtype=float))
    rng = np.random.default_rng(seed)
    u = np.concatenate([
        rng.random(draws) * body,
        edge_masses, np.nextafter(edge_masses, 0.0), np.nextafter(edge_masses, 1.0),
        [0.0, np.nextafter(body, 0.0)],
    ])
    return u[(u >= 0.0) & (u < body)]


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def piecewise_laws(draw, atom=st.sampled_from([0.0, 0.25, 0.4])):
    """Normalised densities of 1-3 pieces with nonnegative coefficients;
    the top edge is 1 or lies below it."""
    pieces = draw(st.integers(1, 3))
    inner = draw(st.lists(st.sampled_from([0.125, 0.3, 0.5, 0.7]),
                          min_size=pieces - 1, max_size=pieces - 1, unique=True))
    edges = [0.0, *sorted(inner), draw(st.sampled_from([1.0, 0.8]))]
    raw = [
        [draw(st.floats(0.1, 5.0))] + draw(st.lists(st.floats(0.0, 5.0), max_size=3))
        for _ in range(pieces)
    ]
    atom = draw(atom)
    mass = sum(M._poly_segment_integral(c, a, b) for a, b, c in zip(edges, edges[1:], raw))
    scale = (1.0 - atom) / mass
    return M.PiecewiseDensity(edges, [[c * scale for c in piece] for piece in raw], atom)


@st.composite
def discrete_laws(draw):
    values = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
    return M.FiniteDiscrete([(v, w / sum(weights)) for v, w in zip(values, weights)])


def critical_uniforms(dist) -> np.ndarray:
    """Uniforms in [0, 1) at and one ulp around each cumulative mass that
    the inverse CDF switches on, plus a dense run around 1/2."""
    if isinstance(dist, M.FiniteDiscrete):
        cuts = np.cumsum(dist.values_masses()[1])
    elif isinstance(dist, M.PiecewiseDensity):
        cuts = frozen_reference(dist)[0](np.asarray(dist.edges, dtype=float))
        cuts = np.append(cuts, 1.0 - dist.atom_at_one)
    else:
        cuts = np.array([0.0])
    u = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 1.0),
                        np.linspace(0.5 - 1e-9, 0.5 + 1e-9, 41)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestFallbackBisection:
    """The fitness draw where no C compiler works: the definition's 80
    numpy passes, against the frozen reference bisection."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(dist=piecewise_laws(), seed=st.integers(0, 2**32 - 1))
    def test_fallback_equals_reference(self, dist, seed):
        u = body_targets(dist, seed, draws=3 * LANE + 5)
        with mock.patch.object(simulator, "_compiled_urn", lambda: None):
            drawn = M._piecewise_quantile(dist, u)
        assert same_bits(drawn, frozen_reference(dist)[1](u))


class TestCompiledReplay:
    """``quantile_replay`` of ``_urn.c`` against the frozen reference
    bisection."""

    @pytest.fixture(autouse=True)
    def compiled(self):
        if simulator._compiled_urn() is None:
            pytest.skip("no working C compiler")

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(dist=piecewise_laws(), seed=st.integers(0, 2**32 - 1))
    def test_compiled_replay_equals_reference(self, dist, seed):
        u = body_targets(dist, seed, draws=3 * LANE + 5)
        assert same_bits(quantile_replay.BisectionReplay(dist)(u), frozen_reference(dist)[1](u))

    @pytest.mark.parametrize("size", [0, 1, LANE - 1, LANE, LANE + 1, 3 * LANE + 5])
    @pytest.mark.parametrize("dist", DEEPEST[:2], ids=DEEPEST_IDS[:2])
    def test_every_batch_size_replays_the_twin(self, dist, size):
        # lanes end mid-batch, and a lane's odd last draw fills a vector
        # alone; the twin replayed is the frozen reference bisection
        u = np.random.default_rng(size).random(size) * (1.0 - dist.atom_at_one)
        assert same_bits(quantile_replay.BisectionReplay(dist)(u), frozen_reference(dist)[1](u))

    def test_flat_leaves_take_the_secants_midpoint(self):
        # the density is 0 on [0, 1/2): there the table's leaves have equal
        # CDFs, and the target 0 makes the secant 0/0
        dist = M.PiecewiseDensity((0.0, 0.5, 1.0), ((0.0,), (2.0,)))
        u = body_targets(dist, seed=5, draws=LANE)
        assert same_bits(quantile_replay.BisectionReplay(dist)(u), frozen_reference(dist)[1](u))

    def test_lane_matches_the_c_source(self):
        assert f"#define LANE {LANE}\n" in simulator._URN_SOURCE.read_text()

    # every variant of quantile_replay this CPU runs, called by name; the
    # tests above run the one that BisectionReplay.__call__ selects

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(dist=piecewise_laws(), seed=st.integers(0, 2**32 - 1))
    def test_variant_equals_reference(self, variant, dist, seed):
        u = body_targets(dist, seed, draws=3 * LANE + 5)
        assert same_bits(replay_variant(dist, u, variant), frozen_reference(dist)[1](u))

    @pytest.mark.parametrize("dist", DEEPEST[:2], ids=DEEPEST_IDS[:2])
    def test_variant_replays_every_batch_size(self, variant, dist):
        # a batch ends mid-vector and mid-lane, and a lane's last vector
        # fills its spare elements with the last draw
        width = VECTOR_WIDTH[variant]
        for size in sorted({0, 1, width - 1, width, width + 1, LANE - 1, LANE + 1, 3 * LANE + 5}):
            u = np.random.default_rng(size).random(size) * (1.0 - dist.atom_at_one)
            assert same_bits(replay_variant(dist, u, variant), frozen_reference(dist)[1](u)), size

    def test_variant_takes_the_secants_midpoint_on_flat_leaves(self, variant):
        dist = M.PiecewiseDensity((0.0, 0.5, 1.0), ((0.0,), (2.0,)))
        u = body_targets(dist, seed=5, draws=LANE)
        assert same_bits(replay_variant(dist, u, variant), frozen_reference(dist)[1](u))

    def test_variant_on_dipping_density(self, variant):
        u = body_targets(DIPPING, seed=7, draws=20_000)
        assert same_bits(replay_variant(DIPPING, u, variant), frozen_reference(DIPPING)[1](u))

    @pytest.mark.parametrize("dist", DEEPEST, ids=DEEPEST_IDS)
    def test_variant_keeps_the_deepest_jumps_exact(self, variant, dist, monkeypatch):
        monkeypatch.setattr(quantile_replay, "JUMP_SPAN", 2.0**-30)
        u = body_targets(dist, seed=11, draws=20_000)
        assert same_bits(replay_variant(dist, u, variant), frozen_reference(dist)[1](u))

    def test_variant_makes_all_80_passes(self, variant):
        # below 2^-80 no mid is a fixed point, so these draws stop only
        # after their last pass: the target 0 ends at hi = 2^-80 exactly
        dist = DEEPEST[0]
        u = np.array([0.0, 5e-324, 1e-300, 1e-30, 1e-25, 0.5, 0.0])
        drawn = replay_variant(dist, u, variant)
        assert drawn[0] == drawn[-1] == 2.0**-80
        assert same_bits(drawn, frozen_reference(dist)[1](u))

    def test_variant_stays_inside_its_arrays(self, variant):
        # every array the replay reads or writes sits flush against an
        # inaccessible region, once after one and once before one: a read
        # or write past either end faults the child that runs it
        child = multiprocessing.get_context("fork").Process(
            target=_replay_between_guards, args=(variant,)
        )
        child.start()
        child.join()
        assert child.exitcode == 0, f"the {variant} replay exited with {child.exitcode}"


VECTOR_WIDTH = {"baseline": 2, "avx2": 4, "avx512f": 8}  # draws per vector of each variant


@pytest.fixture(scope="module", params=simulator.REPLAY_VARIANTS)
def variant(request):
    """A variant of quantile_replay, skipped where this CPU cannot run it."""
    native = simulator._compiled_urn()
    if native is None or request.param not in native.variants:
        pytest.skip(f"no compiled {request.param} replay on this machine")
    return request.param


def replay_variant(dist, u, variant):
    return quantile_replay.BisectionReplay(dist).compiled(u, variant)


GUARD = 1 << 16  # bytes of each inaccessible region: more than a table level of doubles


def _guarded(a, flush_end: bool, keep: list) -> np.ndarray:
    """A copy of the doubles ``a`` in a mapping between two inaccessible
    regions, flush against the one after it or the one before it."""
    a = np.ascontiguousarray(a, dtype=float)
    body = -(-max(a.nbytes, 1) // mmap.PAGESIZE) * mmap.PAGESIZE
    region = mmap.mmap(-1, 2 * GUARD + body)
    start = ctypes.addressof(ctypes.c_char.from_buffer(region))
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mprotect.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    for guard in (start, start + GUARD + body):
        if libc.mprotect(guard, GUARD, 0):  # PROT_NONE
            raise OSError(ctypes.get_errno(), "mprotect")
    offset = GUARD + (body - a.nbytes if flush_end else 0)
    copy = np.frombuffer(region, dtype=float, count=a.size, offset=offset)
    copy[:] = a.ravel()
    keep.append(region)
    return copy


def _replay_between_guards(variant: str) -> None:
    """Run ``variant`` with its law's tables, targets and output each
    guarded by :func:`_guarded`, on the batch sizes that end a vector or a
    lane early; each result must equal the unguarded one."""
    native = simulator._compiled_urn()
    v = simulator.REPLAY_VARIANTS.index(variant)
    width = VECTOR_WIDTH[variant]
    flat = M.PiecewiseDensity((0.0, 0.5, 1.0), ((0.0,), (2.0,)))
    for dist in [*DEEPEST, flat]:
        replay = quantile_replay.BisectionReplay(dist)
        for size in sorted({0, 1, width - 1, width, width + 1, LANE - 1, LANE, LANE + 1}):
            u = np.random.default_rng(size).random(size) * (1.0 - dist.atom_at_one)
            for flush_end in (False, True):
                keep = []
                law = replay._law()
                for name in quantile_replay._Law.ARRAYS:
                    setattr(law, name, _guarded(getattr(replay, name), flush_end, keep).ctypes.data)
                t, out = _guarded(u, flush_end, keep), _guarded(np.zeros(size), flush_end, keep)
                native.replay_variant(ctypes.byref(law), t.ctypes.data, out.ctypes.data, size, v)
                assert same_bits(out, replay.compiled(u, variant))


class TestQuantileProperties:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        dist=st.one_of(piecewise_laws(), discrete_laws(), st.just(DIPPING), st.just(M.Uniform01())),
        u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40),
    )
    def test_quantile_is_monotone_in_u(self, dist, u):
        # a bisection is monotone in its target for any fixed computed CDF,
        # so this holds where the CDF itself dips (DIPPING)
        u = np.sort(np.concatenate([u, critical_uniforms(dist)]))
        out = M.quantile(dist, u)
        if isinstance(dist, M.Uniform01):
            # the uniform law draws 1 - u, which lands in (0, 1], and falls with u
            assert np.array_equal(out, np.maximum(1.0 - u, np.nextafter(0.0, 1.0)))
            assert np.all(np.diff(out) <= 0.0)
        else:
            assert np.all(np.diff(out) >= 0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(dist=piecewise_laws(atom=st.sampled_from([9e-10, 0.25, 0.4])), data=st.data())
    def test_atom_takes_the_top_quantile_range(self, dist, data):
        body = 1.0 - dist.atom_at_one
        above = data.draw(st.floats(body, 1.0, exclude_max=True), label="above")
        assert M.quantile(dist, np.array([body, above])).tolist() == [1.0, 1.0]
        below = np.nextafter(body, 0.0)
        value = M.quantile(dist, below)
        assert value == M._piecewise_quantile(dist, np.array([below]))[0]
        assert 0.0 < value <= dist.edges[-1]
        if dist.edges[-1] < 1.0:
            assert value < 1.0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(dist=discrete_laws())
    def test_discrete_cumulative_mass_maps_to_the_next_value(self, dist):
        values, masses = dist.values_masses()
        cum = np.cumsum(masses)[:-1]
        assert np.array_equal(M.quantile(dist, cum), values[1:])
        assert np.array_equal(M.quantile(dist, np.nextafter(cum, 0.0)), values[:-1])


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
            total = M.integrate(dist, indicator(0.0, 1.0))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_exact_and_quadrature_paths_agree(self, cubic_gap, two_point):
        for g in (
            M.f_over_theta_minus_f(1.7),
            M.f_over_one_minus_f(),
            M.fitness_identity(),
            indicator(0.2, 0.8),
        ):
            exact = M._piecewise_exact(cubic_gap, g)
            quad = M._piecewise_quad(cubic_gap, g, M.DEFAULT_TOL)
            assert M.integrate(cubic_gap, g) == exact
            assert quad == pytest.approx(exact, abs=1e-12)
        for g in (M.f_over_theta_minus_f(2.0), M.fitness_identity()):
            assert M.integrate(two_point, g) == M._integrate_discrete(two_point, g)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(law=st.data())
    def test_exact_equals_quadrature_on_generated_laws(self, law):
        # normalised laws of 1-3 pieces on [0, 1] with nonnegative
        # coefficients of degree <= 4, against positive poly and rational
        # (theta > 1) integrands over windows at least 0.05 wide
        inner = law.draw(
            st.lists(st.floats(0.05, 0.95), max_size=2, unique=True), label="inner"
        )
        edges = [0.0, *sorted(inner), 1.0]
        coeff = st.floats(0.0, 5.0, allow_subnormal=False)
        raw = [
            [law.draw(st.floats(0.1, 5.0), label="c0")]
            + law.draw(st.lists(coeff, max_size=4), label="higher")
            for _ in range(len(edges) - 1)
        ]
        mass = sum(M._poly_segment_integral(c, a, b) for a, b, c in zip(edges, edges[1:], raw))
        dist = M.PiecewiseDensity(edges, [[c / mass for c in piece] for piece in raw])
        numerator = tuple(
            [law.draw(st.floats(0.1, 3.0), label="p0")]
            + law.draw(st.lists(st.floats(0.0, 3.0), max_size=2), label="p")
        )
        if law.draw(st.booleans(), label="rational"):
            theta = law.draw(st.floats(1.01, 4.0), label="theta")
            g = M.Integrand("rational", coeffs=numerator, theta=theta)
        else:
            g = M.Integrand("poly", coeffs=numerator)
        lo = law.draw(st.floats(0.0, 0.95), label="lo")
        hi = law.draw(st.one_of(st.just(1.0), st.floats(lo + 0.05, 1.0)), label="hi")
        g = g.restrict(lo, hi)
        exact = M._piecewise_exact(dist, g)
        assert M.integrate(dist, g) == exact
        assert M._piecewise_quad(dist, g, M.DEFAULT_TOL) == pytest.approx(exact, rel=1e-9)

    def test_window_restriction(self, cubic_gap):
        g = M.f_over_theta_minus_f(2.0).restrict(0.25, 0.75)
        oracle = mp_quad(lambda f: f / (2 - f) * 3 * (1 - f) ** 2, 0.25, 0.75)
        assert M.integrate(cubic_gap, g) == pytest.approx(oracle, abs=1e-10)

    def test_exclude_point_one(self, two_point):
        g = indicator(0.0, 1.0).without_point_one()
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

    @pytest.mark.parametrize("make", [M.impact_factor, M.impact_survival, M.impact_mean_tail])
    def test_theta_below_one_rejected(self, make):
        # theta >= 1 keeps every divisor of the Yule-Simon factors positive
        with pytest.raises(M.MeasureError):
            make(0.5, 3)

    def test_mean_tail_k1_is_yule_simon_mean(self):
        # sum_j j * pmf(j) = rho / (rho - 1) = theta / (theta - f)
        g = M.impact_mean_tail(2.0, 1)
        assert g(0.5) == pytest.approx(2.0 / 1.5, abs=1e-14)


class TestIntegrandFloatPath:
    """Every catalog integrand maps a float to a float with numpy's IEEE
    operations in numpy's order, so its bits equal the same formula on a
    float64 array: ``npoly.polyval``'s Horner steps from ``c[-1] + x * 0``,
    the survival product's ``out * (i * f) / (i * f + theta)`` and ``inf``
    where the gap to theta is <= 0."""

    @staticmethod
    def numpy_reference(g, f):
        from numpy.polynomial import polynomial as npoly

        x = np.array([f])

        def survival():
            out = np.ones_like(x)
            for i in range(1, g.k):
                out = out * (i * x) / (i * x + g.theta)
            return out

        def over_gap(num):
            gap = g.theta - x
            return np.where(gap > 0.0, num / np.where(gap > 0.0, gap, 1.0), np.inf)

        if g.kind == "poly":
            out = npoly.polyval(x, list(g.coeffs) if g.coeffs else [0.0])
        elif g.kind == "rational":
            out = over_gap(npoly.polyval(x, list(g.coeffs) if g.coeffs else [0.0]))
        elif g.kind == "impact_factor":
            out = g.theta / (g.theta + g.k * x) * survival()
        elif g.kind == "impact_survival":
            out = survival()
        else:
            out = g.k * survival() * over_gap(g.theta)
        return float(out[0])

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(
            ["poly", "rational", "impact_factor", "impact_survival", "impact_mean_tail"]
        ),
        coeffs=st.lists(st.one_of(st.just(-0.0), st.floats(-10.0, 10.0)), max_size=5),
        theta=st.one_of(st.just(1.0), st.floats(1.0, 8.0)),
        k=st.integers(1, 60),
        f=st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 1.0)),
    )
    def test_float_path_has_the_bits_of_numpy(self, kind, coeffs, theta, k, f):
        g = M.Integrand(kind, coeffs=tuple(coeffs), theta=theta, k=k)
        value = g(f)
        assert type(value) is float
        assert value.hex() == self.numpy_reference(g, f).hex()
