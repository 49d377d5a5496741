"""Point process: pair sum, mark invariance, and the moment identities."""

import math
import tracemalloc

import numpy as np
import pytest

from cascadelab.pd_process import (
    _BLOCK,
    _BUCKETS,
    _TILT_POOL,
    STATISTICS,
    MarkSpec,
    _bucket_search,
    _corollary_chunk,
    _invariance_chunk,
    _mark_moment_chunk,
    _pair_sum_chunk,
    _sample_points,
    _statistic,
    _tail_mass,
    _tilted_marks,
    corollary_moments,
    estimate_pair_sum,
    sample_pd,
    verify_invariance,
)
from cascadelab.seeding import MODULE_PD, derive_rng
from cascadelab.stats import identity_check

# Frozen oracles, computed independently of the implementation:
#   median of u_1 at m = 0.5: first arrival Gamma_1 ~ Exp(1), so
#   u_1 = (m Gamma_1)^(-1/m) has median (m ln 2)^(-1/m) = 8.3254586576...
U1_MEDIAN_M05 = (0.5 * math.log(2.0)) ** (-2.0)
#   two-point X in {1, 2} equiprobable, m = 0.5: the size-biased law
#   X^m / E X^m picks X = 2 with probability sqrt(2)/(1 + sqrt(2))
TILTED_TWO_FREQ = math.sqrt(2.0) / (1.0 + math.sqrt(2.0))


def test_weights_normalized():
    real = sample_pd(0.5, 100, 3)
    assert real.w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(real.u) <= 0)
    assert real.tail_bound > 0


def test_u1_median_closed_form():
    assert U1_MEDIAN_M05 == pytest.approx(8.32547592, abs=1e-7)
    n = 10_000
    above = 0
    for rep in range(n):
        real = sample_pd(0.5, 10, (101, rep))
        above += real.u[0] > U1_MEDIAN_M05
    # the exceedance count is Binomial(n, 1/2) when the median is right
    assert abs(above - n / 2) <= 3.0 * math.sqrt(n / 4.0)


def test_pair_sum_m03():
    est = estimate_pair_sum(0.3, 10_000, 1500, 7)
    rec = identity_check("pair_sum_m03", est, 0.7)
    assert rec.passed, (est.mean, est.std_error, est.allowance)


def test_pair_sum_m07_needs_tail():
    # heavier truncation: the declared tail allowance must cover it
    est = estimate_pair_sum(0.7, 100_000, 800, 7)
    rec = identity_check("pair_sum_m07", est, 0.3)
    assert rec.passed, (est.mean, est.std_error, est.allowance)


def test_pair_sum_truncation_monotone():
    # same seed: the first n points coincide, so doubling n_max moves the
    # estimate by less than the declared tail allowance
    small = estimate_pair_sum(0.5, 2000, 300, 11)
    large = estimate_pair_sum(0.5, 4000, 300, 11)
    assert abs(small.mean - large.mean) <= small.allowance


def test_pair_sum_input_validation():
    with pytest.raises(ValueError):
        estimate_pair_sum(1.0, 1000, 200, 0)
    with pytest.raises(ValueError):
        estimate_pair_sum(0.5, 1000, 50, 0)


def test_invariance_constant_marks_exact():
    # X constant: both sides are the same function of the same points,
    # so the paired estimates agree realization for realization
    spec = MarkSpec("constant", cx=2.5, cy=0.7)
    for statistic in ("pair_sum", "mean_mark", "max_weight"):
        marked, tilted = verify_invariance(0.5, spec, statistic, 200, 2000, 13)
        assert marked.mean == pytest.approx(tilted.mean, abs=1e-14)


def test_invariance_lognormal_pair_sum():
    spec = MarkSpec("lognormal", sigma_x=0.5, sigma_y=0.5, rho=0.3)
    marked, tilted = verify_invariance(0.5, spec, "pair_sum", 1200, 20_000, 17)
    rec = identity_check("invariance", marked, tilted)
    assert rec.passed, (marked.mean, tilted.mean, rec.tolerance)


def test_invariance_rejects_unknown_statistic():
    with pytest.raises(ValueError):
        verify_invariance(0.5, MarkSpec("constant"), "kurtosis", 200, 1000, 0)


def test_invariance_deterministic():
    spec = MarkSpec("two_point")
    a = verify_invariance(0.4, spec, "max_weight", 150, 1000, 19)
    b = verify_invariance(0.4, spec, "max_weight", 150, 1000, 19)
    assert a[0].mean == b[0].mean and a[1].mean == b[1].mean


def test_tilted_two_point_frequency():
    spec = MarkSpec("two_point", xs=(1.0, 2.0), ys=(0.0, 0.0), p=0.5)
    rng = derive_rng(23, 99)
    n = 40_000
    _, x, _ = _tilted_marks(spec, 0.5, rng, n)
    freq = float((x == 2.0).mean())
    se = math.sqrt(TILTED_TWO_FREQ * (1.0 - TILTED_TWO_FREQ) / n)
    assert abs(freq - TILTED_TWO_FREQ) <= 3.0 * se


def test_corollary_unit_marks():
    # X = Y = 1: the three identities reduce to 1, 1 - m, m
    spec = MarkSpec("constant", cx=1.0, cy=1.0)
    out = corollary_moments(0.5, spec, 1000, 20_000, 29)
    names = [name for name, _, _ in out]
    assert names == ["ratio_mean", "diagonal_square", "off_diagonal"]
    targets = {"ratio_mean": 1.0, "diagonal_square": 0.5, "off_diagonal": 0.5}
    for name, lhs, rhs in out:
        # right sides are exact for constant marks
        assert rhs.mean == pytest.approx(targets[name], abs=1e-12)
        rec = identity_check(name, lhs, rhs)
        assert rec.passed, (name, lhs.mean, rhs.mean)


def test_corollary_scaled_marks():
    # X = 2, Y = 1, m = 0.5: first identity is 1/2 on both sides
    spec = MarkSpec("constant", cx=2.0, cy=1.0)
    out = corollary_moments(0.5, spec, 1000, 20_000, 31)
    name, lhs, rhs = out[0]
    assert rhs.mean == pytest.approx(0.5, abs=1e-12)
    assert identity_check(name, lhs, rhs).passed


def test_corollary_two_point_marks():
    # X in {1, 2}, Y = X: all three identities at 3 combined SE
    spec = MarkSpec("two_point", xs=(1.0, 2.0), ys=(1.0, 2.0), p=0.5)
    out = corollary_moments(0.5, spec, 1500, 20_000, 37)
    for name, lhs, rhs in out:
        rec = identity_check(name, lhs, rhs)
        assert rec.passed, (name, lhs.mean, rhs.mean, rec.tolerance)


def test_corollary_rejects_small_marks():
    spec = MarkSpec("lognormal", shift=0.0)
    with pytest.raises(ValueError, match="X >= 1"):
        corollary_moments(0.5, spec, 1000, 1000, 0)


def test_corollary_rejects_few_replicas():
    with pytest.raises(ValueError):
        corollary_moments(0.5, MarkSpec("constant"), 500, 1000, 0)


# ---------------------------------------------------------------------------
# bit identity of the in-place kernels
#
# The oracles below are the plain expressions the kernels replaced.  Each
# test feeds both the same stream and asserts equal bits, not closeness.
# ---------------------------------------------------------------------------

MARK_SPECS = (
    MarkSpec("constant", cx=1.3, cy=0.7),
    MarkSpec("lognormal", shift=1.0, sigma_x=0.4, sigma_y=0.35, rho=0.6),
    MarkSpec("lognormal", sigma_x=0.5, sigma_y=0.5, rho=0.0),
    MarkSpec("lognormal", sigma_x=0.3, sigma_y=0.8, rho=-0.9, shift=0.5),
    MarkSpec("two_point", xs=(1.0, 2.0), ys=(0.5, 1.5), p=0.6),
    MarkSpec("two_point", xs=(3.0, 0.25), ys=(-1.0, 2.0), p=0.1),
)


def _oracle_sample_points(rng, m, n_max):
    gamma = np.cumsum(rng.standard_exponential(n_max))
    return (m * gamma) ** (-1.0 / m)


def _oracle_marks(spec, rng, size):
    if spec.family == "constant":
        return np.full(size, spec.cx), np.full(size, spec.cy)
    if spec.family == "lognormal":
        g = rng.standard_normal(size)
        g2 = rng.standard_normal(size)
        x = spec.shift + np.exp(spec.sigma_x * g)
        y = np.exp(spec.sigma_y * (spec.rho * g + np.sqrt(1 - spec.rho**2) * g2))
        return x, y
    pick = rng.random(size) < spec.p
    return np.where(pick, spec.xs[0], spec.xs[1]), np.where(pick, spec.ys[0], spec.ys[1])


def _oracle_tilted_marks(spec, m, rng, size):
    pool_x, pool_y = _oracle_marks(spec, rng, _TILT_POOL)
    wts = pool_x**m
    wts /= wts.sum()
    idx = rng.choice(_TILT_POOL, size=size, p=wts)
    c = spec.exact_scale(m)
    if c is None:
        c = float((pool_x**m).mean() ** (1.0 / m))
    return c, pool_x[idx], pool_y[idx]


def _oracle_invariance_chunk(args, master, start, stop):
    m, n_max, statistic, spec = args
    out = np.empty((stop - start, 2))
    for i, rep in enumerate(range(start, stop)):
        u = _oracle_sample_points(derive_rng(master, MODULE_PD, rep, 0), m, n_max)
        x, y = _oracle_marks(spec, derive_rng(master, MODULE_PD, rep, 1), n_max)
        out[i, 0] = _statistic(statistic, u * x, y)
        c, _, y_t = _oracle_tilted_marks(spec, m, derive_rng(master, MODULE_PD, rep, 2), n_max)
        out[i, 1] = _statistic(statistic, c * u, y_t)
    return out


def _oracle_corollary_chunk(args, master, start, stop):
    m, n_max, spec = args
    out = np.empty((stop - start, 4))
    for i, rep in enumerate(range(start, stop)):
        u = _oracle_sample_points(derive_rng(master, MODULE_PD, rep, 0), m, n_max)
        x, y = _oracle_marks(spec, derive_rng(master, MODULE_PD, rep, 1), n_max)
        ux = u * x
        uy = u * y
        dx = ux.sum()
        l1 = uy.sum() / dx
        l2 = (uy * uy).sum() / (dx * dx)
        l3 = (uy.sum() ** 2 - (uy * uy).sum()) / (dx * dx)
        s = u.sum()
        t = _tail_mass(u[-1], m)
        out[i] = (l1, l2, l3, t / (s + t))
    return out


def _cdf(weights):
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return cdf


def test_bucket_search_matches_searchsorted():
    rng = np.random.default_rng(41)
    sparse = rng.random(_TILT_POOL)
    sparse[rng.random(_TILT_POOL) < 0.5] = 0.0  # repeated cdf entries
    heavy = rng.pareto(0.7, _TILT_POOL)  # a few entries hold most mass
    cdfs = [
        _cdf(rng.random(_TILT_POOL)),
        _cdf(np.ones(_TILT_POOL)),  # every entry sits on a bucket edge
        np.arange(1, _BUCKETS + 1) / _BUCKETS,  # every bucket edge is an entry
        _cdf(sparse),
        _cdf(heavy),
        _cdf(np.array([0.0, 1.0, 0.0, 2.0])),
    ]
    edges = np.arange(_BUCKETS) / _BUCKETS
    near_edges = np.concatenate(
        [edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0), [np.nextafter(1.0, 0.0)]]
    )
    for cdf in cdfs:
        keys = np.concatenate(
            [rng.random(50_000), [0.0], cdf[cdf < 1.0], np.nextafter(cdf[cdf < 1.0], 0.0),
             np.nextafter(cdf[cdf < 1.0], 1.0), near_edges]
        )
        keys = keys[(keys >= 0.0) & (keys < 1.0)]
        assert np.array_equal(_bucket_search(cdf, keys), cdf.searchsorted(keys, side="right"))


@pytest.mark.parametrize("spec", MARK_SPECS, ids=lambda s: s.family)
def test_tilted_marks_match_rng_choice(spec):
    for m, size in ((0.5, 20_000), (0.3, 1000), (0.9, 1)):
        c, x, y = _tilted_marks(spec, m, derive_rng(43, 1), size)
        c_old, x_old, y_old = _oracle_tilted_marks(spec, m, derive_rng(43, 1), size)
        assert c == c_old
        assert np.array_equal(x, x_old) and np.array_equal(y, y_old)
    # without an index draw the scale is unchanged
    assert _tilted_marks(spec, 0.5, derive_rng(43, 1), 0)[0] == _oracle_tilted_marks(
        spec, 0.5, derive_rng(43, 1), 1
    )[0]


class _FixedPool:
    """A stand-in mark law whose pool is a fixed X vector."""

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)

    def sample(self, rng, size, out=None):
        return np.resize(self.x, size), np.zeros(size)

    def exact_scale(self, m):
        return 1.0


@pytest.mark.parametrize("pool", ([np.nan, 1.0], [np.inf, 1.0], [0.0, 0.0]))
def test_tilted_marks_reject_bad_pool_weights(pool):
    spec = _FixedPool(pool)
    for size in (10, 0):
        with pytest.raises(ValueError):
            _tilted_marks(spec, 0.5, derive_rng(47, 1), size)
    # rng.choice, which the search replaces, refused these weights too
    wts = np.resize(spec.x, _TILT_POOL) ** 0.5
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        derive_rng(47, 1).choice(_TILT_POOL, size=10, p=wts / wts.sum())


def test_sample_points_in_place_matches_formula():
    for m in (0.05, 0.25, 0.4, 0.5, 0.6, 0.75, 0.95):
        for n in (10, 200, 100_000):
            want = _oracle_sample_points(derive_rng(53, n), m, n)
            assert np.array_equal(_sample_points(derive_rng(53, n), m, n), want)
            buf = np.full(n, np.nan)
            got = _sample_points(derive_rng(53, n), m, n, out=buf)
            assert got is buf and np.array_equal(buf, want)


@pytest.mark.parametrize("spec", MARK_SPECS, ids=lambda s: s.family)
def test_mark_sample_in_place_matches_formula(spec):
    for size in (1, 4096, 100_000):
        want = _oracle_marks(spec, derive_rng(59, size), size)
        got = spec.sample(derive_rng(59, size), size)
        bufs = (np.full(size, np.nan), np.full(size, np.nan))
        into = spec.sample(derive_rng(59, size), size, out=bufs)
        assert into[0] is bufs[0] and into[1] is bufs[1]
        for arr in (*got, *into):
            assert arr.dtype == np.float64
        for j in (0, 1):
            assert np.array_equal(got[j], want[j]) and np.array_equal(into[j], want[j])
        # X drawn alone takes the values X has in the full draw
        x_buf = np.full(size, np.nan)
        x_alone = spec.sample(derive_rng(59, size), size, out=(x_buf, None))
        assert x_alone[0] is x_buf and x_alone[1] is None
        assert np.array_equal(x_buf, want[0])


@pytest.mark.parametrize("spec", MARK_SPECS, ids=lambda s: s.family)
def test_replica_chunks_match_formulas(spec):
    for statistic in ("pair_sum", "max_weight", "mean_mark"):
        args = (0.6, 3000, statistic, spec)
        assert np.array_equal(
            _invariance_chunk(args, 61, 3, 9), _oracle_invariance_chunk(args, 61, 3, 9)
        )
    args = (0.5, 3000, spec)
    assert np.array_equal(
        _corollary_chunk(args, 67, 0, 6), _oracle_corollary_chunk(args, 67, 0, 6)
    )


# ---------------------------------------------------------------------------
# block loops
#
# The elementwise work runs in blocks of _BLOCK points.  The sizes below
# straddle a block edge; every kernel must still give the oracles' bits.
# ---------------------------------------------------------------------------

BLOCK_SIZES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)


def _oracle_pair_sum_chunk(args, master, start, stop):
    m, n_max = args
    out = np.empty((stop - start, 2))
    for i, rep in enumerate(range(start, stop)):
        u = _oracle_sample_points(derive_rng(master, MODULE_PD, rep), m, n_max)
        s = u.sum()
        q = (u * u).sum() / (s * s)
        t = _tail_mass(u[-1], m)
        eps = t / (s + t)
        out[i] = (q, q * eps * (2.0 - eps))
    return out


def _oracle_mark_moment_chunk(args, master, start, stop):
    m, spec, batch = args
    out = np.empty((stop - start, 3))
    for i, rep in enumerate(range(start, stop)):
        x, y = _oracle_marks(spec, derive_rng(master, MODULE_PD, 1 << 20, rep), batch)
        exm = (x**m).mean()
        r1 = (x ** (m - 1) * y).mean() / exm
        r2 = (1.0 - m) * (x ** (m - 2) * y * y).mean() / exm
        out[i] = (r1, r2, m * r1 * r1)
    return out


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("spec", MARK_SPECS, ids=lambda s: s.family)
def test_block_edges_keep_the_oracle_bits(spec, size):
    want_x, want_y = _oracle_marks(spec, derive_rng(71, size), size)
    bufs = (np.full(size, np.nan), np.full(size, np.nan))
    x, y = spec.sample(derive_rng(71, size), size, out=bufs)
    assert np.array_equal(x, want_x) and np.array_equal(y, want_y)
    x_alone, _ = spec.sample(derive_rng(71, size), size, out=(np.full(size, np.nan), None))
    assert np.array_equal(x_alone, want_x)

    c_old, x_old, y_old = _oracle_tilted_marks(spec, 0.6, derive_rng(73, size), size)
    for slots in ((True, True), (False, True), (True, False)):
        out = tuple(np.full(size, np.nan) if kept else None for kept in slots)
        c, x_t, y_t = _tilted_marks(spec, 0.6, derive_rng(73, size), size, out=out)
        assert c == c_old
        assert x_t is out[0] and y_t is out[1]
        for got, want in ((x_t, x_old), (y_t, y_old)):
            assert got is None or np.array_equal(got, want)

    u = _oracle_sample_points(derive_rng(79, size), 0.6, size)
    s = u.sum()
    plain = {"pair_sum": (u * u).sum() / (s * s), "max_weight": u.max() / s,
             "mean_mark": (u * want_y).sum() / s}
    for statistic in STATISTICS:
        assert _statistic(statistic, u.copy(), want_y) == plain[statistic]

    for statistic in STATISTICS:
        args = (0.6, size, statistic, spec)
        assert np.array_equal(
            _invariance_chunk(args, 83, 0, 2), _oracle_invariance_chunk(args, 83, 0, 2)
        )
    args = (0.5, size, spec)
    assert np.array_equal(
        _corollary_chunk(args, 89, 0, 2), _oracle_corollary_chunk(args, 89, 0, 2)
    )
    args = (0.5, spec, size)
    assert np.array_equal(
        _mark_moment_chunk(args, 97, 0, 2), _oracle_mark_moment_chunk(args, 97, 0, 2)
    )


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_pair_sum_chunk_at_block_edges(size):
    args = (0.4, size)
    assert np.array_equal(
        _pair_sum_chunk(args, 101, 0, 3), _oracle_pair_sum_chunk(args, 101, 0, 3)
    )


# What a chunk may hold beyond its buffers, at any n_max: one block of
# scratch, at most four arrays of _BLOCK points of 8 bytes (the tilted
# draw's uniforms, bucket indices and gathered cdf entries with their
# comparison), and the tilt pool (X, Y and cumulative weights of
# _TILT_POOL entries) with its bucket table.  Every n_max-point
# temporary the kernels once made is larger than this.
ONE_BLOCK = 32 * _BLOCK + 8 * (3 * _TILT_POOL + _BUCKETS)
PEAK_N_MAX = 100_000


def _traced_peak(chunk, args):
    """Peak traced bytes of one chunk of two replicas, after a warm call."""
    chunk(args, 103, 0, 2)
    tracemalloc.start()
    try:
        chunk(args, 103, 0, 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_sum_chunk_holds_one_buffer():
    peak = _traced_peak(_pair_sum_chunk, (0.4, PEAK_N_MAX))
    assert peak <= 8 * PEAK_N_MAX + ONE_BLOCK, peak


@pytest.mark.parametrize("spec", MARK_SPECS, ids=lambda s: s.family)
def test_chunks_hold_their_buffers_and_one_block(spec):
    n = PEAK_N_MAX
    for statistic in STATISTICS:
        # u and x, and y where the statistic reads marks
        held = 3 if statistic == "mean_mark" else 2
        peak = _traced_peak(_invariance_chunk, (0.6, n, statistic, spec))
        assert peak <= 8 * n * held + ONE_BLOCK, (statistic, peak)
    peak = _traced_peak(_corollary_chunk, (0.5, n, spec))
    assert peak <= 8 * n * 3 + ONE_BLOCK, ("corollary", peak)
    batch = 4096  # the batch corollary_moments passes
    peak = _traced_peak(_mark_moment_chunk, (0.5, spec, batch))
    assert peak <= 8 * batch * 2 + ONE_BLOCK, ("mark moments", peak)
