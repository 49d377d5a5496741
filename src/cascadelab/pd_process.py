"""One-level Poisson-Dirichlet point processes and mark invariance checks.

A realization keeps the n_max largest points of a Poisson process with
intensity x^(-1-m) dx on (0, inf), obtained from unit-rate arrival times
G_1 < G_2 < ... as u_n = (m G_n)^(-1/m), which is automatically
decreasing.  The expected mass below the smallest kept point,
conditionally on its value u_b, is

    T = u_b^(1-m) / (1-m)

(integral of x against the intensity over (0, u_b)); the reported
tail_bound is the relative version T / (S + T).  All truncation
allowances in this module derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import MODULE_PD, derive_rng, run_replicas
from .stats import Estimate

STATISTICS = ("pair_sum", "max_weight", "mean_mark")
_TILT_POOL = 4096
# Buckets of the tilted-mark search: a power of two, two per pool entry.
_BUCKETS = 8192
# Points per block of the elementwise kernels: their scratch arrays are one
# block long, never n_max points, and at this size the Python loop over
# blocks costs little next to the arithmetic in a block.
_BLOCK = 1 << 14


def _blocks(size: int):
    """Slices of at most ``_BLOCK`` points covering ``range(size)``."""
    return [slice(lo, min(lo + _BLOCK, size)) for lo in range(0, size, _BLOCK)]


@dataclass(frozen=True)
class PDRealization:
    m: float
    u: np.ndarray
    w: np.ndarray
    tail_bound: float


@dataclass(frozen=True)
class MarkSpec:
    """A named family of i.i.d. mark pairs (X_n, Y_n) with X > 0.

    families:
      constant:  X = cx, Y = cy.
      lognormal: X = shift + exp(sigma_x G), Y = exp(sigma_y (rho G +
                 sqrt(1 - rho^2) G')), with G, G' independent standard
                 normals; rho correlates Y with X.
      two_point: (X, Y) = (xs[0], ys[0]) with probability p, else
                 (xs[1], ys[1]).
    """

    family: str
    cx: float = 1.0
    cy: float = 1.0
    sigma_x: float = 0.5
    sigma_y: float = 0.5
    rho: float = 0.5
    shift: float = 0.0
    xs: tuple = (1.0, 2.0)
    ys: tuple = (1.0, 1.0)
    p: float = 0.5

    def __post_init__(self):
        if self.family not in ("constant", "lognormal", "two_point"):
            raise ValueError(f"unknown mark family {self.family!r}")
        if self.family == "constant" and self.cx <= 0:
            raise ValueError("constant X mark must be positive")
        if self.family == "lognormal" and self.shift < 0:
            raise ValueError("lognormal shift must be nonnegative")
        if self.family == "two_point" and min(self.xs) <= 0:
            raise ValueError("two_point X values must be positive")

    def sample(self, rng: np.random.Generator, size: int, out=None):
        """Draw ``size`` pairs (X, Y), into the float arrays ``out`` if given.

        With ``out = (x, None)`` only X is drawn, and Y is returned as
        None.  X comes first from the stream, so it takes the same values.
        Beyond ``out`` the draw allocates one block of scratch.
        """
        x, y = (np.empty(size), np.empty(size)) if out is None else out
        if self.family == "constant":
            x.fill(self.cx)
            if y is not None:
                y.fill(self.cy)
        elif self.family == "lognormal":
            rng.standard_normal(out=x)
            if y is not None:
                rng.standard_normal(out=y)
                # Y from G and G' before X overwrites G.
                rho_x = np.empty(min(size, _BLOCK))
                rho_perp = np.sqrt(1 - self.rho**2)
                for b in _blocks(size):
                    yb = y[b]
                    yb *= rho_perp
                    yb += np.multiply(x[b], self.rho, out=rho_x[: yb.size])
                    yb *= self.sigma_y
                np.exp(y, out=y)
            x *= self.sigma_x
            np.exp(x, out=x)
            x += self.shift
        else:
            rng.random(out=x)
            table_x = np.array((self.xs[1], self.xs[0]), dtype=float)
            table_y = np.array((self.ys[1], self.ys[0]), dtype=float)
            pick = np.empty(min(size, _BLOCK), np.intp)
            for b in _blocks(size):
                xb = x[b]
                pb = np.less(xb, self.p, out=pick[: xb.size])
                # The indices are 0 and 1, so "clip" changes no value; it
                # spares the buffered copy that take makes in "raise" mode.
                np.take(table_x, pb, out=xb, mode="clip")
                if y is not None:
                    np.take(table_y, pb, out=y[b], mode="clip")
        return x, y

    def min_x(self) -> float:
        if self.family == "constant":
            return self.cx
        if self.family == "lognormal":
            return self.shift
        return min(self.xs)

    def exact_scale(self, m: float):
        """(E X^m)^(1/m) in closed form where the family admits one."""
        if self.family == "constant":
            return self.cx
        if self.family == "two_point":
            ex = self.p * self.xs[0] ** m + (1 - self.p) * self.xs[1] ** m
            return ex ** (1.0 / m)
        return None


def sample_pd(m: float, n_max: int, seed) -> PDRealization:
    """Draw the n_max largest points of the PD(m, 0) source process."""
    if not 0.0 < m < 1.0:
        raise ValueError(f"m must lie in (0, 1), got {m}")
    if n_max < 10:
        raise ValueError("n_max must be at least 10")
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed, MODULE_PD)
    u = _sample_points(rng, m, n_max)
    s = u.sum()
    t = _tail_mass(u[-1], m)
    return PDRealization(m=m, u=u, w=u / s, tail_bound=t / (s + t))


def _sample_points(
    rng: np.random.Generator, m: float, n_max: int | tuple, out: np.ndarray | None = None
) -> np.ndarray:
    """u_n = (m G_n)^(-1/m) from arrival times G_n, in ``out`` if given.

    ``n_max`` is a point count, or a shape whose rows (last axis) are
    independent processes drawn in row-major order from the one stream.
    """
    u = np.empty(n_max) if out is None else out
    rng.standard_exponential(out=u)
    np.cumsum(u, axis=-1, out=u)
    u *= m
    u **= -1.0 / m
    return u


def _tail_mass(u_last: float, m: float) -> float:
    return u_last ** (1.0 - m) / (1.0 - m)


def _pair_sum_chunk(args, master, start, stop):
    m, n_max = args
    out = np.empty((stop - start, 2))
    u = np.empty(n_max)
    for i, rep in enumerate(range(start, stop)):
        rng = derive_rng(master, MODULE_PD, rep)
        _sample_points(rng, m, n_max, out=u)
        s = u.sum()
        t = _tail_mass(u[-1], m)
        # The sum and the last point are read, so u is squared in place.
        q = float(np.multiply(u, u, out=u).sum() / (s * s))
        eps = t / (s + t)
        # Bracket for the untruncated pair sum: the full denominator is at
        # least s and the truncated numerator is a lower bound, so the full
        # statistic lies in [q (1 - eps)^2, q + small]; the half-width
        # q (2 eps - eps^2) is the declared allowance.
        out[i] = (q, q * eps * (2.0 - eps))
    return out


def estimate_pair_sum(m: float, n_max: int, replicas: int, seed: int) -> Estimate:
    """Monte Carlo estimate of E sum_n w_n^2 (target 1 - m)."""
    if replicas < 100:
        raise ValueError("replicas must be >= 100")
    if not 0.0 < m < 1.0:
        raise ValueError(f"m must lie in (0, 1), got {m}")
    vals = run_replicas(_pair_sum_chunk, (m, n_max), seed, replicas)
    return Estimate.from_pairs(vals)


def _statistic(name: str, u: np.ndarray, y: np.ndarray) -> float:
    """A menu statistic of the points ``u`` with marks ``y``; overwrites ``u``."""
    s = u.sum()
    if name == "pair_sum":
        return float(np.multiply(u, u, out=u).sum() / (s * s))
    if name == "max_weight":
        return float(u.max() / s)
    if name == "mean_mark":
        return float(np.multiply(u, y, out=u).sum() / s)
    raise ValueError(f"statistic {name!r} not in menu {STATISTICS}")


def _bucket_starts(cdf: np.ndarray) -> np.ndarray:
    """The first entry of ``cdf`` above each bucket edge j / B."""
    return cdf.searchsorted(np.arange(_BUCKETS) / _BUCKETS, side="right")


def _bucket_search(cdf: np.ndarray, u: np.ndarray, start=None, out=None) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` through a bucket table.

    ``cdf`` is nondecreasing with ``cdf[-1] == 1`` and every u lies in
    [0, 1).  The bucket count is a power of two, so the edge j / B and
    the bucket floor(u B) are exact: u >= j / B and every entry before
    ``start[j]`` is <= u, so a forward walk from there finds the first
    entry above u, which ``cdf[-1] = 1`` bounds.  ``start`` is the table
    of ``cdf``, computed here if not given, and the indices go into the
    intp array ``out`` if given.
    """
    if start is None:
        start = _bucket_starts(cdf)
    idx = np.empty(u.shape, np.intp) if out is None else out
    # The cast truncates u B, which lies in [0, B), to its bucket.
    np.multiply(u, _BUCKETS, out=idx, casting="unsafe")
    # In place: each bucket is read before its slot takes the start.
    np.take(start, idx, out=idx, mode="clip")
    behind = np.flatnonzero(cdf[idx] <= u)
    while behind.size:
        idx[behind] += 1
        behind = behind[cdf[idx[behind]] <= u[behind]]
    return idx


def _tilted_marks(spec: MarkSpec, m: float, rng: np.random.Generator, size: int, out=None):
    """Draw marks from the law reweighted by X^m / E X^m, plus the scale.

    Direct Monte Carlo: resample a fresh pool of (X, Y) pairs with
    probabilities proportional to X^m.  Families with a closed-form scale
    use it so degenerate cases reproduce exactly.  The draw is the one
    ``rng.choice(pool, size, p=X^m / sum X^m)`` makes, value for value;
    with ``size = 0`` no index is drawn and only the scale is of use.
    Returns ``(c, x, y)``.  The marks go into the float arrays ``out`` if
    given, as in ``MarkSpec.sample``, except that a None slot is not
    gathered at all and comes back None.
    """
    pool_x, pool_y = spec.sample(rng, _TILT_POOL)
    xm = pool_x**m
    total = xm.sum()
    if not (np.isfinite(total) and total > 0.0) or (xm < 0).any():
        raise ValueError("tilt pool weights must be finite, nonnegative, not all zero")
    c = spec.exact_scale(m)
    if c is None:
        c = float(xm.mean() ** (1.0 / m))
    xm /= total
    cdf = np.cumsum(xm, out=xm)
    cdf /= cdf[-1]
    x, y = (np.empty(size), np.empty(size)) if out is None else out
    if size:
        start = _bucket_starts(cdf)
        keys = np.empty(min(size, _BLOCK))
        idx = np.empty(keys.size, np.intp)
        for b in _blocks(size):
            # Blocks of uniforms are the stream's values for one call, in order.
            u = rng.random(out=keys[: b.stop - b.start])
            found = _bucket_search(cdf, u, start, out=idx[: u.size])
            for pool, dest in ((pool_x, x), (pool_y, y)):
                if dest is not None:
                    np.take(pool, found, out=dest[b], mode="clip")
    return c, x, y


def _invariance_chunk(args, master, start, stop):
    m, n_max, statistic, spec = args
    out = np.empty((stop - start, 2))
    # Only the mean-mark statistic reads Y and the tilted marks.
    mean_mark = statistic == "mean_mark"
    u, x = np.empty(n_max), np.empty(n_max)
    y = np.empty(n_max) if mean_mark else None
    tilted_size = n_max if mean_mark else 0
    for i, rep in enumerate(range(start, stop)):
        rng_u = derive_rng(master, MODULE_PD, rep, 0)
        rng_m = derive_rng(master, MODULE_PD, rep, 1)
        rng_t = derive_rng(master, MODULE_PD, rep, 2)
        _sample_points(rng_u, m, n_max, out=u)
        spec.sample(rng_m, n_max, out=(x, y))
        # side (a): the marked-and-multiplied process (u X, Y)
        out[i, 0] = _statistic(statistic, np.multiply(x, u, out=x), y)
        # side (b): the same points scaled by (E X^m)^(1/m), tilted Y in y
        c, _, y_t = _tilted_marks(spec, m, rng_t, tilted_size, out=(None, y))
        out[i, 1] = _statistic(statistic, np.multiply(u, c, out=u), y_t)
    return out


def verify_invariance(
    m: float,
    mark_spec: MarkSpec,
    statistic: str,
    replicas: int,
    n_max: int,
    seed: int,
):
    """Compare a menu statistic on the marked process vs the tilted one.

    Returns (marked Estimate, tilted Estimate).  Both sides share the
    underlying points per replica, so the two estimates are correlated,
    but ``identity_check`` combines their standard errors as if they were
    independent: the sharing does not tighten the tolerance it applies.
    """
    if statistic not in STATISTICS:
        raise ValueError(f"statistic {statistic!r} not in menu {STATISTICS}")
    vals = run_replicas(
        _invariance_chunk, (m, n_max, statistic, mark_spec), seed, replicas
    )
    return Estimate.from_values(vals[:, 0]), Estimate.from_values(vals[:, 1])


def _corollary_chunk(args, master, start, stop):
    m, n_max, spec = args
    out = np.empty((stop - start, 4))
    u, x, y = np.empty(n_max), np.empty(n_max), np.empty(n_max)
    for i, rep in enumerate(range(start, stop)):
        rng_u = derive_rng(master, MODULE_PD, rep, 0)
        rng_m = derive_rng(master, MODULE_PD, rep, 1)
        _sample_points(rng_u, m, n_max, out=u)
        spec.sample(rng_m, n_max, out=(x, y))
        dx = np.multiply(x, u, out=x).sum()
        uy = np.multiply(y, u, out=y)
        sy = uy.sum()
        syy = np.multiply(uy, uy, out=x).sum()
        l1 = sy / dx
        l2 = syy / (dx * dx)
        l3 = (sy**2 - syy) / (dx * dx)
        s = u.sum()
        t = _tail_mass(u[-1], m)
        out[i] = (l1, l2, l3, t / (s + t))
    return out


def _mark_moment_chunk(args, master, start, stop):
    m, spec, batch = args
    out = np.empty((stop - start, 3))
    buffers = (np.empty(batch), np.empty(batch))
    for i, rep in enumerate(range(start, stop)):
        rng = derive_rng(master, MODULE_PD, 1 << 20, rep)
        x, y = spec.sample(rng, batch, out=buffers)
        exm = (x**m).mean()
        r1 = (x ** (m - 1) * y).mean() / exm
        r2 = (1.0 - m) * (x ** (m - 2) * y * y).mean() / exm
        out[i] = (r1, r2, m * r1 * r1)
    return out


def corollary_moments(
    m: float, mark_spec: MarkSpec, replicas: int, n_max: int, seed: int
):
    """The three ratio identities, point-process side vs plain mark side.

    Returns a list of (name, lhs Estimate, rhs Estimate).  The right sides
    are estimated by direct Monte Carlo over the mark law in independent
    batches, so the comparison never reuses point-process randomness.
    """
    if replicas < 1000:
        raise ValueError("replicas must be >= 1000")
    if mark_spec.min_x() < 1.0:
        raise ValueError("this identity family requires marks with X >= 1")
    lhs = run_replicas(_corollary_chunk, (m, n_max, mark_spec), seed, replicas)
    n_batches = max(200, replicas // 10)
    rhs = run_replicas(
        _mark_moment_chunk, (m, mark_spec, 4096), seed, n_batches
    )
    eps = lhs[:, 3]
    names = ("ratio_mean", "diagonal_square", "off_diagonal")
    results = []
    for j, name in enumerate(names):
        stat = lhs[:, j]
        # total-variation style bracket: relative tail eps moves a
        # normalized ratio statistic by at most ~2 eps times its scale
        allowance = float(np.mean(2.0 * eps * (np.abs(stat) + 1.0)))
        results.append(
            (
                name,
                Estimate.from_values(stat, allowance=allowance),
                Estimate.from_values(rhs[:, j]),
            )
        )
    return results
