"""Truncated hierarchical Poisson cascades and their identity estimators.

A cascade is a depth-k tree: every node carries the b largest points of
an independent PD(m_l, 0) source process, leaf weights are the products
of the points along the path, normalized over all b^k leaves.  On top of
that live per-node Gaussian marks (scalar, variance chosen per level)
and per-node Gaussian field columns (R^N, variance xi'(q_{l+1}) -
xi'(q_l)), giving leaf fields with covariance xi'(q_{wedge}).

Every estimator here is Monte Carlo over independent cascade replicas.
Each tree level is one block drawn from one stream (seed, operation,
replica, module, level): row j of the level-l block holds the children
of parent j, and column d is the child parent * b + d.  The parents of
a level draw i.i.d. children, so one stream per level has the law of one
per node (Ruelle 1987).  Trees at different b share no draws; since the
b largest points of a PD process are its first b, a tree at b nested in
one at a larger b is read off the larger tree by keeping the first b
children of every kept node.  Truncation allowances are computed per
realization from the conditional mean of the mass below each node's
smallest kept point and attached to the estimates; see the
per-operation notes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .functionals import PairFunctional, PathFunctional
from .mixture import MixtureFunction, RSBParams, check_field_compatible
from .pd_process import _sample_points, _tail_mass
from .recursion import (
    QuadratureSpec,
    mark_chain_restricted,
    mark_chain_root,
    mark_chain_tilted,
)
from .seeding import (
    MODULE_CASCADE,
    MODULE_COUPLED,
    MODULE_FIELDS,
    MODULE_MARKS,
    derive_rng,
    replica_rows,
    run_replicas,
    stream_key,
)
from .stats import Estimate

MAX_LEAVES = 10**6

# Envelope on the relative accuracy of the estimated truncation losses,
# used wherever a loss estimate corrects a truncated sum: the pair masses
# here, and the Gibbs-tilted losses in ``interpolation``, which add the
# measured dispersion of the per-leaf tilt on top.  Aggregated loss
# estimates track refinement experiments at the percent level; 0.10
# leaves an order of magnitude of headroom.
TAIL_ACCURACY = 0.10

# Operation ids, baked into every derived stream.
_OP_OVERLAP = 1
_OP_LOGPART = 2
_OP_TILT = 3
_OP_INVARIANCE = 4
_OP_FIELDCOV = 5

INVARIANCE_STATISTICS = ("max_weight", "pair_sum")


def prefix_cross(fa: np.ndarray, fb: np.ndarray, k: int | None = None) -> np.ndarray:
    """D_l = sum over depth-l prefixes of (subtree sum of fa)(of fb), l = 0..k.

    The last k axes (all of them by default) are the leaf tree (b,)*k;
    any leading axes are columns, so row D[l] has their shape.
    """
    tree = range(fa.ndim - (fa.ndim if k is None else k), fa.ndim)
    rows = []
    for l in range(len(tree) + 1):
        sa = fa.sum(axis=tuple(tree[l:]))
        sb = sa if fb is fa else fb.sum(axis=tuple(tree[l:]))
        rows.append((sa * sb).sum(axis=tuple(tree[:l])))
    return np.array(rows)


@dataclass
class Cascade:
    """One truncated cascade realization with tail-mass bookkeeping."""

    rsb: RSBParams
    b: int
    levels: list          # levels[l-1]: u values, shape (b,)*l
    node_sums: list       # kept-mass per node block, shape (b,)*(l-1)
    node_tails: list      # conditional mean mass below the kept points
    w: np.ndarray         # normalized leaf weights, shape (b,)*k

    @property
    def k(self) -> int:
        return self.rsb.k

    @property
    def leaf_count(self) -> int:
        return self.b**self.k

    def leaf_weights_flat(self) -> np.ndarray:
        return self.w.reshape(-1)

    def level_losses(self) -> np.ndarray:
        """Estimated relative mass lost to truncation, per level.

        Weighted over nodes by their prefix product times corrected kept
        mass; subtrees below kept and missing points have equal
        conditional mean mass per unit weight, so no subtree factor.
        """
        out = np.empty(self.k)
        prefix = np.ones(())
        for level in range(1, self.k + 1):
            s = self.node_sums[level - 1]
            t = self.node_tails[level - 1]
            eps = t / (s + t)
            weights = np.asarray(prefix) * (s + t)
            out[level - 1] = float((weights * eps).sum() / weights.sum())
            prefix = np.asarray(prefix)[..., None] * self.levels[level - 1]
        return out

    def cumulative_losses(self) -> np.ndarray:
        """eps_{<=l} = 1 - prod_{l' <= l} (1 - eps_{l'}), l = 0..k."""
        losses = self.level_losses()
        return 1.0 - np.cumprod(np.concatenate([[1.0], 1.0 - losses]))

    def corrected_concentrations(self) -> np.ndarray:
        """Prefix concentrations rescaled to the untruncated cascade.

        C_l computed from kept weights inflates by exactly
        1/(1 - eps_{<=l})^2 relative to the full cascade restricted to
        kept prefixes: extending the cascade leaves the kept numerators
        unchanged and only grows the normalization.  Multiplying by
        (1 - eps_{<=l})^2 undoes that, leaving only pairs that involve
        a missing prefix (orders of magnitude smaller) plus the error
        of the loss estimate itself.  Index l runs 0..k; entry 0 is
        exactly 1, so partitions built from these still telescope to 1.
        """
        c = prefix_cross(self.w, self.w)
        eps = self.cumulative_losses()
        return c * (1.0 - eps) ** 2

    def overlap_mass_values(self) -> np.ndarray:
        """Estimated pair masses at wedge depths r = 1..k+1 (entry r-1).

        Depth r < k+1 takes C_{r-1} - C_r; the diagonal r = k+1 takes C_k.
        """
        c = self.corrected_concentrations()
        return np.append(c[:-1] - c[1:], c[-1])

    def _concentration_allowances(self) -> np.ndarray:
        """Systematic-error budget for each corrected concentration.

        Two contributions, both scaled by TAIL_ACCURACY, a conservative
        envelope on the relative error of the estimated losses (the
        conditional tail means concentrate at the percent level once
        summed over a level): the derivative of the (1-eps)^2 rescaling
        with respect to eps, and second-order effects from losses below
        level l landing unevenly across the level-l prefixes.  Pair
        terms that involve a missing prefix are bounded by the largest
        missing weight times eps and sit far below this envelope.
        """
        c = prefix_cross(self.w, self.w)
        eps = self.cumulative_losses()
        deep = 1.0 - (1.0 - eps[self.k]) / (1.0 - eps)
        slope = 2.0 * c * (1.0 - eps) * (TAIL_ACCURACY * eps)
        uneven = c * (1.0 - eps) ** 2 * (TAIL_ACCURACY * deep)
        out = slope + uneven
        out[0] = 0.0  # C_0 is identically 1 for any truncation
        return out

    def overlap_mass_allowances(self) -> np.ndarray:
        """Bounds on the systematic errors of ``overlap_mass_values``."""
        a = self._concentration_allowances()
        return np.append(a[:-1] + a[1:], a[-1])


def build_cascade(rsb: RSBParams, b: int, seed) -> Cascade:
    """Sample one cascade; deterministic in (rsb, b, seed).

    Level l is a (b^(l-1), b) block, one row of children per parent,
    drawn from the one stream (seed, cascade module, l) through the same
    inverse-Levy sampler as the flat PD process, so the k=1 cascade is
    bit-identical to a single PD draw from the matching stream.
    """
    rsb.requires_simulable()
    if b < 2:
        raise ValueError("branching b must be at least 2")
    if b**rsb.k > MAX_LEAVES:
        raise ValueError(f"leaf count {b**rsb.k} exceeds {MAX_LEAVES}")
    base = stream_key(seed)
    levels, sums, tails = [], [], []
    for level in range(1, rsb.k + 1):
        m = rsb.m[level]
        rng = derive_rng(*base, MODULE_CASCADE, level)
        block = _sample_points(rng, m, (b ** (level - 1), b))
        shape = (b,) * level
        levels.append(block.reshape(shape))
        sums.append(block.sum(axis=1).reshape(shape[:-1]))
        tails.append(_tail_mass(block[:, -1], m).reshape(shape[:-1]))
    v = np.ones((1,) * rsb.k)
    for level, u in enumerate(levels, start=1):
        v = v * u.reshape((b,) * level + (1,) * (rsb.k - level))
    return Cascade(
        rsb=rsb,
        b=b,
        levels=levels,
        node_sums=sums,
        node_tails=tails,
        w=v / v.sum(),
    )


# ---------------------------------------------------------------------------
# overlap masses
# ---------------------------------------------------------------------------


def _read_overlap(casc: Cascade) -> np.ndarray:
    return np.stack([casc.overlap_mass_values(), casc.overlap_mass_allowances()], axis=1)


def overlap_mass(rsb: RSBParams, b: int, replicas: int, seed: int) -> list:
    """E of the pair masses at wedge levels r = 1..k+1, entry r-1.

    r = k+1 is the diagonal.  Each replica's cascade is built once and
    serves every r, so the values are the truncated-cascade statistics
    that sum to one exactly per realization; each attached allowance
    bounds the distance to the untruncated target m_r - m_{r-1}.
    """
    args = ((_OP_OVERLAP,), partial(build_cascade, rsb, b), _read_overlap)
    vals = run_replicas(replica_rows, args, seed, replicas)
    return [Estimate.from_pairs(vals[:, j]) for j in range(rsb.k + 1)]


# ---------------------------------------------------------------------------
# marks and menu functionals on leaves
# ---------------------------------------------------------------------------


def sample_marks(b: int, k: int, taus, base: tuple):
    """Per-node scalar Gaussian marks, taus[l-1] the level-l deviation.

    Level l is one (b^(l-1), b) block, a row per parent, from stream
    (seed, MODULE_MARKS, l).
    """
    marks = []
    for level in range(1, k + 1):
        block = derive_rng(*base, MODULE_MARKS, level).standard_normal((b ** (level - 1), b))
        marks.append(taus[level - 1] * block.reshape((b,) * level))
    return marks


def leaf_functional(x_fn: PathFunctional, marks, b: int, k: int) -> np.ndarray:
    """Evaluate a path functional on every leaf, shape (b,)*k."""
    arrs = [
        marks[level - 1].reshape((b,) * level + (1,) * (k - level))
        for level in range(1, k + 1)
    ]
    return np.broadcast_to(np.asarray(x_fn(arrs), dtype=float), (b,) * k)


def _tilted_draw(rsb: RSBParams, b: int, x_fn: PathFunctional, taus, base: tuple):
    """One cascade with its marks: (cascade, marks, X, p, log Z).

    p is proportional to w exp(X) and normalized; Z = sum w exp(X).
    """
    casc = build_cascade(rsb, b, base)
    marks = sample_marks(b, rsb.k, taus, base)
    x = leaf_functional(x_fn, marks, b, rsb.k)
    a = np.log(casc.w) + x
    amax = a.max()
    e = np.exp(a - amax)
    total = e.sum()
    return casc, marks, x, e / total, float(amax + np.log(total))


# ---------------------------------------------------------------------------
# log-partition identity
# ---------------------------------------------------------------------------


def _read_logpart(draw):
    casc, _, x, _, log_z = draw
    # Allowance: relative missing mass, scaled up when the kept leaves
    # show that exp(X) correlates with the weights (rho is the
    # unweighted-to-weighted mean ratio of exp X).
    eps = casc.cumulative_losses()[-1]
    ex = np.exp(x - x.max())
    rho = float(ex.mean() / (casc.w * ex).sum())
    return log_z, eps * (1.0 + abs(rho - 1.0))


def log_partition_identity(
    rsb: RSBParams,
    b: int,
    x_fn: PathFunctional,
    taus,
    replicas: int,
    seed: int,
    quad: QuadratureSpec,
):
    """MC estimate of E log sum w_alpha exp X_alpha, and its quadrature root.

    The reference is the recursion chain value X_0 computed by tensor
    quadrature, an independent method; the two agree for the ideal
    cascade, and the estimate carries a truncation allowance.
    """
    args = ((_OP_LOGPART,), partial(_tilted_draw, rsb, b, x_fn, tuple(taus)), _read_logpart)
    est = Estimate.from_pairs(run_replicas(replica_rows, args, seed, replicas))
    reference = mark_chain_root(x_fn, rsb, tuple(taus), quad)
    return est, reference


# ---------------------------------------------------------------------------
# tilted averages (unrestricted and fixed-wedge)
# ---------------------------------------------------------------------------


def _read_tilt(y_fn, restricted_r, draw):
    casc, marks, _, p, _ = draw
    eps = casc.cumulative_losses()[-1]
    if restricted_r is None:
        y = leaf_functional(y_fn, marks, casc.b, casc.k)
        stat = float((p * y).sum())
        scale = float(np.abs(y).max())
    else:
        yb = leaf_functional(y_fn.base, marks, casc.b, casc.k)
        d = y_fn.mean_over_pair(p * yb, p, prefix_cross)
        stat = float(d[restricted_r - 1] - d[restricted_r])
        # |Y| is at most the pair mean of two paths with |y| at its max, weight 1
        scale = float(y_fn.mean_over_pair(float(np.abs(yb).max()), 1.0))
    return stat, eps * (2.0 - eps) * (abs(stat) + scale)


def tilted_average(
    rsb: RSBParams,
    b: int,
    x_fn: PathFunctional,
    y_fn,
    taus,
    replicas: int,
    seed: int,
    quad: QuadratureSpec,
    restricted_r: int | None = None,
):
    """Exponentially tilted leaf average against its quadrature reference.

    Unrestricted: E[sum_alpha p_alpha Y_alpha], p proportional to
    v exp(X); reference E prod_l W_l Y.  Restricted at r: the pair sum
    over wedge r of p_alpha p_beta Y_{alpha,beta}; reference
    (m_r - m_{r-1}) M_r with M_r the fixed-pair chain value.
    """
    if restricted_r is None:
        if not isinstance(y_fn, PathFunctional):
            raise TypeError("unrestricted averages take a single-path functional")
        reference = mark_chain_tilted(x_fn, y_fn, rsb, tuple(taus), quad)
    else:
        if not isinstance(y_fn, PairFunctional):
            raise TypeError("restricted averages need a two-path functional")
        if not 1 <= restricted_r <= rsb.k:
            raise ValueError(f"restricted_r = {restricted_r} outside 1..{rsb.k}")
        m_jump = rsb.m[restricted_r] - rsb.m[restricted_r - 1]
        reference = m_jump * mark_chain_restricted(
            x_fn, y_fn, rsb, tuple(taus), restricted_r, quad
        )
    build = partial(_tilted_draw, rsb, b, x_fn, tuple(taus))
    args = ((_OP_TILT,), build, partial(_read_tilt, y_fn, restricted_r))
    est = Estimate.from_pairs(run_replicas(replica_rows, args, seed, replicas))
    return est, reference


# ---------------------------------------------------------------------------
# weight-tilt invariance (the testable form of the reweighting lemma)
# ---------------------------------------------------------------------------


def _weight_statistic(name: str, p: np.ndarray) -> float:
    if name == "max_weight":
        return float(p.max())
    if name == "pair_sum":
        return float((p * p).sum())
    raise ValueError(f"unknown statistic {name!r}")


def _invariance_draws(rsb: RSBParams, b: int, x_fn: PathFunctional, taus, seed: tuple):
    """A tilted draw from stream seed + (0,), a plain cascade from seed + (1,)."""
    return _tilted_draw(rsb, b, x_fn, taus, seed + (0,)), build_cascade(rsb, b, seed + (1,))


def _read_invariance(statistic, draws):
    """(tilted statistic, allowance, plain statistic, allowance)."""
    (tilted, _, _, p, _), plain = draws
    row = []
    for casc, weights in ((tilted, p), (plain, plain.w)):
        s = _weight_statistic(statistic, weights)
        eps = casc.cumulative_losses()[-1]
        row += [s, eps * (2.0 - eps) * s]
    return row


def weight_tilt_invariance(
    rsb: RSBParams,
    b: int,
    x_fn: PathFunctional,
    taus,
    statistic: str,
    replicas: int,
    seed: int,
):
    """Distributional match of tilted and plain normalized weights.

    The reweighting lemma says (v_alpha exp(X_alpha - X_0)) is another
    copy of (v_alpha); after normalization the statistics of the two
    weight vectors must agree.  Returns (tilted, plain) estimates of the
    chosen menu statistic from independent replicas.
    """
    if statistic not in INVARIANCE_STATISTICS:
        raise ValueError(f"statistic must be one of {INVARIANCE_STATISTICS}")
    build = partial(_invariance_draws, rsb, b, x_fn, tuple(taus))
    args = ((_OP_INVARIANCE,), build, partial(_read_invariance, statistic))
    vals = run_replicas(replica_rows, args, seed, replicas)
    return Estimate.from_pairs(vals[:, :2]), Estimate.from_pairs(vals[:, 2:])


# ---------------------------------------------------------------------------
# Gaussian field columns along the tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CascadeFields:
    """Gaussian field columns on the nodes of a depth-k, b-ary tree.

    The root column comes from stream (seed, modules[0], 0) and the
    b^l columns of level l >= 1 from stream (seed, modules[l], l), one
    row per node in parent-major order (row parent * b + digit).
    """

    b: int
    N: int
    base: tuple
    column_stds: np.ndarray  # level 0..k
    modules: tuple           # stream module per level 0..k

    @property
    def k(self) -> int:
        return len(self.column_stds) - 1

    def all_fields(self) -> np.ndarray:
        """Leaf-by-site field matrix, shape (b^k, N), row-major leaf order.

        Each leaf sums the columns on its path, root first, then levels
        1, 2, ..., k.
        """
        b, k, N = self.b, self.k, self.N
        stds = self.column_stds
        root = derive_rng(*self.base, self.modules[0], 0).standard_normal(N)
        total = np.tile(stds[0] * root, (b**k, 1))
        for level in range(1, k + 1):
            rows = derive_rng(*self.base, self.modules[level], level).standard_normal((b**level, N))
            total += np.repeat(stds[level] * rows, b ** (k - level), axis=0)
        return total

    def independent_from(self, r: int) -> "CascadeFields":
        """A second copy: the same columns below level r, fresh from r on."""
        return replace(self, modules=self.modules[:r] + (MODULE_COUPLED,) * (self.k + 1 - r))


def attach_fields(
    b: int, mixture: MixtureFunction, rsb: RSBParams, N: int, seed
) -> CascadeFields:
    """Gaussian columns z along the tree; leaf sums have cov xi'(q_wedge)."""
    if not 1 <= N <= 20:
        raise ValueError("N outside 1..20")
    check_field_compatible(mixture)
    stds = np.sqrt(np.maximum(rsb.variances(mixture), 0.0))
    return CascadeFields(
        b=b,
        N=N,
        base=stream_key(seed),
        column_stds=stds,
        modules=(MODULE_FIELDS,) * (rsb.k + 1),
    )


def _read_fieldcov(row_a, row_b, i, j, fields: CascadeFields) -> float:
    s = fields.all_fields()
    return s[row_a, i] * s[row_b, j]


def field_covariance(
    rsb: RSBParams,
    mixture: MixtureFunction,
    N: int,
    b: int,
    alpha,
    beta,
    i: int,
    j: int,
    replicas: int,
    seed: int,
) -> Estimate:
    """MC estimate of E s_i^alpha s_j^beta over field disorder.

    Paths are 0-indexed digit tuples; the target is xi'(q_{wedge}) for
    i = j and zero otherwise.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if len(alpha) != rsb.k or len(beta) != rsb.k:
        raise ValueError("paths must have length k")
    if any(not 0 <= d < b for d in alpha + beta):
        raise ValueError("path digits outside 0..b-1")
    if not (0 <= i < N and 0 <= j < N):
        raise ValueError(f"site indices ({i}, {j}) outside 0..{N - 1}")
    rows = (np.ravel_multi_index(path, (b,) * rsb.k) for path in (alpha, beta))
    read = partial(_read_fieldcov, *rows, i, j)
    args = ((_OP_FIELDCOV,), partial(attach_fields, b, mixture, rsb, N), read)
    return Estimate.from_values(run_replicas(replica_rows, args, seed, replicas))
