"""The backward smoothing recursion and everything computed from it.

One operator drives this module:

    (S_{m,v} g)(x) = (1/m) log E exp(m g(x + z)),   z ~ N(0, v),

with the m = 0 limit a plain expectation and m = 1 a log-mean-exp.
Applying it level by level from g(x) = log 2 cosh(x + h) gives the
decoupled per-site value phi(0), computed as the level chain on a
tensor grid of the k+1 Gaussian columns; combining phi(0) with the
theta terms gives the k-step upper bound on the free energy;
differentiating the same chain gives the change-of-density weights W_l
whose products define the tilted two-replica averages, evaluated here by
tensor-product Gauss-Hermite quadrature, and the bound's gradient in
(m, q), on which the optimizer searches with the package's own L-BFGS
(``lbfgs``).

All quadrature is deterministic; Monte Carlo never enters this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lbfgs
from .functionals import PairFunctional, PathFunctional, replica_pair_value
from .mixture import (
    MixtureFunction,
    RSBParams,
    check_field_compatible,
    theta,
)
from .sk_model import monomial_table, spin_matrix

TENSOR_BUDGET = 10**7
# The optimizer searches on the largest node count whose full grid,
# nodes**(k+1) points, fits this budget: 29 nodes at k = 3.  There one
# ``bound_and_gradient`` call took 24-35 ms on a 2-core Xeon VM, against
# 80-128 ms at 40 nodes, and a search at 40 nodes would move the optima.
SEARCH_GRID_BUDGET = 800_000
# Points per block of root nodes (see ``_root_blocks``).
_ROOT_BLOCK = 2**16


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite configuration shared by all quadrature paths."""

    nodes_per_level: int = 40
    convergence_check: bool = True

    def __post_init__(self):
        if self.nodes_per_level < 8:
            raise ValueError("nodes_per_level must be >= 8")


@functools.lru_cache(maxsize=64)
def gauss_hermite(n: int):
    """Nodes and weights for E f(z), z standard normal (weights sum to 1).

    Cached per node count; the arrays are shared, so they are read-only.
    """
    t, w = np.polynomial.hermite.hermgauss(n)
    z, w = t * math.sqrt(2.0), w / math.sqrt(math.pi)
    z.flags.writeable = False
    w.flags.writeable = False
    return z, w


def log2cosh(x):
    """log(2 cosh(x)) without overflow."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax))


@dataclass
class RecursionResult:
    phi0: float
    converged: bool
    doubling_diff: float


def _level_scales(rsb: RSBParams, mix: MixtureFunction) -> np.ndarray:
    """s_l = sqrt(v_l), the standard deviation of the level-l column, l = 0..k."""
    return np.sqrt(np.maximum(rsb.variances(mix), 0.0))


def _phi0_chain(rsb: RSBParams, s: np.ndarray, h: float, nodes: int, read=None) -> float:
    """phi(0) from the level chain on a (k+1)-axis grid.

    Axis l carries the level-l column s_l z_l (``_level_scales``), so
    X_k = log 2cosh(field) with field = h + sum_l s_l z_l; ``_chain``
    contracts axes k..1 with m_k..m_1 and axis 0 takes a plain
    Gauss-Hermite mean of X_0.  No level contracts axis 0, so the chain
    runs on one block of root nodes at a time (``_root_blocks``), and
    ``read(block, field, [X_0, ..., X_k])``, if given, sees each block.
    """
    k = rsb.k
    z, w = _grid_nodes(nodes, k)
    level_axes = {level: [level] for level in range(1, k + 1)}
    x0 = np.empty(_axis_shape(k + 1, 0, nodes))
    for block in _root_blocks(nodes, nodes**k):
        field = h + _column(float(s[0]), z[block], k + 1, 0)
        for level in range(1, k + 1):
            field = field + _column(float(s[level]), z, k + 1, level)
        xs = _chain(log2cosh(field), rsb.m, level_axes, w, k + 1)
        x0[block] = xs[0]
        if read is not None:
            read(block, field, xs)
    return float(_weighted_sum(x0, [0], w, k + 1).squeeze())


def phi0(
    rsb: RSBParams, mix: MixtureFunction, h: float, quad: QuadratureSpec
) -> RecursionResult:
    """Per-site value of the recursion root at the decoupled endpoint.

    Starts from log 2 cosh(x + h), smooths through levels k down to 1
    with variances xi'(q_{l+1}) - xi'(q_l), and closes with a plain
    Gaussian expectation of variance xi'(q_1).  m_k = 1 is legal here.
    A node count whose one-root-node grid, nodes**k points, exceeds
    ``TENSOR_BUDGET`` is refused, at the doubled count of the
    convergence check too, before any grid is built.
    """
    nodes = quad.nodes_per_level
    if quad.convergence_check:
        try:  # refused here, before the first chain runs
            _grid_nodes(2 * nodes, rsb.k)
        except ValueError as err:
            raise ValueError(f"{err}: the convergence check doubles {nodes} nodes") from None
    s = _level_scales(rsb, mix)
    val = _phi0_chain(rsb, s, h, nodes)
    diff = 0.0
    converged = True
    if quad.convergence_check:
        val2 = _phi0_chain(rsb, s, h, 2 * nodes)
        diff = abs(val2 - val)
        converged = diff < 1e-7
    return RecursionResult(
        phi0=val,
        converged=converged,
        doubling_diff=diff,
    )


def bound_from_phi0(rsb: RSBParams, mix: MixtureFunction, phi0_value: float) -> float:
    """The k-step bound B(m, q) from its phi(0) term.

    B(m, q) = phi(0) - theta(1)/2 + (1/2) sum_r (m_r - m_{r-1}) theta(q_r),
    the value obtained by integrating the interpolation derivative over t
    and dropping its nonpositive error term.  Defined at the m_k = 1
    endpoint, which the quadrature handles analytically.
    """
    if rsb.m[-1] != 1.0:
        raise ValueError("the bound is defined at the m_k = 1 endpoint")
    b = phi0_value - 0.5 * theta(mix, 1.0)
    for r in range(1, rsb.k + 1):
        b += 0.5 * (rsb.m[r] - rsb.m[r - 1]) * theta(mix, rsb.q[r])
    return float(b)


def guerra_bound(
    rsb: RSBParams, mix: MixtureFunction, h: float, quad: QuadratureSpec
) -> float:
    """The k-step upper bound on the free energy at ``quad``'s node count.

    One phi(0) evaluation; ``quad.convergence_check`` is not run here
    (``phi0`` runs and reports it).
    """
    phi = _phi0_chain(rsb, _level_scales(rsb, mix), h, quad.nodes_per_level)
    return bound_from_phi0(rsb, mix, phi)


def bound_and_gradient(
    rsb: RSBParams, mix: MixtureFunction, h: float, quad: QuadratureSpec
):
    """The bound and its gradient in (m_1..m_{k-1}, q_1..q_k).

    Both come from the one level chain of ``guerra_bound``, so the value
    is its to the bit, and the same node counts are refused.  The grid
    sums below are taken per block of root nodes and added in block order.
    With s_l = sqrt(v_l) and the chain weights W_l:

    - dphi/ds_l = E[prod W tanh(field) z_l];
    - dphi/dm_j = E[prod_{i<=j} W_i (X_j - X_{j-1})] / m_j (m_k = 1 is
      pinned);
    - dphi/dq_j = xi''(q_j) (dphi/dv_{j-1} - dphi/dv_j), with
      dphi/dv_l = (dphi/ds_l) / (2 s_l), taken as 0 where s_l = 0;

    the theta terms add (1/2)(m_j - m_{j-1}) q_j xi''(q_j) to dB/dq_j and
    (1/2)(theta(q_j) - theta(q_{j+1})) to dB/dm_j.
    """
    k, nodes = rsb.k, quad.nodes_per_level
    ndim = k + 1
    z, w = _grid_nodes(nodes, k)
    sums = []  # per root block: the grid sums of dphi/ds_0..s_k, then of dphi/dm_1..m_{k-1}

    def read(block, field, xs):
        axis_z, axis_w = [z[block]] + [z] * k, [w[block]] + [w] * k
        # tilts[j]: the block's Gauss-Hermite weights times W_1..W_j
        grid_w = functools.reduce(
            np.multiply,
            [wa.reshape(_axis_shape(ndim, axis, wa.size)) for axis, wa in enumerate(axis_w)],
        )
        tilts = list(itertools.accumulate(_chain_weights(xs, rsb.m), np.multiply, initial=grid_w))
        slope = np.tanh(field) * tilts[-1]
        d_s = [np.sum(slope * _column(1.0, za, ndim, level)) for level, za in enumerate(axis_z)]
        d_m = [np.sum(tilts[j] * (xs[j] - xs[j - 1])) for j in range(1, k)]
        sums.append(np.array(d_s + d_m))

    s = _level_scales(rsb, mix)
    phi = _phi0_chain(rsb, s, h, nodes, read)
    # summed in block order: one block keeps the bits of the whole-grid sums
    total = functools.reduce(np.add, sums)
    d_v = np.divide(total[:ndim], 2.0 * s, out=np.zeros(ndim), where=s > 0.0)
    m, q = np.asarray(rsb.m), np.asarray(rsb.q_interior)
    d_q = mix.xi_second(q) * (d_v[:-1] - d_v[1:] + 0.5 * (m[1:] - m[:-1]) * q)
    theta_q = q * mix.xi_prime(q) - mix.xi(q)
    d_m = [
        total[ndim + j - 1] / m[j] + 0.5 * (theta_q[j - 1] - theta_q[j]) for j in range(1, k)
    ]
    return bound_from_phi0(rsb, mix, phi), np.concatenate([d_m, d_q])


# ---------------------------------------------------------------------------
# bound optimization
# ---------------------------------------------------------------------------


@dataclass
class BoundOptimum:
    params: RSBParams
    value: float
    phi0: float
    converged: bool
    evaluations: int
    stationarity: float
    restart_values: list = field(default_factory=list)

    @property
    def restart_spread(self) -> float:
        """Largest minus smallest end value over the restarts."""
        return max(self.restart_values) - min(self.restart_values)


def _sigmoid(y):
    # exp(-log(1 + e^-y)): no overflow however far y runs out
    return np.exp(-np.logaddexp(0.0, -y))


def _logit(p):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.log(p / (1.0 - p))


def _vector_to_params(y: np.ndarray, k: int) -> RSBParams:
    """Map an unconstrained vector to strictly ordered (m, q) with m_k = 1."""
    m_int = np.sort(_sigmoid(y[: k - 1])) if k > 1 else np.empty(0)
    q_int = np.sort(_sigmoid(y[k - 1 :]))
    m_int = _enforce_gaps(m_int, 0.0, 1.0)
    q_int = _enforce_gaps(q_int, 0.0, 1.0)
    m = (0.0,) + tuple(m_int) + (1.0,)
    q = (0.0,) + tuple(q_int) + (1.0,)
    return RSBParams(k=k, m=m, q=q)


def _vector_gradient(grad: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """dB/dy from dB/d(m_1..m_{k-1}, q_1..q_k) through ``_vector_to_params``.

    sigmoid(y_i) lands at its sorted position in its block, so y_i takes
    that entry's derivative times sigmoid'(y_i); the minimal gaps are
    treated as inactive.
    """
    out = np.empty_like(y)
    for block in (slice(0, k - 1), slice(k - 1, None)):
        sig = _sigmoid(y[block])
        order = np.argsort(sig)
        out[block][order] = grad[block] * (sig * (1.0 - sig))[order]
    return out


def _search_nodes(nodes: int, k: int) -> int:
    """The largest count up to ``nodes`` whose full grid fits ``SEARCH_GRID_BUDGET``."""
    while nodes ** (k + 1) > SEARCH_GRID_BUDGET:
        nodes -= 1
    return nodes


def _enforce_gaps(vals: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Nudge a sorted vector into the open interval with minimal gaps."""
    gap = 1e-9
    out = np.array(vals, dtype=float)
    for i in range(len(out)):
        floor = lo + gap if i == 0 else out[i - 1] + gap
        out[i] = max(out[i], floor)
    ceil = hi - gap
    for i in range(len(out) - 1, -1, -1):
        out[i] = min(out[i], ceil)
        ceil = out[i] - gap
    return out


def _restart_points(mix, h, k, quad):
    """Five deterministic starts, including the (k-1)-step optimum embedded."""
    starts = []
    spread_q = [(i + 1) / (k + 1) for i in range(k)]
    spread_m = [(j + 1) / k for j in range(k - 1)]
    starts.append((spread_m, spread_q))
    starts.append(([0.3 * (j + 1) / k for j in range(k - 1)], [0.04 * (i + 1) for i in range(k)]))
    starts.append(
        ([0.5 + 0.4 * (j + 1) / k for j in range(k - 1)], [0.5 + 0.45 * (i + 1) / k for i in range(k)])
    )
    starts.append(
        ([0.2 + 0.6 * (j + 1) / k for j in range(k - 1)], [0.08 + 0.75 * i / max(k - 1, 1) for i in range(k)])
    )
    if k > 1:
        sub = optimize_bound(mix, h, k - 1, quad)
        q_sub = list(sub.params.q_interior)
        q_emb = q_sub + [min(q_sub[-1] + 1e-4, 1.0 - 1e-6)]
        m_emb = [0.5 * (j + 1) / k for j in range(k - 1)]
        starts.append((m_emb, q_emb))
    else:
        starts.append(([], [0.5]))
    return starts


def optimize_bound(
    mix: MixtureFunction,
    h: float,
    k: int,
    quad: QuadratureSpec,
) -> BoundOptimum:
    """Minimize the bound over strictly ordered (m, q) at fixed k.

    ``lbfgs.minimize`` on the analytic gradient (``bound_and_gradient``)
    in a sorted-logistic reparameterization (m_k pinned at 1), restarted
    from five deterministic initial points.  Each restart stops when
    max |dB/dy| <= 1e-11 or the relative decrease of B falls to 1e-13
    (see ``lbfgs`` for how a line search that finds no step ends, and for
    the kink where two ordered entries meet); ``converged`` requires every
    restart to stop by these rules and phi(0)'s convergence check, if
    ``quad`` asks for one, to pass.  The search runs on the tensor
    grid at ``quad``'s node count, or at the largest count whose grid
    fits ``SEARCH_GRID_BUDGET`` when that one does not.  phi(0) and the
    bound at the optimum, and the convergence check when ``quad`` asks
    for one, come from ``phi0`` at ``quad``'s count, once, after the
    search.  ``stationarity`` is max |dB| over (m_1..m_{k-1}, q_1..q_k)
    at the optimum, on the search grid.  Results are reproducible for a
    fixed configuration.
    """
    if not 1 <= k <= 3:
        raise ValueError(f"optimization supports k in 1..3, got k = {k}")
    search = QuadratureSpec(
        nodes_per_level=_search_nodes(quad.nodes_per_level, k), convergence_check=False
    )
    evals = 0

    def objective(y):
        nonlocal evals
        evals += 1
        value, grad = bound_and_gradient(_vector_to_params(y, k), mix, h, search)
        return value, _vector_gradient(grad, y, k)

    best_y = None
    best_val = math.inf
    restart_values = []
    all_success = True
    for m_start, q_start in _restart_points(mix, h, k, search):
        y0 = np.concatenate(
            [
                _logit(np.asarray(m_start)) if m_start else np.empty(0),
                _logit(np.asarray(q_start)),
            ]
        )
        # gtol acts on dB/dy = dB/dq q (1 - q): at an optimum on the q -> 0
        # edge (high temperature) 1e-11 is what takes max |dB| below 1e-6.
        res = lbfgs.minimize(objective, y0, gtol=1e-11, ftol=1e-13)
        all_success = all_success and bool(res.success)
        restart_values.append(float(res.fun))
        if res.fun < best_val:
            best_val = float(res.fun)
            best_y = np.array(res.x)
    params = _vector_to_params(best_y, k)
    final = phi0(params, mix, h, quad)
    _, grad = bound_and_gradient(params, mix, h, search)
    return BoundOptimum(
        params=params,
        value=bound_from_phi0(params, mix, final.phi0),
        phi0=final.phi0,
        converged=final.converged and all_success,
        evaluations=evals,
        restart_values=restart_values,
        stationarity=float(np.abs(grad).max()),
    )


# ---------------------------------------------------------------------------
# tensor quadrature over per-level scalar marks (cascade reference side)
# ---------------------------------------------------------------------------


def _axis_shape(ndim: int, axis: int, n: int):
    shape = [1] * ndim
    shape[axis] = n
    return shape


def _column(scale, z, ndim: int, axis: int):
    """The Gaussian column scale * z laid along one axis of an ndim grid."""
    return (scale * z).reshape(_axis_shape(ndim, axis, z.size))


def _weighted_sum(arr, axes, weights, ndim):
    out = arr
    for ax in axes:
        out = (out * weights.reshape(_axis_shape(ndim, ax, weights.size))).sum(
            axis=ax, keepdims=True
        )
    return out


def _tilted_mean(integrand, weights, w, ndim: int, axes) -> float:
    """E[integrand * prod weights] over the grid axes ``axes``.

    The weight arrays multiply in the order given, then the axes are
    contracted in order; every array has length 1 on the other axes.
    """
    out = functools.reduce(np.multiply, weights, integrand)
    return float(_weighted_sum(out, axes, w, ndim).squeeze())


def smoothing_step(arr, m, axes, weights, ndim):
    """S_{m,v} on a tensor grid: (1/m) log sum w exp(m arr) over ``axes``.

    The Gaussian column of variance v lies along ``axes``, so the
    Gauss-Hermite sum over them is the expectation over z.  Dims are kept.
    """
    if not 0.0 < m <= 1.0:
        raise ValueError(f"smoothing exponent m = {m} outside (0, 1]")
    a = m * arr
    amax = a.max(axis=tuple(axes), keepdims=True)
    a -= amax
    s = _weighted_sum(np.exp(a, out=a), axes, weights, ndim)
    return (amax + np.log(s)) / m


def _chain(x, m, level_axes, w, ndim):
    """The level chain [X_0, ..., X_k] from X_k = x, keeping dims.

    X_{l-1} = (1/m_l) log E_l exp(m_l X_l), where E_l contracts the
    axes ``level_axes[l]``; a level with no axes passes X_l through
    unchanged.  ``m[l]`` is the level-l exponent, l = 1..k.
    """
    xs = [x]
    for level in range(len(level_axes), 0, -1):
        axes = level_axes[level]
        if axes:
            xs.append(smoothing_step(xs[-1], m[level], axes, w, ndim))
        else:
            xs.append(xs[-1])
    return xs[::-1]


def _chain_weights(xs, m):
    """W_l = exp(m_l (X_l - X_{l-1})) for l = 1..k, entry l-1."""
    out = [xs[level] - xs[level - 1] for level in range(1, len(xs))]
    for level, d in enumerate(out, start=1):
        np.exp(np.multiply(d, m[level], out=d), out=d)
    return out


def _grid_nodes(n: int, ndim: int):
    """Gauss-Hermite nodes and weights for a tensor grid of ndim axes.

    A grid of more than ``TENSOR_BUDGET`` points is refused.
    """
    if n**ndim > TENSOR_BUDGET:
        raise ValueError(
            f"tensor grid {n}^{ndim} exceeds the budget, TENSOR_BUDGET = {TENSOR_BUDGET:.0e} points"
        )
    return gauss_hermite(n)


def _root_blocks(nodes: int, points: int):
    """Slices of the root axis, each a block of whole root nodes.

    ``points`` is the grid size of one root node; a block holds
    max(1, _ROOT_BLOCK // points) nodes, the last one fewer.
    """
    step = max(1, _ROOT_BLOCK // points)
    return [slice(start, start + step) for start in range(0, nodes, step)]


def _path_grid(x_fn: PathFunctional, tau, z, ndim: int, mark_axes):
    """One path on a tensor grid of ndim axes: (marks, X_k, level axes).

    The level-l mark lies on axis ``mark_axes[l-1]`` with standard
    deviation tau[l-1]; the level axes are the ones ``_chain`` contracts.
    X_k spans the path's own mark axes and has length 1 on every other
    axis, so the chain and its weights never leave the path's axes.
    """
    marks = [_column(tau[ell], z, ndim, axis) for ell, axis in enumerate(mark_axes)]
    shape = [z.size if axis in mark_axes else 1 for axis in range(ndim)]
    x = np.broadcast_to(np.asarray(x_fn(marks), dtype=float), shape)
    level_axes = {ell + 1: [axis] for ell, axis in enumerate(mark_axes)}
    return marks, x, level_axes


def mark_chain_root(
    x_fn: PathFunctional, rsb: RSBParams, tau, quad: QuadratureSpec
) -> float:
    """Root value X_0 of the recursion applied to a path functional.

    tau[l] is the standard deviation of the level-(l+1) node mark.  The
    functional is evaluated on a full tensor grid and contracted level by
    level with exponents m_k .. m_1, the independent reference for the
    cascade's log-partition identity.
    """
    k = rsb.k
    z, w = _grid_nodes(quad.nodes_per_level, k)
    _, x, level_axes = _path_grid(x_fn, tau, z, k, range(k))
    return float(_chain(x, rsb.m, level_axes, w, k)[0].squeeze())


def mark_chain_tilted(
    x_fn: PathFunctional,
    y_fn: PathFunctional,
    rsb: RSBParams,
    tau,
    quad: QuadratureSpec,
) -> float:
    """E prod_l W_l Y along one path, by full tensor contraction."""
    k = rsb.k
    z, w = _grid_nodes(quad.nodes_per_level, k)
    marks, x, level_axes = _path_grid(x_fn, tau, z, k, range(k))
    ws = _chain_weights(_chain(x, rsb.m, level_axes, w, k), rsb.m)
    return _tilted_mean(np.asarray(y_fn(marks), dtype=float), ws, w, k, range(k))


def mark_chain_restricted(
    x_fn: PathFunctional,
    y_pair: PairFunctional,
    rsb: RSBParams,
    tau,
    r: int,
    quad: QuadratureSpec,
) -> float:
    """The fixed-pair reference M_r for two paths splitting at level r.

    Returns E prod_{l<r} W_l prod_{l>=r} W_l^a W_l^b Y.  Both paths carry
    the same X and tau, so one path grid of n^k points serves both: its
    private levels r..k are contracted once against the weight alone
    (A_1) and once against the weight times y (A_y), and the two paths
    meet only on the shared levels 1..r-1, as E prod_{l<r} W_l A_y^2 for
    ``pair_product`` and E prod_{l<r} W_l 2 A_y A_1 for ``pair_sum``.
    """
    k = rsb.k
    if not 1 <= r <= k:
        raise ValueError(f"r = {r} outside 1..{k}")
    z, w = _grid_nodes(quad.nodes_per_level, k)
    marks, x, level_axes = _path_grid(x_fn, tau, z, k, range(k))
    ws = _chain_weights(_chain(x, rsb.m, level_axes, w, k), rsb.m)
    private = range(r - 1, k)
    tilt = functools.reduce(np.multiply, ws[r - 1 :])
    a_1 = _weighted_sum(tilt, private, w, k)
    a_y = _weighted_sum(tilt * np.asarray(y_pair.base(marks), float), private, w, k)
    return _tilted_mean(y_pair.mean_over_pair(a_y, a_1), ws[: r - 1], w, k, range(r - 1))


# ---------------------------------------------------------------------------
# tilted two-replica averages by quadrature
# ---------------------------------------------------------------------------


@dataclass
class MuQuadResult:
    """Both definitions of the tilted average and their agreement."""

    value: float
    value_v_form: float
    chain_max_diff: float


def mu_r_quadrature(
    N: int,
    k: int,
    r: int,
    mix: MixtureFunction,
    rsb: RSBParams,
    h: float,
    t: float,
    f: str,
    quad: QuadratureSpec,
) -> MuQuadResult:
    """mu_r(f) for the coupled replica pair, by tensor quadrature.

    Two Gaussian column sets share columns 0..r-1 and are independent at
    columns r..k; the disorder part of the Hamiltonian is enumerated
    exactly over its monomial-basis Gaussian coefficients.  Computes the
    product-of-W form, the V-chain form with halved exponents below r,
    and their pointwise agreement.

    Each copy's arrays live on that copy's axes.  The product form
    contracts each copy's private columns first and meets the other copy
    on the shared axes alone; the V-form chain is joint, as the second
    route must be, and visits the full grid in blocks of root nodes
    (``_root_blocks``), so the tensor budget still guards the full grid.
    """
    if not 1 <= N <= 2:
        raise ValueError("the coupled quadrature supports N in {1, 2}")
    if not 1 <= k <= 2 or k != rsb.k:
        raise ValueError("k must match the parameter sequences and be <= 2")
    if not 1 <= r <= k:
        raise ValueError(f"r = {r} outside 1..{k}")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    check_field_compatible(mix)
    v = np.maximum(rsb.variances(mix), 0.0)
    cols = [col for col in range(k + 1) if v[col] > 0.0]

    def key(col, site, copy):
        # columns 0..r-1 are shared between the copies
        return col, site, None if col < r else copy

    # One axis per active Gaussian: each field column once per copy that
    # owns it, then each monomial.  The sigma-independent (empty-set)
    # monomial shifts both copies' chains equally and cancels from every
    # W and Gibbs ratio, so it is dropped.
    z_axes = {}
    for col in cols:
        for copy in (0,) if col < r else (0, 1):
            for site in range(N):
                z_axes[key(col, site, copy)] = len(z_axes)
    masks, _, signs, scales = monomial_table(N, mix)
    start = int(0 in masks[:1])  # mask 0 sorts first
    signs, scales = signs[:, start:], scales[start:]
    ndim = len(z_axes) + len(scales)
    if ndim == 0:
        raise ValueError("degenerate configuration: no active randomness")
    z, w = _grid_nodes(quad.nodes_per_level, ndim)
    sigmas = spin_matrix(N)

    def exponent(s_idx, copy):
        # Terms with zero coefficient are skipped so the array keeps
        # singleton axes there (the contraction handles them by weight
        # normalization), which matters at the t = 0 and t = 1 endpoints.
        sigma = sigmas[s_idx]
        e = np.full((1,) * ndim, h * float(sigma.sum()))
        if t < 1.0:
            for site in range(N):
                field = 0.0
                for col in cols:
                    scale = math.sqrt(float(v[col]))
                    field = field + _column(scale, z, ndim, z_axes[key(col, site, copy)])
                e = e + math.sqrt(1.0 - t) * float(sigma[site]) * field
        if t > 0.0:
            for j, scale in enumerate(scales):
                e = e + (
                    math.sqrt(t)
                    * float(scale)
                    * float(signs[s_idx, j])
                    * _column(1.0, z, ndim, len(z_axes) + j)
                )
        return e

    exps = {copy: [exponent(s_idx, copy) for s_idx in range(len(sigmas))] for copy in (0, 1)}
    xk = {copy: functools.reduce(np.logaddexp, exps[copy]) for copy in (0, 1)}
    probs = {copy: [np.exp(e - xk[copy]) for e in exps[copy]] for copy in (0, 1)}
    copy_axes = {
        copy: {
            level: [z_axes[key(level, site, copy)] for site in range(N)] if level in cols else []
            for level in range(1, k + 1)
        }
        for copy in (0, 1)
    }
    ws = {
        copy: _chain_weights(_chain(xk[copy], rsb.m, copy_axes[copy], w, ndim), rsb.m)
        for copy in (0, 1)
    }
    values = [
        [replica_pair_value(f, s1, s2, mix, float(rsb.q[r])) for s2 in sigmas] for s1 in sigmas
    ]

    # The product form: each copy's Gibbs weights, tilted by its own W_r..W_k,
    # are contracted over its private columns; the copies meet only on the
    # shared axes (the columns below r and the monomials), where W_1..W_{r-1}
    # are one function of both.
    def private_means(copy):
        tilt = functools.reduce(np.multiply, ws[copy][r - 1 :])
        private = [axis for (_, _, owner), axis in z_axes.items() if owner == copy]
        return [_weighted_sum(tilt * p, private, w, ndim) for p in probs[copy]]

    shared = [axis for (_, _, owner), axis in z_axes.items() if owner is None]
    shared += range(len(z_axes), ndim)
    value = _tilted_mean(
        _pair_mean(values, [private_means(0), private_means(1)]), ws[0][: r - 1], w, ndim, shared
    )

    # The V-form: one chain of X^a_k + X^b_k with exponents halved below r,
    # on the joint grid.  No level contracts the root column, so the grid is
    # visited in blocks of root nodes of axis 0 (its first site); without a
    # root column in the fields, in one pass.
    halved = rsb.halved_below(r).m
    joint = {
        level: sorted(set(copy_axes[0][level]) | set(copy_axes[1][level]))
        for level in range(1, k + 1)
    }
    split = 0 in cols and t < 1.0
    blocks = _root_blocks(z.size, z.size ** (ndim - 1)) if split else [slice(None)]
    root_w = w if split else np.ones(1)
    rest = range(1 if split else 0, ndim)
    value_v_form = chain_max_diff = 0.0
    for block in blocks:
        vs = _chain_weights(_chain(xk[0][block] + xk[1][block], halved, joint, w, ndim), halved)
        for level, (vl, wa, wb) in enumerate(zip(vs, ws[0], ws[1]), start=1):
            factor = wa[block] * wb[block] if level >= r else wa[block]
            chain_max_diff = max(chain_max_diff, float(np.abs(vl - factor).max()))
        fbar = _pair_mean(values, [[p[block] for p in probs[copy]] for copy in (0, 1)])
        means = _weighted_sum(functools.reduce(np.multiply, vs, fbar), rest, w, ndim)
        # added node by node in root order: the same bits for any block size
        for weight, mean in zip(root_w[block], means.ravel()):
            value_v_form += float(weight) * float(mean)
    return MuQuadResult(
        value=value,
        value_v_form=value_v_form,
        chain_max_diff=chain_max_diff,
    )


def _pair_mean(values, probs) -> np.ndarray:
    """Sum of values[s1][s2] p1(s1) p2(s2), probs = (p1, p2), over s2 first.

    Each p is an array on its own copy's axes, so the sum spans the axes
    the two copies span together: the shared axes alone when each copy's
    private axes are already contracted, one block of root nodes of the
    joint grid in the V-form.
    """
    fbar = np.zeros(np.broadcast_shapes(probs[0][0].shape, probs[1][0].shape))
    for row, p1 in zip(values, probs[0]):
        fbar += p1 * sum(fv * p2 for fv, p2 in zip(row, probs[1]) if fv != 0.0)
    return fbar
