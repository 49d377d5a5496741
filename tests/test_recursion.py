"""Quadrature chain, the free-energy bound, and its optimization."""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cascadelab import recursion
from cascadelab.functionals import (
    REPLICA_FORMS,
    PairFunctional,
    PathFunctional,
    replica_pair_value,
)
from cascadelab.interpolation import build_coupled_system
from cascadelab.mixture import RSBParams, make_mixture, sk_mixture
from cascadelab.recursion import (
    SEARCH_GRID_BUDGET,
    QuadratureSpec,
    _chain,
    _chain_weights,
    _phi0_chain,
    bound_and_gradient,
    bound_from_phi0,
    gauss_hermite,
    guerra_bound,
    mu_r_quadrature,
    optimize_bound,
    phi0,
    smoothing_step,
)
from cascadelab.sk_model import monomial_signs, monomial_variances, spin_matrix, verify_bound
from cascadelab.stats import Estimate, Exact, identity_check

QUAD = QuadratureSpec(nodes_per_level=40)
QUAD24 = QuadratureSpec(nodes_per_level=24, convergence_check=False)

# Frozen closed forms (independent of the implementation):
#   log 2cosh(0.5) = 0.8132616875182229
LOG2COSH_HALF = math.log(2.0 * math.cosh(0.5))
#   one-level bound at q1 -> 0 for xi = beta^2 x^2 / 2, beta = 0.6:
#   log 2 + beta^2 / 4 = 0.7831471805599453
RS_BOUND_B06 = math.log(2.0) + 0.36 / 4.0


# S_{m,v} on one Gauss-Hermite axis: axis 0 carries x, and axis 1 the
# column sqrt(v) z that ``smoothing_step`` contracts.
X_GRID = np.linspace(-3.0, 3.0, 61)


def _smoothed(fn, m, v):
    z, w = gauss_hermite(40)
    arr = fn(X_GRID[:, None] + math.sqrt(v) * z[None, :])
    return smoothing_step(arr, m, [1], w, 2)[:, 0]


def test_smoothing_zero_variance_is_identity():
    # a zero-variance column: X is constant along the contracted axis
    for m in (0.5, 1.0):
        assert _smoothed(np.tanh, m, 0.0) == pytest.approx(np.tanh(X_GRID), abs=1e-15)


def test_smoothing_linear_closed_form():
    # g(x) = x: (1/m) log E exp(m (x + z)) = x + m v / 2
    for m in (0.25, 0.5, 1.0):
        out = _smoothed(lambda x: x, m, 0.49)
        assert out == pytest.approx(X_GRID + m * 0.49 / 2.0, abs=1e-13)


def test_smoothing_logcosh_closed_form():
    # m = 1: log E 2cosh(x + z) = log 2cosh(x) + v/2; check at x = 0
    v = 0.36
    out = _smoothed(lambda x: np.log(2.0 * np.cosh(x)), 1.0, v)
    mid = len(X_GRID) // 2
    assert X_GRID[mid] == 0.0
    assert out[mid] == pytest.approx(math.log(2.0) + v / 2.0, abs=1e-14)


def test_smoothing_m_zero_is_plain_mean():
    # the m -> 0 limit: E (x + z)^2 = x^2 + v, off by about (m/2) Var g
    # (5e-9 here) plus the rounding of a log near 1 divided by m (2e-7)
    out = _smoothed(lambda x: x**2, 1e-9, 0.25)
    assert out == pytest.approx(X_GRID**2 + 0.25, abs=1e-6)


def test_smoothing_monotone_in_m():
    lo, mid, hi = (_smoothed(lambda x: np.log(2.0 * np.cosh(x)), m, 0.3) for m in (0.1, 0.5, 1.0))
    assert np.all(mid - lo >= -1e-14)
    assert np.all(hi - mid >= -1e-14)
    assert np.all(hi - lo > 0.0)


def test_smoothing_rejects_bad_m():
    for m in (1.2, 0.0, -0.1):
        with pytest.raises(ValueError, match="outside"):
            _smoothed(np.tanh, m, 0.1)


def test_phi0_degenerate_is_log2cosh():
    mix = make_mixture([(2, 0.0)])
    rsb = RSBParams.from_interior((0.5,), (0.5,))
    res = phi0(rsb, mix, 0.5, QUAD)
    assert res.phi0 == pytest.approx(LOG2COSH_HALF, abs=1e-9)
    assert res.phi0 == pytest.approx(0.8132616875, abs=1e-9)


def test_phi0_rs_closed_form():
    # k=1, m1=1, q1 tiny: phi(0) = log 2 + beta^2 / 2 at h = 0
    beta = 0.6
    rsb = RSBParams(k=1, m=(0.0, 1.0), q=(0.0, 1e-9, 1.0))
    res = phi0(rsb, sk_mixture(beta), 0.0, QUAD)
    assert res.phi0 == pytest.approx(math.log(2.0) + beta**2 / 2.0, abs=1e-7)


def test_phi0_quadrature_converged():
    mix = make_mixture([(2, 1.0), (4, 0.5)])
    rsb = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
    res = phi0(rsb, mix, 0.3, QUAD)
    assert res.converged
    assert res.doubling_diff < 1e-7


def test_guerra_bound_rs_closed_form():
    rsb = RSBParams(k=1, m=(0.0, 1.0), q=(0.0, 1e-9, 1.0))
    value = guerra_bound(rsb, sk_mixture(0.6), 0.0, QUAD)
    assert value == pytest.approx(RS_BOUND_B06, abs=1e-6)
    assert value == pytest.approx(0.7831471806, abs=1e-6)


def test_guerra_bound_degenerate_mixture():
    rsb = RSBParams.from_interior((1.0,), (0.5,))
    value = guerra_bound(rsb, make_mixture([(2, 0.0)]), 0.3, QUAD)
    assert value == pytest.approx(math.log(2.0 * math.cosh(0.3)), abs=1e-9)


def test_guerra_bound_requires_endpoint():
    rsb = RSBParams.from_interior((0.5,), (0.5,))
    with pytest.raises(ValueError, match="m_k = 1"):
        guerra_bound(rsb, sk_mixture(0.5), 0.0, QUAD)


def test_optimize_k1_high_temperature():
    # grid-scan oracle first: the k=1 bound over q1 at beta = 0.4
    mix = sk_mixture(0.4)
    target = math.log(2.0) + 0.16 / 4.0
    scan = [
        guerra_bound(RSBParams(k=1, m=(0.0, 1.0), q=(0.0, q1, 1.0)), mix, 0.0, QUAD24)
        for q1 in np.linspace(1e-6, 0.8, 60)
    ]
    assert min(scan) == pytest.approx(target, abs=1e-3)
    assert int(np.argmin(scan)) == 0  # minimum sits at the q1 -> 0 edge
    opt = optimize_bound(mix, 0.0, 1, QUAD24)
    assert opt.converged
    assert opt.value == pytest.approx(target, abs=1e-3)
    assert opt.value <= min(scan) + 1e-6


def test_optimize_k2_no_worse_than_k1():
    mix = sk_mixture(0.4)
    k1 = optimize_bound(mix, 0.0, 1, QUAD24)
    k2 = optimize_bound(mix, 0.0, 2, QUAD24)
    assert k2.value <= k1.value + 1e-6


def test_optimize_low_temperature_k2_improves():
    mix = sk_mixture(1.5)
    k1 = optimize_bound(mix, 0.0, 1, QUAD24)
    k2 = optimize_bound(mix, 0.0, 2, QUAD24)
    assert k2.value < k1.value - 1e-4


def test_optimize_rejects_large_k():
    for k in (0, 4):
        with pytest.raises(ValueError):
            optimize_bound(sk_mixture(0.5), 0.0, k, QUAD24)


def test_mu_normalization_and_chain_agreement():
    mix = sk_mixture(0.5)
    rsb = RSBParams.from_interior((0.3, 0.6), (0.3, 0.6))
    quad = QuadratureSpec(nodes_per_level=14, convergence_check=False)
    for r in (1, 2):
        res = mu_r_quadrature(1, 2, r, mix, rsb, 0.3, 0.5, "one", quad)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert res.value_v_form == pytest.approx(1.0, abs=1e-8)
        assert res.chain_max_diff <= 1e-8


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("f", ["one", "overlap", "delta_overlap", "site_product"])
def test_mu_two_sites_forms_agree(t, f):
    # N = 2, k = 1, r = 1: 7 axes (2 shared columns, 2 x 2 private ones,
    # one monomial); t = 1 drops the field columns, t = 0 the monomial.
    rsb = RSBParams.from_interior((0.4,), (0.5,))
    quad = QuadratureSpec(nodes_per_level=8, convergence_check=False)
    res = mu_r_quadrature(2, 1, 1, sk_mixture(0.6), rsb, 0.3, t, f, quad)
    assert abs(res.value - res.value_v_form) <= 1e-12
    assert res.chain_max_diff <= 1e-8
    if f == "one":
        assert abs(res.value - 1.0) <= 1e-12


def test_mu_budget_guard():
    mix = sk_mixture(0.5)
    rsb = RSBParams.from_interior((0.3, 0.6), (0.3, 0.6))
    with pytest.raises(ValueError, match="budget"):
        mu_r_quadrature(2, 2, 1, mix, rsb, 0.3, 0.5, "one", QUAD)


def test_mu_site_product_matches_coupled_mc(coupled_joint):
    # Monte Carlo oracle: the same restricted Gibbs average built from
    # cascade weights and sampled columns, N=1, k=1, t=0.  m1 = 0.4 keeps
    # the leaf truncation loss tiny; what remains is budgeted explicitly
    # (conditional means are bounded by 1, so the bias is at most 2 eps).
    mix = sk_mixture(0.7)
    rsb = RSBParams.from_interior((0.4,), (0.5,))
    h, b, reps = 0.3, 200, 300
    spins = spin_matrix(1)[:, 0]
    vals = np.empty(reps)
    losses = np.empty(reps)
    for rep in range(reps):
        [system] = build_coupled_system(1, 0.0, [1], mix, rsb, b, h, (71, rep))
        gamma = coupled_joint(system).sum(axis=2)
        vals[rep] = float(np.einsum("ab,a,b->", gamma, spins, spins))
        losses[rep] = float(system.cascade.cumulative_losses()[-1])
    mc = Estimate.from_values(vals)
    quad = QuadratureSpec(nodes_per_level=20, convergence_check=False)
    ref = mu_r_quadrature(1, 1, 1, mix, rsb, h, 0.0, "site_product", quad)
    rec = identity_check(
        "mu_site_product", mc, Exact(ref.value), allowance=2.0 * losses.mean()
    )
    assert rec.passed, (mc.mean, mc.std_error, ref.value)


def test_gauss_hermite_cached_and_read_only():
    z, w = gauss_hermite(24)
    t, v = np.polynomial.hermite.hermgauss(24)
    assert np.array_equal(z, t * math.sqrt(2.0)) and np.array_equal(w, v / math.sqrt(math.pi))
    assert gauss_hermite(24)[0] is z
    with pytest.raises(ValueError):
        z[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


# The oracles are the inline loops that ``_chain`` and ``_chain_weights``
# replaced: the mark-chain loop, which contracts every level, and the
# per-copy loop of ``mu_r_quadrature``, which passes a level with no axes
# through unchanged.


def _oracle_mark_chain(x, m, level_axes, w, ndim):
    k = len(level_axes)
    xs = {k: x}
    for level in range(k, 0, -1):
        xs[level - 1] = smoothing_step(xs[level], m[level], level_axes[level], w, ndim)
    ws = [np.exp(m[level] * (xs[level] - xs[level - 1])) for level in range(1, k + 1)]
    return [xs[level] for level in range(k + 1)], ws


def _oracle_copy_chain(x, m, level_axes, w, ndim):
    k = len(level_axes)
    chain = {k: x}
    for level in range(k, 0, -1):
        if level_axes[level]:
            chain[level - 1] = smoothing_step(
                chain[level], m[level], level_axes[level], w, ndim
            )
        else:
            chain[level - 1] = chain[level]
    ws = [np.exp(m[level] * (chain[level] - chain[level - 1])) for level in range(1, k + 1)]
    return [chain[level] for level in range(k + 1)], ws


def test_chain_matches_inline_loops():
    _, w = gauss_hermite(6)
    x = np.random.default_rng(5).standard_normal((6, 6, 6))
    m = (0.0, 0.35, 0.8)
    halved = {1: 0.175, 2: 0.8}
    cases = [
        (_oracle_mark_chain, m, {1: [0], 2: [1]}),
        (_oracle_copy_chain, m, {1: [0], 2: [1, 2]}),
        (_oracle_copy_chain, halved, {1: [], 2: [0, 2]}),
        (_oracle_copy_chain, m, {1: [2], 2: []}),
    ]
    for oracle, exponents, level_axes in cases:
        xs = _chain(x, exponents, level_axes, w, 3)
        want_xs, want_ws = oracle(x, exponents, level_axes, w, 3)
        assert len(xs) == 3
        for got, want in zip(xs, want_xs):
            assert np.array_equal(got, want)
        ws = _chain_weights(xs, exponents)
        assert len(ws) == 2
        for got, want in zip(ws, want_ws):
            assert np.array_equal(got, want)


# Each path's chain lives on its own mark axes.  The oracle is the path
# grid that spread X_k over the full tensor grid before every contraction.


def _full_path_grid(x_fn, tau, z, ndim, mark_axes):
    marks = [recursion._column(tau[ell], z, ndim, axis) for ell, axis in enumerate(mark_axes)]
    x = np.broadcast_to(np.asarray(x_fn(marks), dtype=float), (z.size,) * ndim).copy()
    level_axes = {ell + 1: [axis] for ell, axis in enumerate(mark_axes)}
    return marks, x, level_axes


PATH_X = {
    "logcosh_sum": PathFunctional("logcosh_sum", scale=1.2),
    "linear": PathFunctional("linear"),
    "zero": PathFunctional("constant", value=0.0),
}
PATH_BASES = (PathFunctional("constant", value=1.5), PathFunctional("linear"))


def _mark_chain_values(x_fn, k, nodes):
    rsb = RSBParams.from_interior((0.4, 0.8)[:k], (0.3, 0.6)[:k])
    tau = (0.7, 0.5)[:k]
    quad = QuadratureSpec(nodes_per_level=nodes, convergence_check=False)
    out = [recursion.mark_chain_root(x_fn, rsb, tau, quad)]
    for base in PATH_BASES:
        out.append(recursion.mark_chain_tilted(x_fn, base, rsb, tau, quad))
        for form in ("pair_product", "pair_sum"):
            for r in range(1, k + 1):
                y_pair = PairFunctional(form, base)
                out.append(recursion.mark_chain_restricted(x_fn, y_pair, rsb, tau, r, quad))
    return out


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("x_name", sorted(PATH_X))
def test_mark_chains_match_the_full_grid(k, x_name, monkeypatch):
    for nodes in (8, 12):
        got = _mark_chain_values(PATH_X[x_name], k, nodes)
        with monkeypatch.context() as patch:
            patch.setattr(recursion, "_path_grid", _full_path_grid)
            want = _mark_chain_values(PATH_X[x_name], k, nodes)
        for g, v in zip(got, want):
            assert abs(g - v) <= 1e-14 * max(1.0, abs(v)), (nodes, g, v)


# Both paths of a restricted chain carry the same X and tau, so they share
# one path grid on the k mark axes.
@pytest.mark.parametrize("r, shapes", [(1, [(10, 10)]), (2, [(10, 10)])])
def test_restricted_paths_keep_to_their_own_axes(r, shapes, monkeypatch):
    seen = []
    path_grid = recursion._path_grid

    def recording(*args):
        out = path_grid(*args)
        seen.append(out[1].shape)
        return out

    monkeypatch.setattr(recursion, "_path_grid", recording)
    rsb = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
    quad = QuadratureSpec(nodes_per_level=10, convergence_check=False)
    y_pair = PairFunctional("pair_product", PathFunctional("linear"))
    recursion.mark_chain_restricted(PATH_X["logcosh_sum"], y_pair, rsb, (0.7, 0.5), r, quad)
    assert seen == shapes


@pytest.mark.parametrize("f", REPLICA_FORMS)
@pytest.mark.parametrize("N, k, r", [(1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 1, 1)])
def test_pair_mean_matches_the_double_loop(f, N, k, r, monkeypatch):
    # Every Gibbs average of f over both copies (the product form's once,
    # the V-form's once per block of root nodes), summed over copy 2 first,
    # against the double loop that adds f p1 p2 pair by pair.  At N = 1 the
    # 8-node V-form grid is one block; at N = 2 one root node is 8^6 points,
    # a block each.
    seen = []
    pair_mean = recursion._pair_mean

    def recording(values, probs):
        out = pair_mean(values, probs)
        seen.append((values, probs, out))
        return out

    monkeypatch.setattr(recursion, "_pair_mean", recording)
    rsb = RSBParams.from_interior((0.4, 0.8)[:k], (0.3, 0.6)[:k])
    quad = QuadratureSpec(nodes_per_level=8, convergence_check=False)
    mu_r_quadrature(N, k, r, sk_mixture(0.6), rsb, 0.3, 0.5, f, quad)
    assert len(seen) == 1 + (1 if N == 1 else quad.nodes_per_level)
    for values, (p1, p2), fbar in seen:
        want = 0.0
        for row, a in zip(values, p1):
            for fv, b in zip(row, p2):
                if fv != 0.0:
                    want = want + fv * a * b
        assert fbar.shape == np.shape(want)
        assert np.abs(fbar - want).max() <= 1e-15


# The oracles of the pair quadrature are the full-grid forms that the
# per-copy contractions replaced: both copies laid out on one grid of every
# axis of either, multiplied there, and averaged over every axis at once.


def _oracle_pair_weights(ws_a, ws_b, r):
    # W^a_l at every level, W^b_l from level r on
    out = []
    for level, (wa, wb) in enumerate(zip(ws_a, ws_b), start=1):
        out.append(wa)
        if level >= r:
            out.append(wb)
    return out


def _full_grid_mean(integrand, weights, w, ndim):
    return recursion._tilted_mean(integrand, weights, w, ndim, range(ndim))


def _oracle_restricted(x_fn, y_pair, rsb, tau, r, quad):
    # shared levels 1..r-1, then path a's levels r..k, then path b's
    k = rsb.k
    ndim = (r - 1) + 2 * (k - r + 1)
    z, w = gauss_hermite(quad.nodes_per_level)
    paths = []
    for copy in (0, 1):
        base = (r - 1) + copy * (k - r + 1)
        axes = [level - 1 if level < r else base + level - r for level in range(1, k + 1)]
        marks, x, level_axes = recursion._path_grid(x_fn, tau, z, ndim, axes)
        ws = _chain_weights(_chain(x, rsb.m, level_axes, w, ndim), rsb.m)
        paths.append((np.asarray(y_pair.base(marks), float), ws))
    (ya, ws_a), (yb, ws_b) = paths
    integrand = ya * yb if y_pair.form == "pair_product" else ya + yb
    return _full_grid_mean(integrand, _oracle_pair_weights(ws_a, ws_b, r), w, ndim)


def _oracle_mu(N, k, r, mix, rsb, h, t, f, nodes):
    v = np.maximum(rsb.variances(mix), 0.0)
    cols = [col for col in range(k + 1) if v[col] > 0.0]

    def key(col, site, copy):
        return col, site, None if col < r else copy

    z_axes = {}
    for col in cols:
        for copy in (0,) if col < r else (0, 1):
            for site in range(N):
                z_axes[key(col, site, copy)] = len(z_axes)
    variances = monomial_variances(N, mix)
    masks = sorted(mask for mask in variances if mask != 0)
    ndim = len(z_axes) + len(masks)
    z, w = gauss_hermite(nodes)
    sigmas = spin_matrix(N)
    signs = monomial_signs(N, masks)

    def exponent(s_idx, copy):
        sigma = sigmas[s_idx]
        e = np.full((1,) * ndim, h * float(sigma.sum()))
        if t < 1.0:
            for site in range(N):
                field = 0.0
                for col in cols:
                    column = recursion._column(
                        math.sqrt(float(v[col])), z, ndim, z_axes[key(col, site, copy)]
                    )
                    field = field + column
                e = e + math.sqrt(1.0 - t) * float(sigma[site]) * field
        if t > 0.0:
            for j, mask in enumerate(masks):
                column = recursion._column(1.0, z, ndim, len(z_axes) + j)
                e = e + math.sqrt(t) * math.sqrt(variances[mask]) * float(signs[s_idx, j]) * column
        return e

    exps = [[exponent(s_idx, copy) for s_idx in range(len(sigmas))] for copy in (0, 1)]
    xk = [functools.reduce(np.logaddexp, exps[copy]) for copy in (0, 1)]
    copy_axes = [
        {
            level: [z_axes[key(level, site, copy)] for site in range(N)] if level in cols else []
            for level in range(1, k + 1)
        }
        for copy in (0, 1)
    ]
    ws = [_chain_weights(_chain(xk[c], rsb.m, copy_axes[c], w, ndim), rsb.m) for c in (0, 1)]
    halved = rsb.halved_below(r).m
    joint = {
        level: sorted(set(copy_axes[0][level]) | set(copy_axes[1][level]))
        for level in range(1, k + 1)
    }
    vs = _chain_weights(_chain(xk[0] + xk[1], halved, joint, w, ndim), halved)
    chain_max_diff = max(
        float(np.abs(vl - (wa * wb if level >= r else wa)).max())
        for level, (vl, wa, wb) in enumerate(zip(vs, ws[0], ws[1]), start=1)
    )
    values = [[replica_pair_value(f, s1, s2, mix, float(rsb.q[r])) for s2 in sigmas] for s1 in sigmas]
    fbar = recursion._pair_mean(values, [[np.exp(e - xk[c]) for e in exps[c]] for c in (0, 1)])
    return (
        _full_grid_mean(fbar, _oracle_pair_weights(ws[0], ws[1], r), w, ndim),
        _full_grid_mean(fbar, vs, w, ndim),
        chain_max_diff,
    )


def _assert_near_oracle(got, want, label):
    # rounding of a different contraction order; values the oracle puts
    # within 1e-12 of zero take an absolute bound
    bound = 1e-15 if abs(want) < 1e-12 else 1e-14 * max(1.0, abs(want))
    assert abs(got - want) <= bound, (label, got, want)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("form", ["pair_product", "pair_sum"])
def test_restricted_chain_matches_the_full_pair_grid(form, k):
    rsb = RSBParams.from_interior((0.4, 0.8)[:k], (0.3, 0.6)[:k])
    tau = (0.7, 0.5)[:k]
    for nodes in (8, 12):
        quad = QuadratureSpec(nodes_per_level=nodes, convergence_check=False)
        for base in PATH_BASES:
            y_pair = PairFunctional(form, base)
            for r in range(1, k + 1):
                got = recursion.mark_chain_restricted(PATH_X["logcosh_sum"], y_pair, rsb, tau, r, quad)
                want = _oracle_restricted(PATH_X["logcosh_sum"], y_pair, rsb, tau, r, quad)
                _assert_near_oracle(got, want, (nodes, base.form, r))


MU_ORACLE_CASES = [(2, 1, 1, t, f) for t in (0.0, 0.5, 1.0) for f in REPLICA_FORMS] + [
    (1, 2, r, 0.5, f) for r in (1, 2) for f in REPLICA_FORMS
]


@pytest.mark.parametrize("N, k, r, t, f", MU_ORACLE_CASES)
def test_mu_matches_the_full_pair_grid(N, k, r, t, f):
    # the cases of test_mu_two_sites_forms_agree, and N = 1, k = 2 at r = 1, 2
    rsb = RSBParams.from_interior((0.4, 0.8)[:k], (0.5, 0.7)[:k])
    mix = sk_mixture(0.6)
    nodes = 8
    res = mu_r_quadrature(N, k, r, mix, rsb, 0.3, t, f, QuadratureSpec(nodes, False))
    want = _oracle_mu(N, k, r, mix, rsb, 0.3, t, f, nodes)
    got = (res.value, res.value_v_form, res.chain_max_diff)
    for label, g, v in zip(("value", "value_v_form", "chain_max_diff"), got, want):
        assert isinstance(g, float)
        _assert_near_oracle(g, v, label)


def _traced_peak_mib(call) -> float:
    call()  # fills the node cache outside the trace
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_pair_quadrature_never_forms_the_full_pair_grid():
    # The full grid is 40^4 points (39.6 MiB traced) for M_1 at k = 2, and
    # 14^5 (12.8 MiB) for mu_1 at N = 1, k = 2.
    rsb = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
    y_pair = PairFunctional("pair_product", PathFunctional("linear"))
    quad40 = QuadratureSpec(nodes_per_level=40, convergence_check=False)
    restricted = _traced_peak_mib(
        lambda: recursion.mark_chain_restricted(PATH_X["logcosh_sum"], y_pair, rsb, (0.7, 0.5), 1, quad40)
    )
    assert restricted <= 1.0
    rsb_e = RSBParams.from_interior((0.3, 0.6), (0.3, 0.6))
    quad14 = QuadratureSpec(nodes_per_level=14, convergence_check=False)
    mu = _traced_peak_mib(
        lambda: mu_r_quadrature(1, 2, 1, sk_mixture(0.5), rsb_e, 0.3, 0.5, "delta_overlap", quad14)
    )
    assert mu <= 4.0


# phi(0) has one route: the level chain on the (k+1)-axis tensor grid,
# visited in blocks of root nodes.

ROUTE_MIXTURES = {
    "sk_beta1.5": sk_mixture(1.5),
    "p2_p4": make_mixture([(2, 1.0), (4, 0.5)]),
}
ROUTE_LADDERS = {
    1: ((1.0,), (0.5,)),
    2: ((0.4, 1.0), (0.3, 0.6)),
    3: ((0.2, 0.6, 1.0), (0.2, 0.4, 0.7)),
}


class _LadderXiPrime:
    """A stand-in mixture that gives xi' at the ladder points directly.

    A flat stretch of xi' gives a level of zero variance, which no
    convex mixture does at strictly increasing q.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def xi_prime(self, q):
        assert len(q) == len(self.values)
        return self.values


def _root_block_sizes(nodes, k):
    """_ROOT_BLOCK values around one root node's grid, nodes**k points.

    One node per block at points - 1, points and points + 1; then two
    and five nodes, where 12 nodes leave a short last block.
    """
    points = nodes**k
    return (points - 1, points, points + 1, 2 * points, 5 * points)


def _blocked(monkeypatch, fn, nodes, k):
    """fn() in one pass and under each of ``_root_block_sizes``."""
    monkeypatch.setattr(recursion, "_ROOT_BLOCK", nodes ** (k + 1))
    assert len(recursion._root_blocks(nodes, nodes**k)) == 1
    one_pass = fn()
    blocked = []
    for size in _root_block_sizes(nodes, k):
        monkeypatch.setattr(recursion, "_ROOT_BLOCK", size)
        blocked.append(fn())
    assert len(recursion._root_blocks(nodes, nodes**k)) == 3
    return one_pass, blocked


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("h", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(ROUTE_MIXTURES))
def test_phi0_blocks_match_one_pass(k, h, name, monkeypatch):
    rsb = RSBParams.from_interior(*ROUTE_LADDERS[k])
    mix = ROUTE_MIXTURES[name]
    quad = QuadratureSpec(nodes_per_level=12, convergence_check=False)

    def run():
        return phi0(rsb, mix, h, quad).phi0, *bound_and_gradient(rsb, mix, h, quad)

    one_pass, blocked = _blocked(monkeypatch, run, 12, k)
    for phi, value, grad in blocked:
        assert phi == one_pass[0]
        assert value == one_pass[1]
        # the gradient's grid sums add per block: equal to rounding
        assert np.abs(grad - one_pass[2]).max() <= 1e-14


@pytest.mark.parametrize(
    "m, q, xi_prime",
    [
        ((1.0,), (0.5,), (0.0, 0.0, 1.2)),  # v_0 = 0
        ((0.4, 1.0), (0.3, 0.6), (0.0, 0.6, 0.6, 1.5)),  # v_1 = 0
        ((0.4, 1.0), (0.3, 0.6), (0.0, 0.0, 0.9, 0.9)),  # v_0 = v_2 = 0
        ((0.2, 0.6, 1.0), (0.2, 0.4, 0.7), (0.0, 0.5, 0.5, 1.1, 1.6)),  # v_1 = 0
    ],
)
@pytest.mark.parametrize("h", [0.0, 0.3])
def test_phi0_blocks_match_one_pass_with_zero_variance_levels(m, q, xi_prime, h, monkeypatch):
    rsb = RSBParams.from_interior(m, q)
    mix = _LadderXiPrime(xi_prime)
    assert min(rsb.variances(mix)) == 0.0
    quad = QuadratureSpec(nodes_per_level=12, convergence_check=False)
    one_pass, blocked = _blocked(monkeypatch, lambda: phi0(rsb, mix, h, quad).phi0, 12, rsb.k)
    assert blocked == [one_pass] * len(blocked)


def test_phi0_holds_one_block_of_root_nodes():
    # k = 3 at 40 nodes: one root node's grid is 64,000 points (0.5 MB an
    # array), one node a block; one array on the full 40^4 grid is 20 MB.
    rsb = RSBParams.from_interior(*ROUTE_LADDERS[3])
    quad = QuadratureSpec(nodes_per_level=40, convergence_check=False)
    assert 40**3 > recursion._ROOT_BLOCK // 2
    assert _traced_peak_mib(lambda: phi0(rsb, sk_mixture(1.5), 0.3, quad)) <= 4.0


def test_phi0_tensor_zero_variance_is_log2cosh():
    rsb = RSBParams.from_interior((0.4, 1.0), (0.3, 0.6))
    value = phi0(rsb, make_mixture([(2, 0.0)]), 0.5, QUAD24).phi0
    assert value == pytest.approx(LOG2COSH_HALF, abs=1e-14)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("h", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(ROUTE_MIXTURES))
def test_phi0_tensor_settles_by_60_nodes(k, h, name):
    # q_1 = 0.3 keeps sqrt(v_0) below 1 for both mixtures; at q_1 = 0.5
    # (sqrt(v_0) = 1.06) the k = 1 difference is still 1e-10 at 60 nodes
    # and 3e-12 at 80.
    m, q = ((1.0,), (0.3,)) if k == 1 else ROUTE_LADDERS[2]
    rsb = RSBParams.from_interior(m, q)
    mix = ROUTE_MIXTURES[name]
    res = phi0(rsb, mix, h, QuadratureSpec(nodes_per_level=60))
    assert res.doubling_diff < 1e-12


def _count_chains(monkeypatch):
    """The node counts of every phi(0) level chain run, in order."""
    calls = []

    def counted(rsb, s, h, nodes, read=None):
        calls.append(nodes)
        return _phi0_chain(rsb, s, h, nodes, read)

    monkeypatch.setattr(recursion, "_phi0_chain", counted)
    return calls


def test_guerra_bound_is_one_phi0_evaluation(monkeypatch):
    calls = _count_chains(monkeypatch)
    rsb = RSBParams.from_interior((0.4, 1.0), (0.3, 0.6))
    mix = sk_mixture(1.5)
    value = guerra_bound(rsb, mix, 0.3, QUAD)
    assert calls == [40]
    assert value == bound_from_phi0(rsb, mix, phi0(rsb, mix, 0.3, QUAD).phi0)
    assert calls == [40, 40, 80]


def test_optimum_carries_its_phi0():
    mix = sk_mixture(1.5)
    opt = optimize_bound(mix, 0.3, 1, QUAD24)
    assert opt.phi0 == phi0(opt.params, mix, 0.3, QUAD24).phi0
    assert opt.value == bound_from_phi0(opt.params, mix, opt.phi0)
    assert len(opt.restart_values) == 5
    assert opt.restart_spread == max(opt.restart_values) - min(opt.restart_values)


GRADIENT_LADDERS = {
    1: ((1.0,), (0.5,)),
    2: ((0.4, 1.0), (0.3, 0.7)),
    3: ((0.3, 0.6, 1.0), (0.2, 0.5, 0.8)),
}


def _central_differences(rsb, mix, h, quad, eps=1e-6):
    """dB over (m_1..m_{k-1}, q_1..q_k) by central differences of guerra_bound."""
    k = rsb.k
    coords = list(rsb.m_interior[:-1]) + list(rsb.q_interior)
    out = []
    for i in range(len(coords)):
        sides = []
        for step in (eps, -eps):
            moved = list(coords)
            moved[i] += step
            params = RSBParams.from_interior(moved[: k - 1] + [1.0], moved[k - 1 :])
            sides.append(guerra_bound(params, mix, h, quad))
        out.append((sides[0] - sides[1]) / (2.0 * eps))
    return np.array(out)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("h", [0.0, 0.3])
@pytest.mark.parametrize(
    "mix",
    [sk_mixture(1.5), make_mixture([(2, 0.8), (4, 0.4)]), make_mixture([(1, 0.6), (2, 0.9)])],
    ids=["sk", "p2p4", "p1p2"],
)
def test_bound_gradient_matches_central_differences(mix, h, k):
    quad = QuadratureSpec(nodes_per_level=16, convergence_check=False)
    rsb = RSBParams.from_interior(*GRADIENT_LADDERS[k])
    value, grad = bound_and_gradient(rsb, mix, h, quad)
    assert value == guerra_bound(rsb, mix, h, quad)
    assert grad.shape == (2 * k - 1,)
    assert np.abs(grad - _central_differences(rsb, mix, h, quad)).max() < 5e-9


def test_bound_gradient_refuses_grids_over_the_budget(monkeypatch):
    # one root node's grid at k = 3 is nodes^3 points: 216^3 > 10^7
    def not_reached(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(recursion, "_root_blocks", not_reached)
    rsb = RSBParams.from_interior(*GRADIENT_LADDERS[3])
    with pytest.raises(ValueError, match="TENSOR_BUDGET"):
        bound_and_gradient(rsb, sk_mixture(1.5), 0.0, QuadratureSpec(nodes_per_level=216))


def test_zero_mixture_optimizes_to_log2_at_once():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        opt = optimize_bound(
            make_mixture([(2, 0.0)]), 0.0, 2, QuadratureSpec(nodes_per_level=12)
        )
    assert opt.converged
    assert opt.evaluations <= 10
    assert opt.value == pytest.approx(math.log(2.0), abs=1e-15)
    assert opt.stationarity == 0.0


def test_search_runs_at_the_largest_count_within_the_budget(monkeypatch):
    assert 29**4 <= SEARCH_GRID_BUDGET < 30**4
    assert recursion._search_nodes(40, 3) == 29
    monkeypatch.setattr(recursion, "SEARCH_GRID_BUDGET", 12**3 - 1)
    searched = []

    def counted(rsb, mix, h, quad):
        searched.append(quad.nodes_per_level)
        return bound_and_gradient(rsb, mix, h, quad)

    monkeypatch.setattr(recursion, "bound_and_gradient", counted)
    calls = _count_chains(monkeypatch)
    mix = sk_mixture(1.5)
    quad = QuadratureSpec(nodes_per_level=12, convergence_check=False)
    opt = optimize_bound(mix, 0.3, 2, quad)
    assert set(searched) == {11}
    # every search chain at 11 nodes; phi(0) at the optimum, at the requested count
    assert calls.count(12) == 1 and set(calls) == {11, 12}
    assert opt.phi0 == phi0(opt.params, mix, 0.3, quad).phi0
    assert opt.value == bound_from_phi0(opt.params, mix, opt.phi0)


@pytest.mark.parametrize(
    "beta, h, k",
    [(0.6, 0.0, 2), (0.6, 0.3, 2), (1.5, 0.0, 2), (1.5, 0.3, 2), (1.5, 0.0, 1), (0.4, 0.0, 1)],
)
def test_acceptance_optima_are_stationary(beta, h, k):
    # the optima of criteria 07 (k = 2, and k = 1 at beta = 1.5) and 08
    opt = optimize_bound(sk_mixture(beta), h, k, QUAD24)
    assert opt.converged
    assert opt.stationarity <= 1e-6


@pytest.mark.parametrize("k", [1, 2])
def test_high_temperature_search_runs_out_without_overflow(k):
    # beta = 0.4, h = 0: the optimum sits on the q -> 0 edge, so the search
    # drives y = logit(q) out towards -infinity
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        opt = optimize_bound(sk_mixture(0.4), 0.0, k, QUAD24)
        assert recursion._sigmoid(np.array([-1e4, 0.0, 1e4])).tolist() == [0.0, 0.5, 1.0]
    assert opt.converged
    assert opt.params.q[1] < 1e-4


def test_linear_term_bound_sits_above_the_free_energy():
    mix = make_mixture([(1, 1.0), (2, 0.5)])
    record = verify_bound(8, mix, 0.0, 400, QUAD24, seed=1750, optimize_k=1)
    assert record.passed
    assert record.lhs <= record.rhs + 3.0 * record.lhs_se


def test_pure_linear_bound_is_the_single_site_free_energy():
    # xi(x) = beta^2 x: independent sites in a Gaussian field of variance beta^2
    beta, h = 0.7, 0.3
    z, w = gauss_hermite(80)
    exact = float(np.log(2.0 * np.cosh(h + beta * z)) @ w)
    opt = optimize_bound(make_mixture([(1, beta)]), h, 1, QUAD24)
    assert opt.converged
    assert opt.value == pytest.approx(exact, abs=1e-6)
