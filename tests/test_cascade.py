"""Hierarchical weights: masses, fields, log-partition, and tilting."""

from functools import partial

import numpy as np
import pytest
from scipy.special import logsumexp

from cascadelab.cascade import (
    _OP_FIELDCOV,
    _OP_OVERLAP,
    MODULE_CASCADE,
    _read_fieldcov,
    attach_fields,
    build_cascade,
    field_covariance,
    leaf_functional,
    log_partition_identity,
    overlap_mass,
    prefix_cross,
    sample_marks,
    tilted_average,
    weight_tilt_invariance,
)
from cascadelab.functionals import PairFunctional, PathFunctional
from cascadelab.interpolation import (
    _OP_MASS,
    MODULE_INTERP,
    _corrected_combo,
    _tilted_loss,
    build_coupled_system,
    build_system,
    gibbs_overlap_mass,
)
from cascadelab.mixture import RSBParams, delta_array, make_mixture, sk_mixture
from cascadelab.pd_process import sample_pd
from cascadelab.recursion import QuadratureSpec
from cascadelab.seeding import (
    MODULE_COUPLED,
    MODULE_FIELDS,
    MODULE_MARKS,
    MODULE_SK,
    derive_rng,
    replica_rows,
)
from cascadelab.sk_model import sample_hamiltonian, spin_matrix, spin_sums
from cascadelab.stats import Estimate, Exact, identity_check

RSB2 = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
QUAD = QuadratureSpec(nodes_per_level=40)


def test_prefix_concentrations_small_case():
    # hand oracle on a 2x2 leaf array
    w = np.array([[0.1, 0.2], [0.3, 0.4]])
    c = prefix_cross(w, w)
    assert c[0] == pytest.approx(1.0)
    assert c[1] == pytest.approx(0.3**2 + 0.7**2)
    assert c[2] == pytest.approx(0.01 + 0.04 + 0.09 + 0.16)


def test_prefix_cross_reduces_to_concentrations():
    # prefix_cross(w, w) sums the squared subtree sums over each depth's
    # prefixes, and with a leading column axis every column keeps the
    # bits it has alone
    rng = np.random.default_rng(1)
    w = rng.random((3, 3, 3))
    want = [w.sum() ** 2, (w.sum(axis=(1, 2)) ** 2).sum(), (w.sum(axis=2) ** 2).sum(), (w**2).sum()]
    assert prefix_cross(w, w) == pytest.approx(want, rel=1e-14)
    cols = rng.random((5, 3, 3, 3))
    d = prefix_cross(cols, cols, 3)
    assert d.shape == (4, 5)
    for j in range(5):
        assert np.array_equal(d[:, j], prefix_cross(cols[j], cols[j]))


def test_cascade_weights_normalized():
    casc = build_cascade(RSB2, 20, 5)
    assert casc.w.shape == (20, 20)
    assert casc.w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(casc.w >= 0)


def test_cascade_k1_is_flat_pd():
    # the level-1 block comes from stream (seed, module, level 1), and a
    # single level is exactly one flat PD draw from that stream
    rsb = RSBParams.from_interior((0.6,), (0.5,))
    casc = build_cascade(rsb, 50, 9)
    flat = sample_pd(0.6, 50, derive_rng(9, MODULE_CASCADE, 1))
    assert np.array_equal(casc.w.ravel(), flat.w)


def test_cascade_rejects_endpoint():
    rsb = RSBParams.from_interior((0.5, 1.0), (0.3, 0.6))
    with pytest.raises(ValueError, match="m_k"):
        build_cascade(rsb, 10, 0)


def test_partition_of_unity_per_realization():
    casc = build_cascade(RSB2, 30, 13)
    total = sum(casc.overlap_mass_values()[r - 1] for r in range(1, 4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_overlap_masses_match_jumps():
    seed = 17
    targets = {1: 0.4, 2: 0.4, 3: 0.2}
    for r, target in targets.items():
        est = overlap_mass(RSB2, 100, 400, seed)[r - 1]
        rec = identity_check(f"mass_{r}", est, Exact(target))
        assert rec.passed, (r, est.mean, est.std_error, est.allowance)


def test_overlap_mass_second_config():
    rsb = RSBParams.from_interior((0.25, 0.55, 0.9), (0.2, 0.5, 0.7))
    seed = 19
    for r, target in ((1, 0.25), (4, 0.1)):
        est = overlap_mass(rsb, 12, 400, seed)[r - 1]
        rec = identity_check(f"mass_{r}", est, Exact(target))
        assert rec.passed, (r, est.mean, est.std_error, est.allowance)


def test_overlap_mass_deterministic():
    a = overlap_mass(RSB2, 40, 150, 23)[0]
    b = overlap_mass(RSB2, 40, 150, 23)[0]
    assert a.mean == b.mean and a.allowance == b.allowance


def test_overlap_mass_returns_every_level():
    masses = overlap_mass(RSB2, 20, 150, 0)
    assert len(masses) == RSB2.k + 1
    assert sum(est.mean for est in masses) == pytest.approx(1.0, abs=1e-12)


def test_field_covariance_matches_xi_prime():
    mix = make_mixture([(2, 0.8), (4, 0.4)])
    rsb = RSB2
    # wedge of these two paths is 2, so the target is xi'(q_2)
    est = field_covariance(rsb, mix, 2, 4, (0, 1), (0, 2), 0, 0, 6000, 29)
    rec = identity_check("cov_r2", est, Exact(mix.xi_prime(0.6)))
    assert rec.passed, (est.mean, est.std_error)
    # equal paths: variance xi'(1)
    est = field_covariance(rsb, mix, 2, 4, (1, 3), (1, 3), 1, 1, 6000, 29)
    rec = identity_check("cov_diag", est, Exact(mix.xi_prime(1.0)))
    assert rec.passed, (est.mean, est.std_error)
    # distinct sites are uncorrelated
    est = field_covariance(rsb, mix, 2, 4, (0, 1), (0, 1), 0, 1, 6000, 29)
    rec = identity_check("cov_sites", est, Exact(0.0))
    assert rec.passed, (est.mean, est.std_error)


def test_field_covariance_rejects_bad_sites():
    # a negative index would read a site from the end; one past N would
    # fail only inside a replica chunk
    mix = make_mixture([(2, 0.8), (4, 0.4)])
    with pytest.raises(ValueError, match="site indices"):
        field_covariance(RSB2, mix, 2, 4, (0, 1), (0, 1), -1, -1, 20, 3)
    with pytest.raises(ValueError, match="site indices"):
        field_covariance(RSB2, mix, 2, 4, (0, 1), (0, 1), 2, 2, 20, 3)
    with pytest.raises(ValueError, match="site indices"):
        field_covariance(RSB2, mix, 2, 4, (0, 1), (0, 1), 0, 2, 20, 3)


def test_field_covariance_rejects_linear_term():
    # xi'(0) > 0 has no root column to carry it: the estimate would miss
    # xi'(1) by many standard errors instead of failing loudly.
    mix = make_mixture([(1, 0.5), (2, 1.0)])
    rsb = RSBParams.from_interior((0.5,), (0.5,))
    with pytest.raises(ValueError, match="linear"):
        field_covariance(rsb, mix, 1, 4, (0,), (0,), 0, 0, 100, 29)


def test_log_partition_constant_functional():
    x_fn = PathFunctional("constant", value=1.7)
    est, reference = log_partition_identity(
        RSB2, 40, x_fn, (0.5, 0.5), 120, 31, QUAD
    )
    # log sum w exp(c) = c with zero variance, and the chain gives c back
    assert est.mean == pytest.approx(1.7, abs=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)
    assert reference == pytest.approx(1.7, abs=1e-9)


def test_log_partition_gaussian_closed_form():
    # k=1, X = g with g ~ N(0, tau^2): the chain value is m1 tau^2 / 2
    m1, tau = 0.6, 0.8
    closed = m1 * tau**2 / 2.0
    rsb = RSBParams.from_interior((m1,), (0.5,))
    x_fn = PathFunctional("linear")
    est, reference = log_partition_identity(rsb, 300, x_fn, (tau,), 400, 37, QUAD)
    assert reference == pytest.approx(closed, abs=1e-7)
    rec = identity_check("logpart_gauss", est, Exact(closed))
    assert rec.passed, (est.mean, est.std_error, est.allowance, closed)


def test_log_partition_two_level_quadrature():
    x_fn = PathFunctional("linear", coeffs=(0.7, 0.5))
    est, reference = log_partition_identity(
        RSB2, 150, x_fn, (0.6, 0.8), 400, 41, QUAD
    )
    rec = identity_check("logpart_k2", est, Exact(reference))
    assert rec.passed, (est.mean, reference, est.allowance)


def test_tilted_average_unit_functional():
    x_fn = PathFunctional("linear", coeffs=(0.5, 0.5))
    y_one = PathFunctional("constant", value=1.0)
    est, reference = tilted_average(RSB2, 30, x_fn, y_one, (0.5, 0.5), 100, 43, QUAD)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert reference == pytest.approx(1.0, abs=1e-8)


def test_tilted_restricted_unit_pair_gives_mass():
    x_fn = PathFunctional("linear", coeffs=(0.4, 0.3))
    y_pair = PairFunctional("pair_product", PathFunctional("constant", value=1.0))
    est, reference = tilted_average(
        RSB2, 80, x_fn, y_pair, (0.5, 0.5), 400, 47, QUAD, restricted_r=1
    )
    assert reference == pytest.approx(0.4, abs=1e-7)
    rec = identity_check("restricted_unit", est, Exact(reference))
    assert rec.passed, (est.mean, est.std_error, est.allowance)


def test_tilted_average_quadratic_vs_quadrature():
    x_fn = PathFunctional("linear", coeffs=(0.6, 0.4))
    y_fn = PathFunctional("quadratic", coeffs=(0.5, 0.3))
    est, reference = tilted_average(RSB2, 100, x_fn, y_fn, (0.7, 0.5), 400, 53, QUAD)
    rec = identity_check("tilted_quad", est, Exact(reference))
    assert rec.passed, (est.mean, reference, est.allowance)


def test_tilted_type_checks():
    x_fn = PathFunctional("linear")
    with pytest.raises(TypeError):
        tilted_average(RSB2, 20, x_fn, PairFunctional("pair_sum", x_fn),
                       (0.5, 0.5), 100, 0, QUAD)
    with pytest.raises(TypeError):
        tilted_average(RSB2, 20, x_fn, x_fn, (0.5, 0.5), 100, 0, QUAD,
                       restricted_r=1)
    with pytest.raises(ValueError):
        tilted_average(RSB2, 20, x_fn, PairFunctional("pair_product", x_fn),
                       (0.5, 0.5), 100, 0, QUAD, restricted_r=3)


def test_weight_tilt_invariance_statistics():
    rsb = RSBParams.from_interior((0.5,), (0.5,))
    x_fn = PathFunctional("logcosh_sum", scale=1.1)
    for statistic in ("max_weight", "pair_sum"):
        tilted, plain = weight_tilt_invariance(
            rsb, 150, x_fn, (0.8,), statistic, 600, 59
        )
        rec = identity_check(statistic, tilted, plain)
        assert rec.passed, (statistic, tilted.mean, plain.mean, rec.tolerance)


def test_leaf_functional_shapes():
    marks = sample_marks(4, 2, (0.5, 0.5), (7,))
    vals = leaf_functional(PathFunctional("linear", coeffs=(1.0, 2.0)), marks, 4, 2)
    assert vals.shape == (4, 4)
    # linear functional is the broadcast sum of scaled level marks
    want = marks[0][:, None] * 0 + marks[0].reshape(4, 1) + 2.0 * marks[1]
    assert vals == pytest.approx(want.reshape(4, 4))


# ---------------------------------------------------------------------------
# bit identity of the one-pass kernels
#
# The oracles are the per-r expressions the one-pass masses replaced; the
# replica counts cross a 256-replica chunk boundary.
# ---------------------------------------------------------------------------


def _oracle_sample_points(rng, m, shape):
    # one PD process per row, the rows drawn in order from one stream
    gamma = np.cumsum(rng.standard_exponential(shape), axis=-1)
    return (m * gamma) ** (-1.0 / m)


def _oracle_overlap_mass(rsb, b, r, replicas, seed):
    vals = np.empty((replicas, 2))
    for rep in range(replicas):
        casc = build_cascade(rsb, b, (seed, _OP_OVERLAP, rep))
        c = casc.corrected_concentrations()
        a = casc._concentration_allowances()
        if r == rsb.k + 1:
            vals[rep] = (float(c[rsb.k]), float(a[rsb.k]))
        else:
            vals[rep] = (float(c[r - 1] - c[r]), float(a[r - 1] + a[r]))
    return Estimate.from_values(vals[:, 0], allowance=float(vals[:, 1].mean()))


def _oracle_wedge_mass(system, r):
    k = system.rsb.k
    masses = system.gamma.sum(axis=0).reshape((system.cascade.b,) * k)
    c = prefix_cross(masses, masses)
    eps_f, margin = system.loss_profile()
    if r == k + 1:
        terms = [(k, 1.0, c[k])]
    else:
        terms = [(r - 1, 1.0, c[r - 1]), (r, -1.0, c[r])]
    return _corrected_combo(terms, eps_f, margin)


def test_build_cascade_blocks_match_formula():
    # Leaf (i, j) reads row 0 of the level-1 block at column i and row i
    # of the level-2 block at column j, each level one stream.
    b = 30
    casc = build_cascade(RSB2, b, 5)
    blocks = [
        _oracle_sample_points(
            _oracle_stream((5,), MODULE_CASCADE, level), RSB2.m[level], (b ** (level - 1), b)
        )
        for level in (1, 2)
    ]
    for i in range(b):
        assert casc.levels[0][i] == blocks[0][0, i]
        for j in range(b):
            assert casc.levels[1][i, j] == blocks[1][i, j]
    v = blocks[0][0][:, None] * blocks[1]
    assert np.array_equal(casc.w, v / v.sum())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sample_marks_match_per_node_streams(k):
    # Walked leaf path by leaf path: a level-l node's mark is column digit
    # of row parent of the level-l block, and a child's index is
    # parent * b + digit.
    b, taus, base = 5, (0.7, 1.3, 0.4)[:k], (31, 4, 2)
    marks = sample_marks(b, k, taus, base)
    assert [m.shape for m in marks] == [(b,) * level for level in range(1, k + 1)]
    blocks = [
        _oracle_stream(base, MODULE_MARKS, level).standard_normal((b ** (level - 1), b))
        for level in range(1, k + 1)
    ]
    for path in np.ndindex((b,) * k):
        parent = 0
        for level, digit in enumerate(path, start=1):
            want = taus[level - 1] * blocks[level - 1][parent, digit]
            assert marks[level - 1][path[:level]] == want, (path, level)
            parent = parent * b + digit


def test_overlap_masses_match_per_level_values():
    for rsb, b in ((RSB2, 12), (RSBParams.from_interior((0.25, 0.55, 0.9), (0.2, 0.5, 0.7)), 5)):
        masses = overlap_mass(rsb, b, 300, 71)
        assert masses == [
            _oracle_overlap_mass(rsb, b, r, 300, 71) for r in range(1, rsb.k + 2)
        ]


def test_gibbs_masses_match_per_level_values():
    mix = sk_mixture(0.5)
    masses = gibbs_overlap_mass(2, 0.7, mix, RSB2, 8, 0.3, 260, 73)
    vals = np.empty((260, 2))
    for r in range(1, RSB2.k + 2):
        for rep in range(260):
            system = build_system(2, 0.7, mix, RSB2, 8, 0.3, (73, MODULE_INTERP, _OP_MASS, rep))
            vals[rep] = _oracle_wedge_mass(system, r)
        want = Estimate.from_values(vals[:, 0], allowance=float(vals[:, 1].mean()))
        assert masses[r - 1] == want


# ---------------------------------------------------------------------------
# bit identity of the one field assembler
#
# The oracles walk each leaf's path through the level blocks, reading the
# column of node parent * b + digit, for both copies of the coupled system
# and for the field covariance, with streams spelled as the SeedSequence
# expression of the per-level layout.
# ---------------------------------------------------------------------------


def _oracle_stream(base, module, *key):
    return np.random.default_rng(
        np.random.SeedSequence(base[0], spawn_key=tuple(base[1:]) + (module,) + key)
    )


def _oracle_coupled_fields(rsb, mixture, N, b, r, base):
    k, leaf_count = rsb.k, b**rsb.k
    stds = np.sqrt(np.maximum(rsb.variances(mixture), 0.0))
    root = stds[0] * _oracle_stream(base, MODULE_FIELDS, 0).standard_normal(N)
    fields = [np.tile(root, (leaf_count, 1)), np.tile(root, (leaf_count, 1))]
    for copy in (0, 1):
        blocks = [
            _oracle_stream(
                base, MODULE_FIELDS if copy == 0 or level < r else MODULE_COUPLED, level
            ).standard_normal((b**level, N))
            for level in range(1, k + 1)
        ]
        # leaf by leaf: its level-l column is row parent * b + digit
        for leaf, path in enumerate(np.ndindex((b,) * k)):
            node = 0
            for level, digit in enumerate(path, start=1):
                node = node * b + digit
                fields[copy][leaf] += stds[level] * blocks[level - 1][node]
    return fields


def test_coupled_fields_match_inline_loop():
    mix = sk_mixture(0.6)
    rsb3 = RSBParams.from_interior((0.25, 0.55, 0.9), (0.2, 0.5, 0.7))
    for rsb, b in ((RSB2, 5), (rsb3, 3)):
        for r in range(1, rsb.k + 1):
            base = (81, MODULE_INTERP, r)
            first, second = _oracle_coupled_fields(rsb, mix, 3, b, r, base)
            fields = attach_fields(b, mix, rsb, 3, base)
            assert np.array_equal(fields.all_fields(), first)
            assert np.array_equal(fields.independent_from(r).all_fields(), second)


def _dense_coupled(system, first, second, table):
    # The 3-D route the factored coupled system replaced: the joint
    # (2^N, 2^N, b^k) exponent, its normalization and delta_average's
    # value and allowance read off the joint array.
    N, t, h = system.N, system.t, system.h
    spins = spin_matrix(N)
    single = np.sqrt(t) * table.values + h * spin_sums(N)
    w = system.cascade.leaf_weights_flat()
    expo = (
        single[:, None, None]
        + single[None, :, None]
        + (np.sqrt(1.0 - t) * (spins @ first.T))[:, None, :]
        + (np.sqrt(1.0 - t) * (spins @ second.T))[None, :, :]
        + np.log(w)[None, None, :]
    )
    log_norm = float(logsumexp(expo))
    gamma = np.exp(expo - log_norm)
    overlaps = (spins @ spins.T) / N
    dvals = delta_array(system.mixture, overlaps, float(system.cascade.rsb.q[system.r]))
    value = float((gamma * dvals[:, :, None]).sum())
    a = gamma.sum(axis=(0, 1))
    rho = float((a / w).mean())
    eps_f = _tilted_loss(float(system.cascade.cumulative_losses()[-1]), rho)
    leaf_means = (gamma * dvals[:, :, None]).sum(axis=(0, 1)) / a
    blocks = leaf_means.reshape(system.cascade.b, -1).mean(axis=1)
    allowance = eps_f * (
        abs(float(leaf_means.mean()) - value)
        + 3.0 * float(blocks.std(ddof=1) / np.sqrt(blocks.size))
    )
    return log_norm, gamma, value, allowance


def test_coupled_system_matches_inline_loop(coupled_joint):
    # The factored measure sums in another order than the joint array,
    # so agreement is to rounding, not to the bit.
    mix, N, b, t, h = sk_mixture(0.6), 2, 6, 0.4, 0.3
    for r in (1, 2):
        base = (83, MODULE_INTERP, r)
        [system] = build_coupled_system(N, t, [r], mix, RSB2, b, h, base)
        first, second = _oracle_coupled_fields(RSB2, mix, N, b, r, base)
        table = sample_hamiltonian(N, mix, _oracle_stream(base, MODULE_SK))
        log_norm, gamma, value, allowance = _dense_coupled(system, first, second, table)
        assert system.log_norm == pytest.approx(log_norm, rel=1e-13)
        assert np.allclose(coupled_joint(system), gamma, rtol=1e-12, atol=0.0)
        got_value, got_allowance = system.delta_average()
        assert got_value == pytest.approx(value, rel=1e-12)
        assert got_allowance == pytest.approx(allowance, rel=1e-12)


COUPLED_MIXTURES = (
    sk_mixture(0.6),
    make_mixture([(2, 0.8), (4, 0.4)]),
    make_mixture([(2, 1.2), (4, 0.9)]),
)
COUPLED_LADDERS = (
    RSBParams.from_interior((0.5,), (0.4,)),
    RSB2,
    RSBParams.from_interior((0.25, 0.7), (0.2, 0.55)),
)


@pytest.mark.parametrize("mix", COUPLED_MIXTURES)
@pytest.mark.parametrize("rsb", COUPLED_LADDERS)
def test_factored_coupled_system_matches_joint_array(mix, rsb):
    # Every N the coupled system holds, a small and the benchmark's b,
    # every level r and both ends and the middle of the path.
    h = 0.3
    for N in range(1, 5):
        for b in (6, 40):
            for r in range(1, rsb.k + 1):
                for t in (0.0, 0.5, 1.0):
                    base = (87, MODULE_INTERP, N, b, r)
                    [system] = build_coupled_system(N, t, [r], mix, rsb, b, h, base)
                    first, second = _oracle_coupled_fields(rsb, mix, N, b, r, base)
                    table = sample_hamiltonian(N, mix, _oracle_stream(base, MODULE_SK))
                    log_norm, _, value, allowance = _dense_coupled(
                        system, first, second, table
                    )
                    got_value, got_allowance = system.delta_average()
                    case = (N, b, r, t)
                    assert system.log_norm == pytest.approx(log_norm, rel=1e-13), case
                    assert got_value == pytest.approx(value, rel=1e-12), case
                    assert abs(got_allowance - allowance) <= 1e-12 * abs(value), case


def test_field_covariance_matches_path_walk():
    mix = make_mixture([(2, 0.8), (4, 0.4)])
    alpha, beta, b, N = (0, 1), (0, 2), 4, 2
    stds = np.sqrt(np.maximum(RSB2.variances(mix), 0.0))
    want = np.empty(300)
    for rep in range(300):
        base = (29, _OP_FIELDCOV, rep)
        root = stds[0] * _oracle_stream(base, MODULE_FIELDS, 0).standard_normal(N)
        fields = []
        for path in (alpha, beta):
            total, parent = root.copy(), 0
            for level, digit in enumerate(path, start=1):
                block = _oracle_stream(base, MODULE_FIELDS, level).standard_normal((b**level, N))
                total = total + stds[level] * block[parent * b + digit]
                parent = parent * b + digit
            fields.append(total)
        want[rep] = fields[0][0] * fields[1][1]
    rows = (np.ravel_multi_index(path, (b,) * RSB2.k) for path in (alpha, beta))
    build = partial(attach_fields, b, mix, RSB2, N)
    got = replica_rows(((_OP_FIELDCOV,), build, partial(_read_fieldcov, *rows, 0, 1)), 29, 0, 300)
    assert np.array_equal(got, want)
    assert field_covariance(RSB2, mix, N, b, alpha, beta, 0, 1, 300, 29) == Estimate.from_values(want)
