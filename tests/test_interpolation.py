"""Joint Gibbs systems on the interpolation path and their identities."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from cascadelab import interpolation
from cascadelab.cascade import attach_fields
from cascadelab.interpolation import (
    _OP_DERIVATIVE,
    _OP_ERROR_COUPLED,
    MODULE_INTERP,
    CoupledGibbsSystem,
    GibbsSystem,
    _pair_terms,
    _read_derivative,
    _restricted_deltas,
    build_coupled_system,
    build_system,
    derivative_check,
    error_term_check,
    gibbs_overlap_mass,
    phi_t,
)
from cascadelab.mixture import RSBParams, make_mixture, sk_mixture, theta
from cascadelab.recursion import QuadratureSpec, phi0
from cascadelab.seeding import replica_rows
from cascadelab.sk_model import covariance_exact, exact_free_energy, spin_matrix, spin_sums
from cascadelab.stats import Estimate, Exact, identity_check

LOG2COSH_HALF = math.log(2.0 * math.cosh(0.5))
QUAD = QuadratureSpec(nodes_per_level=40)

RSB1 = RSBParams.from_interior((0.5,), (0.4,))
RSB2 = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))


def test_system_construction_invariants():
    system = build_system(3, 0.5, sk_mixture(0.6), RSB2, 20, 0.3, seed=123)
    assert system.gamma.shape == (8, 400)
    assert abs(float(system.gamma.sum()) - 1.0) < 1e-10
    table = system.wedge_table()
    assert table.shape == (3, 1 + 3 + len(system.table.variances))
    assert table[0, 0] == pytest.approx(1.0, abs=1e-10)  # (total leaf mass)^2
    assert system.phi_value() == pytest.approx(system.log_norm / 3.0, rel=1e-12)
    assert np.all(system.gamma >= 0.0)


def _oracle_pair_sums(system):
    # Every pair of states (sigma, alpha), (tau, beta) weighted by
    # gamma * gamma: the wedge depth is one more than the number of leading
    # leaf digits alpha and beta share, and xi(R) is the Hamiltonian
    # covariance over N.  Returns <theta(q_wedge)>, <Delta(R, q_wedge)>,
    # and per r = 1..k+1 the wedge mass and <Delta(R, q_r) I(wedge = r)>.
    N, mix, k, b = system.N, system.mixture, system.rsb.k, system.cascade.b
    spins = spin_matrix(N)
    overlap = spins @ spins.T / N
    xi = np.array([[covariance_exact(N, mix, s1, s2) / N for s2 in spins] for s1 in spins])
    digits = np.array(list(itertools.product(range(b), repeat=k)))
    wedge = 1 + np.cumprod(digits[:, None, :] == digits[None, :, :], axis=2).sum(axis=2)
    weight = system.gamma[:, :, None, None] * system.gamma[None, None, :, :]
    q_at = np.append(system.rsb.q[1 : k + 1], 1.0)

    def delta(q):
        return xi - overlap * mix.xi_prime(q) + theta(mix, q)  # (2^N, 2^N) over spins

    theta_avg = delta_avg = 0.0
    masses, restricted = [], []
    for r in range(1, k + 2):
        on = (wedge == r)[None, :, None, :]
        pair = np.where(on, weight, 0.0).transpose(0, 2, 1, 3).sum(axis=(2, 3))
        q = q_at[r - 1]
        masses.append(pair.sum())
        restricted.append((pair * delta(q)).sum())
        theta_avg += masses[-1] * theta(mix, q)
        delta_avg += restricted[-1]
    return theta_avg, delta_avg, masses, restricted


@pytest.mark.parametrize("mixture", [[[2, 0.8]], [[2, 0.5], [4, 0.3]]], ids=["sk", "p2p4"])
@pytest.mark.parametrize(
    "N, b, ladder",
    [(2, 3, (0.4,)), (2, 3, (0.3, 0.6)), (3, 3, (0.2, 0.5, 0.7))],
    ids=["N2-b3-k1", "N2-b3-k2", "N3-b3-k3"],
)
def test_pair_sums_match_the_pair_enumeration(monkeypatch, mixture, N, b, ladder):
    # The wedge-table readers against a direct sum over every state pair,
    # with the truncation correction switched off so the raw sums compare.
    k = len(ladder)
    monkeypatch.setattr(
        GibbsSystem, "loss_profile", lambda self: (np.zeros(k + 1), np.zeros(k + 1))
    )
    rsb = RSBParams.from_interior(tuple(0.2 + 0.25 * i for i in range(k)), ladder)
    for rep in range(2):
        system = build_system(N, 0.4, make_mixture(mixture), rsb, b, 0.3, seed=(61, rep))
        theta_avg, delta_avg, masses, restricted = _oracle_pair_sums(system)
        assert _pair_terms(system) == pytest.approx((theta_avg, delta_avg), rel=0, abs=1e-13)
        got = [value for value, _ in system.wedge_masses()]
        assert got == pytest.approx(masses, rel=0, abs=1e-13)
        for r in range(1, k + 1):
            value, budget = _restricted_deltas(system)[r - 1]
            assert value == pytest.approx(restricted[r - 1], rel=0, abs=1e-13) and budget == 0.0


def test_loss_profile_carries_the_gibbs_tilt():
    # With no couplings, no field and h = 0 the leaf marginal is w itself,
    # so the mean tilt rho is 1 and the tilted losses are the cascade's.
    # A strongly tilted system moves them to eps rho / (1 - eps + eps rho).
    flat = build_system(3, 0.5, make_mixture([[2, 0.0]]), RSB2, 12, 0.0, seed=3)
    eps_f, _ = flat.loss_profile()
    assert flat._tilt_statistics()[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(eps_f - flat.cascade.cumulative_losses())) <= 1e-15
    tilted = build_system(3, 0.5, sk_mixture(1.5), RSB2, 12, 0.3, seed=3)
    eps = tilted.cascade.cumulative_losses()
    rho = float((tilted.gamma.sum(axis=0) / tilted.cascade.leaf_weights_flat()).mean())
    assert tilted._tilt_statistics()[0] == pytest.approx(rho, rel=1e-12)
    assert abs(rho - 1.0) > 0.5, rho
    eps_f, _ = tilted.loss_profile()
    assert eps_f == pytest.approx(eps * rho / (1.0 - eps + eps * rho), rel=1e-12, abs=1e-15)
    assert np.all(np.abs(eps_f[1:] - eps[1:]) > 0.01 * eps[1:]), (eps_f, eps)


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
def test_system_exponent_matches_the_four_term_sum(t):
    # Oracle: the exponent as one left-to-right sum of the four terms,
    # the tilt built from the seed's field columns at every t; a t = 1
    # system holds no tilt and must still match to the bit.
    mix = sk_mixture(0.6)
    system = build_system(3, t, mix, RSB2, 20, 0.3, seed=(123, 4))
    tilt = spin_matrix(3) @ attach_fields(20, mix, RSB2, 3, (123, 4)).all_fields().T
    assert system.tilt is None if t == 1.0 else np.array_equal(system.tilt, tilt)
    expo = (
        np.sqrt(t) * system.table.values[:, None]
        + np.sqrt(1.0 - t) * tilt
        + 0.3 * spin_sums(3)[:, None]
        + np.log(system.cascade.leaf_weights_flat())[None, :]
    )
    gamma, log_norm = interpolation._gibbs_weights(expo, "oracle")
    assert np.array_equal(system.gamma, gamma) and system.log_norm == log_norm


def test_system_without_tilt_refuses_other_times():
    system = build_system(2, 1.0, sk_mixture(0.6), RSB2, 6, 0.3, seed=7)
    assert system.tilt is None
    same = system.at(1.0)
    assert np.array_equal(same.gamma, system.gamma) and same.log_norm == system.log_norm
    for t in (0.0, 0.98, 1.0 - 1e-12):
        with pytest.raises(RuntimeError, match="without its field tilt"):
            system.at(t)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("axis", [None, 0])
def test_gibbs_weights_reject_a_non_finite_tilt(bad, axis):
    system = build_system(2, 0.5, sk_mixture(0.6), RSB2, 6, 0.3, seed=7)
    expo = system.tilt.copy()
    interpolation._gibbs_weights(expo, "finite tilt", axis=axis)
    expo[1, 4] = bad
    with np.errstate(invalid="ignore"):
        with pytest.raises(AssertionError, match="non-finite tilt"):
            interpolation._gibbs_weights(expo, "non-finite tilt", axis=axis)
        with pytest.raises(AssertionError, match="joint weights"):
            replace(system, tilt=expo)


def test_degenerate_mixture_phi_is_log2cosh():
    mix = make_mixture([(2, 0.0)])
    est = phi_t(2, 0.37, mix, RSB1, 100, 0.5, 50, seed=91)
    rec = identity_check("phi_degenerate", est, Exact(LOG2COSH_HALF))
    assert rec.passed, (est.mean, est.std_error, est.allowance)


def test_degenerate_mixture_phi_ignores_t():
    # with no couplings the interpolation time never enters the weights
    mix = make_mixture([(2, 0.0)])
    a = phi_t(2, 0.2, mix, RSB1, 60, 0.5, 30, seed=92)
    b = phi_t(2, 0.8, mix, RSB1, 60, 0.5, 30, seed=92)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_phi_endpoint_t0_matches_quadrature():
    mix = sk_mixture(0.5)
    est = phi_t(3, 0.0, mix, RSB1, 60, 0.3, 300, seed=93)
    ref = phi0(RSB1, mix, 0.3, QUAD)
    rec = identity_check("phi_t0", est, Exact(ref.phi0))
    assert rec.passed, (est.mean, est.std_error, est.allowance, ref.phi0)


def test_phi_endpoint_t1_matches_enumeration():
    mix = sk_mixture(0.5)
    est = phi_t(3, 1.0, mix, RSB1, 60, 0.3, 300, seed=94)
    fe = exact_free_energy(3, mix, 0.3, 300, seed=95)
    rec = identity_check("phi_t1", est, fe)
    assert rec.passed, (est.mean, fe.mean, est.allowance)


def test_phi_rejects_endpoint_exponent():
    endpoint = RSBParams.from_interior((1.0,), (0.4,))
    with pytest.raises(ValueError, match="m_k"):
        phi_t(2, 0.5, sk_mixture(0.5), endpoint, 50, 0.0, 10, seed=1)


def test_joint_budget_guards():
    with pytest.raises(ValueError, match="N outside"):
        build_system(9, 0.5, sk_mixture(0.5), RSB1, 20, 0.0, seed=1)
    with pytest.raises(ValueError, match="leaf count"):
        build_system(2, 0.5, sk_mixture(0.5), RSB2, 150, 0.0, seed=1)
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        build_system(2, 1.2, sk_mixture(0.5), RSB1, 20, 0.0, seed=1)


def test_derivative_identity_small():
    report = derivative_check(3, 0.5, sk_mixture(0.5), RSB1, 30, 0.3, 150, seed=7)
    assert report.record.passed, report.record
    # the dropped term is an average of a pointwise nonnegative function
    assert report.delta_term.mean >= -3.0 * report.delta_term.std_error
    # dropping it can only raise the derivative: bound side >= full formula
    bound_side = report.constant_term + report.theta_term.mean
    assert bound_side >= report.formula.mean - 3.0 * report.delta_term.std_error
    assert report.constant_term == pytest.approx(-0.125 / 2.0, rel=1e-12)


def test_system_at_matches_fresh_build():
    mix, seed, t, step = sk_mixture(0.6), (31, MODULE_INTERP, 2, 5), 0.5, 0.02
    system = build_system(3, t, mix, RSB2, 12, 0.3, seed)
    for t2 in (0.0, t - step, t + step, 1.0):
        moved = system.at(t2)
        fresh = build_system(3, t2, mix, RSB2, 12, 0.3, seed)
        assert moved.t == t2
        assert moved.log_norm == fresh.log_norm
        assert np.array_equal(moved.gamma, fresh.gamma)


def _oracle_derivative_values(N, t, mix, rsb, b, h, replicas, seed):
    # a fresh build per replica, its pathwise derivative summed state by state
    vals = np.empty((replicas, 3))
    for rep in range(replicas):
        system = build_system(N, t, mix, rsb, b, h, (seed, MODULE_INTERP, _OP_DERIVATIVE, rep))
        slope = (
            system.table.values[:, None] / (2.0 * math.sqrt(t))
            - system.tilt / (2.0 * math.sqrt(1.0 - t))
        )
        vals[rep, 0] = np.einsum("sa,sa->", system.gamma, slope) / N
        vals[rep, 1:] = _pair_terms(system)
    return vals


def test_derivative_matches_fresh_build_oracle():
    mix = sk_mixture(0.5)
    report = derivative_check(2, 0.4, mix, RSB2, 10, 0.3, 40, seed=11)
    vals = _oracle_derivative_values(2, 0.4, mix, RSB2, 10, 0.3, 40, 11)
    oracle = Estimate.from_values(vals[:, 0])
    assert report.pathwise.mean == pytest.approx(oracle.mean, rel=1e-12, abs=1e-14)
    assert report.pathwise.std_error == pytest.approx(oracle.std_error, rel=1e-9)
    assert report.theta_term == Estimate.from_values(0.5 * vals[:, 1])
    assert report.delta_term == Estimate.from_values(0.5 * vals[:, 2])
    constant = report.constant_term
    assert report.formula == Estimate.from_values(
        constant + 0.5 * vals[:, 1] - 0.5 * vals[:, 2]
    )


def test_derivative_samples_each_replica_once(monkeypatch):
    calls = []
    original = interpolation.build_cascade

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(interpolation, "build_cascade", counted)
    derivative_check(2, 0.5, sk_mixture(0.5), RSB1, 10, 0.3, 12, seed=3)
    assert len(calls) == 12


def test_gibbs_overlap_mass_same_across_workers(monkeypatch):
    # 300 replicas span two chunks, so two workers pickle the read function
    mix = sk_mixture(0.5)
    out = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("CASCADELAB_WORKERS", workers)
        out[workers] = gibbs_overlap_mass(2, 0.6, mix, RSB2, 8, 0.3, 300, seed=19)
    assert out["1"] == out["2"]


def test_derivative_rejects_edge_times(monkeypatch):
    # at t = 0 and t = 1 one term of the pathwise derivative has no finite weight
    def not_reached(*args, **kwargs):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(interpolation, "build_cascade", not_reached)
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match=f"t = {t} outside \\(0, 1\\)"):
            derivative_check(2, t, sk_mixture(0.5), RSB1, 4, 0.3, 10, seed=3)


@pytest.mark.parametrize("step", [0.0, -0.1])
def test_derivative_rejects_nonpositive_step(step, monkeypatch):
    # the derivative is read pathwise, so no finite-difference step is taken;
    # the value is refused as a step keyword and as a time, before any replica
    def not_reached(*args, **kwargs):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(interpolation, "build_cascade", not_reached)
    with pytest.raises(TypeError, match="step"):
        derivative_check(2, 0.5, sk_mixture(0.5), RSB1, 4, 0.3, 10, seed=3, step=step)
    with pytest.raises(ValueError, match=f"t = {step} outside \\(0, 1\\)"):
        derivative_check(2, step, sk_mixture(0.5), RSB1, 4, 0.3, 10, seed=3)


@pytest.mark.parametrize(
    "beta, N, rsb",
    [(0.5, 3, RSB1), (1.2, 3, RSB1), (0.5, 4, RSB2), (1.2, 4, RSB2)],
    ids=["beta0.5-N3-k1", "beta1.2-N3-k1", "beta0.5-N4-k2", "beta1.2-N4-k2"],
)
def test_pathwise_derivative_matches_central_differences(beta, N, rsb):
    # a central difference at step d errs by phi'''(t) d^2 / 6 + O(d^4), so
    # halving d cuts its distance to the exact derivative about fourfold;
    # |phi'''| / 6 stays under 0.14 on these draws
    t, curvature = 0.5, 0.5
    for rep in range(3):
        system = build_system(N, t, sk_mixture(beta), rsb, 12, 0.3, seed=(43, rep))
        exact = _read_derivative(system)[0]
        errors = [
            abs((system.at(t + d).log_norm - system.at(t - d).log_norm) / (2.0 * d * N) - exact)
            for d in (0.02, 0.01)
        ]
        assert errors[0] <= curvature * 0.02**2, (rep, errors)
        assert 0.24 <= errors[1] / errors[0] <= 0.26, (rep, errors)


def test_overlap_masses_match_exponent_jumps():
    mix = sk_mixture(0.5)
    rsb = RSBParams.from_interior((0.4, 0.95), (0.3, 0.6))
    expected = {1: 0.4, 2: 0.55, 3: 0.05}
    for r, target in expected.items():
        est = gibbs_overlap_mass(3, 0.9, mix, rsb, 80, 0.3, 200, seed=50 + r)[r - 1]
        rec = identity_check(f"gibbs_mass_r{r}", est, Exact(target))
        assert rec.passed, (r, est.mean, est.std_error, est.allowance, target)


def test_overlap_mass_time_invariance():
    mix = sk_mixture(0.5)
    lo = gibbs_overlap_mass(3, 0.2, mix, RSB1, 80, 0.3, 200, seed=58)[0]
    hi = gibbs_overlap_mass(3, 0.8, mix, RSB1, 80, 0.3, 200, seed=59)[0]
    rec = identity_check("mass_t_invariance", lo, hi)
    assert rec.passed, (lo.mean, hi.mean)


def test_overlap_mass_returns_every_level():
    masses = gibbs_overlap_mass(2, 0.5, sk_mixture(0.5), RSB1, 50, 0.0, 10, seed=1)
    assert len(masses) == RSB1.k + 1
    assert sum(est.mean for est in masses) == pytest.approx(1.0, abs=1e-12)


def test_coupled_exponent_sequence():
    assert RSB2.halved_below(1).m_interior == (0.4, 0.8)
    assert RSB2.halved_below(2).m_interior == (0.2, 0.8)
    assert RSB2.halved_below(2).q_interior == RSB2.q_interior
    for r in (0, 3):
        with pytest.raises(ValueError, match="r outside"):
            RSB2.halved_below(r)


def test_coupled_system_guards():
    with pytest.raises(ValueError, match="N outside"):
        build_coupled_system(5, 0.5, 1, sk_mixture(0.5), RSB1, 30, 0.0, seed=1)
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        build_coupled_system(2, 1.2, 1, sk_mixture(0.5), RSB1, 30, 0.0, seed=1)


def test_coupled_system_normalized(coupled_joint):
    system = build_coupled_system(2, 0.5, 1, sk_mixture(0.6), RSB1, 40, 0.3, seed=17)
    assert coupled_joint(system).shape == (4, 4, 40)


def test_coupled_system_stays_below_one_joint_array():
    # The factored measure never holds a (2^N, 2^N, b^k) array: a build
    # and read at N = 4, b = 40, k = 2 peaks below the size of one such
    # float array.
    joint_bytes = 4**4 * 40**2 * 8
    tracemalloc.start()
    try:
        for r in (1, 2):
            build_coupled_system(
                4, 0.5, r, sk_mixture(0.6), RSB2, 40, 0.3, seed=5
            ).delta_average()
            _, peak = tracemalloc.get_traced_memory()
            assert peak < joint_bytes, (r, peak)
            tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()


def test_error_term_factorization_small():
    [report] = error_term_check(2, 0.5, [1], sk_mixture(0.5), RSB1, 40, 0.3, 120, seed=71)
    assert report.record.passed, report.record
    gap = RSB1.m[1] - RSB1.m[0]
    assert report.rhs.mean == pytest.approx(gap * report.coupled_average.mean, rel=1e-12)
    assert report.record.extras["exponent_gap"] == pytest.approx(gap)


def _oracle_coupled_rows(N, t, r, mix, rsb, b, h, replicas, seed):
    # the dedicated coupled replica loop that replica_rows replaced
    gap = rsb.m[r] - rsb.m[r - 1]
    out = np.empty((replicas, 2))
    for rep in range(replicas):
        system = build_coupled_system(
            N, t, r, mix, rsb, b, h, (seed, MODULE_INTERP, _OP_ERROR_COUPLED, rep)
        )
        value, allowance = system.delta_average()
        out[rep] = (gap * value, gap * allowance)
    return out


def test_coupled_rows_match_dedicated_loop():
    mix, r, gap = sk_mixture(0.5), 1, RSB2.m[1] - RSB2.m[0]
    oracle = _oracle_coupled_rows(2, 0.5, r, mix, RSB2, 6, 0.3, 12, 23)
    build = partial(build_coupled_system, 2, 0.5, r, mix, RSB2, 6, 0.3)
    args = ((MODULE_INTERP, _OP_ERROR_COUPLED), build, CoupledGibbsSystem.delta_average)
    assert np.array_equal(gap * replica_rows(args, 23, 0, 12), oracle)
    [report] = error_term_check(2, 0.5, [r], mix, RSB2, 6, 0.3, 12, seed=23)
    assert report.rhs == Estimate.from_values(
        oracle[:, 0], allowance=float(oracle[:, 1].mean())
    )
    assert report.coupled_average == Estimate.from_values(
        oracle[:, 0] / gap, allowance=float(oracle[:, 1].mean()) / gap
    )


def test_error_term_same_across_workers(monkeypatch):
    # 300 replicas span two chunks, so two workers pickle both builders
    mix = sk_mixture(0.5)
    out = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("CASCADELAB_WORKERS", workers)
        [report] = error_term_check(2, 0.5, [1], mix, RSB1, 8, 0.3, 300, seed=29)
        out[workers] = (report.lhs, report.rhs, report.coupled_average, report.record)
    assert out["1"] == out["2"]


@pytest.mark.parametrize(
    "N, b, ladder, match",
    [(4, 100, (0.3, 0.6), "state budget"), (2, 20, (0.2, 0.4, 0.6), "k = 3 exceeds 2")],
)
def test_error_term_checks_coupled_limits_first(monkeypatch, N, b, ladder, match):
    # Both fit the plain system; the coupled one must be refused before
    # any plain replica runs.
    def no_build(*args):
        raise AssertionError("a plain system was built")

    monkeypatch.setattr(interpolation, "build_system", no_build)
    rsb = RSBParams.from_interior(ladder, ladder)
    with pytest.raises(ValueError, match=match):
        error_term_check(N, 0.5, [1], sk_mixture(0.5), rsb, b, 0.3, 4, seed=1)


def test_error_term_rejects_bad_level(monkeypatch):
    with pytest.raises(ValueError, match="r = 2 outside 1..1"):
        error_term_check(2, 0.5, [2], sk_mixture(0.5), RSB1, 40, 0.3, 10, seed=1)

    # a bad level after a good one is refused before any replica runs
    def no_build(*args):
        raise AssertionError("a system was built")

    monkeypatch.setattr(interpolation, "build_system", no_build)
    monkeypatch.setattr(interpolation, "build_coupled_system", no_build)
    with pytest.raises(ValueError, match="r = 3 outside 1..2"):
        error_term_check(2, 0.5, [1, 3], sk_mixture(0.5), RSB2, 6, 0.3, 4, seed=1)


def test_error_term_builds_each_plain_system_once_for_every_level(monkeypatch):
    # One plain build per replica serves r = 1 and 2, and each level's
    # report equals the one read alone.
    mix, replicas = sk_mixture(0.5), 6
    alone = [
        error_term_check(2, 0.5, [r], mix, RSB2, 6, 0.3, replicas, seed=37)[0] for r in (1, 2)
    ]
    builds = []

    def counted(*args):
        builds.append(args)
        return build_system(*args)

    monkeypatch.setattr(interpolation, "build_system", counted)
    both = error_term_check(2, 0.5, [1, 2], mix, RSB2, 6, 0.3, replicas, seed=37)
    assert len(builds) == replicas
    assert [report.r for report in both] == [1, 2]
    for joint, single in zip(both, alone):
        assert joint.lhs == single.lhs and joint.rhs == single.rhs
        assert joint.coupled_average == single.coupled_average
        assert joint.record == single.record
