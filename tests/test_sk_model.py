"""Finite-size Hamiltonians, their covariance law, and exact free energies."""

import math

import numpy as np
import pytest
import scipy
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab.mixture import make_mixture, sk_mixture
from cascadelab.recursion import QuadratureSpec
from cascadelab.seeding import MODULE_SK, derive_rng
from cascadelab.sk_model import (
    covariance_exact,
    exact_free_energy,
    hamiltonian_covariance,
    log_partition,
    logsumexp,
    _monomial_signs,
    monomial_signs,
    monomial_table,
    monomial_variances,
    sample_hamiltonian,
    spin_matrix,
    spin_sums,
    verify_bound,
)
from cascadelab.stats import Estimate, Exact, identity_check

LOG2COSH_HALF = math.log(2.0 * math.cosh(0.5))
QUAD24 = QuadratureSpec(nodes_per_level=24, convergence_check=False)


def test_variances_sum_to_n_xi_one():
    mix = make_mixture([(2, 0.8), (4, 0.3)])
    for N in (1, 2, 5):
        total = sum(monomial_variances(N, mix).values())
        assert total == pytest.approx(N * mix.xi(1.0), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=6),
    b2=st.floats(min_value=0.1, max_value=1.5),
    b4=st.floats(min_value=0.0, max_value=1.0),
    data=st.data(),
)
def test_covariance_exact_is_n_xi_of_overlap(N, b2, b4, data):
    mix = make_mixture([(2, b2), (4, b4)])
    s1 = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=N, max_size=N))
    s2 = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=N, max_size=N))
    overlap = float(np.dot(s1, s2)) / N
    cov = covariance_exact(N, mix, s1, s2)
    assert cov == pytest.approx(N * mix.xi(overlap), abs=1e-10)


def test_covariance_monte_carlo_matches_exact():
    mix = make_mixture([(2, 0.7), (4, 0.4)])
    s1 = (1, 1, -1, 1)
    s2 = (1, -1, -1, -1)
    mc = hamiltonian_covariance(4, mix, s1, s2, replicas=4000, seed=314)
    target = covariance_exact(4, mix, s1, s2) / 4.0
    rec = identity_check("hamiltonian_covariance", mc, Exact(target))
    assert rec.passed, (mc.mean, mc.std_error, target)


def test_single_site_hamiltonian_is_spin_independent():
    # p = 2 on one site only produces the fully paired monomial
    table = sample_hamiltonian(1, sk_mixture(0.9), seed=5)
    assert table.masks == (0,)
    assert table.values[0] == table.values[1]
    # so the log-partition is the constant plus log 2cosh(h), exactly
    lp = log_partition(table, 0.5)
    assert lp == pytest.approx(table.values[0] + LOG2COSH_HALF, abs=1e-12)


def test_even_mixture_hamiltonian_is_flip_symmetric():
    # even p only touches even-size site sets, so H(-sigma) = H(sigma)
    # realization by realization; flipping all spins reverses the row order
    table = sample_hamiltonian(5, make_mixture([(2, 1.1), (4, 0.6)]), seed=8)
    assert all(bin(mask).count("1") % 2 == 0 for mask in table.masks)
    assert np.array_equal(table.values, table.values[::-1])


def test_signs_and_sums_consistency():
    N = 4
    assert np.array_equal(spin_sums(N), spin_matrix(N).sum(axis=1))
    signs = monomial_signs(N, (0b0011,))
    sigma = spin_matrix(N)
    assert np.array_equal(signs[:, 0], sigma[:, 0] * sigma[:, 1])


def _bit_table(N):
    return (np.arange(2**N)[:, None] >> np.arange(N)[None, :]) & 1


@pytest.mark.parametrize("N", range(1, 7))
def test_spin_tables_match_bit_table_formulas(N):
    # sigma_i = 1 - 2 bit_i(s); sigma_S = 1 - 2 (parity of S's bits)
    bits = _bit_table(N)
    assert np.array_equal(spin_sums(N), (N - 2 * bits.sum(axis=1)).astype(float))
    masks = tuple(range(2**N))
    parity = np.stack(
        [bits[:, [i for i in range(N) if (mask >> i) & 1]].sum(axis=1) % 2 for mask in masks],
        axis=1,
    )
    assert np.array_equal(monomial_signs(N, masks), 1.0 - 2.0 * parity)
    assert np.array_equal(monomial_signs(N, (0,))[:, 0], np.ones(2**N))


def test_hamiltonian_table_carries_its_monomial_data():
    N, mix = 4, make_mixture([(1, 0.3), (2, 0.9), (4, 0.4)])
    table = sample_hamiltonian(N, mix, seed=12)
    variances = monomial_variances(N, mix)
    assert 0 in table.masks
    assert np.array_equal(table.signs, monomial_signs(N, table.masks))
    assert np.array_equal(table.variances, np.array([variances[m] for m in table.masks]))
    assert np.array_equal(table.values, table.signs @ table.coefficients)


def test_zero_coupling_free_energy_is_deterministic():
    fe = exact_free_energy(3, make_mixture([(2, 0.0)]), 0.5, 200, seed=2)
    assert fe.mean == pytest.approx(LOG2COSH_HALF, abs=1e-12)
    assert fe.mean == pytest.approx(0.8132616875, abs=1e-9)
    assert fe.std_error < 1e-15


def test_single_site_free_energy():
    # F_1 = E[A_0] + log 2cosh(h) and the coefficient has mean zero
    fe = exact_free_energy(1, sk_mixture(0.6), 0.5, 400, seed=11)
    rec = identity_check("single_site", fe, Exact(LOG2COSH_HALF))
    assert rec.passed, (fe.mean, fe.std_error)


def test_free_energy_below_annealed():
    mix = sk_mixture(0.8)
    fe = exact_free_energy(6, mix, 0.0, 300, seed=21)
    annealed = math.log(2.0) + mix.xi(1.0) / 2.0
    assert fe.mean <= annealed + 3.0 * fe.std_error


def test_free_energy_deterministic_in_seed():
    a = exact_free_energy(4, sk_mixture(0.7), 0.2, 200, seed=33)
    b = exact_free_energy(4, sk_mixture(0.7), 0.2, 200, seed=33)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_size_and_power_limits():
    with pytest.raises(ValueError):
        sample_hamiltonian(0, sk_mixture(0.5), seed=1)
    with pytest.raises(ValueError):
        sample_hamiltonian(15, sk_mixture(0.5), seed=1)
    with pytest.raises(ValueError, match="enumeration limit"):
        monomial_variances(3, make_mixture([(6, 0.5)]))
    with pytest.raises(ValueError, match=">= 200"):
        exact_free_energy(3, sk_mixture(0.5), 0.0, 100, seed=1)


def test_verify_bound_argument_exclusivity():
    from cascadelab.mixture import RSBParams

    rsb = RSBParams.from_interior((1.0,), (0.5,))
    with pytest.raises(ValueError, match="exactly one"):
        verify_bound(3, sk_mixture(0.5), 0.0, 200, QUAD24, 1, rsb=rsb, optimize_k=1)
    with pytest.raises(ValueError, match="exactly one"):
        verify_bound(3, sk_mixture(0.5), 0.0, 200, QUAD24, 1)


def test_verify_bound_degenerate_mixture_margin_zero():
    # with no couplings every quantity is log 2cosh(h) exactly
    from cascadelab.mixture import RSBParams

    rsb = RSBParams.from_interior((1.0,), (0.5,))
    rec = verify_bound(
        3, make_mixture([(2, 0.0)]), 0.5, 200, QUAD24, seed=7, rsb=rsb
    )
    assert rec.passed
    assert rec.extras["mode"] == "fixed"
    assert rec.extras["k"] == 1
    assert abs(rec.extras["margin"]) < 1e-9
    assert rec.lhs == pytest.approx(LOG2COSH_HALF, abs=1e-12)


def test_verify_bound_optimized_mode():
    rec = verify_bound(
        4, sk_mixture(0.5), 0.0, 250, QUAD24, seed=9, optimize_k=1
    )
    assert rec.passed
    assert rec.extras["mode"] == "optimized"
    assert rec.extras["margin"] > 0.0
    assert len(rec.extras["params_m"]) == 2
    assert len(rec.extras["params_q"]) == 3
    assert rec.extras["stationarity"] <= 1e-6
    assert rec.rhs == pytest.approx(math.log(2.0) + 0.25 / 4.0, abs=1e-3)


def test_monomial_signs_built_once_and_read_only():
    N, mix = 4, make_mixture([(1, 0.3), (2, 0.9), (4, 0.4)])
    first = sample_hamiltonian(N, mix, seed=3)
    second = sample_hamiltonian(N, mix, seed=4)
    assert second.signs is first.signs
    assert monomial_signs(N, list(first.masks)) is first.signs
    assert not first.signs.flags.writeable
    with pytest.raises(ValueError):
        first.signs[0, 0] = 0.0
    fresh = _monomial_signs.__wrapped__(N, first.masks)
    assert fresh.flags.writeable is False and np.array_equal(fresh, first.signs)
    assert _monomial_signs.cache_info().maxsize is not None


def test_monomial_table_built_once_and_read_only():
    N, mix = 4, make_mixture([(1, 0.3), (2, 0.9), (4, 0.4)])
    masks, variances, signs, scales = monomial_table(N, mix)
    by_mask = monomial_variances(N, mix)
    assert masks == tuple(sorted(by_mask))
    assert np.array_equal(variances, [by_mask[m] for m in masks])
    assert np.array_equal(scales, np.sqrt(variances))
    assert signs is monomial_signs(N, masks)
    assert monomial_table(N, mix)[1] is variances
    table = sample_hamiltonian(N, mix, seed=3)
    assert table.variances is variances and table.signs is signs
    for array in (variances, scales):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert monomial_table.cache_info().maxsize is not None


@pytest.mark.parametrize("N", [1, 4, 9])
def test_spin_tables_built_once_and_read_only(N):
    spins, sums = spin_matrix(N), spin_sums(N)
    assert spin_matrix(N) is spins and spin_sums(N) is sums
    assert not spins.flags.writeable and not sums.flags.writeable
    with pytest.raises(ValueError):
        spins[0, 0] = 0.0
    with pytest.raises(ValueError):
        sums[0] = 0.0
    fresh = spin_matrix.__wrapped__(N)
    assert np.array_equal(fresh, spins) and fresh.dtype == spins.dtype
    assert np.array_equal(spin_sums.__wrapped__(N), fresh.sum(axis=1))


def _logsumexp_cases():
    rng = np.random.default_rng(17)
    for _ in range(300):
        shape = tuple(int(n) for n in rng.integers(1, 7, size=rng.integers(1, 3)))
        a = rng.normal(size=shape) * rng.choice([1.0, 40.0, 700.0])
        if rng.random() < 0.3:
            a = np.round(a)  # ties at the max
        if rng.random() < 0.3:
            a.flat[rng.integers(a.size)] = rng.choice([np.inf, -np.inf, np.nan])
        yield a
    yield np.full((3, 4), -np.inf)
    yield np.array([[1.0, np.inf, np.inf], [-np.inf, 2.0, 2.0]])
    yield np.array([[np.nan, 0.0], [-np.inf, -np.inf]])
    yield np.zeros((16, 1600))
    yield rng.normal(size=(16, 1600)) * 3.0


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (
        x.shape == y.shape
        and np.array_equal(x, y, equal_nan=True)
        and np.array_equal(np.signbit(x), np.signbit(y))
    )


def test_logsumexp_matches_scipy():
    # scipy 1.17 separates the maxima from the sum; older releases sum
    # every term, so only closeness holds there.
    exact = scipy.__version__.startswith("1.17.")
    for a in _logsumexp_cases():
        for axis in (None,) + tuple(range(a.ndim)):
            for keepdims in (False, True):
                got = logsumexp(a, axis=axis, keepdims=keepdims)
                with np.errstate(all="ignore"):
                    want = scipy.special.logsumexp(a, axis=axis, keepdims=keepdims)
                assert type(got) is type(want)
                if exact:
                    assert _same_bits(got, want), (a, axis, keepdims)
                else:
                    assert np.shape(got) == np.shape(want)
                    assert np.allclose(got, want, rtol=1e-14, atol=1e-15, equal_nan=True)
    assert logsumexp(np.full(5, -np.inf)) == -np.inf
    assert np.isnan(logsumexp([0.0, np.nan]))
    with pytest.raises(ValueError):
        logsumexp(np.zeros((2, 0)), axis=1)


def test_disorder_estimators_match_direct_loop():
    # replica rep draws its disorder from stream (seed, MODULE_SK, rep)
    mix, N, h, n, seed = make_mixture([(2, 0.8), (4, 0.3)]), 4, 0.3, 300, 41  # two chunks
    s1, s2 = (1, -1, 1, 1), (-1, -1, 1, -1)
    rows = [int(np.flatnonzero((spin_matrix(N) == s).all(axis=1))[0]) for s in (s1, s2)]
    free, cov = np.empty(n), np.empty(n)
    for rep in range(n):
        values = sample_hamiltonian(N, mix, derive_rng(seed, MODULE_SK, rep)).values
        free[rep] = float(logsumexp(values + h * spin_sums(N))) / N
        cov[rep] = values[rows[0]] * values[rows[1]]
    assert exact_free_energy(N, mix, h, n, seed) == Estimate.from_values(free)
    assert hamiltonian_covariance(N, mix, s1, s2, n, seed) == Estimate.from_values(cov / N)
