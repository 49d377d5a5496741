"""Mixture function, theta/delta, and parameter-sequence validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascadelab.mixture import (
    MixtureFunction,
    RSBParams,
    delta,
    delta_array,
    make_mixture,
    sk_mixture,
    theta,
)


def test_sk_xi_value():
    # xi(x) = beta^2 x^2 / 2 at beta = 1
    assert sk_mixture(1.0).xi(0.5) == pytest.approx(0.125, abs=1e-15)


def test_xi_zero_at_origin():
    for mix in (sk_mixture(0.7), make_mixture([(2, 1.0), (4, 0.5)])):
        assert mix.xi(0.0) == 0.0


def test_xi_prime_matches_finite_difference():
    # independent oracle: central difference of xi itself
    mix = make_mixture([(2, 1.0), (4, 0.5)])
    x, eps = 0.3, 1e-6
    fd = (mix.xi(x + eps) - mix.xi(x - eps)) / (2 * eps)
    assert mix.xi_prime(x) == pytest.approx(fd, abs=1e-8)


def test_theta_sk_at_one():
    assert theta(sk_mixture(1.0), 1.0) == pytest.approx(0.5, abs=1e-15)


def test_theta_zero_at_origin():
    assert theta(make_mixture([(2, 0.9), (4, 0.3)]), 0.0) == 0.0


def test_theta_pure_quartic():
    # theta(x) = (p - 1) beta_p^2 x^p for a pure power; frozen oracle
    # 3 * 0.5^4 = 0.1875
    assert theta(make_mixture([(4, 1.0)]), 0.5) == pytest.approx(0.1875, abs=1e-15)


def test_delta_vanishes_on_diagonal():
    mix = make_mixture([(2, 1.0), (4, 0.5)])
    assert delta(mix, 0.37, 0.37) == pytest.approx(0.0, abs=1e-12)


def test_delta_sk_closed_form():
    # for xi = x^2/2, Delta(a, b) = (a - b)^2 / 2; frozen oracle 0.08
    assert delta(sk_mixture(1.0), 0.2, 0.6) == pytest.approx(0.08, abs=1e-12)


def test_delta_extreme_pair():
    # (a - b)^2 / 2 = 2 at the extreme points for xi = x^2/2
    assert delta(sk_mixture(1.0), -1.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert delta(make_mixture([(2, 1.0)]), -1.0, 1.0) >= 0.0


@given(
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
    beta2=st.floats(0.0, 2.0),
    beta4=st.floats(0.0, 2.0),
)
def test_delta_nonnegative(a, b, beta2, beta4):
    mix = make_mixture([(2, beta2), (4, beta4)])
    assert delta(mix, a, b) >= -1e-12


def test_delta_array_matches_scalar():
    mix = make_mixture([(2, 0.8), (4, 0.4)])
    grid = np.linspace(-1.0, 1.0, 11)
    arr = delta_array(mix, grid, 0.3)
    for x, v in zip(grid, arr):
        assert v == pytest.approx(delta(mix, float(x), 0.3), abs=1e-14)


def test_odd_powers_rejected():
    with pytest.raises(ValueError):
        make_mixture([(3, 0.5)])
    # zero coefficient on an odd power is harmless
    make_mixture([(2, 1.0), (3, 0.0)])


def test_fractional_power_rejected_not_truncated():
    assert make_mixture([(2.0, 0.7)]) == make_mixture([(2, 0.7)])
    assert type(make_mixture([(2.0, 0.7)]).coefficients[0][0]) is int
    with pytest.raises(ValueError, match="whole number"):
        make_mixture([(2.5, 0.7)])


def test_empty_and_negative_rejected():
    with pytest.raises(ValueError):
        make_mixture([])
    with pytest.raises(ValueError):
        make_mixture([(2, -0.1)])
    with pytest.raises(ValueError):
        make_mixture([(2, 1.0), (2, 0.5)])


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_non_finite_beta_rejected(beta):
    with pytest.raises(ValueError, match="beta_2 must be finite"):
        make_mixture([(2, beta)])


@pytest.mark.parametrize(
    "pairs, name",
    [
        ([(2, 1e155)], "xi(1)"),  # beta^2 overflows
        ([(2, 1e154)], "xi'(1)"),  # beta^2 = 1e308, p beta^2 overflows
        ([(2, 0.5), (4, 6e153)], "xi''(1)"),  # only p (p - 1) beta^2 overflows
    ],
)
def test_overflowing_mixture_rejected_by_name(pairs, name):
    with pytest.raises(ValueError) as info:
        make_mixture(pairs)
    assert str(info.value) == f"mixture {pairs} overflows: {name} = inf"


def test_largest_finite_mixture_accepted():
    mix = make_mixture([(2, 1e153), (4, 1e153)])
    assert math.isfinite(mix.xi_second(1.0))


def test_rsb_sequence_validation():
    RSBParams(k=2, m=(0.0, 0.4, 0.8), q=(0.0, 0.3, 0.6, 1.0))
    with pytest.raises(ValueError, match="not strictly increasing"):
        RSBParams(k=2, m=(0.0, 0.8, 0.4), q=(0.0, 0.3, 0.6, 1.0))
    with pytest.raises(ValueError, match="m_0"):
        RSBParams(k=1, m=(0.1, 0.5), q=(0.0, 0.3, 1.0))
    with pytest.raises(ValueError, match="length"):
        RSBParams(k=2, m=(0.0, 0.4), q=(0.0, 0.3, 0.6, 1.0))
    with pytest.raises(ValueError, match="q_0"):
        RSBParams(k=1, m=(0.0, 0.5), q=(0.1, 0.3, 1.0))


def test_rsb_from_interior_round_trip():
    rsb = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
    assert rsb.k == 2
    assert rsb.m == (0.0, 0.4, 0.8)
    assert rsb.q == (0.0, 0.3, 0.6, 1.0)
    assert rsb.m_interior == (0.4, 0.8)
    assert rsb.q_interior == (0.3, 0.6)


def test_rsb_endpoint_allowed_but_not_simulable():
    rsb = RSBParams.from_interior((0.5, 1.0), (0.3, 0.6))
    with pytest.raises(ValueError):
        rsb.requires_simulable()


def test_variances_sum_to_xi_prime_one():
    mix = make_mixture([(2, 1.0), (4, 0.5)])
    rsb = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
    v = rsb.variances(mix)
    assert len(v) == rsb.k + 1
    assert float(v.sum()) == pytest.approx(mix.xi_prime(1.0), abs=1e-12)
    # column l spans (q_l, q_{l+1})
    for level in range(rsb.k + 1):
        expect = mix.xi_prime(rsb.q[level + 1]) - mix.xi_prime(rsb.q[level])
        assert v[level] == pytest.approx(expect, abs=1e-12)


def test_root_variance_carries_the_linear_term():
    # xi'(0) = 0.49 is shared by every leaf, so the root column keeps it
    mix = make_mixture([(1, 0.7), (2, 1.0)])
    rsb = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
    v = rsb.variances(mix)
    assert v[0] == mix.xi_prime(0.3)
    assert float(v.sum()) == pytest.approx(mix.xi_prime(1.0), abs=1e-12)


def test_xi_second_matches_finite_difference():
    for mix in (sk_mixture(0.7), make_mixture([(1, 0.6), (2, 1.0), (4, 0.5)])):
        for x in (0.0, 0.3, 0.9):
            eps = 1e-6
            fd = (mix.xi_prime(x + eps) - mix.xi_prime(x - eps)) / (2 * eps)
            assert mix.xi_second(x) == pytest.approx(fd, abs=1e-8)


def test_xi_second_of_a_linear_term_is_zero():
    mix = make_mixture([(1, 0.6)])
    assert mix.xi_second(0.0) == 0.0
    assert np.array_equal(mix.xi_second(np.array([0.0, 0.5])), [0.0, 0.0])
