"""The in-package L-BFGS minimizer on problems with known answers."""

import numpy as np
import pytest

from cascadelab import lbfgs

GTOL, FTOL = 1e-11, 1e-13  # the bound search's tolerances


def _quadratic(n: int):
    """f(x) = (x - c)^T A (x - c) / 2 with A's eigenvalues spread over 1e-2..1e4.

    A = Q diag(lam) Q^T for a fixed rotation Q; the value is summed in the
    eigenbasis, so it rounds relative to f and the minimum value is 0.
    """
    lam = 10.0 ** np.linspace(-2.0, 4.0, n) if n > 1 else np.array([1e4])
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    c = np.linspace(-1.0, 2.0, n)

    def fun(x):
        z = q.T @ (x - c)
        return 0.5 * float(lam @ (z * z)), q @ (lam * z)

    return fun, c


@pytest.mark.parametrize("n", [1, 3, 5])
def test_converges_on_an_ill_scaled_quadratic(n):
    fun, c = _quadratic(n)
    res = lbfgs.minimize(fun, np.zeros(n), gtol=GTOL, ftol=FTOL)
    assert res.success, res.message
    assert np.abs(res.x - c).max() < 1e-6
    assert res.fun < 1e-12
    assert res.fun == fun(res.x)[0]


def _two_loop(g, pairs):
    """-H g by the textbook two-loop recursion (Nocedal & Wright, Algorithm 7.4)."""
    q, alphas = g.copy(), []
    for s, y in reversed(pairs):
        alphas.append((s @ q) / (s @ y))
        q -= alphas[-1] * y
    s, y = pairs[-1]
    q *= (s @ y) / (y @ y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        q += (a - (y @ q) / (s @ y)) * s
    return -q


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("m", [1, 4, 10])
def test_direction_matches_the_two_loop_recursion(n, m):
    rng = np.random.default_rng(10 * n + m)
    pairs = []
    while len(pairs) < m:
        s = rng.standard_normal(n)
        y = s * rng.uniform(0.5, 2.0, n) + 0.1 * rng.standard_normal(n)
        if s @ y > 0.0:
            pairs.append((s, y))
    g = rng.standard_normal(n)
    want = _two_loop(g, pairs)
    assert np.abs(lbfgs._direction(g, pairs) - want).max() <= 1e-12 * np.abs(want).max()


def test_stops_at_once_where_the_gradient_vanishes():
    calls = []

    def fun(x):
        calls.append(x)
        return float(x @ x), 2.0 * x

    res = lbfgs.minimize(fun, np.zeros(2), gtol=GTOL, ftol=FTOL)
    assert res.success and res.message == "max |g| <= gtol" and len(calls) == 1


def test_reports_failure_where_no_step_lowers_the_value():
    # the gradient points uphill, so every trial along -g raises f
    def fun(x):
        return float(x @ x), -2.0 * x

    x0 = np.array([1.0, -0.5, 2.0])
    res = lbfgs.minimize(fun, x0, gtol=GTOL, ftol=FTOL)
    assert not res.success
    assert res.message == "no step lowers the value"
    assert np.array_equal(res.x, x0)


@pytest.mark.parametrize("gnorm, success", [(1e-13, True), (4e-13, False)])
def test_a_failed_line_search_stops_when_its_predicted_decrease_meets_ftol(
    gnorm, success, monkeypatch
):
    # steepest descent tries alpha_0 = 1/|g| first, which predicts a decrease
    # of |g| / 2 against the ftol threshold 1e-13 max(|f|, 1) = 1e-13
    monkeypatch.setattr(lbfgs, "_line_search", lambda fun, x, f, g, d, alpha: (False, 0.0, f, g))

    def fun(x):
        return 1.0, np.array([gnorm])

    res = lbfgs.minimize(fun, np.zeros(1), gtol=1e-15, ftol=FTOL)
    assert res.success is success
    if success:
        assert res.message == "predicted decrease <= ftol"
