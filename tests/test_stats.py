"""Estimate arithmetic and the one tolerance rule every check uses."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascadelab.stats import CheckRecord, Estimate, Exact, identity_check


def test_estimate_from_values():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    est = Estimate.from_values(vals)
    assert est.mean == pytest.approx(2.5)
    assert est.std_error == pytest.approx(np.std(vals, ddof=1) / 2.0)
    assert est.replicas == 4
    assert est.allowance == 0.0


def test_estimate_carries_allowance():
    est = Estimate.from_values(np.array([1.0, 1.0, 1.0]), allowance=0.2)
    assert est.allowance == 0.2
    assert est.std_error == 0.0


def test_estimate_from_pairs_matches_from_values():
    rows = np.random.default_rng(4).normal(size=(37, 3, 2)) ** 2
    for j in range(3):
        pairs = rows[:, j]
        expected = Estimate.from_values(pairs[:, 0], allowance=float(pairs[:, 1].mean()))
        assert Estimate.from_pairs(pairs) == expected
    assert Estimate.from_pairs(rows[:, 1].tolist()) == Estimate.from_pairs(rows[:, 1])


def test_estimate_rejects_non_finite_values():
    with pytest.raises(FloatingPointError, match="replica 2 "):
        Estimate.from_values(np.array([1.0, 2.0, np.nan, np.inf]))
    for bad in ({"mean": np.nan}, {"std_error": np.inf}, {"allowance": np.nan}):
        fields = {"mean": 1.0, "std_error": 0.1, "replicas": 10, **bad}
        with pytest.raises(FloatingPointError):
            Estimate(**fields)


def test_identity_check_pass_and_fail():
    lhs = Estimate.from_values(np.array([0.99, 1.01, 1.0, 1.0]))
    rec = identity_check("close", lhs, Exact(1.0))
    assert rec.passed
    assert rec.tolerance == pytest.approx(3.0 * lhs.std_error)
    rec = identity_check("far", lhs, Exact(2.0))
    assert not rec.passed


def test_identity_check_combines_ses():
    a = Estimate.from_values(np.array([0.0, 2.0, 0.0, 2.0]))
    b = Estimate.from_values(np.array([1.0, 3.0, 1.0, 3.0]))
    rec = identity_check("pair", a, b)
    assert rec.tolerance == pytest.approx(
        3.0 * np.hypot(a.std_error, b.std_error)
    )
    assert rec.lhs_se == a.std_error and rec.rhs_se == b.std_error


def test_identity_check_adds_allowances():
    a = Estimate.from_values(np.array([1.0, 1.0, 1.0]), allowance=0.05)
    b = Estimate.from_values(np.array([1.2, 1.2, 1.2]), allowance=0.05)
    # zero SE on both sides: the gap 0.2 must be covered by allowances
    rec = identity_check("allow", a, b, allowance=0.1)
    assert rec.tolerance == pytest.approx(0.2)
    assert rec.passed
    rec = identity_check("allow", a, b)
    assert not rec.passed


def test_tolerance_multiplier_scales():
    a = Estimate.from_values(np.array([0.0, 1.0, 0.0, 1.0]))
    strict = identity_check("s", a, Exact(0.5), tolerance_multiplier=1.0)
    loose = identity_check("l", a, Exact(0.5), tolerance_multiplier=5.0)
    assert loose.tolerance == pytest.approx(5.0 * strict.tolerance)


def test_record_json_shape():
    rec = identity_check("named", Exact(1.0), Exact(1.0), extras={"t": 0.5})
    out = rec.to_json_dict()
    assert out["name"] == "named"
    assert out["pass"] is True
    assert out["t"] == 0.5
    assert set(out) >= {"name", "lhs", "lhs_se", "rhs", "rhs_se", "tolerance", "pass"}


def test_plain_floats_accepted():
    rec = identity_check("floats", 1.0, 1.0 + 1e-12, allowance=1e-8)
    assert rec.passed and rec.lhs_se == 0.0


@given(
    shift=st.floats(-0.5, 0.5),
    scale=st.floats(0.01, 2.0),
)
def test_pass_rule_is_symmetric(shift, scale):
    rng = np.random.default_rng(0)
    vals = rng.normal(0.0, scale, size=50)
    a = Estimate.from_values(vals)
    b = Estimate.from_values(vals + shift)
    assert identity_check("ab", a, b).passed == identity_check("ba", b, a).passed
