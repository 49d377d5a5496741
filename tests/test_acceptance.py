"""Acceptance battery: one criterion per test, one printed line per criterion.

Each test prints "[criterion NN] PASS/FAIL ..." through the capture manager
so the lines reach the real terminal even under pytest's fd capture, then
asserts both the checks and the wall-clock budget.  All runs are seeded; a
pass is reproducible bit for bit.
"""

import json
import math
import os
import time

import pytest

from cascadelab.cascade import log_partition_identity, overlap_mass, tilted_average
from cascadelab.cli import MARK_PRESETS, run
from cascadelab.functionals import PairFunctional, PathFunctional
from cascadelab.interpolation import (
    derivative_check,
    error_term_check,
    gibbs_overlap_mass,
)
from cascadelab.mixture import RSBParams, sk_mixture
from cascadelab.pd_process import (
    corollary_moments,
    estimate_pair_sum,
    verify_invariance,
)
from cascadelab.recursion import QuadratureSpec, mu_r_quadrature, optimize_bound
from cascadelab.sk_model import verify_bound
from cascadelab.stats import Exact, identity_check

QUAD = QuadratureSpec(nodes_per_level=40)
QUAD24 = QuadratureSpec(nodes_per_level=24, convergence_check=False)
QUAD14 = QuadratureSpec(nodes_per_level=14, convergence_check=False)

RSB2 = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))

_CAPTURE = None


@pytest.fixture(autouse=True)
def _console(request):
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(number: int, label: str, limit_s: float, started: float, failures):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed <= limit_s
    detail = f" failing: {', '.join(failures)}" if failures else ""
    line = (
        f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {label} "
        f"({elapsed:.1f}s / {limit_s:.0f}s){detail}"
    )
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(f"\n{line}", flush=True)
    else:
        print(line, flush=True)
    assert not failures, line
    assert elapsed <= limit_s, line


def _collect(failures, record):
    if not record.passed:
        failures.append(record.name)
    return record


def test_criterion_01_pair_sum():
    started = time.perf_counter()
    failures = []
    for i, m in enumerate((0.3, 0.5, 0.7)):
        est = estimate_pair_sum(m, 100_000, 5000, seed=1101 + i)
        _collect(failures, identity_check(f"pair_sum_m{m}", est, Exact(1.0 - m)))
    _report(1, "source pair-sum E sum w^2 = 1 - m", 60, started, failures)


def test_criterion_02_moment_identities():
    started = time.perf_counter()
    failures = []
    for j, family in enumerate(("lognormal", "two_point")):
        spec = MARK_PRESETS[family]
        for name, lhs, rhs in corollary_moments(0.5, spec, 5000, 20_000, seed=1201 + j):
            _collect(failures, identity_check(f"{family}_{name}", lhs, rhs))
    _report(2, "marked-process moment identities, two families", 120, started, failures)


def test_criterion_03_tilt_invariance():
    started = time.perf_counter()
    failures = []
    for j, family in enumerate(("lognormal", "two_point")):
        spec = MARK_PRESETS[family]
        for i, statistic in enumerate(("pair_sum", "max_weight", "mean_mark")):
            marked, tilted = verify_invariance(
                0.5, spec, statistic, 2000, 20_000, seed=1301 + 10 * j + i
            )
            _collect(
                failures,
                identity_check(f"{family}_{statistic}", marked, tilted),
            )
    _report(3, "tilted vs scaled process statistics", 120, started, failures)


def test_criterion_04_cascade_overlap_masses():
    started = time.perf_counter()
    failures = []
    targets = {1: 0.4, 2: 0.4, 3: 0.2}
    # one pass for every level: the estimates telescope per realization
    estimates = overlap_mass(RSB2, 200, 2000, seed=1401)
    for r, target in targets.items():
        est = estimates[r - 1]
        _collect(failures, identity_check(f"overlap_mass_r{r}", est, Exact(target)))
    _report(4, "cascade overlap masses m_r - m_(r-1)", 120, started, failures)


def test_criterion_05_log_partition():
    started = time.perf_counter()
    failures = []
    cases = [
        ("k1_linear", RSBParams.from_interior((0.5,), (0.5,)), (0.8,),
         PathFunctional("linear", coeffs=(0.6,))),
        ("k1_logcosh", RSBParams.from_interior((0.5,), (0.5,)), (0.8,),
         PathFunctional("logcosh_sum", scale=1.2)),
        ("k2_linear", RSB2, (0.7, 0.5),
         PathFunctional("linear", coeffs=(0.6, 0.4))),
        ("k2_logcosh", RSB2, (0.7, 0.5),
         PathFunctional("logcosh_sum", scale=1.2)),
    ]
    for i, (name, rsb, taus, x_fn) in enumerate(cases):
        est, reference = log_partition_identity(
            rsb, 150, x_fn, taus, 400, 1501 + i, QUAD
        )
        _collect(failures, identity_check(name, est, Exact(reference)))
    _report(5, "log-partition MC vs quadrature root", 120, started, failures)


def test_criterion_06_tilted_averages():
    started = time.perf_counter()
    failures = []
    x_fn = PathFunctional("linear", coeffs=(0.6, 0.4))
    taus = (0.7, 0.5)
    plain_cases = [
        ("tilted_linear", PathFunctional("linear", coeffs=(0.5, 0.3))),
        ("tilted_quadratic", PathFunctional("quadratic", coeffs=(0.5, 0.3))),
    ]
    for i, (name, y_fn) in enumerate(plain_cases):
        est, reference = tilted_average(
            RSB2, 100, x_fn, y_fn, taus, 400, 1601 + i, QUAD
        )
        _collect(failures, identity_check(name, est, Exact(reference)))
    pair = PairFunctional("pair_product", PathFunctional("linear", coeffs=(0.5, 0.3)))
    for r in (1, 2):
        est, reference = tilted_average(
            RSB2, 100, x_fn, pair, taus, 400, 1611 + r, QUAD, restricted_r=r
        )
        _collect(failures, identity_check(f"tilted_restricted_r{r}", est, Exact(reference)))
    _report(6, "tilted cascade averages vs quadrature", 180, started, failures)


def test_criterion_07_bound_vs_exact():
    started = time.perf_counter()
    failures = []
    for i, (beta, h) in enumerate([(0.6, 0.0), (0.6, 0.3), (1.5, 0.0), (1.5, 0.3)]):
        record = verify_bound(
            10, sk_mixture(beta), h, 2000, QUAD24, seed=1701 + i, optimize_k=2
        )
        if not record.passed:
            failures.append(f"beta={beta}_h={h}")
        if beta == 1.5 and h == 0.0:
            k2_bound = record.rhs
    k1 = optimize_bound(sk_mixture(1.5), 0.0, 1, QUAD24)
    if not k2_bound < k1.value - 1e-5:
        failures.append("k2_strictly_below_k1")
    _report(7, "free energy below optimized two-level bound, N=10", 300, started, failures)


def test_criterion_08_rs_closed_form():
    started = time.perf_counter()
    failures = []
    opt = optimize_bound(sk_mixture(0.4), 0.0, 1, QUAD24)
    target = math.log(2.0) + 0.4**2 / 4.0
    if abs(opt.value - target) > 1e-3:
        failures.append(f"value={opt.value:.6f} target={target:.6f}")
    _report(8, "replica-symmetric closed form log2 + beta^2/4", 30, started, failures)


def test_criterion_09_derivative_identity():
    started = time.perf_counter()
    failures = []
    rsb = RSBParams.from_interior((0.4, 0.95), (0.3, 0.6))
    report = derivative_check(4, 0.5, sk_mixture(0.5), rsb, 50, 0.3, 400, seed=1901)
    _collect(failures, report.record)
    _report(9, "interpolation derivative, pathwise vs formula", 300, started, failures)


def test_criterion_10_gibbs_overlap_masses():
    started = time.perf_counter()
    failures = []
    rsb = RSBParams.from_interior((0.4, 0.95), (0.3, 0.6))
    targets = {1: 0.4, 2: 0.55, 3: 0.05}
    for i, t in enumerate((0.1, 0.9)):
        estimates = gibbs_overlap_mass(
            4, t, sk_mixture(0.5), rsb, 100, 0.3, 500, seed=2001 + 10 * i
        )
        for r, target in targets.items():
            est = estimates[r - 1]
            _collect(failures, identity_check(f"t{t}_r{r}", est, Exact(target)))
    _report(10, "joint-measure overlap masses at two times", 180, started, failures)


def test_criterion_11_error_term_and_mu():
    started = time.perf_counter()
    failures = []
    mix = sk_mixture(0.5)
    rsb = RSBParams.from_interior((0.3, 0.6), (0.3, 0.6))
    for r in (1, 2):
        [report] = error_term_check(4, 0.5, [r], mix, rsb, 60, 0.3, 150, seed=2101 + r)
        _collect(failures, report.record)
    # independent quadrature cross-check of the coupled average at N=1
    [mc] = error_term_check(1, 0.5, [1], mix, rsb, 60, 0.3, 250, seed=2111)
    ref = mu_r_quadrature(1, 2, 1, mix, rsb, 0.3, 0.5, "delta_overlap", QUAD14)
    _collect(
        failures,
        identity_check("mu_cross_check", mc.coupled_average, Exact(ref.value)),
    )
    if abs(ref.value - ref.value_v_form) > 1e-8:
        failures.append("variance_form_disagrees")
    for r in (1, 2):
        unit = mu_r_quadrature(1, 2, r, mix, rsb, 0.3, 0.5, "one", QUAD14)
        if abs(unit.value - 1.0) > 1e-8:
            failures.append(f"normalization_r{r}")
        if unit.chain_max_diff > 1e-8:
            failures.append(f"chain_factorization_r{r}")
    _report(11, "coupled error term and tilted-average quadrature", 300, started, failures)


def test_criterion_12_determinism(tmp_path):
    started = time.perf_counter()
    failures = []
    outputs = []
    saved = os.environ.get("CASCADELAB_WORKERS")
    path = tmp_path / "report.json"
    try:
        for workers in (1, 4):
            os.environ["CASCADELAB_WORKERS"] = str(workers)
            rc = run(
                ["verify-all", "--preset", "smoke", "--seed", "2026",
                 "--json-out", str(path)]
            )
            if rc != 0:
                failures.append(f"exit_{rc}_workers_{workers}")
                break
            data = json.loads(path.read_text())
            if not data["pass"]:
                failures.append(f"verify_all_failed_workers_{workers}")
            data.pop("generated_at")
            outputs.append(json.dumps(data, sort_keys=True))
    finally:
        if saved is None:
            os.environ.pop("CASCADELAB_WORKERS", None)
        else:
            os.environ["CASCADELAB_WORKERS"] = saved
    if len(outputs) == 2 and outputs[0] != outputs[1]:
        failures.append("reports_differ")
    _report(12, "verify-all byte-stable across worker counts", 1800, started, failures)
