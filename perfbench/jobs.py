"""The benchmark's workloads: jobs that end in a report the benchmark checks.

A job drives cascadelab the way its users do, through ``cascadelab.cli.run``
or, where a computation has no command, through a library call.  Every job
returns its ``Checks``: the problems found, none when the report held.
Checks are made against computations done here, apart from the program
(the pair-sum and overlap-mass targets, a 1-D Gauss-Hermite bound, the
annealed free energy), or against properties the method must have (masses
that share draws sum to one, Delta >= 0, a normalised chain integrates to
one).  Record checks recompute ``|lhs - rhs| <= tolerance`` from each
record's own fields instead of trusting its ``pass`` flag.

A job fails when the program exits non-zero or raises, or when a check
finds a problem; the problems found in a report the program passed are
wrong output the program did not notice.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see these calls too.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cascadelab import cli, functionals, mixture, recursion

# Mixtures are written as [p, beta_p] pairs with xi(x) = sum beta_p^2 x^p.
SAMPLING_N_MAX = 100_000
SAMPLING_REPLICAS = 100
CASCADE_B = 200
CASCADE_REPLICAS = 60
CASCADE_M = [0.4, 0.8]
CASCADE_Q = [0.3, 0.6]

QUAD_BETA = 0.4  # high temperature: the k = 1 optimum has a closed form
QUAD_MIXTURE = [[2, QUAD_BETA / math.sqrt(2.0)]]
QUAD_OPT_NODES = 12
QUAD_SCAN = [0.02, 0.8, 40]
REFERENCE_NODES = 80
BOUND_RTOL = 1e-8
CLOSED_FORM_TOL = 1e-6

INTERP_N = 4
INTERP_B = 40
INTERP_H = 0.3
INTERP_MIXTURE = [[2, 0.5 / math.sqrt(2.0)]]
INTERP_M = [0.4, 0.8]
INTERP_Q = [0.3, 0.6]
ERROR_M = [0.3, 0.6]
ERROR_Q = [0.3, 0.6]
SK_N = 10

SMOKE_RECORDS = 28
# Records that hold when lhs <= rhs + tolerance: a free energy below its bound.
ONE_SIDED = ("free_energy_bound",)
MASS_SUM_TOL = 1e-9


class Checks:
    """Collects the problems one job's checks find."""

    def __init__(self):
        self.problems: list[str] = []
        self.program_failed = False  # the program itself reported a failure

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def records(self, report: dict) -> list:
        """Recompute every record's verdict from its own fields."""
        for rec in report["records"]:
            gap = rec["lhs"] - rec["rhs"]
            if rec["name"] not in ONE_SIDED:
                gap = abs(gap)
            held = math.isfinite(gap) and gap <= rec["tolerance"]
            self.expect(held, f"{rec['name']}: gap {gap:.3g} > tolerance {rec['tolerance']:.3g}")
            self.expect(held == rec["pass"], f"{rec['name']}: pass flag {rec['pass']} disagrees")
        return report["records"]


def cli_report(argv: list, checks: Checks) -> dict:
    """Run one command in-process and return its parsed report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if not out.getvalue():
        raise RuntimeError(f"{argv[0]} exited {code} without a report: {err.getvalue().strip()}")
    report = json.loads(out.getvalue())
    if code != 0:
        checks.program_failed = True
        checks.problems.append(f"{argv[0]} exited {code}")
    checks.expect(report["pass"] == (code == 0), f"{argv[0]}: report pass disagrees with exit {code}")
    return report


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def expected_masses(m_interior) -> list:
    """m_r - m_{r-1} for r = 1..k+1, with m_0 = 0 and m_{k+1} = 1."""
    ladder = [0.0, *m_interior, 1.0]
    return [hi - lo for lo, hi in zip(ladder, ladder[1:])]


def _xi(pairs, x: float) -> float:
    return sum(beta**2 * x**p for p, beta in pairs)


def _xi_prime(pairs, x: float) -> float:
    return sum(p * beta**2 * x ** (p - 1) for p, beta in pairs)


def rs_bound(pairs, h: float, q: float) -> float:
    """The k = 1, m = 1 bound by 1-D Gauss-Hermite quadrature.

    E log 2cosh(h + z sqrt(xi'(q))) + (xi'(1) - xi'(q))/2 - theta(1)/2
    + theta(q)/2, with theta(x) = x xi'(x) - xi(x).
    """
    z, w = np.polynomial.hermite_e.hermegauss(REFERENCE_NODES)
    x = h + z * math.sqrt(_xi_prime(pairs, q))
    log2cosh = np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x)))
    mean = float(w @ log2cosh) / math.sqrt(2.0 * math.pi)

    def theta(v):
        return v * _xi_prime(pairs, v) - _xi(pairs, v)

    return mean + (_xi_prime(pairs, 1.0) - _xi_prime(pairs, q)) / 2 - theta(1.0) / 2 + theta(q) / 2


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One operation: ``run(seed, shared)`` returns its ``Checks``.

    ``shared`` carries results between the jobs of one round, so a later
    job can be checked against an earlier one.
    """

    name: str
    run: Callable[[int, dict], Checks]


def _pd_job(family: str, statistic: str, m: float) -> Callable:
    def run(seed: int, shared: dict) -> Checks:
        checks = Checks()
        report = cli_report(
            ["pd", "--m", f"[{m}]", "--mark-family", family, "--statistic", statistic,
             "--n_max", str(SAMPLING_N_MAX), "--replicas", str(SAMPLING_REPLICAS),
             "--seed", str(seed)],
            checks,
        )
        records = checks.records(report)
        pair = [rec for rec in records if rec["name"].startswith("pd_pair_sum")]
        checks.expect(len(pair) == 1, f"expected one pair-sum record, got {len(pair)}")
        for rec in pair:
            gap = abs(rec["lhs"] - (1.0 - m))
            checks.expect(gap <= rec["tolerance"], f"pair sum {rec['lhs']} vs 1 - m = {1.0 - m}")
        checks.expect(len(records) == 5, f"pd reported {len(records)} records, expected 5")
        return checks

    return run


def _cascade_job(seed: int, shared: dict) -> Checks:
    checks = Checks()
    report = cli_report(
        ["cascade", "--m", json.dumps(CASCADE_M), "--q", json.dumps(CASCADE_Q),
         "--b", str(CASCADE_B), "--replicas", str(CASCADE_REPLICAS), "--seed", str(seed)],
        checks,
    )
    records = checks.records(report)
    masses = expected_masses(CASCADE_M)
    checks.expect(len(records) == len(masses), f"{len(records)} mass records, expected {len(masses)}")
    total = sum(rec["lhs"] for rec in records)
    checks.expect(abs(total - 1.0) <= MASS_SUM_TOL, f"overlap masses sum to {total!r}")
    for rec, target in zip(records, masses):
        checks.expect(
            abs(rec["lhs"] - target) <= rec["tolerance"],
            f"{rec['name']} = {rec['lhs']} vs m_r - m_(r-1) = {target}",
        )
    return checks


def _optimize_job(k: int) -> Callable:
    def run(seed: int, shared: dict) -> Checks:
        checks = Checks()
        report = cli_report(
            ["optimize", "--mixture", json.dumps(QUAD_MIXTURE), "--k", str(k),
             "--h", "0", "--nodes", str(QUAD_OPT_NODES)],
            checks,
        )
        value = report["result"]["bound"]
        checks.expect(math.isfinite(value), f"k = {k} optimum {value}")
        if k == 1:
            closed = math.log(2.0) + QUAD_BETA**2 / 4.0
            checks.expect(
                abs(value - closed) <= CLOSED_FORM_TOL,
                f"k = 1 optimum {value!r} vs log 2 + beta^2/4 = {closed!r}",
            )
        else:
            k1 = shared["optimum_k1"]
            checks.expect(value <= k1 + BOUND_RTOL, f"k = {k} optimum {value!r} above k = 1 optimum {k1!r}")
        shared[f"optimum_k{k}"] = value
        return checks

    return run


def fixed_q(seed: int) -> float:
    """The seed's interior overlap for the fixed-parameter bound."""
    return 0.1 + 0.8 * (seed % 1000) / 1000.0


def _bound_job(seed: int, shared: dict) -> Checks:
    checks = Checks()
    q = fixed_q(seed)
    report = cli_report(
        ["bound", "--mixture", json.dumps(QUAD_MIXTURE), "--m", "[1.0]", "--q", f"[{q!r}]", "--h", "0"],
        checks,
    )
    value = report["result"]["bound"]
    reference = rs_bound(QUAD_MIXTURE, 0.0, q)
    checks.expect(_close(value, reference, BOUND_RTOL), f"bound at q = {q}: {value!r} vs {reference!r}")
    checks.expect(value >= shared["optimum_k1"] - BOUND_RTOL, f"bound {value!r} below the k = 1 optimum")
    return checks


def _scan_job(out_dir: Path) -> Callable:
    def run(seed: int, shared: dict) -> Checks:
        checks = Checks()
        path = out_dir / "scan_q1.csv"
        report = cli_report(
            ["bound", "--mixture", json.dumps(QUAD_MIXTURE), "--m", "[1.0]", "--h", "0",
             "--scan-q1", json.dumps(QUAD_SCAN), "--csv-out", str(path)],
            checks,
        )
        with open(path, newline="") as fh:
            rows = [(float(q1), float(b)) for q1, b in list(csv.reader(fh))[1:]]
        checks.expect(len(rows) == QUAD_SCAN[2], f"scan has {len(rows)} rows")
        for q1, value in rows:
            reference = rs_bound(QUAD_MIXTURE, 0.0, q1)
            checks.expect(_close(value, reference, BOUND_RTOL), f"scan q1 = {q1}: {value!r} vs {reference!r}")
        lowest = min(value for _, value in rows)
        checks.expect(report["result"]["minimum_bound"] == lowest, "reported scan minimum is not the CSV minimum")
        checks.expect(lowest >= shared["optimum_k1"] - BOUND_RTOL, f"scan minimum {lowest!r} below the k = 1 optimum")
        return checks

    return run


def _chain_job(seed: int, shared: dict) -> Checks:
    """Normalisation and a closed form of the tensor-quadrature chains."""
    checks = Checks()
    rsb = mixture.RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
    quad = recursion.QuadratureSpec(nodes_per_level=24, convergence_check=False)
    tau = (0.7, 0.5)
    x_fn = functionals.PathFunctional("logcosh_sum", scale=1.2)
    one = functionals.PairFunctional("pair_product", functionals.PathFunctional("constant", value=1.0))
    coeffs = (0.5, 0.3)
    y_lin = functionals.PairFunctional("pair_product", functionals.PathFunctional("linear", coeffs=coeffs))
    zero = functionals.PathFunctional("constant", value=0.0)
    for r in (1, 2):
        unit = recursion.mark_chain_restricted(x_fn, one, rsb, tau, r, quad)
        checks.expect(abs(unit - 1.0) <= 1e-10, f"restricted chain r = {r} integrates to {unit!r}")
        # With X = 0 every weight is 1: E y(a) y(b) = sum over shared levels.
        plain = recursion.mark_chain_restricted(zero, y_lin, rsb, tau, r, quad)
        closed = sum(coeffs[ell] ** 2 * tau[ell] ** 2 for ell in range(r - 1))
        checks.expect(abs(plain - closed) <= 1e-10, f"restricted chain r = {r}: {plain!r} vs {closed!r}")
    mix = mixture.sk_mixture(0.5)
    rsb_e = mixture.RSBParams.from_interior((0.3, 0.6), (0.3, 0.6))
    quad_mu = recursion.QuadratureSpec(nodes_per_level=14, convergence_check=False)
    for r in (1, 2):
        unit = recursion.mu_r_quadrature(1, 2, r, mix, rsb_e, 0.3, 0.5, "one", quad_mu)
        checks.expect(abs(unit.value - 1.0) <= 1e-12, f"mu_{r}(1) = {unit.value!r}")
        checks.expect(unit.chain_max_diff <= 1e-8, f"mu_{r} chain difference {unit.chain_max_diff!r}")
    delta = recursion.mu_r_quadrature(1, 2, 1, mix, rsb_e, 0.3, 0.5, "delta_overlap", quad_mu)
    checks.expect(delta.value >= 0.0, f"mu_1(Delta) = {delta.value!r} < 0")
    return checks


def _interp_argv(check: str, seed: int, replicas: int, m=INTERP_M, q=INTERP_Q, extra=()) -> list:
    return [
        "interpolate", "--check", check, "--N", str(INTERP_N), "--b", str(INTERP_B),
        "--mixture", json.dumps(INTERP_MIXTURE), "--h", str(INTERP_H),
        "--m", json.dumps(m), "--q", json.dumps(q),
        "--replicas", str(replicas), "--seed", str(seed), *extra,
    ]


def _interp_job(check: str, replicas: int, expect_records: int) -> Callable:
    def run(seed: int, shared: dict) -> Checks:
        checks = Checks()
        report = cli_report(_interp_argv(check, seed, replicas), checks)
        records = checks.records(report)
        checks.expect(len(records) == expect_records, f"{check}: {len(records)} records")
        return checks

    return run


def _gibbs_overlap_job(seed: int, shared: dict) -> Checks:
    checks = Checks()
    report = cli_report(_interp_argv("overlap", seed, 60, extra=("--t", "0.9")), checks)
    records = checks.records(report)
    masses = expected_masses(INTERP_M)
    checks.expect(len(records) == len(masses), f"{len(records)} Gibbs mass records")
    total = sum(rec["lhs"] for rec in records)
    checks.expect(abs(total - 1.0) <= MASS_SUM_TOL, f"Gibbs overlap masses sum to {total!r}")
    for rec, target in zip(records, masses):
        checks.expect(abs(rec["lhs"] - target) <= rec["tolerance"], f"{rec['name']} vs {target}")
    return checks


def _error_term_job(seed: int, shared: dict) -> Checks:
    checks = Checks()
    report = cli_report(_interp_argv("error-term", seed, 30, m=ERROR_M, q=ERROR_Q), checks)
    records = checks.records(report)
    checks.expect(len(records) == 2, f"error-term: {len(records)} records")
    for rec in records:
        # rhs is (m_r - m_(r-1)) times the coupled average of Delta >= 0.
        checks.expect(rec["rhs"] >= -3.0 * rec["rhs_se"], f"{rec['name']}: coupled average {rec['rhs']} < -3 se")
    return checks


def _sk_exact_job(seed: int, shared: dict) -> Checks:
    checks = Checks()
    report = cli_report(
        ["sk-exact", "--N", str(SK_N), "--mixture", json.dumps(INTERP_MIXTURE),
         "--h", str(INTERP_H), "--replicas", "200", "--seed", str(seed)],
        checks,
    )
    fe, se = report["result"]["free_energy"], report["result"]["std_error"]
    annealed = math.log(2.0 * math.cosh(INTERP_H)) + _xi(INTERP_MIXTURE, 1.0) / 2.0
    checks.expect(fe <= annealed + 3.0 * se, f"free energy {fe} above the annealed {annealed}")
    return checks


def _battery_job(seed: int, shared: dict) -> Checks:
    checks = Checks()
    report = cli_report(["verify-all", "--preset", "smoke", "--seed", str(seed)], checks)
    records = checks.records(report)
    checks.expect(len(records) == SMOKE_RECORDS, f"battery has {len(records)} records")
    return checks


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    workers: int  # CASCADELAB_WORKERS for the untraced runs
    seeded: bool = False  # no random draws, so the benchmark seed reaches the jobs


def workloads(out_dir: Path, pool_workers: int) -> dict:
    return {
        wl.name: wl
        for wl in (
            Workload(
                "sampling",
                (
                    Job("pd_lognormal", _pd_job("lognormal", "pair_sum", 0.4)),
                    Job("pd_two_point", _pd_job("two_point", "mean_mark", 0.6)),
                    Job("cascade_b200", _cascade_job),
                ),
                1,
            ),
            Workload(
                "quadrature",
                (
                    Job("optimize_k1", _optimize_job(1)),
                    Job("optimize_k2", _optimize_job(2)),
                    Job("bound_fixed", _bound_job),
                    Job("bound_scan_q1", _scan_job(out_dir)),
                    Job("chain_quadrature", _chain_job),
                ),
                1,
                seeded=True,
            ),
            Workload(
                "interpolation",
                (
                    Job("interpolate_phi", _interp_job("phi", 100, 2)),
                    Job("interpolate_derivative", _interp_job("derivative", 60, 1)),
                    Job("interpolate_overlap", _gibbs_overlap_job),
                    Job("interpolate_error_term", _error_term_job),
                    Job("sk_exact", _sk_exact_job),
                ),
                1,
            ),
            Workload("battery", (Job("verify_all_smoke", _battery_job),), pool_workers),
        )
    }


def warm_up() -> None:
    """One small command, so lazy imports and first-call costs are paid."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["bound", "--m", "[1.0]", "--q", "[0.5]", "--nodes", "16"])
    if code != 0:
        raise RuntimeError(f"warm-up command exited {code}")
