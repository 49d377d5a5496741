"""Tests of the benchmark itself: its checks, its tracer and its harness.

    python3 -m pytest perfbench -q

The determinism test runs the smoke battery twice (about a minute).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from cascadelab import cli, interpolation, seeding  # noqa: E402


def _record(name, lhs, rhs, tolerance, passed):
    return {"name": name, "lhs": lhs, "lhs_se": 0.0, "rhs": rhs, "rhs_se": 0.0,
            "tolerance": tolerance, "pass": passed}


def test_record_checks_recompute_the_verdict():
    checks = jobs.Checks()
    checks.records({"records": [
        _record("holds", 1.0, 1.05, 0.1, True),
        _record("claims_pass", 1.0, 1.5, 0.1, True),
        _record("free_energy_bound", 0.5, 0.9, 0.01, True),  # one-sided: below the bound
        _record("nan", float("nan"), 1.0, 0.1, False),
    ]})
    assert checks.problems == [
        "claims_pass: gap 0.5 > tolerance 0.1",
        "claims_pass: pass flag True disagrees",
        "nan: gap nan > tolerance 0.1",
    ]


def test_rs_bound_matches_the_program():
    for q in (0.1, 0.37, 0.9):
        report = jobs.cli_report(
            ["bound", "--mixture", json.dumps(jobs.QUAD_MIXTURE), "--m", "[1.0]", "--q", f"[{q}]", "--h", "0.2"],
            jobs.Checks(),
        )
        assert report["result"]["bound"] == pytest.approx(jobs.rs_bound(jobs.QUAD_MIXTURE, 0.2, q), abs=1e-9)


def test_job_seeds_are_fixed_and_distinct():
    seeds = [run.job_seed(7, i) for i in range(5)]
    assert seeds == [run.job_seed(7, i) for i in range(5)]
    assert len(set(seeds + [run.job_seed(8, 0)])) == 6


def test_tracer_replaces_imported_names_and_restores_them():
    original = interpolation.build_cascade
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert interpolation.build_cascade is not original
        assert interpolation.build_cascade.__wrapped__ is original
        jobs.cli_report(["cascade", "--b", "20", "--replicas", "10", "--seed", "3"], jobs.Checks())
    finally:
        tracer.uninstall()
    assert interpolation.build_cascade is original
    metrics = tracing.layer_metrics(tracer.summary())
    # k = 1, r = 1..2, 10 replicas: one cascade per replica and r.
    assert metrics["cascade.build_cascade.calls"] == (20, "count")
    assert metrics["seeding.run_replicas.calls"] == (2, "count")
    assert metrics["cli.cascade.s"][0] > metrics["cascade.overlap_mass.s"][0] > 0
    assert metrics["seeding.self_s"][0] < metrics["cascade.self_s"][0]


def test_traced_counts_repeat():
    workload = jobs.workloads(ROOT / ".perfbench_out", 1)["interpolation"]
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            checks = workload.jobs[-1].run(11, {})  # sk_exact
        finally:
            tracer.uninstall()
        assert checks.problems == []
        runs.append({k: v for k, v in tracing.layer_metrics(tracer.summary()).items() if v[1] == "count"})
    assert runs[0] == runs[1]
    assert runs[0]["sk_model.sample_hamiltonian.calls"][0] == 200


def test_battery_report_is_identical_at_one_and_two_workers(monkeypatch):
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv(seeding.WORKERS_ENV, workers)
        checks = jobs.Checks()
        report = jobs.cli_report(["verify-all", "--preset", "smoke"], checks)
        checks.records(report)
        assert checks.problems == []
        assert len(report["records"]) == jobs.SMOKE_RECORDS
        report.pop("generated_at")  # the only volatile field
        reports.append(cli.report_json(report))
    assert reports[0] == reports[1]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampling", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={key: val for key, val in os.environ.items() if key != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
