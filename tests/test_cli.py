"""Command-line surface: config files, reports, exit codes, outputs."""

import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cascadelab
from cascadelab import cli, interpolation, recursion
from cascadelab.cli import (
    ConfigError,
    child_seed,
    config_hash,
    parse_config_text,
    resolve_config,
    run,
    serialize_config,
)
from cascadelab.seeding import STREAM_VERSION

ENVELOPE_KEYS = {
    "schema_version",
    "command",
    "config",
    "config_hash",
    "seed",
    "stream_version",
    "version",
    "generated_at",
    "result",
    "records",
    "pass",
}


def _strip_timestamp(text: str) -> str:
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


def test_config_round_trip():
    text = 'mixture = [[2, 1.0], [4, 0.5]]\nm = [0.4, 0.8]\nq = [0.3, 0.6]\nseed = 7\n'
    values = parse_config_text(text)
    cfg = resolve_config("cascade", values, {})
    serialized = serialize_config(cfg.values_dict())
    assert parse_config_text(serialized) == cfg.values_dict()
    assert config_hash(cfg.values_dict()) == config_hash(cfg.values_dict())
    assert len(config_hash(cfg.values_dict())) == 16


def test_config_parse_errors():
    with pytest.raises(ConfigError, match="line 1.*nonsense"):
        parse_config_text("nonsense = ???\n")
    with pytest.raises(ConfigError, match="unknown config key 'foo'"):
        parse_config_text("foo = 1\n")
    with pytest.raises(ConfigError, match="unknown config key 'step'"):
        parse_config_text("step = 0.02\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("seed = 1\nbroken\n")


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="mixture"):
        resolve_config("pd", {"mixture": [[2]]}, {})
    with pytest.raises(ConfigError, match="replicas"):
        resolve_config("pd", {}, {"replicas": -5})
    with pytest.raises(ConfigError, match="scan_q1"):
        resolve_config("bound", {"scan_q1": [0.5, 0.2, 10]}, {})


def test_flags_override_file():
    cfg = resolve_config("pd", {"seed": 5, "replicas": 300}, {"seed": 9})
    assert cfg.seed == 9
    assert cfg.replicas == 300
    assert "seed" in cfg.explicit


def test_child_seed_stable_and_distinct():
    a = child_seed(1729, 0)
    assert a == child_seed(1729, 0)
    assert a != child_seed(1729, 1)
    assert child_seed(1729, 0) != child_seed(1730, 0)
    assert 0 <= a < 2**64


def test_child_seed_equals_the_seedsequence_word():
    import numpy as np

    for master in (0, 1, 2**32, 2**70):
        for index in (0, 1, 2**32, 2**70):
            old = np.random.SeedSequence(master, spawn_key=(index,)).generate_state(1, np.uint64)
            assert child_seed(master, index) == int(old[0])


def test_pd_run_writes_report(tmp_path, capsys):
    out = tmp_path / "pd.json"
    rc = run(
        [
            "pd",
            "--m",
            "[0.5]",
            "--replicas",
            "150",
            "--n_max",
            "3000",
            "--seed",
            "7",
            "--json-out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == ENVELOPE_KEYS
    assert report["command"] == "pd"
    assert report["pass"] is True
    assert report["seed"] == 7
    names = [rec["name"] for rec in report["records"]]
    assert "pd_pair_sum_m0.5" in names
    assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_report_carries_the_stream_version(command, monkeypatch, capsys):
    # The envelope is built once for every command; a stub stands in for
    # the command's work so the check costs nothing.
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: ([], {"ran": command}, None))
    argv = [command, "--k", "1"] if command in ("optimize", "sk-exact") else [command]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == ENVELOPE_KEYS
    assert report["result"] == {"ran": command}
    assert report["stream_version"] == STREAM_VERSION == 2


def test_report_version_is_the_package_version(monkeypatch, capsys):
    # Read from the package itself, so a source checkout and an installed
    # copy write the same report.
    monkeypatch.setitem(cli._COMMANDS, "bound", lambda cfg: ([], None, None))
    assert run(["bound"]) == 0
    assert json.loads(capsys.readouterr().out)["version"] == cascadelab.__version__


def test_pd_tiny_tolerance_fails(capsys):
    rc = run(
        ["pd", "--m", "[0.5]", "--replicas", "150", "--n_max", "3000",
         "--tolerance", "1e-06", "--seed", "7"]
    )
    assert rc == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False


def test_cascade_csv_series(tmp_path, capsys):
    out = tmp_path / "mass.csv"
    rc = run(
        ["cascade", "--m", "[0.4, 0.8]", "--q", "[0.3, 0.6]", "--b", "60",
         "--replicas", "150", "--seed", "3", "--csv-out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "expected", "estimate", "std_error", "allowance"]
    assert len(rows) == 4  # header + k + 1 levels
    expected = [float(row[1]) for row in rows[1:]]
    assert expected == pytest.approx([0.4, 0.4, 0.2])


def test_worker_count_does_not_change_output(tmp_path, capsys):
    args = ["pd", "--m", "[0.5]", "--replicas", "300", "--n_max", "2000",
            "--seed", "11"]
    saved = os.environ.get("CASCADELAB_WORKERS")
    try:
        os.environ["CASCADELAB_WORKERS"] = "1"
        assert run(args) == 0
        serial = _strip_timestamp(capsys.readouterr().out)
        os.environ["CASCADELAB_WORKERS"] = "3"
        assert run(args) == 0
        parallel = _strip_timestamp(capsys.readouterr().out)
    finally:
        if saved is None:
            os.environ.pop("CASCADELAB_WORKERS", None)
        else:
            os.environ["CASCADELAB_WORKERS"] = saved
    assert serial == parallel


def test_bad_config_file_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("foo = 1\n")
    rc = run(["pd", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "foo" in err and "line 1" in err


def test_bad_ladder_exits_two(capsys):
    rc = run(["cascade", "--m", "[0.8, 0.4]", "--q", "[0.3, 0.6]"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "not strictly increasing" in err
    assert capsys.readouterr().out == ""  # no partial report on stdout


def test_scan_without_csv_exits_two(capsys):
    rc = run(["bound", "--scan-q1", "--mixture", "[[2, 0.4]]"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_argparse_failures_exit_two(capsys):
    assert run(["pd", "--mark-family", "bogus"]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "verification runs" in capsys.readouterr().out


def test_optimize_requires_k(capsys):
    rc = run(["optimize", "--mixture", "[[2, 0.4]]"])
    assert rc == 2
    assert "k" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--n-max", "--n_max"])
def test_pd_accepts_both_n_max_spellings(flag, capsys):
    rc = run(["pd", "--m", "[0.5]", "--replicas", "150", flag, "1000", "--seed", "7"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["n_max"] == 1000


def test_readme_bound_lines_run(tmp_path, monkeypatch, capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = [
        line for line in readme.read_text().splitlines() if line.startswith("cascadelab bound ")
    ]
    assert lines
    monkeypatch.chdir(tmp_path)  # the scan writes its CSV here
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, line
        assert json.loads(capsys.readouterr().out)["command"] == "bound"


def test_readme_interpolate_error_term_runs(capsys):
    # The README's usage line for interpolate, with the error-term check
    # and every other key at its default.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    (line,) = [
        line for line in readme.read_text().splitlines()
        if line.startswith("cascadelab interpolate --check ")
    ]
    argv = shlex.split(line)[1:]
    assert "error-term" in argv[-1].split("|")
    assert run(argv[:-1] + ["error-term"]) == 0, line
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["N"] == 4
    assert [rec["name"] for rec in report["records"]] == ["error_term_r1"]


def test_error_term_keeps_an_explicit_n(capsys):
    assert resolve_config("interpolate", {}, {"check": "error-term", "N": 2}).N == 2
    assert resolve_config("interpolate", {"N": 3}, {"check": "error-term"}).N == 3
    assert resolve_config("interpolate", {}, {"check": "phi"}).N == 6
    assert run(["interpolate", "--check", "error-term", "--N", "6"]) == 2
    assert "N outside 1..4" in capsys.readouterr().err


def test_optimize_reports_restart_spread(capsys):
    rc = run(["optimize", "--mixture", "[[2, 0.42]]", "--k", "2", "--nodes", "12"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)["result"]
    values = result["restart_values"]
    assert len(values) == 5 and min(values) == result["bound"]
    assert result["restart_spread"] == max(values) - min(values)
    assert result["stationarity"] <= 1e-6


def test_bound_away_from_endpoint_names_the_flag(capsys):
    rc = run(["bound", "--mixture", "[[2, 0.42]]"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "m_k = 1" in err and "--m" in err


def test_interpolate_overlap_rejects_bad_r(capsys):
    rc = run(["interpolate", "--check", "overlap", "--m", "[0.5]", "--q", "[0.5]",
              "--r", "[3]", "--N", "2", "--b", "10", "--replicas", "10"])
    assert rc == 2
    assert "r = 3 outside 1..2" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["overlap", "error-term"])
def test_interpolate_rejects_empty_r(check, capsys):
    rc = run(["interpolate", "--check", check, "--m", "[0.5]", "--q", "[0.5]",
              "--r", "[]", "--N", "2", "--b", "10", "--replicas", "10"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nonempty list" in captured.err


@pytest.mark.parametrize(
    "check, levels", [("overlap", "[2, 2, 1]"), ("error-term", "[1, 1]")]
)
def test_interpolate_rejects_repeated_r(check, levels, capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a system was built")

    monkeypatch.setattr(cli, "gibbs_overlap_mass", no_build)
    monkeypatch.setattr(cli, "error_term_check", no_build)
    rc = run(["interpolate", "--check", check, "--m", "[0.4, 0.8]", "--q", "[0.3, 0.6]",
              "--r", levels, "--N", "2", "--b", "10", "--replicas", "10"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"r = {levels} names a level twice" in captured.err


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_bad_tolerance_exits_two(tolerance, capsys):
    rc = run(["cascade", "--m", "[0.5]", "--q", "[0.5]", "--b", "10", "--replicas", "20",
              "--tolerance", tolerance])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tolerance must be finite and >= 0" in captured.err


def test_zero_tolerance_is_valid():
    assert resolve_config("cascade", {}, {"tolerance": 0}).tolerance == 0.0


@pytest.mark.parametrize(
    "fault",
    [
        AssertionError("joint weights failed to normalize"),
        FloatingPointError("replica 3 gave the non-finite value nan"),
    ],
)
def test_internal_fault_exits_three(fault, tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise fault

    monkeypatch.setitem(cli._COMMANDS, "pd", broken)
    out = tmp_path / "pd.json"
    assert run(["pd", "--json-out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "internal error" in captured.err and str(fault) in captured.err


def test_pd_reports_corollary_replica_floor(capsys):
    rc = run(["pd", "--m", "[0.5]", "--replicas", "100", "--n-max", "1000", "--seed", "7"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["replicas"] == 100
    corollary = [rec for rec in report["records"] if rec["name"].startswith("corollary_")]
    assert corollary and all(rec["replicas"] == 1000 for rec in corollary)
    assert all("replicas" not in rec for rec in report["records"] if rec not in corollary)


def _records(argv, capsys):
    assert run(argv) == 0, argv
    return json.loads(capsys.readouterr().out)["records"]


@pytest.mark.parametrize(
    "argv",
    [
        ["interpolate", "--check", "derivative", "--N", "3", "--b", "10", "--replicas", "20",
         "--m", "[0.4, 0.8]", "--q", "[0.3, 0.6]"],
        ["interpolate", "--check", "error-term", "--N", "2", "--b", "8", "--replicas", "20",
         "--m", "[0.4, 0.8]", "--q", "[0.3, 0.6]", "--r", "1"],
        ["sk-exact", "--N", "4", "--m", "[1.0]", "--q", "[0.5]", "--replicas", "200"],
    ],
)
def test_tolerance_scales_every_record(argv, capsys):
    # The allowance part of each tolerance stays; the sampling part,
    # multiplier x combined standard error, grows tenfold from 3 to 30.
    default = _records(argv, capsys)
    wide = _records(argv + ["--tolerance", "30"], capsys)
    assert [rec["name"] for rec in default] == [rec["name"] for rec in wide]
    assert default[0]["name"] in ("derivative_identity", "error_term_r1", "free_energy_bound")
    for a, b in zip(default, wide):
        se = math.hypot(a["lhs_se"], a["rhs_se"])
        assert se > 0
        assert b["tolerance"] - a["tolerance"] == pytest.approx(27.0 * se, rel=1e-9)
        assert {**a, "tolerance": 0, "pass": 0} == {**b, "tolerance": 0, "pass": 0}


@pytest.mark.parametrize("command", ["optimize", "sk-exact"])
def test_k_zero_is_a_usage_error(command, capsys):
    assert run([command, "--k", "0", "--N", "3"]) == 2
    assert "k in 1..3" in capsys.readouterr().err


def test_config_keys_are_the_defaults():
    cfg = resolve_config("pd", {}, {"replicas": 7})
    assert cfg.replicas == 7 and cfg.n_max == 100000 and cfg.r is None
    assert list(cfg.values_dict()) == list(cli._DEFAULTS)
    with pytest.raises(AttributeError):
        cfg.no_such_key


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--h", "inf", "--m", "[1.0]", "--q", "[0.5]"],
        ["interpolate", "--check", "phi", "--h", "nan", "--N", "2", "--b", "10",
         "--replicas", "10"],
        ["interpolate", "--t", "nan", "--N", "2", "--b", "10", "--replicas", "10"],
        ["bound", "--m", "[1.0]", "--q", "[1e999]"],
        ["cascade", "--m", "[0.5, 1e999]", "--q", "[0.3, 0.6]", "--b", "10"],
        ["interpolate", "--t-grid", "[0.0, -1e999]", "--N", "2", "--b", "10"],
        ["bound", "--mixture", "[[2, 1e999]]", "--m", "[1.0]", "--q", "[0.5]"],
    ],
)
def test_non_finite_float_option_exits_two(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


@pytest.mark.parametrize(
    "text", ["h = 1e999\n", "t = -1e999\n", "q = [1e999]\n", "mixture = [[2, 1e999]]\n",
             "mixture = [[2, 1.0], [4, -1e999]]\n"],
)
def test_non_finite_config_file_value_exits_two(text, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert run(["bound", "--config", str(path), "--m", "[1.0]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--mixture", "[[2, 1e155]]", "--m", "[1.0]", "--q", "[0.5]"],
        ["optimize", "--mixture", "[[2, 1e155]]", "--k", "1", "--nodes", "12"],
    ],
    ids=["bound", "optimize"],
)
def test_overflowing_mixture_exits_two_and_names_it(argv, monkeypatch, capsys):
    command = argv[0]

    def not_reached(cfg):
        raise AssertionError(f"{command} ran")

    monkeypatch.setitem(cli._COMMANDS, command, not_reached)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mixture [(2, 1e+155)] overflows: xi(1) = inf" in captured.err


# One sample value per key, other than its default, as a flag would spell
# it; a config file quotes the string-valued ones.
_SAMPLES = {
    "mixture": "[[2, 0.7], [4, 0.3]]",
    "m": "[0.3, 0.6]",
    "q": "[0.2, 0.5]",
    "N": "5",
    "b": "30",
    "n_max": "5000",
    "replicas": "250",
    "nodes": "20",
    "t": "0.25",
    "t_grid": "[0, 0.5, 1]",
    "r": "2",
    "h": "-1",
    "k": "2",
    "seed": "0",
    "tolerance": "4",
    "mark_family": "lognormal",
    "statistic": "max_weight",
    "check": "overlap",
    "preset": "smoke",
    "scan_q1": "[0.1, 0.5, 5]",
    "json_out": "out.json",
    "csv_out": "out.csv",
}


@pytest.mark.parametrize("key", list(cli._KEYS))
def test_flag_and_config_line_resolve_alike(key):
    assert set(_SAMPLES) == set(cli._KEYS)
    row = cli._KEYS[key]
    command = (row.commands or ("cascade",))[0]
    text = _SAMPLES[key]
    literal = repr(text) if row.flag_type is None else text
    from_file = resolve_config(command, parse_config_text(f"{key} = {literal}\n"), {})
    ns = cli.build_parser().parse_args([command, "--" + key.replace("_", "-"), text])
    flags = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
    from_flag = resolve_config(command, {}, flags)
    assert from_flag.values_dict() == from_file.values_dict()
    assert from_flag.values[key] != cli._DEFAULTS[key]
    assert type(from_flag.values[key]) is type(from_file.values[key])


def test_flags_exist_only_on_their_commands(capsys):
    subs = next(
        action for action in cli.build_parser()._actions if action.dest == "command"
    ).choices
    only = {"--k", "--mark-family", "--statistic", "--scan-q1", "--check", "--preset"}
    owners = {flag: set() for flag in only}
    for name, sub in subs.items():
        for flag in only & set(sub._option_string_actions):
            owners[flag].add(name)
    assert set(subs) == set(cli._COMMANDS)
    assert owners == {
        "--k": {"optimize", "sk-exact"},
        "--mark-family": {"pd"},
        "--statistic": {"pd"},
        "--scan-q1": {"bound"},
        "--check": {"interpolate"},
        "--preset": {"verify-all"},
    }
    assert run(["bound", "--k", "2"]) == 2
    assert "unrecognized arguments: --k 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, command",
    [("mark_family", "pd"), ("statistic", "pd"), ("check", "interpolate"),
     ("preset", "verify-all")],
)
def test_bad_config_choice_exits_before_the_command(key, command, tmp_path, monkeypatch, capsys):
    def not_reached(cfg):
        raise AssertionError(f"{command} ran with {key} = {cfg.values[key]!r}")

    monkeypatch.setitem(cli._COMMANDS, command, not_reached)
    path = tmp_path / "run.cfg"
    path.write_text(f'{key} = "foo"\n')
    assert run([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{key} must be one of {cli._KEYS[key].choices}, got 'foo'" in captured.err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("estimate_pair_sum", ["pd", "--m", "[0.5, 1.5]"]),
        ("phi_t", ["interpolate", "--check", "phi", "--t-grid", "[0.5, 1.5]"]),
    ],
)
def test_cross_key_usage_errors_run_nothing(name, argv, tmp_path, monkeypatch, capsys):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(cli, name, counted)
    csv_out = tmp_path / "grid.csv"
    assert run(argv + ["--csv-out", str(csv_out)]) == 2
    captured = capsys.readouterr()
    assert calls == [] and not csv_out.exists()
    assert captured.out == "" and "1.5 outside" in captured.err


def test_sk_exact_bound_records_replica_floor(capsys):
    argv = ["sk-exact", "--N", "4", "--m", "[1.0]", "--q", "[0.5]", "--replicas", "50"]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["replicas"] == 50
    (record,) = report["records"]
    assert record["name"] == "free_energy_bound" and record["replicas"] == 200


_BIG = "1" + "0" * 400  # an integer past the float range
_BOUND = ["bound", "--m", "[1.0]", "--q", "[0.5]"]


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["cascade", "--m", f"[{_BIG}]"], None, "m: int too large to convert to float"),
        (["bound", "--m", "[1.0]"], f"h = {_BIG}\n", "h: int too large to convert to float"),
        (["bound", "--scan-q1", "[0.1, 0.5, 1e999]", "--csv-out", "s.csv"], None,
         "scan_q1 must be finite"),
        (["bound", "--scan-q1", "[0.1, 0.5, 2.5]", "--csv-out", "s.csv"], None,
         "scan_q1 count must be a whole number, got 2.5"),
        (_BOUND + ["--mixture", "[[2.5, 1.0]]"], None, "mixture powers must be integers, got 2.5"),
        (_BOUND + ["--mixture", "[[True, 1.0]]"], None, "mixture powers must be integers, got True"),
        (_BOUND + ["--mixture", "[[2, [1.0]]]"], None, "mixture beta must be a number"),
        (_BOUND + ["--mixture", f"[[{_BIG}, 1.0]]"], None, "mixture: int too large"),
    ],
    ids=["m-overflow", "config-h-overflow", "scan-inf", "scan-2.5", "power-2.5", "power-bool",
         "beta-list", "power-overflow"],
)
def test_out_of_range_values_exit_two_before_the_command(
    argv, config, message, tmp_path, monkeypatch, capsys
):
    command = argv[0]

    def not_reached(cfg):
        raise AssertionError(f"{command} ran")

    monkeypatch.setitem(cli._COMMANDS, command, not_reached)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("run.cfg").write_text(config)
        argv = argv + ["--config", "run.cfg"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert not Path("s.csv").exists()


def test_derivative_at_an_end_time_exits_two(monkeypatch, capsys):
    def not_reached(*args, **kwargs):
        raise AssertionError("a replica ran")

    monkeypatch.setattr(interpolation, "build_cascade", not_reached)
    argv = ["interpolate", "--check", "derivative", "--t", "1", "--N", "2", "--b", "4"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "t = 1.0 outside (0, 1)" in captured.err


def test_bound_over_the_grid_budget_exits_two_before_any_grid(monkeypatch, capsys):
    # k = 3: the convergence check's one-root-node grid is 216^3 > 10^7 points
    def not_reached(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(recursion, "_root_blocks", not_reached)
    argv = ["bound", "--m", "[0.3, 0.6, 1.0]", "--q", "[0.2, 0.5, 0.8]", "--nodes", "108"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "TENSOR_BUDGET" in captured.err
    assert "216^3 exceeds" in captured.err and "doubles 108 nodes" in captured.err


def test_sk_exact_optimizes_without_the_convergence_check(monkeypatch, capsys):
    # The report reads the optimized bound alone, so no phi(0) chain runs
    # at the convergence check's doubled node count.
    nodes = []
    chain = recursion._phi0_chain

    def spy(rsb, s, h, n, *args, **kwargs):
        nodes.append(n)
        return chain(rsb, s, h, n, *args, **kwargs)

    monkeypatch.setattr(recursion, "_phi0_chain", spy)
    argv = ["sk-exact", "--k", "1", "--N", "4", "--replicas", "10", "--nodes", "16"]
    assert run(argv) == 0
    assert nodes and 32 not in nodes, nodes


def test_whole_float_scan_count_is_accepted():
    assert resolve_config("bound", {}, {"scan_q1": [0.1, 0.5, 40.0]}).scan_q1 == [0.1, 0.5, 40]
    assert resolve_config("bound", {}, {"scan_q1": [0.1, 0.5, 40]}).scan_q1 == [0.1, 0.5, 40]


# Run in a fresh interpreter: the test modules import scipy themselves.
_IMPORT_PROBE = """
import contextlib, io, sys
from cascadelab import cli, recursion
from cascadelab.mixture import sk_mixture
from cascadelab.sk_model import verify_bound

def loaded(prefix):
    return sorted(name for name in sys.modules if name == prefix or name.startswith(prefix + "."))

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv

for argv in (
    ["pd", "--m", "[0.6]", "--n-max", "100", "--replicas", "100"],
    ["cascade", "--m", "[0.5]", "--q", "[0.5]", "--b", "10", "--replicas", "20"],
    ["bound", "--m", "[1.0]", "--q", "[0.5]", "--nodes", "16"],
    # k = 3 at 40 nodes, with its convergence check at 80
    ["bound", "--m", "[0.3, 0.6, 1.0]", "--q", "[0.2, 0.5, 0.8]", "--nodes", "40"],
    ["interpolate", "--check", "phi", "--N", "2", "--b", "10", "--replicas", "10"],
    ["sk-exact", "--N", "4", "--replicas", "10"],
    ["optimize", "--k", "1", "--nodes", "12"],
    ["optimize", "--k", "3", "--nodes", "12"],
    ["sk-exact", "--N", "4", "--replicas", "10", "--k", "1"],
):
    run(argv)
# the optimized free_energy_bound record at its verify-all --preset smoke size
verify_bound(6, sk_mixture(1.2), 0.3, 200, recursion.QuadratureSpec(), seed=1, optimize_k=1)
assert not loaded("scipy"), loaded("scipy")[:5]
assert not loaded("concurrent.futures.process")
"""


def test_scipy_loads_only_where_it_is_called():
    # scipy is a test oracle only: no command loads it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
