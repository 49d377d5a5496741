"""Command line front end: run one verification command, emit one report.

Configuration comes from an optional ``key = value`` file plus flag
overrides; flags win.  Values from both pass through one parser and one
choice check per key, the rows of ``_KEYS``, before any command runs.
Every run produces a single JSON report with a fixed envelope (config
echo, config hash, seed, stream layout version, package version,
records), and optionally a CSV series for grid-valued output.  Reports
are serialized with sorted keys, so two runs of the same command with
the same seed are byte-identical apart from the ``generated_at`` field,
regardless of the worker count.

Exit status: 0 when every check passed, 1 when at least one failed, 2
when the configuration was rejected, 3 on an internal fault such as a
non-finite value or a broken invariant.  Nothing is written on 2 or 3.
"""

from __future__ import annotations

import argparse
import ast
import csv
import functools
import hashlib
import json
import math
import sys
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (
    log_partition_identity,
    overlap_mass,
    tilted_average,
    weight_tilt_invariance,
)
from .functionals import PairFunctional, PathFunctional
from .interpolation import (
    MAX_COUPLED_SITES,
    derivative_check,
    error_term_check,
    gibbs_overlap_mass,
    phi_t,
)
from .mixture import RSBParams, make_mixture, sk_mixture
from .pd_process import (
    STATISTICS,
    MarkSpec,
    corollary_moments,
    estimate_pair_sum,
    verify_invariance,
)
from .recursion import (
    QuadratureSpec,
    bound_from_phi0,
    guerra_bound,
    mu_r_quadrature,
    optimize_bound,
    phi0,
)
from .seeding import STREAM_VERSION, derive_word
from .sk_model import exact_free_energy, verify_bound
from .stats import Exact, identity_check

SCHEMA_VERSION = 1

INTERPOLATE_CHECKS = ("phi", "derivative", "overlap", "error-term")
PRESETS = ("desk", "smoke")
# The mark families of the point-process checks, by mark_family value.
MARK_PRESETS = {
    "constant": MarkSpec("constant", cx=1.3, cy=0.7),
    "lognormal": MarkSpec("lognormal", shift=1.0, sigma_x=0.4, sigma_y=0.35, rho=0.6),
    "two_point": MarkSpec("two_point", xs=(1.0, 2.0), ys=(0.5, 1.5), p=0.6),
}


class ConfigError(Exception):
    """A rejected configuration; maps to exit status 2."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _finite(value: float, key: str) -> float:
    """A float option's value; inf and nan are usage errors, not inputs."""
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    return value


def _integer(floor=None):
    def parse(value, key):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if floor is not None and value < floor:
            raise ConfigError(f"{key} must be >= {floor}, got {value}")
        return value

    return parse


def _real(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return value


def _number(value, key) -> float:
    return _finite(float(_real(value, key)), key)


def _tolerance(value, key) -> float:
    if not 0.0 <= _real(value, key) < math.inf:
        raise ConfigError(f"tolerance must be finite and >= 0, got {value}")
    return float(value)


def _string(value, key, what="a string") -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value


def _path(value, key) -> str:
    return _string(value, key, "a path string")


def _float_list(value, key) -> list:
    values = value if isinstance(value, (list, tuple)) else [value]
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise ConfigError(f"{key} must be a number or a list of numbers, got {value!r}")
    return [_finite(float(v), key) for v in values]


def _mixture(value, key) -> list:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError("mixture must be a nonempty list of [p, beta] pairs")
    pairs = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigError(f"mixture entries must be [p, beta] pairs, got {item!r}")
        power, beta = item
        if isinstance(power, bool) or not isinstance(power, int):
            raise ConfigError(f"mixture powers must be integers, got {power!r}")
        float(power)  # a power past the float range overflows, a usage error
        pairs.append([power, _number(beta, "mixture beta")])
    try:
        make_mixture(pairs)  # the mixture's own checks, before any command runs
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return pairs


def _levels(value, key) -> list:
    values = value if isinstance(value, (list, tuple)) else [value]
    if not values or any(isinstance(v, bool) or not isinstance(v, int) for v in values):
        raise ConfigError(f"r must be an integer or a nonempty list of integers, got {value!r}")
    return list(values)


def _scan(value, key) -> list:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 3
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ConfigError("scan_q1 must be [start, stop, count]")
    start, stop, count = (_finite(float(v), key) for v in value)
    if not (0.0 < start < stop < 1.0):
        raise ConfigError("scan_q1 must satisfy 0 < start < stop < 1")
    if count != int(count):
        raise ConfigError(f"scan_q1 count must be a whole number, got {value[2]!r}")
    if count < 2:
        raise ConfigError("scan_q1 needs at least 2 grid points")
    return [start, stop, int(count)]


def _literal(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        raise argparse.ArgumentTypeError(f"not a Python literal: {text!r}") from None


@dataclass(frozen=True)
class _Key:
    """One configuration key: its default, its parser and its flag.

    ``parse(value, key)`` returns the canonical value or raises
    ConfigError; a key whose default is None may be set back to None.
    The flag is ``--key`` with dashes for underscores, plus ``aliases``;
    argparse reads it with ``flag_type`` (None: the string as given), and
    a bare flag means ``const`` when that is set.  Only the ``commands``
    named have the flag (None: every command).
    """

    default: object
    parse: Callable
    flag_type: Callable | None = _literal
    choices: tuple | None = None
    commands: tuple | None = None
    aliases: tuple = ()
    const: object = None


# One flat key space shared by the config file and the flag overrides,
# in the order reports and config hashes list it.  Unknown keys are
# rejected rather than ignored, so a typo cannot silently fall back to a
# default.
_KEYS = {
    "mixture": _Key([[2, 1.0]], _mixture),
    "m": _Key([0.5], _float_list),
    "q": _Key([0.5], _float_list),
    "N": _Key(6, _integer(1), int),
    "b": _Key(100, _integer(1), int),
    "n_max": _Key(100000, _integer(1), int, aliases=("--n_max",)),
    "replicas": _Key(1000, _integer(1), int),
    "nodes": _Key(40, _integer(1), int),
    "t": _Key(0.5, _number, float),
    "t_grid": _Key([0.0, 0.25, 0.5, 0.75, 1.0], _float_list),
    "r": _Key(None, _levels),
    "h": _Key(0.0, _number, float),
    "k": _Key(None, _integer(), int, commands=("optimize", "sk-exact")),
    "seed": _Key(1729, _integer(0), int),
    "tolerance": _Key(3.0, _tolerance, float),
    "mark_family": _Key("two_point", _string, None, tuple(MARK_PRESETS), ("pd",)),
    "statistic": _Key("pair_sum", _string, None, STATISTICS, ("pd",)),
    "check": _Key("phi", _string, None, INTERPOLATE_CHECKS, ("interpolate",)),
    "preset": _Key("desk", _string, None, PRESETS, ("verify-all",)),
    "scan_q1": _Key(None, _scan, commands=("bound",), const=[0.02, 0.8, 40]),
    "json_out": _Key(None, _path, None),
    "csv_out": _Key(None, _path, None),
}
_DEFAULTS = {key: row.default for key, row in _KEYS.items()}


def _validated(key: str, value):
    """Coerce one config value to its canonical type or raise ConfigError."""
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    row = _KEYS[key]
    if value is None and row.default is None:
        return None
    try:
        value = row.parse(value, key)
    except OverflowError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    if row.choices is not None and value not in row.choices:
        raise ConfigError(f"{key} must be one of {row.choices}, got {value!r}")
    return value


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; values are Python literals.

    Blank lines and ``#`` comments are allowed.  Unknown and duplicate
    keys are errors.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rhs = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            out[key] = ast.literal_eval(rhs.strip())
        except (ValueError, SyntaxError):
            raise ConfigError(
                f"line {lineno}: value for {key!r} is not a Python literal: {rhs.strip()!r}"
            ) from None
    return out


def serialize_config(values: dict) -> str:
    """Write a full config back to file syntax, fixed key order.

    ``parse_config_text(serialize_config(v))`` recovers ``v`` exactly.
    """
    return "".join(f"{key} = {values[key]!r}\n" for key in _KEYS)


def config_hash(values: dict) -> str:
    """Digest of the computation-relevant config.

    Output destinations are excluded: two runs that compute the same
    thing share a hash no matter where their reports are written.
    """
    relevant = dict(values, json_out=None, csv_out=None)
    digest = hashlib.sha256(serialize_config(relevant).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class RunConfig:
    """One resolved run: command, parameters, and which keys were set.

    Parameters are read as attributes (``cfg.replicas``); their names and
    defaults are the rows of ``_KEYS``.
    """

    command: str
    explicit: frozenset = frozenset()
    values: dict = field(default_factory=lambda: dict(_DEFAULTS))

    def __getattr__(self, key):
        values = self.__dict__.get("values", {})
        if key in values:
            return values[key]
        raise AttributeError(key)

    def values_dict(self) -> dict:
        return dict(self.values)

    def mixture_fn(self):
        return make_mixture([tuple(pair) for pair in self.mixture])

    def rsb_params(self) -> RSBParams:
        return RSBParams.from_interior(tuple(self.m), tuple(self.q))

    def quad(self, convergence_check: bool = True) -> QuadratureSpec:
        return QuadratureSpec(
            nodes_per_level=self.nodes, convergence_check=convergence_check
        )

    def r_values(self, max_r: int) -> list:
        if self.r is None:
            return list(range(1, max_r + 1))
        for r in self.r:
            if not 1 <= r <= max_r:
                raise ConfigError(f"r = {r} outside 1..{max_r}")
        if len(set(self.r)) < len(self.r):
            raise ConfigError(f"r = {list(self.r)} names a level twice")
        return list(self.r)


def resolve_config(command: str, file_values: dict, flag_values: dict) -> RunConfig:
    values = dict(_DEFAULTS)
    explicit = set()
    for source in (file_values, flag_values):
        for key, val in source.items():
            values[key] = _validated(key, val)
            explicit.add(key)
    if command == "interpolate" and values["check"] == "error-term" and "N" not in explicit:
        # The coupled system behind the error term holds at most
        # MAX_COUPLED_SITES sites, fewer than the default N.
        values["N"] = MAX_COUPLED_SITES
    return RunConfig(command=command, explicit=frozenset(explicit), values=values)


def child_seed(master: int, index: int) -> int:
    """Derived integer seed for operation ``index`` of a multi-part run.

    Distinct indices give statistically independent downstream streams;
    the same (master, index) always gives the same integer.
    """
    return derive_word(master, index)


# ---------------------------------------------------------------------------
# report envelope and CSV series
# ---------------------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def build_report(cfg: RunConfig, records: list, result: dict | None) -> dict:
    values = cfg.values_dict()
    return {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "config": values,
        "config_hash": config_hash(values),
        "seed": cfg.seed,
        "stream_version": STREAM_VERSION,
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "result": result,
        "records": [rec.to_json_dict() for rec in records],
        "pass": all(rec.passed for rec in records),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"


def emit_series(path: str, columns, rows) -> None:
    """Write a CSV series: header row, fixed column order, full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [format(v, ".17g") if isinstance(v, float) else v for v in row]
            )


def _fmt(x: float) -> str:
    return format(x, "g")


def expected_masses(rsb: RSBParams) -> list:
    """The overlap distribution the weights must reproduce, r = 1..k+1."""
    jumps = [rsb.m[r] - rsb.m[r - 1] for r in range(1, rsb.k + 1)]
    jumps.append(1.0 - rsb.m[rsb.k])
    return jumps


def mass_records(
    prefix: str, estimates: list, rsb: RSBParams, tolerance: float, r_values=None, extras=None
) -> list:
    """``{prefix}_r{r}`` records of estimate r-1 against the mass m_r - m_{r-1},
    for the depths ``r_values`` (by default every r = 1..k+1)."""
    masses = expected_masses(rsb)
    return [
        identity_check(
            f"{prefix}_r{r}", estimates[r - 1], Exact(masses[r - 1]), tolerance,
            extras=extras,
        )
        for r in (range(1, rsb.k + 2) if r_values is None else r_values)
    ]


# ---------------------------------------------------------------------------
# commands; each returns (records, result, series)
# ---------------------------------------------------------------------------


def cmd_pd(cfg: RunConfig):
    for mv in cfg.m:
        if not 0.0 < mv < 1.0:
            raise ConfigError(f"pd exponent m = {mv} outside (0, 1)")
    records = []
    for i, mv in enumerate(cfg.m):
        est = estimate_pair_sum(mv, cfg.n_max, cfg.replicas, child_seed(cfg.seed, 10 + i))
        records.append(
            identity_check(f"pd_pair_sum_m{_fmt(mv)}", est, Exact(1.0 - mv), cfg.tolerance)
        )
    spec = MARK_PRESETS[cfg.mark_family]
    m0 = cfg.m[0]
    # The moment identities need more replicas than the other checks.
    replicas = max(cfg.replicas, 1000)
    moments = corollary_moments(m0, spec, replicas, cfg.n_max, child_seed(cfg.seed, 40))
    for name, lhs, rhs in moments:
        records.append(
            identity_check(
                f"corollary_{name}", lhs, rhs, cfg.tolerance, extras={"replicas": replicas}
            )
        )
    marked, tilted = verify_invariance(
        m0, spec, cfg.statistic, cfg.replicas, cfg.n_max, child_seed(cfg.seed, 41)
    )
    records.append(
        identity_check(f"invariance_{cfg.statistic}", marked, tilted, cfg.tolerance)
    )
    return records, None, None


def cmd_cascade(cfg: RunConfig):
    rsb = cfg.rsb_params()
    # One pass for all r: the estimates share cascade draws and the
    # estimated masses sum to one realization by realization.
    estimates = overlap_mass(rsb, cfg.b, cfg.replicas, child_seed(cfg.seed, 20))
    records = mass_records("overlap_mass", estimates, rsb, cfg.tolerance)
    rows = [
        (r, rec.rhs, rec.lhs, rec.lhs_se, est.allowance)
        for r, (rec, est) in enumerate(zip(records, estimates), start=1)
    ]
    series = (("r", "expected", "estimate", "std_error", "allowance"), rows)
    return records, None, series


def cmd_bound(cfg: RunConfig):
    mix = cfg.mixture_fn()
    quad = cfg.quad()
    if cfg.scan_q1 is not None:
        if not cfg.csv_out:
            raise ConfigError("scan_q1 produces a CSV series; set csv_out")
        start, stop, count = cfg.scan_q1
        rows = []
        for q1 in np.linspace(start, stop, count):
            params = RSBParams(k=1, m=(0.0, 1.0), q=(0.0, float(q1), 1.0))
            rows.append((float(q1), guerra_bound(params, mix, cfg.h, quad)))
        best = min(rows, key=lambda row: row[1])
        result = {"scan": "q1", "minimum_q1": best[0], "minimum_bound": best[1]}
        return [], result, (("q1", "bound"), rows)
    rsb = cfg.rsb_params()
    if rsb.m[-1] != 1.0:
        raise ConfigError(
            f"the bound is defined at the m_k = 1 endpoint, but m ends at {rsb.m[-1]}; "
            'pass --m with last entry 1.0, e.g. --m "[1.0]" --q "[0.5]"'
        )
    res = phi0(rsb, mix, cfg.h, quad)
    result = {
        "phi0": res.phi0,
        "bound": bound_from_phi0(rsb, mix, res.phi0),
        "params": {"m": list(rsb.m), "q": list(rsb.q)},
        "quad_nodes": cfg.nodes,
        "converged": res.converged,
    }
    return [], result, None


def cmd_optimize(cfg: RunConfig):
    if cfg.k is None:
        raise ConfigError("optimize needs k, the number of levels")
    mix = cfg.mixture_fn()
    opt = optimize_bound(mix, cfg.h, cfg.k, cfg.quad())
    result = {
        "phi0": opt.phi0,
        "bound": opt.value,
        "params": {"m": list(opt.params.m), "q": list(opt.params.q)},
        "quad_nodes": cfg.nodes,
        "converged": opt.converged,
        "evaluations": opt.evaluations,
        "restart_values": opt.restart_values,
        "restart_spread": opt.restart_spread,
        "stationarity": opt.stationarity,
    }
    return [], result, None


def cmd_sk_exact(cfg: RunConfig):
    mix = cfg.mixture_fn()
    replicas = max(cfg.replicas, 200)
    seed_f = child_seed(cfg.seed, 50)
    fixed_params = "m" in cfg.explicit or "q" in cfg.explicit
    if cfg.k is not None and fixed_params:
        raise ConfigError("give either k (optimized bound) or m and q (fixed bound)")
    if cfg.k is not None or fixed_params:
        rec = verify_bound(
            cfg.N, mix, cfg.h, replicas, cfg.quad(), seed_f,
            rsb=cfg.rsb_params() if fixed_params else None, optimize_k=cfg.k,
            tolerance_multiplier=cfg.tolerance,
        )
        rec.extras["replicas"] = replicas
        result = {
            "free_energy": rec.lhs,
            "std_error": rec.lhs_se,
            "bound": rec.rhs,
            "margin": rec.extras["margin"],
            "mode": rec.extras["mode"],
        }
        return [rec], result, None
    fe = exact_free_energy(cfg.N, mix, cfg.h, replicas, seed_f)
    result = {
        "free_energy": fe.mean,
        "std_error": fe.std_error,
        "N": cfg.N,
        "disorder_replicas": replicas,
    }
    return [], result, None


def cmd_interpolate(cfg: RunConfig):
    # The phi check writes its t-grid series only when csv_out is set.
    grid = cfg.check == "phi" and cfg.csv_out
    if grid:
        for t in cfg.t_grid:
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"t_grid value {t} outside [0, 1]")
    mix = cfg.mixture_fn()
    rsb = cfg.rsb_params()
    records, series = [], None
    if cfg.check == "phi":
        reference = phi0(rsb, mix, cfg.h, cfg.quad(convergence_check=False))
        est0 = phi_t(cfg.N, 0.0, mix, rsb, cfg.b, cfg.h, cfg.replicas, child_seed(cfg.seed, 60))
        records.append(
            identity_check("phi_t0_vs_quadrature", est0, Exact(reference.phi0), cfg.tolerance)
        )
        est1 = phi_t(cfg.N, 1.0, mix, rsb, cfg.b, cfg.h, cfg.replicas, child_seed(cfg.seed, 61))
        # exact_free_energy takes at least 200 disorder replicas.
        replicas = max(cfg.replicas, 200)
        fe = exact_free_energy(cfg.N, mix, cfg.h, replicas, child_seed(cfg.seed, 62))
        records.append(
            identity_check(
                "phi_t1_vs_enumeration", est1, fe, cfg.tolerance, extras={"replicas": replicas}
            )
        )
        if grid:
            seed_g = child_seed(cfg.seed, 63)
            rows = []
            # One seed for the whole grid: common random numbers keep the
            # curve smooth in t.
            for t in cfg.t_grid:
                est = phi_t(cfg.N, t, mix, rsb, cfg.b, cfg.h, cfg.replicas, seed_g)
                rows.append((t, est.mean, est.std_error, est.allowance))
            series = (("t", "phi", "std_error", "allowance"), rows)
    elif cfg.check == "derivative":
        report = derivative_check(
            cfg.N, cfg.t, mix, rsb, cfg.b, cfg.h, cfg.replicas,
            child_seed(cfg.seed, 64), tolerance_multiplier=cfg.tolerance,
        )
        records.append(report.record)
    elif cfg.check == "overlap":
        r_values = cfg.r_values(rsb.k + 1)
        estimates = gibbs_overlap_mass(
            cfg.N, cfg.t, mix, rsb, cfg.b, cfg.h, cfg.replicas, child_seed(cfg.seed, 65)
        )
        records += mass_records(
            "gibbs_overlap", estimates, rsb, cfg.tolerance, r_values, extras={"t": cfg.t}
        )
    elif cfg.check == "error-term":
        reports = error_term_check(
            cfg.N, cfg.t, cfg.r_values(rsb.k), mix, rsb, cfg.b, cfg.h, cfg.replicas,
            child_seed(cfg.seed, 66), cfg.tolerance,
        )
        records += [report.record for report in reports]
    return records, None, series


def cmd_verify_all(cfg: RunConfig):
    """The full battery: every module's main identities in one report.

    The desk preset is sized for a coffee break; smoke for a smoke test.
    Step seeds derive from (master, step index), so the report is a pure
    function of the seed and preset.
    """
    smoke = cfg.preset == "smoke"

    def n(full, small):
        return small if smoke else full

    def seed(index):
        return child_seed(cfg.seed, 100 + index)

    tol = cfg.tolerance
    records = []

    # Point process: pair sum, moment identities, tilt invariance.
    est = estimate_pair_sum(0.5, 10**5, n(3000, 400), seed(0))
    records.append(identity_check("pd_pair_sum_m0.5", est, Exact(0.5), tol))
    for family in ("constant", "lognormal"):
        moments = corollary_moments(0.5, MARK_PRESETS[family], n(2000, 1000), 10**5, seed(1))
        for name, lhs, rhs in moments:
            records.append(identity_check(f"corollary_{name}_{family}", lhs, rhs, tol))
    for family, statistic in (("lognormal", "pair_sum"), ("two_point", "mean_mark")):
        marked, tilted = verify_invariance(
            0.6, MARK_PRESETS[family], statistic, n(2000, 400), 10**5, seed(2)
        )
        records.append(
            identity_check(f"invariance_{statistic}_{family}", marked, tilted, tol)
        )

    # Cascade weights carry the overlap distribution.
    rsb2 = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
    estimates = overlap_mass(rsb2, n(200, 50), n(1000, 200), seed(3))
    records += mass_records("overlap_mass", estimates, rsb2, tol)

    # Recursion chain vs direct cascade simulation.  No record reads a
    # convergence flag, so the quadrature runs at one node count.
    quad = QuadratureSpec(nodes_per_level=n(40, 24), convergence_check=False)
    rsb1 = RSBParams.from_interior((0.5,), (0.5,))
    x_log = PathFunctional("logcosh_sum", scale=1.2)
    est, reference = log_partition_identity(
        rsb1, n(200, 60), x_log, (0.8,), n(500, 120), seed(4), quad
    )
    records.append(identity_check("log_partition_chain", est, Exact(reference), tol))

    x_lin = PathFunctional("linear", coeffs=(0.6, 0.4))
    est, reference = tilted_average(
        rsb2, n(100, 40), x_lin, PathFunctional("quadratic", coeffs=(0.5, 0.3)),
        (0.7, 0.5), n(500, 120), seed(5), quad,
    )
    records.append(identity_check("tilted_average", est, Exact(reference), tol))
    est, reference = tilted_average(
        rsb2, n(100, 40), x_lin, PairFunctional("pair_product", x_lin),
        (0.7, 0.5), n(500, 120), seed(6), quad, restricted_r=1,
    )
    records.append(identity_check("tilted_restricted_r1", est, Exact(reference), tol))
    tilted, plain = weight_tilt_invariance(
        rsb1, n(200, 60), x_log, (0.8,), "max_weight", n(800, 200), seed(7)
    )
    records.append(identity_check("weight_tilt_max_weight", tilted, plain, tol))

    # High-temperature closed form for the one-level optimized bound.
    beta = 0.4
    opt = optimize_bound(sk_mixture(beta), 0.0, 1, quad)
    records.append(
        identity_check(
            "rs_bound_closed_form", opt.value,
            Exact(math.log(2.0) + beta**2 / 4.0), tol, allowance=1e-3,
        )
    )

    # Finite-size free energy sits below the optimized bound.
    records.append(
        verify_bound(
            n(8, 6), sk_mixture(1.2), 0.3, n(500, 200), quad, seed(8),
            optimize_k=n(2, 1), tolerance_multiplier=tol,
        )
    )

    # Interpolation: endpoints, derivative identity, overlap masses,
    # and the error term against its coupled-pair representation.
    mix_i = sk_mixture(0.5)
    rsb_i = RSBParams.from_interior((0.4, 0.8), (0.3, 0.6))
    reference = phi0(rsb_i, mix_i, 0.3, quad)
    est = phi_t(4, 0.0, mix_i, rsb_i, n(50, 30), 0.3, n(300, 120), seed(9))
    records.append(identity_check("phi_t0_vs_quadrature", est, Exact(reference.phi0), tol))
    est = phi_t(4, 1.0, mix_i, rsb_i, n(50, 30), 0.3, n(300, 120), seed(10))
    fe = exact_free_energy(4, mix_i, 0.3, n(400, 200), seed(11))
    records.append(identity_check("phi_t1_vs_enumeration", est, fe, tol))
    records.append(
        derivative_check(
            4, 0.5, mix_i, rsb_i, n(30, 20), 0.3, n(200, 80), seed(12),
            tolerance_multiplier=tol,
        ).record
    )
    estimates = gibbs_overlap_mass(4, 0.9, mix_i, rsb_i, n(50, 30), 0.3, n(300, 100), seed(13))
    records += mass_records("gibbs_overlap", estimates, rsb_i, tol, extras={"t": 0.9})
    rsb_e = RSBParams.from_interior((0.3, 0.6), (0.3, 0.6))
    records.append(
        error_term_check(
            4, 0.5, [1], mix_i, rsb_e, n(40, 25), 0.3, n(100, 50), seed(14), tol
        )[0].record
    )

    # The restricted Gibbs average against tensor quadrature, plus its
    # exact normalization and chain factorization.
    quad_mu = QuadratureSpec(nodes_per_level=14, convergence_check=False)
    [report] = error_term_check(1, 0.5, [1], mix_i, rsb_e, n(60, 30), 0.3, n(250, 100), seed(15))
    mu = mu_r_quadrature(1, 2, 1, mix_i, rsb_e, 0.3, 0.5, "delta_overlap", quad_mu)
    records.append(
        identity_check("mu_quadrature_r1", report.coupled_average, Exact(mu.value), tol)
    )
    unit = mu_r_quadrature(1, 2, 1, mix_i, rsb_e, 0.3, 0.5, "one", quad_mu)
    records.append(
        identity_check("mu_normalization", unit.value, Exact(1.0), tol, allowance=1e-8)
    )
    records.append(
        identity_check(
            "mu_chain_factorization", unit.chain_max_diff, Exact(0.0), tol, allowance=1e-8
        )
    )
    return records, None, None


_COMMANDS = {
    "pd": cmd_pd,
    "cascade": cmd_cascade,
    "bound": cmd_bound,
    "optimize": cmd_optimize,
    "sk-exact": cmd_sk_exact,
    "interpolate": cmd_interpolate,
    "verify-all": cmd_verify_all,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadelab",
        description="verification runs for cascade, recursion, and interpolation identities",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    specs = {
        "pd": "point-process pair sum, moment identities, tilt invariance",
        "cascade": "overlap masses of the hierarchical weights",
        "bound": "evaluate the k-level bound (optionally scan q1)",
        "optimize": "minimize the bound over (m, q) at fixed k",
        "sk-exact": "exact finite-size free energy, optionally vs a bound",
        "interpolate": "interpolated free energy checks on the joint system",
        "verify-all": "run the whole identity battery",
    }
    for name, help_text in specs.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", help="path to a key = value config file")
        for key, row in _KEYS.items():
            if row.commands is not None and name not in row.commands:
                continue
            bare = {} if row.const is None else {"nargs": "?", "const": row.const}
            sub.add_argument(
                f"--{key.replace('_', '-')}", *row.aliases, dest=key, type=row.flag_type,
                choices=row.choices, default=argparse.SUPPRESS, **bare,
            )
    return parser


def run(argv=None) -> int:
    """Execute one command line; returns the exit status."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        file_values = {}
        if getattr(ns, "config", None):
            file_values = parse_config_text(Path(ns.config).read_text())
        flag_values = {
            key: val for key, val in vars(ns).items() if key not in ("command", "config")
        }
        cfg = resolve_config(ns.command, file_values, flag_values)
        records, result, series = _COMMANDS[ns.command](cfg)
        report = build_report(cfg, records, result)
        text = report_json(report)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    try:
        if cfg.json_out:
            Path(cfg.json_out).write_text(text)
        if series is not None and cfg.csv_out:
            emit_series(cfg.csv_out, *series)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["pass"] else 1


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
