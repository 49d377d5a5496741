"""Monte Carlo estimates and the single tolerance rule used everywhere.

An identity check passes when

    |lhs - rhs| <= tolerance_multiplier * sqrt(lhs_se^2 + rhs_se^2) + allowance

where the allowance is a declared analytic bound on systematic error
(finite truncation of point processes and cascades).  Every
comparison in the package and in the CLI reports goes through
``identity_check`` so the rule is auditable in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo result: mean, standard error across replicas, count.

    ``allowance`` carries the declared systematic-error bound attached to
    the estimate (zero when the estimator is exact up to sampling noise).
    """

    mean: float
    std_error: float
    replicas: int
    allowance: float = 0.0

    def __post_init__(self):
        if self.replicas < 2:
            raise ValueError("an Estimate needs at least 2 replicas")
        if not all(map(math.isfinite, (self.mean, self.std_error, self.allowance))):
            raise FloatingPointError(
                f"non-finite estimate: mean {self.mean}, std_error "
                f"{self.std_error}, allowance {self.allowance}"
            )
        if self.std_error < 0 or self.allowance < 0:
            raise ValueError("std_error and allowance must be nonnegative")

    @classmethod
    def from_values(cls, values, allowance: float = 0.0) -> "Estimate":
        values = np.asarray(values, dtype=float)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise FloatingPointError(
                f"replica {bad[0]} gave the non-finite value {values[bad[0]]}"
            )
        n = values.size
        return cls(
            mean=float(values.mean()),
            std_error=float(values.std(ddof=1) / math.sqrt(n)),
            replicas=n,
            allowance=float(allowance),
        )

    @classmethod
    def from_pairs(cls, rows) -> "Estimate":
        """Mean and standard error of the values in per-replica (value,
        allowance) rows, with the mean allowance attached."""
        rows = np.asarray(rows, dtype=float)
        return cls.from_values(rows[..., 0], allowance=float(rows[..., 1].mean()))


@dataclass(frozen=True)
class Exact:
    """A deterministic reference value (zero standard error)."""

    value: float


@dataclass
class CheckRecord:
    """One identity comparison, in the shape the JSON reports use."""

    name: str
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    tolerance: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "lhs": self.lhs,
            "lhs_se": self.lhs_se,
            "rhs": self.rhs,
            "rhs_se": self.rhs_se,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        out.update(self.extras)
        return out


def _mean_se(side) -> tuple:
    if isinstance(side, Estimate):
        return side.mean, side.std_error, side.allowance
    if isinstance(side, Exact):
        return side.value, 0.0, 0.0
    return float(side), 0.0, 0.0


def identity_check(
    name: str,
    lhs,
    rhs,
    tolerance_multiplier: float = 3.0,
    allowance: float = 0.0,
    extras: dict | None = None,
) -> CheckRecord:
    """Compare two sides (Estimate, Exact, or plain float) under the rule.

    Allowances attached to either side are added to the explicit
    ``allowance`` argument.
    """
    lm, ls, la = _mean_se(lhs)
    rm, rs, ra = _mean_se(rhs)
    tol = tolerance_multiplier * math.hypot(ls, rs) + allowance + la + ra
    rec = CheckRecord(
        name=name,
        lhs=lm,
        lhs_se=ls,
        rhs=rm,
        rhs_se=rs,
        tolerance=tol,
        passed=bool(abs(lm - rm) <= tol),
        extras=dict(extras or {}),
    )
    return rec
