"""Covariance mixtures xi(x) = sum_p beta_p^2 x^p and derived scalars.

The model's covariance function is a finite positive mixture of monomials.
Everything downstream (Hamiltonian synthesis, field variances, the
interpolation error density, the bound's gradient) is written in terms of
xi, its first two derivatives, theta(x) = x xi'(x) - xi(x), and
Delta(a, b) = xi(a) - a xi'(b) + theta(b).

Convexity of xi on [-1, 1] is enforced structurally: each power is either
1 or even.  Odd powers >= 3 are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MixtureFunction:
    """xi(x) = sum over (p, beta_p) of beta_p^2 x^p.

    coefficients: tuple of (p, beta_p) pairs, p integer >= 1, beta_p >= 0.
    Zero beta_p is allowed so degenerate (noise-free) models are
    representable; negative or non-finite beta_p is rejected, and so is a
    mixture whose xi(1), xi'(1) or xi''(1) overflows.
    """

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("mixture needs at least one (p, beta_p) pair")
        seen = set()
        for p, beta in self.coefficients:
            if int(p) != p or p < 1:
                raise ValueError(f"power must be an integer >= 1, got {p!r}")
            if p in seen:
                raise ValueError(f"duplicate power {p}")
            seen.add(p)
            if not math.isfinite(beta):
                raise ValueError(f"beta_{p} must be finite, got {beta!r}")
            if beta < 0:
                raise ValueError(f"beta_{p} must be nonnegative, got {beta!r}")
            if beta > 0 and p != 1 and p % 2 != 0:
                raise ValueError(
                    f"odd power {p} >= 3 breaks convexity of xi on [-1, 1]"
                )
        for name, value in (
            ("xi(1)", self.xi(1.0)),
            ("xi'(1)", self.xi_prime(1.0)),
            ("xi''(1)", self.xi_second(1.0)),
        ):
            if not math.isfinite(value):
                raise ValueError(f"mixture {list(self.coefficients)} overflows: {name} = {value}")

    def xi(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for p, beta in self.coefficients:
            out += beta * beta * x**p
        return out if out.ndim else float(out)

    def xi_prime(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for p, beta in self.coefficients:
            out += beta * beta * p * x ** (p - 1)
        return out if out.ndim else float(out)

    def xi_second(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for p, beta in self.coefficients:
            if p >= 2:
                out += beta * beta * p * (p - 1) * x ** (p - 2)
        return out if out.ndim else float(out)

    @property
    def max_power(self) -> int:
        return max(p for p, _ in self.coefficients)

    def has_linear_part(self) -> bool:
        return any(p == 1 and beta > 0 for p, beta in self.coefficients)


def make_mixture(coefficients) -> MixtureFunction:
    """Build a MixtureFunction from an iterable of (p, beta_p) pairs.

    A power is kept as an int; one that is not a whole number is refused,
    not truncated.
    """
    pairs = [(p, float(b)) for p, b in coefficients]
    for p, _ in pairs:
        if int(p) != p:
            raise ValueError(f"power must be a whole number, got {p!r}")
    return MixtureFunction(tuple((int(p), b) for p, b in pairs))


def sk_mixture(beta: float) -> MixtureFunction:
    """The two-spin model at inverse temperature beta: xi(x) = beta^2 x^2 / 2.

    The conventional normalization stores the coefficient beta / sqrt(2) on
    the power-2 term, so that e.g. the replica-symmetric closed form of the
    free-energy bound is log 2 cosh(h) + beta^2 / 4.
    """
    return make_mixture([(2, beta / np.sqrt(2.0))])


def theta(mix: MixtureFunction, x: float) -> float:
    """theta(x) = x xi'(x) - xi(x), for x in [-1, 1]."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"theta argument {x} outside [-1, 1]")
    return float(x * mix.xi_prime(x) - mix.xi(x))


def delta(mix: MixtureFunction, a: float, b: float) -> float:
    """Delta(a, b) = xi(a) - a xi'(b) + theta(b) >= 0 for convex xi."""
    if not (-1.0 <= a <= 1.0 and -1.0 <= b <= 1.0):
        raise ValueError(f"delta arguments ({a}, {b}) outside [-1, 1]")
    return float(mix.xi(a) - a * mix.xi_prime(b) + theta(mix, b))


def delta_array(mix: MixtureFunction, a, b: float):
    """Vectorized Delta(a, b) over an array of overlaps a at fixed b."""
    a = np.asarray(a, dtype=float)
    tb = b * mix.xi_prime(b) - mix.xi(b)
    return mix.xi(a) - a * mix.xi_prime(b) + tb


def check_field_compatible(mix: MixtureFunction) -> None:
    """Reject mixtures whose xi'(0) > 0 in field-building contexts.

    The field builders and the coupled quadrature are written and tested
    for xi'(0) = 0 only.  A linear (p = 1) term, whose shared variance
    xi'(0) > 0 the root column must carry, is therefore rejected wherever
    fields are built; the bound's quadrature accepts it.
    """
    if mix.has_linear_part():
        raise ValueError(
            "mixtures with a linear (p=1) term have xi'(0) > 0 and cannot "
            "be used to build hierarchical Gaussian fields"
        )


@dataclass(frozen=True)
class RSBParams:
    """The ordered sequences m_0 .. m_k and q_0 .. q_{k+1}.

    m is stored with the leading m_0 = 0 and q with both endpoints
    q_0 = 0 and q_{k+1} = 1, so level variances and the theta terms of
    the bound need no special casing.  Both sequences must be strictly
    increasing; m_k = 1 is legal (quadrature handles the endpoint) but
    simulation paths additionally require m_k < 1.
    """

    k: int
    m: tuple
    q: tuple

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.m) != self.k + 1:
            raise ValueError(f"m must have length k+1 = {self.k + 1}")
        if len(self.q) != self.k + 2:
            raise ValueError(f"q must have length k+2 = {self.k + 2}")
        if self.m[0] != 0.0:
            raise ValueError("m_0 must equal 0")
        if self.q[0] != 0.0 or self.q[-1] != 1.0:
            raise ValueError("q_0 must equal 0 and q_{k+1} must equal 1")
        for a, b in zip(self.m, self.m[1:]):
            if not a < b:
                raise ValueError(f"m sequence not strictly increasing: {self.m}")
        if self.m[-1] > 1.0:
            raise ValueError(f"m_k = {self.m[-1]} exceeds 1")
        for a, b in zip(self.q, self.q[1:]):
            if not a < b:
                raise ValueError(f"q sequence not strictly increasing: {self.q}")

    @classmethod
    def from_interior(cls, m_interior, q_interior) -> "RSBParams":
        """Build from the user-facing lists m_1..m_k and q_1..q_k."""
        m_interior = tuple(float(x) for x in m_interior)
        q_interior = tuple(float(x) for x in q_interior)
        if len(m_interior) != len(q_interior):
            raise ValueError("m and q interiors must have equal length k")
        k = len(m_interior)
        return cls(k=k, m=(0.0,) + m_interior, q=(0.0,) + q_interior + (1.0,))

    @property
    def m_interior(self) -> tuple:
        return self.m[1:]

    @property
    def q_interior(self) -> tuple:
        return self.q[1:-1]

    def halved_below(self, r: int) -> "RSBParams":
        """The same q ladder with exponents m_l / 2 for l < r.

        These are the cascade exponents of the replica pair coupled at
        level r, and the V-chain exponents of its quadrature reference.
        """
        if not 1 <= r <= self.k:
            raise ValueError(f"r outside 1..{self.k}")
        interior = tuple(
            m / 2.0 if level < r else m
            for level, m in enumerate(self.m_interior, start=1)
        )
        return RSBParams.from_interior(interior, self.q_interior)

    def variances(self, mix: MixtureFunction) -> np.ndarray:
        """Column variances v_0 = xi'(q_1) and v_l = xi'(q_{l+1}) - xi'(q_l).

        The root column carries all of xi'(q_1), so the variance xi'(0) of
        a linear (p = 1) term, which every leaf shares, is not dropped.
        """
        qp = mix.xi_prime(np.asarray(self.q))
        v = np.diff(qp)
        v[0] = qp[1]
        return v

    def requires_simulable(self) -> None:
        if self.m[-1] >= 1.0:
            raise ValueError(
                "m_k must be < 1 for simulation: the level-k Poisson sum "
                "diverges at m = 1"
            )
