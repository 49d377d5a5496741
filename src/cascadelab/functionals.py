"""Closed menus of path and replica-pair functionals.

Every tilting identity is checked through a fixed menu so the reference
side always has a quadrature-computable form:

- ``PathFunctional``: scalar functions of the marks (g_1, ..., g_k) along
  one tree path.  "linear" and "quadratic" act level by level; the
  "logcosh_sum" entry couples levels through the running sum, which is
  what makes the nested (non-factorizing) quadrature worth testing.
- ``PairFunctional``: two-path functionals Y(path_a, path_b) restricted to
  products or sums of per-path linear forms, so that restricted pair
  statistics aggregate by tree prefix instead of by leaf pair.
- ``replica_pair_value``: spin functions f(sigma^1, sigma^2) used by the
  tilted two-replica averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mixture import MixtureFunction, delta_array

PATH_FORMS = ("constant", "linear", "quadratic", "logcosh_sum")
PAIR_FORMS = ("pair_product", "pair_sum")
REPLICA_FORMS = ("one", "overlap", "delta_overlap", "site_product")


@dataclass(frozen=True)
class PathFunctional:
    """X(g_1..g_k) with per-level coefficients c = (c_1..c_k).

    constant:    X = value.
    linear:      X = sum_l c_l g_l.
    quadratic:   X = sum_l c_l g_l^2.
    logcosh_sum: X = scale * log cosh(sum_l g_l).
    """

    form: str
    coeffs: tuple = ()
    value: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.form not in PATH_FORMS:
            raise ValueError(f"unknown path functional {self.form!r}")

    def __call__(self, marks):
        """Evaluate on broadcast-compatible per-level mark arrays."""
        if self.form == "constant":
            shape = np.broadcast_shapes(*(np.shape(g) for g in marks))
            return np.full(shape, self.value)
        if self.form == "linear":
            return sum(c * g for c, g in zip(self._c(len(marks)), marks))
        if self.form == "quadratic":
            return sum(c * g * g for c, g in zip(self._c(len(marks)), marks))
        total = sum(np.asarray(g) for g in marks)
        return self.scale * np.logaddexp(total, -total) - self.scale * np.log(2.0)

    def _c(self, k: int):
        if self.coeffs:
            if len(self.coeffs) != k:
                raise ValueError(f"need {k} level coefficients, got {self.coeffs}")
            return self.coeffs
        return (1.0,) * k


@dataclass(frozen=True)
class PairFunctional:
    """Y(path_a, path_b) built from one per-path linear form y = sum c_l g_l.

    pair_product: Y = y(a) * y(b);  pair_sum: Y = y(a) + y(b).
    """

    form: str
    base: PathFunctional = field(
        default_factory=lambda: PathFunctional("linear")
    )

    def __post_init__(self):
        if self.form not in PAIR_FORMS:
            raise ValueError(f"unknown pair functional {self.form!r}")
        if self.base.form not in ("constant", "linear"):
            raise ValueError("pair functionals take constant or linear bases")

    def mean_over_pair(self, mean_y, mean_1, pair=np.multiply):
        """E Y over two paths drawn independently given their shared part.

        ``mean_y`` and ``mean_1`` are one path's conditional means of
        (weight * y) and of the weight alone; the other path's are the same.
        ``pair(a, b)`` meets the two paths' means on their shared part: a
        product where that part is a grid axis, ``cascade.prefix_cross``
        on a cascade's tree prefixes, one row per depth 0..k.
        """
        if self.form == "pair_product":
            return np.asarray(pair(mean_y, mean_y))
        return 2.0 * np.asarray(pair(mean_y, mean_1))


def replica_pair_value(
    name: str,
    sigma1: np.ndarray,
    sigma2: np.ndarray,
    mix: MixtureFunction | None = None,
    q_r: float | None = None,
) -> float:
    """f(sigma^1, sigma^2) for the two-replica menu."""
    if name not in REPLICA_FORMS:
        raise ValueError(f"unknown replica functional {name!r}")
    if name == "one":
        return 1.0
    r12 = float(np.dot(sigma1, sigma2)) / len(sigma1)
    if name == "overlap":
        return r12
    if name == "site_product":
        return float(sigma1[0] * sigma2[0])
    if mix is None or q_r is None:
        raise ValueError("delta_overlap needs the mixture and q_r")
    return float(delta_array(mix, r12, q_r))
