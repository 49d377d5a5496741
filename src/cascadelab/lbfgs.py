"""Unconstrained limited-memory BFGS with a strong-Wolfe line search.

The textbook method (Nocedal & Wright, *Numerical Optimization*, 2nd ed.,
Algorithms 7.4 and 3.5-3.6), in numpy alone, for the bound's search in
``recursion.optimize_bound``:

- the search direction is -H g from the two-loop recursion over the last
  ``MEMORY`` pairs (s, y), with H0 = (s^T y / y^T y) I rescaled from the
  newest pair at every iteration;
- the first step is steepest descent of length 1 (alpha = 1/||g||), every
  later one starts from alpha = 1;
- the line search brackets a step that meets the strong Wolfe conditions
  (C1, C2) and zooms into the bracket by safeguarded cubic interpolation.

Stopping rules, checked after every accepted step:

- max |g| <= gtol: stationary;
- (f_old - f_new) / max(|f_old|, |f_new|, 1) <= ftol: the relative decrease
  has stalled.

The line search accepts a strong-Wolfe step, or, when its bracket
collapses first, the lowest trial that meets sufficient decrease.  The
bracket collapses at a kink of f, where the slope jumps across the step
and no step meets the curvature condition; the bound's sorted
coordinates have one wherever two ordered entries meet.

When no trial meets sufficient decrease, the first trial step alpha_0 is
the minimizer of the quadratic model f + alpha g^T d + alpha^2 |g^T d| /
(2 alpha_0) along d, which predicts a decrease of -alpha_0 g^T d / 2.  If
that predicted decrease already meets the ftol rule,
-alpha_0 g^T d / 2 <= ftol max(|f|, 1), the search stops as converged:
the step it could not find would have stopped it by the ftol rule
anyway, and near a minimum such steps are lost in the rounding of f.
Otherwise the memory is cleared and the search retries along -g; a
failure from steepest descent ends the search with ``success = False``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

MEMORY = 10
C1 = 1e-4
C2 = 0.9
MAX_ITERATIONS = 1000
MAX_LINE_EVALUATIONS = 20


@dataclass
class LBFGSResult:
    x: np.ndarray
    fun: float
    success: bool
    message: str


def _direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g by the two-loop recursion over the stored (s, y) pairs, oldest first.

    Every inner product the loops take is an entry of S^T g, Y^T r or
    S^T Y (S, Y: the pairs as rows), so each loop runs over scalars and
    the vectors are formed once: q = g - Y^T a, then r = gamma q + S^T (a - b).
    """
    if not pairs:
        return -g
    m = len(pairs)
    s_rows = np.array([s for s, _ in pairs])
    y_rows = np.array([y for _, y in pairs])
    sy = (s_rows @ y_rows.T).tolist()  # sy[i][j] = s_i^T y_j
    rho = [1.0 / sy[i][i] for i in range(m)]
    a = (s_rows @ g).tolist()
    for i in reversed(range(m)):
        for j in range(i + 1, m):
            a[i] -= a[j] * sy[i][j]
        a[i] *= rho[i]
    q = g - np.array(a) @ y_rows
    r = q * (sy[-1][-1] / float(y_rows[-1] @ y_rows[-1]))
    c = (y_rows @ r).tolist()  # becomes c[i] = a_i - b_i
    for i in range(m):
        for j in range(i):
            c[i] += c[j] * sy[j][i]
        c[i] = a[i] - rho[i] * c[i]
    return -(r + np.array(c) @ s_rows)


def _cubic_step(a0, f0, d0, a1, f1, d1):
    """The minimizer of the cubic through (a0, f0, d0) and (a1, f1, d1), or nan."""
    t1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = t1 * t1 - d0 * d1
    if not disc >= 0.0:
        return math.nan
    t2 = math.copysign(math.sqrt(disc), a1 - a0)
    return a1 - (a1 - a0) * (d1 + t2 - t1) / (d1 - d0 + 2.0 * t2)


def _line_search(fun, x, f, g, d, alpha):
    """A step along d from x: (accepted, alpha, f, g).

    Brackets with doubling steps, then zooms; each trial costs one call
    of ``fun``, at most ``MAX_LINE_EVALUATIONS`` in all.  Accepts the
    first trial that meets the strong Wolfe conditions, or, when the
    bracket collapses or the calls run out first, the lowest trial that
    meets sufficient decrease; when no trial meets it, returns x itself,
    not accepted.
    """
    slope0 = float(g @ d)
    calls = 0

    def trial(a):
        nonlocal calls
        calls += 1
        fa, ga = fun(x + a * d)
        return a, float(fa), float(ga @ d), ga

    def decreases(point):
        return point[1] <= f + C1 * point[0] * slope0  # False for nan

    def curved(point):
        return abs(point[2]) <= -C2 * slope0

    def best(lo):
        return lo[0] > 0.0, lo[0], lo[1], lo[3]

    def zoom(lo, hi):
        # lo meets sufficient decrease with the lowest value so far (or is
        # the start); the bracket between lo and hi holds a strong-Wolfe step
        while calls < MAX_LINE_EVALUATIONS:
            a_lo, a_hi = lo[0], hi[0]
            # the cubic's minimizer, kept a tenth of the bracket from its ends
            a = _cubic_step(*lo[:3], *hi[:3]) if math.isfinite(hi[1]) else math.nan
            width = abs(a_hi - a_lo)
            edge_lo, edge_hi = min(a_lo, a_hi) + 0.1 * width, max(a_lo, a_hi) - 0.1 * width
            a = 0.5 * (a_lo + a_hi) if math.isnan(a) else min(max(a, edge_lo), edge_hi)
            if np.array_equal(x + a * d, x + a_lo * d) or np.array_equal(x + a * d, x + a_hi * d):
                break  # the bracket has shrunk below the resolution of x
            point = trial(a)
            if not decreases(point) or point[1] >= lo[1]:
                hi = point
                continue
            if curved(point):
                return best(point)
            if point[2] * (a_hi - a_lo) >= 0.0:
                hi = lo
            lo = point
        return best(lo)

    prev = (0.0, f, slope0, g)
    while calls < MAX_LINE_EVALUATIONS:
        point = trial(alpha)
        if not decreases(point) or (prev[0] > 0.0 and point[1] >= prev[1]):
            return zoom(prev, point)
        if curved(point):
            return best(point)
        if point[2] >= 0.0:
            return zoom(point, prev)
        prev = point
        alpha *= 2.0
    return best(prev)


def minimize(fun, x0, gtol: float, ftol: float) -> LBFGSResult:
    """Minimize ``fun`` from ``x0``; ``fun(x)`` returns (value, gradient).

    See the module docstring for the method and its stopping rules.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    f, g = float(f), np.asarray(g, dtype=float)
    pairs = deque(maxlen=MEMORY)
    for _ in range(MAX_ITERATIONS):
        if np.abs(g).max(initial=0.0) <= gtol:
            return LBFGSResult(x, f, True, "max |g| <= gtol")
        d = _direction(g, pairs)
        slope = float(g @ d)
        if not slope < 0.0:  # a stale curvature pair: fall back to -g
            pairs.clear()
            d, slope = -g, -float(g @ g)
        alpha_0 = 1.0 if pairs else 1.0 / math.sqrt(-slope)
        accepted, alpha, f_new, g_new = _line_search(fun, x, f, g, d, alpha_0)
        if not accepted:
            if -0.5 * alpha_0 * slope <= ftol * max(abs(f), 1.0):
                return LBFGSResult(x, f, True, "predicted decrease <= ftol")
            if pairs:
                pairs.clear()
                continue
            return LBFGSResult(x, f, False, "no step lowers the value")
        g_new = np.asarray(g_new, dtype=float)
        s, y = alpha * d, g_new - g
        if s @ y > 0.0:
            pairs.append((s, y))
        stalled = (f - f_new) / max(abs(f), abs(f_new), 1.0) <= ftol
        x, f, g = x + s, f_new, g_new
        if stalled:
            return LBFGSResult(x, f, True, "relative decrease <= ftol")
    return LBFGSResult(x, f, False, "iteration limit")
