"""Interpolating Gibbs systems joining a spin Hamiltonian to cascade fields.

phi(t) = (1/N) E log sum_{sigma,alpha} w_alpha exp(sqrt(t) H(sigma) +
sqrt(1-t) s^alpha.sigma + h sum_i sigma_i) moves between the cascade
recursion value at t=0 and the finite-size free energy at t=1.  For one
disorder draw the joint measure over (sigma, leaf) is enumerated exactly,
so statistical error comes only from disorder replicas and systematic
error only from cascade truncation, which is corrected and budgeted the
same way the plain cascade estimators do it.

Every pair average under Gamma x Gamma is a difference of prefix sums of
per-leaf moments, read from one table per system (``wedge_table``).

The derivative identity is different: it holds verbatim for the realized
truncated system (its proof is Gaussian integration by parts at fixed
weights, and truncation changes neither the field covariances nor the
Hamiltonian law), so the formula side is evaluated raw, without any
truncation correction.  Its other side is the exact pathwise derivative
of log Z_t for the same draw, so that check has no systematic term.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .cascade import (
    TAIL_ACCURACY,
    Cascade,
    attach_fields,
    build_cascade,
    prefix_cross,
)
from .mixture import MixtureFunction, RSBParams, delta_array, theta
from .seeding import MODULE_INTERP, MODULE_SK, derive_rng, replica_rows, run_replicas, stream_key
from .sk_model import (
    HamiltonianTable,
    logsumexp,
    sample_hamiltonian,
    spin_matrix,
    spin_sums,
)
from .stats import CheckRecord, Estimate, identity_check

MAX_JOINT_SITES = 8
MAX_JOINT_LEAVES = 10**4
MAX_JOINT_STATES = 2_500_000
MAX_COUPLED_SITES = 4
MAX_COUPLED_RSB = 2
NORMALIZATION_TOL = 1e-10

_OP_PHI = 1
_OP_DERIVATIVE = 2
_OP_MASS = 3
_OP_ERROR_PLAIN = 4
_OP_ERROR_COUPLED = 5


def _check_joint_budget(N: int, rsb: RSBParams, b: int, t: float) -> None:
    if not 1 <= N <= MAX_JOINT_SITES:
        raise ValueError(f"N outside 1..{MAX_JOINT_SITES}")
    if b ** rsb.k > MAX_JOINT_LEAVES:
        raise ValueError(f"leaf count {b ** rsb.k} exceeds {MAX_JOINT_LEAVES}")
    if 2**N * b ** rsb.k > MAX_JOINT_STATES:
        raise ValueError("joint enumeration exceeds the state budget")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t = {t} outside [0, 1]")


def _check_coupled_budget(N: int, rsb: RSBParams, b: int, t: float) -> None:
    if not 1 <= N <= MAX_COUPLED_SITES:
        raise ValueError(f"N outside 1..{MAX_COUPLED_SITES}")
    if rsb.k > MAX_COUPLED_RSB:
        raise ValueError(f"k = {rsb.k} exceeds {MAX_COUPLED_RSB}")
    if 4**N * b ** rsb.k > MAX_JOINT_STATES:
        raise ValueError("coupled enumeration exceeds the state budget")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t = {t} outside [0, 1]")


def _tilted_loss(eps, rho):
    """Missing mass eps as seen by the Gibbs measure, whose mean tilt is rho."""
    return eps * rho / (1.0 - eps + eps * rho)


def _gibbs_weights(expo, message, axis=None):
    """exp(expo - log Z) and log Z, normalized over ``axis`` (all by default).

    Every slice along ``axis`` is checked to sum to one, and a non-finite
    sum fails the check; log Z is a float for the whole array and one
    value per slice otherwise.
    """
    log_norm = logsumexp(expo, axis=axis, keepdims=True)
    gamma = np.exp(expo - log_norm)
    if not np.max(np.abs(gamma.sum(axis=axis) - 1.0)) <= NORMALIZATION_TOL:
        raise AssertionError(message)
    return gamma, log_norm.item() if axis is None else log_norm.squeeze(axis)


def _leaf_mean(cascade: Cascade, values):
    """Mean of per-leaf ``values`` and its sampling error.

    Leaves under one root block share tree columns, so the error is
    taken across the b nearly independent level-1 subtree means, not
    across raw leaves.
    """
    blocks = values.reshape(cascade.b, -1).mean(axis=1)
    return float(values.mean()), float(blocks.std(ddof=1) / np.sqrt(blocks.size))


def _corrected_combo(terms, eps, margin):
    """Value and error budget of sum_j c_j S_j (1 - eps_{l_j})^2.

    ``terms`` holds (level, coefficient, raw level sum) triples.  The
    budget is a two-sided sensitivity sweep: every level loss moved to
    the edge of its margin at once, which dominates the per-level slope
    terms with their signs taken unfavorably.
    """

    def value(e):
        return sum(c * s * (1.0 - e[l]) ** 2 for l, c, s in terms)

    v = value(eps)
    hi = value(np.clip(eps + margin, 0.0, 1.0))
    lo = value(np.clip(eps - margin, 0.0, 1.0))
    return float(v), float(max(abs(hi - v), abs(lo - v)))


@dataclass
class GibbsSystem:
    """Exact joint measure over (sigma, leaf) at interpolation time t.

    ``at`` reads the same disorder draw at another time.  A system built
    at t = 1 holds no field tilt, since sqrt(1 - t) = 0 multiplies it
    away and +-0 + y = y leaves every bit of the exponent unchanged; it
    refuses to be read at any other time.
    """

    N: int
    t: float
    h: float
    mixture: MixtureFunction
    table: HamiltonianTable
    cascade: Cascade
    tilt: np.ndarray | None  # (2^N, b^k), sigma . s^alpha; None at t = 1
    gamma: np.ndarray = field(init=False)  # (2^N, b^k), normalized
    log_norm: float = field(init=False)

    def __post_init__(self):
        # One (2^N, b^k) buffer; addition commutes exactly, so starting
        # from the tilt term, or at t = 1 from H itself, keeps the bits of
        # the left-to-right sum.
        if self.tilt is None:
            if self.t != 1.0:
                raise RuntimeError(
                    f"a system built without its field tilt reads only t = 1, not t = {self.t}"
                )
            expo = np.repeat(self.table.values[:, None], self.leaf_count, axis=1)
        else:
            expo = np.multiply(np.sqrt(1.0 - self.t), self.tilt)
            expo += np.sqrt(self.t) * self.table.values[:, None]
        expo += self.h * spin_sums(self.N)[:, None]
        expo += np.log(self.cascade.leaf_weights_flat())[None, :]
        self.gamma, self.log_norm = _gibbs_weights(
            expo, "joint weights failed to normalize"
        )

    def at(self, t: float) -> "GibbsSystem":
        """The same disorder draw enumerated at time t."""
        return replace(self, t=t)

    @property
    def rsb(self) -> RSBParams:
        return self.cascade.rsb

    @property
    def leaf_count(self) -> int:
        return self.cascade.leaf_count

    def wedge_table(self) -> np.ndarray:
        """D[l, j] = sum over depth-l prefixes of (subtree sum of column j)^2.

        The columns are the leaf mass, the N site moments sum_sigma Gamma
        sigma_i and the M monomial moments sum_sigma Gamma sigma_S; row r-1
        minus row r (row k at r = k+1) is their pair product's mean on wedge r.
        """
        N, b, k = self.N, self.cascade.b, self.rsb.k
        # one C-ordered block, column axis first: each column's sums keep
        # the bits of that column summed alone
        cols = np.empty((1 + N + len(self.table.variances), self.leaf_count))
        cols[0] = self.gamma.sum(axis=0)
        cols[1 : N + 1] = (self.gamma.T @ spin_matrix(N)).T
        cols[N + 1 :] = (self.gamma.T @ self.table.signs).T
        x = cols.reshape((-1,) + (b,) * k)
        return prefix_cross(x, x, k)

    def phi_value(self) -> float:
        return self.log_norm / self.N

    def _tilt_statistics(self):
        """Mean per-leaf Gibbs tilt rho, the expected tilt of an unseen leaf, and its error."""
        return _leaf_mean(self.cascade, self.gamma.sum(axis=0) / self.cascade.leaf_weights_flat())

    def phi_allowance(self) -> float:
        """Truncation budget for the log-partition value.

        Normalizing the kept weights and dropping the missing tilted
        mass shift the log in opposite directions and cancel exactly
        when the mean tilt rho is 1; the residual log((1-eps)/(1-eps_f))
        is swept over the uncertainty of both the loss estimate and rho.
        """
        eps = float(self.cascade.cumulative_losses()[-1])
        rho, se = self._tilt_statistics()

        def shift(e, p):
            return np.log((1.0 - e) / (1.0 - _tilted_loss(e, p)))

        center = shift(eps, rho)
        worst = max(
            abs(shift(e, p) - center)
            for e in (eps * (1.0 - TAIL_ACCURACY), min(eps * (1.0 + TAIL_ACCURACY), 0.999))
            for p in (max(rho - 3.0 * se, 1e-12), rho + 3.0 * se)
        )
        return (abs(center) + worst) / self.N

    def loss_profile(self):
        """Tilted cumulative losses and their accuracy margins, l = 0..k.

        The sigma-marginal weights each leaf by its Gibbs factor, so the
        missing mass carries the mean tilt rho of an unseen leaf; the
        margin adds the sampling dispersion of rho to the loss envelope.
        """
        eps = self.cascade.cumulative_losses()
        rho, se = self._tilt_statistics()
        spread = 3.0 * se / rho if rho > 0 else 0.0
        eps_f = _tilted_loss(eps, rho)
        deep = 1.0 - (1.0 - eps_f[-1]) / (1.0 - eps_f)
        margin = eps_f * (TAIL_ACCURACY + spread) + TAIL_ACCURACY * deep
        margin[0] = 0.0
        return eps_f, margin

    def wedge_masses(self) -> list:
        """Corrected Gamma x Gamma wedge-class masses with their budgets.

        Entry r-1 is the (value, budget) pair of wedge depth r = 1..k+1.
        """
        k = self.rsb.k
        mass = self.gamma.sum(axis=0).reshape((self.cascade.b,) * k)
        c = prefix_cross(mass, mass)
        eps_f, margin = self.loss_profile()
        out = [
            _corrected_combo([(r - 1, 1.0, c[r - 1]), (r, -1.0, c[r])], eps_f, margin)
            for r in range(1, k + 1)
        ]
        out.append(_corrected_combo([(k, 1.0, c[k])], eps_f, margin))
        return out


def build_system(
    N: int,
    t: float,
    mixture: MixtureFunction,
    rsb: RSBParams,
    b: int,
    h: float,
    seed,
) -> GibbsSystem:
    """Enumerate Gamma{(sigma, alpha)} for one disorder realization.

    At t = 1 the field columns are never drawn: their weight sqrt(1 - t)
    is zero, and no other draw reads their streams.
    """
    _check_joint_budget(N, rsb, b, t)
    base = stream_key(seed)
    cascade = build_cascade(rsb, b, base)
    fields = attach_fields(b, mixture, rsb, N, base)
    table = sample_hamiltonian(N, mixture, derive_rng(*base, MODULE_SK))
    tilt = None if t == 1.0 else spin_matrix(N) @ fields.all_fields().T
    return GibbsSystem(N, t, h, mixture, table, cascade, tilt)


def _joint_rows(op, read, N, t, mixture, rsb, b, h, replicas, seed) -> np.ndarray:
    """``read`` of each replica's plain system at t, one row per replica."""
    _check_joint_budget(N, rsb, b, t)
    rsb.requires_simulable()
    build = partial(build_system, N, t, mixture, rsb, b, h)
    return run_replicas(replica_rows, ((MODULE_INTERP, op), build, read), seed, replicas)


def _read_phi(system: GibbsSystem):
    return system.phi_value(), system.phi_allowance()


def phi_t(
    N: int,
    t: float,
    mixture: MixtureFunction,
    rsb: RSBParams,
    b: int,
    h: float,
    disorder_replicas: int,
    seed: int,
) -> Estimate:
    """Monte Carlo over disorder of the exact inner log-sum."""
    return Estimate.from_pairs(
        _joint_rows(_OP_PHI, _read_phi, N, t, mixture, rsb, b, h, disorder_replicas, seed)
    )


def _wedge_rows(system: GibbsSystem):
    """Wedge-table rows l = 0..k: mass c, summed sites s, variance-weighted monomials v."""
    d, N = system.wedge_table(), system.N
    return d[:, 0], d[:, 1 : N + 1].sum(axis=1), d[:, N + 1 :] @ system.table.variances


def _pair_terms(system: GibbsSystem):
    """Exact <theta(q_wedge)> and <Delta(R, q_wedge)> under Gamma x Gamma.

    Independence of the two draws factorizes every pair average into
    per-leaf moments: xi(R(sigma, tau)) = (1/N) sum_S var_S sigma_S
    tau_S exactly (it is the Hamiltonian covariance) and R = (1/N)
    sum_i sigma_i tau_i, so every term is read off the three rows of
    ``_wedge_rows``; on wedge depth r = 1..k+1 (row r-1 minus row r) the
    comparison point is q_r, with q_{k+1} = 1.
    """
    mix, q, N, k = system.mixture, system.rsb.q, system.N, system.rsb.k
    c, s, v = _wedge_rows(system)
    at = (*q[1 : k + 1], 1.0)
    theta_avg = float(-np.diff(c, append=0.0) @ [theta(mix, x) for x in at])
    r_xi = float(-np.diff(s, append=0.0) @ [mix.xi_prime(x) for x in at]) / N
    return theta_avg, float(v[0]) / N - r_xi + theta_avg


@dataclass
class DerivativeReport:
    """Pathwise phi'(t) against the three-term formula, per-term detail."""

    t: float
    pathwise: Estimate
    formula: Estimate
    theta_term: Estimate
    delta_term: Estimate
    constant_term: float
    record: CheckRecord


def _read_derivative(system: GibbsSystem):
    """Pathwise d/dt log Z_t / N and the two pair terms at t.

    For the realized draw, d/dt log Z_t = <H(sigma) / (2 sqrt t) -
    sigma.s^alpha / (2 sqrt(1 - t))>_t exactly; 0 < t < 1 keeps both
    weights finite.
    """
    t = system.t
    energy = system.gamma.sum(axis=1) @ system.table.values
    field_term = np.vdot(system.gamma, system.tilt)
    pathwise = (energy / (2.0 * np.sqrt(t)) - field_term / (2.0 * np.sqrt(1.0 - t))) / system.N
    return (pathwise, *_pair_terms(system))


def derivative_check(
    N: int,
    t: float,
    mixture: MixtureFunction,
    rsb: RSBParams,
    b: int,
    h: float,
    replicas: int,
    seed: int,
    tolerance_multiplier: float = 3.0,
) -> DerivativeReport:
    """Pathwise derivative of phi against the exact Gibbs-average formula."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"t = {t} outside (0, 1)")
    vals = _joint_rows(_OP_DERIVATIVE, _read_derivative, N, t, mixture, rsb, b, h, replicas, seed)
    constant = -0.5 * theta(mixture, 1.0)
    pathwise = Estimate.from_values(vals[:, 0])
    theta_term = Estimate.from_values(0.5 * vals[:, 1])
    delta_term = Estimate.from_values(0.5 * vals[:, 2])
    formula_vals = constant + 0.5 * vals[:, 1] - 0.5 * vals[:, 2]
    formula = Estimate.from_values(formula_vals)
    diffs = vals[:, 0] - formula_vals
    record = identity_check(
        "derivative_identity",
        pathwise,
        formula,
        tolerance_multiplier,
        extras={
            "t": t,
            "paired_diff_mean": float(diffs.mean()),
            "paired_diff_se": float(diffs.std(ddof=1) / np.sqrt(len(diffs))),
        },
    )
    return DerivativeReport(t, pathwise, formula, theta_term, delta_term, constant, record)


def gibbs_overlap_mass(
    N: int,
    t: float,
    mixture: MixtureFunction,
    rsb: RSBParams,
    b: int,
    h: float,
    replicas: int,
    seed: int,
) -> list:
    """Estimates of Gamma x Gamma {wedge = r}, entry r-1 for r = 1..k+1.

    Target m_r - m_{r-1}; each replica's system is built once for all r.
    """
    read = GibbsSystem.wedge_masses
    vals = _joint_rows(_OP_MASS, read, N, t, mixture, rsb, b, h, replicas, seed)
    return [Estimate.from_pairs(vals[:, j]) for j in range(rsb.k + 1)]


def _restricted_deltas(system: GibbsSystem) -> list:
    """Corrected <Delta(R, q_wedge) I(wedge = r)> with its budget, entry r-1 for r = 1..k.

    On the event wedge = r the comparison point is q_r, so the average
    is one combination y of the three rows of ``_wedge_rows``, taken at
    levels r-1 and r; it gets the same truncation correction as the
    overlap masses.
    """
    mix, N, q = system.mixture, system.N, system.rsb.q
    c, s, v = _wedge_rows(system)
    eps_f, margin = system.loss_profile()
    out = []
    for r in range(1, system.rsb.k + 1):
        y = (v - mix.xi_prime(q[r]) * s) / N + theta(mix, q[r]) * c
        out.append(_corrected_combo([(r - 1, 1.0, y[r - 1]), (r, -1.0, y[r])], eps_f, margin))
    return out


@dataclass
class CoupledGibbsSystem:
    """Exact measure over (sigma^1, sigma^2, leaf) with halved exponents.

    The cascade weights use n_l = m_l / 2 below level r and m_l at and
    above it; the two field copies share their tree columns strictly
    below level r (their node streams are reused) and are independent
    from level r upward.  Given the leaf the two spin copies are
    independent, so the measure is held as its factors
    Gamma_r(sigma^1, sigma^2, alpha) = pi(alpha) p1(sigma^1 | alpha)
    p2(sigma^2 | alpha) and the (2^N, 2^N, b^k) product is never formed.
    ``table`` and ``p1`` do not depend on r: the systems of one disorder
    draw share them, read-only.
    """

    N: int
    t: float
    r: int
    h: float
    mixture: MixtureFunction
    table: HamiltonianTable
    cascade: Cascade
    p1: np.ndarray  # (2^N, b^k), copy 1 given the leaf, columns normalized
    p2: np.ndarray  # (2^N, b^k), copy 2 given the leaf, columns normalized
    pi: np.ndarray  # (b^k,), leaf marginal, normalized
    log_norm: float

    def delta_average(self):
        """<Delta(R_{1,2}, q_r)>_r with a missing-mass budget.

        A plain Gibbs mean has no concentration to correct; the bias
        from missing leaves is the tilted missing fraction times how far
        an unseen leaf's conditional mean sits from the reported value,
        estimated by the unweighted leaf average.
        """
        cascade = self.cascade
        spins = spin_matrix(self.N)
        overlaps = (spins @ spins.T) / self.N
        dvals = delta_array(self.mixture, overlaps, float(cascade.rsb.q[self.r]))
        leaf_means = np.einsum("sa,sa->a", self.p1, dvals @ self.p2)
        value = float(self.pi @ leaf_means)

        rho, _ = _leaf_mean(cascade, self.pi / cascade.leaf_weights_flat())
        eps_f = _tilted_loss(float(cascade.cumulative_losses()[-1]), rho)
        unseen, se = _leaf_mean(cascade, leaf_means)
        return value, eps_f * (abs(unseen - value) + 3.0 * se)


def build_coupled_system(
    N: int,
    t: float,
    r_values,
    mixture: MixtureFunction,
    rsb: RSBParams,
    b: int,
    h: float,
    seed,
) -> list:
    """Enumerate Gamma_r over spin pairs and leaves, one system per r in ``r_values``.

    One disorder draw serves every r: the Hamiltonian table, copy 1's
    columns and p1(sigma^1 | alpha) are built once and shared read-only.
    The cascade (exponents halved below r), copy 2's columns (split at
    r), p2 and the leaf marginal pi are built per r.
    """
    _check_coupled_budget(N, rsb, b, t)
    base = stream_key(seed)
    fields = attach_fields(b, mixture, rsb, N, base)
    table = sample_hamiltonian(N, mixture, derive_rng(*base, MODULE_SK))
    single = np.sqrt(t) * table.values + h * spin_sums(N)

    def conditional(columns):
        return _gibbs_weights(
            single[:, None] + np.sqrt(1.0 - t) * (spin_matrix(N) @ columns.T),
            "coupled conditionals failed to normalize",
            axis=0,
        )

    p1, leaf_log1 = conditional(fields.all_fields())
    for shared in (table.coefficients, table.values, p1):
        shared.flags.writeable = False
    systems = []
    for r in r_values:
        cascade = build_cascade(rsb.halved_below(r), b, base)
        p2, leaf_log2 = conditional(fields.independent_from(r).all_fields())
        pi, log_norm = _gibbs_weights(
            np.log(cascade.leaf_weights_flat()) + leaf_log1 + leaf_log2,
            "coupled weights failed to normalize",
        )
        systems.append(
            CoupledGibbsSystem(N, t, r, h, mixture, table, cascade, p1, p2, pi, log_norm)
        )
    return systems


def _delta_averages(systems) -> list:
    """(value, allowance) of ``delta_average`` for each system, in order."""
    return [system.delta_average() for system in systems]


@dataclass
class ErrorTermReport:
    """Both sides of the error-term factorization, plus the raw coupled mean."""

    r: int
    t: float
    lhs: Estimate
    rhs: Estimate
    coupled_average: Estimate
    record: CheckRecord


def error_term_check(
    N: int,
    t: float,
    r_values: list,
    mixture: MixtureFunction,
    rsb: RSBParams,
    b: int,
    h: float,
    replicas: int,
    seed: int,
    tolerance_multiplier: float = 3.0,
) -> list:
    """Wedge-restricted Delta under Gamma x Gamma vs the coupled system, one report per r.

    Each replica's plain system and its coupled disorder draw are each
    built once and serve every r; only the coupled cascade and copy 2's
    columns are built per r (``build_coupled_system``).  A level outside
    1..k or named twice is refused before any replica runs.
    """
    _check_coupled_budget(N, rsb, b, t)
    for r in r_values:
        if not 1 <= r <= rsb.k:
            raise ValueError(f"r = {r} outside 1..{rsb.k}")
    if len(set(r_values)) < len(r_values):
        raise ValueError(f"r = {list(r_values)} names a level twice")
    read = _restricted_deltas
    plain = _joint_rows(_OP_ERROR_PLAIN, read, N, t, mixture, rsb, b, h, replicas, seed)
    build = partial(build_coupled_system, N, t, tuple(r_values), mixture, rsb, b, h)
    args = ((MODULE_INTERP, _OP_ERROR_COUPLED), build, _delta_averages)
    # (replica, level, (value, allowance)) rows of the coupled means
    coupled_rows = run_replicas(replica_rows, args, seed, replicas)
    reports = []
    for j, r in enumerate(r_values):
        gap = rsb.m[r] - rsb.m[r - 1]
        lhs = Estimate.from_pairs(plain[:, r - 1])
        coupled = gap * coupled_rows[:, j]
        rhs = Estimate.from_pairs(coupled)
        coupled_average = Estimate.from_values(
            coupled[:, 0] / gap, allowance=float(coupled[:, 1].mean()) / gap
        )
        record = identity_check(
            f"error_term_r{r}", lhs, rhs, tolerance_multiplier,
            extras={"t": t, "r": r, "exponent_gap": gap},
        )
        reports.append(ErrorTermReport(r, t, lhs, rhs, coupled_average, record))
    return reports
