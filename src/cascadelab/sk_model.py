"""Finite-size mixed p-spin Hamiltonians and exact free energies.

The Hamiltonian is the Gaussian field on the hypercube with covariance

    E H(sigma1) H(sigma2) = N xi(R_{1,2}),

realized by collapsing the p-spin sums onto the monomial basis: every
index tuple (i_1..i_p) contributes to the monomial sigma_S where S is the
set of sites appearing an odd number of times, so H = sum_S A_S sigma_S
with independent A_S ~ N(0, var_S).  Self-interactions (repeated indices)
are kept, which is exactly what makes the covariance N xi(R) without 1/N
corrections.  Free energies are exact per disorder draw: the 2^N-term
log-sum is enumerated, and randomness enters only through the disorder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from .mixture import MixtureFunction
from .seeding import MODULE_SK, derive_rng, replica_rows, run_replicas
from .stats import CheckRecord, Estimate, identity_check

MAX_SITES = 14
MAX_POWER = 4


def _check_size(N: int, mix: MixtureFunction) -> None:
    if not 1 <= N <= MAX_SITES:
        raise ValueError(f"N = {N} outside 1..{MAX_SITES}")
    if mix.max_power > MAX_POWER:
        raise ValueError(
            f"mixture power {mix.max_power} exceeds the enumeration limit {MAX_POWER}"
        )


@lru_cache(maxsize=None)
def _tuple_counts(N: int, p: int):
    """Number of index p-tuples over N sites whose odd-count set is each mask."""
    counts: dict[int, int] = {}
    for tup in itertools.product(range(N), repeat=p):
        mask = 0
        for i in tup:
            mask ^= 1 << i
        counts[mask] = counts.get(mask, 0) + 1
    return counts


def monomial_variances(N: int, mix: MixtureFunction) -> dict:
    """Variance of the Gaussian coefficient of each monomial sigma_S.

    Keys are site-set bitmasks (bit i set means site i is in S); mask 0 is
    the spin-independent term produced by fully paired indices.  Summing
    var_S * sigma_S(s1) * sigma_S(s2) over S gives N xi(R) exactly.
    """
    _check_size(N, mix)
    out: dict[int, float] = {}
    for p, beta in mix.coefficients:
        if beta == 0.0:
            continue
        scale = beta**2 * N ** (-(p - 1))
        for mask, count in _tuple_counts(N, p).items():
            out[mask] = out.get(mask, 0.0) + scale * count
    return out


@lru_cache(maxsize=None)
def spin_matrix(N: int) -> np.ndarray:
    """All configurations as +-1 rows, shape (2^N, N).

    Row s encodes sigma_i = 1 - 2 * bit_i(s); every other spin table
    derives from this one.  The table is built once per N and shared, so
    it is read-only.
    """
    bits = (np.arange(2**N)[:, None] >> np.arange(N)[None, :]) & 1
    spins = (1 - 2 * bits).astype(float)
    spins.flags.writeable = False
    return spins


def monomial_signs(N: int, masks) -> np.ndarray:
    """Matrix of sigma_S values, one row per spin configuration.

    Column j is the product of the sigma_i over the sites of masks[j]
    (the empty product 1 for mask 0), in the row order of ``spin_matrix``.
    The table is built once per (N, masks) and shared, so it is read-only.
    """
    return _monomial_signs(N, tuple(masks))


@lru_cache(maxsize=8)
def _monomial_signs(N: int, masks: tuple) -> np.ndarray:
    spins = spin_matrix(N)
    cols = []
    for mask in masks:
        sites = [i for i in range(N) if (mask >> i) & 1]
        cols.append(spins[:, sites].prod(axis=1))
    signs = np.stack(cols, axis=1) if cols else np.zeros((2**N, 0))
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=8)
def monomial_table(N: int, mix: MixtureFunction) -> tuple:
    """(masks, variances, signs, scales) of the Hamiltonian's monomial basis.

    The site-set masks in increasing order, their coefficients' variances
    and standard deviations, and their ``monomial_signs`` table, aligned
    by column; built once per (N, mix) and shared read-only.
    """
    by_mask = monomial_variances(N, mix)
    masks = tuple(sorted(by_mask))
    variances = np.array([by_mask[m] for m in masks])
    scales = np.sqrt(variances)
    variances.flags.writeable = scales.flags.writeable = False
    return masks, variances, monomial_signs(N, masks), scales


@lru_cache(maxsize=None)
def spin_sums(N: int) -> np.ndarray:
    """sum_i sigma_i for every configuration, in the same row order.

    Built once per N and shared read-only, as ``spin_matrix`` is.
    """
    sums = spin_matrix(N).sum(axis=1)
    sums.flags.writeable = False
    return sums


@dataclass
class HamiltonianTable:
    """One disorder realization: 2^N Hamiltonian values and coefficients.

    ``variances`` and the columns of ``signs`` are aligned with ``masks``:
    H = signs @ coefficients, with coefficient j of variance variances[j].
    """

    N: int
    masks: tuple
    variances: np.ndarray
    signs: np.ndarray  # (2^N, len(masks)), sigma_S per configuration
    coefficients: np.ndarray
    values: np.ndarray


def sample_hamiltonian(N: int, mixture: MixtureFunction, seed) -> HamiltonianTable:
    """Draw one disorder realization as a table over all 2^N configurations."""
    masks, variances, signs, scales = monomial_table(N, mixture)
    rng = seed if isinstance(seed, np.random.Generator) else derive_rng(seed, MODULE_SK)
    coefficients = rng.standard_normal(len(masks)) * scales
    return HamiltonianTable(
        N=N, masks=masks, variances=variances, signs=signs,
        coefficients=coefficients, values=signs @ coefficients,
    )


def covariance_exact(N: int, mix: MixtureFunction, sigma1, sigma2) -> float:
    """E H(sigma1) H(sigma2) = sum_S var_S sigma1_S sigma2_S, from ``monomial_table``."""
    _, variances, signs, _ = monomial_table(N, mix)
    return float(variances @ (signs[_config_index(sigma1)] * signs[_config_index(sigma2)]))


def _table(N: int, mixture: MixtureFunction, seed: tuple) -> HamiltonianTable:
    """The disorder draw from stream ``seed``, a (master, key...) tuple."""
    return sample_hamiltonian(N, mixture, derive_rng(*seed))


def _read_covariance(idx1: int, idx2: int, table: HamiltonianTable) -> float:
    return table.values[idx1] * table.values[idx2]


def _config_index(sigma) -> int:
    return int(sum((1 << i) for i, s in enumerate(sigma) if s < 0))


def hamiltonian_covariance(
    N: int, mix: MixtureFunction, sigma1, sigma2, replicas: int, seed: int
) -> Estimate:
    """Monte Carlo estimate of E H(sigma1) H(sigma2) / N over disorder."""
    _check_size(N, mix)
    read = partial(_read_covariance, _config_index(sigma1), _config_index(sigma2))
    vals = run_replicas(replica_rows, ((MODULE_SK,), partial(_table, N, mix), read), seed, replicas)
    return Estimate.from_values(vals / N)


def logsumexp(a, axis=None, keepdims=False):
    """log sum exp(a) over ``axis`` (all axes by default), in float64.

    The steps and bits of ``scipy.special.logsumexp`` at scipy 1.17
    (Blanchard, Higham and Higham 2021): the entries equal to the max are
    counted, not summed, so the result is log1p(s) + log(count) + max with
    s the sum of the other entries' exp(a - max) over the count.  An
    all -inf slice gives -inf, a +inf entry +inf and a NaN entry NaN; an
    empty slice raises ValueError, where scipy returns -inf.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    a_max = a.max(axis=axes, keepdims=True)
    at_max = a == a_max
    count = at_max.sum(axis=axes, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.exp(a - a_max)
        terms[at_max] = 0.0
        s = terms.sum(axis=axes, keepdims=True) / count
        out = np.log1p(s) + np.log(count) + a_max
    return out if keepdims else out.squeeze(axis=axes)[()]


def log_partition(table: HamiltonianTable, h: float) -> float:
    """log sum_sigma exp(H(sigma) + h sum_i sigma_i), exact."""
    return float(logsumexp(table.values + h * spin_sums(table.N)))


def _read_free_energy(h: float, table: HamiltonianTable) -> float:
    return log_partition(table, h) / table.N


def exact_free_energy(
    N: int, mixture: MixtureFunction, h: float, disorder_replicas: int, seed: int
) -> Estimate:
    """F_N = N^{-1} E log Z_N, exact inner enumeration, MC over disorder."""
    _check_size(N, mixture)
    if disorder_replicas < 200:
        raise ValueError("disorder_replicas must be >= 200")
    args = ((MODULE_SK,), partial(_table, N, mixture), partial(_read_free_energy, h))
    vals = run_replicas(replica_rows, args, seed, disorder_replicas)
    return Estimate.from_values(vals)


def verify_bound(
    N: int,
    mixture: MixtureFunction,
    h: float,
    disorder_replicas: int,
    quad,
    seed: int,
    rsb=None,
    optimize_k: int | None = None,
    tolerance_multiplier: float = 3.0,
) -> CheckRecord:
    """Check F_hat_N <= B + c SE against a supplied or optimized bound.

    c is ``tolerance_multiplier``.  The record is built by
    ``identity_check``, but its verdict is one-sided: the finite-N free
    energy sits below the bound up to statistical error, with no credit
    for how far below.
    """
    from .recursion import guerra_bound, optimize_bound

    if (rsb is None) == (optimize_k is None):
        raise ValueError("supply exactly one of rsb or optimize_k")
    if rsb is not None:
        bound = guerra_bound(rsb, mixture, h, quad)
        extras = {"k": rsb.k, "mode": "fixed"}
    else:
        # only the bound is read, so phi(0)'s convergence check is not paid for
        opt = optimize_bound(mixture, h, optimize_k, replace(quad, convergence_check=False))
        bound = opt.value
        extras = {
            "k": optimize_k,
            "mode": "optimized",
            "params_m": list(opt.params.m),
            "params_q": list(opt.params.q),
            "stationarity": opt.stationarity,
        }
    fe = exact_free_energy(N, mixture, h, disorder_replicas, seed)
    extras["margin"] = bound - fe.mean
    record = identity_check(
        "free_energy_bound", fe, bound, tolerance_multiplier, extras=extras
    )
    record.passed = bool(fe.mean - bound <= record.tolerance)
    return record
