"""Closed-form constants and analytic bounds for ensemble convergence.

Each bound is returned with an explicit inequality direction so callers and
tests assert the correct side.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .regions import Region, in_boundary
from .swapcore import LocalStructure

MAX_CANDIDATE_REGIONS = 20


@dataclass(frozen=True)
class BoundReport:
    """A bound value, the side of the inequality it sits on, and its inputs."""

    value: float
    kind: str  # "upper-bound" | "lower-bound" | "estimate"
    inputs: dict[str, Any] = field(default_factory=dict)


def _check_dimension(d: int) -> None:
    """Refuse a local dimension below 2, or one beyond a float, which the bounds take d as."""
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    if d > sys.float_info.max:
        raise ValueError(f"local dimension must be at most {sys.float_info.max:g}")


def swap_constant(d: int) -> float:
    """Branch weight N_d = d / (d^2 + 1) of an edge gate hitting a cut."""
    _check_dimension(d)
    return d / (d * d + 1)


def entangling_power(d: int) -> float:
    """Haar-average entangling power of a two-site gate, (d-1)^2 / (d^2 + 1).

    Equals 1 - 2 N_d and controls decay rates and spectral gaps.
    """
    _check_dimension(d)
    return (d - 1) ** 2 / (d * d + 1)


def boundary_probability(target: Region, structure: LocalStructure) -> float:
    """Total weight of local regions straddling the target's boundary."""
    if target.n != structure.n:
        raise ValueError("target universe does not match the structure")
    weights = structure.weight_vector()
    return math.fsum(q for q, region in zip(weights, structure.regions)
                     if in_boundary(region, target))


def _or_inf(function, *args) -> float:
    """function(*args), or inf where that is beyond a float: an upper bound that bounds
    nothing."""
    try:
        return function(*args)
    except OverflowError:
        return math.inf


def area_law_bound(pX: float, pXtilde: float, d: int, k: int) -> BoundReport:
    """Upper bound (1 - pXtilde + 2 N_d pX)^k on the average purity after k steps.

    ``pX`` and ``pXtilde`` are the largest and smallest boundary weights
    among regions reachable from the initial one in k moves.  The value also
    carries the weaker exponential form exp(-k (pX e_p - delta/(1 - e_p)))
    in the inputs echo.  With pX = pXtilde equal to the initial boundary
    weight and k = 1 the value is the exact one-step purity.
    """
    if not 0.0 <= pXtilde <= pX <= 1.0:
        raise ValueError(f"need 0 <= pXtilde <= pX <= 1, got ({pX}, {pXtilde})")
    if k < 0:
        raise ValueError("k must be >= 0")
    nd = swap_constant(d)
    ep = entangling_power(d)
    delta = pX - pXtilde
    value = _or_inf(pow, 1.0 - pXtilde + 2.0 * nd * pX, k)
    # 1 - e_p rounds to 0.0 from d = 2^54 on; its exact value is 2d/(d^2 + 1)
    gap = 1.0 - ep or 2 * d / (d * d + 1)
    exp_form = _or_inf(math.exp, -k * (pX * ep - delta / gap))
    return BoundReport(value, "upper-bound",
                       {"pX": pX, "pXtilde": pXtilde, "d": d, "k": k,
                        "exp_bound": exp_form})


def first_moment_convergence_bound(omega_norm: float, a_norm: float, epsilon: float,
                                   q_min: float, num_regions: int) -> BoundReport:
    """Circuit length after which first moments are within epsilon of equilibrium.

    Value: [log(|omega|_2 |A|_2 / eps) + (m - 1) log 2] / log(1/(1 - q_min)).
    With q_min = 1 a single step converges exactly, so the bound is 0 when
    the numerator is already nonpositive and 1 otherwise.
    """
    if omega_norm <= 0 or a_norm <= 0 or epsilon <= 0:
        raise ValueError("norms and epsilon must be > 0")
    if not 0.0 < q_min <= 1.0:
        raise ValueError("q_min must be in (0, 1]")
    if num_regions < 1:
        raise ValueError("num_regions must be >= 1")
    numerator = math.log(omega_norm * a_norm / epsilon) + (num_regions - 1) * math.log(2.0)
    inputs = {"omega_norm": omega_norm, "a_norm": a_norm, "epsilon": epsilon,
              "q_min": q_min, "num_regions": num_regions}
    if q_min == 1.0:
        return BoundReport(0.0 if numerator <= 0 else 1.0, "upper-bound", inputs)
    # the log is 0.0 in floats below q_min of about 1.1e-16, where -log1p(-q_min) is not
    value = max(0.0, numerator / (math.log(1.0 / (1.0 - q_min)) or -math.log1p(-q_min)))
    return BoundReport(value, "upper-bound", inputs)


def r1_candidate_spectrum(structure: LocalStructure) -> np.ndarray:
    """All 2^m subset sums of the region weights, sorted with multiplicity.

    The first-moment mixture map diagonalizes over commuting projections, so
    its eigenvalues form a subset of these candidates; 1 (the full sum) is
    always realized, but which other candidates survive depends on which
    joint projectors vanish.
    """
    m = len(structure.regions)
    if m > MAX_CANDIDATE_REGIONS:
        raise ValueError(f"candidate enumeration capped at {MAX_CANDIDATE_REGIONS} regions, got {m}")
    sums = np.zeros(1)
    for q in structure.weight_vector():
        sums = np.concatenate([sums, sums + q])
    sums.sort()
    return sums


def correlated_convergence_bound(gap: float, n: int, epsilon: float) -> BoundReport:
    """Sweep count after which |P_k - P_inf| <= epsilon, up to an O(1) constant.

    Value: log(2^(n/2) / eps) / log(1/(1 - gap)).  A unit gap kills the
    non-fixed part in one sweep, so the bound is 0 when epsilon already
    exceeds the 2^(n/2) prefactor and 1 otherwise.
    """
    if not 0.0 < gap <= 1.0:
        raise ValueError("gap must be in (0, 1]")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    prefactor = _or_inf(pow, 2.0, n / 2.0)
    inputs = {"gap": gap, "n": n, "epsilon": epsilon}
    if gap == 1.0:
        return BoundReport(0.0 if epsilon >= prefactor else 1.0, "upper-bound", inputs)
    log_ratio = math.log(prefactor / epsilon)
    if log_ratio == math.inf:  # the ratio is beyond a float, its log is not
        log_ratio = n / 2.0 * math.log(2.0) - math.log(epsilon)
    value = max(0.0, log_ratio / (math.log(1.0 / (1.0 - gap)) or -math.log1p(-gap)))
    return BoundReport(value, "upper-bound", inputs)


def t_design_delta(region_size: int, alpha: float, t: int, d: int,
                   epsilon: float | None = None) -> BoundReport:
    """Trace-norm deviation of deep-circuit local moments from Haar moments.

    For a region of w sites embedded in a complement of (1 + alpha) w sites,
    delta = sqrt(t) (sqrt(d^w d^-(1+alpha)w + d^w eps) + sqrt(d^w d^-(1+alpha)w)),
    an upper bound of order sqrt(t exp(-alpha w)).  ``epsilon`` is the
    verified purity convergence accuracy; by default the design value
    d^-(1+alpha)w is used.
    """
    if region_size < 1:
        raise ValueError("region_size must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if t < 1:
        raise ValueError("t must be >= 1")
    _check_dimension(d)
    complement_size = (1.0 + alpha) * region_size
    default = epsilon is None
    if default:
        epsilon = float(d) ** -complement_size
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    scale = _or_inf(pow, float(d), region_size)
    base = scale * float(d) ** -complement_size
    value = math.sqrt(t) * (math.sqrt(base + scale * epsilon) + math.sqrt(base))
    if not math.isfinite(value):  # d^w or d^w eps is beyond a float: the same sum in logs
        log_base = -alpha * region_size * math.log(d)
        # log(d^w eps), which is log_base itself for the default eps
        log_scaled = (log_base if default else -math.inf if epsilon == 0
                      else region_size * math.log(d) + math.log(epsilon))
        low, high = sorted((log_base, log_scaled))
        log_sum = high + math.log1p(math.exp(low - high))
        value = math.sqrt(t) * (_or_inf(math.exp, log_sum / 2.0) + math.exp(log_base / 2.0))
    return BoundReport(value, "upper-bound",
                       {"region_size": region_size, "alpha": alpha, "t": t, "d": d,
                        "epsilon": epsilon})
