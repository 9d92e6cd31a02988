"""Exact solution of the uniform-edge chain model.

For a chain of L sites with gates drawn uniformly from the L-1 nearest
neighbour edges, the swap of every prefix interval {0..l-1} stays inside an
(L+1)-dimensional invariant subspace.  The step matrix there is tridiagonal
with cosine eigenvalues, which gives the purity trajectory, the spectral gap
and the convergence time in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import entangling_power, swap_constant


@dataclass(frozen=True)
class PathParams:
    """Chain length L, local dimension d, and initial cut position l.

    The initial swap covers the l leftmost sites; l = 0 and l = L are the
    two absorbing boundary states.
    """

    L: int
    d: int
    l: int

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("chain length must be >= 2")
        if self.d < 2:
            raise ValueError("local dimension must be >= 2")
        if not 0 <= self.l <= self.L:
            raise ValueError(f"cut position must be in [0, {self.L}], got {self.l}")

    @property
    def diagonal(self) -> float:
        return (self.L - 2) / (self.L - 1)

    @property
    def offdiagonal(self) -> float:
        return swap_constant(self.d) / (self.L - 1)

    @property
    def short_time_window(self) -> int:
        """Steps before the evolved swap can reach a chain end: min(l, L - l)."""
        return min(self.l, self.L - self.l)


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of the reduced step matrix and the gaps of the interior branch."""

    eigenvalues: tuple[float, ...]
    gaps: tuple[float, ...]
    gap: float


def reduced_matrix(params: PathParams) -> np.ndarray:
    """(L+1)-dimensional step matrix on the prefix-interval basis.

    Columns 0 and L are fixed basis states; interior column i carries the
    stay weight on the diagonal and the hop weight at i +- 1.
    """
    L = params.L
    a, b = params.diagonal, params.offdiagonal
    mat = np.zeros((L + 1, L + 1))
    mat[0, 0] = 1.0
    mat[L, L] = 1.0
    for i in range(1, L):
        mat[i, i] = a
        mat[i - 1, i] = b
        mat[i + 1, i] = b
    return mat


def _interior_gap(params: PathParams, h: int) -> float:
    nd = swap_constant(params.d)
    return (1.0 - 2.0 * nd * math.cos(math.pi * h / params.L)) / (params.L - 1)


def spectrum(params: PathParams) -> SpectralData:
    """Closed-form spectrum: two unit eigenvalues plus a cosine branch."""
    L = params.L
    a, b = params.diagonal, params.offdiagonal
    interior = [a + 2.0 * b * math.cos(math.pi * h / L) for h in range(1, L)]
    eigenvalues = (1.0, *interior, 1.0)
    gaps = tuple(_interior_gap(params, h) for h in range(1, L))
    return SpectralData(eigenvalues, gaps, min(gaps))


def spectral_gap_1d(params: PathParams) -> float:
    """Gap of the reduced step matrix, (1 - 2 N_d cos(pi/L)) / (L - 1)."""
    return _interior_gap(params, 1)


def purity_infinity_1d(params: PathParams) -> float:
    d, L, l = params.d, params.L, params.l
    return (d ** (L - l) + d**l) / (d**L + 1)  # integers: no overflow at any d^L


def purity_exact(params: PathParams, k: int) -> float:
    """Average purity after k steps, as an explicit sum over odd modes.

    Matches the k-th power of ``reduced_matrix`` applied to the cut basis
    state and summed over entries; the boundary cuts l = 0 and l = L give
    exactly 1 for every k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    L, l = params.L, params.l
    if l == 0 or l == L:
        return 1.0
    nd = swap_constant(params.d)
    total = 0.0
    for h in range(1, L, 2):
        theta = math.pi * h / L
        decay = (1.0 - _interior_gap(params, h)) ** k
        bracket = (2.0 * nd * math.sin(theta) / (2.0 * nd * math.cos(theta) - 1.0)
                   + 1.0 / math.tan(theta / 2.0))
        total += decay * math.sin(math.pi * l * h / L) * bracket
    return purity_infinity_1d(params) + 2.0 / L * total


def purity_by_matrix_power(params: PathParams, k: int) -> float:
    """Independent route to the same purity: iterate the reduced matrix."""
    if k < 0:
        raise ValueError("k must be >= 0")
    mat = reduced_matrix(params)
    vec = np.zeros(params.L + 1)
    vec[params.l] = 1.0
    for _ in range(k):
        vec = mat @ vec
    return float(vec.sum())


def short_time_form(params: PathParams, k: int) -> float:
    """(1 - e_p/(L-1))^k at any k >= 0; the purity only for k <= ``params.short_time_window``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return (1.0 - entangling_power(params.d) / (params.L - 1)) ** k


def short_time_purity(params: PathParams, k: int) -> float:
    """Purity before the evolved swap reaches a chain end: (1 - e_p/(L-1))^k."""
    if k > params.short_time_window:
        raise ValueError(f"short-time form only valid for k <= {params.short_time_window}, "
                         f"got {k}")
    return short_time_form(params, k)


def eigenvector(params: PathParams, h: int) -> np.ndarray:
    """Right eigenvector of the reduced matrix for mode h (0 and L are boundary states)."""
    L = params.L
    if not 0 <= h <= L:
        raise ValueError(f"mode index must be in [0, {L}], got {h}")
    vec = np.zeros(L + 1)
    if h == 0:
        vec[0] = 1.0
        return vec
    if h == L:
        vec[L] = 1.0
        return vec
    b = params.offdiagonal
    gap_h = _interior_gap(params, h)
    c = [math.sin(math.pi * h * j / L) for j in range(L)]
    norm = (L / 2.0 + (b / gap_h) ** 2 * (c[1] ** 2 + c[L - 1] ** 2)) ** -0.5
    for j in range(1, L):
        vec[j] = norm * c[j]
    vec[0] = -norm * (b / gap_h) * c[1]
    vec[L] = -norm * (b / gap_h) * c[L - 1]
    return vec


def steps_to_converge(params: PathParams, epsilon: float) -> int:
    """Smallest k with |P_k - P_inf| <= epsilon, by doubling then bisection.

    The residual is evaluated with ``purity_exact``; a linear re-scan guards
    the bisection against non-monotone stretches.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if not 1 <= params.l <= params.L - 1:
        raise ValueError("interior cut required: 1 <= l <= L-1")
    p_inf = purity_infinity_1d(params)

    def resid(k: int) -> float:
        return abs(purity_exact(params, k) - p_inf)

    if resid(0) <= epsilon:
        return 0
    hi = 1
    while resid(hi) > epsilon:
        hi *= 2
        if hi > 1 << 40:
            raise RuntimeError("convergence search exceeded 2^40 steps")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if resid(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    if resid(hi - 1) <= epsilon:
        # non-monotone residual near the bracket; fall back to a full scan
        for k in range(hi + 1):
            if resid(k) <= epsilon:
                return k
    return hi


def analytic_steps_bound(params: PathParams, epsilon: float, constant: float) -> float:
    """Linear-in-L convergence estimate (L/e_p)(log(C/eps) + log l) for a supplied C."""
    if epsilon <= 0 or constant <= 0:
        raise ValueError("epsilon and constant must be > 0")
    if not 1 <= params.l <= params.L - 1:
        raise ValueError("interior cut required: 1 <= l <= L-1")
    ep = entangling_power(params.d)
    return params.L / ep * (math.log(constant / epsilon) + math.log(params.l))
