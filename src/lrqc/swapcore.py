"""Average-purity dynamics of local random circuits in the swap-operator basis.

A circuit ensemble acts on the 2^n-dimensional real span of swap operators,
one per site subset.  A single Haar-averaged gate on a local region either
fixes a swap (when the region does not straddle its boundary) or splits it
into two swaps with positive branch weights, so a state of the dynamics is a
sparse positive combination of regions: a sorted, unique ``uint64`` mask
array plus a ``float64`` coefficient array.  A step is a list of stages, each
a weighted mixture of region maps.  A stage of several regions on a support
that fills enough of the 2^n masks runs as strided updates of one dense 2^n
vector, ``_sum_views``, the way a statevector simulator applies a gate.  Any
other stage is one scatter and one merge: ``_scatter`` sends the state through
a group of the stage's regions at once, and ``_mix`` adds the groups' images,
in order, into a dense 2^n or a sorted accumulator under a byte budget.  Both
give every mask its terms in the same order, so they agree bit for bit.  The
same scatter fills the dense step matrices and drives the area-law search,
``reachable_boundary_column``.
``SwapVector`` is the dict form at the API boundary, and ``apply_step`` its
one step under every policy that has one.
Everything here is exact linear algebra; the Monte Carlo cross-check lives in
``lrqc.oracle``.
"""
from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalAmbiguityError, check_cap
from .regions import Region, in_boundary

GAP_MAX_SITES = 14
TRAJECTORY_MAX_STAGES = 100_000  # bounds a trajectory's time: 4-5 s at it on a 3-site path
MATRIX_BYTE_BUDGET = 4 << 30  # admits uncorrelated builds up to 14 sites, two-site sweeps up to 13
DEFAULT_PRUNE_TOL = 1e-15
RANK_TOL = 1e-9
_WEIGHT_SUM_TOL = 1e-12
_LANCZOS_TOL = 1e-13  # Ritz residual bound; B^T B has norm at most 1
_LANCZOS_ROWS = 32  # first allocation of the Lanczos basis, in vectors
_OBJECT_BYTES = 16 << 10  # arrays' headers and other small objects of one build: about 8 KiB
_MERGE_BYTES = 1 << 22  # bytes of one group's scattered image, or of a dense accumulator
_MASK_BYTES = 256  # bytes a group's scatter and image hold per region and mask; ~100 measured
_DENSE_RATIO = 16  # dense when 2^n is at most this many times a stage's entries: the two
# merges of one stage took the same time near this ratio at n = 16 and 18 (2-core VM)
_ENUMERATION_BYTES = 1 << 25  # bytes of one search depth's images and their merge copies

_log = logging.getLogger("lrqc")


# ---------------------------------------------------------------------------
# Ensemble description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalStructure:
    """The family of local regions gates may act on, with optional weights."""

    n: int
    regions: tuple[Region, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise ValueError("at least one local region is required")
        for r in self.regions:
            if r.n != self.n:
                raise ValueError(f"region universe {r.n} does not match n={self.n}")
            if r.is_empty:
                raise ValueError("local regions must be nonempty")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            object.__setattr__(self, "weights", w)
            _check_distribution(w, len(self.regions), "weights")

    def weight_vector(self) -> tuple[float, ...]:
        if self.weights is not None:
            return self.weights
        m = len(self.regions)
        return (1.0 / m,) * m


@dataclass(frozen=True)
class Uncorrelated:
    """I.i.d. region draws; optionally a different weight vector per step."""

    step_weights: tuple[tuple[float, ...], ...] | None = None


@dataclass(frozen=True)
class Markov:
    """Region sequence drawn from a chain: initial distribution, then row-stochastic transitions.

    ``matrix[i][j]`` is the probability of moving to region j given the last
    applied region was i.
    """

    initial: tuple[float, ...]
    matrix: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class CorrelatedSweep:
    """One step applies every local region once.  ``order`` lists them as their maps act on
    swap vectors (``_stages``); ``gate_order`` gives the circuit's order, its reverse."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class EnsembleSpec:
    """A circuit ensemble: local structure, region-selection policy, local dimension."""

    structure: LocalStructure
    policy: Uncorrelated | Markov | CorrelatedSweep
    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.d}")
        m = len(self.structure.regions)
        pol = self.policy
        if isinstance(pol, Uncorrelated):
            if pol.step_weights is not None:
                for w in pol.step_weights:
                    _check_distribution(w, m, "per-step weights")
        elif isinstance(pol, Markov):
            _check_distribution(pol.initial, m, "initial distribution")
            if len(pol.matrix) != m:
                raise ValueError("transition matrix must have one row per region")
            for row in pol.matrix:
                _check_distribution(row, m, "transition row")
        elif isinstance(pol, CorrelatedSweep):
            if sorted(pol.order) != list(range(m)):
                raise ValueError(f"order {pol.order} is not a permutation of 0..{m - 1}")
        else:
            raise TypeError(f"unknown policy {pol!r}")

    def step_weights(self, step_index: int) -> tuple[float, ...]:
        """Mixture weights used at the given step of an uncorrelated process."""
        pol = self.policy
        if not isinstance(pol, Uncorrelated):
            raise ValueError("step weights are only defined for the uncorrelated policy")
        if pol.step_weights is None:
            return self.structure.weight_vector()
        if not 0 <= step_index < len(pol.step_weights):
            raise ValueError(f"step index {step_index} out of range for {len(pol.step_weights)} step weight vectors")
        return pol.step_weights[step_index]


def _check_distribution(w: Sequence[float], m: int, what: str) -> None:
    if len(w) != m:
        raise ValueError(f"{what} has length {len(w)}, expected {m}")
    if not all(math.isfinite(x) for x in w):
        raise ValueError(f"{what} has non-finite entries")
    if any(x < 0 for x in w):
        raise ValueError(f"{what} has negative entries")
    if abs(math.fsum(w) - 1.0) > _WEIGHT_SUM_TOL:
        raise ValueError(f"{what} sums to {math.fsum(w)}, not 1")


def path_structure(n: int) -> LocalStructure:
    """Nearest-neighbour edges of an n-site chain, uniform weights."""
    if n < 2:
        raise ValueError("a path needs at least 2 sites")
    return LocalStructure(n, tuple(Region.of((i, i + 1), n) for i in range(n - 1)))


def complete_structure(n: int) -> LocalStructure:
    """All two-site edges on n sites, uniform weights."""
    if n < 2:
        raise ValueError("a complete graph needs at least 2 sites")
    edges = [Region.of((a, b), n) for a in range(n) for b in range(a + 1, n)]
    return LocalStructure(n, tuple(edges))


# ---------------------------------------------------------------------------
# Swap vectors and the local update rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwapVector:
    """A sparse real combination of swap operators, pruned below ``prune_tol``.

    Treated as immutable: every operation returns a fresh vector.
    """

    n: int
    terms: Mapping[Region, float]
    prune_tol: float = DEFAULT_PRUNE_TOL

    def __post_init__(self):
        if self.prune_tol < 0:
            raise ValueError("prune_tol must be >= 0")
        for r, c in self.terms.items():
            if r.n != self.n:
                raise ValueError(f"term universe {r.n} does not match n={self.n}")
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} for {r}")
            if abs(c) <= self.prune_tol:
                raise ValueError(f"coefficient {c} for {r} is below the prune tolerance")

    @classmethod
    def single(cls, region: Region, prune_tol: float = DEFAULT_PRUNE_TOL) -> "SwapVector":
        return cls(region.n, {region: 1.0}, prune_tol)


@lru_cache(maxsize=None)
def _alpha(a: int, b: int, d: int) -> tuple[float, float]:
    cp = (d**a + d**b) / (d ** (a + b) + 1)
    cm = (d**a - d**b) / (d ** (a + b) - 1)
    return (cp + cm) / 2, (cp - cm) / 2


def alpha_coefficients(target: Region, local: Region, d: int) -> tuple[float, float]:
    """Branch weights of one Haar-averaged local gate acting on the swap of ``target``.

    Returns ``(alpha_plus, alpha_minus)`` multiplying the swaps of
    ``target - local`` and ``target | local`` respectively.  Both are in
    (0, 1) and their sum is below 1, so repeated boundary hits contract the
    total coefficient mass.
    """
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    if not in_boundary(local, target):
        raise ValueError(f"{local} does not straddle the boundary of {target}")
    a = (local - target).size
    b = (local & target).size
    return _alpha(a, b, d)


def _region_maps(regions: Sequence[Region], d: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel tables of the regions, one row each: the masks, and the weights by |A & R| of a
    swap's first image (1 for a fixed swap, at 0 and the region size; alpha_plus between) and
    of its second (alpha_minus), as an (m, 2, largest size + 1) array."""
    table = np.zeros((len(regions), 2, max(r.size for r in regions) + 1))
    for row, r in zip(table, regions):
        s = r.size
        row[0, [0, s]] = 1.0
        row[:, 1:s] = np.array([_alpha(s - i, i, d) for i in range(1, s)]).T
    return np.array([r.bits for r in regions], dtype=np.uint64), table


def _scatter(masks: np.ndarray, maps: tuple, idx: list[int]) -> tuple[np.ndarray, ...]:
    """Where the gates on regions ``idx`` send the swaps of ``masks``, a sorted mask array.

    A fixed swap goes to itself with weight 1, a straddled swap A to A - R with alpha_plus
    and to A | R with alpha_minus.  Returns the first images of all swaps as (G, S) target
    and weight arrays, one row per region in ``idx`` order, and the second images of the
    straddled swaps as (row, source index, target, weight) arrays, row by row.  Laid out
    region by region, each row followed by its second images, every target receives its
    terms in the order that the kept swaps, then all A - R, then all A | R would give it:
    the masks are sorted, so a kept swap comes before the larger swaps that erase onto it.
    """
    bits, table = maps[0][idx], maps[1][idx]
    inter = masks & bits[:, None]
    key = np.bitwise_count(inter) + table.shape[2] * np.arange(len(idx))[:, None]  # row, |A & R|
    straddled = (inter != 0) & (inter != bits[:, None])
    hit = np.flatnonzero(straddled)
    row, src = np.divmod(hit, masks.size)
    dst = np.where(straddled, masks ^ inter, masks)
    second = (row, src, masks[src] | bits[row], table[:, 1].take(key.ravel()[hit]))
    return dst, table[:, 0].take(key), second


def _region_major(first: np.ndarray, second: np.ndarray, row: np.ndarray) -> np.ndarray:
    """The rows of ``first``, each followed by the entries of ``second`` in that row."""
    ends = [0, *np.searchsorted(row, np.arange(1, len(first))).tolist(), second.size]
    return np.concatenate([part for g, f in enumerate(first)
                           for part in (f, second[ends[g]:ends[g + 1]])])


def _image(state, maps: tuple, q: tuple, idx: tuple) -> tuple[np.ndarray, ...]:
    """The gate images of ``state`` under the regions ``idx`` weighted by ``q``, before equal
    masks are merged: target masks and weighted terms, region by region."""
    masks, coefs = state
    dst, weight, (row, src, dst2, weight2) = _scatter(masks, maps, list(idx))
    q = np.array(q)
    terms, terms2 = q[:, None] * (coefs * weight), q[row] * (coefs[src] * weight2)
    return _region_major(dst, dst2, row), _region_major(terms, terms2, row)


def _dense(entries: int, n: int) -> bool:
    """Whether a merge of at least ``entries`` terms over n sites sums into a 2^n accumulator:
    2^n is at most ``_DENSE_RATIO`` times that, and its 2^n doubles fit ``_MERGE_BYTES``."""
    return 1 << n <= _DENSE_RATIO * entries and 8 << n <= _MERGE_BYTES


def _nonzero(acc: np.ndarray, tol: float):
    """The masks and values of a dense accumulator's entries beyond ``tol``."""
    masks = np.flatnonzero((acc > tol) | (acc < -tol))
    return masks.view(np.uint64), acc[masks]


def _mix(images, entries: int, n: int, tol: float):
    """The sum of images (target masks, terms) over n sites, pruned at ``tol``: the merge of
    a one-region or sparse stage's groups and of ``markov_purity``'s branch mixtures.

    ``entries`` is a lower bound on the number of terms.  When ``_dense`` admits it, each
    image is added into a 2^n accumulator by ``np.add.at``; otherwise it is merged into a
    sorted accumulator by ``np.unique`` and ``np.bincount``, whose passes also hold a few
    words per mask already summed.  Both add terms in array order, so every mask's sum is 0
    plus its terms in the order they arrive, whatever the grouping and whichever accumulator.
    """
    if _dense(entries, n):
        acc = np.zeros(1 << n)
        for m, t in images:
            np.add.at(acc, m, t)
        return _nonzero(acc, tol)
    masks, coefs = np.empty(0, dtype=np.uint64), np.empty(0)
    for m, t in images:
        masks, inverse = np.unique(np.concatenate((masks, m)), return_inverse=True)
        coefs = np.bincount(inverse, weights=np.concatenate((coefs, t)), minlength=masks.size)
    keep = np.abs(coefs) > tol
    return masks[keep], coefs[keep]


def _groups(stage: list[tuple[float, int]], masks: int) -> list[tuple[tuple, tuple]]:
    """The stage's weights and region indices, in groups sized by ``_MERGE_BYTES`` for ``masks``."""
    size = max(1, _MERGE_BYTES // (_MASK_BYTES * max(1, masks)))
    return [tuple(zip(*stage[lo:lo + size])) for lo in range(0, len(stage), size)]


def _sum_views(state, maps: tuple, stage: list[tuple[float, int]], n: int) -> np.ndarray:
    """A stage's images summed into a 2^n accumulator, region by region as strided updates.

    With a region's sites on axes of their own, the swaps whose bits there read p form a
    view.  The gate keeps the all-clear and all-set views and sends a straddled view p to
    both, weighted by alpha_plus and alpha_minus of |p|.  Into the all-clear view go the kept
    q (x 1), then every straddled q (x alpha_plus) in ascending p; into the all-set view the
    same with alpha_minus.  That is the order in which ``_scatter``'s region-major image gives
    each mask its terms, since its sources ascend with p, and absent swaps add +0.0, which
    changes no sum.  A region of at most two sites has at most three weights, so its products
    q (x w) are full arrays shared by the stage's regions of equal weight, three at most held:
    x, the accumulator and they take at most 40 2^n bytes.  A larger region's products are
    formed on its views, and a region of more than n / 2 sites, whose views are fewer entries
    than there are views, adds its scattered image as ``_mix`` does.
    """
    bits, table = maps
    x, acc = np.zeros(1 << n), np.zeros(1 << n)
    x[state[0]] = state[1]
    shared = {}
    for q, idx in stage:
        sites = [b for b in range(n) if int(bits[idx]) >> b & 1]
        if 2 * len(sites) > n:
            np.add.at(acc, *_image(state, maps, (q,), (idx,)))
            continue
        if len(sites) > 2:
            shared.clear()
        shape, top = [], n  # a run of other bits, then a site's bit, highest first
        for b in reversed(sites):
            shape += [1 << (top - b - 1), 2]
            top = b
        shape.append(1 << top)
        at = [(*(v for bit in p for v in (slice(None), bit)), slice(None))
              for p in itertools.product((0, 1), repeat=len(sites))]  # view p is at[p]

        def term(w, p):  # q (x w) on view p
            if len(sites) > 2:
                t = x.reshape(shape)[at[p]] * w
                t *= q
                return t
            if (q, w) not in shared:
                if len(shared) == 3:
                    shared.clear()
                shared[q, w] = x * w
                shared[q, w] *= q
            return shared[q, w].reshape(shape)[at[p]]

        blocks, full = acc.reshape(shape), len(at) - 1
        for kept, row in ((0, 0), (full, 1)):
            into = blocks[at[kept]]
            into += term(1.0, kept)
            for p in range(1, full):
                into += term(table[idx, row, p.bit_count()], p)
    return acc


def _apply_stage(state, maps: tuple, stage: list[tuple[float, int]], n: int, tol: float):
    """One stage, the mixture of its (weight, region index) pairs, on an array state.

    A stage of two or more regions is summed by ``_sum_views`` when ``_dense`` admits its
    support alone: the views cost each region about a pass over 2^n, the scatter about 25
    over the support.  Admitting the stage's entries, as ``_mix`` does, made the complete n = 12
    trajectory slower, from early stages whose support is a few percent of 2^n.  A one-region
    stage (a sweep's, a Markov branch's) stays on ``_scatter``: on views, the sparse n = 16
    sweeps ran 1.4-1.5 times slower.  Every path adds each mask's terms in the same order, so
    the result does not depend on which one ran.
    """
    if len(stage) > 1 and _dense(state[0].size, n):
        return _nonzero(_sum_views(state, maps, stage, n), tol)
    images = (_image(state, maps, q, idx) for q, idx in _groups(stage, state[0].size))
    return _mix(images, len(stage) * state[0].size, n, tol)


def reachable_boundary_column(initial: Region, structure: LocalStructure,
                              k_max: int) -> list[tuple[float, float]]:
    """Largest and smallest boundary weights of the regions reachable in <= k moves, k = 0..k_max.

    One breadth-first search serves every k, each depth one ``_scatter`` pass of the swap-map
    kernel: a move erases or fills a region of positive weight straddling the current region's
    boundary, exactly as the evolved swap can.  Feeds ``area_law_bound``.

    Every depth but the last keeps its images to find the next frontier, and counts them
    first against ``_ENUMERATION_BYTES``: up to two 8-byte masks per frontier swap and region,
    held by the scattered pieces and their concatenation, the sorted unique copies, or
    ``searchsorted``'s two index arrays, at most three such arrays at once, with their
    comparison masks less than a fourth."""
    if initial.n != structure.n:
        raise ValueError("initial region universe does not match the structure")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    (stage,) = _stages(EnsembleSpec(structure, Uncorrelated(), 2))
    maps = _region_maps(structure.regions, 2)  # d only sets the branch weights, unused here
    seen = frontier = np.array([initial.bits], dtype=np.uint64)
    p_max, p_min, out = -math.inf, math.inf, []
    for depth in range(k_max + 1):
        grow = depth < k_max
        need = 4 * 2 * 8 * len(stage) * frontier.size if grow else 0
        check_cap(f"reachable-region enumeration at depth {depth}", need, _ENUMERATION_BYTES,
                  " bytes")
        probs, reached = np.zeros(frontier.size), []
        for q, idx in _groups(stage, frontier.size):
            erased, _, (row, src, filled, _) = _scatter(frontier, maps, list(idx))
            np.add.at(probs, src, np.array(q)[row])  # region order, as a per-region loop adds
            if grow:
                reached += [erased[row, src], filled]
        p_max, p_min = float(probs.max(initial=p_max)), float(probs.min(initial=p_min))
        out.append((p_max, p_min))
        if grow:  # the images, sorted in place and made unique, minus those seen
            reached = np.concatenate(reached)
            reached.sort()
            reached = np.append(reached[:1], reached[1:][reached[1:] != reached[:-1]])
            at = np.searchsorted(seen, reached)
            new = np.searchsorted(seen, reached, side="right") == at
            frontier = reached[new]
            seen = np.insert(seen, at[new], frontier)
            check_cap("reachable-region enumeration", seen.size, 1 << 16, " regions")
    return out

def gate_order(spec: EnsembleSpec) -> tuple[int, ...]:
    """A correlated sweep's region indices in the order its circuit applies their gates.  The
    swap evolves in the Heisenberg picture, so the last gate's map acts on it first."""
    return spec.policy.order[::-1]


def _stages(spec: EnsembleSpec, step_index: int | None = None) -> list[list[tuple[float, int]]]:
    """One ensemble step as stages in the order their maps act on swaps, each stage the mixture
    of its (weight, region index) pairs: one per region of a sweep, in its order, with weight 1,
    or one over the regions of positive weight at that uncorrelated step.  A Markov ensemble has
    no step; ``step_index=None`` asks for the single time-independent one, which per-step
    weights lack."""
    pol = spec.policy
    if isinstance(pol, Markov):
        raise ValueError("a Markov ensemble is not a single linear map on the swap basis")
    if isinstance(pol, CorrelatedSweep):
        return [[(1.0, idx)] for idx in reversed(gate_order(spec))]
    if step_index is None:
        if pol.step_weights is not None:
            raise ValueError("time-dependent weights do not define a single step matrix")
        step_index = 0
    return [[(q, idx) for idx, q in enumerate(spec.step_weights(step_index)) if q]]


def _to_state(v: SwapVector, n: int):
    """The array state of a vector: its masks sorted, as the kernel needs them."""
    if v.n != n:
        raise ValueError(f"region universe {v.n} does not match n={n}")
    masks = np.array([r.bits for r in v.terms], dtype=np.uint64)
    order = np.argsort(masks)
    return masks[order], np.array(list(v.terms.values()), dtype=float)[order]


def apply_local(v: SwapVector, local: Region, d: int) -> SwapVector:
    """One Haar-averaged gate on ``local``, extended linearly over the vector.

    Swaps whose boundary the gate does not straddle are fixed; the others
    split into an erased and a filled branch.
    """
    return apply_step(v, EnsembleSpec(LocalStructure(local.n, (local,)), Uncorrelated(), d))


def apply_step(v: SwapVector, spec: EnsembleSpec, step_index: int = 0) -> SwapVector:
    """One ensemble step on a dict-form vector: the weighted mixture of all single-region maps
    at ``step_index`` of an uncorrelated ensemble, or all local maps composed in a correlated
    sweep's order.  A Markov ensemble has no single step."""
    maps = _region_maps(spec.structure.regions, spec.d)
    state = _to_state(v, spec.structure.n)
    for stage in _stages(spec, step_index):
        state = _apply_stage(state, maps, stage, v.n, v.prune_tol)
    terms = {Region(m, v.n): c for m, c in zip(*(a.tolist() for a in state))}
    return SwapVector(v.n, terms, v.prune_tol)


def contract_factorized(v: SwapVector) -> float:
    """Pairing with the doubled copy of a pure fully factorized state.

    Every swap operator contracts to exactly 1 against such a state, so the
    pairing is the plain sum of coefficients.
    """
    return math.fsum(v.terms.values())


def complement_involution(v: SwapVector) -> SwapVector:
    """Replace every region by its complement; commutes with every local map."""
    return SwapVector(v.n, {r.complement(): c for r, c in v.terms.items()}, v.prune_tol)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def markov_purity(initial: Region, spec: EnsembleSpec, k: int) -> list[float]:
    """Average purity P_0..P_k under the Markov region policy.

    Conjugating a swap by a circuit reverses the gate order, so the map of
    the last drawn region acts on the swap first.  The dynamic program keeps
    one swap vector per region index r: the chain-suffix average conditioned
    on r being the region about to act.  Extending the chain by one draw is
    one transition mixture plus one local map per index.  Equivalent to (and
    tested against) the exhaustive sum over region paths.
    """
    pol = spec.policy
    if not isinstance(pol, Markov):
        raise ValueError("markov_purity requires a Markov policy")
    if k < 0:
        raise ValueError("k must be >= 0")
    out = [1.0]
    for branches in itertools.islice(_markov_branches(initial, spec), k):
        out.append(math.fsum(q * math.fsum(b[1].tolist()) for q, b in zip(pol.initial, branches)))
    return out


def _markov_branches(initial: Region, spec: EnsembleSpec):
    """``markov_purity``'s swap vectors, one per region index, after each further draw."""
    n, tol = spec.structure.n, DEFAULT_PRUNE_TOL
    maps = _region_maps(spec.structure.regions, spec.d)
    base = _to_state(SwapVector.single(initial), n)

    def mixture(row):  # the branches weighted by a transition row, in one merge
        used = [(w, b) for w, b in zip(row, branches) if w]
        return _mix(((b[0], w * b[1]) for w, b in used), sum(b[0].size for _, b in used), n, tol)

    branches = None
    while True:
        branches = [_apply_stage(base if branches is None else mixture(row), maps, [(1.0, idx)],
                                 n, tol) for idx, row in enumerate(spec.policy.matrix)]
        yield branches


def check_trajectory_work(spec: EnsembleSpec, k_max: int) -> None:
    """Refuse a trajectory of k_max steps before its first step when its loop would make more
    than ``TRAJECTORY_MAX_STAGES`` stage applications: the stages of a step (one per region of
    a sweep or a Markov draw) once per step while every step equals step 0, and k times for
    each later step k, since those rerun steps k - 1, ..., 0."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    pol = spec.policy
    rows = ()
    if isinstance(pol, Uncorrelated) and pol.step_weights is not None and k_max:
        spec.step_weights(k_max - 1)  # too few rows: refused here, not at that step
        rows = pol.step_weights[:k_max]
    same = next((j for j, row in enumerate(rows) if row != rows[0]), k_max)
    stages = 1 if isinstance(pol, Uncorrelated) else len(spec.structure.regions)
    check_cap("a purity trajectory, whose cap bounds its time, not memory,",
              stages * (same + (k_max * (k_max + 1) - same * (same + 1)) // 2),
              TRAJECTORY_MAX_STAGES, " stage applications")


def purity_trajectory(initial: Region, spec: EnsembleSpec, k_max: int) -> list[float]:
    """Average purity P_0..P_k_max of the initial region's swap under the ensemble.

    One index step is a mixture application for uncorrelated policies, a
    chain step for Markov policies, and a full ordered sweep for correlated
    policies.  The swap evolves in the Heisenberg picture, so a k-step circuit
    acts on it as steps k - 1, ..., 0 in turn; while every step so far equals
    step 0, P_k is step k - 1 on the previous swap.  ``check_trajectory_work`` counts the
    steps first.
    """
    check_trajectory_work(spec, k_max)
    if isinstance(spec.policy, Markov):
        return markov_purity(initial, spec, k_max)
    n = spec.structure.n
    start = _to_state(SwapVector.single(initial), n)
    maps = _region_maps(spec.structure.regions, spec.d)
    first = _stages(spec, 0) if k_max else None
    state, out, repeated = start, [1.0], True
    for k in range(1, k_max + 1):
        repeated = repeated and _stages(spec, k - 1) == first
        state, steps = (state, [k - 1]) if repeated else (start, range(k - 1, -1, -1))
        for j in steps:
            for stage in _stages(spec, j):
                state = _apply_stage(state, maps, stage, n, DEFAULT_PRUNE_TOL)
        out.append(math.fsum(state[1].tolist()))
    return out


# ---------------------------------------------------------------------------
# Fixed points and asymptotics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of the local-region hypergraph plus uncovered sites."""

    components: tuple[Region, ...]
    residual: Region

    @property
    def fixed_dimension(self) -> int:
        """How many swaps are unions of whole components and uncovered sites."""
        return 2 ** (len(self.components) + self.residual.size)


def connected_components(structure: LocalStructure) -> ComponentDecomposition:
    """Regions that share a site, merged until the groups are disjoint."""
    groups: list[int] = []  # pairwise disjoint masks, so their sum is their union
    for region in structure.regions:
        touching = [g for g in groups if g & region.bits]
        groups = [g for g in groups if not g & region.bits] + [region.bits | sum(touching)]
    n = structure.n
    components = tuple(Region(m, n) for m in sorted(groups, key=lambda m: m & -m))
    return ComponentDecomposition(components, Region(sum(groups) ^ ((1 << n) - 1), n))


def purity_infinity(initial: Region, structure: LocalStructure, d: int) -> float:
    """Infinite-time average purity of the initial region's swap.

    A product over hypergraph components: the component of size c holding o
    sites of the initial region contributes (d^(c-o) + d^o) / (d^c + 1).
    Sites outside every local region contribute a factor 1.
    """
    if initial.n != structure.n:
        raise ValueError("initial region universe does not match the structure")
    if d < 2:
        raise ValueError("local dimension must be >= 2")
    result = 1.0
    for comp in connected_components(structure).components:
        c = comp.size
        o = (initial & comp).size
        result *= (d ** (c - o) + d**o) / (d**c + 1)  # integers: no overflow at any d^c
    return result


# ---------------------------------------------------------------------------
# Dense matrix form, fixed-space dimension, spectral gap
# ---------------------------------------------------------------------------

def _factor(region: Region, d: int, q: float = 1.0) -> tuple[np.ndarray, ...]:
    """A gate on ``region`` over all 2^n swaps as ``_scatter``'s (source, target, q * weight)."""
    masks = np.arange(1 << region.n, dtype=np.uint64)
    dst, weight, (_, src, dst2, weight2) = _scatter(masks, _region_maps([region], d), [0])
    src = np.concatenate((np.arange(masks.size), src))
    dst = np.concatenate((dst[0], dst2)).astype(np.intp)
    return src, dst, q * np.concatenate((weight[0], weight2))


def _step_factors(spec: EnsembleSpec) -> list[tuple[np.ndarray, ...]]:
    """The single step on all 2^n swaps as sparse factors in the order they act, one per
    stage: the weighted concatenation of the stage's regions."""
    regions = spec.structure.regions
    return [tuple(np.concatenate(p) for p in zip(*(_factor(regions[idx], spec.d, q)
                                                     for q, idx in stage)))
            for stage in _stages(spec)]


def _apply_factors(factors: list, x: np.ndarray) -> np.ndarray:
    """The factors applied in turn to a dense vector over all 2^n swaps."""
    for src, dst, weight in factors:
        x = np.bincount(dst, weights=weight * x[src], minlength=x.size)
    return x


def _matrix_bytes(spec: EnsembleSpec) -> int:
    """Peak bytes ``build_swap_matrix`` holds, counted from the region sizes alone."""
    dim = 1 << spec.structure.n
    regions = spec.structure.regions
    # a region of s sites fixes 2 dim / 2^s masks; each straddled mask emits two entries
    first, *later = [sum(2 * dim - (dim >> (regions[idx].size - 1)) for _, idx in stage)
                     for stage in _stages(spec)]
    # the factors; then the first factor's pieces beside it, or the output beside its flat
    # indices; then per later factor: old and new product, flat indices, gathered and weighted
    # rows; and throughout, numpy's two broadcasting buffers and the interpreter's own objects
    return (24 * (first + sum(later)) + max([24 * first + 8 * dim * dim] +
                                            [16 * dim * dim + 24 * e * dim for e in later])
            + 16 * np.getbufsize() + _OBJECT_BYTES)


def build_swap_matrix(spec: EnsembleSpec) -> np.ndarray:
    """Dense 2^n x 2^n matrix of one ensemble step on the swap basis.

    Column A (regions indexed by their masks) holds the coefficients of the
    evolved swap of A.  The first factor is scattered straight into it; each
    later one is row-scattered onto the running product.  Markov policies and
    per-step weights have no single step matrix.  A build whose arrays would
    exceed ``MATRIX_BYTE_BUDGET`` is refused before anything is allocated.
    """
    n = spec.structure.n
    check_cap(f"a {n}-site step matrix build", _matrix_bytes(spec), MATRIX_BYTE_BUDGET, " bytes")
    (src, dst, weight), *later = _step_factors(spec)
    dim = 1 << n
    out = np.bincount(dst * dim + src, weights=weight, minlength=dim * dim).reshape(dim, dim)
    for src, dst, weight in later:
        flat = (dst[:, None] * dim + np.arange(dim)).ravel()
        out = np.bincount(flat, weights=(weight[:, None] * out[src]).ravel(),
                          minlength=dim * dim).reshape(dim, dim)
    return out


def fixed_space_dimension(matrix: np.ndarray, tol: float = RANK_TOL) -> int:
    """Multiplicity of eigenvalue 1, i.e. the kernel dimension of (matrix - I).

    Counts the values of matrix - I that are at most ``tol``: the moduli of its
    eigenvalues from the symmetric eigensolver when the input is exactly
    symmetric, its singular values otherwise.  For a symmetric input the two
    coincide.  ``fixcheck`` passes it the two halves of ``gram_half``: the step
    conjugated by the symmetric Gram root, split by the complement involution
    into two exactly symmetric blocks whose counts add up.  Raises
    ``NumericalAmbiguityError`` instead of silently resolving counts whose
    values sit in the band (tol, 1e3 * tol].
    """
    mat = np.asarray(matrix, dtype=float)
    shifted = mat.copy()
    shifted.flat[::mat.shape[0] + 1] -= 1.0
    if np.array_equal(mat, mat.T):
        solver, s = "eigvalsh", np.abs(np.linalg.eigvalsh(shifted))
    else:
        solver, s = "svd", np.linalg.svd(shifted, compute_uv=False)
    zero = s <= tol
    count = int(np.sum(zero))
    _log.debug("fixed-space dimension %d by %s; largest value counted as zero %s, smallest "
               "counted nonzero %s", count, solver, s[zero].max() if count else None,
               s[~zero].min() if count < s.size else None)
    in_band = ~zero & (s <= 1e3 * tol)
    if np.any(in_band):
        raise NumericalAmbiguityError(
            f"values {s[in_band]} of the shifted matrix fall inside the ambiguity band "
            f"around tol={tol}")
    return count


def _site_maps(d: int) -> tuple[np.ndarray, np.ndarray]:
    """One site of the Cholesky factor C of the swap Gram matrix G = C C^T, and one of C^-T."""
    chol = np.linalg.cholesky(np.array([[1.0, 1 / d], [1 / d, 1.0]]))
    return chol, np.linalg.inv(chol).T


def _on_sites(site: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The n-fold Kronecker power of a 2x2 map applied to each row of a (batch, 2^n) array."""
    batch, size = x.shape
    y = x.T  # batch last: map the leading site, rotate it in front of the batch
    for _ in range(size.bit_length() - 1):
        y = (site @ y.reshape(2, -1)).reshape(2, -1, batch).swapaxes(0, 1)
    return y.reshape(size, batch).T


def _gram_root(d: int, power: int) -> np.ndarray:
    """s^power for the symmetric square root s of the one-site swap Gram matrix
    g = [[1, 1/d], [1/d, 1]]: the eigenvalues 1 +- 1/d of g raised to power / 2 on (1, +-1)."""
    plus, minus = (1.0 + 1 / d) ** (power / 2), (1.0 - 1 / d) ** (power / 2)
    return np.array([[plus + minus, plus - minus], [plus - minus, plus + minus]]) / 2


def _gram_block(size: int, d: int) -> np.ndarray:
    """s^(x size) P s^-(x size) for the gate map P of a region on all of its ``size`` sites:
    s^-(x size) maps the rows of P and s^(x size) those of the transpose, both symmetric."""
    gate = build_swap_matrix(EnsembleSpec(LocalStructure(size, (Region.full(size),)),
                                          Uncorrelated(), d))
    return _on_sites(_gram_root(d, 1), _on_sites(_gram_root(d, -1), gate).T).T


def gram_half(spec: EnsembleSpec, sign: int) -> np.ndarray:
    """One of the two complement halves of an uncorrelated step M in symmetric Gram
    coordinates, for ``sign`` +1 or -1, made exactly symmetric as (X + X^T) / 2.

    With s the symmetric square root of the one-site Gram matrix and S = s^(x n),
    B = S M S^-1 is similar to M, and symmetric since every gate map is self-adjoint,
    G M_r = M_r^T G.  S and every gate map commute with the complement involution J, so B
    does too, and in the basis (e_A +- e_~A) / sqrt(2), A over the masks without the top
    site, B splits into B_+- = B[A, C] +- B[A, ~C]: the eigenvalues of the two halves are
    those of M.  Each is scattered straight from the regions' 2^|r| blocks
    s^(x |r|) P_r s^-(x |r|): column C of B holds q_r block[a_r, C_r] at each row a that
    equals C outside r, and a row with the top bit set is folded onto its complement with
    B[a, C] = B[~a, ~C], times ``sign``.  Neither M nor B is formed.
    """
    if not isinstance(spec.policy, Uncorrelated):
        raise ValueError("only an uncorrelated step is self-adjoint in the Gram geometry")
    (stage,) = _stages(spec)
    n, regions = spec.structure.n, spec.structure.regions
    half = 1 << (n - 1)
    cols = np.arange(half)[:, None]
    flat, terms = [], []
    for size in sorted({regions[idx].size for _, idx in stage}):  # regions of one size at once
        group = [(w, regions[idx]) for w, idx in stage if regions[idx].size == size]
        q = np.array([w for w, _ in group])[:, None, None]
        bits = np.array([r.bits for _, r in group])[:, None, None]
        sites = np.array([r.sites() for _, r in group])[:, None, :]  # (region, 1, site)
        local = (np.arange(1 << size)[:, None] >> np.arange(size)) & 1
        rows = (cols & ~bits) | ((1 << sites) @ local.T)  # (region, column C, local row)
        folded = rows >= half
        flat.append((np.where(folded, rows ^ (2 * half - 1), rows) * half + cols).ravel())
        values = q * _gram_block(size, spec.d).T[((cols >> sites) & 1) @ (1 << np.arange(size))]
        terms.append(np.where(folded, sign * values, values).ravel())
    x = np.bincount(np.concatenate(flat), weights=np.concatenate(terms),
                    minlength=half * half).reshape(half, half)
    out = x + x.T
    out *= 0.5
    return out


def spectral_gap_swap(spec: EnsembleSpec) -> float:
    """One minus the largest singular value of one step outside its fixed space.

    Singular values are taken in the Hilbert-Schmidt geometry of the swaps:
    the region basis is not orthonormal, so the step M is conjugated by the
    Cholesky factor C of the swap Gram matrix G = C C^T, and the fixed space
    is projected out orthogonally in those coordinates.  A gate on a whole
    component of the acting regions is the orthogonal projector onto the
    swaps it fixes, so the product T of those gates projects onto the fixed
    space, and P C^T M C^-T P = C^T (M - T) C^-T =: B.  Every gate map M_r is
    a Hilbert-Schmidt orthogonal projector, G M_r = M_r^T G, so the adjoint
    M* = G^-1 M^T G of the step is its own factors in reverse order, T* = T,
    and B^T B = C^T (M* - T)(M - T) C^-T.  Nothing of size 4^n is formed: M,
    M* and T act through their sparse factors, C^T and C^-T through their
    Kronecker structure (one 2x2 map per site).  Lanczos with full
    reorthogonalization on B^T B starts from a fixed vector and stops once
    the Ritz residual of the largest value is below ``_LANCZOS_TOL``.
    """
    n = spec.structure.n
    acting = [spec.structure.regions[idx] for stage in _stages(spec) for _, idx in stage]
    check_cap("the spectral gap", n, GAP_MAX_SITES, " sites")  # until it counts its bytes
    step = _step_factors(spec)
    fixed = connected_components(LocalStructure(n, acting))
    twirls = [_factor(component, spec.d) for component in fixed.components]
    chol, inv_t = _site_maps(spec.d)

    def shifted(factors: list, x: np.ndarray) -> np.ndarray:  # (M - T) x, or (M* - T) x
        return _apply_factors(factors, x) - _apply_factors(twirls, x)

    def normal_map(v: np.ndarray) -> np.ndarray:  # B^T B v = C^T (M* - T)(M - T) C^-T v
        x = _on_sites(inv_t, v[None])[0]
        return _on_sites(chol.T, shifted(step[::-1], shifted(step, x))[None])[0]

    w = np.random.default_rng(0).standard_normal(1 << n)
    rows = min(w.size, _LANCZOS_ROWS)
    basis, tri = np.empty((rows, w.size)), np.zeros((rows, rows))  # both grow by doubling
    for i in range(w.size):
        if i == len(basis):
            rows = min(2 * i, w.size)
            grown = np.empty((rows, w.size))
            grown[:i] = basis
            basis, tri = grown, np.pad(tri, (0, rows - i))
        if i:  # the last norm below the diagonal, the one triangle eigh reads
            tri[i, i - 1] = norm
        basis[i] = w / np.linalg.norm(w)
        w = normal_map(basis[i])
        tri[i, i] = basis[i] @ w
        q = basis[:i + 1]
        for _ in range(2):  # full reorthogonalization, twice
            w -= q.T @ (q @ w)
        norm = float(np.linalg.norm(w))
        values, vectors = np.linalg.eigh(tri[:i + 1, :i + 1])
        theta, resid = float(values[-1]), norm * abs(float(vectors[-1, -1]))
        if resid <= _LANCZOS_TOL:
            break
    _log.debug("spectral gap: %d Lanczos iterations, Ritz residual %.3g, fixed-space dimension "
               "%d used, %d predicted by connected_components", i + 1, resid,
               fixed.fixed_dimension, connected_components(spec.structure).fixed_dimension)
    return float(min(1.0, max(0.0, 1.0 - math.sqrt(max(theta, 0.0)))))
