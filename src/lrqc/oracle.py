"""Brute-force dense-statevector reference for the swap-level dynamics.

Simulates the actual random circuits on d^n-dimensional state vectors with
freshly sampled Haar gates, estimates ensemble averages by Monte Carlo, and
provides the exact one- and two-copy Haar projections for small systems.

Conventions.  Basis index x encodes site s in digit (x // d^s) % d, so site 0
is least significant.  A gate on a region addresses the region's sites in
ascending order with the lowest site least significant.  Monte Carlo sample s
owns the random stream ``np.random.default_rng((seed, 0, s))`` (circuit draws)
or ``np.random.default_rng((seed, 1, s))`` (reference Haar states), bit for
bit; ``_streams`` builds them with the seeds of a whole chunk hashed in one
pass.  Every policy runs the same step loop: a step is one region index per
sample and gate, and each stream draws that step's Gaussians as one block,
which the step's gates slice in order, the same sequence as drawing gate by
gate.  Uncorrelated and Markov steps have one gate, whose region each stream
picks with one uniform drawn before the Gaussians, a whole chunk's picks made
at once; a correlated sweep's step is its pass and draws no uniform.  Gates of
dimension up to _GRAM_SCHMIDT_MAX_DIM = 7 are made by Gram-Schmidt, larger ones
by QR, all of a gate slot's gates of one dimension in one call.  So
trajectories of different lengths share their common prefix, and a sample's
values depend only on its own stream, never on the chunk, gate batch or
reduction sub-batch it falls in.  A purity trajectory measures a sample at
step 0 and after each step with a gate on a region that meets both the initial
region and its complement; after any other step the sample carries its
previous value, which gates inside the region or inside its complement leave
unchanged in exact arithmetic.

Processes.  The purity trajectory, the one estimator the ``oracle`` command
runs, cuts [0, samples) into contiguous ranges, one per usable core when the
run's work is large enough (``_processes``).  The calling process simulates the
first range and children made by ``fork`` the others; their per-sample results
come back through pipes and are joined in range order, so the output does not
depend on the process count.  The trace and design distances run in the
calling process, which gives the same bytes at any process count.  While the
ranges run, every process's OpenBLAS runs one thread, the caller's count
restored afterwards; where no OpenBLAS thread control is found, one process
runs every range.  The purity trajectory writes one DEBUG line per call with
its process count, ranges, BLAS control and children's peak RSS.
Each range is cut into chunks against its share of _CHUNK_BYTES by sample
count, _CHUNK_BYTES * (hi - lo) // samples, so the shares add up to at most the
budget, a range is one chunk when the whole run would be, and the simulation of
a range never needs the process count.
"""
from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import check_cap
from .regions import Region, in_boundary
from .swapcore import CorrelatedSweep, EnsembleSpec, Uncorrelated, gate_order

STATE_DIM_CAP = 1 << 20
MATRIX_DIM_CAP = 1 << 10
SUPEROP_DIM_CAP = 1 << 12
_NORM_TOL = 1e-10
_CHUNK_BYTES = 1 << 28  # bytes held per batch of samples over all ranges, counted by _chunks
_GENERATOR_BYTES = 3 << 9  # a per-sample Generator: 681 B at its peak by tracemalloc
_REDUCE_BYTES = 1 << 22  # bytes of factors and products per reduction sub-batch
_GRAM_SCHMIDT_MAX_DIM = 7  # largest gate made by Gram-Schmidt, not QR: the measured crossover
# a step's per-sample calls cost about as much as this many amplitude updates: 5-9 us per
# sample and step at n <= 5 against 0.027 us per amplitude at n = 8..12 (2-core VM)
_STEP_AMPS = 300
# amplitude updates per process: a second process broke even between 4M and 8M in all
# at n = 2, 5, 8 and 12 (2-core VM); a fork and join alone take about 7 ms
_FORK_WORK = 1 << 22

_log = logging.getLogger("lrqc")


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleConfig:
    """Seed, sample count and system shape for all Monte Carlo estimators."""

    seed: int
    samples: int
    d: int
    n: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"run.seed must be a non-negative integer, got {self.seed}")
        if self.samples < 2:
            raise ValueError("at least 2 samples are required")
        if self.d < 2 or self.n < 1:
            raise ValueError("need d >= 2 and n >= 1")
        check_cap(f"a {self.n}-site state of local dimension {self.d}", self.d**self.n,
                  STATE_DIM_CAP, " amplitudes")


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo mean with standard error of the mean."""

    mean: float
    stderr: float
    samples: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("an estimate needs at least 2 samples")


@dataclass(frozen=True)
class DesignDistance:
    """Trace-norm distance between two Monte Carlo moment averages.

    ``circuit_err`` and ``haar_err`` are half-sample split estimates of the
    sampling error of each side.
    """

    value: float
    circuit_err: float
    haar_err: float
    samples: int


@dataclass(frozen=True)
class DenseState:
    """Normalized complex amplitude vector over n sites of local dimension d."""

    amplitudes: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.d**self.n,):
            raise ValueError(f"expected {self.d}^{self.n} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")


def product_state(n: int, d: int) -> DenseState:
    """The all-zeros computational basis state."""
    amps = np.zeros(d**n, dtype=complex)
    amps[0] = 1.0
    return DenseState(amps, n, d)


# ---------------------------------------------------------------------------
# Haar sampling and gate application
# ---------------------------------------------------------------------------

def _haar_from_gaussians(z: np.ndarray) -> np.ndarray:
    """Map (..., 2, m, m) standard normals to (..., m, m) Haar unitaries.

    The unitary is the Q of G = (X + iY)/sqrt(2) = QR with R's diagonal real
    and positive; without that phase fix the distribution is not Haar
    (Mezzadri, arXiv:math-ph/0609050).  Up to m = _GRAM_SCHMIDT_MAX_DIM,
    Gram-Schmidt makes that Q directly; above it, LAPACK QR with R's diagonal
    phases pushed into Q.  The choice depends on m alone, so a sample's gate
    never depends on the batch it is made in.
    """
    if z.shape[-1] <= _GRAM_SCHMIDT_MAX_DIM:
        return _gram_schmidt(z)
    g = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.einsum('...ii->...i', r)
    mag = np.abs(diag)
    phases = np.where(mag == 0, 1.0 + 0j, diag / np.where(mag == 0, 1.0, mag))
    return q * phases[..., None, :]


def _gram_schmidt(z: np.ndarray) -> np.ndarray:
    """Two-pass classical Gram-Schmidt over the columns of G, vectorized over the batch.

    It runs in real arithmetic with the samples on the last axis, and every sum
    runs over its terms in a fixed order: numpy's complex multiply and its
    reductions round differently with the memory layout, so a gate made that
    way would change in its last bits with the size of its batch.
    """
    m = z.shape[-1]
    # re[j, i, s] and im[j, i, s]: entry (i, j) of sample s's G
    parts = z.reshape(-1, 2, m, m).transpose(1, 3, 2, 0).copy()  # C order, never a view of z
    parts /= math.sqrt(2.0)
    re, im = parts
    samples = re.shape[-1]
    x, y, w = (np.empty((m - 1, m, samples)) for _ in range(3))
    for j in range(m):
        vr, vi, br, bi = re[j], im[j], re[:j], im[:j]
        xs, ys, ws = x[:j], y[:j], w[:j]
        for _ in range(2 if j else 0):
            # c = B^H v, each entry summed over the rows in order
            np.multiply(br, vr, out=xs)
            xs += np.multiply(bi, vi, out=ws)
            np.multiply(br, vi, out=ys)
            ys -= np.multiply(bi, vr, out=ws)
            cr, ci = xs[:, 0].copy(), ys[:, 0].copy()
            for i in range(1, m):
                cr += xs[:, i]
                ci += ys[:, i]
            # v -= B c, summed over the columns in order
            np.multiply(br, cr[:, None], out=xs)
            xs -= np.multiply(bi, ci[:, None], out=ws)
            np.multiply(br, ci[:, None], out=ys)
            ys += np.multiply(bi, cr[:, None], out=ws)
            for k in range(j):
                vr -= xs[k]
                vi -= ys[k]
        norm = vr[0] * vr[0]
        norm += vi[0] * vi[0]
        for i in range(1, m):
            norm += vr[i] * vr[i]
            norm += vi[i] * vi[i]
        np.sqrt(norm, out=norm)
        vr /= norm
        vi /= norm
    q = np.empty((samples, m, m), dtype=complex)
    q.real = re.T
    q.imag = im.T
    return q.reshape(z.shape[:-3] + (m, m))


def haar_unitary(m: int, stream: np.random.Generator) -> np.ndarray:
    """One m x m Haar-distributed unitary drawn from the given stream."""
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    return _haar_from_gaussians(stream.standard_normal((2, m, m)))


def _region_perm(n: int, sites: Sequence[int]) -> list[int]:
    """Axis order of a (samples, d, ..., d) batch placing the given sites' axes first,
    highest site leading."""
    in_region = set(sites)
    return ([0] + [n - s for s in sorted(sites, reverse=True)]
            + [n - s for s in range(n - 1, -1, -1) if s not in in_region])


def _apply_gates_batch(states: np.ndarray, sites: Sequence[int], gates: np.ndarray,
                       n: int, d: int) -> np.ndarray:
    """Apply per-sample gates on the given sites to a (samples, d^n) batch."""
    return _from_region_factors(gates @ _region_factors(states, sites, n, d), sites, n, d)


def apply_gate(state: DenseState, region: Region, gate: np.ndarray) -> DenseState:
    """Apply a d^|region|-dimensional gate to the region's tensor factors."""
    if region.n != state.n:
        raise ValueError("region universe does not match the state")
    dm = state.d**region.size
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (dm, dm):
        raise ValueError(f"gate shape {gate.shape} does not match region dimension {dm}")
    out = _apply_gates_batch(state.amplitudes[None, :], region.sites(), gate[None, :, :],
                             state.n, state.d)
    return DenseState(out[0], state.n, state.d)


def _region_factors(states: np.ndarray, sites: Sequence[int], n: int, d: int) -> np.ndarray:
    """Reshape a (samples, d^n) batch into (samples, d^|sites|, d^rest) matrices."""
    c = states.shape[0]
    dm = d ** len(sites)
    perm = _region_perm(n, sites)
    return states.reshape((c,) + (d,) * n).transpose(perm).reshape(c, dm, -1)


def _from_region_factors(t: np.ndarray, sites: Sequence[int], n: int, d: int) -> np.ndarray:
    """The inverse of ``_region_factors``: (samples, d^|sites|, d^rest) back to (samples, d^n)."""
    c = t.shape[0]
    inverse = np.argsort(_region_perm(n, sites))
    return t.reshape((c,) + (d,) * n).transpose(inverse).reshape(c, -1)


def _reduce(states: np.ndarray, sites: Sequence[int], n: int, d: int, consume,
            extra: int = 0) -> None:
    """Call consume(first index, rho) on each sub-batch of the region's reduced
    density matrices rho = M M^dag.

    A sub-batch holds as many samples as fit two factor copies, two products
    and ``extra`` further bytes per sample in _REDUCE_BYTES, or one sample if
    that alone is more.
    """
    dm = d ** len(sites)
    size = max(1, _REDUCE_BYTES // (32 * dm * (d**n // dm + dm) + extra))
    for lo in range(0, states.shape[0], size):
        m = _region_factors(states[lo:lo + size], sites, n, d)
        consume(lo, m @ m.conj().swapaxes(1, 2))


def _purity_batch(states: np.ndarray, sites: Sequence[int], n: int, d: int) -> np.ndarray:
    """Tr(rho^2) per sample, reduced on the smaller side of the cut (both sides agree)."""
    if 2 * len(sites) > n:
        sites = [s for s in range(n) if s not in sites]
    out = np.empty(states.shape[0])

    def purity(lo: int, rho: np.ndarray) -> None:  # Tr(rho^2) = sum |rho_ac|^2, rho Hermitian
        parts = rho.view(float)
        out[lo:lo + rho.shape[0]] = np.einsum('sac,sac->s', parts, parts)
    _reduce(states, sites, n, d, purity)
    return out


def reduced_purity(state: DenseState, region: Region) -> float:
    """Purity of the reduced state on the region, Tr((M M^dag)^2) for the reshaped amplitudes."""
    if region.n != state.n:
        raise ValueError("region universe does not match the state")
    return float(_purity_batch(state.amplitudes[None, :], region.sites(), state.n, state.d)[0])


# ---------------------------------------------------------------------------
# Region sequence sampling
# ---------------------------------------------------------------------------

def _region_steps(spec: EnsembleSpec, k: int, streams: Sequence) -> Iterator[np.ndarray]:
    """k steps' region indices for the given streams, each step a (streams, gates) array in
    gate order.

    A drawn step takes one uniform u from each stream and picks every stream's region at once
    from a float table of cumulative weights: one row per uncorrelated step (a single row when
    the steps share the model weights), or the Markov initial row and then the row of the
    previous region.  The pick is min(#entries <= u, the index of the row's first entry equal
    to its total), so it never lands on a trailing region of weight zero, even where rounding
    leaves the total below u.
    A sweep draws no uniform and its step is its ``gate_order``, the reverse of the order
    ``_stages`` runs its maps on the swap.
    """
    pol = spec.policy
    if isinstance(pol, CorrelatedSweep):
        gates = gate_order(spec)
        step = np.broadcast_to(gates, (len(streams), len(gates)))
        for _ in range(k):
            yield step
        return
    markov = not isinstance(pol, Uncorrelated)
    if markov:
        rows = [pol.initial, *pol.matrix]
    elif pol.step_weights is None:  # every step draws from the one row of model weights
        rows = [spec.structure.weight_vector()][:k]
    else:
        rows = [spec.step_weights(j) for j in range(k)]
    if not rows:  # an uncorrelated circuit of no steps
        return
    cum = np.cumsum(rows, axis=1, dtype=float)
    last = (cum == cum[:, -1:]).argmax(axis=1)
    row = np.zeros(len(streams), dtype=np.intp)
    for j in range(1, k + 1):
        u = np.fromiter((stream.random() for stream in streams), float, len(streams))
        picked = np.minimum((cum[row] <= u[:, None]).sum(axis=1), last[row])
        yield picked[:, None]
        row = picked + 1 if markov else np.full(len(streams), min(j, len(rows) - 1))


def sample_regions(spec: EnsembleSpec, k: int, stream: np.random.Generator) -> list[Region]:
    """Draw the region sequence of a k-step circuit under the spec's policy.

    Correlated sweeps are deterministic: k repetitions of the ordered pass.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    regions = spec.structure.regions
    return [regions[r] for step in _region_steps(spec, k, [stream]) for r in step[0].tolist()]


# ---------------------------------------------------------------------------
# Sample streams
# ---------------------------------------------------------------------------

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), with its pool of 4 words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_POOL_WORDS = 4


def _words32(x: int) -> list[int]:
    """A non-negative integer as SeedSequence's entropy: 32-bit words, least
    significant first, at least one."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _seed_states(entropy: list[np.ndarray]) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every row e of the
    entropy, given as columns of uint32 words: one (samples, 4) uint64 array."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = np.empty((len(zero), 2 * _POOL_WORDS), dtype=np.uint32)
    for i in range(2 * _POOL_WORDS):
        value = pool[i % _POOL_WORDS] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value *= np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype('<u4').view('<u8').astype(np.uint64)


@lru_cache(maxsize=None)
def _seed_words_class() -> type:
    """The class of a precomputed SeedSequence state: the four words PCG64 asks its seed for.

    It subclasses numpy's ``ISeedSequence``, which makes ``PCG64`` take it as
    it would the SeedSequence itself, and a real subclass passes that check
    from the ABC's cache.  The class is made on first use so that importing
    this module leaves ``numpy.random`` unloaded.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):  # ISeedSequence has no __slots__, so neither does this
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # asked for once: PCG64 copies the words, so no generator holds the chunk's seeds
            words, self.words = self.words, None
            if words is None or n_words != len(words) or np.dtype(dtype) != words.dtype:
                raise ValueError("only the state PCG64 asks for was precomputed")
            return words
    return SeedWords


def _streams(seed: int, tag: int, lo: int, hi: int) -> list[np.random.Generator]:
    """``np.random.default_rng((seed, tag, s))`` for s in range(lo, hi), bit for
    bit, with every seed of the range hashed in one vectorized pass."""
    from numpy.random import PCG64, Generator

    seed_words = _seed_words_class()
    head = _words32(seed) + [tag]
    states = []
    # s takes one 32-bit word below 2^32 and two from there
    for a, b in ((lo, min(hi, 1 << 32)), (max(lo, 1 << 32), hi)):
        if a >= b:
            continue
        s = np.arange(a, b, dtype=np.uint64)
        tail = [s & _MASK32] + ([s >> np.uint64(32)] if a >= 1 << 32 else [])
        states.append(_seed_states([np.full(b - a, w, dtype=np.uint32) for w in head]
                                   + [t.astype(np.uint32) for t in tail]))
    return [Generator(PCG64(seed_words(words))) for part in states for words in part]


# ---------------------------------------------------------------------------
# Batched circuit simulation
# ---------------------------------------------------------------------------

def _chunks(cfg: OracleConfig, extra: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """(a, b) pieces of the sample range [lo, hi) whose batches fit the range's share of
    _CHUNK_BYTES by sample count, _CHUNK_BYTES * (hi - lo) // samples, or single samples.

    A sample holds its generator, its state with up to four working copies
    (three while a gate is applied, or a gathered copy with the factors and
    products of a purity reduction) and ``extra`` further bytes.  The shares of
    ranges that cut the samples add up to at most _CHUNK_BYTES, and a range is
    one chunk when the whole run would be.
    """
    per_sample = _GENERATOR_BYTES + 5 * 16 * cfg.d**cfg.n + extra
    size = max(1, min(hi - lo, _CHUNK_BYTES * (hi - lo) // cfg.samples // per_sample))
    for a in range(lo, hi, size):
        yield a, min(a + size, hi)


def _simulate(spec: EnsembleSpec, k_max: int, cfg: OracleConfig, lo: int,
              hi: int) -> Iterator[tuple[int, np.ndarray, int, np.ndarray | None]]:
    """Run samples [lo, hi) for k_max steps, yielding (j, states, first_index, picked) per chunk
    and step, picked being the step's (samples, gates) region indices in gate order, None at
    step 0.

    The yielded batch may be overwritten by the next step.
    """
    if spec.structure.n != cfg.n or spec.d != cfg.d:
        raise ValueError("ensemble shape does not match the oracle config")
    n, d = cfg.n, cfg.d
    regions = spec.structure.regions
    site_lists = [r.sites() for r in regions]
    dims = np.array([d**r.size for r in regions])
    sizes = 2 * dims * dims  # Gaussians per gate
    # a sample's Gaussians per step: a sweep's whole pass, or its largest gate
    width = int(sizes.sum() if isinstance(spec.policy, CorrelatedSweep) else sizes.max())
    # a sample holds its Gaussians, six gate-sized arrays while its Haar gate is made and its
    # gate while the slot's regions are applied, its pick: its uniform, the gathered row of
    # cumulative weights and its comparison, and a few index words (165 B at path n = 5 by
    # tracemalloc), and the end of its Gaussians and its gate's dimension
    extra = 8 * width + 7 * 16 * int(dims.max()) ** 2 + 176 + 9 * len(regions)
    for a, b in _chunks(cfg, extra, lo, hi):
        rngs = _streams(cfg.seed, 0, a, b)
        states = np.zeros((b - a, d**n), dtype=complex)
        states[:, 0] = 1.0
        yield 0, states, a, None
        block = np.empty((b - a, width))
        for j, picked in enumerate(_region_steps(spec, k_max, rngs), 1):
            # a slot's gates start at one offset in every sample: a drawn step has one slot,
            # and a sweep's samples run the same pass
            first = sizes[picked[0]]
            starts = (first.cumsum() - first).tolist()
            # each stream has drawn its step's region, and now draws that step's Gaussians
            ends = starts[-1] + sizes[picked[:, -1]]
            if (ends == width).all():
                for rng, row in zip(rngs, block):
                    rng.standard_normal(out=row)
            else:
                for rng, row, end in zip(rngs, block, ends.tolist()):
                    rng.standard_normal(out=row[:end])
            for col, start in zip(picked.T, starts):
                present = np.unique(col)
                for m in np.unique(dims[present]).tolist():
                    # one Haar call makes all of the slot's gates of dimension m
                    of_m = dims[col] == m
                    z = block[:, start:start + 2 * m * m]
                    gates = _haar_from_gaussians((z if of_m.all() else z[of_m])
                                                 .reshape(-1, 2, m, m))
                    if len(present) == 1:  # the whole batch, without a gather
                        states = _apply_gates_batch(states, site_lists[present[0]], gates, n, d)
                        continue
                    for r in present[dims[present] == m].tolist():
                        sel = col == r
                        states[sel] = _apply_gates_batch(states[sel], site_lists[r],
                                                         gates[sel[of_m]], n, d)
            yield j, states, a, picked


def _circuit_work(spec: EnsembleSpec, k: int, cfg: OracleConfig) -> int:
    """The work of k-step circuits, in amplitude updates: per sample and step, d^n for each
    gate and _STEP_AMPS for the step's per-sample calls."""
    gates = len(spec.structure.regions) if isinstance(spec.policy, CorrelatedSweep) else 1
    return cfg.samples * k * (gates * cfg.d**cfg.n + _STEP_AMPS)


# ---------------------------------------------------------------------------
# Sample ranges across processes
# ---------------------------------------------------------------------------

def _processes(samples: int, work: int) -> int:
    """How many processes simulate the samples: one per usable core, but at most one per
    sample and one per _FORK_WORK amplitude updates, so a small run never forks."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cores, samples, work // _FORK_WORK))


def _ranges(samples: int, processes: int) -> list[tuple[int, int]]:
    """[0, samples) cut into one contiguous (lo, hi) range per process, sizes within one."""
    cuts = [samples * i // processes for i in range(processes + 1)]
    return list(zip(cuts, cuts[1:]))


@lru_cache(maxsize=None)
def _blas_control():
    """(get, set) for the thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _forked(ranges: list[tuple[int, int]], run: Callable[[int, int], np.ndarray],
            get_threads, set_threads) -> list[np.ndarray]:
    """run(lo, hi) for each range, the first here and the others in forked children, each
    with one BLAS thread; every child is joined before this returns."""
    import multiprocessing

    context = multiprocessing.get_context("fork")

    def child(send, lo: int, hi: int) -> None:  # forked with the parent's one BLAS thread
        try:
            out = True, run(lo, hi)
        except BaseException as exc:  # handed to the parent, which raises it
            out = False, exc
        send.send(out)

    threads = get_threads()
    set_threads(1)
    children = []
    try:
        for lo, hi in ranges[1:]:
            recv, send = context.Pipe(duplex=False)
            proc = context.Process(target=child, args=(send, lo, hi))
            proc.start()
            send.close()
            children.append((proc, recv, lo, hi))
        results = [run(*ranges[0])]
        for proc, recv, lo, hi in children:  # drained before the joins
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"the process simulating samples [{lo}, {hi}) ended "
                                   f"without a result, exit code {proc.exitcode}") from None
            if not ok:
                raise value
            results.append(value)
    except BaseException:
        for proc, *_ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv, *_ in children:
            proc.join()
            recv.close()
        set_threads(threads)
    return results


def _over_ranges(samples: int, work: int,
                 run: Callable[[int, int], np.ndarray]) -> list[np.ndarray]:
    """run(lo, hi) on contiguous ranges that cut [0, samples), in range order.

    The calling process runs the first range and forked children the others, as many
    as ``_processes`` gives; without a BLAS thread control one process runs them all.
    A sample's values depend only on its own stream, so the results, joined in range
    order, do not depend on the process count.
    """
    processes = _processes(samples, work)
    control = _blas_control() if processes > 1 else None
    blas = "not sought" if processes == 1 else "not found" if control is None else "found"
    if control is None:
        processes = 1
    ranges = _ranges(samples, processes)
    if processes == 1:
        results, children = [run(0, samples)], "none"
    else:
        import resource

        results = _forked(ranges, run, *control)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        children = f"{peak:.1f} MiB"
    _log.debug("oracle: %d process%s over sample ranges %s, BLAS thread control %s, "
               "children's peak RSS %s", processes, "" if processes == 1 else "es",
               " ".join(f"[{lo}, {hi})" for lo, hi in ranges), blas, children)
    return results


def _region_sites(region: Region, cfg: OracleConfig) -> tuple[int, ...]:
    """The sites of a region of the config's system."""
    if region.n != cfg.n:
        raise ValueError("region universe does not match the oracle config")
    return region.sites()


def _estimate(values: np.ndarray) -> MomentEstimate:
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1)) / math.sqrt(len(values))
    return MomentEstimate(mean, stderr, len(values))


def mc_purity_trajectory(spec: EnsembleSpec, initial_region: Region, k_max: int,
                         cfg: OracleConfig) -> list[MomentEstimate]:
    """Monte Carlo average purity of the region after 0..k_max ensemble steps.

    Each sample runs one fresh circuit from the all-zeros product state, so the
    whole trajectory costs one pass.  A sample's purity is measured at step 0
    and after every step with a gate on a region that meets both the initial
    region and its complement (``in_boundary``); after any other step it
    carries the previous value, which a gate inside the region or inside its
    complement leaves unchanged.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    sites = _region_sites(initial_region, cfg)
    cross = np.array([in_boundary(r, initial_region) for r in spec.structure.regions])

    def purities(lo: int, hi: int) -> np.ndarray:
        out = np.empty((k_max + 1, hi - lo))
        for j, states, first, picked in _simulate(spec, k_max, cfg, lo, hi):
            at = slice(first - lo, first - lo + states.shape[0])
            crossed = True if picked is None else cross[picked].any(axis=1)
            if np.all(crossed):  # step 0, or every sample crossed: the whole batch, no gather
                out[j, at] = _purity_batch(states, sites, cfg.n, cfg.d)
                continue
            now = out[j, at]
            now[:] = out[j - 1, at]
            if crossed.any():
                now[crossed] = _purity_batch(states[crossed], sites, cfg.n, cfg.d)
        return out
    values = np.concatenate(_over_ranges(cfg.samples, _circuit_work(spec, k_max, cfg),
                                         purities), axis=1)
    return [_estimate(values[j]) for j in range(k_max + 1)]


def mc_average_purity(spec: EnsembleSpec, initial_region: Region, k: int,
                      cfg: OracleConfig) -> MomentEstimate:
    """Monte Carlo estimate of the average purity after exactly k steps."""
    return mc_purity_trajectory(spec, initial_region, k, cfg)[k]


def mc_trace_distance(spec: EnsembleSpec, region: Region, k: int,
                      cfg: OracleConfig) -> MomentEstimate:
    """Average trace-norm distance of the region's reduced state from maximally mixed, run
    in the calling process: a sample's distance depends only on its own stream."""
    if k < 0:
        raise ValueError("k must be >= 0")
    sites = _region_sites(region, cfg)
    dm = cfg.d**region.size
    check_cap("the reduced state's eigensolver", dm, MATRIX_DIM_CAP, " dimensions")
    out = np.empty(cfg.samples)
    for j, states, first, _ in _simulate(spec, k, cfg, 0, cfg.samples):
        if j != k:
            continue

        def distance(sub: int, rho: np.ndarray) -> None:
            rho -= np.eye(dm) / dm
            at = first + sub
            out[at:at + rho.shape[0]] = np.abs(np.linalg.eigvalsh(rho)).sum(axis=1)
        _reduce(states, sites, cfg.n, cfg.d, distance, 16 * dm)  # eigenvalues, their moduli
    return _estimate(out)


def _kron_power_batch(rho: np.ndarray, t: int) -> np.ndarray:
    out = rho
    for _ in range(t - 1):
        c, a, _ = out.shape
        b = rho.shape[1]
        out = np.einsum('sab,scd->sacbd', out, rho).reshape(c, a * b, a * b)
    return out


def _haar_batches(cfg: OracleConfig) -> Iterator[tuple[np.ndarray, int]]:
    """(states, first_index) chunks of global Haar states for every sample, sample s from
    stream (seed, 1, s)."""
    dim = cfg.d**cfg.n
    for a, b in _chunks(cfg, 32 * dim, 0, cfg.samples):  # the draws, then their states
        z = np.empty((b - a, 2, dim))
        for rng, row in zip(_streams(cfg.seed, 1, a, b), z):
            rng.standard_normal(out=row)
        states = z[:, 0, :] + 1j * z[:, 1, :]
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        yield states, a


def mc_design_distance(spec: EnsembleSpec, region: Region, k: int, t: int,
                       cfg: OracleConfig) -> DesignDistance:
    """Trace-norm distance between circuit and global-Haar averages of the region's t-th moment.

    Both sides are Monte Carlo: the circuit side runs k-step circuits, the
    reference side draws global Haar states as normalized complex Gaussians.
    Both sides run in the calling process, with no DEBUG line, and sum their
    moments over the samples in order: the same bytes at any process count.
    """
    if k < 0 or t < 1:
        raise ValueError("need k >= 0 and t >= 1")
    sites = _region_sites(region, cfg)
    dm = cfg.d**region.size
    check_cap(f"the t = {t} moment of a {dm}-dimensional region", dm**t, MATRIX_DIM_CAP,
              " dimensions")
    n_first = (cfg.samples + 1) // 2
    moment_bytes = 16 * sum(dm ** (2 * i) for i in range(2, t + 1))  # the Kronecker powers

    def average(batches) -> tuple[np.ndarray, float]:
        """Mean t-th moment over all samples, and its half-sample split error from the
        moments summed over the samples before n_first and over the rest."""
        halves = [np.zeros((dm**t, dm**t), dtype=complex) for _ in range(2)]
        for states, first in batches:
            def accumulate(sub: int, rho: np.ndarray) -> None:
                mom = _kron_power_batch(rho, t)
                cut = min(max(n_first - first - sub, 0), mom.shape[0])
                halves[0] += mom[:cut].sum(axis=0)
                halves[1] += mom[cut:].sum(axis=0)
            _reduce(states, sites, cfg.n, cfg.d, accumulate, moment_bytes)
        split = trace_norm(halves[0] / n_first - halves[1] / (cfg.samples - n_first)) / 2.0
        return (halves[0] + halves[1]) / cfg.samples, split

    circ_mean, circ_err = average((states, first) for j, states, first, _
                                  in _simulate(spec, k, cfg, 0, cfg.samples) if j == k)
    haar_mean, haar_err = average(_haar_batches(cfg))
    return DesignDistance(trace_norm(circ_mean - haar_mean), circ_err, haar_err, cfg.samples)


# ---------------------------------------------------------------------------
# Exact moment projections
# ---------------------------------------------------------------------------

def trace_norm(hermitian: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(hermitian)).sum())


def exact_first_moment_map(op: np.ndarray, region: Region, d: int) -> np.ndarray:
    """Haar average of conjugation by a unitary on the region.

    Replaces the region factors by the normalized identity times the partial
    trace: an idempotent, trace-preserving, unital projection.  Overlapping
    regions merge, R_A R_B = R_(A|B).
    """
    op = np.asarray(op, dtype=complex)
    n = region.n
    dim = d**n
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} does not match {dim}")
    check_cap("the dense operator", dim, MATRIX_DIM_CAP, " dimensions")
    if region.is_empty:
        return op.copy()
    dm = d**region.size
    # the operator as a one-sample 2n-site state: index row * d^n + col puts row site s at n + s
    sites = [n + s for s in region.sites()] + list(region.sites())
    blocks = _region_factors(op.reshape(1, -1), sites, 2 * n, d)
    traced = np.einsum('aabc->bc', blocks.reshape(dm, dm, dim // dm, dim // dm))
    out = np.outer(np.eye(dm, dtype=complex) / dm, traced)[None]
    return _from_region_factors(out, sites, 2 * n, d).reshape(dim, dim)


def exact_second_moment_projection(op: np.ndarray, region: Region, d: int) -> np.ndarray:
    """Haar average of two-copy conjugation by a unitary on the region.

    Projects the region's two-copy factors onto the span of the identity and
    the region swap, using the orthonormal pair (1 +- T) / sqrt(2 q (q +- 1))
    with q the region dimension; complement factors are untouched.
    """
    op = np.asarray(op, dtype=complex)
    n = region.n
    dim2 = (d**n) ** 2
    if op.shape != (dim2, dim2):
        raise ValueError(f"operator shape {op.shape} does not match the two-copy dimension {dim2}")
    check_cap("the two-copy operator", dim2, MATRIX_DIM_CAP, " dimensions")
    if region.is_empty:
        return op.copy()
    # copy-1 site s is pseudo-site n+s, copy-2 site s is pseudo-site s; then rows and columns
    # of the operator on the 2n pseudo-sites as in the first moment map: a 4n-site state
    pseudo = [n + s for s in region.sites()] + list(region.sites())
    sites = [2 * n + p for p in pseudo] + pseudo
    dm = d**region.size
    swap = dense_swap(Region.full(1), dm)
    eye = np.eye(dm * dm)
    blocks = _region_factors(op.reshape(1, -1), sites, 4 * n, d)
    t4 = blocks.reshape(dm * dm, dm * dm, dim2 // (dm * dm), -1)
    out = np.zeros_like(blocks)
    for sign in (1.0, -1.0):
        f = (eye + sign * swap) / math.sqrt(2.0 * dm * (dm + sign))
        out[0] += np.outer(f, np.einsum('ka,akbc->bc', f, t4))
    return _from_region_factors(out, sites, 4 * n, d).reshape(dim2, dim2)


def dense_swap(region: Region, d: int) -> np.ndarray:
    """The two-copy swap operator of a region as a dense permutation matrix: the identity
    with the pseudo-sites n + s and s of ``exact_second_moment_projection`` exchanged for
    each site s of the region, the identity's rows taken as a batch of 2n-site states."""
    n = region.n
    dim2 = (d**n) ** 2
    check_cap("the two-copy swap", dim2, MATRIX_DIM_CAP, " dimensions")
    pseudo = [n + s for s in region.sites()] + list(region.sites())
    dm = d**region.size
    blocks = _region_factors(np.eye(dim2), pseudo, 2 * n, d).reshape(dim2, dm, dm, -1)
    return _from_region_factors(blocks.swapaxes(1, 2).reshape(dim2, dm * dm, -1), pseudo,
                                2 * n, d)


def first_moment_mixture_matrix(structure, d: int) -> np.ndarray:
    """Superoperator matrix of the weighted first-moment mixture on vectorized operators."""
    dim = d**structure.n
    check_cap("the superoperator", dim * dim, SUPEROP_DIM_CAP, " dimensions")
    weights = structure.weight_vector()
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    basis = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim * dim):
        basis.flat[idx] = 1.0
        acc = np.zeros((dim, dim), dtype=complex)
        for q, region in zip(weights, structure.regions):
            acc += q * exact_first_moment_map(basis, region, d)
        out[:, idx] = acc.reshape(-1)
        basis.flat[idx] = 0.0
    return out
