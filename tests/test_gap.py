"""The matrix-free spectral gap, pinned to the dense two-SVD computation it replaced.

``dense_gap_reference`` is that computation as it stood: the eigenvalue-1
space from an SVD of M - I, the dense Kronecker power of the one-site Gram
Cholesky factor and its inverse, and the largest singular value of the
projected, conjugated step matrix from a second SVD.
"""
import functools
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lrqc import (CapExceeded, CorrelatedSweep, EnsembleSpec, LocalStructure, Region,
                  Uncorrelated, build_swap_matrix, complete_structure, connected_components,
                  fixed_space_dimension, path_structure, spectral_gap_swap)
from lrqc.swapcore import (MATRIX_BYTE_BUDGET, RANK_TOL, _gram_root, _matrix_bytes, _on_sites,
                           _site_maps, gram_half)


def dense_gap_reference(matrix, d, tol=RANK_TOL):
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    _, s, vh = np.linalg.svd(matrix - np.eye(dim))
    fixed = vh[dim - int(np.sum(s <= tol)):].T
    site = np.linalg.cholesky(np.array([[1.0, 1.0 / d], [1.0 / d, 1.0]]))
    chol = np.array([[1.0]])
    for _ in range(n):
        chol = np.kron(chol, site)
    primed = chol.T @ matrix @ np.linalg.inv(chol).T
    q, _ = np.linalg.qr(chol.T @ fixed)
    proj = np.eye(dim) - q @ q.T
    sigma = np.linalg.svd(proj @ primed @ proj, compute_uv=False)[0]
    return float(min(1.0, max(0.0, 1.0 - sigma)))


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def logged(fn, *args):
    """fn(*args) and the arguments of the one DEBUG record it logs."""
    logger, handler = logging.getLogger("lrqc"), _Records()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        value = fn(*args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    (record,) = handler.records
    return value, record.args


def logged_gap(spec):
    """The gap and the arguments of the one DEBUG record the solver logs for it."""
    return logged(spectral_gap_swap, spec)  # iterations, residual, fixed dimension used, predicted


@st.composite
def ensembles(draw, sweeps=True):
    n = draw(st.integers(2, 7))
    sites = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True)
    regions = tuple(Region.of(s, n) for s in draw(st.lists(sites, min_size=1, max_size=6)))
    raw = draw(st.lists(st.integers(0, 3), min_size=len(regions), max_size=len(regions))
               .filter(any))
    weights = tuple(w / sum(raw) for w in raw)
    if not sweeps or draw(st.booleans()):
        policy = Uncorrelated()
    else:
        policy = CorrelatedSweep(tuple(draw(st.permutations(range(len(regions))))))
    return EnsembleSpec(LocalStructure(n, regions, weights), policy, draw(st.sampled_from([2, 3])))


def _spec(n, regions, weights=None, policy=Uncorrelated(), d=2):
    st_ = LocalStructure(n, tuple(Region.of(r, n) for r in regions), weights)
    return EnsembleSpec(st_, policy, d)


@settings(max_examples=150, deadline=None)
@given(ensembles())
@example(_spec(3, [[0], [0, 1], [0, 1, 2]], policy=CorrelatedSweep((0, 1, 2)), d=3))  # gap 1
@example(_spec(7, [[0, 1, 2], [2, 3], [5, 6]], (0.5, 0.0, 0.5)))  # zero weight, uncovered site
@example(_spec(7, [[0, 1, 2], [2, 3], [5, 6]], policy=CorrelatedSweep((2, 0, 1)), d=3))
@example(_spec(5, [[0], [3]]))  # nothing straddled: the whole space is fixed
@example(_spec(6, [[0, 1], [1, 2], [3, 4], [4, 5]], policy=CorrelatedSweep((3, 1, 0, 2))))
def test_gap_matches_dense_reference(spec):
    matrix = build_swap_matrix(spec)
    gap, (iterations, residual, used, predicted) = logged_gap(spec)
    assert gap == pytest.approx(dense_gap_reference(matrix, spec.d), rel=1e-10, abs=1e-15)
    assert used == fixed_space_dimension(matrix)
    decomposition = connected_components(spec.structure)
    assert predicted == 2 ** len(decomposition.components) * 2 ** decomposition.residual.size
    assert 0 <= iterations < matrix.shape[0]
    assert residual <= 1e-13


def _gram(n, d):
    """The swap Gram matrix: the n-fold Kronecker power of the one-site Gram matrix."""
    out = np.ones((1, 1))
    for _ in range(n):
        out = np.kron(out, [[1.0, 1.0 / d], [1.0 / d, 1.0]])
    return out


@st.composite
def single_regions(draw):
    n = draw(st.integers(1, 6))
    sites = draw(st.one_of(st.just(list(range(n))),
                           st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
    return EnsembleSpec(LocalStructure(n, (Region.of(sites, n),)), Uncorrelated(),
                        draw(st.sampled_from([2, 3])))


class TestGateAdjointIdentity:
    """The solver's premise: each gate map is a Hilbert-Schmidt orthogonal projector,
    G M_r = M_r^T G, so the adjoint of a sweep is the sweep in reverse order."""

    @settings(max_examples=150, deadline=None)
    @given(single_regions())
    def test_gate_is_self_adjoint(self, spec):
        matrix, gram = build_swap_matrix(spec), _gram(spec.structure.n, spec.d)
        assert np.abs(gram @ matrix - matrix.T @ gram).max() <= 1e-14

    @settings(max_examples=100, deadline=None)
    @given(ensembles(), st.data())
    def test_sweep_adjoint_is_reversed_sweep(self, spec, data):
        order = tuple(data.draw(st.permutations(range(len(spec.structure.regions)))))
        forward, backward = (build_swap_matrix(EnsembleSpec(spec.structure, CorrelatedSweep(o),
                                                            spec.d))
                             for o in (order, order[::-1]))
        gram = _gram(spec.structure.n, spec.d)
        assert np.abs(gram @ forward - backward.T @ gram).max() <= 1e-14


def test_gap_logs_nothing_by_default(capsys):
    spectral_gap_swap(EnsembleSpec(path_structure(5), Uncorrelated(), 2))
    assert capsys.readouterr() == ("", "")


def _complement_blocks(matrix, d):
    """The J-blocks B[A, C] +- B[A, ~C] of B = S M S^-1, A and C over the masks without the
    top site, with S the dense Kronecker power of the one-site symmetric Gram root."""
    dim = matrix.shape[0]
    values, vectors = np.linalg.eigh(np.array([[1.0, 1.0 / d], [1.0 / d, 1.0]]))
    root, inverse = np.ones((1, 1)), np.ones((1, 1))
    for _ in range(dim.bit_length() - 1):
        root = np.kron(root, (vectors * np.sqrt(values)) @ vectors.T)
        inverse = np.kron(inverse, (vectors / np.sqrt(values)) @ vectors.T)
    b = root @ matrix @ inverse
    low = np.arange(dim // 2)
    return b, [b[np.ix_(low, low)] + sign * b[np.ix_(low, low ^ (dim - 1))] for sign in (1, -1)]


class TestGramSymmetricStep:
    """The fixed-space route of ``fixcheck``: an uncorrelated step is self-adjoint, so in
    coordinates B = S M S^-1 of the symmetric Gram root it is symmetric; it commutes with the
    complement involution, so it splits into two symmetric halves, and eigvalsh on each
    counts its fixed space.  Pinned to dense Kronecker powers and to the SVD of M - I."""

    @settings(max_examples=150, deadline=None)
    @given(ensembles(sweeps=False))
    @example(_spec(7, [[0, 1, 2], [2, 3], [5, 6]], (0.5, 0.0, 0.5), d=3))  # zero weight, site 4
    @example(_spec(6, [[0, 1], [2], [3, 4]], (0.25, 0.5, 0.25), d=3))  # one-site region, site 5
    @example(_spec(5, [[0], [3]]))  # nothing straddled: M = I
    @example(_spec(2, [[1]]))  # one-site halves
    def test_matches_dense_kronecker_and_svd(self, spec):
        matrix = build_swap_matrix(spec)
        eye = np.eye(matrix.shape[0])
        b, blocks = _complement_blocks(matrix, spec.d)
        assert np.abs(b - b.T).max() <= 1e-14
        halves = [gram_half(spec, sign) for sign in (1, -1)]
        for half, block in zip(halves, blocks):
            assert np.abs(half - block).max() <= 1e-13
            assert np.array_equal(half, half.T)
        moduli = np.sort(np.concatenate([np.abs(np.linalg.eigvalsh(h - np.eye(len(h))))
                                         for h in halves]))
        assert np.abs(moduli - np.sort(np.abs(np.linalg.eigvals(matrix - eye)))).max() <= 1e-10
        counts = [logged(fixed_space_dimension, half) for half in halves]
        assert [solver for _, (_, solver, _, _) in counts] == ["eigvalsh", "eigvalsh"]
        svd_count = int(np.sum(np.linalg.svd(matrix - eye, compute_uv=False) <= RANK_TOL))
        assert sum(used for _, (used, _, _, _) in counts) == sum(c for c, _ in counts) == svd_count
        assert svd_count == fixed_space_dimension(matrix)

    def test_refuses_a_sweep(self):
        with pytest.raises(ValueError, match="uncorrelated"):
            gram_half(_spec(3, [[0, 1], [1, 2]], policy=CorrelatedSweep((1, 0))), 1)

    def test_logs_solver_count_and_margins(self):
        matrix = build_swap_matrix(EnsembleSpec(path_structure(4), Uncorrelated(), 2))
        count, (used, solver, zero, nonzero) = logged(fixed_space_dimension, matrix)
        assert (count, used, solver) == (2, 2, "svd")
        assert zero <= RANK_TOL < 1e3 * RANK_TOL < nonzero
        count, (used, solver, zero, nonzero) = logged(fixed_space_dimension, np.eye(3))
        assert (count, used, solver, zero, nonzero) == (3, 3, "eigvalsh", 0.0, None)

    def test_logs_nothing_by_default(self, capsys):
        spec = EnsembleSpec(path_structure(5), Uncorrelated(), 2)
        fixed_space_dimension(gram_half(spec, 1))
        fixed_space_dimension(gram_half(spec, -1))
        fixed_space_dimension(build_swap_matrix(spec))
        assert capsys.readouterr() == ("", "")


def _gram_site_maps(d):
    """The 2x2 maps whose Kronecker powers the gap and ``gram_half`` apply by ``_on_sites``:
    C^T and C^-T of the Cholesky factor C, and the symmetric Gram root and its inverse."""
    chol, inv_t = _site_maps(d)
    return [chol.T, inv_t, _gram_root(d, 1), _gram_root(d, -1)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 1 << n))),
       st.sampled_from([2, 3]), st.integers(0, 3), st.integers(0, 2**32 - 1))
@example((7, 128), 2, 3, 0)  # a whole 2^7-row gate block
@example((1, 1), 3, 0, 0)
def test_on_sites_batch_matches_dense_kronecker_power(shape, d, which, seed):
    """Every row of a batch mapped by ``_on_sites`` is the row times the dense transposed
    power: the gap maps one row, ``_gram_block`` all 2^|r| rows of a gate map at once."""
    n, rows = shape
    site = _gram_site_maps(d)[which]
    x = np.random.default_rng(seed).standard_normal((rows, 1 << n))
    want = x @ functools.reduce(np.kron, [site] * n).T
    got = _on_sites(site, x)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max() * (1 << n)


@settings(max_examples=150, deadline=None)
@given(ensembles())
@example(_spec(7, [[0, 1, 2], [2, 3], [5, 6]], (0.5, 0.0, 0.5), d=3))
@example(_spec(6, [[0, 1], [1, 2], [3, 4], [4, 5]], policy=CorrelatedSweep((3, 1, 0, 2)), d=3))
def test_step_commutes_with_complement(spec):
    """Reversing the mask order is the complement involution J, which the split into
    ``gram_half``'s halves rests on: every step, uncorrelated or a sweep, commutes with it."""
    matrix = build_swap_matrix(spec)
    assert np.abs(matrix[::-1, ::-1] - matrix).max() <= 1e-15


class TestMatrixByteBudget:
    def test_fourteen_site_sweep_refused_before_allocating(self):
        spec = EnsembleSpec(path_structure(14), CorrelatedSweep(tuple(range(13))), 2)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as info:
                build_swap_matrix(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(_matrix_bytes(spec)) in str(info.value)
        assert str(MATRIX_BYTE_BUDGET) in str(info.value)

    @pytest.mark.parametrize("n, sweep", [(14, False), (13, True)])
    def test_largest_admitted_builds(self, n, sweep):
        for structure in (path_structure(n), complete_structure(n)):
            m = len(structure.regions)
            policy = CorrelatedSweep(tuple(range(m))) if sweep else Uncorrelated()
            assert _matrix_bytes(EnsembleSpec(structure, policy, 2)) <= MATRIX_BYTE_BUDGET

    def test_count_covers_the_measured_peak(self):
        for policy in (Uncorrelated(), CorrelatedSweep((2, 0, 1, 3, 4, 5))):
            spec = EnsembleSpec(path_structure(7), policy, 2)
            tracemalloc.start()
            try:
                build_swap_matrix(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= _matrix_bytes(spec)
