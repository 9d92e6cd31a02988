"""One ensemble step described once, as stages, pinned to the per-policy code it replaced.

``ref_step``, ``ref_step_factors``, ``ref_matrix_bytes`` and ``ref_build_swap_matrix``
are those functions as they stood, each branching on the policy itself: a sweep
applied its regions in turn, an uncorrelated step mixed the regions of positive
weight, and a sweep's build row-scattered every factor onto the identity.  The steps
run on the per-region kernel kept in ``test_merge``.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lrqc import (CapExceeded, CorrelatedSweep, EnsembleSpec, LocalStructure, Markov, Region,
                  Uncorrelated, build_swap_matrix, path_structure, purity_trajectory,
                  spectral_gap_swap)
from lrqc.swapcore import (DEFAULT_PRUNE_TOL, _OBJECT_BYTES, _factor, _matrix_bytes,
                           _region_maps, _stages, _step_factors)
from test_merge import _step, ref_apply, ref_emit, ref_mix, ref_region_map


def ref_step(state, spec, maps, step_index, tol):
    if isinstance(spec.policy, CorrelatedSweep):
        for idx in spec.policy.order:
            state = ref_apply(state, maps[idx], tol)
        return state
    weights = spec.step_weights(step_index)
    return ref_mix(((q, ref_emit(state, rmap)) for q, rmap in zip(weights, maps) if q), tol)


def ref_trajectory(initial, spec, k_max):
    maps = [ref_region_map(r, spec.d) for r in spec.structure.regions]
    out = [1.0]
    for k in range(1, k_max + 1):  # a k-step circuit acts on the swap as steps k - 1, ..., 0
        state = (np.array([initial.bits], dtype=np.uint64), np.array([1.0]))
        for j in reversed(range(k)):
            state = ref_step(state, spec, maps, j, DEFAULT_PRUNE_TOL)
        out.append(math.fsum(state[1].tolist()))
    return out


def ref_acting_regions(spec):
    st_ = spec.structure
    if isinstance(spec.policy, CorrelatedSweep):
        return st_.regions
    return tuple(r for q, r in zip(st_.weight_vector(), st_.regions) if q)


def ref_step_factors(spec):
    st_ = spec.structure
    if isinstance(spec.policy, CorrelatedSweep):
        return [_factor(st_.regions[idx], spec.d) for idx in spec.policy.order]
    pieces = [_factor(r, spec.d, q) for q, r in zip(st_.weight_vector(), st_.regions) if q]
    return [tuple(np.concatenate(p) for p in zip(*pieces))]


def ref_matrix_bytes(spec):
    dim = 1 << spec.structure.n
    entries = [2 * dim - (dim >> (r.size - 1)) for r in ref_acting_regions(spec)]
    if isinstance(spec.policy, CorrelatedSweep):
        return 24 * sum(entries) + max(16 * dim * dim + 24 * e * dim for e in entries)
    return 8 * dim * dim + 48 * sum(entries)


def ref_build_swap_matrix(spec):
    factors = ref_step_factors(spec)
    dim = 1 << spec.structure.n
    if isinstance(spec.policy, Uncorrelated):
        src, dst, weight = factors[0]
        return np.bincount(dst * dim + src, weights=weight, minlength=dim * dim).reshape(dim, dim)
    out = np.eye(dim)
    for src, dst, weight in factors:
        flat = (dst[:, None] * dim + np.arange(dim)).ravel()
        out = np.bincount(flat, weights=(weight[:, None] * out[src]).ravel(),
                          minlength=dim * dim).reshape(dim, dim)
    return out


def _weights(draw, m):
    """A distribution over m regions with zero entries, as often as not."""
    raw = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    return tuple(w / sum(raw) for w in raw)


@st.composite
def single_steps(draw, max_n=7):
    """Uncorrelated specs with zero weights, and sweeps of one to five regions."""
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5))
    regions = tuple(Region(m, n) for m in masks)
    if draw(st.booleans()):
        policy, weights = CorrelatedSweep(tuple(draw(st.permutations(range(len(regions)))))), None
    else:
        policy, weights = Uncorrelated(), _weights(draw, len(regions))
    return EnsembleSpec(LocalStructure(n, regions, weights), policy, draw(st.sampled_from([2, 3])))


@st.composite
def stepped(draw):
    """Single steps, plus uncorrelated specs with per-step weights."""
    if draw(st.booleans()):
        return draw(single_steps(max_n=8))
    n = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=5))
    regions = tuple(Region(m, n) for m in masks)
    steps = tuple(_weights(draw, len(regions)) for _ in range(draw(st.integers(1, 5))))
    return EnsembleSpec(LocalStructure(n, regions), Uncorrelated(steps), draw(st.sampled_from([2, 3])))


def _one_region_sweep(n, sites, d=2):
    return EnsembleSpec(LocalStructure(n, (Region.of(sites, n),)), CorrelatedSweep((0,)), d)


ONE_REGION_SWEEPS = [_one_region_sweep(1, [0]), _one_region_sweep(4, [1, 2]),
                     _one_region_sweep(7, [0, 3, 6], 3)]


@settings(max_examples=150, deadline=None)
@given(single_steps())
@example(ONE_REGION_SWEEPS[0])
@example(ONE_REGION_SWEEPS[2])
@example(EnsembleSpec(LocalStructure(7, (Region.of([0, 1, 2], 7), Region.of([2, 3], 7),
                                         Region.of([5, 6], 7)), (0.5, 0.0, 0.5)), Uncorrelated(), 2))
def test_factors_and_step_matrix_match_per_policy_code(spec):
    got, want = _step_factors(spec), ref_step_factors(spec)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))
    assert np.array_equal(build_swap_matrix(spec), ref_build_swap_matrix(spec))


@settings(max_examples=150, deadline=None)
@given(stepped(), st.data())
def test_steps_and_trajectories_match_per_policy_code(spec, data):
    n = spec.structure.n
    initial = Region(data.draw(st.integers(0, (1 << n) - 1)), n)
    per_step = isinstance(spec.policy, Uncorrelated) and spec.policy.step_weights
    steps = len(per_step) if per_step else 6
    k = data.draw(st.integers(0, steps))
    assert purity_trajectory(initial, spec, k) == ref_trajectory(initial, spec, k)
    maps = [ref_region_map(r, spec.d) for r in spec.structure.regions]
    masks = np.unique(np.array(data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                                   max_size=20)), dtype=np.uint64))
    state = (masks, np.linspace(0.1, 1.0, masks.size))
    new_maps = _region_maps(spec.structure.regions, spec.d)
    for j in range(steps):
        got, want = _step(state, spec, new_maps, j, 0.0), ref_step(state, spec, maps, j, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(single_steps(max_n=9))
@example(ONE_REGION_SWEEPS[0])
@example(ONE_REGION_SWEEPS[1])
@example(ONE_REGION_SWEEPS[2])
def test_matrix_bytes_cover_the_measured_peak(spec):
    tracemalloc.start()
    try:
        build_swap_matrix(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _matrix_bytes(spec)
    # the former count plus numpy's broadcasting buffers and small objects, which it left out;
    # a sweep counts less, as its first factor is no longer row-scattered onto np.eye
    allowance = 16 * np.getbufsize() + _OBJECT_BYTES
    if isinstance(spec.policy, Uncorrelated):
        assert _matrix_bytes(spec) == ref_matrix_bytes(spec) + allowance
    else:
        assert _matrix_bytes(spec) <= ref_matrix_bytes(spec) + allowance


class TestStages:
    def test_sweep_has_one_stage_per_region_in_order(self):
        spec = EnsembleSpec(path_structure(5), CorrelatedSweep((2, 0, 3, 1)), 2)
        assert _stages(spec) == [[(1.0, 2)], [(1.0, 0)], [(1.0, 3)], [(1.0, 1)]]
        assert _stages(spec, 7) == _stages(spec)

    def test_uncorrelated_step_skips_zero_weights(self):
        structure = LocalStructure(4, path_structure(4).regions, (0.5, 0.0, 0.5))
        assert _stages(EnsembleSpec(structure, Uncorrelated(), 2)) == [[(0.5, 0), (0.5, 2)]]
        spec = EnsembleSpec(structure, Uncorrelated(((0.0, 1.0, 0.0), (0.25, 0.25, 0.5))), 2)
        assert _stages(spec, 0) == [[(1.0, 1)]]
        assert _stages(spec, 1) == [[(0.25, 0), (0.25, 1), (0.5, 2)]]

    @pytest.mark.parametrize("policy, message", [
        (Markov((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5))), "Markov ensemble is not a single"),
        (Uncorrelated(((0.5, 0.5),)), "time-dependent weights do not define"),
    ])
    def test_no_single_step(self, policy, message):
        spec = EnsembleSpec(path_structure(3), policy, 2)
        for route in (_stages, _step_factors, _matrix_bytes, build_swap_matrix,
                      spectral_gap_swap):
            with pytest.raises(ValueError, match=message):
                route(spec)

    def test_gap_reports_the_policy_before_the_site_cap(self):
        m = 15
        markov = Markov((1 / m,) * m, ((1 / m,) * m,) * m)
        with pytest.raises(ValueError, match="Markov"):
            spectral_gap_swap(EnsembleSpec(path_structure(16), markov, 2))
        with pytest.raises(CapExceeded):
            spectral_gap_swap(EnsembleSpec(path_structure(16), Uncorrelated(), 2))
