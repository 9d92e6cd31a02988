"""One scatter and one merge per stage, pinned bit for bit to the per-region loop it replaced.

``ref_region_map``, ``ref_scatter``, ``ref_emit``, ``ref_mix`` and ``ref_apply`` are
the former kernel: one scatter per region, and one ``np.unique`` merge of the running
sum per region.  ``ref_step`` and ``ref_markov_branches`` are the evolution built on
it.  The new kernel adds every mask's terms in the same order, so trajectories, steps
and Markov branches must agree exactly under any merge budget and either accumulator.
"""
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from lrqc import (CorrelatedSweep, EnsembleSpec, LocalStructure, Markov, PathParams, Region,
                  Uncorrelated, path_structure, purity_exact, purity_trajectory, swapcore)
from lrqc.swapcore import (DEFAULT_PRUNE_TOL, _alpha, _apply_stage, _markov_branches,
                           _region_maps, _stages)


def _step(state, spec, maps, step_index, tol):
    """One step of the kernel under test: its stages applied in turn."""
    for stage in _stages(spec, step_index):
        state = _apply_stage(state, maps, stage, spec.structure.n, tol)
    return state


def ref_region_map(region, d):
    s = region.size
    table = [(0.0, 0.0)] + [_alpha(s - i, i, d) for i in range(1, s)] + [(0.0, 0.0)]
    return (np.uint64(region.bits), region.sites(), *np.array(table).T)


def ref_scatter(masks, mask, sites, plus, minus):
    common = masks & mask
    straddled = (common != 0) & (common != mask)
    kept, moved = np.flatnonzero(~straddled), np.flatnonzero(straddled)
    hit = masks[moved]
    inter = sum((hit >> np.uint64(s)) & np.uint64(1) for s in sites)
    src = np.concatenate((kept, moved, moved))
    dst = np.concatenate((masks[kept], hit & ~mask, hit | mask))
    weight = np.concatenate((np.ones(kept.size), plus[inter], minus[inter]))
    return src, dst, weight


def ref_emit(state, rmap):
    src, dst, weight = ref_scatter(state[0], *rmap)
    return dst, state[1][src] * weight


def ref_mix(weighted_states, tol):
    masks, coefs = np.empty(0, dtype=np.uint64), np.empty(0)
    for w, (m, c) in weighted_states:
        masks, inverse = np.unique(np.concatenate((masks, m)), return_inverse=True)
        coefs = np.bincount(inverse, weights=np.concatenate((coefs, w * c)), minlength=masks.size)
    keep = np.abs(coefs) > tol
    return masks[keep], coefs[keep]


def ref_apply(state, rmap, tol):
    return ref_mix([(1.0, ref_emit(state, rmap))], tol)


def ref_maps(spec):
    return [ref_region_map(r, spec.d) for r in spec.structure.regions]


def ref_step(state, spec, step_index, tol):
    maps = ref_maps(spec)
    for stage in _stages(spec, step_index):
        state = ref_mix(((q, ref_emit(state, maps[idx])) for q, idx in stage), tol)
    return state


def ref_trajectory(initial, spec, k_max):
    if isinstance(spec.policy, Markov):
        steps = itertools.islice(ref_markov_branches(initial, spec), k_max)
        return [1.0] + [math.fsum(q * math.fsum(b[1].tolist())
                                  for q, b in zip(spec.policy.initial, branches))
                        for branches in steps]
    out = [1.0]
    for k in range(1, k_max + 1):  # a k-step circuit acts on the swap as steps k - 1, ..., 0
        state = (np.array([initial.bits], dtype=np.uint64), np.array([1.0]))
        for j in reversed(range(k)):
            state = ref_step(state, spec, j, DEFAULT_PRUNE_TOL)
        out.append(math.fsum(state[1].tolist()))
    return out


def ref_markov_branches(initial, spec):
    base = (np.array([initial.bits], dtype=np.uint64), np.array([1.0]))
    maps, tol, branches = ref_maps(spec), DEFAULT_PRUNE_TOL, None
    while True:
        branches = [ref_apply(base if branches is None else
                              ref_mix(((w, b) for w, b in zip(row, branches) if w), tol), rmap, tol)
                    for row, rmap in zip(spec.policy.matrix, maps)]
        yield branches


def _weights(draw, m):
    """A distribution over m regions with zero entries, as often as not."""
    raw = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m).filter(any))
    return tuple(w / sum(raw) for w in raw)


@st.composite
def specs(draw):
    """All three policies, zero and per-step weights, one- to three-site regions, d = 2 and 3."""
    n = draw(st.integers(3, 8))
    sites = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    regions = tuple(Region.of(s, n) for s in draw(st.lists(sites, min_size=1, max_size=6)))
    m = len(regions)
    kind = draw(st.sampled_from(["uncorrelated", "per-step", "sweep", "markov"]))
    weights = _weights(draw, m) if kind == "uncorrelated" and draw(st.booleans()) else None
    if kind == "uncorrelated":
        policy = Uncorrelated()
    elif kind == "per-step":
        policy = Uncorrelated(tuple(_weights(draw, m) for _ in range(4)))
    elif kind == "sweep":
        policy = CorrelatedSweep(tuple(draw(st.permutations(range(m)))))
    else:
        policy = Markov(_weights(draw, m), tuple(_weights(draw, m) for _ in range(m)))
    return EnsembleSpec(LocalStructure(n, regions, weights), policy, draw(st.sampled_from([2, 3])))


# (merge bytes, dense ratio): one region per group and a sorted accumulator; a few regions
# per group, sorted; a dense accumulator wherever one fits at n <= 8; the defaults
budgets = st.sampled_from([(1, 0), (swapcore._MASK_BYTES * 30, 0), (1 << 13, 1 << 20),
                           (swapcore._MERGE_BYTES, swapcore._DENSE_RATIO)])


def _budget(budget):
    merge_bytes, ratio = budget
    return mock.patch.multiple(swapcore, _MERGE_BYTES=merge_bytes, _DENSE_RATIO=ratio)


def _same(got, want):
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(specs(), budgets, st.data())
def test_trajectories_steps_and_branches_match_per_region_merges(spec, budget, data):
    n = spec.structure.n
    initial = Region(data.draw(st.integers(0, (1 << n) - 1)), n)
    k = data.draw(st.integers(0, 4))
    with _budget(budget):
        assert purity_trajectory(initial, spec, k) == ref_trajectory(initial, spec, k)
        if isinstance(spec.policy, Markov):
            for got, want in itertools.islice(zip(_markov_branches(initial, spec),
                                                  ref_markov_branches(initial, spec)), k):
                assert all(_same(a, b) for a, b in zip(got, want))
            return
        # a state with unequal coefficients, so that any reordered sum shows
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40,
                                   unique=True))
        coefs = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(masks),
                                   max_size=len(masks)))
        state = (np.sort(np.array(masks, dtype=np.uint64)), np.array(coefs))
        maps = _region_maps(spec.structure.regions, spec.d)
        for j in range(4):
            assert _same(_step(state, spec, maps, j, 0.0), ref_step(state, spec, j, 0.0))


def test_small_budgets_split_stages_into_groups():
    spec = EnsembleSpec(path_structure(8), Uncorrelated(), 3)
    state = (np.arange(0, 256, 3, dtype=np.uint64), np.linspace(0.1, 1.0, 86))
    maps, stage = _region_maps(spec.structure.regions, spec.d), _stages(spec)[0]
    image, seen = swapcore._image, []

    def spy(state, maps, q, idx):
        seen.append(len(idx))
        return image(state, maps, q, idx)

    with _budget((swapcore._MASK_BYTES * 86 * 3, 0)), mock.patch.object(swapcore, "_image", spy):
        got = _apply_stage(state, maps, stage, 8, 0.0)
    assert seen == [3, 3, 1]
    assert _same(got, ref_step(state, spec, 0, 0.0))


def test_one_step_on_a_full_support_stays_within_the_merge_budget():
    n = 14
    spec = EnsembleSpec(path_structure(n), Uncorrelated(), 2)
    maps = _region_maps(spec.structure.regions, spec.d)
    state = (np.arange(1 << n, dtype=np.uint64), np.full(1 << n, 1.0 / (1 << n)))
    tracemalloc.start()
    try:
        _step(state, spec, maps, 0, DEFAULT_PRUNE_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the budget bounds a group's image, held beside the dense accumulator and the new state
    assert peak <= swapcore._MERGE_BYTES + 8 * (1 << n) + 16 * (1 << n)


@st.composite
def view_stages(draw):
    """Stages of two or more regions of 1..n sites, some sites idle, uniform or drawn weights
    with zeros, d = 2 or 3, n <= 10, and a state with unequal coefficients of either sign."""
    n = draw(st.integers(2, 10))
    sizes = st.integers(1, n).flatmap(
        lambda s: st.lists(st.integers(0, n - 1), min_size=s, max_size=s, unique=True))
    regions = tuple(Region.of(s, n) for s in draw(st.lists(sizes, min_size=2, max_size=6)))
    m = len(regions)
    weights = _weights(draw, m) if draw(st.booleans()) else None
    spec = EnsembleSpec(LocalStructure(n, regions, weights), Uncorrelated(),
                        draw(st.sampled_from([2, 3])))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=1 << n,
                          unique=True))
    coefs = draw(st.lists(st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3), min_size=len(masks),
                          max_size=len(masks)))
    return spec, (np.sort(np.array(masks, dtype=np.uint64)), np.array(coefs))


@settings(max_examples=200, deadline=None)
@given(view_stages(), st.sampled_from([0.0, DEFAULT_PRUNE_TOL]))
def test_view_stages_match_the_scatter(case, tol):
    spec, state = case
    n, (stage,) = spec.structure.n, _stages(spec)
    maps = _region_maps(spec.structure.regions, spec.d)
    images = [swapcore._image(state, maps, q, idx) for q, idx in swapcore._groups(stage, 1)]
    # every state is dense at n <= 10 under these budgets, for the views and for the scatter
    with _budget((1 << 13, 1 << 20)), mock.patch.object(
            swapcore, "_sum_views", wraps=swapcore._sum_views) as views:
        got = _apply_stage(state, maps, stage, n, tol)
        scattered = swapcore._mix(images, len(stage) * state[0].size, n, tol)
    assert views.called == (len(stage) > 1)
    assert _same(got, scattered)
    assert _same(got, ref_step(state, spec, 0, tol))


def test_a_weighted_view_stage_holds_the_vector_its_sum_and_three_products():
    n = 14
    weights = tuple(np.arange(1.0, n) / sum(range(1, n)))  # a new weight at every region
    spec = EnsembleSpec(LocalStructure(n, path_structure(n).regions, weights), Uncorrelated(), 3)
    maps = _region_maps(spec.structure.regions, spec.d)
    state = (np.arange(1 << n, dtype=np.uint64), np.linspace(1.0, 2.0, 1 << n))
    tracemalloc.start()
    try:
        got = _step(state, spec, maps, 0, DEFAULT_PRUNE_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same(got, ref_step(state, spec, 0, DEFAULT_PRUNE_TOL))
    assert peak <= swapcore._MERGE_BYTES + 8 * (1 << n) + 16 * (1 << n)
    # x, the accumulator and three products, beside numpy's buffers for a strided add
    assert peak <= 40 * (1 << n) + 16 * np.getbufsize() + swapcore._OBJECT_BYTES


def test_path_prefix_matches_the_closed_form_at_n24():
    n, k = 24, 40
    spec = EnsembleSpec(path_structure(n), Uncorrelated(), 2)
    got = purity_trajectory(Region.of(range(12), n), spec, k)
    want = [purity_exact(PathParams(n, 2, 12), j) for j in range(k + 1)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
