"""Property tests pinning the array swap-map kernel to the per-term rule it replaced.

The references below are plain-Python transcriptions of the single-region
rule on a {mask: coefficient} dict and of the three policies built on it, so
the vectorized kernel, the dense step matrices and the one-pass area-law
search are each checked against an independent route.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrqc import (CapExceeded, CorrelatedSweep, EnsembleSpec, LocalStructure, Markov, Region,
                  SwapVector, Uncorrelated, apply_local, apply_step, build_swap_matrix,
                  path_structure, purity_trajectory, swapcore)
from lrqc import boundary_probability, reachable_boundary_column

TOL = 1e-15


def ref_alpha(a, b, d):
    cp = (d**a + d**b) / (d ** (a + b) + 1)
    cm = (d**a - d**b) / (d ** (a + b) - 1)
    return (cp + cm) / 2, (cp - cm) / 2


def ref_local(terms, lm, n, d):
    """One Haar-averaged gate on mask ``lm``, one term at a time."""
    full = (1 << n) - 1
    out = {}
    for m, c in terms.items():
        inter, outside = m & lm, lm & ~m & full
        if inter == 0 or outside == 0:
            out[m] = out.get(m, 0.0) + c
        else:
            ap, am = ref_alpha(outside.bit_count(), inter.bit_count(), d)
            out[m & ~lm] = out.get(m & ~lm, 0.0) + ap * c
            out[m | lm] = out.get(m | lm, 0.0) + am * c
    return {m: c for m, c in out.items() if abs(c) > TOL}


def ref_mix(weighted_terms):
    acc = {}
    for w, terms in weighted_terms:
        for m, c in terms.items():
            acc[m] = acc.get(m, 0.0) + w * c
    return {m: c for m, c in acc.items() if abs(c) > TOL}


def ref_trajectory(initial, spec, k):
    n, d = spec.structure.n, spec.d
    masks = [r.bits for r in spec.structure.regions]
    pol = spec.policy
    out, terms, branches = [1.0], {initial.bits: 1.0}, None
    for j in range(k):
        if isinstance(pol, Markov):
            # one branch per region about to act; the first step acts on the initial swap
            branches = [ref_local(terms if branches is None else
                                  ref_mix(zip(row, branches)), lm, n, d)
                        for row, lm in zip(pol.matrix, masks)]
            out.append(math.fsum(q * math.fsum(b.values()) for q, b in zip(pol.initial, branches)))
        elif isinstance(pol, CorrelatedSweep):
            for idx in pol.order:
                terms = ref_local(terms, masks[idx], n, d)
            out.append(math.fsum(terms.values()))
        else:
            terms = ref_mix((q, ref_local(terms, lm, n, d))
                            for q, lm in zip(spec.step_weights(j), masks))
            out.append(math.fsum(terms.values()))
    return out


def ref_boundary_range(initial, structure, depth):
    """The set-based breadth-first search, restarted for each depth."""
    full = (1 << structure.n) - 1
    seen = frontier = {initial.bits}
    for _ in range(depth):
        frontier = {moved for mask in frontier for lm in (r.bits for r in structure.regions)
                    if mask & lm and lm & ~mask & full
                    for moved in (mask & ~lm, mask | lm)} - seen
        seen = seen | frontier
    probs = [boundary_probability(Region(mask, structure.n), structure) for mask in seen]
    return max(probs), min(probs)


def ref_column(initial, structure, k_max):
    """The former per-region breadth-first search, one mask filter per region and depth; it also
    moved by regions of weight 0, so it is the reference for positive weights only."""
    moves = [(np.uint64(r.bits), q) for r, q in zip(structure.regions, structure.weight_vector())]
    seen = frontier = np.array([initial.bits], dtype=np.uint64)
    p_max, p_min, out = -math.inf, math.inf, []
    for depth in range(k_max + 1):
        probs, reached = np.zeros(frontier.size), []
        for mask, q in moves:
            common = frontier & mask
            moved = np.flatnonzero((common != 0) & (common != mask))
            probs[moved] += q
            reached += [frontier[moved] & ~mask, frontier[moved] | mask]
        p_max, p_min = float(probs.max(initial=p_max)), float(probs.min(initial=p_min))
        out.append((p_max, p_min))
        if depth < k_max:
            frontier = np.setdiff1d(np.concatenate(reached), seen)
            seen = np.union1d(seen, frontier)
    return out


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def normalized(raw):
    total = math.fsum(raw)
    return tuple(x / total for x in raw)


@st.composite
def structures(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(masks), max_size=len(masks)))
    return LocalStructure(n, tuple(Region(m, n) for m in masks), normalized(raw))


@st.composite
def ensembles(draw, kind, max_n=8):
    structure = draw(structures(max_n))
    m = len(structure.regions)
    if kind == "uncorrelated":
        policy = Uncorrelated()
    elif kind == "sweep":
        policy = CorrelatedSweep(tuple(draw(st.permutations(range(m)))))
    else:
        entries = st.sampled_from([0.0, 0.25, 1.0, 2.0])
        rows = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(m)]
        rows = [row if any(row) else [1.0] * m for row in rows]
        initial = draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
        policy = Markov(normalized(initial), tuple(normalized(row) for row in rows))
    return EnsembleSpec(structure, policy, draw(st.sampled_from([2, 3])))


@st.composite
def vectors(draw, n):
    terms = draw(st.dictionaries(st.integers(0, (1 << n) - 1), st.floats(1e-3, 1.0),
                                 max_size=20))
    return SwapVector(n, {Region(m, n): c for m, c in terms.items()})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_local_matches_per_term_rule(data):
    n = data.draw(st.integers(2, 8))
    d = data.draw(st.sampled_from([2, 3]))
    local = Region(data.draw(st.integers(1, (1 << n) - 1)), n)
    v = data.draw(vectors(n))
    got = apply_local(v, local, d).terms
    want = ref_local({r.bits: c for r, c in v.terms.items()}, local.bits, n, d)
    assert {r.bits for r in got} == set(want)
    assert all(close(c, want[r.bits]) for r, c in got.items())


@pytest.mark.parametrize("kind", ["uncorrelated", "sweep", "markov"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_trajectories_match_per_term_policies(kind, data):
    spec = data.draw(ensembles(kind))
    initial = Region(data.draw(st.integers(0, (1 << spec.structure.n) - 1)), spec.structure.n)
    k = data.draw(st.integers(0, 5))
    got = purity_trajectory(initial, spec, k)
    want = ref_trajectory(initial, spec, k)
    assert len(got) == len(want) == k + 1
    assert all(close(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("kind", ["uncorrelated", "sweep"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_step_matrix_columns_are_kernel_images(kind, data):
    spec = data.draw(ensembles(kind))
    n = spec.structure.n
    mat = build_swap_matrix(spec)
    for a in range(1 << n):
        column = np.zeros(1 << n)
        for r, c in apply_step(SwapVector.single(Region(a, n), prune_tol=0.0), spec).terms.items():
            column[r.bits] = c
        np.testing.assert_allclose(mat[:, a], column, rtol=1e-12, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(structures(), st.data())
def test_one_pass_area_law_column_matches_per_depth_search(structure, data):
    n = structure.n
    initial = Region(data.draw(st.integers(0, (1 << n) - 1)), n)
    k_max = data.draw(st.integers(0, 6))
    column = reachable_boundary_column(initial, structure, k_max)
    assert column == [reachable_boundary_column(initial, structure, k)[k]
                      for k in range(k_max + 1)]
    for k, (p_max, p_min) in enumerate(column):
        want_max, want_min = ref_boundary_range(initial, structure, k)
        assert abs(p_max - want_max) <= 1e-12 and abs(p_min - want_min) <= 1e-12


# (merge bytes, dense ratio): one region per group, sorted merge; a few regions per group,
# sorted; a dense accumulator wherever one fits at n <= 8; the defaults
budgets = st.sampled_from([(1, 0), (swapcore._MASK_BYTES * 30, 0), (1 << 13, 1 << 20),
                           (swapcore._MERGE_BYTES, swapcore._DENSE_RATIO)])


@settings(max_examples=150, deadline=None)
@given(structures(), budgets, st.data())
def test_area_law_column_is_the_per_region_search_bit_for_bit(structure, budget, data):
    n = structure.n
    initial = Region(data.draw(st.integers(0, (1 << n) - 1)), n)
    k_max = data.draw(st.integers(0, 6))
    merge_bytes, ratio = budget
    with mock.patch.multiple(swapcore, _MERGE_BYTES=merge_bytes, _DENSE_RATIO=ratio):
        assert reachable_boundary_column(initial, structure, k_max) == ref_column(
            initial, structure, k_max)


@pytest.mark.parametrize("sites", [[], [0, 1, 2, 3], [0]])
def test_area_law_column_after_the_frontier_empties(sites):
    # a full or empty region has no boundary; {0} under the one edge {0,1} reaches {} and
    # {0,1} in one move, and then nothing more
    n = 4
    structure = LocalStructure(n, (Region.of([0, 1], n),))
    initial = Region.of(sites, n)
    column = reachable_boundary_column(initial, structure, 5)
    assert column == ref_column(initial, structure, 5)
    assert column == ([(1.0, 1.0)] + [(1.0, 0.0)] * 5 if sites == [0] else [(0.0, 0.0)] * 6)


@pytest.mark.parametrize("budget", [(1, 0), (swapcore._MERGE_BYTES, swapcore._DENSE_RATIO)])
def test_area_law_column_on_64_site_masks(budget):
    n = 64
    structure = path_structure(n)
    merge_bytes, ratio = budget
    for initial in (Region.of(range(0, n, 2), n), Region.of([n - 1], n), Region.of([0, 63], n)):
        with mock.patch.multiple(swapcore, _MERGE_BYTES=merge_bytes, _DENSE_RATIO=ratio):
            assert reachable_boundary_column(initial, structure, 3) == ref_column(
                initial, structure, 3)


def test_area_law_n17_column_and_cap_with_one_region_per_group():
    n = 17
    structure = path_structure(n)
    initial = Region.of(range(0, n, 2), n)
    with mock.patch.multiple(swapcore, _MERGE_BYTES=1, _DENSE_RATIO=0):
        assert reachable_boundary_column(initial, structure, 6) == ref_column(
            initial, structure, 6)
        with pytest.raises(CapExceeded, match="65536"):
            reachable_boundary_column(initial, structure, 40)


def test_area_law_enumeration_cap_still_raises():
    n = 17
    structure = path_structure(n)
    initial = Region.of(range(0, n, 2), n)
    with pytest.raises(CapExceeded, match="65536"):
        reachable_boundary_column(initial, structure, 40)
