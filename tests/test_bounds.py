import math
from fractions import Fraction

import numpy as np
import pytest

from lrqc import (BoundReport, CapExceeded, CorrelatedSweep, EnsembleSpec, LocalStructure,
                  PathParams, Region, Uncorrelated, area_law_bound,
                  boundary_probability, build_swap_matrix,
                  correlated_convergence_bound, entangling_power,
                  first_moment_convergence_bound, first_moment_mixture_matrix,
                  path_structure, purity_exact, purity_infinity,
                  purity_trajectory, r1_candidate_spectrum, spectral_gap_swap,
                  swap_constant, t_design_delta)
from lrqc.swapcore import reachable_boundary_column


class TestConstants:
    def test_entangling_power_values(self):
        assert entangling_power(2) == pytest.approx(0.2, abs=1e-15)
        assert entangling_power(3) == pytest.approx(0.4, abs=1e-15)
        assert abs(entangling_power(1000) - 1.0) <= 1e-2

    def test_swap_constant_values(self):
        assert swap_constant(2) == pytest.approx(0.4, abs=1e-15)
        assert swap_constant(3) == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("d", range(2, 21))
    def test_identity_exact_rationals(self, d):
        n_d = Fraction(d, d * d + 1)
        e_p = Fraction((d - 1) ** 2, d * d + 1)
        assert 1 - 2 * n_d == e_p

    @pytest.mark.parametrize("d", range(2, 11))
    def test_identity_in_floats(self, d):
        assert abs(1 - 2 * swap_constant(d) - entangling_power(d)) <= 1e-15

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            entangling_power(1)
        with pytest.raises(ValueError):
            swap_constant(0)


class TestBoundaryProbability:
    def test_full_universe_has_empty_boundary(self):
        st = path_structure(5)
        assert boundary_probability(Region.full(5), st) == 0.0

    def test_path_prefix(self):
        st = path_structure(5)
        assert boundary_probability(Region.of([0, 1], 5), st) == pytest.approx(0.25, abs=1e-15)

    def test_empty_region(self):
        st = path_structure(5)
        assert boundary_probability(Region.empty(5), st) == 0.0

    def test_respects_weights(self):
        st = LocalStructure(3, (Region.of([0, 1], 3), Region.of([1, 2], 3)), (0.8, 0.2))
        assert boundary_probability(Region.of([0], 3), st) == pytest.approx(0.8, abs=1e-15)


class TestReachableRange:
    def test_depth_zero_and_one(self):
        st = path_structure(5)
        initial = Region.of([0, 1], 5)
        assert reachable_boundary_column(initial, st, 1) == [(0.25, 0.25), (0.25, 0.25)]

    def test_zero_weight_regions_are_no_moves(self):
        # only the last edge is ever drawn, so the swap of {0} stays put and P_k = 1
        st = LocalStructure(5, path_structure(5).regions, (0.0, 0.0, 0.0, 1.0))
        initial = Region.of([0], 5)
        column = reachable_boundary_column(initial, st, 4)
        assert column == [(0.0, 0.0)] * 5
        assert [area_law_bound(p_x, p_xt, 2, k).value
                for k, (p_x, p_xt) in enumerate(column)] == [1.0] * 5
        assert purity_trajectory(initial, EnsembleSpec(st, Uncorrelated(), 2), 4) == [1.0] * 5

    def test_absorbing_states_reached(self):
        st = path_structure(5)
        p_max, p_min = reachable_boundary_column(Region.of([0, 1], 5), st, 2)[2]
        assert p_max == 0.25 and p_min == 0.0

    def test_depth_over_the_byte_budget_refuses(self, monkeypatch):
        # {0, 2, 4} straddles all 5 edges; its frontiers hold 1, 6, 15 and 20 regions, and a
        # depth that keeps its images counts 4 copies of 2 masks of 8 bytes per region and swap
        st = path_structure(6)
        initial = Region.of([0, 2, 4], 6)
        column = reachable_boundary_column(initial, st, 3)
        monkeypatch.setattr("lrqc.swapcore._ENUMERATION_BYTES", 64 * 5 * 1)
        # depth 0 fits the budget exactly, and the last depth keeps no images
        assert reachable_boundary_column(initial, st, 1) == column[:2]
        with pytest.raises(CapExceeded, match="at depth 1 needs 1920 bytes, over its budget "
                                              "of 320 bytes"):
            reachable_boundary_column(initial, st, 3)


class TestAreaLawBound:
    def test_zero_steps(self):
        assert area_law_bound(0.3, 0.2, 2, 0).value == 1.0

    def test_one_step_matches_exact_purity(self):
        report = area_law_bound(0.25, 0.25, 2, 1)
        assert report.kind == "upper-bound"
        spec = EnsembleSpec(path_structure(5), Uncorrelated(), 2)
        p1 = purity_trajectory(Region.of([0, 1], 5), spec, 1)[1]
        assert report.value == pytest.approx(p1, abs=1e-12)
        assert report.value == pytest.approx(0.95, abs=1e-15)

    def test_tight_in_chain_interior(self):
        L, d, l = 10, 2, 5
        p_edge = 1.0 / (L - 1)
        params = PathParams(L, d, l)
        for k in range(0, 6):
            bound = area_law_bound(p_edge, p_edge, d, k).value
            assert bound == pytest.approx(purity_exact(params, k), abs=1e-12)

    def test_dominates_exact_trajectory(self):
        L, d, l = 12, 2, 6
        st = path_structure(L)
        initial = Region.of(range(l), L)
        spec = EnsembleSpec(st, Uncorrelated(), d)
        traj = purity_trajectory(initial, spec, 10)
        for k, p_k in enumerate(traj):
            p_x, p_xt = reachable_boundary_column(initial, st, k)[k]
            assert area_law_bound(p_x, p_xt, d, k).value >= p_k - 1e-12

    def test_exponential_form_is_weaker(self):
        report = area_law_bound(0.3, 0.25, 2, 7)
        assert report.inputs["exp_bound"] >= report.value - 1e-15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            area_law_bound(0.2, 0.3, 2, 1)
        with pytest.raises(ValueError):
            area_law_bound(1.2, 0.3, 2, 1)
        with pytest.raises(ValueError):
            area_law_bound(0.3, 0.2, 2, -1)


class TestFirstMomentBound:
    def test_nonpositive_numerator(self):
        report = first_moment_convergence_bound(1.0, 1.0, 4.0, 0.5, 1)
        assert report.value == 0.0
        assert report.kind == "upper-bound"

    def test_region_count_linearity(self):
        base = first_moment_convergence_bound(1.0, 1.0, 1e-3, 0.25, 4).value
        more = first_moment_convergence_bound(1.0, 1.0, 1e-3, 0.25, 8).value
        want = 4 * math.log(2) / math.log(1 / 0.75)
        assert more - base == pytest.approx(want, rel=1e-12)

    def test_certain_region_edge_case(self):
        assert first_moment_convergence_bound(1.0, 1.0, 10.0, 1.0, 1).value == 0.0
        assert first_moment_convergence_bound(1.0, 1.0, 1e-6, 1.0, 1).value == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            first_moment_convergence_bound(1.0, 1.0, 1e-3, 0.0, 2)
        with pytest.raises(ValueError):
            first_moment_convergence_bound(1.0, -1.0, 1e-3, 0.5, 2)


class TestCandidateSpectrum:
    def test_single_region(self):
        st = LocalStructure(2, (Region.of([0, 1], 2),))
        assert list(r1_candidate_spectrum(st)) == [0.0, 1.0]

    def test_two_even_regions(self):
        st = path_structure(3)
        assert np.allclose(r1_candidate_spectrum(st), [0.0, 0.5, 0.5, 1.0], atol=1e-15)

    def test_contains_one_and_unit_range(self):
        st = LocalStructure(4, tuple(Region.of([i, i + 1], 4) for i in range(3)),
                            (0.5, 0.3, 0.2))
        sums = r1_candidate_spectrum(st)
        assert sums[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(sums >= 0.0) and np.all(sums <= 1.0 + 1e-12)

    def test_dense_mixture_eigenvalues_are_candidates(self):
        st = path_structure(3)
        eigs = np.linalg.eigvals(first_moment_mixture_matrix(st, 2))
        assert np.max(np.abs(eigs.imag)) <= 1e-9
        candidates = r1_candidate_spectrum(st)
        for ev in eigs.real:
            assert np.min(np.abs(candidates - ev)) <= 1e-9

    def test_region_count_cap(self):
        st = LocalStructure(22, tuple(Region.of([i, i + 1], 22) for i in range(21)))
        with pytest.raises(ValueError):
            r1_candidate_spectrum(st)


class TestCorrelatedBound:
    def test_unit_gap_edges(self):
        assert correlated_convergence_bound(1.0, 4, 10.0).value == 0.0
        assert correlated_convergence_bound(1.0, 4, 1e-3).value == 1.0

    def test_size_linearity(self):
        gap, eps = 0.4, 1e-4
        small = correlated_convergence_bound(gap, 6, eps).value
        large = correlated_convergence_bound(gap, 12, eps).value
        want = 6 * math.log(math.sqrt(2)) / math.log(1 / (1 - gap))
        assert large - small == pytest.approx(want, rel=1e-12)

    def test_trajectory_converges_within_bound(self):
        n, d = 6, 2
        st = path_structure(n)
        spec = EnsembleSpec(st, CorrelatedSweep(tuple(range(n - 1))), d)
        gap = spectral_gap_swap(spec)
        initial = Region.of([0, 1, 2], n)
        p_inf = purity_infinity(initial, st, d)
        eps = 1e-6
        k_star = math.ceil(correlated_convergence_bound(gap, n, eps).value)
        traj = purity_trajectory(initial, spec, k_star)
        assert abs(traj[k_star] - p_inf) <= eps
        # measured decay is at least the gap rate (within 20 percent); the sweep
        # matrix is non-normal, so decay strictly faster than the singular-value
        # gap is expected
        resid = np.array([abs(p - p_inf) for p in traj])
        ks = np.nonzero(resid > 1e-12)[0][2:]
        slope = np.polyfit(ks, np.log(resid[ks]), 1)[0]
        assert -slope >= 0.8 * math.log(1 / (1 - gap))

    def test_validation(self):
        with pytest.raises(ValueError):
            correlated_convergence_bound(0.0, 4, 1e-3)
        with pytest.raises(ValueError):
            correlated_convergence_bound(0.5, 4, -1.0)


class TestDesignDelta:
    def test_sqrt_t_scaling(self):
        d1 = t_design_delta(3, 1.0, 1, 2).value
        d4 = t_design_delta(3, 1.0, 4, 2).value
        assert d4 == pytest.approx(2 * d1, rel=1e-12)

    def test_decays_with_region_size(self):
        vals = [t_design_delta(w, 1.0, 2, 2).value for w in (2, 4, 8, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= math.sqrt(2) * 3 * 2 ** (-0.5 * 12) * 2

    def test_supplied_epsilon(self):
        report = t_design_delta(2, 1.0, 1, 2, epsilon=0.0)
        base = 2**2 * 2.0**-4
        assert report.value == pytest.approx(2 * math.sqrt(base), rel=1e-12)
        assert report.inputs["epsilon"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            t_design_delta(0, 1.0, 1, 2)
        with pytest.raises(ValueError):
            t_design_delta(2, 0.0, 1, 2)


class TestBoundReport:
    def test_fields(self):
        report = BoundReport(0.5, "upper-bound", {"x": 1})
        assert report.value == 0.5 and report.kind == "upper-bound"
