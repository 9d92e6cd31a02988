import itertools
import math

import numpy as np
import pytest

from lrqc import (EnsembleSpec, PathParams, Region, Uncorrelated,
                  analytic_steps_bound, eigenvector, entangling_power,
                  path_structure, purity_by_matrix_power, purity_exact,
                  purity_infinity_1d, purity_trajectory, reduced_matrix,
                  short_time_form, short_time_purity, spectral_gap_1d, spectrum,
                  steps_to_converge)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathParams(1, 2, 0)
        with pytest.raises(ValueError):
            PathParams(4, 1, 1)
        with pytest.raises(ValueError):
            PathParams(4, 2, 5)


class TestReducedMatrix:
    def test_three_site_column(self):
        mat = reduced_matrix(PathParams(3, 2, 1))
        assert np.allclose(mat[:, 1], [0.2, 0.5, 0.2, 0.0], atol=1e-15)
        assert mat[0, 0] == 1.0 and mat[3, 3] == 1.0

    def test_interior_column_sums(self):
        params = PathParams(7, 3, 2)
        mat = reduced_matrix(params)
        a, b = params.diagonal, params.offdiagonal
        for i in range(1, 7):
            assert mat[:, i].sum() == pytest.approx(a + 2 * b, abs=1e-14)
            assert a + 2 * b < 1


class TestSpectrum:
    def test_three_site_values(self):
        data = spectrum(PathParams(3, 2, 1))
        assert np.allclose(data.eigenvalues, [1.0, 0.7, 0.3, 1.0], atol=1e-12)
        assert data.gap == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("L", range(2, 17))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_numerical_diagonalization(self, L, d):
        params = PathParams(L, d, 0)
        closed = np.sort(spectrum(params).eigenvalues)
        numerical = np.sort(np.linalg.eigvals(reduced_matrix(params)).real)
        assert np.max(np.abs(closed - numerical)) <= 1e-10

    def test_interior_values_in_unit_interval(self):
        for L in (2, 5, 9):
            for d in (2, 3):
                vals = spectrum(PathParams(L, d, 0)).eigenvalues[1:-1]
                assert all(0.0 <= v < 1.0 for v in vals)

    def test_gap_lower_bound(self):
        for L in range(2, 17):
            for d in (2, 3, 4, 5):
                assert spectral_gap_1d(PathParams(L, d, 0)) >= entangling_power(d) / L


class TestGap:
    def test_substitution(self):
        assert spectral_gap_1d(PathParams(3, 2, 1)) == pytest.approx(0.3, abs=1e-15)

    def test_large_L_limit(self):
        d = 2
        val = spectral_gap_1d(PathParams(400, d, 1)) * 400
        assert val == pytest.approx(entangling_power(d), abs=2e-2)

    def test_equals_one_minus_second_eigenvalue(self):
        for L, d in ((5, 2), (9, 3)):
            data = spectrum(PathParams(L, d, 0))
            second = max(data.eigenvalues[1:-1])
            assert spectral_gap_1d(PathParams(L, d, 0)) == pytest.approx(1 - second, abs=1e-12)


class TestPurityExact:
    def test_starts_at_one(self):
        for L in (2, 5, 8):
            for l in range(1, L):
                assert purity_exact(PathParams(L, 2, l), 0) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_cuts_exactly_one(self):
        for k in (0, 3, 50):
            assert purity_exact(PathParams(6, 2, 0), k) == 1.0
            assert purity_exact(PathParams(6, 2, 6), k) == 1.0

    def test_long_time_limit(self):
        params = PathParams(6, 2, 3)
        assert purity_exact(params, 4000) == pytest.approx(16 / 65, abs=1e-12)
        assert purity_infinity_1d(params) == pytest.approx(16 / 65, abs=1e-15)

    def test_long_time_limit_is_the_float_ratio_while_d_to_the_l_is_exact(self):
        for d in (2, 3, 4, 5, 6, 7, 10):
            for L in itertools.takewhile(lambda L: d**L < 2**53, itertools.count(2)):
                for l in range(L + 1):
                    want = (float(d) ** (L - l) + float(d) ** l) / (float(d) ** L + 1.0)
                    assert purity_infinity_1d(PathParams(L, d, l)) == want

    def test_long_time_limit_past_the_float_range(self):
        # d^L = 1e320 is past the largest float; the ratio is 2e-160
        assert purity_infinity_1d(PathParams(40, 10**8, 20)) == 2e-160

    def test_matches_matrix_power(self):
        params = PathParams(8, 2, 4)
        assert purity_exact(params, 5) == pytest.approx(purity_by_matrix_power(params, 5),
                                                        abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matrix_power_consistency_sampled(self, d):
        for L in (2, 5, 9, 12):
            mat = reduced_matrix(PathParams(L, d, 0))
            for l in range(1, L):
                vec = np.zeros(L + 1)
                vec[l] = 1.0
                for k in range(81):
                    assert abs(purity_exact(PathParams(L, d, l), k) - vec.sum()) <= 1e-10
                    vec = mat @ vec


class TestShortTime:
    def test_zero_steps(self):
        assert short_time_purity(PathParams(9, 2, 4), 0) == 1.0

    def test_substitution(self):
        got = short_time_purity(PathParams(10, 2, 5), 3)
        assert got == pytest.approx((1 - 0.2 / 9) ** 3, abs=1e-15)

    def test_equals_exact_in_window(self):
        params = PathParams(10, 2, 5)
        for k in range(1, 6):
            assert short_time_purity(params, k) == pytest.approx(purity_exact(params, k),
                                                                 abs=1e-12)

    def test_diverges_just_past_window(self):
        params = PathParams(8, 2, 3)
        window = 3
        inside = abs((1 - entangling_power(2) / 7) ** window - purity_exact(params, window))
        outside = abs((1 - entangling_power(2) / 7) ** (window + 1)
                      - purity_exact(params, window + 1))
        assert inside <= 1e-12
        assert outside > 1e-9

    def test_window_precondition(self):
        with pytest.raises(ValueError):
            short_time_purity(PathParams(8, 2, 3), 4)

    def test_form_is_the_purity_inside_the_window_and_goes_on_past_it(self):
        params = PathParams(8, 2, 5)
        assert params.short_time_window == 3
        assert [short_time_form(params, k) for k in range(4)] == [
            short_time_purity(params, k) for k in range(4)]
        assert short_time_form(params, 6) == (1 - entangling_power(2) / 7) ** 6
        with pytest.raises(ValueError):
            short_time_form(params, -1)


class TestEigenvector:
    def test_boundary_modes(self):
        vec = eigenvector(PathParams(5, 2, 0), 0)
        assert vec[0] == 1.0 and np.count_nonzero(vec) == 1
        vec = eigenvector(PathParams(5, 2, 0), 5)
        assert vec[5] == 1.0 and np.count_nonzero(vec) == 1

    def test_residuals(self):
        params = PathParams(7, 2, 0)
        mat = reduced_matrix(params)
        eigs = spectrum(params).eigenvalues
        for h in range(8):
            vec = eigenvector(params, h)
            assert np.linalg.norm(mat @ vec - eigs[h] * vec) <= 1e-10

    def test_normalized(self):
        params = PathParams(6, 3, 0)
        for h in range(1, 6):
            assert np.linalg.norm(eigenvector(params, h)) == pytest.approx(1.0, abs=1e-12)

    def test_mode_range(self):
        with pytest.raises(ValueError):
            eigenvector(PathParams(5, 2, 0), 6)


class TestConvergenceSteps:
    def test_loose_epsilon(self):
        assert steps_to_converge(PathParams(8, 2, 4), 1.0) == 0

    def test_smallest_k_property(self):
        params = PathParams(8, 2, 4)
        p_inf = purity_infinity_1d(params)
        for eps in (1e-2, 1e-5):
            k = steps_to_converge(params, eps)
            assert abs(purity_exact(params, k) - p_inf) <= eps
            if k > 0:
                assert abs(purity_exact(params, k - 1) - p_inf) > eps

    def test_grows_logarithmically_in_accuracy(self):
        params = PathParams(8, 2, 4)
        ks = [steps_to_converge(params, 10.0**-e) for e in range(2, 9)]
        assert all(b > a for a, b in zip(ks, ks[1:]))
        increments = np.diff(ks)
        # one decade of accuracy costs about log(10)/gap extra steps
        expected = math.log(10) / spectral_gap_1d(params)
        assert np.max(np.abs(increments - expected)) <= 0.2 * expected

    def test_grows_linearly_in_size(self):
        eps = 1e-6
        ks = {L: steps_to_converge(PathParams(L, 2, L // 2), eps) for L in (4, 8, 16)}
        assert ks[4] < ks[8] < ks[16]
        assert 1.5 <= ks[16] / ks[8] <= 3.0

    def test_analytic_form(self):
        params = PathParams(8, 2, 4)
        val = analytic_steps_bound(params, 1e-4, 2.0)
        want = 8 / 0.2 * (math.log(2.0 / 1e-4) + math.log(4))
        assert val == pytest.approx(want, rel=1e-12)

    def test_interior_cut_required(self):
        with pytest.raises(ValueError):
            steps_to_converge(PathParams(8, 2, 0), 1e-3)


class TestEmbedding:
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_matches_swap_level_trajectory(self, L):
        spec = EnsembleSpec(path_structure(L), Uncorrelated(), 2)
        for l in range(L + 1):
            params = PathParams(L, 2, l)
            initial = Region.of(range(l), L)
            swap_traj = purity_trajectory(initial, spec, 12)
            for k, p in enumerate(swap_traj):
                assert abs(p - purity_exact(params, k)) <= 1e-12
