import itertools
import math

import numpy as np
import pytest

from lrqc import (CapExceeded, CorrelatedSweep, EnsembleSpec, LocalStructure,
                  Markov, Region, SwapVector, Uncorrelated, alpha_coefficients,
                  apply_local, apply_step, build_swap_matrix,
                  complement_involution, complete_structure, connected_components,
                  contract_factorized, fixed_space_dimension, markov_purity,
                  path_structure, purity_infinity, purity_trajectory,
                  spectral_gap_swap, swapcore)


def single(sites, n):
    return SwapVector.single(Region.of(sites, n))


def terms_close(v, expected, tol=1e-12):
    keys = set(v.terms) | set(expected)
    return all(abs(v.terms.get(r, 0.0) - expected.get(r, 0.0)) <= tol for r in keys)


class TestAlphaCoefficients:
    def test_edge_case_d2(self):
        # A = B = 1 forces both branches to d/(d^2+1)
        ap, am = alpha_coefficients(Region.of([1], 3), Region.of([1, 2], 3), 2)
        assert ap == pytest.approx(0.4, abs=1e-15)
        assert am == pytest.approx(0.4, abs=1e-15)

    def test_asymmetric_case(self):
        # target {0,1,2}, local {1,2,3}: A=1, B=2
        ap, am = alpha_coefficients(Region.of([0, 1, 2], 4), Region.of([1, 2, 3], 4), 2)
        assert ap == pytest.approx(4 / 21, abs=1e-15)
        assert am == pytest.approx(10 / 21, abs=1e-15)

    def test_edge_case_d3(self):
        ap, am = alpha_coefficients(Region.of([0], 2), Region.of([0, 1], 2), 3)
        assert ap == pytest.approx(0.3, abs=1e-15)
        assert am == pytest.approx(0.3, abs=1e-15)

    def test_requires_boundary(self):
        with pytest.raises(ValueError):
            alpha_coefficients(Region.of([0, 1], 4), Region.of([0, 1], 4), 2)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_positive_and_contracting(self, d):
        for a in range(1, 6):
            for b in range(1, 6):
                n = a + b + 1
                target = Region.of(range(b), n)
                local = Region.of(range(a + b), n)
                ap, am = alpha_coefficients(target, local, d)
                assert 0 < ap < 1 and 0 < am < 1
                cp = (d**a + d**b) / (d ** (a + b) + 1)
                assert ap + am == pytest.approx(cp, abs=1e-14)
                assert ap + am < 1


class TestApplyLocal:
    def test_identity_swap_fixed(self):
        v = SwapVector.single(Region.empty(3))
        out = apply_local(v, Region.of([0, 1], 3), 2)
        assert terms_close(out, {Region.empty(3): 1.0})

    def test_full_swap_fixed(self):
        v = SwapVector.single(Region.full(3))
        out = apply_local(v, Region.of([1, 2], 3), 2)
        assert terms_close(out, {Region.full(3): 1.0})

    def test_boundary_split(self):
        out = apply_local(single([1], 3), Region.of([1, 2], 3), 2)
        assert terms_close(out, {Region.empty(3): 0.4, Region.of([1, 2], 3): 0.4})

    def test_idempotence_single(self):
        local = Region.of([1, 2], 3)
        once = apply_local(single([1], 3), local, 2)
        twice = apply_local(once, local, 2)
        assert terms_close(twice, dict(once.terms), tol=1e-12)

    def test_idempotence_random_vectors(self):
        rng = np.random.default_rng(3)
        n, d = 6, 2
        structure = path_structure(n)
        for _ in range(50):
            terms = {Region(int(m), n): float(rng.uniform(0.1, 1.0))
                     for m in rng.integers(0, 1 << n, size=5)}
            v = SwapVector(n, terms)
            local = structure.regions[rng.integers(0, n - 1)]
            once = apply_local(v, local, d)
            twice = apply_local(once, local, d)
            assert terms_close(twice, dict(once.terms), tol=1e-12)

    def test_rejects_empty_local(self):
        with pytest.raises(ValueError):
            apply_local(single([0], 3), Region.empty(3), 2)


class TestSwapVectorInvariants:
    def test_rejects_coefficients_below_prune_tol(self):
        with pytest.raises(ValueError):
            SwapVector(3, {Region.of([0], 3): 1e-16})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SwapVector(3, {Region.of([0], 3): math.inf})

    def test_positivity_under_evolution(self):
        spec = EnsembleSpec(path_structure(6), Uncorrelated(), 2)
        v = single([2, 3], 6)
        for j in range(30):
            v = apply_step(v, spec, j)
        assert all(c > 0 for c in v.terms.values())

    def test_contraction_bound(self):
        n = 5
        v = single([1, 2], n)
        # non-straddling map leaves the contraction at exactly 1
        inside = apply_local(v, Region.of([1, 2], n), 2)
        assert contract_factorized(inside) == 1.0
        outside = apply_local(v, Region.of([3, 4], n), 2)
        assert contract_factorized(outside) == 1.0
        crossed = apply_local(v, Region.of([2, 3], n), 2)
        assert 0.0 < contract_factorized(crossed) < 1.0


class TestApplyStep:
    def test_identity_fixed(self):
        spec = EnsembleSpec(path_structure(4), Uncorrelated(), 2)
        out = apply_step(SwapVector.single(Region.empty(4)), spec, 0)
        assert terms_close(out, {Region.empty(4): 1.0})

    def test_single_region_mixture(self):
        st = LocalStructure(2, (Region.of([0, 1], 2),))
        spec = EnsembleSpec(st, Uncorrelated(), 2)
        out = apply_step(single([0], 2), spec, 0)
        assert terms_close(out, {Region.empty(2): 0.4, Region.full(2): 0.4})

    def test_path_one_step_contract(self):
        spec = EnsembleSpec(path_structure(5), Uncorrelated(), 2)
        out = apply_step(single([0, 1], 5), spec, 0)
        # boundary weight 1/4, entangling power 0.2
        assert contract_factorized(out) == pytest.approx(0.95, abs=1e-12)

    def test_per_step_weights_and_range_error(self):
        st = path_structure(3)
        spec = EnsembleSpec(st, Uncorrelated(step_weights=((1.0, 0.0), (0.0, 1.0))), 2)
        v = single([0], 3)
        first = apply_step(v, spec, 0)
        assert terms_close(first, dict(apply_local(v, st.regions[0], 2).terms))
        with pytest.raises(ValueError):
            apply_step(v, spec, 2)

    @pytest.mark.parametrize("policy", [
        Uncorrelated(),
        Uncorrelated(step_weights=((1.0, 0.0, 0.0), (0.2, 0.3, 0.5), (0.0, 0.5, 0.5),
                                   (0.0, 0.0, 1.0), (0.6, 0.0, 0.4))),
        CorrelatedSweep((2, 0, 1)),
    ], ids=["uncorrelated", "step-weights", "sweep"])
    def test_iterated_steps_match_trajectory(self, policy):
        spec = EnsembleSpec(path_structure(4), policy, 3)
        initial = Region.of([0, 2], 4)
        got = [1.0]
        for k in range(1, 6):  # a k-step circuit acts on the swap as steps k - 1, ..., 0
            v = SwapVector.single(initial)
            for j in reversed(range(k)):
                v = apply_step(v, spec, j)
            got.append(contract_factorized(v))
        want = purity_trajectory(initial, spec, 5)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


class TestApplySweep:
    def test_identity_fixed(self):
        spec = EnsembleSpec(path_structure(3), CorrelatedSweep((0, 1)), 2)
        out = apply_step(SwapVector.single(Region.empty(3)), spec)
        assert terms_close(out, {Region.empty(3): 1.0})

    def test_single_region_sweep_is_apply_local(self):
        st = LocalStructure(2, (Region.of([0, 1], 2),))
        spec = EnsembleSpec(st, CorrelatedSweep((0,)), 2)
        out = apply_step(single([0], 2), spec)
        assert terms_close(out, dict(apply_local(single([0], 2), st.regions[0], 2).terms))

    def test_composition_order(self):
        st = path_structure(3)
        spec = EnsembleSpec(st, CorrelatedSweep((0, 1)), 2)
        got = apply_step(single([0], 3), spec)
        want = apply_local(apply_local(single([0], 3), st.regions[0], 2), st.regions[1], 2)
        assert terms_close(got, dict(want.terms))

    def test_wrong_policy_rejected(self):
        # a Markov ensemble has no single step, whichever step is asked for
        spec = EnsembleSpec(path_structure(3), Markov((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5))), 2)
        for j in (0, 1):
            with pytest.raises(ValueError, match="Markov ensemble is not"):
                apply_step(single([0], 3), spec, j)


class TestMarkov:
    def test_identity_matrix_constant(self):
        st = path_structure(3)
        spec = EnsembleSpec(st, Markov((0.3, 0.7), ((1.0, 0.0), (0.0, 1.0))), 2)
        ps = markov_purity(Region.of([0], 3), spec, 5)
        assert ps[0] == 1.0
        assert all(p == pytest.approx(ps[1], abs=1e-14) for p in ps[1:])

    def test_identical_rows_equal_uncorrelated(self):
        st = path_structure(4)
        q = (0.2, 0.5, 0.3)
        spec_m = EnsembleSpec(st, Markov(q, (q, q, q)), 2)
        spec_u = EnsembleSpec(LocalStructure(4, st.regions, q), Uncorrelated(), 2)
        init = Region.of([0, 1], 4)
        mk = markov_purity(init, spec_m, 6)
        un = purity_trajectory(init, spec_u, 6)
        assert max(abs(a - b) for a, b in zip(mk, un)) <= 1e-12

    def test_brute_force_path_enumeration(self):
        st = path_structure(3)
        q1 = (0.7, 0.3)
        mat = ((0.9, 0.1), (0.4, 0.6))
        spec = EnsembleSpec(st, Markov(q1, mat), 2)
        init = Region.of([0], 3)
        dp = markov_purity(init, spec, 3)
        for k in range(1, 4):
            total = 0.0
            for path in itertools.product(range(2), repeat=k):
                prob = q1[path[0]]
                for a, b in zip(path, path[1:]):
                    prob *= mat[a][b]
                v = SwapVector.single(init)
                for idx in reversed(path):
                    v = apply_local(v, st.regions[idx], 2)
                total += prob * contract_factorized(v)
            assert dp[k] == pytest.approx(total, abs=1e-13)

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec(path_structure(3), Markov((0.5, 0.5), ((0.9, 0.2), (0.5, 0.5))), 2)

    def test_wrong_policy_rejected(self):
        spec = EnsembleSpec(path_structure(3), Uncorrelated(), 2)
        with pytest.raises(ValueError):
            markov_purity(Region.of([0], 3), spec, 2)


class TestContract:
    def test_single_swap(self):
        assert contract_factorized(single([0, 2], 4)) == 1.0

    def test_sum_of_coefficients(self):
        v = SwapVector(2, {Region.empty(2): 0.4, Region.full(2): 0.4})
        assert contract_factorized(v) == pytest.approx(0.8, abs=1e-15)

    def test_empty_vector(self):
        assert contract_factorized(SwapVector(3, {})) == 0.0


class TestTrajectory:
    def test_starts_at_one(self):
        spec = EnsembleSpec(path_structure(4), Uncorrelated(), 2)
        assert purity_trajectory(Region.of([1], 4), spec, 0) == [1.0]

    def test_idempotent_two_site_plateau(self):
        st = LocalStructure(2, (Region.of([0, 1], 2),))
        spec = EnsembleSpec(st, Uncorrelated(), 2)
        ps = purity_trajectory(Region.of([0], 2), spec, 6)
        assert ps[0] == 1.0
        assert all(p == pytest.approx(0.8, abs=1e-14) for p in ps[1:])

    def test_path_first_step(self):
        spec = EnsembleSpec(path_structure(5), Uncorrelated(), 2)
        ps = purity_trajectory(Region.of([0, 1], 5), spec, 1)
        assert ps[1] == pytest.approx(0.95, abs=1e-12)

    def test_sweep_dispatch(self):
        spec = EnsembleSpec(path_structure(3), CorrelatedSweep((0, 1)), 2)
        ps = purity_trajectory(Region.of([0], 3), spec, 2)
        v = SwapVector.single(Region.of([0], 3))
        v = apply_step(v, spec)
        assert ps[1] == pytest.approx(contract_factorized(v), abs=1e-14)


    @pytest.mark.parametrize("policy", [
        Uncorrelated(), CorrelatedSweep((0, 1)), Markov((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5)))])
    def test_rejects_another_universe(self, policy):
        spec = EnsembleSpec(path_structure(3), policy, 2)
        with pytest.raises(ValueError, match="region universe 5 does not match n=3"):
            purity_trajectory(Region.of([0], 5), spec, 2)

    @pytest.mark.parametrize("policy, count", [
        (Uncorrelated(), 4),
        (Uncorrelated(((0.5, 0.5),) * 4), 4),  # per-step rows all equal to step 0's
        (Uncorrelated(((0.5, 0.5), (1.0, 0.0)) * 2), 1 + 2 + 3 + 4),
        (Uncorrelated(((0.5, 0.5),) * 2 + ((1.0, 0.0),) * 2), 1 + 1 + 3 + 4),
        (CorrelatedSweep((0, 1)), 2 * 4),
        (Markov((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5))), 2 * 4),
    ], ids=["constant", "per-step-constant", "alternating", "late-change", "sweep", "markov"])
    def test_work_counted_before_the_first_step(self, monkeypatch, policy, count):
        """The count is the stage applications the loop makes: over it refuses before any."""
        calls = []
        apply = swapcore._apply_stage
        monkeypatch.setattr(swapcore, "_apply_stage", lambda *a: calls.append(1) or apply(*a))
        spec = EnsembleSpec(path_structure(3), policy, 2)
        monkeypatch.setattr(swapcore, "TRAJECTORY_MAX_STAGES", count - 1)
        with pytest.raises(CapExceeded, match=f"needs {count} stage applications, over its "
                                              f"budget of {count - 1} stage applications"):
            purity_trajectory(Region.of([0], 3), spec, 4)
        assert calls == []
        monkeypatch.setattr(swapcore, "TRAJECTORY_MAX_STAGES", count)
        assert len(purity_trajectory(Region.of([0], 3), spec, 4)) == 5
        assert len(calls) == count

    def test_too_few_step_rows_refused_before_the_first_step(self, monkeypatch):
        monkeypatch.setattr(swapcore, "_apply_stage", None)
        spec = EnsembleSpec(path_structure(3), Uncorrelated(((0.5, 0.5), (1.0, 0.0))), 2)
        with pytest.raises(ValueError, match="step index 2 out of range for 2 step weight"):
            purity_trajectory(Region.of([0], 3), spec, 3)

class TestComponents:
    def test_chain_is_connected(self):
        decomp = connected_components(path_structure(3))
        assert len(decomp.components) == 1
        assert decomp.components[0] == Region.full(3)
        assert decomp.residual.is_empty

    def test_two_components(self):
        st = LocalStructure(4, (Region.of([0, 1], 4), Region.of([2, 3], 4)))
        decomp = connected_components(st)
        assert [c.sites() for c in decomp.components] == [(0, 1), (2, 3)]

    def test_residual(self):
        st = LocalStructure(3, (Region.of([0, 1], 3),))
        decomp = connected_components(st)
        assert decomp.components[0].sites() == (0, 1)
        assert decomp.residual.sites() == (2,)


class TestPurityInfinity:
    def test_connected_three_sites(self):
        assert purity_infinity(Region.of([0], 3), path_structure(3), 2) \
            == pytest.approx(2 / 3, abs=1e-15)

    def test_two_component_product(self):
        st = LocalStructure(4, (Region.of([0, 1], 4), Region.of([2, 3], 4)))
        assert purity_infinity(Region.of([0, 2], 4), st, 2) == pytest.approx(0.64, abs=1e-15)

    @pytest.mark.parametrize("n,d,sites", [(5, 2, [0, 2]), (4, 3, [1]), (6, 2, [0, 1, 2])])
    def test_connected_closed_form(self, n, d, sites):
        omega = Region.of(sites, n)
        got = purity_infinity(omega, complete_structure(n), d)
        want = (d ** omega.size + d ** (n - omega.size)) / (d**n + 1)
        assert got == pytest.approx(want, rel=1e-14)

    def test_residual_factor_is_one(self):
        st = LocalStructure(3, (Region.of([0, 1], 3),))
        got = purity_infinity(Region.of([0, 2], 3), st, 2)
        assert got == pytest.approx((2 + 2) / 5, abs=1e-15)

    def test_integer_ratio_is_the_float_ratio_while_d_to_the_c_is_exact(self):
        cases = 0
        for d in (2, 3, 4, 5, 6, 7, 10):
            for c in itertools.takewhile(lambda c: d**c < 2**53, itertools.count(1)):
                structure = LocalStructure(c, (Region.full(c),))
                for o in range(c + 1):
                    want = (float(d) ** (c - o) + float(d) ** o) / (float(d) ** c + 1.0)
                    assert purity_infinity(Region.of(range(o), c), structure, d) == want
                    cases += 1
        assert cases == 3230

    def test_no_overflow_past_the_float_range(self):
        # d^c = 1e320 is past the largest float; the ratio is 2e-160
        structure = LocalStructure(40, (Region.full(40),))
        assert purity_infinity(Region.of(range(20), 40), structure, 10**8) == 2e-160


class TestComplementInvolution:
    def test_empty_maps_to_full(self):
        out = complement_involution(SwapVector.single(Region.empty(3)))
        assert terms_close(out, {Region.full(3): 1.0})

    def test_involution(self):
        v = SwapVector(4, {Region.of([0], 4): 0.5, Region.of([1, 3], 4): 0.25})
        assert terms_close(complement_involution(complement_involution(v)), dict(v.terms))

    def test_commutes_with_apply_local_example(self):
        n, d = 3, 2
        local = Region.of([0, 1], n)
        v = single([0], n)
        lhs = complement_involution(apply_local(v, local, d))
        rhs = apply_local(complement_involution(v), local, d)
        assert terms_close(lhs, dict(rhs.terms), tol=1e-12)

    def test_commutes_exhaustive_small(self):
        n, d = 4, 3
        locals_ = [Region.of([0, 1], n), Region.of([1, 2, 3], n), Region.of([2], n)]
        for mask in range(1 << n):
            v = SwapVector.single(Region(mask, n))
            for local in locals_:
                lhs = complement_involution(apply_local(v, local, d))
                rhs = apply_local(complement_involution(v), local, d)
                assert terms_close(lhs, dict(rhs.terms), tol=1e-12)


class TestSwapMatrix:
    def test_single_region_fixed_column_count(self):
        n, d = 4, 2
        region = Region.of([1, 2], n)
        spec = EnsembleSpec(LocalStructure(n, (region,)), Uncorrelated(), d)
        mat = build_swap_matrix(spec)
        basis = np.eye(1 << n)
        fixed = sum(np.allclose(mat[:, a], basis[:, a]) for a in range(1 << n))
        assert fixed == 2 ** (n - region.size + 1)

    def test_identity_and_full_columns_fixed(self):
        spec = EnsembleSpec(path_structure(4), Uncorrelated(), 2)
        mat = build_swap_matrix(spec)
        full = (1 << 4) - 1
        assert mat[0, 0] == 1.0 and np.count_nonzero(mat[:, 0]) == 1
        assert mat[full, full] == 1.0 and np.count_nonzero(mat[:, full]) == 1

    def test_markov_rejected(self):
        spec = EnsembleSpec(path_structure(3), Markov((1.0, 0.0), ((1.0, 0.0), (0.0, 1.0))), 2)
        with pytest.raises(ValueError):
            build_swap_matrix(spec)

    def test_cap(self):
        spec = EnsembleSpec(path_structure(15), Uncorrelated(), 2)
        with pytest.raises(CapExceeded):
            build_swap_matrix(spec)

    def test_restriction_matches_reduced_chain_matrix(self):
        from lrqc import PathParams, reduced_matrix
        spec = EnsembleSpec(path_structure(3), Uncorrelated(), 2)
        mat = build_swap_matrix(spec)
        prefixes = [0b000, 0b001, 0b011, 0b111]
        sub = mat[np.ix_(prefixes, prefixes)]
        assert np.allclose(sub, reduced_matrix(PathParams(3, 2, 1)), atol=1e-14)
        # nothing leaks out of the invariant subspace
        outside = [m for m in range(8) if m not in prefixes]
        assert np.allclose(mat[np.ix_(outside, prefixes)], 0.0, atol=1e-14)


class TestFixedSpaceAndGap:
    def test_single_region_dimension(self):
        n = 4
        spec = EnsembleSpec(LocalStructure(n, (Region.of([0, 1], n),)), Uncorrelated(), 2)
        assert fixed_space_dimension(build_swap_matrix(spec)) == 2 ** (4 - 2 + 1)

    def test_connected_covering_dimension_two(self):
        spec = EnsembleSpec(path_structure(5), Uncorrelated(), 2)
        assert fixed_space_dimension(build_swap_matrix(spec)) == 2

    def test_disjoint_components_dimension(self):
        st = LocalStructure(4, (Region.of([0, 1], 4), Region.of([2, 3], 4)))
        spec = EnsembleSpec(st, Uncorrelated(), 2)
        assert fixed_space_dimension(build_swap_matrix(spec)) == 4

    def test_single_projection_gap_one(self):
        n = 4
        spec = EnsembleSpec(LocalStructure(n, (Region.of([1, 2], n),)), Uncorrelated(), 2)
        assert spectral_gap_swap(spec) == pytest.approx(1.0, abs=1e-10)

    def test_path_gap_matches_chain_model(self):
        spec = EnsembleSpec(path_structure(3), Uncorrelated(), 2)
        assert spectral_gap_swap(spec) == pytest.approx(0.3, abs=1e-10)

    def test_sweep_gap_approaches_edge_limit(self):
        gaps = []
        for n in (4, 6, 8):
            st = path_structure(n)
            spec = EnsembleSpec(st, CorrelatedSweep(tuple(range(n - 1))), 2)
            gaps.append(spectral_gap_swap(spec))
        assert all(g > 0.36 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]
        assert abs(gaps[-1] - 0.36) < 0.08


class TestStructureValidation:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            LocalStructure(3, (Region.of([0, 1], 3),), (0.9,))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            LocalStructure(3, (Region.empty(3),))

    def test_sweep_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(path_structure(3), CorrelatedSweep((0, 0)), 2)

    def test_local_dimension_check(self):
        with pytest.raises(ValueError):
            EnsembleSpec(path_structure(3), Uncorrelated(), 1)


class TestRankAmbiguity:
    def test_singular_value_in_tolerance_band_raises(self):
        from lrqc import NumericalAmbiguityError
        mat = np.eye(4)
        mat[0, 0] = 1.0 - 1e-7  # shifted matrix has a singular value inside (tol, 1e3*tol]
        with pytest.raises(NumericalAmbiguityError):
            fixed_space_dimension(mat)

    def test_clean_spectrum_resolves(self):
        mat = np.diag([1.0, 0.5, 0.25, 1.0])
        assert fixed_space_dimension(mat) == 2

    def test_non_symmetric_band_value_raises(self):
        """The singular-value route keeps the band: a non-symmetric input skips eigvalsh."""
        from lrqc import NumericalAmbiguityError
        mat = np.eye(4)
        mat[0, 0] = 1.0 - 1e-7
        mat[2, 3] = 0.5  # not symmetric; singular values of mat - I are 0.5, 1e-7, 0, 0
        with pytest.raises(NumericalAmbiguityError):
            fixed_space_dimension(mat)

    def test_non_symmetric_clean_spectrum_resolves(self):
        mat = np.eye(4)
        mat[2, 3] = 0.5
        assert fixed_space_dimension(mat) == 3
