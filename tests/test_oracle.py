import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lrqc import (CapExceeded, CorrelatedSweep, DenseState, EnsembleSpec,
                  LocalStructure, Markov, OracleConfig, Region, SwapVector,
                  Uncorrelated, apply_gate, apply_local, complete_structure, dense_swap,
                  exact_first_moment_map, exact_second_moment_projection,
                  first_moment_convergence_bound, haar_unitary,
                  mc_average_purity, mc_design_distance, mc_purity_trajectory,
                  mc_trace_distance, path_structure, product_state,
                  purity_trajectory, reduced_purity, sample_regions, trace_norm)


def force_processes(monkeypatch, count):
    """Run the estimators' sample ranges in this many processes, whatever the work."""
    monkeypatch.setattr("lrqc.oracle._processes", lambda samples, work: count)


def two_site_spec(d=2):
    return EnsembleSpec(LocalStructure(2, (Region.of([0, 1], 2),)), Uncorrelated(), d)


class TestHaarUnitary:
    @pytest.mark.parametrize("m", [2, 4, 9])
    def test_unitarity(self, m):
        u = haar_unitary(m, np.random.default_rng(0))
        assert np.max(np.abs(u.conj().T @ u - np.eye(m))) <= 1e-12

    def test_first_moment_of_entries(self):
        m, samples = 3, 10_000
        rng = np.random.default_rng(7)
        z = rng.standard_normal((samples, 2, m, m))
        from lrqc.oracle import _haar_from_gaussians
        us = _haar_from_gaussians(z)
        vals = np.abs(us[:, 0, 0]) ** 2
        stderr = vals.std(ddof=1) / math.sqrt(samples)
        assert abs(vals.mean() - 1 / m) <= 3 * stderr

    def test_size_validation(self):
        with pytest.raises(ValueError):
            haar_unitary(0, np.random.default_rng(0))


def _qr_haar(z):
    """The former _haar_from_gaussians: LAPACK QR, then R's diagonal phases pushed into Q."""
    g = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    diag = np.einsum('...ii->...i', r)
    mag = np.abs(diag)
    phases = np.where(mag == 0, 1.0 + 0j, diag / np.where(mag == 0, 1.0, mag))
    return q * phases[..., None, :]


class TestGramSchmidt:
    """Gates below the crossover come from Gram-Schmidt, pinned to the QR formula."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 9), shape=st.sampled_from([(), (1,), (7,), (2, 3)]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_qr(self, m, shape, seed):
        from lrqc.oracle import _gram_schmidt, _haar_from_gaussians
        z = np.random.default_rng(seed).standard_normal(shape + (2, m, m))
        drawn, want = z.copy(), _qr_haar(z)
        for got in (_haar_from_gaussians(z), _gram_schmidt(z)):
            assert got.shape == shape + (m, m)
            assert np.abs(got - want).max() <= 1e-13
            assert np.abs(got.conj().swapaxes(-1, -2) @ got - np.eye(m)).max() <= 1e-13
        assert np.array_equal(z, drawn)  # the Gaussians were not written to

    @pytest.mark.parametrize("m", range(2, 8))
    def test_unitary_with_nearly_dependent_columns(self, m):
        # one pass loses orthogonality as cond(G)^2 times the rounding error
        from lrqc.oracle import _haar_from_gaussians
        z = np.random.default_rng(m).standard_normal((5, 2, m, m))
        z[..., 1] = z[..., 0] + 1e-6 * z[..., 1]
        u = _haar_from_gaussians(z)
        assert np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(m)).max() <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 9), samples=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_gate_independent_of_its_batch(self, m, samples, seed):
        from lrqc.oracle import _haar_from_gaussians
        z = np.random.default_rng(seed).standard_normal((samples, 2, m, m))
        whole = _haar_from_gaussians(z)
        assert np.array_equal(_haar_from_gaussians(z[1:]), whole[1:])
        for one, gate in zip(z, whole):
            assert np.array_equal(_haar_from_gaussians(one), gate)


class TestStreams:
    """Each sample's stream is np.random.default_rng((seed, tag, s)), bit for bit."""

    # 2^64 + 5 has three entropy words, so with the tag and s there are more
    # than SeedSequence's four pool words; s takes a second word from 2^32
    @pytest.mark.parametrize("lo, hi", [(0, 5), (2**32 - 3, 2**32 + 3), (2**33, 2**33 + 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize("tag", [0, 1])
    def test_matches_default_rng(self, tag, seed, lo, hi):
        from lrqc.oracle import _streams
        streams = _streams(seed, tag, lo, hi)
        assert len(streams) == hi - lo
        for s, got in zip(range(lo, hi), streams):
            want = np.random.default_rng((seed, tag, s))
            assert got.bit_generator.state == want.bit_generator.state
            assert got.random() == want.random()
            assert np.array_equal(got.standard_normal(8), want.standard_normal(8))


class TestDenseState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            DenseState(np.ones(4), 2, 2)

    def test_product_state(self):
        state = product_state(3, 2)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1


class TestApplyGate:
    def test_identity_gate(self):
        state = product_state(3, 2)
        out = apply_gate(state, Region.of([0, 2], 3), np.eye(4))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_single_site_flip_permutes_amplitudes(self):
        state = product_state(2, 2)
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        out = apply_gate(state, Region.of([0], 2), flip)
        # site 0 is the least significant digit
        assert out.amplitudes[1] == 1.0
        out = apply_gate(state, Region.of([1], 2), flip)
        assert out.amplitudes[2] == 1.0

    def test_disjoint_gates_commute(self):
        rng = np.random.default_rng(11)
        state = DenseState(_random_state(rng, 16), 4, 2)
        u1 = haar_unitary(4, rng)
        u2 = haar_unitary(4, rng)
        a, b = Region.of([0, 1], 4), Region.of([2, 3], 4)
        one = apply_gate(apply_gate(state, a, u1), b, u2)
        other = apply_gate(apply_gate(state, b, u2), a, u1)
        assert np.max(np.abs(one.amplitudes - other.amplitudes)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_gate(product_state(3, 2), Region.of([0, 1], 3), np.eye(2))

    def test_norm_preserved_long_circuit(self):
        rng = np.random.default_rng(23)
        st = path_structure(4)
        state = product_state(4, 2)
        for _ in range(1000):
            region = st.regions[rng.integers(0, 3)]
            state = apply_gate(state, region, haar_unitary(4, rng))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10


def _random_state(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


class TestReducedPurity:
    def test_product_state(self):
        assert reduced_purity(product_state(4, 2), Region.of([1, 2], 4)) \
            == pytest.approx(1.0, abs=1e-14)

    def test_bell_pair(self):
        amps = np.zeros(4, dtype=complex)
        amps[0] = amps[3] = 1 / math.sqrt(2)
        state = DenseState(amps, 2, 2)
        assert reduced_purity(state, Region.of([0], 2)) == pytest.approx(0.5, abs=1e-14)

    def test_ghz(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1 / math.sqrt(2)
        state = DenseState(amps, 3, 2)
        assert reduced_purity(state, Region.of([0], 3)) == pytest.approx(0.5, abs=1e-14)

    def test_range(self):
        rng = np.random.default_rng(5)
        state = DenseState(_random_state(rng, 32), 5, 2)
        region = Region.of([0, 3], 5)
        val = reduced_purity(state, region)
        assert 2.0**-2 - 1e-12 <= val <= 1.0 + 1e-12


class TestSampleRegions:
    def test_markov_identity_chain(self):
        st = path_structure(3)
        spec = EnsembleSpec(st, Markov((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0))), 2)
        seq = sample_regions(spec, 20, np.random.default_rng(1))
        assert len(set(seq)) == 1

    def test_uniform_frequencies(self):
        spec = EnsembleSpec(path_structure(5), Uncorrelated(), 2)
        draws = 10_000
        seq = sample_regions(spec, draws, np.random.default_rng(2))
        stderr = math.sqrt(0.25 * 0.75 / draws)
        for region in spec.structure.regions:
            freq = sum(1 for r in seq if r == region) / draws
            assert abs(freq - 0.25) <= 3 * stderr

    def test_shared_weights_build_one_row(self):
        """Steps that share the model weights share one row of cumulative weights, so the
        table, built before the first step is drawn, does not grow with k (a row per step
        would be 17.6 MB of weights alone here)."""
        from lrqc.oracle import _region_steps
        spec = EnsembleSpec(path_structure(12), Uncorrelated(), 2)
        tracemalloc.start()
        try:
            next(_region_steps(spec, 200_000, [np.random.default_rng(0)]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_shared_row_draws_as_per_step_rows(self):
        structure = path_structure(6)
        shared = EnsembleSpec(structure, Uncorrelated(), 2)
        per_step = EnsembleSpec(structure, Uncorrelated((structure.weight_vector(),) * 50), 2)
        assert (sample_regions(shared, 50, np.random.default_rng(9))
                == sample_regions(per_step, 50, np.random.default_rng(9)))

    def test_sweep_sequence_deterministic(self):
        st = path_structure(4)
        spec = EnsembleSpec(st, CorrelatedSweep((2, 0, 1)), 2)
        seq = sample_regions(spec, 2, np.random.default_rng(3))
        assert len(seq) == 6
        # gates run in reverse sweep order so the first listed map hits the swap first
        want = [st.regions[i] for i in (1, 0, 2)] * 2
        assert seq == want

    class _Uniform:
        """A stream whose every uniform is the same number."""

        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    class _UniformGaussian(_Uniform):
        """A stream whose every uniform is the same number, with a real generator's Gaussians."""

        def __init__(self, u, seed):
            super().__init__(u)
            self.gaussians = np.random.default_rng(seed)

        def standard_normal(self, *args, **kwargs):
            return self.gaussians.standard_normal(*args, **kwargs)

    # sums to 1 - 5e-13, within the weight tolerance; a uniform above that sum falls past every
    # cumulative weight, and the draw must land on a region of positive weight
    SHORT = (0.5, 0.5 - 5e-13, 0.0)
    ROUNDING = pytest.mark.parametrize("policy, want", [
        (Uncorrelated(), (1, 1)),
        (Uncorrelated((SHORT, (0.25, 0.75 - 5e-13, 0.0))), (1, 1)),
        (Markov(SHORT, (SHORT, SHORT, SHORT)), (1, 1)),
        (Markov((0.0, 0.0, 1.0), (SHORT, SHORT, SHORT)), (2, 1)),  # region 2 drawn at weight 1
    ], ids=["uncorrelated", "per-step", "markov", "markov-rows"])

    @ROUNDING
    def test_rounding_never_draws_a_zero_weight_region(self, policy, want):
        st = LocalStructure(4, path_structure(4).regions, self.SHORT)
        seq = sample_regions(EnsembleSpec(st, policy, 2), 2, self._Uniform(0.99999999999999))
        assert seq == [st.regions[i] for i in want]

    @ROUNDING
    def test_rounding_never_simulates_a_zero_weight_region(self, monkeypatch, policy, want):
        from lrqc import oracle
        st = LocalStructure(4, path_structure(4).regions, self.SHORT)
        samples = 3
        monkeypatch.setattr("lrqc.oracle._streams", lambda seed, tag, lo, hi: [
            self._UniformGaussian(0.99999999999999, s) for s in range(lo, hi)])
        applied, real = [], oracle._apply_gates_batch

        def recorded(states, sites, gates, n, d):
            applied.append((tuple(sites), states.shape[0]))
            return real(states, sites, gates, n, d)
        monkeypatch.setattr("lrqc.oracle._apply_gates_batch", recorded)
        cfg = OracleConfig(seed=0, samples=samples, d=2, n=4)
        spec = EnsembleSpec(st, policy, 2)
        steps = [j for j, _, _, _ in oracle._simulate(spec, 2, cfg, 0, samples)]
        assert steps == [0, 1, 2]
        assert applied == [(st.regions[i].sites(), samples) for i in want]
        # each process of a two-process run simulates its own range the same way
        for lo, hi in oracle._ranges(samples, 2):
            applied.clear()
            steps = [j for j, _, _, _ in oracle._simulate(spec, 2, cfg, lo, hi)]
            assert steps == [0, 1, 2]
            assert applied == [(st.regions[i].sites(), hi - lo) for i in want]


class TestMcPurity:
    def test_zero_steps_exact(self):
        est = mc_average_purity(two_site_spec(), Region.of([0], 2), 0,
                                OracleConfig(seed=1, samples=50, d=2, n=2))
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_single_gate_constant(self):
        cfg = OracleConfig(seed=12, samples=4000, d=2, n=2)
        est = mc_average_purity(two_site_spec(), Region.of([0], 2), 1, cfg)
        assert abs(est.mean - 0.8) <= 3 * est.stderr

    def test_path_first_step(self):
        spec = EnsembleSpec(path_structure(5), Uncorrelated(), 2)
        cfg = OracleConfig(seed=13, samples=4000, d=2, n=5)
        est = mc_average_purity(spec, Region.of([0, 1], 5), 1, cfg)
        assert abs(est.mean - 0.95) <= 3 * est.stderr

    def test_trajectory_matches_swap_dynamics(self):
        spec = EnsembleSpec(path_structure(4), CorrelatedSweep((0, 1, 2)), 2)
        cfg = OracleConfig(seed=14, samples=3000, d=2, n=4)
        initial = Region.of([0, 1], 4)
        mc = mc_purity_trajectory(spec, initial, 4, cfg)
        exact = purity_trajectory(initial, spec, 4)
        for est, p in zip(mc[1:], exact[1:]):
            assert abs(est.mean - p) <= 4 * est.stderr

    def test_deterministic_given_seed(self):
        spec = EnsembleSpec(path_structure(3), Uncorrelated(), 2)
        cfg = OracleConfig(seed=99, samples=500, d=2, n=3)
        a = mc_purity_trajectory(spec, Region.of([0], 3), 3, cfg)
        b = mc_purity_trajectory(spec, Region.of([0], 3), 3, cfg)
        assert [(e.mean, e.stderr) for e in a] == [(e.mean, e.stderr) for e in b]

    def test_seed_changes_estimate(self):
        spec = EnsembleSpec(path_structure(3), Uncorrelated(), 2)
        a = mc_average_purity(spec, Region.of([0], 3), 2,
                              OracleConfig(seed=1, samples=300, d=2, n=3))
        b = mc_average_purity(spec, Region.of([0], 3), 2,
                              OracleConfig(seed=2, samples=300, d=2, n=3))
        assert a.mean != b.mean

    def test_average_equals_trajectory_tail(self):
        spec = EnsembleSpec(path_structure(3), Uncorrelated(), 2)
        cfg = OracleConfig(seed=4, samples=400, d=2, n=3)
        est = mc_average_purity(spec, Region.of([0], 3), 3, cfg)
        traj = mc_purity_trajectory(spec, Region.of([0], 3), 3, cfg)
        assert est == traj[3]

    def test_independent_of_batch_slicing(self, monkeypatch):
        spec = EnsembleSpec(path_structure(3), Uncorrelated(), 2)
        cfg = OracleConfig(seed=41, samples=257, d=2, n=3)
        whole = mc_purity_trajectory(spec, Region.of([0], 3), 2, cfg)
        monkeypatch.setattr("lrqc.oracle._CHUNK_BYTES", 1 << 15)  # a few samples per chunk
        sliced = mc_purity_trajectory(spec, Region.of([0], 3), 2, cfg)
        for a, b in zip(whole, sliced):
            assert abs(a.mean - b.mean) <= 1e-14
            assert abs(a.stderr - b.stderr) <= 1e-14

    def test_config_caps(self):
        with pytest.raises(CapExceeded):
            OracleConfig(seed=0, samples=10, d=2, n=21)
        with pytest.raises(ValueError):
            OracleConfig(seed=0, samples=1, d=2, n=3)
        with pytest.raises(ValueError, match="run.seed"):
            OracleConfig(seed=-1, samples=10, d=2, n=3)


class TestRegionUniverse:
    """Every Monte Carlo estimator refuses a region of another system, as reduced_purity does."""

    @pytest.mark.parametrize("sites, n", [([3, 4], 5), ([0, 1], 5), ([4], 5), ([0], 2)])
    @pytest.mark.parametrize("estimator", ["trajectory", "average", "trace", "design"])
    def test_mismatch_raises(self, estimator, sites, n):
        spec = EnsembleSpec(path_structure(3), Uncorrelated(), 2)
        cfg = OracleConfig(seed=1, samples=4, d=2, n=3)
        region = Region.of(sites, n)
        run = {"trajectory": lambda: mc_purity_trajectory(spec, region, 1, cfg),
               "average": lambda: mc_average_purity(spec, region, 1, cfg),
               "trace": lambda: mc_trace_distance(spec, region, 1, cfg),
               "design": lambda: mc_design_distance(spec, region, 1, 1, cfg)}[estimator]
        with pytest.raises(ValueError, match="region universe does not match"):
            run()


class TestFirstMomentMap:
    def test_unital(self):
        region = Region.of([1, 2], 4)
        out = exact_first_moment_map(np.eye(16), region, 2)
        assert np.max(np.abs(out - np.eye(16))) <= 1e-12

    def test_projection_identities(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        region = Region.of([0, 3], 4)
        once = exact_first_moment_map(x, region, 2)
        twice = exact_first_moment_map(once, region, 2)
        assert np.max(np.abs(twice - once)) <= 1e-12
        assert np.trace(once) == pytest.approx(np.trace(x), abs=1e-12)

    def test_overlapping_merge(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a, b = Region.of([0, 1], 4), Region.of([1, 2], 4)
        lhs = exact_first_moment_map(exact_first_moment_map(x, b, 2), a, 2)
        rhs = exact_first_moment_map(x, a | b, 2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        sym = exact_first_moment_map(exact_first_moment_map(x, a, 2), b, 2)
        assert np.max(np.abs(sym - rhs)) <= 1e-12

    def test_iterated_covering_mixture_converges(self):
        n, d = 3, 2
        st = path_structure(n)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        weights = st.weight_vector()
        y = x.copy()
        for _ in range(80):
            y = sum(q * exact_first_moment_map(y, region, d)
                    for q, region in zip(weights, st.regions))
        want = np.trace(x) / 8 * np.eye(8)
        assert np.max(np.abs(y - want)) <= 1e-8

    def test_empirical_steps_within_bound(self):
        n, d = 3, 2
        st = LocalStructure(n, (Region.of([0, 1], n), Region.of([1, 2], n)))
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        x /= np.linalg.norm(x)
        omega = np.zeros((8, 8), dtype=complex)
        omega[0, 0] = 1.0
        phi_inf = np.trace(x) / 8
        weights = st.weight_vector()
        eps = 1e-6
        k_star = math.ceil(first_moment_convergence_bound(1.0, 1.0, eps, 0.5, 2).value)
        y = x.copy()
        steps = 0
        while abs(np.trace(omega.conj().T @ y) - phi_inf) > eps:
            y = sum(q * exact_first_moment_map(y, region, d)
                    for q, region in zip(weights, st.regions))
            steps += 1
            assert steps <= k_star


class TestSecondMomentProjection:
    def test_identity_fixed(self):
        region = Region.of([0, 1], 2)
        out = exact_second_moment_projection(np.eye(16), region, 2)
        assert np.max(np.abs(out - np.eye(16))) <= 1e-12

    def test_swap_update_rule(self):
        n, d = 3, 2
        region = Region.of([1, 2], n)
        target = Region.of([0, 1], n)
        got = exact_second_moment_projection(dense_swap(target, d), region, d)
        v = apply_local(SwapVector.single(target), region, d)
        want = sum(c * dense_swap(r, d) for r, c in v.terms.items())
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_swap_update_rule_four_sites(self):
        n, d = 4, 2
        cases = [(Region.of([0, 1, 2], n), Region.of([2, 3], n)),
                 (Region.of([1], n), Region.of([0, 1, 2], n)),
                 (Region.of([0, 3], n), Region.of([1, 2, 3], n))]
        for target, region in cases:
            got = exact_second_moment_projection(dense_swap(target, d), region, d)
            v = apply_local(SwapVector.single(target), region, d)
            want = sum(c * dense_swap(r, d) for r, c in v.terms.items())
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        region = Region.of([1], 2)
        once = exact_second_moment_projection(x, region, 2)
        twice = exact_second_moment_projection(once, region, 2)
        assert np.max(np.abs(twice - once)) <= 1e-12
        assert np.trace(once) == pytest.approx(np.trace(x), abs=1e-12)

    def test_monte_carlo_twirl_converges_to_projection(self):
        n, d = 2, 2
        region = Region.of([0, 1], n)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        want = exact_second_moment_projection(x, region, d)
        samples = 3000
        acc = np.zeros((samples, 16, 16), dtype=complex)
        for s in range(samples):
            u = haar_unitary(4, rng)
            u2 = np.kron(u, u)
            acc[s] = u2.conj().T @ x @ u2
        mean = acc.mean(axis=0)
        stderr = acc.std(axis=0, ddof=1) / math.sqrt(samples)
        assert np.all(np.abs(mean - want) <= 3 * stderr + 1e-12)


def _ref_blocks(op, sites, n, d):
    """The former block view: a d^n x d^n operator as a (Da, Db, Da, Db) tensor, sites first."""
    in_region = set(sites)
    row = ([n - 1 - s for s in sorted(sites, reverse=True)]
           + [n - 1 - s for s in range(n - 1, -1, -1) if s not in in_region])
    perm = row + [n + a for a in row]
    da = d ** len(sites)
    t = op.reshape((d,) * (2 * n)).transpose(perm)
    return t.reshape(da, -1, da, op.shape[0] // da), perm


def _ref_unblocks(t4, perm, n, d):
    return t4.reshape((d,) * (2 * n)).transpose(np.argsort(perm)).reshape(d**n, d**n)


def _ref_first_moment(op, region, d):
    """The former first-moment map, on the block view."""
    n, dm = region.n, d**region.size
    t4, perm = _ref_blocks(op, region.sites(), n, d)
    traced = np.einsum('abac->bc', t4)
    return _ref_unblocks(np.einsum('ac,bd->abcd', np.eye(dm, dtype=complex) / dm, traced),
                         perm, n, d)


def _ref_second_moment(op, region, d):
    """The former two-copy projection, on the block view of pseudo-sites n+s and s."""
    n, dm = region.n, d**region.size
    pseudo = [n + s for s in region.sites()] + list(region.sites())
    idx = np.arange(dm * dm)
    swap = np.zeros((dm * dm, dm * dm))
    swap[(idx % dm) * dm + idx // dm, idx] = 1.0
    t4, perm = _ref_blocks(op, pseudo, 2 * n, d)
    out4 = np.zeros_like(t4)
    for sign in (1.0, -1.0):
        f = (np.eye(dm * dm) + sign * swap) / math.sqrt(2.0 * dm * (dm + sign))
        out4 += np.einsum('ac,bd->abcd', f, np.einsum('ka,abkc->bc', f, t4))
    return _ref_unblocks(out4, perm, 2 * n, d)


@st.composite
def moment_cases(draw, copies):
    """(op, region, d): a random operator on ``copies`` copies of n sites, within the
    dense-operator cap, and a nonempty region."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, {(1, 2): 10, (1, 3): 6, (2, 2): 5, (2, 3): 3}[copies, d]))
    region = Region(draw(st.integers(1, (1 << n) - 1)), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = d ** (copies * n)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), region, d


class TestMomentMapsPinnedToBlocks:
    """Both moment maps read an operator as a one-sample state of its row and column sites,
    and give the former block-view results bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(moment_cases(1))
    def test_first_moment(self, case):
        op, region, d = case
        assert np.array_equal(exact_first_moment_map(op, region, d),
                              _ref_first_moment(op, region, d))

    @settings(max_examples=60, deadline=None)
    @given(moment_cases(2))
    def test_second_moment(self, case):
        op, region, d = case
        assert np.array_equal(exact_second_moment_projection(op, region, d),
                              _ref_second_moment(op, region, d))


class TestTraceDistance:
    def test_zero_steps_value(self):
        spec = EnsembleSpec(path_structure(3), Uncorrelated(), 2)
        cfg = OracleConfig(seed=3, samples=10, d=2, n=3)
        est = mc_trace_distance(spec, Region.of([0, 1], 3), 0, cfg)
        assert est.mean == pytest.approx(2 * (1 - 0.25), abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_and_bounded(self):
        spec = EnsembleSpec(path_structure(4), Uncorrelated(), 2)
        cfg = OracleConfig(seed=6, samples=200, d=2, n=4)
        est = mc_trace_distance(spec, Region.of([0], 4), 3, cfg)
        assert 0.0 <= est.mean <= 2.0

    def test_region_cap(self):
        spec = EnsembleSpec(path_structure(12), Uncorrelated(), 2)
        cfg = OracleConfig(seed=0, samples=4, d=2, n=12)
        with pytest.raises(CapExceeded):
            mc_trace_distance(spec, Region.full(12), 1, cfg)

    def test_equilibrated_distance_within_purity_bound(self):
        n, d, k = 6, 2, 100
        structure = path_structure(n)
        region = Region.of([0, 1], n)
        spec = EnsembleSpec(structure, Uncorrelated(), d)
        traj = purity_trajectory(region, spec, k)
        eps = abs(traj[k] - 12 / 65)  # fixed-point purity for |region|=2, n=6
        bound = math.sqrt(d**region.size) * math.sqrt(d ** -(n - region.size) + eps)
        cfg = OracleConfig(seed=17, samples=600, d=d, n=n)
        est = mc_trace_distance(spec, region, k, cfg)
        assert est.mean <= bound + 3 * est.stderr


class TestDesignDistance:
    def test_full_region_single_gate_is_haar(self):
        # one Haar gate on all sites reproduces the global Haar ensemble
        n, d = 3, 2
        st = LocalStructure(n, (Region.full(n),))
        spec = EnsembleSpec(st, Uncorrelated(), d)
        cfg = OracleConfig(seed=21, samples=2000, d=d, n=n)
        result = mc_design_distance(spec, Region.of([0], n), 1, 1, cfg)
        assert result.value <= 5 * (result.circuit_err + result.haar_err)

    def test_range_and_errors(self):
        spec = EnsembleSpec(path_structure(4), Uncorrelated(), 2)
        cfg = OracleConfig(seed=22, samples=400, d=2, n=4)
        result = mc_design_distance(spec, Region.of([0, 1], 4), 2, 1, cfg)
        assert 0.0 <= result.value <= 2.0
        assert result.circuit_err >= 0.0 and result.haar_err >= 0.0

    def test_moment_cap(self):
        spec = EnsembleSpec(path_structure(4), Uncorrelated(), 2)
        cfg = OracleConfig(seed=0, samples=4, d=2, n=4)
        with pytest.raises(CapExceeded):
            mc_design_distance(spec, Region.full(4), 1, 4, cfg)


class TestTraceNorm:
    def test_known_value(self):
        h = np.diag([0.75, -0.25])
        assert trace_norm(h) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# The Monte Carlo engine pinned to the two separate policy draws it replaced
# ---------------------------------------------------------------------------

def _pick(cum, u):
    """The former region pick: a searchsorted on the cumulative weights."""
    return min(int(np.searchsorted(cum, u, side='right')), len(cum) - 1)


def _reference_sample_regions(spec, k, stream):
    """The former sample_regions: its own policy if-chain, one uniform per draw."""
    regions = spec.structure.regions
    pol = spec.policy
    if isinstance(pol, CorrelatedSweep):
        return [regions[i] for _ in range(k) for i in reversed(pol.order)]
    out = []
    if isinstance(pol, Uncorrelated):
        for j in range(k):
            cum = np.cumsum(spec.step_weights(j))
            out.append(regions[_pick(cum, stream.random())])
    else:
        cum_rows = [np.cumsum(row) for row in pol.matrix]
        r = _pick(np.cumsum(pol.initial), stream.random()) if k else 0
        if k:
            out.append(regions[r])
        for _ in range(1, k):
            r = _pick(cum_rows[r], stream.random())
            out.append(regions[r])
    return out


def _reference_simulate(spec, k_max, cfg, consume):
    """The former _simulate: a second policy if-chain and a separate sweep branch."""
    from lrqc import oracle
    n, d = cfg.n, cfg.d
    dim = d**n
    regions = spec.structure.regions
    site_lists = [r.sites() for r in regions]
    pol = spec.policy
    if isinstance(pol, Uncorrelated):
        cums = [np.cumsum(spec.step_weights(j)) for j in range(k_max)]
    elif isinstance(pol, Markov):
        cum_init = np.cumsum(pol.initial)
        cum_rows = [np.cumsum(row) for row in pol.matrix]
    for lo, hi in oracle._chunks(cfg, 0, 0, cfg.samples):
        rngs = [np.random.default_rng((cfg.seed, 0, s)) for s in range(lo, hi)]
        c = hi - lo
        states = np.zeros((c, dim), dtype=complex)
        states[:, 0] = 1.0
        consume(0, states, lo)
        prev = np.zeros(c, dtype=int)
        for j in range(1, k_max + 1):
            if isinstance(pol, CorrelatedSweep):
                for ridx in reversed(pol.order):
                    m = d ** regions[ridx].size
                    z = np.stack([rng.standard_normal((2, m, m)) for rng in rngs])
                    states = oracle._apply_gates_batch(states, site_lists[ridx],
                                                       oracle._haar_from_gaussians(z), n, d)
            else:
                ridx = np.empty(c, dtype=int)
                gauss = []
                for i, rng in enumerate(rngs):
                    u = rng.random()
                    if isinstance(pol, Uncorrelated):
                        r = _pick(cums[j - 1], u)
                    elif j == 1:
                        r = _pick(cum_init, u)
                    else:
                        r = _pick(cum_rows[prev[i]], u)
                    ridx[i] = r
                    m = d ** regions[r].size
                    gauss.append(rng.standard_normal((2, m, m)))
                prev = ridx
                for r in np.unique(ridx):
                    sel = np.flatnonzero(ridx == r)
                    gates = oracle._haar_from_gaussians(np.stack([gauss[i] for i in sel]))
                    states[sel] = oracle._apply_gates_batch(states[sel], site_lists[r], gates, n, d)
            consume(j, states, lo)


def _reduced_densities(states, sites, n, d):
    """Every sample's reduced density matrix, joined from the kernel's sub-batches."""
    from lrqc import oracle
    parts = []
    oracle._reduce(states, sites, n, d, lambda lo, rho: parts.append(rho))
    return np.concatenate(parts)


def _reference_trace_distance(spec, region, k, cfg):
    from lrqc import oracle
    dm = cfg.d**region.size
    values = np.empty(cfg.samples)

    def consume(j, states, lo):
        if j != k:
            return
        rho = _reduced_densities(states, region.sites(), cfg.n, cfg.d)
        rho -= np.eye(dm) / dm
        values[lo:lo + states.shape[0]] = np.abs(np.linalg.eigvalsh(rho)).sum(axis=1)

    _reference_simulate(spec, k, cfg, consume)
    return oracle._estimate(values)


def _reference_design_distance(spec, region, k, t, cfg):
    """The former mc_design_distance: its own Haar chunk loop and half-split sums."""
    from lrqc import oracle
    sites = region.sites()
    dmt = (cfg.d**region.size) ** t
    n_first = (cfg.samples + 1) // 2

    def split(halves):
        return trace_norm(halves[0] / n_first - halves[1] / (cfg.samples - n_first)) / 2.0

    halves = [np.zeros((dmt, dmt), dtype=complex) for _ in range(2)]

    def consume(j, states, lo):
        if j != k:
            return
        mom = oracle._kron_power_batch(
            _reduced_densities(states, sites, cfg.n, cfg.d), t)
        cut = min(max(n_first - lo, 0), states.shape[0])
        halves[0] += mom[:cut].sum(axis=0)
        halves[1] += mom[cut:].sum(axis=0)

    _reference_simulate(spec, k, cfg, consume)
    circ_mean = (halves[0] + halves[1]) / cfg.samples
    dim = cfg.d**cfg.n
    haar_halves = [np.zeros((dmt, dmt), dtype=complex) for _ in range(2)]
    for lo, hi in oracle._chunks(cfg, 0, 0, cfg.samples):
        z = np.stack([np.random.default_rng((cfg.seed, 1, s)).standard_normal((2, dim))
                      for s in range(lo, hi)])
        states = z[:, 0, :] + 1j * z[:, 1, :]
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        mom = oracle._kron_power_batch(
            _reduced_densities(states, sites, cfg.n, cfg.d), t)
        cut = min(max(n_first - lo, 0), hi - lo)
        haar_halves[0] += mom[:cut].sum(axis=0)
        haar_halves[1] += mom[cut:].sum(axis=0)
    haar_mean = (haar_halves[0] + haar_halves[1]) / cfg.samples
    return oracle.DesignDistance(trace_norm(circ_mean - haar_mean), split(halves),
                                 split(haar_halves), cfg.samples)


def _engine_specs():
    path3 = path_structure(3)
    mixed = LocalStructure(4, tuple(Region.of(sites, 4)
                                    for sites in ([2], [0, 1], [1, 2, 3], [3])))
    step_weights = ((0.2, 0.8), (1.0, 0.0), (0.5, 0.5), (0.0, 1.0))
    return {
        "uncorrelated-d2": EnsembleSpec(path3, Uncorrelated(), 2),
        "uncorrelated-d3": EnsembleSpec(path3, Uncorrelated(), 3),
        "step-weights-d2": EnsembleSpec(path3, Uncorrelated(step_weights), 2),
        "step-weights-d3": EnsembleSpec(path3, Uncorrelated(step_weights), 3),
        "markov": EnsembleSpec(path_structure(4), Markov(
            (0.5, 0.25, 0.25), ((0.1, 0.9, 0.0), (0.3, 0.3, 0.4), (0.0, 0.6, 0.4))), 2),
        "sweep-complete": EnsembleSpec(complete_structure(4),
                                       CorrelatedSweep((3, 0, 5, 1, 4, 2)), 2),
        # regions of 1, 2 and 3 sites: the Gaussian blocks have uneven offsets
        "sweep-mixed": EnsembleSpec(mixed, CorrelatedSweep((2, 0, 3, 1)), 2),
        "uncorrelated-mixed-d3": EnsembleSpec(mixed, Uncorrelated(), 3),
    }


class TestEnginePinnedToReference:
    """Bit-for-bit equality with the former draw code, across forced chunk boundaries.

    The estimators run in one process unless a test forces more; the forked
    children see the patched chunks too.
    """

    k = 3
    samples = 11  # chunks of 4, 4 and 3; the design distance's half split falls mid-chunk

    @pytest.fixture(params=sorted(_engine_specs()))
    def case(self, request, monkeypatch):
        spec = _engine_specs()[request.param]
        n, d = spec.structure.n, spec.d
        monkeypatch.setattr("lrqc.oracle._chunks", lambda cfg, extra, lo, hi: (
            (a, min(a + 4, hi)) for a in range(lo, hi, 4)))
        force_processes(monkeypatch, 1)
        return spec, OracleConfig(seed=31, samples=self.samples, d=d, n=n)

    def test_pick_on_ties_and_rounding(self):
        from lrqc.oracle import _region_steps
        weights = (0.0, 0.25, 0.0, 0.5, 0.25 - 1e-12)
        cum = np.cumsum(weights)  # ends short of 1
        us = [0.0, 0.1, 0.25, 0.5, 0.75, cum[-1], 0.9999999999999999]
        spec = EnsembleSpec(LocalStructure(6, path_structure(6).regions, weights),
                            Uncorrelated(), 2)
        # one stream per uniform, all picked in one step
        (picked,) = _region_steps(spec, 1, [TestSampleRegions._Uniform(u) for u in us])
        assert picked.shape == (len(us), 1)
        for u, pick in zip(us, picked[:, 0].tolist()):
            assert pick == _pick(cum, u)

    def test_state_batches(self, case):
        from lrqc.oracle import _simulate
        spec, cfg = case
        want = []
        _reference_simulate(spec, self.k, cfg,
                            lambda j, states, lo: want.append((j, lo, states.copy())))
        got = [(j, lo, states.copy())
               for j, states, lo, _ in _simulate(spec, self.k, cfg, 0, cfg.samples)]
        assert [(j, lo) for j, lo, _ in got] == [(j, lo) for j, lo, _ in want]
        assert len({lo for _, lo, _ in got}) == 3
        for (_, _, a), (_, _, b) in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("processes", [2, 3])
    def test_state_batches_per_range(self, case, processes):
        """Each process's range, chunked on its own, gives every sample the states it has
        in one process."""
        from lrqc.oracle import _ranges, _simulate
        spec, cfg = case

        def per_sample(batches):
            out = np.empty((self.k + 1, cfg.samples, cfg.d**cfg.n), dtype=complex)
            for j, states, lo, _ in batches:
                out[j, lo:lo + states.shape[0]] = states
            return out
        want = per_sample(_simulate(spec, self.k, cfg, 0, cfg.samples))
        for lo, hi in _ranges(cfg.samples, processes):
            got = per_sample(_simulate(spec, self.k, cfg, lo, hi))
            assert np.array_equal(got[:, lo:hi], want[:, lo:hi])

    def test_region_sequences(self, case):
        spec, _ = case
        for seed in range(5):
            for k in (0, 1, self.k):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                assert sample_regions(spec, k, a) == _reference_sample_regions(spec, k, b)
                assert a.random() == b.random()  # the same number of uniforms was drawn

    def test_trace_distance(self, case):
        spec, cfg = case
        region = Region.of([0, 1], cfg.n)
        assert mc_trace_distance(spec, region, self.k, cfg) \
            == _reference_trace_distance(spec, region, self.k, cfg)

    @pytest.mark.parametrize("processes", [2, 3])
    def test_trace_distance_across_processes(self, case, monkeypatch, processes):
        spec, cfg = case
        region = Region.of([0, 1], cfg.n)
        want = _reference_trace_distance(spec, region, self.k, cfg)
        force_processes(monkeypatch, processes)
        assert mc_trace_distance(spec, region, self.k, cfg) == want

    @pytest.mark.parametrize("t", [1, 2])
    def test_design_distance(self, case, t):
        spec, cfg = case
        region = Region.of([1], cfg.n)
        assert mc_design_distance(spec, region, self.k, t, cfg) \
            == _reference_design_distance(spec, region, self.k, t, cfg)

    @pytest.mark.parametrize("processes", [2, 3])
    @pytest.mark.parametrize("t", [1, 2])
    def test_design_distance_across_processes(self, case, monkeypatch, t, processes):
        """The design distance runs in the calling process, so a forced process count
        leaves every field unchanged."""
        spec, cfg = case
        region = Region.of([1], cfg.n)
        want = _reference_design_distance(spec, region, self.k, t, cfg)
        force_processes(monkeypatch, processes)
        assert mc_design_distance(spec, region, self.k, t, cfg) == want


# ---------------------------------------------------------------------------
# The purity carried over steps that do not cross the cut
# ---------------------------------------------------------------------------

@st.composite
def carry_cases(draw):
    """(spec, initial region, k, seed): a path or complete model at d = 2 or 3 under each
    policy, and an initial region that may be empty or the full system."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 4 if d == 2 else 3))
    structure = draw(st.sampled_from([path_structure, complete_structure]))(n)
    m = len(structure.regions)
    k = draw(st.integers(1, 4))
    weights = st.lists(st.integers(0, 3), min_size=m, max_size=m).map(
        lambda w: tuple(x / sum(w) for x in w) if any(w) else (1 / m,) * m)
    policy = draw(st.sampled_from(["uncorrelated", "step-weights", "markov", "sweep"]))
    if policy == "uncorrelated":
        policy = Uncorrelated()
    elif policy == "step-weights":
        policy = Uncorrelated(tuple(draw(weights) for _ in range(k)))
    elif policy == "markov":
        policy = Markov(draw(weights), tuple(draw(weights) for _ in range(m)))
    else:
        policy = CorrelatedSweep(tuple(draw(st.permutations(range(m)))))
    region = Region.of(sorted(draw(st.sets(st.integers(0, n - 1)))), n)
    return EnsembleSpec(structure, policy, d), region, k, draw(st.integers(0, 2**32 - 1))


class TestPurityCarry:
    """A sample's purity is measured after a step only when a gate of the step lies on a
    region that meets both the initial region and its complement; otherwise it is carried."""

    samples = 7

    @settings(max_examples=60, deadline=None)
    @given(carry_cases())
    # a sweep whose pass has regions on both sides of the cut and one across it
    @example((EnsembleSpec(complete_structure(4), CorrelatedSweep((5, 0, 3, 1, 4, 2)), 2),
              Region.of([0, 1], 4), 3, 7))
    @example((EnsembleSpec(path_structure(3), CorrelatedSweep((1, 0)), 3), Region.of([0], 3),
              2, 8))
    def test_carry(self, case):
        from lrqc import in_boundary, oracle
        spec, region, k, seed = case
        n, d = spec.structure.n, spec.d
        cfg = OracleConfig(seed=seed, samples=self.samples, d=d, n=n)
        # every sample's purity recomputed from the states after every step, and whether
        # each sample's step had a region on the cut
        cross = np.array([in_boundary(r, region) for r in spec.structure.regions])
        recomputed = np.empty((k + 1, self.samples))
        crossed = np.ones((k + 1, self.samples), dtype=bool)
        for j, states, lo, picked in oracle._simulate(spec, k, cfg, 0, self.samples):
            recomputed[j, lo:lo + len(states)] = oracle._purity_batch(states, region.sites(),
                                                                      n, d)
            if picked is not None:
                crossed[j, lo:lo + len(states)] = cross[picked].any(axis=1)
        per_process = {}
        with pytest.MonkeyPatch.context() as mp:
            for processes in (1, 2, 3):
                force_processes(mp, processes)
                per_process[processes] = mc_purity_trajectory(spec, region, k, cfg)
        assert per_process[2] == per_process[1]
        assert per_process[3] == per_process[1]

        rows, carried = [], []
        real_purity, real_estimate = oracle._purity_batch, oracle._estimate

        def counted(states, sites, n, d):
            rows.append(states.shape[0])
            return real_purity(states, sites, n, d)

        def kept(values):
            carried.append(values.copy())
            return real_estimate(values)
        with pytest.MonkeyPatch.context() as mp:
            force_processes(mp, 1)
            mp.setattr("lrqc.oracle._purity_batch", counted)
            mp.setattr("lrqc.oracle._estimate", kept)
            assert mc_purity_trajectory(spec, region, k, cfg) == per_process[1]
        carried = np.array(carried)
        assert np.allclose(carried, recomputed, rtol=1e-12, atol=0)
        assert np.array_equal(carried[crossed], recomputed[crossed])
        for j in range(1, k + 1):
            assert np.array_equal(carried[j, ~crossed[j]], carried[j - 1, ~crossed[j]])
        # one reduction per step with a crossing sample, of exactly those samples
        assert rows == [int(c.sum()) for c in crossed if c.any()]
        if region.is_empty or region.size == n:  # no region meets both sides
            assert rows == [self.samples]


# ---------------------------------------------------------------------------
# The matmul reduction kernel pinned to the einsum formula it replaced
# ---------------------------------------------------------------------------

def _einsum_density(states, sites, n, d):
    """The former kernel: the region factors M, then M M^dag by einsum."""
    from lrqc import oracle
    m = oracle._region_factors(states, sites, n, d)
    return np.einsum('sab,scb->sac', m, m.conj())


def _einsum_purity(states, sites, n, d):
    g = _einsum_density(states, sites, n, d)
    return np.einsum('sac,sac->s', g, g.conj()).real


@st.composite
def batches(draw):
    """(states, sites, n, d): a few random states and a contiguous, scattered,
    single-site or full region."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["interval", "subset", "single", "full"]))
    if kind == "interval":
        lo = draw(st.integers(0, n - 1))
        sites = list(range(lo, draw(st.integers(lo + 1, n))))
    elif kind == "subset":
        sites = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    elif kind == "single":
        sites = [draw(st.integers(0, n - 1))]
    else:
        sites = list(range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 3)), d**n)
    states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return states / np.linalg.norm(states, axis=1, keepdims=True), sites, n, d


class TestReductionKernel:
    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_matches_einsum(self, batch):
        from lrqc.oracle import _purity_batch
        want = _einsum_density(*batch)
        got = _reduced_densities(*batch)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.allclose(_purity_batch(*batch), _einsum_purity(*batch), rtol=1e-13, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_one_sample_sub_batches_bit_identical(self, batch):
        from lrqc.oracle import _purity_batch
        whole = _reduced_densities(*batch), _purity_batch(*batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("lrqc.oracle._REDUCE_BYTES", 1)
            single = _reduced_densities(*batch), _purity_batch(*batch)
        assert np.array_equal(whole[0], single[0])
        assert np.array_equal(whole[1], single[1])

    @pytest.mark.parametrize("sites", [[0, 1, 2, 3, 4], [1, 3, 5, 7, 9], [4], list(range(7))])
    def test_sub_batches_bit_identical_at_blas_size(self, monkeypatch, sites):
        from lrqc import oracle
        rng = np.random.default_rng(3)
        states = rng.standard_normal((40, 1024)) + 1j * rng.standard_normal((40, 1024))
        runs = []
        for budget in (1, 1 << 16, 1 << 30):  # one sample, a few, and all 40 per sub-batch
            monkeypatch.setattr("lrqc.oracle._REDUCE_BYTES", budget)
            runs.append((_reduced_densities(states, sites, 10, 2),
                         oracle._purity_batch(states, sites, 10, 2)))
        for rho, purity in runs[1:]:
            assert np.array_equal(rho, runs[0][0])
            assert np.array_equal(purity, runs[0][1])

    @pytest.mark.parametrize("sites", [list(range(6)), [0, 2, 4, 6, 8, 10], [3], list(range(12))])
    def test_purity_memory_within_budget(self, sites):
        from lrqc import oracle
        rng = np.random.default_rng(4)
        states = rng.standard_normal((300, 4096)) + 1j * rng.standard_normal((300, 4096))
        tracemalloc.start()
        try:
            out = oracle._purity_batch(states, sites, 12, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= oracle._REDUCE_BYTES + out.nbytes


class TestDistanceMemory:
    """Both distance estimators reduce under _REDUCE_BYTES at any sample count.

    Beside the reduction they hold the simulated state batch, with the copies a
    gate step makes, and their output: the per-sample distances, or the two
    half-sample sums, the circuit mean and one sub-batch sum of the moments.
    """

    @pytest.mark.parametrize("samples", [10, 40])
    @pytest.mark.parametrize("estimator", ["trace", "design"])
    def test_peak_within_budget(self, monkeypatch, estimator, samples):
        from lrqc import oracle
        force_processes(monkeypatch, 1)
        n = 8
        spec = EnsembleSpec(path_structure(n), Uncorrelated(), 2)
        cfg = OracleConfig(seed=1, samples=samples, d=2, n=n)
        if estimator == "trace":  # one 256x256 reduced state per sample
            run = lambda: mc_trace_distance(spec, Region.full(n), 2, cfg)
            output = 8 * samples
        else:  # one 256x256 second moment per sample
            run = lambda: mc_design_distance(spec, Region.of(range(4), n), 2, 2, cfg)
            output = 4 * 16 * 256**2
        states = 4 * 16 * 2**n * samples
        # allocations of a first call that later calls reuse
        mc_trace_distance(spec, Region.of([0], n), 1, OracleConfig(seed=1, samples=2, d=2, n=n))
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= oracle._REDUCE_BYTES + output + states


class TestChunkBudget:
    """A chunk is sized by every byte a sample holds: its state with the working
    copies, its generator, its region pick, and its step's Gaussians.  Each range
    of a split is chunked against its share of _CHUNK_BYTES by sample count,
    _CHUNK_BYTES * (hi - lo) // samples.

    tracemalloc sees one process only, so the estimators run in one process
    here, and a process's share is measured by simulating its range in this one.
    """

    @staticmethod
    def assert_peak_within_budget(monkeypatch, structure, policy):
        from lrqc import oracle
        n, samples, k = 5, 600, 3
        spec = EnsembleSpec(structure, policy, 2)
        cfg = OracleConfig(seed=1, samples=samples, d=2, n=n)
        region = Region.of([0, 1], n)
        force_processes(monkeypatch, 1)
        # allocations of a first call that later calls reuse
        mc_purity_trajectory(spec, region, 1, OracleConfig(seed=1, samples=2, d=2, n=n))
        monkeypatch.setattr("lrqc.oracle._CHUNK_BYTES", 1 << 18)
        assert len(list(oracle._chunks(cfg, 0, 0, samples))) >= 10
        tracemalloc.start()
        try:
            mc_purity_trajectory(spec, region, k, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= oracle._CHUNK_BYTES + 8 * (k + 1) * samples  # budget plus the output
        # the larger process of two: its range against half the budget
        lo, hi = oracle._ranges(samples, 2)[-1]
        assert len(list(oracle._chunks(cfg, 0, lo, hi))) >= 10
        out = np.empty((k + 1, hi - lo))
        tracemalloc.start()
        try:
            for j, states, first, _ in oracle._simulate(spec, k, cfg, lo, hi):
                out[j, first - lo:first - lo + states.shape[0]] = oracle._purity_batch(
                    states, region.sites(), n, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= oracle._CHUNK_BYTES // 2 + out.nbytes

    def test_sweep_peak_within_budget(self, monkeypatch):
        self.assert_peak_within_budget(monkeypatch, complete_structure(5),
                                       CorrelatedSweep(tuple(range(10))))

    @pytest.mark.parametrize("policy", [
        Uncorrelated(), Markov((0.25,) * 4, ((0.5, 0.5, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25),
                                              (0.0, 0.5, 0.5, 0.0), (0.0, 0.0, 0.5, 0.5)))])
    def test_drawn_peak_within_budget(self, monkeypatch, policy):
        # a drawn step also holds each sample's uniform, its gathered weights and its pick
        self.assert_peak_within_budget(monkeypatch, path_structure(5), policy)

    @pytest.mark.parametrize("structure, samples, policy", [
        (path_structure(12), 300, Uncorrelated()),
        (path_structure(5), 10000, Uncorrelated()),
        (complete_structure(5), 5000, CorrelatedSweep(tuple(range(10)))),
    ])
    def test_default_budget_keeps_one_chunk(self, monkeypatch, structure, samples, policy):
        from lrqc import oracle
        chunks, extras, real = [], [], oracle._chunks

        def recorded(cfg, extra, lo, hi):
            extras.append(extra)
            chunks.extend(real(cfg, extra, lo, hi))
            return iter(chunks)
        monkeypatch.setattr("lrqc.oracle._chunks", recorded)
        force_processes(monkeypatch, 1)
        n = structure.n
        cfg = OracleConfig(seed=1, samples=samples, d=2, n=n)
        mc_purity_trajectory(EnsembleSpec(structure, policy, 2), Region.of([0, 1], n), 1, cfg)
        assert chunks == [(0, samples)]
        # each process's range is one chunk, for every process count up to the cores here
        for processes in range(2, len(os.sched_getaffinity(0)) + 2):
            for lo, hi in oracle._ranges(samples, processes):
                assert list(real(cfg, extras[0], lo, hi)) == [(lo, hi)]

    @pytest.mark.parametrize("samples", [3, 7, 300])
    def test_range_shares_keep_one_chunk(self, monkeypatch, samples):
        """With a budget of exactly the run's bytes, each range of every split is one chunk,
        and one byte less cuts each range of two or more samples."""
        from lrqc import oracle
        cfg, extra = OracleConfig(seed=1, samples=samples, d=2, n=5), 100
        per_sample = oracle._GENERATOR_BYTES + 5 * 16 * 2**5 + extra
        counts = range(1, min(samples, len(os.sched_getaffinity(0)) + 1) + 1)
        for budget, whole in ((samples * per_sample, True), (samples * per_sample - 1, False)):
            monkeypatch.setattr("lrqc.oracle._CHUNK_BYTES", budget)
            for processes in counts:
                for lo, hi in oracle._ranges(samples, processes):
                    one = list(oracle._chunks(cfg, extra, lo, hi)) == [(lo, hi)]
                    assert one == (whole or hi - lo == 1), (budget, processes, lo, hi)


# ---------------------------------------------------------------------------
# Sample ranges across processes
# ---------------------------------------------------------------------------

class TestProcessCount:
    """The process count and the ranges it cuts; TestEnginePinnedToReference checks that
    the estimators' values do not depend on it."""

    def test_count_is_capped_by_cores_samples_and_work(self):
        from lrqc import oracle
        cores = len(os.sched_getaffinity(0))
        assert oracle._processes(10**6, 10**15) == cores
        assert oracle._processes(2, 10**15) == min(cores, 2)
        assert oracle._processes(10**6, oracle._FORK_WORK - 1) == 1
        assert oracle._processes(10**6, 2 * oracle._FORK_WORK) == min(cores, 2)
        assert oracle._processes(10**6, 0) == 1

    @pytest.mark.parametrize("samples", [2, 3, 7, 300])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_ranges_cut_the_samples(self, samples, count):
        from lrqc import oracle
        ranges = oracle._ranges(samples, count)
        assert len(ranges) == count
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == samples
        assert max(hi - lo for lo, hi in ranges) - min(hi - lo for lo, hi in ranges) <= 1


class TestProcessHygiene:
    """Every child is joined, on success and on failure, and BLAS threads are restored."""

    spec = EnsembleSpec(path_structure(4), Uncorrelated(), 2)
    cfg = OracleConfig(seed=3, samples=40, d=2, n=4)

    @staticmethod
    def blas_threads():
        from lrqc import oracle
        control = oracle._blas_control()
        return None if control is None else control[0]()

    def test_no_child_after_return(self, monkeypatch):
        import multiprocessing
        before = self.blas_threads()
        force_processes(monkeypatch, 3)
        mc_purity_trajectory(self.spec, Region.of([0], 4), 3, self.cfg)
        assert multiprocessing.active_children() == []
        assert self.blas_threads() == before

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_no_child_after_a_raise(self, monkeypatch, where):
        import multiprocessing
        from lrqc import oracle
        parent, real = os.getpid(), oracle._purity_batch

        def failing(states, sites, n, d):
            if (os.getpid() == parent) == (where == "parent"):
                raise CapExceeded(f"raised in the {where}")
            return real(states, sites, n, d)
        monkeypatch.setattr("lrqc.oracle._purity_batch", failing)
        before = self.blas_threads()
        force_processes(monkeypatch, 3)
        with pytest.raises(CapExceeded, match=f"raised in the {where}"):
            mc_purity_trajectory(self.spec, Region.of([0], 4), 3, self.cfg)
        assert multiprocessing.active_children() == []
        assert self.blas_threads() == before

    def test_child_that_dies_is_named(self, monkeypatch):
        """A child that exits without sending its result is reported with its range and exit
        code, and is joined, with BLAS threads restored."""
        import multiprocessing
        from lrqc import oracle
        if oracle._blas_control() is None:
            pytest.skip("no OpenBLAS thread control, so nothing forks")
        parent, real = os.getpid(), oracle._purity_batch

        def dying(states, sites, n, d):
            if os.getpid() != parent:
                os._exit(3)
            return real(states, sites, n, d)
        monkeypatch.setattr("lrqc.oracle._purity_batch", dying)
        before = self.blas_threads()
        force_processes(monkeypatch, 2)
        with pytest.raises(RuntimeError) as info:
            mc_purity_trajectory(self.spec, Region.of([0], 4), 3, self.cfg)
        assert str(info.value) == ("the process simulating samples [20, 40) ended without a "
                                   "result, exit code 3")
        assert multiprocessing.active_children() == []
        assert self.blas_threads() == before

    def test_design_distance_never_forks(self, monkeypatch):
        import multiprocessing
        from lrqc import oracle
        region = Region.of([0, 1], 4)
        force_processes(monkeypatch, 1)
        want = mc_design_distance(self.spec, region, 3, 2, self.cfg)

        def refuse(*args):
            raise AssertionError("the design distance forked")
        monkeypatch.setattr("lrqc.oracle._forked", refuse)
        force_processes(monkeypatch, 3)
        assert oracle._processes(self.cfg.samples, 0) == 3
        assert mc_design_distance(self.spec, region, 3, 2, self.cfg) == want
        assert multiprocessing.active_children() == []

    def test_ranges_run_with_one_blas_thread(self, monkeypatch):
        """The parent's range and the child's each run with one BLAS thread, whatever the
        caller's count, which is restored afterwards."""
        from lrqc import oracle
        control = oracle._blas_control()
        if control is None:
            pytest.skip("no OpenBLAS thread control")
        get_threads, set_threads = control
        real = oracle._purity_batch

        def checked(states, sites, n, d):  # a child's AssertionError reaches here by its pipe
            assert get_threads() == 1, f"{get_threads()} BLAS threads in process {os.getpid()}"
            return real(states, sites, n, d)
        monkeypatch.setattr("lrqc.oracle._purity_batch", checked)
        force_processes(monkeypatch, 2)
        before = get_threads()
        set_threads(2)
        try:
            mc_purity_trajectory(self.spec, Region.of([0], 4), 3, self.cfg)
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_without_blas_control_one_process_runs(self, monkeypatch, caplog):
        import logging
        import multiprocessing
        force_processes(monkeypatch, 1)
        want = mc_purity_trajectory(self.spec, Region.of([0], 4), 3, self.cfg)
        monkeypatch.setattr("lrqc.oracle._blas_control", lambda: None)
        force_processes(monkeypatch, 2)
        with caplog.at_level(logging.DEBUG, logger="lrqc"):
            got = mc_purity_trajectory(self.spec, Region.of([0], 4), 3, self.cfg)
        assert got == want
        assert multiprocessing.active_children() == []
        assert [r.getMessage() for r in caplog.records] == [
            "oracle: 1 process over sample ranges [0, 40), BLAS thread control not found, "
            "children's peak RSS none"]
