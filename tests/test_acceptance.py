"""End-to-end acceptance checks, one per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion 9 is split: the literal monotone-increase clause of
9b cannot hold (the sweep gap decreases with L, falls below 0.36 from L = 12
and keeps falling, and no edge ordering reverses the trend; see the assertion
message), so 9b is an expected failure kept red on purpose rather than weakened.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from lrqc import (CorrelatedSweep, EnsembleSpec, LocalStructure, Markov,
                  OracleConfig, PathParams, Region, SwapVector, Uncorrelated,
                  alpha_coefficients, apply_local, build_swap_matrix,
                  complement_involution, complete_structure,
                  connected_components, contract_factorized, entangling_power,
                  exact_first_moment_map, exact_second_moment_projection,
                  first_moment_convergence_bound, fixed_space_dimension,
                  mc_average_purity, mc_design_distance, mc_purity_trajectory,
                  path_structure, purity_exact, purity_infinity,
                  purity_trajectory, reduced_matrix, spectral_gap_1d,
                  spectral_gap_swap, spectrum, swap_constant, sym_diff,
                  t_design_delta)
from lrqc.cli import main as cli_main

BASE_SEED = 20250809
GRID_SAMPLES = 10_000


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def _nearest_neighbour_markov(structure):
    m = len(structure.regions)
    rows = []
    for i in range(m):
        adj = [0.0 if (structure.regions[i] & structure.regions[j]).is_empty else 1.0
               for j in range(m)]
        total = sum(adj)
        rows.append(tuple(a / total for a in adj))
    return Markov(tuple(1.0 / m for _ in range(m)), tuple(rows))


def test_criterion_1_swap_vs_oracle_grid():
    start = time.time()
    k_max = 8
    violations = []
    points = 0
    combo = 0
    for n in (3, 4, 5):
        initial = Region.of(range(max(1, n // 2)), n)
        for build in (path_structure, complete_structure):
            structure = build(n)
            policies = {
                "uncorrelated": Uncorrelated(),
                "markov": _nearest_neighbour_markov(structure),
                "sweep": CorrelatedSweep(tuple(range(len(structure.regions)))),
            }
            for label, policy in policies.items():
                combo += 1
                spec = EnsembleSpec(structure, policy, 2)
                cfg = OracleConfig(seed=BASE_SEED + combo, samples=GRID_SAMPLES, d=2, n=n)
                exact = purity_trajectory(initial, spec, k_max)
                estimates = mc_purity_trajectory(spec, initial, k_max, cfg)
                for k in range(1, k_max + 1):
                    points += 1
                    est = estimates[k]
                    if abs(est.mean - exact[k]) > 3 * est.stderr:
                        violations.append((n, build.__name__, label, k,
                                           (est.mean - exact[k]) / est.stderr))
    elapsed = time.time() - start
    allowed = points - math.ceil(0.99 * points)
    ok = len(violations) <= allowed and elapsed <= 600
    assert _report(1, "swap-vs-oracle equivalence grid", ok,
                   f"({points - len(violations)}/{points} within 3*stderr, "
                   f"allowance {allowed}, {elapsed:.0f}s; outliers {violations})")


def test_criterion_2_single_gate_constant():
    spec = EnsembleSpec(LocalStructure(2, (Region.of([0, 1], 2),)), Uncorrelated(), 2)
    cfg = OracleConfig(seed=BASE_SEED, samples=10_000, d=2, n=2)
    est = mc_average_purity(spec, Region.of([0], 2), 1, cfg)
    ok = abs(est.mean - 0.8) <= 3 * est.stderr
    assert _report(2, "single-gate purity constant 2d/(d^2+1)", ok,
                   f"(mc {est.mean:.5f} +- {est.stderr:.5f}, target 0.8)")


def test_criterion_3_chain_formula_vs_matrix_power():
    worst = 0.0
    for length in range(2, 13):
        mat = reduced_matrix(PathParams(length, 2, 0))
        for l in range(1, length):
            params = PathParams(length, 2, l)
            vec = np.zeros(length + 1)
            vec[l] = 1.0
            for k in range(201):
                worst = max(worst, abs(purity_exact(params, k) - vec.sum()))
                vec = mat @ vec
    ok = worst <= 1e-10
    assert _report(3, "exact chain formula vs matrix-power oracle", ok,
                   f"(max deviation {worst:.2e}, L<=12, k<=200)")


def test_criterion_4_short_time_tightness():
    worst = 0.0
    for length in (6, 8, 10):
        for d in (2, 3):
            rate = 1.0 - entangling_power(d) / (length - 1)
            for l in range(1, length):
                params = PathParams(length, d, l)
                for k in range(min(l, length - l) + 1):
                    worst = max(worst, abs(rate**k - purity_exact(params, k)))
    ok = worst <= 1e-12
    assert _report(4, "short-time product formula tightness", ok,
                   f"(max deviation {worst:.2e})")


def test_criterion_5_chain_spectrum_and_gap():
    worst = 0.0
    ok_bound = True
    for length in range(2, 17):
        for d in (2, 3, 4, 5):
            params = PathParams(length, d, 0)
            closed = np.sort(spectrum(params).eigenvalues)
            numerical = np.sort(np.linalg.eigvals(reduced_matrix(params)).real)
            worst = max(worst, float(np.max(np.abs(closed - numerical))))
            gap = spectral_gap_1d(params)
            formula = (1 - 2 * swap_constant(d) * math.cos(math.pi / length)) / (length - 1)
            worst = max(worst, abs(gap - formula))
            ok_bound &= gap >= entangling_power(d) / length
    ok = worst <= 1e-10 and ok_bound
    assert _report(5, "chain spectrum and spectral gap", ok,
                   f"(max deviation {worst:.2e}, lower bound held {ok_bound})")


def _converge(initial, spec, p_inf, tol=1e-8, k_cap=5000):
    from lrqc import apply_step
    v = SwapVector.single(initial)
    for k in range(1, k_cap + 1):
        v = apply_step(v, spec)
        if abs(contract_factorized(v) - p_inf) <= tol:
            return k
    return None


def test_criterion_6_fixed_point_purity():
    failures = []
    two_blocks = LocalStructure(7, (Region.of([0, 1], 7), Region.of([1, 2], 7),
                                    Region.of([4, 5], 7), Region.of([5, 6], 7)))
    cases = [
        (path_structure(6), Region.of([0, 1], 6)),
        (path_structure(8), Region.of([0, 1, 2, 3], 8)),
        (complete_structure(5), Region.of([0, 1], 5)),
        (two_blocks, Region.of([0, 4], 7)),
        (two_blocks, Region.of([0, 3], 7)),
    ]
    for structure, initial in cases:
        p_inf = purity_infinity(initial, structure, 2)
        spec = EnsembleSpec(structure, Uncorrelated(), 2)
        if _converge(initial, spec, p_inf) is None:
            failures.append(("uncorrelated", structure.n, initial.sites()))
    st6 = path_structure(6)
    initial = Region.of([0, 1, 2], 6)
    p_inf = purity_infinity(initial, st6, 2)
    for order in [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3), (1, 4, 0, 3, 2)]:
        spec = EnsembleSpec(st6, CorrelatedSweep(order), 2)
        if _converge(initial, spec, p_inf) is None:
            failures.append(("sweep", order))
    ok = not failures
    assert _report(6, "long-time purity reaches the fixed-point value", ok,
                   f"(failures {failures})")


def test_criterion_7_fixed_space_dimensions():
    failures = []

    def measured(n, regions):
        spec = EnsembleSpec(LocalStructure(n, regions), Uncorrelated(), 2)
        return fixed_space_dimension(build_swap_matrix(spec))

    for n in range(4, 9):
        for size in (1, 2, 3):
            region = Region.of(range(size), n)
            if measured(n, (region,)) != 2 ** (n - size + 1):
                failures.append(("single", n, size))
        a, b = Region.of([0, 1], n), Region.of([2, 3], n)
        if measured(n, (a, b)) != 4 * 2 ** (n - 4):
            failures.append(("disjoint", n))
        a, b = Region.of([0, 1], n), Region.of([1, 2], n)
        if measured(n, (a, b)) != 2 ** (n - 3 + 1):
            failures.append(("overlap", n))
        if measured(n, path_structure(n).regions) != 2:
            failures.append(("covering", n))
    blocks = (Region.of([0, 1], 7), Region.of([1, 2], 7),
              Region.of([4, 5], 7), Region.of([5, 6], 7))
    decomp = connected_components(LocalStructure(7, blocks))
    predicted = 2 ** len(decomp.components) * 2 ** decomp.residual.size
    if measured(7, blocks) != predicted:
        failures.append(("two-component", predicted))
    ok = not failures
    assert _report(7, "fixed-space dimension predictions", ok, f"(failures {failures})")


def test_criterion_8_first_moment_suite():
    rng = np.random.default_rng(BASE_SEED)
    worst_merge = 0.0
    for a, b in [((0, 1), (1, 2)), ((0, 1, 2), (2, 3)), ((1, 2), (0, 1, 2))]:
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        ra, rb = Region.of(a, 4), Region.of(b, 4)
        lhs = exact_first_moment_map(exact_first_moment_map(x, rb, 2), ra, 2)
        rhs = exact_first_moment_map(x, ra | rb, 2)
        worst_merge = max(worst_merge, float(np.max(np.abs(lhs - rhs))))

    instances = [
        (LocalStructure(3, (Region.of([0, 1], 3), Region.of([1, 2], 3))), 0.5),
        (path_structure(4), 1.0 / 3.0),
    ]
    bound_held = True
    converged = True
    for structure, q_min in instances:
        n = structure.n
        dim = 2**n
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x /= np.linalg.norm(x)
        omega = np.zeros((dim, dim), dtype=complex)
        omega[0, 0] = 1.0
        phi_inf = np.trace(x) / dim
        weights = structure.weight_vector()
        for eps in (1e-4, 1e-8):
            k_star = math.ceil(first_moment_convergence_bound(
                1.0, 1.0, eps, q_min, len(structure.regions)).value)
            y = x.copy()
            steps = None
            for k in range(1, k_star + 1):
                y = sum(q * exact_first_moment_map(y, region, 2)
                        for q, region in zip(weights, structure.regions))
                if abs(np.trace(omega.conj().T @ y) - phi_inf) <= eps:
                    steps = k
                    break
            if steps is None:
                bound_held = False
        y = x.copy()
        for _ in range(100):
            y = sum(q * exact_first_moment_map(y, region, 2)
                    for q, region in zip(weights, structure.regions))
        if np.max(np.abs(y - np.trace(x) / dim * np.eye(dim))) > 1e-8:
            converged = False
    ok = worst_merge <= 1e-12 and bound_held and converged
    assert _report(8, "first-moment merge, convergence and crude bound", ok,
                   f"(merge deviation {worst_merge:.2e}, bound held {bound_held}, "
                   f"limit reached {converged})")


@pytest.fixture(scope="module")
def sweep_gap_trend():
    gaps = {}
    for n in range(4, 11):
        spec = EnsembleSpec(path_structure(n), CorrelatedSweep(tuple(range(n - 1))), 2)
        gaps[n] = spectral_gap_swap(spec)
    return gaps


def test_criterion_9a_sweep_gap_limit(sweep_gap_trend):
    limit = 1.0 - (2 * swap_constant(2)) ** 2
    deviation = abs(sweep_gap_trend[10] - limit)
    ok = deviation <= 0.08
    assert _report("9a", "expanding-sweep gap near the 0.36 edge-model limit", ok,
                   f"(gap(L=10) = {sweep_gap_trend[10]:.4f}, |dev| = {deviation:.4f})")


def test_criterion_9b_sweep_gap_monotone_increasing(sweep_gap_trend):
    values = [sweep_gap_trend[n] for n in range(4, 11)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    _report("9b", "expanding-sweep gap monotone increasing in L", increasing,
            f"(gaps {['%.4f' % v for v in values]})")
    assert increasing, (
        "The sweep gap decreases with L: it passes 1-(2N_d)^2 = 0.36 between L=10 and "
        "L=12 and keeps falling (README). The computed gaps over L=4..10 are "
        f"{['%.4f' % v for v in values]}, strictly decreasing. "
        "Exhaustive enumeration of every edge order at L=4..7 shows the largest gap at "
        "L=7 (0.4033) is already below the smallest at L=4 (0.4343), so no order "
        "assignment can make the trend increase; the limit clause is covered by 9a.")


def test_criterion_10_algebraic_property_suite():
    # group law, exhaustive on 6 sites
    full = (1 << 6) - 1
    group_ok = True
    for a in range(64):
        for b in range(64):
            if (a ^ b) != (b ^ a) or (a ^ a) != 0 or (a ^ 0) != a:
                group_ok = False
            for c in range(64):
                if ((a ^ b) ^ c) != (a ^ (b ^ c)):
                    group_ok = False
    rng = np.random.default_rng(BASE_SEED + 1)
    for _ in range(1000):
        ma, mb, mc = (int(x) for x in rng.integers(0, 1 << 16, size=3))
        a, b, c = Region(ma, 16), Region(mb, 16), Region(mc, 16)
        if sym_diff(a, b) != sym_diff(b, a) or \
           sym_diff(sym_diff(a, b), c) != sym_diff(a, sym_diff(b, c)):
            group_ok = False

    # idempotence of every local map on random vectors
    idem_ok = True
    st = path_structure(6)
    for _ in range(200):
        terms = {Region(int(m), 6): float(rng.uniform(0.05, 1.0))
                 for m in rng.integers(0, 64, size=6)}
        v = SwapVector(6, terms)
        local = st.regions[int(rng.integers(0, 5))]
        once = apply_local(v, local, 2)
        twice = apply_local(once, local, 2)
        for r in set(once.terms) | set(twice.terms):
            if abs(once.terms.get(r, 0.0) - twice.terms.get(r, 0.0)) > 1e-12:
                idem_ok = False

    # positivity of branch weights
    alpha_ok = True
    for a_size, b_size, d in itertools.product(range(1, 7), range(1, 7), (2, 3, 4, 5)):
        n = a_size + b_size + 1
        ap, am = alpha_coefficients(Region.of(range(b_size), n),
                                    Region.of(range(a_size + b_size), n), d)
        if not (0 < ap < 1 and 0 < am < 1):
            alpha_ok = False

    # complement involution commutes with every local map, exhaustive 4 sites
    comm_ok = True
    locals4 = [Region.of(s, 4) for s in ([0, 1], [1, 2], [2, 3], [0, 1, 2], [3])]
    for mask in range(16):
        v = SwapVector.single(Region(mask, 4))
        for local in locals4:
            lhs = complement_involution(apply_local(v, local, 2))
            rhs = apply_local(complement_involution(v), local, 2)
            for r in set(lhs.terms) | set(rhs.terms):
                if abs(lhs.terms.get(r, 0.0) - rhs.terms.get(r, 0.0)) > 1e-12:
                    comm_ok = False
    for _ in range(200):
        v = SwapVector.single(Region(int(rng.integers(0, 1 << 10)), 10))
        sites = sorted(rng.choice(10, size=2, replace=False))
        local = Region.of(sites, 10)
        lhs = complement_involution(apply_local(v, local, 2))
        rhs = apply_local(complement_involution(v), local, 2)
        for r in set(lhs.terms) | set(rhs.terms):
            if abs(lhs.terms.get(r, 0.0) - rhs.terms.get(r, 0.0)) > 1e-12:
                comm_ok = False

    # unital and trace-preserving moment projections
    proj_ok = True
    x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    region = Region.of([0, 2], 3)
    first = exact_first_moment_map(x[:8, :8], region, 2)
    if abs(np.trace(first) - np.trace(x[:8, :8])) > 1e-12:
        proj_ok = False
    if np.max(np.abs(exact_first_moment_map(np.eye(8), region, 2) - np.eye(8))) > 1e-12:
        proj_ok = False
    second = exact_second_moment_projection(x, region, 2)
    if abs(np.trace(second) - np.trace(x)) > 1e-12:
        proj_ok = False
    if np.max(np.abs(exact_second_moment_projection(np.eye(64), region, 2) - np.eye(64))) > 1e-12:
        proj_ok = False

    ok = group_ok and idem_ok and alpha_ok and comm_ok and proj_ok
    assert _report(10, "algebraic property suite", ok,
                   f"(group {group_ok}, idempotence {idem_ok}, positivity {alpha_ok}, "
                   f"involution {comm_ok}, projections {proj_ok})")


def test_criterion_11_design_distance_bound():
    n, d = 6, 2
    region = Region.of([0, 1], n)
    structure = path_structure(n)
    spec = EnsembleSpec(structure, Uncorrelated(), d)
    k = 150
    traj = purity_trajectory(region, spec, k)
    epsilon = abs(traj[k] - purity_infinity(region, structure, d))
    delta = t_design_delta(region.size, alpha=1.0, t=1, d=d, epsilon=epsilon).value
    cfg = OracleConfig(seed=BASE_SEED + 99, samples=2000, d=d, n=n)
    result = mc_design_distance(spec, region, k, 1, cfg)
    ok = result.value <= delta
    assert _report(11, "deep-circuit local design distance within bound", ok,
                   f"(distance {result.value:.4f} +- ({result.circuit_err:.4f}, "
                   f"{result.haar_err:.4f}) <= delta {delta:.4f}, measured eps {epsilon:.2e})")


def test_criterion_12_cli_reproducibility(tmp_path):
    out = tmp_path / "run.csv"
    cfg = {
        "model": {"n": 4, "d": 2, "regions": [[0, 1], [1, 2], [2, 3]]},
        "policy": {"kind": "sweep", "order": "expanding"},
        "run": {"initial_region": [0, 1], "k_max": 4, "seed": 31, "samples": 400},
        "output": {"path": str(out), "format": "csv"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["oracle", "--config", str(cfg_path)]) == 0
    first = out.read_bytes()
    assert cli_main(["oracle", "--config", str(cfg_path)]) == 0
    ok = out.read_bytes() == first
    json_out = tmp_path / "run.json"
    assert cli_main(["oracle", "--config", str(cfg_path), "--out", str(json_out),
                     "--format", "json"]) == 0
    first_json = json_out.read_bytes()
    assert cli_main(["oracle", "--config", str(cfg_path), "--out", str(json_out),
                     "--format", "json"]) == 0
    ok = ok and json_out.read_bytes() == first_json
    assert _report(12, "CLI byte-identical reruns", ok)
