import csv
import json
import logging
import math
import os
import re
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lrqc
from lrqc import (CorrelatedSweep, EnsembleSpec, LocalStructure, PathParams, Region,
                  Uncorrelated, __version__, build_swap_matrix, complete_structure,
                  fixed_space_dimension, spectral_gap_1d, spectral_gap_swap)
from lrqc.cli import COMMANDS, _fixcheck_rows, main, read_metadata_config
from lrqc.swapcore import TRAJECTORY_MAX_STAGES


def run_cli(tmp_path, command, config, name="cfg.json", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), *extra])


def base_config(out, **overrides):
    cfg = {
        "model": {"n": 5, "d": 2, "regions": [[0, 1], [1, 2], [2, 3], [3, 4]]},
        "policy": {"kind": "uncorrelated"},
        "run": {"initial_region": [0, 1], "k_max": 3, "seed": 7, "samples": 300},
        "output": {"path": out, "format": "csv"},
    }
    for key, value in overrides.items():
        cfg[key].update(value)
    return cfg


def read_csv(path):
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    parsed = list(csv.reader(rows))
    header = parsed[0]
    return header, parsed[1:]


class TestEvolve:
    def test_rows_and_values(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert run_cli(tmp_path, "evolve", base_config(str(out))) == 0
        header, rows = read_csv(out)
        assert header == ["k", "P_k", "P_infinity"]
        assert rows[0][0] == "0" and float(rows[0][1]) == 1.0
        assert float(rows[1][1]) == pytest.approx(0.95, abs=1e-12)
        p_inf = (2**2 + 2**3) / (2**5 + 1)
        assert float(rows[0][2]) == pytest.approx(p_inf, abs=1e-15)

    def test_area_law_column_dominates(self, tmp_path):
        out = tmp_path / "evolve.csv"
        cfg = base_config(str(out), run={"area_law": True, "k_max": 5})
        assert run_cli(tmp_path, "evolve", cfg) == 0
        header, rows = read_csv(out)
        assert header[-1] == "area_law_bound"
        for row in rows:
            assert float(row[3]) >= float(row[1]) - 1e-12

    @pytest.mark.parametrize("flag", ["no", 1])
    def test_area_law_must_be_a_boolean(self, tmp_path, capsys, flag):
        out = tmp_path / "evolve.csv"
        assert run_cli(tmp_path, "evolve", base_config(str(out), run={"area_law": flag})) == 2
        assert "run.area_law" in capsys.readouterr().err
        assert not out.exists()

    def test_area_law_false_adds_no_column(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert run_cli(tmp_path, "evolve", base_config(str(out), run={"area_law": False})) == 0
        assert read_csv(out)[0] == ["k", "P_k", "P_infinity"]

    def test_area_law_ignores_zero_weight_regions(self, tmp_path):
        # only the last edge is ever drawn, so neither P_k nor the bound leaves 1
        out = tmp_path / "evolve.csv"
        cfg = base_config(str(out), model={"weights": [0, 0, 0, 1]},
                          run={"initial_region": [0], "k_max": 4, "area_law": True})
        assert run_cli(tmp_path, "evolve", cfg) == 0
        header, rows = read_csv(out)
        assert header[-1] == "area_law_bound"
        assert all(float(row[1]) == float(row[3]) == 1.0 for row in rows)

    def test_area_law_rejects_step_weights(self, tmp_path, capsys):
        # every step's weight on {0,1} keeps P_1 = 1, above the bound 0.9333 that the
        # model's uniform weights give
        out = tmp_path / "evolve.csv"
        cfg = base_config(str(out), model={"n": 4, "regions": [[0, 1], [1, 2], [2, 3]]},
                          policy={"step_weights": [[1.0, 0.0, 0.0]] * 3},
                          run={"area_law": True})
        assert run_cli(tmp_path, "evolve", cfg) == 2
        assert "step_weights" in capsys.readouterr().err
        assert not out.exists()

    def test_area_law_cap_exits_3_before_the_trajectory(self, tmp_path, capsys, monkeypatch):
        def trajectory(*args):
            raise AssertionError("the trajectory ran before the area-law enumeration")
        monkeypatch.setattr("lrqc.cli.purity_trajectory", trajectory)
        n = 17
        out = tmp_path / "evolve.csv"
        cfg = base_config(str(out), model={"n": n, "regions": [[i, i + 1] for i in range(n - 1)]},
                          run={"initial_region": list(range(0, n, 2)), "k_max": 40,
                               "area_law": True})
        assert run_cli(tmp_path, "evolve", cfg) == 3
        assert "65536" in capsys.readouterr().err
        assert not out.exists()

    def test_area_law_byte_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("lrqc.swapcore._ENUMERATION_BYTES", 320)
        out = tmp_path / "evolve.csv"
        cfg = base_config(str(out), model={"n": 6, "regions": [[i, i + 1] for i in range(5)]},
                          run={"initial_region": [0, 2, 4], "k_max": 3, "area_law": True})
        assert run_cli(tmp_path, "evolve", cfg) == 3
        err = capsys.readouterr().err
        assert "needs 1920 bytes" in err and "budget of 320 bytes" in err
        assert not out.exists()

    def test_area_law_past_the_float_range_of_its_exp_form(self, tmp_path):
        # from k = 700 the unwritten exponential form exceeds a float
        n = 8
        out = tmp_path / "evolve.csv"
        cfg = base_config(str(out), model={"n": n, "regions": [[i, i + 1] for i in range(n - 1)]},
                          run={"initial_region": [0, 2, 4, 6], "k_max": 700, "area_law": True})
        assert run_cli(tmp_path, "evolve", cfg) == 0
        header, rows = read_csv(out)
        assert header[-1] == "area_law_bound" and len(rows) == 701
        assert math.isfinite(float(rows[-1][-1]))

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_output_mode_follows_the_umask(self, tmp_path, umask, mode):
        out = tmp_path / "evolve.csv"
        old = os.umask(umask)
        try:
            assert run_cli(tmp_path, "evolve", base_config(str(out))) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_large_local_dimension_has_a_finite_p_infinity(self, tmp_path):
        # d^40 = 1e320 overflows a float; the integer ratio is 2e-160
        n = 40
        out = tmp_path / "evolve.csv"
        cfg = base_config(str(out), model={"n": n, "d": 10**8,
                                           "regions": [[i, i + 1] for i in range(n - 1)]},
                          run={"initial_region": list(range(20)), "k_max": 2})
        assert run_cli(tmp_path, "evolve", cfg) == 0
        _, rows = read_csv(out)
        assert [float(row[2]) for row in rows] == [2e-160] * 3

    def test_byte_identical_rerun(self, tmp_path):
        out = tmp_path / "evolve.csv"
        cfg = base_config(str(out))
        assert run_cli(tmp_path, "evolve", cfg) == 0
        first = out.read_bytes()
        assert run_cli(tmp_path, "evolve", cfg) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_config_round_trip(self, tmp_path, fmt):
        out = tmp_path / f"evolve.{fmt}"
        cfg = base_config(str(out), output={"format": fmt})
        assert run_cli(tmp_path, "evolve", cfg) == 0
        assert read_metadata_config(str(out)) == cfg

    def test_json_format(self, tmp_path):
        out = tmp_path / "evolve.json"
        cfg = base_config(str(out), output={"path": str(out), "format": "json"})
        assert run_cli(tmp_path, "evolve", cfg) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"]["k"] == [0, 1, 2, 3]
        assert payload["metadata"]["config"]["model"]["n"] == 5


class TestPath1d:
    def test_spectrum_and_gap_columns(self, tmp_path):
        out = tmp_path / "chain.csv"
        cfg = {
            "model": {"n": 3, "d": 2},
            "policy": {"kind": "uncorrelated"},
            "run": {"initial_region": [0], "k_max": 5},
            "output": {"path": str(out), "format": "csv"},
        }
        assert run_cli(tmp_path, "path1d", cfg) == 0
        header, rows = read_csv(out)
        eigen = [float(r[1]) for r in rows if r[1]]
        assert eigen == pytest.approx([1.0, 0.7, 0.3, 1.0], abs=1e-12)
        assert all(float(r[2]) == pytest.approx(0.3, abs=1e-12) for r in rows)
        valid = [r[5] for r in rows if r[5]]
        assert valid == ["true", "true", "false", "false", "false", "false"]

    def test_cut_override(self, tmp_path):
        out = tmp_path / "chain.csv"
        cfg = {
            "model": {"n": 6, "d": 2},
            "policy": {"kind": "uncorrelated"},
            "run": {"cut": 3, "k_max": 2},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "path1d", cfg) == 0

    def test_non_prefix_region_rejected(self, tmp_path):
        out = tmp_path / "chain.csv"
        cfg = {
            "model": {"n": 6, "d": 2},
            "policy": {"kind": "uncorrelated"},
            "run": {"initial_region": [1, 2], "k_max": 2},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "path1d", cfg) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["path1d", "evolve"])
    def test_negative_k_max_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "chain.csv"
        cfg = base_config(str(out), model={"n": 6, "regions": [[0, 1], [1, 2]]},
                          run={"k_max": -1})
        assert run_cli(tmp_path, command, cfg) == 2
        assert "k_max must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestGap:
    def test_uncorrelated_matches_chain_formula(self, tmp_path):
        out = tmp_path / "gap.csv"
        cfg = {
            "model": {"n": 4, "d": 2, "family": {"kind": "path", "sizes": [3, 4, 5]}},
            "policy": {"kind": "uncorrelated"},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "gap", cfg) == 0
        _, rows = read_csv(out)
        for row in rows:
            n = int(row[0])
            assert float(row[3]) == pytest.approx(spectral_gap_1d(PathParams(n, 2, 0)),
                                                  abs=1e-10)

    def test_single_region_gap_one(self, tmp_path):
        out = tmp_path / "gap.csv"
        cfg = {
            "model": {"n": 3, "d": 2, "regions": [[0, 1, 2]]},
            "policy": {"kind": "uncorrelated"},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "gap", cfg) == 0
        _, rows = read_csv(out)
        assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-10)

    def test_sweep_labels(self, tmp_path):
        out = tmp_path / "gap.csv"
        cfg = {
            "model": {"n": 4, "d": 2, "family": {"kind": "path", "sizes": [4, 5]}},
            "policy": {"kind": "sweep", "order": "expanding"},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "gap", cfg) == 0
        _, rows = read_csv(out)
        assert all(row[1] == "sweep" and row[2] == "expanding" for row in rows)

    @pytest.mark.parametrize("order, permutation, label", [
        ("reversed", (3, 2, 1, 0), "reversed"),
        ([2, 0, 3, 1], (2, 0, 3, 1), "2,0,3,1"),
    ], ids=["reversed", "explicit"])
    def test_sweep_orders(self, tmp_path, order, permutation, label):
        out = tmp_path / "gap.csv"
        cfg = base_config(str(out), policy={"kind": "sweep", "order": order})
        assert run_cli(tmp_path, "gap", cfg) == 0
        _, [row] = read_csv(out)
        structure = LocalStructure(5, tuple(Region.of(r, 5) for r in cfg["model"]["regions"]))
        assert row[:3] == ["5", "sweep", label]
        assert float(row[3]) == spectral_gap_swap(
            EnsembleSpec(structure, CorrelatedSweep(permutation), 2))

    def test_markov_rejected(self, tmp_path):
        out = tmp_path / "gap.csv"
        cfg = {
            "model": {"n": 3, "d": 2, "family": {"kind": "path", "sizes": [3]}},
            "policy": {"kind": "markov", "initial": [0.5, 0.5],
                       "matrix": [[0.5, 0.5], [0.5, 0.5]]},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "gap", cfg) == 2

    @pytest.mark.parametrize("size", [3, 16])
    def test_markov_family_rejected_before_the_cap(self, tmp_path, capsys, size):
        out = tmp_path / "gap.csv"
        m = size - 1
        cfg = {
            "model": {"n": size, "d": 2, "family": {"kind": "path", "sizes": [size]}},
            "policy": {"kind": "markov", "initial": [1 / m] * m, "matrix": [[1 / m] * m] * m},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "gap", cfg) == 2
        assert capsys.readouterr().err.startswith("error: a Markov ensemble")
        assert not out.exists()

    def test_empty_family_rejected(self, tmp_path, capsys):
        out = tmp_path / "gap.csv"
        cfg = {
            "model": {"n": 4, "d": 2, "family": {"kind": "path", "sizes": []}},
            "policy": {"kind": "uncorrelated"},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "gap", cfg) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("model", [
        {"n": 4, "d": 2, "family": {"kind": "path", "sizes": [4]}},
        {"n": 3, "d": 2, "regions": [[0, 1], [1, 2]]},
    ])
    def test_malformed_policy_rejected(self, tmp_path, capsys, model):
        # the same policy exits 2 on evolve; gap must not end in a traceback
        out = tmp_path / "gap.csv"
        cfg = {"model": model, "policy": {"kind": "uncorrelated", "step_weights": 5},
               "output": {"path": str(out)}}
        assert run_cli(tmp_path, "gap", cfg) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["path", "complete"])
    @pytest.mark.parametrize("size, code, message", [
        (10**30, 2, "site count must be in [0, 64]"),
        (65, 2, "site count must be in [0, 64]"),
        (100000, 2, "site count must be in [0, 64]"),
        (15, 3, "needs 15 sites, over its budget of 14 sites"),
    ], ids=["1e30", "65", "100000", "15"])
    def test_family_sizes_refused_before_their_work(self, tmp_path, capsys, kind, size, code,
                                                    message):
        out = tmp_path / "gap.csv"
        cfg = {"model": {"n": size, "d": 2, "family": {"kind": kind, "sizes": [size]}},
               "policy": {"kind": "uncorrelated"}, "output": {"path": str(out)}}
        start = time.perf_counter()
        assert run_cli(tmp_path, "gap", cfg) == code
        assert time.perf_counter() - start < 1.0
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cap_exceeded(self, tmp_path):
        out = tmp_path / "gap.csv"
        cfg = {
            "model": {"n": 16, "d": 2, "family": {"kind": "path", "sizes": [16]}},
            "policy": {"kind": "uncorrelated"},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "gap", cfg) == 3
        assert not out.exists()


class TestOracleCmd:
    def test_columns_and_zero_step(self, tmp_path):
        out = tmp_path / "oracle.csv"
        cfg = base_config(str(out))
        cfg["model"] = {"n": 3, "d": 2, "regions": [[0, 1], [1, 2]]}
        cfg["run"]["initial_region"] = [0]
        assert run_cli(tmp_path, "oracle", cfg) == 0
        header, rows = read_csv(out)
        assert header == ["k", "P_k", "mc_mean", "mc_stderr", "z"]
        assert float(rows[0][4]) == 0.0
        for row in rows:
            assert abs(float(row[4])) <= 4.0

    def test_seed_changes_mc_only(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = base_config(str(out1))
        cfg["model"] = {"n": 3, "d": 2, "regions": [[0, 1], [1, 2]]}
        cfg["run"]["initial_region"] = [0]
        assert run_cli(tmp_path, "oracle", cfg) == 0
        cfg["output"]["path"] = str(out2)
        cfg["run"]["seed"] = 8
        assert run_cli(tmp_path, "oracle", cfg, name="cfg2.json") == 0
        _, rows1 = read_csv(out1)
        _, rows2 = read_csv(out2)
        assert [r[1] for r in rows1] == [r[1] for r in rows2]
        assert [r[2] for r in rows1] != [r[2] for r in rows2]

    def test_sample_override_flag(self, tmp_path):
        out = tmp_path / "oracle.csv"
        cfg = base_config(str(out))
        cfg["model"] = {"n": 3, "d": 2, "regions": [[0, 1], [1, 2]]}
        cfg["run"]["initial_region"] = [0]
        assert run_cli(tmp_path, "oracle", cfg, extra=("--samples", "50")) == 0
        assert read_metadata_config(str(out))["run"]["samples"] == 50

    @pytest.mark.parametrize("regions, initial", [
        ([[0, 1], [1, 2], [2, 3]], [0, 1, 2, 3]),
        ([[0, 1], [2, 3]], [0, 1]),
    ])
    def test_exact_purity_scores_zero(self, tmp_path, regions, initial):
        # P_k stays 1, so the sampled purities differ from it by rounding only
        out = tmp_path / "oracle.csv"
        cfg = base_config(str(out), run={"initial_region": initial, "k_max": 12, "seed": 3,
                                         "samples": 1000})
        cfg["model"] = {"n": 4, "d": 2, "regions": regions}
        assert run_cli(tmp_path, "oracle", cfg) == 0
        _, rows = read_csv(out)
        assert all(float(row[1]) == 1.0 for row in rows)
        assert [float(row[4]) for row in rows] == [0.0] * 13

    def test_reruns_byte_identical_at_blas_size(self, tmp_path):
        # 32 x 32 reduced densities per sample, large enough for BLAS matmul
        cfg = {
            "model": {"n": 10, "d": 2, "regions": [[i, i + 1] for i in range(9)]},
            "policy": {"kind": "uncorrelated"},
            "run": {"initial_region": [0, 1, 2, 3, 4], "k_max": 4, "seed": 5, "samples": 60},
            "output": {"path": str(tmp_path / "oracle.csv")},
        }
        assert run_cli(tmp_path, "oracle", cfg) == 0
        first = (tmp_path / "oracle.csv").read_bytes()
        assert run_cli(tmp_path, "oracle", cfg) == 0
        assert (tmp_path / "oracle.csv").read_bytes() == first

    @pytest.mark.parametrize("config_seed, extra", [(-1, ()), (7, ("--seed", "-1"))])
    def test_negative_seed_rejected(self, tmp_path, capsys, config_seed, extra):
        out = tmp_path / "oracle.csv"
        cfg = base_config(str(out), run={"seed": config_seed})
        assert run_cli(tmp_path, "oracle", cfg, extra=extra) == 2
        assert "run.seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("policy", [
        {"kind": "markov", "initial": [1, 0, 0], "matrix": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]},
        {"kind": "uncorrelated", "step_weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    ], ids=["markov", "step-weights"])
    def test_integer_policy_rows_write_the_columns_of_floats(self, tmp_path, policy):
        def floats(rows):
            return [floats(x) for x in rows] if isinstance(rows, list) else float(rows)

        tables = []
        for name, form in (("ints", policy), ("floats", {key: value if key == "kind" else
                                                         floats(value)
                                                         for key, value in policy.items()})):
            out = tmp_path / f"{name}.csv"
            cfg = base_config(str(out), policy=form, run={"initial_region": [0], "k_max": 3})
            cfg["model"] = {"n": 3, "d": 2, "regions": [[0, 1], [1, 2], [0]]}
            assert run_cli(tmp_path, "oracle", cfg, name=f"{name}.json") == 0
            tables.append(read_csv(out))
        assert tables[0] == tables[1]

    def test_state_cap(self, tmp_path):
        out = tmp_path / "oracle.csv"
        cfg = {
            "model": {"n": 21, "d": 2, "regions": [[0, 1]]},
            "policy": {"kind": "uncorrelated"},
            "run": {"initial_region": [0], "k_max": 1, "seed": 1, "samples": 10},
            "output": {"path": str(out)},
        }
        assert run_cli(tmp_path, "oracle", cfg) == 3


class TestOracleProcesses:
    """`oracle` output files do not depend on how many processes run the samples."""

    POLICIES = {"uncorrelated": {"kind": "uncorrelated"},
                "sweep": {"kind": "sweep", "order": "identity"}}

    @staticmethod
    def config(out, kind, policy, d, fmt):
        n = 4
        regions = ([[i, i + 1] for i in range(n - 1)] if kind == "path"
                   else [[i, j] for i in range(n) for j in range(i + 1, n)])
        if policy == "markov":  # each step moves to a region sharing a site
            rows = []
            for a in regions:
                adj = [1.0 if set(a) & set(b) else 0.0 for b in regions]
                rows.append([x / sum(adj) for x in adj])
            pol = {"kind": "markov", "initial": [1.0 / len(regions)] * len(regions),
                   "matrix": rows}
        else:
            pol = TestOracleProcesses.POLICIES[policy]
        return {"model": {"n": n, "d": d, "regions": regions}, "policy": pol,
                "run": {"initial_region": [0, 1], "k_max": 3, "seed": 11, "samples": 47},
                "output": {"path": str(out), "format": fmt}}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("policy", ["uncorrelated", "markov", "sweep"])
    @pytest.mark.parametrize("kind", ["path", "complete"])
    def test_files_byte_identical_across_counts(self, tmp_path, monkeypatch, kind, policy, d,
                                                fmt):
        out = tmp_path / f"oracle.{fmt}"
        cfg = self.config(out, kind, policy, d, fmt)
        files = []
        for count in (1, 2, 3):
            monkeypatch.setattr("lrqc.oracle._processes", lambda samples, work: count)
            assert run_cli(tmp_path, "oracle", cfg) == 0
            files.append(out.read_bytes())
        assert files[1] == files[0] and files[2] == files[0]

    def test_cap_raised_in_a_child_exits_3(self, tmp_path, monkeypatch, capsys):
        import multiprocessing
        from lrqc import oracle
        from lrqc.errors import CapExceeded
        parent, real = os.getpid(), oracle._apply_gates_batch

        def failing(*args):
            if os.getpid() != parent:
                raise CapExceeded("a child's cap")
            return real(*args)
        monkeypatch.setattr("lrqc.oracle._apply_gates_batch", failing)
        monkeypatch.setattr("lrqc.oracle._processes", lambda samples, work: 2)
        out = tmp_path / "oracle.csv"
        assert run_cli(tmp_path, "oracle", self.config(out, "path", "uncorrelated", 2, "csv")) == 3
        assert "a child's cap" in capsys.readouterr().err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("count", [1, 2])
    def test_logs_ranges(self, tmp_path, monkeypatch, caplog, count):
        from lrqc import oracle
        monkeypatch.setattr("lrqc.oracle._processes", lambda samples, work: count)
        out = tmp_path / "oracle.csv"
        with caplog.at_level(logging.DEBUG, logger="lrqc"):
            assert run_cli(tmp_path, "oracle",
                           self.config(out, "path", "uncorrelated", 2, "csv")) == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("oracle")]
        if count == 1:
            assert lines == ["oracle: 1 process over sample ranges [0, 47), "
                             "BLAS thread control not sought, children's peak RSS none"]
        elif oracle._blas_control() is None:
            assert lines == ["oracle: 1 process over sample ranges [0, 47), "
                             "BLAS thread control not found, children's peak RSS none"]
        else:
            assert len(lines) == 1
            assert re.fullmatch(r"oracle: 2 processes over sample ranges \[0, 23\) \[23, 47\), "
                                r"BLAS thread control found, children's peak RSS \d+\.\d MiB",
                                lines[0])
        assert "peak RSS" not in out.read_text()


class TestBoundsCmd:
    def test_rows(self, tmp_path):
        out = tmp_path / "bounds.csv"
        cfg = base_config(str(out))
        cfg["run"]["bounds"] = [
            {"name": "entangling_power", "d": 2},
            {"name": "area_law", "target": [0, 1], "d": 2, "k": 1},
            {"name": "t_design", "region_size": 2, "alpha": 1.0, "t": 2, "d": 2},
        ]
        assert run_cli(tmp_path, "bounds", cfg) == 0
        header, rows = read_csv(out)
        assert header == ["name", "value", "kind", "inputs"]
        assert float(rows[0][1]) == pytest.approx(0.2, abs=1e-15)
        assert float(rows[1][1]) == pytest.approx(0.95, abs=1e-12)
        assert rows[1][2] == "upper-bound"
        assert json.loads(rows[2][3])["t"] == 2

    ALL_FORMS = [
        {"name": "entangling_power", "d": 3},
        {"name": "swap_constant", "d": 2},
        {"name": "boundary_probability", "target": [1, 2]},
        {"name": "area_law", "target": [0, 1], "d": 2, "k": 3},
        {"name": "area_law", "pX": 0.5, "pXtilde": 0.25, "d": 3, "k": 4},
        {"name": "first_moment_convergence", "omega_norm": 2.0, "a_norm": 1.5,
         "epsilon": 0.01, "q_min": 0.25, "num_regions": 4},
        {"name": "correlated_convergence", "gap": 0.3, "n": 6, "epsilon": 0.001},
        {"name": "t_design", "region_size": 2, "alpha": 0.5, "t": 2, "d": 2},
        {"name": "t_design", "region_size": 1, "alpha": 0.25, "t": 3, "d": 3, "epsilon": 0.1},
    ]
    ALL_FORMS_TABLE = (
        'name,value,kind,inputs\n'
        'entangling_power,0.40000000000000002,estimate,"{""d"":3}"\n'
        'swap_constant,0.40000000000000002,estimate,"{""d"":2}"\n'
        'boundary_probability,0.5,estimate,"{""target"":[1,2]}"\n'
        'area_law,0.85737499999999989,upper-bound,'
        '"{""d"":2,""exp_bound"":0.8607079764250578,""k"":3,""pX"":0.25,""pXtilde"":0.25}"\n'
        'area_law,1.2155062500000002,upper-bound,'
        '"{""d"":3,""exp_bound"":2.3789677299066345,""k"":4,""pX"":0.5,""pXtilde"":0.25}"\n'
        'first_moment_convergence,27.054949757568242,upper-bound,'
        '"{""a_norm"":1.5,""epsilon"":0.01,""num_regions"":4,""omega_norm"":2.0,""q_min"":0.25}"\n'
        'correlated_convergence,25.197163337062843,upper-bound,'
        '"{""epsilon"":0.001,""gap"":0.3,""n"":6}"\n'
        't_design,2.4142135623730949,upper-bound,'
        '"{""alpha"":0.5,""d"":2,""epsilon"":0.125,""region_size"":2,""t"":2}"\n'
        't_design,3.2929208787664588,upper-bound,'
        '"{""alpha"":0.25,""d"":3,""epsilon"":0.1,""region_size"":1,""t"":3}"\n'
    )

    def test_every_request_form(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = base_config("bounds.csv")
        cfg["run"] = {"bounds": self.ALL_FORMS}
        assert run_cli(tmp_path, "bounds", cfg) == 0
        header = "".join(f"# {key}={json.dumps(value, sort_keys=True, separators=(',', ':'))}\n"
                         for key, value in (("command", "bounds"), ("config", cfg),
                                            ("version", __version__)))
        assert (tmp_path / "bounds.csv").read_text() == header + self.ALL_FORMS_TABLE

    @pytest.mark.parametrize("request_", [
        {"name": "correlated_convergence", "gap": 0.3, "n": 6},
        {"name": "swap_constant", "d": 2, "k": 1},
        {"name": "area_law", "target": [0, 1], "pX": 0.5, "d": 2, "k": 3},
        {"name": ["area_law"], "pX": 0.5, "pXtilde": 0.25, "d": 2, "k": 3},
        5,
        # every parameter but target is a JSON number, and d, k, t, region_size, n and
        # num_regions are JSON integers
        {"name": "area_law", "pX": "a", "pXtilde": 0.25, "d": 2, "k": 3},
        {"name": "area_law", "pX": True, "pXtilde": 0.25, "d": 2, "k": 3},
        {"name": "entangling_power", "d": "2"},
        {"name": "entangling_power", "d": 2.5},
        {"name": "t_design", "region_size": 2, "alpha": 0.5, "t": 2, "d": None},
        {"name": "t_design", "region_size": 2, "alpha": 0.5, "t": 2, "d": 2, "epsilon": None},
        {"name": "correlated_convergence", "gap": 0.3, "n": 6, "epsilon": "x"},
        {"name": "first_moment_convergence", "omega_norm": 2.0, "a_norm": 1.5, "epsilon": 0.01,
         "q_min": 0.25, "num_regions": 4.0},
    ])
    def test_malformed_request_rejected(self, tmp_path, capsys, request_):
        out = tmp_path / "bounds.csv"
        cfg = base_config(str(out))
        cfg["run"]["bounds"] = [request_]
        assert run_cli(tmp_path, "bounds", cfg) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("request_, value", [
        # exp_bound is exp(k (0.25 / (1 - e_p) - 0.5 e_p)) with 1 - e_p about 2e-11
        ({"name": "area_law", "pX": 0.5, "pXtilde": 0.25, "d": 10**11, "k": 3},
         (0.75 + 2 * 10**11 / (10**22 + 1) * 0.5) ** 3),
        # 2^1500 is beyond a float, about 2934.404 sweeps
        ({"name": "correlated_convergence", "gap": 0.3, "n": 3000, "epsilon": 0.001},
         (1500 * math.log(2) + math.log(1000)) / math.log(1 / 0.7)),
        # d^40 = 1e320 is beyond a float; delta = sqrt(2) (sqrt(2) + 1) 1e-160, about 3.414e-160
        ({"name": "t_design", "region_size": 40, "alpha": 1.0, "t": 2, "d": 10**8},
         math.sqrt(2) * (math.sqrt(2) + 1) * 1e-160),
    ])
    def test_past_the_float_range(self, tmp_path, request_, value):
        out = tmp_path / "bounds.csv"
        cfg = base_config(str(out))
        cfg["run"]["bounds"] = [request_]
        assert run_cli(tmp_path, "bounds", cfg) == 0
        _, [row] = read_csv(out)
        assert float(row[1]) == pytest.approx(value, rel=1e-9, abs=0)
        if request_["name"] == "area_law":  # a bound beyond a float is written as inf
            assert json.loads(row[3])["exp_bound"] == math.inf

    def test_area_law_where_one_minus_e_p_rounds_to_zero(self, tmp_path):
        """From d = 2^54 on, 1 - e_p is 0.0 in floats; the exponential form takes the exact
        2d/(d^2 + 1) there."""
        out = tmp_path / "bounds.csv"
        cfg = base_config(str(out))
        d = 10**17
        cfg["run"]["bounds"] = [{"name": "area_law", "pX": 0.5, "pXtilde": 0.5, "d": d, "k": 3},
                                {"name": "area_law", "pX": 0.5, "pXtilde": 0.25, "d": d, "k": 3}]
        assert run_cli(tmp_path, "bounds", cfg) == 0
        _, rows = read_csv(out)
        assert [float(row[1]) for row in rows] == [
            pytest.approx((0.5 + 2 * d / (d * d + 1) * 0.5) ** 3, rel=1e-15, abs=0),
            pytest.approx((0.75 + 2 * d / (d * d + 1) * 0.5) ** 3, rel=1e-15, abs=0)]
        # exp(-k pX e_p) with e_p = 1.0 in floats, and exp(k (0.25 / 2e-17 - 0.5)) beyond a float
        assert [json.loads(row[3])["exp_bound"] for row in rows] == [math.exp(-1.5), math.inf]

    def test_unknown_bound_rejected(self, tmp_path):
        out = tmp_path / "bounds.csv"
        cfg = base_config(str(out))
        cfg["run"]["bounds"] = [{"name": "nope"}]
        assert run_cli(tmp_path, "bounds", cfg) == 2


@st.composite
def fixcheck_structures(draw):
    """Up to 8 sites and five distinct regions of one to three sites, so the cases come with
    and without a disjoint or an overlapping pair, and often leave sites idle."""
    n = draw(st.integers(2, 8))
    region = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=3)
    regions = draw(st.lists(region, min_size=1, max_size=5, unique=True))
    return LocalStructure(n, tuple(Region.of(sorted(r), n) for r in regions))


class TestFixcheck:
    @settings(max_examples=60, deadline=None)
    @given(fixcheck_structures(), st.sampled_from([2, 3]))
    @example(LocalStructure(8, (Region.of([0, 1], 8), Region.of([2, 3], 8),
                                Region.of([1, 2, 5], 8))), 3)
    @example(LocalStructure(6, (Region.of([4], 6),)), 2)
    @example(LocalStructure(7, (Region.of([1, 3], 7), Region.of([3, 6], 7))), 2)
    def test_touched_sites_measure_the_full_step(self, structure, d):
        """Each case, measured on the two halves of the sites it touches, has the dimension
        that the SVD of its dense step on all n sites gives."""
        for case, subset, _, measured in _fixcheck_rows(structure, d):
            spec = EnsembleSpec(LocalStructure(structure.n, tuple(subset)), Uncorrelated(), d)
            full = fixed_space_dimension(build_swap_matrix(spec))
            assert measured == full, case

    def test_complete_ten_peak_memory(self):
        """The halves are built and solved one at a time, and no 2^n-square matrix is formed:
        the four cases of the complete graph at n = 10 peak under 12 MiB by tracemalloc,
        where the 1024-square step alone takes 8 MiB."""
        structure = complete_structure(10)
        tracemalloc.start()
        try:
            rows = list(_fixcheck_rows(structure, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(case, measured) for case, _, _, measured in rows] == [
            ("single", 512), ("pair-disjoint", 256), ("pair-overlap", 256), ("full-ensemble", 2)]
        assert peak < 12 << 20

    def test_logs_touched_sites(self, tmp_path, caplog):
        out = tmp_path / "fix.csv"
        cfg = base_config(str(out))
        cfg["model"] = {"n": 6, "d": 2, "regions": [[0, 1], [1, 2], [4, 5]]}
        with caplog.at_level(logging.DEBUG, logger="lrqc"):
            assert run_cli(tmp_path, "fixcheck", cfg) == 0
        lines = [r.getMessage() for r in caplog.records]
        assert [line for line in lines if line.startswith("fixcheck")] == [
            "fixcheck single: touched sites [0, 1], 4 x 4 step matrix, idle factor 2^4",
            "fixcheck pair-disjoint: touched sites [0, 1, 4, 5], 16 x 16 step matrix, "
            "idle factor 2^2",
            "fixcheck pair-overlap: touched sites [0, 1, 2], 8 x 8 step matrix, idle factor 2^3",
            "fixcheck full-ensemble: touched sites [0, 1, 2, 4, 5], 32 x 32 step matrix, "
            "idle factor 2^1",
        ]
        assert "idle factor" not in out.read_text()

    def test_all_cases_pass(self, tmp_path):
        out = tmp_path / "fix.csv"
        cfg = base_config(str(out))
        cfg["model"] = {"n": 4, "d": 2, "regions": [[0, 1], [1, 2], [2, 3]]}
        assert run_cli(tmp_path, "fixcheck", cfg) == 0
        _, rows = read_csv(out)
        cases = {row[0]: row for row in rows}
        assert cases["single"][2] == cases["single"][3] == "8"
        assert cases["pair-disjoint"][2] == "4"
        assert cases["pair-overlap"][2] == "4"
        assert cases["full-ensemble"][2] == "2"
        assert all(row[4] == "true" for row in rows)

    def test_cap(self, tmp_path):
        out = tmp_path / "fix.csv"
        cfg = base_config(str(out))
        cfg["model"] = {"n": 11, "d": 2, "regions": [[0, 1]]}
        assert run_cli(tmp_path, "fixcheck", cfg) == 3

    @pytest.mark.parametrize("d", [2, 3])
    def test_complete_six_file_pinned(self, tmp_path, monkeypatch, d):
        """The whole file, as the SVD of the step matrix measured it."""
        monkeypatch.chdir(tmp_path)
        regions = [[i, j] for i in range(6) for j in range(i + 1, 6)]
        cfg = {"model": {"n": 6, "d": d, "regions": regions},
               "policy": {"kind": "uncorrelated"}, "run": {},
               "output": {"path": "fix.csv", "format": "csv"}}
        assert run_cli(tmp_path, "fixcheck", cfg) == 0
        every = "0,1;0,2;0,3;0,4;0,5;1,2;1,3;1,4;1,5;2,3;2,4;2,5;3,4;3,5;4,5"
        assert (tmp_path / "fix.csv").read_text() == (
            '# command="fixcheck"\n'
            f'# config={{"model":{{"d":{d},"n":6,"regions":[[0,1],[0,2],[0,3],[0,4],[0,5],[1,2],'
            '[1,3],[1,4],[1,5],[2,3],[2,4],[2,5],[3,4],[3,5],[4,5]]},'
            '"output":{"format":"csv","path":"fix.csv"},"policy":{"kind":"uncorrelated"},"run":{}}\n'
            '# version="0.1.0"\n'
            'case,regions,predicted_dim,measured_dim,pass\n'
            'single,"0,1",32,32,true\n'
            'pair-disjoint,"0,1;2,3",16,16,true\n'
            'pair-overlap,"0,1;0,2",16,16,true\n'
            f'full-ensemble,"{every}",2,2,true\n')


class TestValidation:
    def test_unknown_section(self, tmp_path):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out))
        cfg["extra"] = {}
        assert run_cli(tmp_path, "evolve", cfg) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, section, value, message", [
        ("evolve", "model", [["n", 5], ["d", 2], ["regions", [[0, 1]]]], "section 'model'"),
        ("evolve", "policy", [["kind", "uncorrelated"]], "section 'policy'"),
        ("evolve", "run", None, "section 'run'"),
        ("evolve", "output", None, "section 'output'"),
        ("gap", "model", {"n": 4, "d": 2, "family": 5}, "model.family must be an object"),
        ("gap", "model", {"n": 4, "d": 2, "family": None}, "model.family must be an object"),
        ("gap", "model", {"n": 4, "d": 2, "family": {"kind": ["path"], "sizes": [3]}},
         "unknown family kind"),
        ("gap", "model", {"n": 4, "d": 2, "weights": [0.9, 0.05, 0.05],
                          "family": {"kind": "path", "sizes": [4]}},
         "model.family and model.weights cannot both be given"),
        ("gap", "model", {"n": 4, "d": 2, "regions": [[0, 1], [1, 2], [2, 3]],
                          "weights": [0.9, 0.05, 0.05], "family": {"kind": "path", "sizes": [4]}},
         "model.family and model.regions cannot both be given"),
        ("evolve", "model", {"n": 5, "d": 2, "regions": [[0, 1], [1, 2], [2, 3], [3, 4]],
                             "family": {"kind": "path", "sizes": [5]}},
         "model.family and model.regions cannot both be given"),
        ("evolve", "model", {"n": 5, "d": 2, "regions": [[0, 0], [1, 2]]},
         "a region must list each site once, got [0, 0]"),
        ("evolve", "run", {"initial_region": [0, 0], "k_max": 3},
         "a region must list each site once, got [0, 0]"),
        ("bounds", "run", {"bounds": [{"name": "boundary_probability", "target": [1, 2, 1]}]},
         "a region must list each site once, got [1, 2, 1]"),
    ])
    def test_sections_must_be_objects(self, tmp_path, capsys, command, section, value, message):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out))
        cfg[section] = value
        assert run_cli(tmp_path, command, cfg, extra=("--out", str(out))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["regions", "weights"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_family_beside_regions_or_weights(self, tmp_path, capsys, command, key):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out), model={"family": {"kind": "path", "sizes": [5]}})
        if key == "weights":
            del cfg["model"]["regions"]
            cfg["model"]["weights"] = [0.25] * 4
        assert run_cli(tmp_path, command, cfg) == 2
        err = capsys.readouterr().err
        assert f"error: model.family and model.{key} cannot both be given" in err
        assert not out.exists()

    def test_bad_weights(self, tmp_path):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out), model={"weights": [0.4, 0.2, 0.2, 0.1]})
        assert run_cli(tmp_path, "evolve", cfg) == 2
        assert not out.exists()

    @pytest.mark.parametrize("weights", [5, [0.5, None], True, {"a": 1.0}])
    def test_malformed_weights(self, tmp_path, capsys, weights):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out), model={"weights": weights})
        assert run_cli(tmp_path, "evolve", cfg) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("model, policy", [
        ({"weights": [math.nan, 1.0]}, {"kind": "uncorrelated"}),
        ({}, {"kind": "markov", "initial": [math.nan, 1.0], "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
        ({}, {"kind": "uncorrelated", "step_weights": [[math.nan, 1.0], [0.5, 0.5]]}),
    ], ids=["weights", "markov-initial", "step-weights"])
    def test_non_finite_weights_rejected(self, tmp_path, capsys, model, policy):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out), model={"n": 3, "regions": [[0, 1], [1, 2]], **model},
                          policy=policy, run={"initial_region": [0], "k_max": 2})
        assert run_cli(tmp_path, "evolve", cfg) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, policy, key", [
        ({"weights": [10**400, 0]}, {"kind": "uncorrelated"}, "model.weights"),
        ({}, {"kind": "markov", "initial": [0, 10**400], "matrix": [[1, 0], [0, 1]]},
         "policy.initial"),
        ({}, {"kind": "uncorrelated", "step_weights": [[1, 0], [10**400, 0]]},
         "policy.step_weights[1]"),
    ], ids=["weights", "markov-initial", "step-weights"])
    def test_integer_beyond_a_float_rejected(self, tmp_path, capsys, model, policy, key):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out), model={"n": 3, "regions": [[0, 1], [1, 2]], **model},
                          policy=policy, run={"initial_region": [0], "k_max": 2})
        assert run_cli(tmp_path, "oracle", cfg) == 2
        assert f"error: {key} has an integer beyond a float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, policy, key", [
        ({"weights": [True, False]}, {"kind": "uncorrelated"}, "model.weights"),
        ({"weights": ["0.5", "0.5"]}, {"kind": "uncorrelated"}, "model.weights"),
        ({}, {"kind": "uncorrelated", "step_weights": [[0.5, 0.5], [True, False]]},
         "policy.step_weights[1]"),
        ({}, {"kind": "uncorrelated", "step_weights": [["0.5", "0.5"]]}, "policy.step_weights[0]"),
        ({}, {"kind": "markov", "initial": [True, False], "matrix": [[0.5, 0.5], [0.5, 0.5]]},
         "policy.initial"),
        ({}, {"kind": "markov", "initial": ["0.5", "0.5"], "matrix": [[0.5, 0.5], [0.5, 0.5]]},
         "policy.initial"),
        ({}, {"kind": "markov", "initial": [0.5, 0.5], "matrix": [[0.5, 0.5], [False, True]]},
         "policy.matrix[1]"),
        ({}, {"kind": "markov", "initial": [0.5, 0.5], "matrix": [["1", "0"], [0.5, 0.5]]},
         "policy.matrix[0]"),
        ({}, {"kind": "markov", "initial": [0.5, 0.5], "matrix": 1.0}, "policy.matrix"),
    ], ids=["weights-bool", "weights-str", "step-weights-bool", "step-weights-str",
            "initial-bool", "initial-str", "matrix-bool", "matrix-str", "matrix-scalar"])
    def test_weights_must_be_json_numbers(self, tmp_path, capsys, model, policy, key):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out), model={"n": 3, "regions": [[0, 1], [1, 2]], **model},
                          policy=policy, run={"initial_region": [0], "k_max": 2})
        assert run_cli(tmp_path, "evolve", cfg) == 2
        assert f"error: {key} must be a list of" in capsys.readouterr().err
        assert not out.exists()

    def test_run_epsilon_is_unknown(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out), run={"epsilon": "anything"})
        assert run_cli(tmp_path, "evolve", cfg) == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli(tmp_path, "evolve", base_config(str(out))) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.parent.exists()

    @pytest.mark.parametrize("text, message", [(None, "cannot read config {}: "),
                                               ('{"model": ', "config {} is not valid JSON: ")],
                             ids=["missing", "invalid-json"])
    def test_config_that_cannot_be_loaded(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        assert main(["evolve", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: " + message.format(path))

    def test_out_naming_a_directory_leaves_no_temporary_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert run_cli(tmp_path, "evolve", base_config(str(taken))) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "taken"]
        assert os.listdir(taken) == []

    @pytest.mark.parametrize("path", [5, ["x.csv"]])
    def test_output_path_must_be_a_string(self, tmp_path, capsys, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        assert run_cli(tmp_path, "evolve", base_config(path)) == 2
        assert capsys.readouterr().err.startswith("error: output.path must be a string")
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_missing_output_path(self, tmp_path):
        cfg = base_config("x.csv")
        del cfg["output"]["path"]
        assert run_cli(tmp_path, "evolve", cfg) == 2

    @pytest.mark.parametrize("command, section, change, message", [
        ("evolve", "model", {"regions": [[0, True], [1, 2], [2, 3], [3, 4]]}, "site indices"),
        ("evolve", "run", {"initial_region": [True]}, "site indices"),
        ("evolve", "model", {"n": True, "regions": [[0]]}, "integers"),
        ("evolve", "policy", {"kind": "sweep", "order": [True, 0, 2, 3]}, "permutation"),
        ("gap", "model", {"family": {"kind": "complete", "sizes": [3, True]}}, "sizes"),
    ])
    def test_booleans_are_not_integers(self, tmp_path, capsys, command, section, change, message):
        out = tmp_path / "x.csv"
        cfg = base_config(str(out))
        cfg[section].update(change)
        if command == "gap":
            del cfg["model"]["regions"]
        assert run_cli(tmp_path, command, cfg) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, changes, message", [
        ("evolve", {"model": {"regions": [[0, 1], [1, 5]]}}, "site 5 outside universe of 5 sites"),
        ("evolve", {"run": {"initial_region": [0, 7]}}, "site 7 outside universe of 5 sites"),
        ("bounds", {"run": {"bounds": [{"name": "boundary_probability", "target": [9]}]}},
         "site 9 outside universe of 5 sites"),
        ("evolve", {"model": {"weights": [0.4, 0.2, 0.2, 0.1]}}, "weights sums to 0.9, not 1"),
        ("gap", {"model": {"family": {"kind": "path", "sizes": [1]}}},
         "a path needs at least 2 sites"),
        ("gap", {"policy": {"kind": "sweep", "order": [2, 0, 2, 1]}},
         "order (2, 0, 2, 1) is not a permutation of 0..3"),
        ("evolve", {"policy": {"kind": "markov", "initial": [0.25] * 4,
                               "matrix": [[0.25] * 4] * 3}},
         "transition matrix must have one row per region"),
        ("evolve", {"policy": {"kind": "uncorrelated", "step_weights": [[0.5, 0.5]]}},
         "per-step weights has length 2, expected 4"),
        ("evolve", {"model": {"d": 1}}, "local dimension must be >= 2, got 1"),
        ("path1d", {"run": {"cut": 9}}, "run.cut must be in [0, 5]"),
        ("path1d", {"model": {"n": 1}, "run": {"cut": 0}}, "chain length must be >= 2"),
        ("bounds", {"run": {"bounds": [{"name": "area_law", "pX": 0.5, "d": 2, "k": 3}]}},
         "bound request is missing parameter 'pXtilde'"),
        ("bounds", {"run": {"bounds": [{"name": "t_design", "d": 2}]}},
         "bound request is missing parameter 'region_size'"),
        ("bounds", {"run": {"bounds": [{"name": "area_law", "pX": 0.25, "pXtilde": 0.5,
                                        "d": 2, "k": 3}]}},
         "need 0 <= pXtilde <= pX <= 1, got (0.25, 0.5)"),
        ("oracle", {"run": {"samples": 1}}, "at least 2 samples are required"),
    ], ids=["region-site", "initial-site", "target-site", "weights-sum", "family-size",
            "order-repeat", "markov-rows", "step-weights-length", "local-dimension",
            "path1d-cut", "path1d-length", "missing-pXtilde", "missing-region-size",
            "pX-below-pXtilde", "one-sample"])
    def test_model_errors_reach_main_as_raised(self, tmp_path, capsys, command, changes,
                                                message):
        """A model's ValueError, or a schema refusal beside it, prints on one line and exits 2."""
        out = tmp_path / "x.csv"
        cfg = base_config(str(out))
        for section, change in changes.items():
            cfg[section].update(change)
        if "family" in cfg["model"]:
            del cfg["model"]["regions"]
        assert run_cli(tmp_path, command, cfg) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("command, model, run, budget, requested, cap", [
    ("gap", {"n": 15, "d": 2, "family": {"kind": "path", "sizes": [15]}}, {}, None,
     "15 sites", "14 sites"),
    ("fixcheck", {"n": 11, "d": 2, "regions": [[0, 1]]}, {}, None, "11 sites", "10 sites"),
    ("oracle", {"n": 21, "d": 2, "regions": [[0, 1]]},
     {"initial_region": [0], "k_max": 1, "seed": 1, "samples": 10}, None,
     "2097152 amplitudes", "1048576 amplitudes"),
    ("evolve", {"n": 6, "d": 2, "regions": [[i, i + 1] for i in range(5)]},
     {"initial_region": [0, 2, 4], "k_max": 3, "area_law": True}, 320, "1920 bytes", "320 bytes"),
    ("evolve", {"n": 17, "d": 2, "regions": [[i, i + 1] for i in range(16)]},
     {"initial_region": list(range(0, 17, 2)), "k_max": 40, "area_law": True}, None,
     "89846 regions", "65536 regions"),
], ids=["gap-sites", "fixcheck-sites", "oracle-amplitudes", "area-law-bytes", "area-law-regions"])
def test_refusals_name_the_request_and_its_budget(tmp_path, capsys, monkeypatch, command, model,
                                                  run, budget, requested, cap):
    if budget is not None:
        monkeypatch.setattr("lrqc.swapcore._ENUMERATION_BYTES", budget)
    out = tmp_path / "x.csv"
    cfg = {"model": model, "policy": {"kind": "uncorrelated"}, "run": run,
           "output": {"path": str(out)}}
    assert run_cli(tmp_path, command, cfg) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: .+ needs {requested}, over its budget of {cap}\n", err), err
    assert not out.exists()


_ALTERNATING = [[0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]] * 1000  # base_config's 4 regions


@pytest.mark.parametrize("command, policy, run, requested", [
    ("evolve", {"step_weights": _ALTERNATING}, {"k_max": 2000}, 2001000),
    ("oracle", {"step_weights": _ALTERNATING}, {"k_max": 2000}, 2001000),
    ("evolve", {}, {"k_max": 10**9}, 10**9),
    ("evolve", {}, {"k_max": 10**9, "area_law": True}, 10**9),
], ids=["evolve-per-step", "oracle-per-step", "evolve-k-1e9", "evolve-area-law-k-1e9"])
def test_trajectory_work_refused_before_any_step(tmp_path, capsys, command, policy, run,
                                                 requested):
    """Refused by its count.  Step 1's row differs from step 0's, so each step k from 2 on
    reruns steps k - 1, ..., 0, and 2000 steps cost 1 + 2 + ... + 2000 stages."""
    out = tmp_path / "x.csv"
    cfg = base_config(str(out), policy=policy, run=run)
    start = time.perf_counter()
    assert run_cli(tmp_path, command, cfg) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: a purity trajectory, whose cap bounds its time, not memory, needs {requested} "
        f"stage applications, over its budget of {TRAJECTORY_MAX_STAGES} stage applications\n")
    assert not out.exists()


HUGE = 10**400  # beyond a float
_CHAIN = {"n": 4, "regions": [[0, 1], [1, 2], [2, 3]]}


@pytest.mark.parametrize("command, model_d, run", [
    pytest.param("bounds", 2, {"bounds": [{"name": "first_moment_convergence", "omega_norm": 2.0,
                                           "a_norm": 1.5, "epsilon": 0.01, "q_min": 1e-17,
                                           "num_regions": 4}]}, id="q_min-1e-17"),
    pytest.param("bounds", 2, {"bounds": [{"name": "correlated_convergence", "gap": 1e-17,
                                           "n": 6, "epsilon": 0.001}]}, id="gap-1e-17"),
    *[pytest.param("bounds", 2, {"bounds": [request]}, id=f"{request['name']}-d-1e{exponent}")
      for exponent in (400, 200) for request in (
          {"name": "swap_constant", "d": 10**exponent},
          {"name": "entangling_power", "d": 10**exponent},
          {"name": "area_law", "pX": 0.5, "pXtilde": 0.25, "d": 10**exponent, "k": 3},
          {"name": "area_law", "target": [0, 1], "d": 10**exponent, "k": 3},
          {"name": "t_design", "region_size": 2, "alpha": 0.5, "t": 2, "d": 10**exponent})],
    *[pytest.param("bounds", 2, {"bounds": [dict(request, **{key: HUGE})]},
                   id=f"{request['name']}-{key}-1e400") for request, key in (
        ({"name": "t_design", "region_size": 2, "alpha": 0.5, "t": 2, "d": 2}, "region_size"),
        ({"name": "t_design", "region_size": 2, "alpha": 0.5, "t": 2, "d": 2}, "t"),
        ({"name": "area_law", "pX": 0.5, "pXtilde": 0.25, "d": 2, "k": 3}, "k"),
        ({"name": "correlated_convergence", "gap": 0.3, "n": 6, "epsilon": 0.001}, "n"),
        ({"name": "correlated_convergence", "gap": 0.3, "n": 6, "epsilon": 0.001}, "epsilon"),
        ({"name": "first_moment_convergence", "omega_norm": 2.0, "a_norm": 1.5,
          "epsilon": 0.01, "q_min": 0.25, "num_regions": 4}, "num_regions"))],
    pytest.param("gap", HUGE, {}, id="gap-model-d-1e400"),
    pytest.param("fixcheck", HUGE, {}, id="fixcheck-model-d-1e400"),
    pytest.param("path1d", HUGE, {"initial_region": [0, 1], "k_max": 3}, id="path1d-d-1e400"),
    pytest.param("evolve", HUGE, {"initial_region": [0, 1], "k_max": 3, "area_law": True},
                 id="evolve-area-law-d-1e400"),
])
def test_extreme_numbers_exit_0_or_2(tmp_path, capsys, command, model_d, run):
    out = tmp_path / "x.csv"
    cfg = {"model": dict(_CHAIN, d=model_d), "policy": {"kind": "uncorrelated"}, "run": run,
           "output": {"path": str(out)}}
    code = run_cli(tmp_path, command, cfg)
    assert code in (0, 2), capsys.readouterr().err
    assert out.exists() == (code == 0)
    if code == 0:
        assert read_metadata_config(str(out)) == cfg


def test_import_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random on first use; the oracle's streams wait for it
    src = str(Path(lrqc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, lrqc.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_import_leaves_multiprocessing_unloaded():
    # only an oracle run that forks loads it
    src = str(Path(lrqc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, lrqc.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_area_law_evolve_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique without indices, as np.setdiff1d and np.union1d call it, loads numpy.ma
    src = str(Path(lrqc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(base_config(str(tmp_path / "out.csv"),
                                             run={"area_law": True, "k_max": 5})))
    code = ("import sys, lrqc.cli; code = lrqc.cli.main(['evolve', '--config', sys.argv[1]]); "
            "sys.exit(code or 10 * ('numpy.ma' in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code, str(config)], env=env).returncode == 0
    assert (tmp_path / "out.csv").exists()
