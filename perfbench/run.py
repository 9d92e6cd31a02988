"""Benchmark of the `lrqc` command line: four workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload evolve-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --smoke                      # seconds-long self-check

Each workload runs in fresh child processes (`child.py`), which import `lrqc`
from this checkout's `src/`.  Several set-up-only children give the median
set-up time; one more child runs timed passes for `--seconds` and checks
every output.  `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Full results, machine facts
and spans go to `perfbench/out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import workloads  # noqa: E402  (this directory is on sys.path when run as a script)
from tracing import LAYERS  # noqa: E402

SETUP_REPEATS = 7        # set-up-only children per run, plus the measuring child
TIME_LIMIT_S = 170.0     # a workload's children are stopped before this
SRC_LINES_AT_SEED = 2172  # informational: `src/` size when the benchmark was added


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing sources, a child crashed)."""


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


# (name, unit, better, value from the child's result); keep in step with BENCHMARK.json.
END_TO_END = [
    ("wall_s", "s", "lower", lambda r: r["wall_s"]),
    ("setup_s", "s", "lower", lambda r: r["setup_s"]),
    ("peak_rss_mib", "MiB", "lower", lambda r: r["peak_rss_mib"]),
]


def _layer(key: str):
    return lambda r: r["layers"].get(key, 0.0)


PER_LAYER = [
    ("swapcore.purity_trajectory_s", "s", "lower", _layer("swapcore.purity_trajectory_s")),
    ("swapcore.region_maps", "count", "higher", _layer("swapcore.region_maps")),
    ("swapcore.region_maps_per_s", "1/s", "higher",
     lambda r: _ratio(r["layers"].get("swapcore.region_maps", 0.0),
                      r["layers"].get("swapcore.purity_trajectory_s", 0.0))),
    ("swapcore.build_swap_matrix_s", "s", "lower", _layer("swapcore.build_swap_matrix_s")),
    ("swapcore.spectral_gap_swap_s", "s", "lower", _layer("swapcore.spectral_gap_swap_s")),
    ("swapcore.fixed_space_dimension_s", "s", "lower",
     _layer("swapcore.fixed_space_dimension_s")),
    ("swapcore.matrix_bytes_computed", "bytes", "lower",
     _layer("swapcore.matrix_bytes_computed")),
    ("bounds.reachable_boundary_range_s", "s", "lower",
     _layer("bounds.reachable_boundary_range_s")),
    ("bounds.reachable_boundary_range_calls", "count", "lower",
     _layer("bounds.reachable_boundary_range_calls")),
    ("bounds.area_law_bound_s", "s", "lower", _layer("bounds.area_law_bound_s")),
    ("oracle.mc_purity_trajectory_s", "s", "lower", _layer("oracle.mc_purity_trajectory_s")),
    ("oracle.mc_purity_trajectory_n12_s", "s", "lower",
     _layer("oracle.mc_purity_trajectory_s@path-half")),
    ("oracle.mc_purity_trajectory_n5_s", "s", "lower",
     lambda r: sum(r["layers"].get(f"oracle.mc_purity_trajectory_s@{label}", 0.0)
                   for label in ("small-path", "small-path-markov", "small-complete-sweep"))),
    ("oracle.sample_steps", "count", "higher", _layer("oracle.sample_steps")),
    ("oracle.sample_steps_per_s", "1/s", "higher",
     lambda r: _ratio(r["layers"].get("oracle.sample_steps", 0.0),
                      r["layers"].get("oracle.mc_purity_trajectory_s", 0.0))),
    ("oracle.state_bytes_computed", "bytes", "lower", _layer("oracle.state_bytes_computed")),
    ("path1d.purity_exact_s", "s", "lower", _layer("path1d.purity_exact_s")),
    ("path1d.spectrum_s", "s", "lower", _layer("path1d.spectrum_s")),
    ("config.load_s", "s", "lower", _layer("config.load_config_s")),
    ("cli.self_s", "s", "lower", _layer("cli.self_s")),
    ("cli.write_table_s", "s", "lower", _layer("cli.write_table_s")),
    ("cli.output_bytes", "bytes", "lower", _layer("cli.output_bytes")),
]
PER_LAYER += [(f"{layer}.self_s", "s", "lower", _layer(f"{layer}.self_s")) for layer in LAYERS
              if layer != "cli"]
PER_LAYER += [(f"{layer}.share", "fraction", "lower",
               lambda r, layer=layer: _ratio(r["layers"].get(f"{layer}.self_s", 0.0),
                                             r["traced_wall_s"])) for layer in LAYERS]
PER_LAYER += [(f"{layer}.errors", "count", "lower", _layer(f"{layer}.errors"))
              for layer in LAYERS]
PER_LAYER += [
    ("traced_wall_s", "s", "lower", lambda r: r["traced_wall_s"]),
    ("trace_overhead_s", "s", "lower", lambda r: r["traced_wall_s"] - r["wall_s"]),
    ("dominant_layer_match", "count", "higher", lambda r: float(r["dominant_matches"])),
]


def _spawn(name: str, args: argparse.Namespace, workdir: str, deadline: float,
           extra: list[str], index: int) -> dict:
    """Run one child to completion and return its result; raise if it fails."""
    result_path = os.path.join(workdir, f"result-{index}.json")
    command = [sys.executable, os.path.join(HERE, "child.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", result_path, "--workdir", workdir]
    command += ["--smoke"] if args.smoke else []
    command += extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before all children ran")
    spawned_at = time.monotonic()
    proc = subprocess.run(command + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                          timeout=timeout, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise BenchError(f"{name} child exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, args: argparse.Namespace, extra: list[str] = (),
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set-up-only children, then the measuring child; the merged result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [_spawn(name, args, workdir, deadline, ["--setup-only"], i)["setup_s"]
                  for i in range(setup_repeats)]
        result = _spawn(name, args, workdir, deadline, list(extra), setup_repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    if "layers" in result:
        self_s = {layer: result["layers"].get(f"{layer}.self_s", 0.0) for layer in LAYERS}
        result["dominant_layer"] = max(self_s, key=self_s.get)
        result["predicted_dominant_layer"] = workloads.PREDICTED_DOMINANT[name]
        result["dominant_matches"] = result["dominant_layer"] == result["predicted_dominant_layer"]
    return result


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _llc_bytes() -> int | None:
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        if out.stdout.strip().isdigit() and int(out.stdout) > 0:
            return int(out.stdout)
    return None


def machine_facts(args: argparse.Namespace, result: dict) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(os.listdir(os.path.join(ROOT, "src", "lrqc"))):
        if path.endswith(".py"):
            with open(os.path.join(ROOT, "src", "lrqc", path), "rb") as fh:
                data = fh.read()
            digest.update(path.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_lines_at_seed": SRC_LINES_AT_SEED,
        "python": result["python"],
        "numpy": result["numpy"],
        "blas_threads": result["blas_threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metrics_of(result: dict, trace: int) -> dict[str, dict]:
    table = PER_LAYER if trace else END_TO_END
    return {name: {"value": float(value(result)), "unit": unit}
            for name, unit, _, value in table}


def report(name: str, result: dict, args: argparse.Namespace) -> dict[str, dict]:
    """Print one workload's metrics and write its full result file."""
    metrics = metrics_of(result, args.trace)
    print(f"[{name}] ops={result['attempted']} ops_failed={result['failed']} "
          f"passes={len(result['pass_walls_s'])} "
          f"traced_passes={len(result.get('pass_walls_traced_s', []))}")
    for metric, entry in {**metrics_of(result, 0), **metrics}.items():
        print(f"[{name}] {metric} = {entry['value']:.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"[{name}] FAILED {problem}")
    if args.trace:
        verdict = "matches" if result["dominant_matches"] else "DOES NOT match"
        print(f"[{name}] dominant layer {result['dominant_layer']} {verdict} "
              f"the prediction {result['predicted_dominant_layer']}")
    facts = machine_facts(args, result)
    print(f"[{name}] machine {json.dumps(facts, sort_keys=True)}")
    spans = result.pop("spans", None)
    stem = f"{name}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "machine": facts, "metrics": metrics, "result": result},
                  fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "pass", "error"],
                       "spans": spans}, fh)
    return metrics


def smoke(args: argparse.Namespace) -> int:
    """Every workload at reduced size, traced, then two negative tests."""
    errors = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        emitted = [(name, unit, better) for name, unit, better, _ in table]
        listed = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if emitted != listed:
            errors.append(f"BENCHMARK.json {key} does not list the metrics run.py emits")
    if [w["name"] for w in declared["workloads"]] != list(workloads.NAMES):
        errors.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        result = run_workload(name, args, setup_repeats=1)
        report(name, result, args)
        if result["failed"]:
            errors.append(f"{name}: {result['failed']} operations failed")
    cases = [("evolve-sparse", ["--perturb-value", "path-prefix"], "P_k[1]",
              "a perturbed P_k value"),
             ("spectral", ["--perturb-rerun"], "determinism rerun",
              "a changed byte in the determinism rerun")]
    args.trace = 0
    for name, extra, expected, what in cases:
        result = run_workload(name, args, extra, setup_repeats=0)
        caught = result["failed"] >= 1 and any(expected in p for p in result["problems"])
        print(f"[negative] {what}: ops_failed={result['failed']} of {result['attempted']}")
        if not caught:
            errors.append(f"negative test not caught: {what}")
    for error in errors:
        print(f"smoke: {error}")
    print("smoke: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the lrqc command line")
    p.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes, all workloads, plus negative tests")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lrqc", "cli.py")):
        print(f"error: no lrqc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            args.seconds, args.trace = 1.0, 1
            return smoke(args)
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            result = run_workload(name, args)
            shown = report(name, result, args)
            attempted += result["attempted"]
            failed += result["failed"]
            if len(names) == 1:
                metrics = shown
            else:
                metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
