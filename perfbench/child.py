"""One workload in one fresh process: set up, run timed passes, check outputs.

`run.py` starts this script; it is not meant to be run by hand.  The process
imports `lrqc` from the checkout's `src/`, writes and parses the workload's
configs (the set-up), then repeats passes over the workload's operations
through `lrqc.cli.main` until the time budget would be exceeded.  Only the
`cli.main` calls are timed; every output is checked between calls.  With
`--trace 1`, untraced and traced passes alternate.  The result, as JSON, goes
to the `--result` file.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before the parent started this process")
    p.add_argument("--result", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--perturb-value", metavar="LABEL",
                   help="negative test: alter a P_k value in every output of this operation")
    p.add_argument("--perturb-rerun", action="store_true",
                   help="negative test: alter one byte of the determinism rerun's output")
    return p.parse_args(argv)


def _perturb_value(data: bytes) -> bytes:
    """Scale P_1 by (1 + 1e-6), keeping the file's format."""
    lines = data.decode().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    header = next(csv.reader([lines[first]]))
    row = next(csv.reader([lines[first + 2]]))
    col = header.index("P_k")
    row[col] = repr(float(row[col]) * (1 + 1e-6))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    lines[first + 2] = buf.getvalue()
    return "".join(lines).encode()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _medians(summaries: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({k for s in summaries for k in s})
    return {k: statistics.median(s.get(k, 0.0) for s in summaries) for k in keys}


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, SRC)
    import lrqc
    import lrqc.cli as cli
    from lrqc.config import load_config
    if not os.path.abspath(lrqc.__file__).startswith(SRC + os.sep):
        print(f"error: imported lrqc from {lrqc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads
    from tracing import Tracer

    ops = workloads.operations(args.workload, args.seed, args.smoke)
    os.makedirs(args.workdir, exist_ok=True)
    files = {}
    for op in ops:
        config_path = os.path.join(args.workdir, f"{op.label}.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh)
        load_config(config_path)
        files[op.label] = (config_path, os.path.join(args.workdir, f"{op.label}.csv"))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload + ("/smoke" if args.smoke else "")]
    tracer = Tracer()
    first_output: dict[str, bytes] = {}
    problems: list[str] = []
    attempted = failed = 0

    def run_op(op, traced: bool) -> tuple[float, bytes | None]:
        config_path, out_path = files[op.label]
        if os.path.exists(out_path):
            os.unlink(out_path)
        argv = [op.command, "--config", config_path, "--out", out_path]
        start = time.perf_counter()
        rc = tracer.call("cli.main", cli.main, argv) if traced else cli.main(argv)
        elapsed = time.perf_counter() - start
        if rc != 0:
            return elapsed, None
        with open(out_path, "rb") as fh:
            data = fh.read()
        if op.label == args.perturb_value:
            data = _perturb_value(data)
        return elapsed, data

    def record(op, found: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"{op.label}: {p}" for p in found)

    walls: dict[bool, list[float]] = {False: [], True: []}
    op_times: dict[str, list[float]] = {op.label: [] for op in ops}
    start = time.perf_counter()
    pass_index = 0
    while True:
        traced = bool(args.trace) and pass_index % 2 == 1
        tracer.pass_index = pass_index
        if traced:
            tracer.install(cli)
        wall = 0.0
        tables: dict[str, dict] = {}
        for op in ops:
            tracer.op = op.label
            elapsed, data = run_op(op, traced)
            wall += elapsed
            if not traced:
                op_times[op.label].append(elapsed)
            if data is None:
                record(op, ["non-zero exit code"])
                continue
            try:
                table = checks.read_table(data.decode())
                tables[op.label] = table
                found = checks.check_output(op.command, table, reference[op.label])
                if op.command == "path1d":
                    for other in ops:
                        if other.command == "evolve" and other.config is op.config:
                            found += checks.check_closed_form(tables.get(other.label, {}),
                                                              table)
            except (KeyError, IndexError, ValueError) as exc:
                found = [f"unreadable output: {exc!r}"]
            first = first_output.setdefault(op.label, data)
            if data != first:
                found.append("output differs from the first pass")
            record(op, found)
        if traced:
            tracer.uninstall(cli)
        walls[traced].append(wall)
        if pass_index == 0:
            # Later passes in the same process add allocator growth that a
            # single CLI call never sees, so the peak is taken after one pass.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pass_index += 1
        if args.trace and not walls[True]:
            continue
        next_traced = bool(args.trace) and pass_index % 2 == 1
        estimate = statistics.median(walls[next_traced])
        if time.perf_counter() - start + estimate > args.seconds:
            break

    # Determinism: the cheapest operation again, byte for byte.
    cheapest = min(ops, key=lambda op: statistics.median(op_times[op.label]))
    _, data = run_op(cheapest, False)
    if data is not None and args.perturb_rerun:
        data = data.replace(b"\n", b"\r\n", 1)
    record(cheapest, [] if data == first_output.get(cheapest.label)
           else ["determinism rerun output is not byte-identical"])

    result = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls[False]),
        "pass_walls_s": walls[False],
        "op_median_s": {label: statistics.median(t) for label, t in op_times.items()},
        "determinism_op": cheapest.label,
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "python": sys.version.split()[0],
        "numpy": __import__("numpy").__version__,
        "blas_threads": _blas_threads(),
    }
    if args.trace:
        traced_passes = sorted({s.pass_index for s in tracer.spans})
        result["traced_wall_s"] = statistics.median(walls[True])
        result["pass_walls_traced_s"] = walls[True]
        result["layers"] = _medians([tracer.pass_summary(i) for i in traced_passes])
        result["spans"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
