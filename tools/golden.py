"""Golden outputs: the benchmark's CLI operations, compared byte for byte with committed files.

Run from the repository root:

    python tools/golden.py            # compare with tools/golden/, exit 1 on a mismatch
    python tools/golden.py --update   # rewrite tools/golden/ from this checkout

Every operation of `perfbench/workloads.py` (16 of them over the four
workloads) runs at seeds 1 and 2, in csv and json, through `lrqc.cli.main`
of this checkout's `src/`.  Outputs are written in a temporary directory under
relative paths, so the config each file echoes names no directory.  A file
that differs from its committed copy is named, with the largest relative
difference of each column that moved.

The bytes depend on the platform: `tools/golden/versions.json` records the
Python, numpy and BLAS the committed files were made with, and a comparison
under other versions says so.  A change that moves the last bits of the Monte
Carlo columns, as the README's determinism section allows, regenerates the
files with `--update`, so the diff shows which outputs moved.  This check is
not part of the test suite.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tools", "golden")
SEEDS = (1, 2)
FORMATS = ("csv", "json")


def _versions() -> dict[str, str]:
    """The Python, numpy and BLAS that made the bytes."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _columns(path: str) -> dict[str, list[str]]:
    """A result file's columns as text cells, from its CSV rows or its JSON payload."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return {name: [json.dumps(v) for v in values]
                for name, values in json.loads(text)["columns"].items()}
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("# ")))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def _relative(a: str, b: str) -> float | None:
    """|a - b| / |a| for two numeric cells (|b| when a is 0), or None if either is text."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    return abs(x - y) / abs(x) if x else abs(y)


def _column_report(want: str, got: str) -> list[str]:
    """One line per column that differs: its largest relative difference."""
    old, new = _columns(want), _columns(got)
    lines = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            lines.append(f"    {name}: only in the {'new' if name in new else 'committed'} file")
            continue
        a, b = old[name], new[name]
        if len(a) != len(b):
            lines.append(f"    {name}: {len(b)} rows, committed {len(a)}")
            continue
        diffs = [_relative(x, y) for x, y in zip(a, b) if x != y]
        if not diffs:
            continue
        if None in diffs:
            lines.append(f"    {name}: text cells differ")
        else:
            lines.append(f"    {name}: largest relative difference {max(diffs):.3g} "
                         f"over {len(diffs)} cells")
    return lines or ["    no column differs: metadata or layout moved"]


def _run_all(workdir: str) -> list[str]:
    """Run every operation at every seed and format in workdir; the output file names."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import lrqc.cli as cli
    import workloads

    names = []
    start = os.getcwd()
    os.chdir(workdir)
    try:
        for seed in SEEDS:
            for workload in workloads.NAMES:
                for op in workloads.operations(workload, seed):
                    config = f"{workload}.{op.label}.s{seed}.config.json"
                    with open(config, "w", encoding="utf-8") as fh:
                        json.dump(op.config, fh)
                    for fmt in FORMATS:
                        out = f"{workload}.{op.label}.s{seed}.{fmt}"
                        code = cli.main([op.command, "--config", config, "--out", out,
                                         "--format", fmt])
                        if code != 0:
                            raise SystemExit(f"{out}: lrqc {op.command} exited {code}")
                        names.append(out)
                    os.unlink(config)
    finally:
        os.chdir(start)
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed files from this checkout")
    args = parser.parse_args(argv)
    versions = _versions()
    with tempfile.TemporaryDirectory(prefix="lrqc-golden-") as workdir:
        names = _run_all(workdir)
        if args.update:
            os.makedirs(GOLDEN, exist_ok=True)
            for old in os.listdir(GOLDEN):
                os.unlink(os.path.join(GOLDEN, old))
            for name in names:
                os.replace(os.path.join(workdir, name), os.path.join(GOLDEN, name))
            with open(os.path.join(GOLDEN, "versions.json"), "w", encoding="utf-8") as fh:
                json.dump(versions, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {len(names)} files and versions.json to {os.path.relpath(GOLDEN)}")
            return 0
        with open(os.path.join(GOLDEN, "versions.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)
        if recorded != versions:
            print(f"note: the committed files were made with {recorded}, this run uses "
                  f"{versions}; the bytes may differ for that reason alone")
        committed = sorted(n for n in os.listdir(GOLDEN) if n != "versions.json")
        report = io.StringIO()
        for name in sorted(set(committed) - set(names)):
            print(f"{name}: committed but no longer produced", file=report)
        mismatched = 0
        for name in names:
            want, got = os.path.join(GOLDEN, name), os.path.join(workdir, name)
            if not os.path.exists(want):
                print(f"{name}: produced but not committed", file=report)
                mismatched += 1
                continue
            with open(want, "rb") as a, open(got, "rb") as b:
                if a.read() == b.read():
                    continue
            mismatched += 1
            print(f"{name}: differs", file=report)
            print("\n".join(_column_report(want, got)), file=report)
    sys.stdout.write(report.getvalue())
    missing = len(set(committed) - set(names))
    print(f"{len(names) - mismatched} of {len(names)} files byte-identical to tools/golden/"
          + (f", {missing} committed files not produced" if missing else ""))
    return 0 if mismatched == 0 and missing == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
