"""Regenerate `reference.json`: each operation's checked values, run once.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/make_reference.py

The stored values are compared at a relative tolerance (see `checks.py`).
Oracle operations store only the exact `P_k` column, which does not depend
on the workload seed; their Monte Carlo columns are checked through |z|.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from lrqc import cli  # noqa: E402


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for smoke in (False, True):
            for name in workloads.NAMES:
                entries = {}
                for op in workloads.operations(name, seed=1, smoke=smoke):
                    config_path = os.path.join(tmp, f"{op.label}.json")
                    out_path = os.path.join(tmp, f"{op.label}.csv")
                    with open(config_path, "w", encoding="utf-8") as fh:
                        json.dump(op.config, fh)
                    if cli.main([op.command, "--config", config_path, "--out", out_path]) != 0:
                        raise SystemExit(f"{name}/{op.label} failed")
                    with open(out_path, encoding="utf-8") as fh:
                        entries[op.label] = checks.reference_entry(op.command,
                                                                   checks.read_table(fh.read()))
                    print(f"{name}{'/smoke' if smoke else ''} {op.label}", flush=True)
                reference[name + ("/smoke" if smoke else "")] = entries
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
