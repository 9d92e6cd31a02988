"""Output checks for the benchmark's operations.

Each check reads the CSV file a CLI call wrote and returns a list of problems
(empty when the output is correct).  Floating-point results are compared with
stored reference values at a relative tolerance, not bytewise, so a kernel
that sums in another order still passes.
"""
from __future__ import annotations

import csv
import io
import math

# A swap-basis kernel or gap solver that reorders sums moves results by far
# less than this; a wrong map or a wrong fixed space moves them by far more.
RTOL_TRAJECTORY = 1e-9
RTOL_GAP = 1e-8
ATOL = 1e-13
# Largest |z| accepted between a Monte Carlo mean and the exact purity.  The
# estimates average at least 300 samples, so |z| beyond this means a defect,
# not an unlucky seed.
Z_MAX = 6.0


def read_table(text: str) -> dict[str, list[str]]:
    """Columns of a CLI CSV file, skipping the `# key=value` metadata lines."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("# "))
    rows = list(csv.reader(io.StringIO(body)))
    if not rows:
        return {}
    header, data = rows[0], rows[1:]
    return {name: [row[i] for row in data] for i, name in enumerate(header)}


def _floats(column: list[str]) -> list[float]:
    return [float(x) for x in column if x != ""]


def _compare(name: str, got: list[float], want: list[float], rtol: float) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, reference has {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want))
           if not math.isclose(g, w, rel_tol=rtol, abs_tol=ATOL)]
    if bad:
        i = bad[0]
        return [f"{name}[{i}] = {got[i]!r}, reference {want[i]!r} ({len(bad)} off)"]
    return []


def check_output(command: str, table: dict[str, list[str]], reference: dict) -> list[str]:
    """Problems in one operation's output table against its reference entry."""
    if not table:
        return ["empty output"]
    problems: list[str] = []
    rtol = RTOL_GAP if command == "gap" else RTOL_TRAJECTORY
    for column, want in reference.items():
        if column not in table:
            problems.append(f"missing column {column}")
        elif command == "fixcheck":
            if table[column] != [str(v) for v in want]:
                problems.append(f"{column} {table[column]} != reference {want}")
        else:
            problems += _compare(column, _floats(table[column]), want, rtol)
    if command == "fixcheck":
        failing = [case for case, ok in zip(table["case"], table["pass"]) if ok != "true"]
        if failing:
            problems.append(f"fixcheck cases not passing: {failing}")
    if command == "oracle":
        zs = _floats(table["z"])
        worst = max((abs(z) for z in zs), default=math.inf)
        if not worst <= Z_MAX:
            problems.append(f"max |z| = {worst} exceeds {Z_MAX}")
        stderr = _floats(table["mc_stderr"])
        if any(not (s >= 0.0 and math.isfinite(s)) for s in stderr):
            problems.append("non-finite or negative Monte Carlo stderr")
    return problems


def check_closed_form(evolve_table: dict[str, list[str]],
                      path1d_table: dict[str, list[str]]) -> list[str]:
    """The swap-basis trajectory of a prefix region on a path equals the chain formula."""
    return _compare("P_k vs path1d", _floats(evolve_table.get("P_k", [])),
                    _floats(path1d_table.get("P_k", [])), RTOL_TRAJECTORY)


# Columns compared against the stored reference, per command.
REFERENCE_COLUMNS = {
    "evolve": ("P_k", "P_infinity", "area_law_bound"),
    "path1d": ("eigenvalue", "P_k", "short_time_P_k"),
    "oracle": ("P_k",),
    "gap": ("gap",),
    "fixcheck": ("measured_dim",),
}


def reference_entry(command: str, table: dict[str, list[str]]) -> dict:
    """The values of `table` that `check_output` compares, for the reference file."""
    entry = {}
    for column in REFERENCE_COLUMNS[command]:
        if column in table:
            values = _floats(table[column])
            entry[column] = [int(v) for v in values] if command == "fixcheck" else values
    return entry
