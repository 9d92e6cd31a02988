"""Mutation checks: small deliberate faults in `src/`, each of which named tests must catch.

Run from the repository root:

    python tools/mutants.py              # every mutant
    python tools/mutants.py -k gram      # the mutants whose name contains "gram"
    python tools/mutants.py --list       # names and files only

Each mutant names a file under `src/lrqc/`, an exact text that occurs once in it, the
text put in its place, and the tests to run.  The runner copies `src/` and `tests/` of
this checkout to a temporary directory and first runs the union of the mutants' tests
there unchanged, which must pass.  Then, one mutant at a time, it writes the mutated file
into the copy, runs that mutant's tests with pytest (stopping at the first failure), and
puts the file back.  A mutant is killed when its tests fail or error, and survives when
they pass.  A mutant marked as a known survivor is a change the tests cannot see, kept in
the list so that a change to that shows.

One line per mutant, then a one-line summary.  The exit code is 1 when an unmarked mutant
survives, a marked one is killed, an old text is not found exactly once, or the unchanged
tests fail.  Nothing here uses the network, and the check is not part of the test suite.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 900  # a mutant whose tests run longer than this counts as killed


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/lrqc/
    old: str
    new: str
    tests: tuple[str, ...]
    survivor: str = ""  # why a known survivor survives; empty for a mutant that must die


MUTANTS = (
    Mutant("per-step-weights-reversed", "swapcore.py",
           "(start, range(k - 1, -1, -1))", "(start, range(k))",
           ("tests/test_oracle.py::TestTwoCopyReference",
            "tests/test_oracle.py::TestMcPurity::test_step_weights_run_in_circuit_order")),
    Mutant("per-step-work-counted-as-constant", "swapcore.py",
           "same = next((j for j, row in enumerate(rows) if row != rows[0]), k_max)",
           "same = k_max",
           ("tests/test_swapcore.py::TestTrajectory::test_work_counted_before_the_first_step",
            "tests/test_cli.py::test_trajectory_work_refused_before_any_step")),
    Mutant("alpha-plus-perturbed", "swapcore.py",
           "return (cp + cm) / 2, (cp - cm) / 2",
           "return (cp + cm) / 2 * (1 + 1e-7), (cp - cm) / 2",
           ("tests/test_swapcore.py::TestAlphaCoefficients",)),
    Mutant("sweep-in-listed-order", "swapcore.py",
           "return spec.policy.order[::-1]", "return spec.policy.order",
           ("tests/test_stages.py", "tests/test_gap.py::test_gap_matches_dense_reference")),
    Mutant("view-kept-term-last", "swapcore.py",
           "            into += term(1.0, kept)\n"
           "            for p in range(1, full):\n"
           "                into += term(table[idx, row, p.bit_count()], p)\n",
           "            for p in range(1, full):\n"
           "                into += term(table[idx, row, p.bit_count()], p)\n"
           "            into += term(1.0, kept)\n",
           ("tests/test_merge.py::test_view_stages_match_the_scatter",)),
    Mutant("view-straddled-descending", "swapcore.py",
           "for p in range(1, full):", "for p in reversed(range(1, full)):",
           ("tests/test_merge.py::test_view_stages_match_the_scatter",)),
    Mutant("zero-weights-kept", "swapcore.py",
           "for idx, q in enumerate(spec.step_weights(step_index)) if q]]",
           "for idx, q in enumerate(spec.step_weights(step_index))]]",
           ("tests/test_stages.py",)),
    Mutant("prune-tolerance-raised", "swapcore.py",
           "DEFAULT_PRUNE_TOL = 1e-15", "DEFAULT_PRUNE_TOL = 1e-3",
           ("tests/test_swapcore.py", "tests/test_merge.py")),
    Mutant("gram-half-fold-without-sign", "swapcore.py",
           "np.where(folded, sign * values, values)", "np.where(folded, values, values)",
           ("tests/test_gap.py::TestGramSymmetricStep", "tests/test_cli.py::TestFixcheck")),
    Mutant("lanczos-tolerance-loosened", "swapcore.py",
           "_LANCZOS_TOL = 1e-13", "_LANCZOS_TOL = 1e-4",
           ("tests/test_gap.py",)),
    Mutant("search-seen-not-extended", "swapcore.py",
           "            seen = np.insert(seen, at[new], frontier)\n", "",
           ("tests/test_bounds.py", "tests/test_swapkernel.py",
            "tests/test_cli.py::test_refusals_name_the_request_and_its_budget")),
    Mutant("fixcheck-idle-sites-dropped", "cli.py",
           "measured << idle", "measured",
           ("tests/test_cli.py::TestFixcheck",)),
    Mutant("z-exact-tolerance-zero", "cli.py",
           "Z_EXACT_TOL = 1e-12", "Z_EXACT_TOL = 0.0",
           ("tests/test_cli.py::TestOracleCmd",)),
    Mutant("region-pick-without-clamp", "oracle.py",
           "np.minimum((cum[row] <= u[:, None]).sum(axis=1), last[row])",
           "(cum[row] <= u[:, None]).sum(axis=1)",
           ("tests/test_oracle.py::TestSampleRegions",
            "tests/test_oracle.py::TestEnginePinnedToReference::test_pick_on_ties_and_rounding")),
    Mutant("forked-keeps-blas-threads", "oracle.py",
           "    set_threads(1)\n    children = []\n", "    children = []\n",
           ("tests/test_oracle.py::TestProcessHygiene",)),
    Mutant("gram-schmidt-one-pass", "oracle.py",
           "for _ in range(2 if j else 0):", "for _ in range(1 if j else 0):",
           ("tests/test_oracle.py::TestGramSchmidt", "tests/test_oracle.py::TestHaarUnitary")),
    Mutant("gram-schmidt-unordered-row-sums", "oracle.py",
           "            cr, ci = xs[:, 0].copy(), ys[:, 0].copy()\n"
           "            for i in range(1, m):\n"
           "                cr += xs[:, i]\n"
           "                ci += ys[:, i]\n",
           "            cr, ci = xs.sum(axis=1), ys.sum(axis=1)\n",
           ("tests/test_oracle.py::TestGramSchmidt",),
           survivor="it leaves every gate's bits unchanged on the platform tested, so no "
                    "test can see it"),
)


def _pytest(workdir: str, tests: tuple[str, ...]) -> tuple[int, float]:
    """pytest's exit code on the tests in the copy, or -1 past ``TIMEOUT_S``, and seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", *tests], cwd=workdir, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = -1
    return code, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-k", default="", help="run only the mutants whose name contains this")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.k in m.name]
    if args.list:
        for m in chosen:
            print(f"{m.name}  src/lrqc/{m.path}{'  (known survivor)' if m.survivor else ''}")
        return 0
    failures = 0
    with tempfile.TemporaryDirectory(prefix="lrqc-mutants-") as workdir:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(workdir, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, seconds = _pytest(workdir, tuple(dict.fromkeys(t for m in chosen for t in m.tests)))
        if code != 0:
            print(f"the unchanged tests did not pass (pytest exit {code}); no mutant was run")
            return 1
        print(f"unchanged: the mutants' tests pass ({seconds:.0f} s)")
        counts = {"killed": 0, "survived": 0}
        for m in chosen:
            path = os.path.join(workdir, "src", "lrqc", m.path)
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            if original.count(m.old) != 1:
                print(f"stale     {m.name}: its old text occurs {original.count(m.old)} times "
                      f"in src/lrqc/{m.path}")
                failures += 1
                continue
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original.replace(m.old, m.new))
            try:
                code, seconds = _pytest(workdir, m.tests)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            if code in (0, 1, 2, -1):
                outcome = "survived" if code == 0 else "killed"
                counts[outcome] += 1
                expected = "survived" if m.survivor else "killed"
                note = f"  (known survivor: {m.survivor})" if m.survivor else ""
                if outcome != expected:
                    failures += 1
                    note = "  UNEXPECTED" + note
                print(f"{outcome:<9} {m.name} ({seconds:.0f} s){note}")
            else:
                print(f"error     {m.name}: pytest exit {code}, the tests did not run")
                failures += 1
    known = sum(1 for m in chosen if m.survivor)
    print(f"mutants: {len(chosen)} run, {counts['killed']} killed, {counts['survived']} survived "
          f"({known} marked as known survivors); {failures} unexpected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
