"""Fuzz the command line: hypothesis-built configs run through `lrqc.cli.main` in-process.

Run from the repository root:

    python tools/fuzz_cli.py                      # 500 examples
    python tools/fuzz_cli.py --examples 2000 --seed 7

Each example writes one config built from the README's schema and runs one of
the six commands on it through `lrqc.cli.main` of this checkout's `src/`.  A
config is valid, with distributions written as floats or as one-hot JSON
integers and extreme numbers where the schema admits them (d = 10^400,
q_min = 1e-17, 5e-324, 1e308), or, one time in three, the same config with one
number or list swapped for an extreme or wrong value: 2^63, 10^400, inf and
nan (which Python's JSON reads), a boolean, a string, null, or an empty list
or object.

A finding is an exit code outside {0, 2, 3}, an exception that escapes `main`
(which the shell would see as exit 1), or an exit-0 result file that
`read_metadata_config` cannot re-parse.  Findings are grouped by command,
exception and the frame that raised it, each with its first config; the last
line of output is a one-line summary, and the exit code is 1 if anything was
found.

Every quantity that sets how much work or memory a command takes before any cap
refuses it stays small, and no mutation makes it large: n (path1d's chain
length, given with run.cut, sizes its lists before any check), k_max (path1d
allocates for every step, and the oracle's samples run every step uncounted;
the swap trajectory counts its own), and the oracle's d and region sizes (its
gates are not counted against a cap, only d^n is).  An example must not be able
to exhaust the machine.  The gap family's sizes are mutated freely: a size
beyond 64 is refused by the first region its structure builds, and one beyond
14 by the gap's site cap.  This check is not part of the test suite.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import traceback
from collections import Counter

from hypothesis import HealthCheck, given, seed as hypothesis_seed, settings, strategies as st

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("evolve", "path1d", "gap", "oracle", "bounds", "fixcheck")

HUGE = 10**400  # beyond a float
# values a mutation puts in place of one number or list of a valid config
EXTREMES = (0, -1, 1, 2**63, 10**30, HUGE, 0.0, -1.0, 0.5, 1e-17, 5e-324, 1e308, math.inf,
            -math.inf, math.nan, None, True, "2", [], {})
# values that set the work of a command with no cap on them yet: path1d's chain length sizes
# its lists before any check, and path1d and the oracle's samples run k_max steps
UNCAPPED = (("model", "n"), ("run", "k_max"))


def distribution(m: int):
    """A distribution over m entries, as floats or as one-hot JSON integers."""
    return (st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any)
            .map(lambda w: [x / sum(w) for x in w])
            | st.integers(0, m - 1).map(lambda i: [int(j == i) for j in range(m)]))


def subset(n: int, min_size: int = 0, max_size: int | None = None):
    return st.lists(st.integers(0, n - 1), min_size=min_size, max_size=max_size,
                    unique=True).map(sorted)


@st.composite
def bound_requests(draw, n: int):
    """A README bound request with valid parameters, extreme ones among them."""
    name = draw(st.sampled_from(("entangling_power", "swap_constant", "boundary_probability",
                                 "area_law", "first_moment_convergence",
                                 "correlated_convergence", "t_design")))
    d = st.sampled_from((2, 3, 10**11, 10**17, 10**200, HUGE))
    unit = st.floats(0.0, 1.0) | st.sampled_from((1e-17, 5e-324, 1.0))
    positive = st.floats(1e-3, 1e3) | st.sampled_from((5e-324, 1e-300, 1e308, HUGE))
    count = st.integers(1, 6) | st.sampled_from((10**6, HUGE))
    if name in ("entangling_power", "swap_constant"):
        return {"name": name, "d": draw(d)}
    if name == "boundary_probability":
        return {"name": name, "target": draw(subset(n))}
    if name == "area_law":
        if draw(st.booleans()):
            return {"name": name, "target": draw(subset(n)), "d": draw(d),
                    "k": draw(count)}
        low, high = sorted((draw(unit), draw(unit)))
        return {"name": name, "pX": high, "pXtilde": low, "d": draw(d), "k": draw(count)}
    if name == "first_moment_convergence":
        return {"name": name, "omega_norm": draw(positive), "a_norm": draw(positive),
                "epsilon": draw(positive), "q_min": draw(unit.filter(bool)),
                "num_regions": draw(count)}
    if name == "correlated_convergence":
        return {"name": name, "gap": draw(unit.filter(bool)),
                "n": draw(st.integers(1, 3000) | st.just(HUGE)), "epsilon": draw(positive)}
    request = {"name": name, "region_size": draw(st.integers(1, 40) | st.just(HUGE)),
               "alpha": draw(positive), "t": draw(count), "d": draw(d)}
    if draw(st.booleans()):
        request["epsilon"] = draw(positive | st.just(0.0))
    return request


@st.composite
def valid_configs(draw):
    """(command, config): a config the README's schema admits, for one command."""
    command = draw(st.sampled_from(COMMANDS))
    n = draw(st.integers(1, 4 if command == "oracle" else 6))
    d = draw(st.sampled_from((2, 3)) | st.sampled_from((5, 10**30, HUGE)))
    if n > 1 and command == "gap" and draw(st.booleans()):
        model = {"n": n, "d": d, "family": {
            "kind": draw(st.sampled_from(("path", "complete"))),
            "sizes": draw(st.lists(st.integers(2, 7) | st.just(15), min_size=1, max_size=3))}}
        m = 1
    else:
        regions = draw(st.lists(subset(n, 1, 3), min_size=1, max_size=4))
        model, m = {"n": n, "d": d, "regions": regions}, len(regions)
        if draw(st.booleans()):
            model["weights"] = draw(distribution(m))
    k_max = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("uncorrelated", "markov", "sweep")))
    policy = {"kind": kind}
    if kind == "uncorrelated" and draw(st.booleans()):
        policy["step_weights"] = draw(st.lists(distribution(m), min_size=k_max, max_size=k_max))
    elif kind == "markov":
        policy["initial"] = draw(distribution(m))
        policy["matrix"] = draw(st.lists(distribution(m), min_size=m, max_size=m))
    elif kind == "sweep":
        policy["order"] = draw(st.permutations(range(m)).map(list)
                               | st.sampled_from(("identity", "expanding", "reversed")))
    run = {"initial_region": draw(subset(n)), "k_max": k_max}
    if command == "oracle":
        run["seed"] = draw(st.integers(0, 2**64))
        run["samples"] = draw(st.integers(2, 30))
    if command == "path1d" and draw(st.booleans()):
        run["cut"] = draw(st.integers(0, n))
    if command == "evolve":
        run["area_law"] = draw(st.booleans())
    if command == "bounds":
        run["bounds"] = draw(st.lists(bound_requests(n), min_size=1, max_size=3))
    output = {"format": draw(st.sampled_from(("csv", "json")))}
    return command, {"model": model, "policy": policy, "run": run, "output": output}


def _leaves(value, path=()):
    """The paths of the numbers and lists in a config, the lists before their entries."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        yield path
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    elif not isinstance(value, str):
        yield path


@st.composite
def configs(draw):
    """A valid config, or one with a number or list swapped for an extreme or wrong value."""
    command, config = draw(valid_configs())
    if draw(st.integers(0, 2)) == 0:
        path = draw(st.sampled_from(list(_leaves(config))))
        *head, last = path
        target = config
        for key in head:
            target = target[key]
        uncapped = tuple(path[:2]) in UNCAPPED
        target[last] = draw(st.sampled_from([x for x in EXTREMES if not (
            uncapped and isinstance(x, int) and x > 1)]))
    return command, config


def _run(command: str, config: dict, workdir: str) -> tuple[str | None, int | str]:
    """One example: (a finding's key or None, the exit code or the escaped exception)."""
    path = os.path.join(workdir, "config.json")
    out = os.path.join(workdir, f"out.{config['output']['format']}")
    if os.path.exists(out):
        os.unlink(out)
    config = dict(config, output=dict(config["output"], path=out))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    from lrqc.cli import main, read_metadata_config
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", path])
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} {frame.name}"
        return f"{command}: {type(exc).__name__} at {where}: {str(exc)[:100]}", "raised"
    if code not in (0, 2, 3):
        return f"{command}: exit {code}", code
    if code == 0:
        try:
            read_metadata_config(out)
        except Exception as exc:
            return f"{command}: exit 0 but the file does not re-parse: {exc!r}", code
    return None, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=500, help="configs to run")
    parser.add_argument("--seed", type=int, default=0, help="hypothesis seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    codes, findings = Counter(), {}

    with tempfile.TemporaryDirectory(prefix="lrqc-fuzz-") as workdir:
        @hypothesis_seed(args.seed)
        @settings(max_examples=args.examples, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(configs())
        def fuzz(case):
            command, config = case
            key, code = _run(command, config, workdir)
            codes[code] += 1
            if key is not None:
                findings.setdefault(key, config)

        fuzz()
    for key, config in sorted(findings.items()):
        print(f"{key}\n    {json.dumps(config)[:400]}")
    print(f"fuzz_cli: {sum(codes.values())} examples, exit codes "
          + ", ".join(f"{code}: {count}" for code, count in sorted(codes.items(), key=str))
          + f"; {len(findings)} distinct findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
