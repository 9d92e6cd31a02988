"""Batch command-line front end producing deterministic CSV or JSON tables.

Subcommands: evolve | path1d | gap | oracle | bounds | fixcheck.  Exit codes:
0 success, 2 configuration or validation error, 3 resource-cap violation.
Output files are written atomically and contain no timestamps, so a rerun
with the same config and seed is byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any

from . import __version__
from .bounds import (area_law_bound, boundary_probability, BoundReport,
                     correlated_convergence_bound, entangling_power,
                     first_moment_convergence_bound, reachable_boundary_column,
                     swap_constant, t_design_delta)
from .config import (ExperimentConfig, ValidationError, family_structures,
                     load_config, model_shape, region_from_sites,
                     run_int, spec_from_config, structure_from_model)
from .errors import CapExceeded, check_cap
from .oracle import OracleConfig, mc_purity_trajectory
from .path1d import PathParams, purity_exact, short_time_form, spectrum
from .regions import Region
from .swapcore import (EnsembleSpec, LocalStructure, Uncorrelated, connected_components,
                       fixed_space_dimension, gram_half, purity_infinity, purity_trajectory,
                       spectral_gap_swap)

FIXCHECK_MAX_SITES = 10  # bounds the dense eigensolver's time; 2^9-square halves at 10 sites
# a Monte Carlo mean this close to P_k (say a purity that stays 1) is exact up to
# rounding, so its z-score is 0, not rounding noise over a rounding-sized stderr
Z_EXACT_TOL = 1e-12

_log = logging.getLogger("lrqc")


@dataclass
class ResultTable:
    """Equal-length named columns plus reproducibility metadata."""

    columns: dict[str, list]
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: {dict((k, len(v)) for k, v in self.columns.items())}")


def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lrqc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        mask = os.umask(0)  # mkstemp made the file 0600; give it the mode open() would
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(table: ResultTable, path: str, fmt: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        for key, value in sorted(table.metadata.items()):
            buf.write(f"# {key}={json.dumps(value, sort_keys=True, separators=(',', ':'))}\n")
        writer = csv.writer(buf, lineterminator="\n")
        names = list(table.columns)
        writer.writerow(names)
        length = len(table.columns[names[0]]) if names else 0
        for i in range(length):
            writer.writerow([_fmt_cell(table.columns[name][i]) for name in names])
        _atomic_write(path, buf.getvalue())
    elif fmt == "json":
        payload = {"metadata": table.metadata, "columns": table.columns}
        _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        raise ValidationError(f"unknown output format {fmt!r}")


def read_metadata_config(path: str) -> dict[str, Any]:
    """Re-parse the config echo from a result file (CSV comments or JSON metadata)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)["metadata"]["config"]
    for line in text.splitlines():
        if line.startswith("# config="):
            return json.loads(line[len("# config="):])
    raise ValueError(f"no config metadata found in {path}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _initial_region(cfg: ExperimentConfig, n: int) -> Region:
    sites = cfg.run.get("initial_region")
    if sites is None:
        raise ValidationError("run.initial_region is required for this command")
    return region_from_sites(sites, n)


def cmd_evolve(cfg: ExperimentConfig) -> ResultTable:
    n, d = model_shape(cfg.model)
    spec = spec_from_config(cfg)
    initial = _initial_region(cfg, n)
    k_max = run_int(cfg, "k_max")
    wanted = cfg.run.get("area_law", False)
    if not isinstance(wanted, bool):
        raise ValidationError(f"run.area_law must be true or false, got {wanted!r}")
    area_law = {}
    if wanted:  # before the trajectory, so that a refusal costs none of it
        if not isinstance(spec.policy, Uncorrelated) or spec.policy.step_weights is not None:
            raise ValidationError("the area-law column reads model.weights, so it applies to "
                                  "the uncorrelated policy without policy.step_weights only")
        ranges = reachable_boundary_column(initial, spec.structure, k_max)
        area_law["area_law_bound"] = [area_law_bound(p_x, p_xt, d, k).value
                                      for k, (p_x, p_xt) in enumerate(ranges)]
    p_inf = purity_infinity(initial, spec.structure, d)
    columns: dict[str, list] = {
        "k": list(range(k_max + 1)),
        "P_k": purity_trajectory(initial, spec, k_max),
        "P_infinity": [p_inf] * (k_max + 1),
        **area_law,
    }
    return ResultTable(columns)


def _cut_position(cfg: ExperimentConfig, length: int) -> int:
    if "cut" in cfg.run:
        cut = run_int(cfg, "cut")
        if not 0 <= cut <= length:
            raise ValidationError(f"run.cut must be in [0, {length}]")
        return cut
    region = _initial_region(cfg, length)
    sites = region.sites()
    if list(sites) != list(range(len(sites))):
        raise ValidationError("the chain model needs a prefix initial region {0..l-1} or run.cut")
    return len(sites)


def cmd_path1d(cfg: ExperimentConfig) -> ResultTable:
    length, d = model_shape(cfg.model)
    params = PathParams(length, d, _cut_position(cfg, length))
    k_max = run_int(cfg, "k_max")
    if k_max < 0:
        raise ValidationError("run.k_max must be >= 0")
    data = spectrum(params)
    rows = max(length, k_max) + 1
    def pad(values: list, total: int) -> list:
        return values + [None] * (total - len(values))
    columns = {
        "idx": list(range(rows)),
        "eigenvalue": pad(list(data.eigenvalues), rows),
        "gap": [data.gap] * rows,
        "P_k": pad([purity_exact(params, k) for k in range(k_max + 1)], rows),
        "short_time_P_k": pad([short_time_form(params, k) for k in range(k_max + 1)], rows),
        "short_time_valid": pad([k <= params.short_time_window for k in range(k_max + 1)], rows),
    }
    return ResultTable(columns)


def cmd_gap(cfg: ExperimentConfig) -> ResultTable:
    if "family" in cfg.model:
        instances = family_structures(cfg.model)
    else:
        structure = structure_from_model(cfg.model)
        instances = [(structure.n, structure)]
    gaps = [spectral_gap_swap(spec_from_config(cfg, structure)) for _, structure in instances]
    kind = cfg.policy["kind"]
    order = cfg.policy["order"] if kind == "sweep" else ""
    label = order if isinstance(order, str) else ",".join(map(str, order))
    return ResultTable({"n": [n for n, _ in instances], "policy": [kind] * len(gaps),
                        "permutation": [label] * len(gaps), "gap": gaps})


def cmd_oracle(cfg: ExperimentConfig) -> ResultTable:
    n, d = model_shape(cfg.model)
    spec = spec_from_config(cfg)
    initial = _initial_region(cfg, n)
    k_max = run_int(cfg, "k_max")
    oracle_cfg = OracleConfig(seed=run_int(cfg, "seed", 0),
                              samples=run_int(cfg, "samples", 1000), d=d, n=n)
    swap_traj = purity_trajectory(initial, spec, k_max)
    mc_traj = mc_purity_trajectory(spec, initial, k_max, oracle_cfg)
    zs = []
    for est, p_k in zip(mc_traj, swap_traj):
        if abs(est.mean - p_k) <= Z_EXACT_TOL:
            zs.append(0.0)
        elif est.stderr == 0.0:
            zs.append(math.inf)
        else:
            zs.append((est.mean - p_k) / est.stderr)
    return ResultTable({
        "k": list(range(k_max + 1)),
        "P_k": swap_traj,
        "mc_mean": [e.mean for e in mc_traj],
        "mc_stderr": [e.stderr for e in mc_traj],
        "z": zs,
    })


def _boundary_report(cfg: ExperimentConfig, sites: Any) -> BoundReport:
    structure = structure_from_model(cfg.model)
    target = region_from_sites(sites, structure.n)
    return BoundReport(boundary_probability(target, structure), "estimate",
                       {"target": list(target.sites())})


def _area_law_at_target(cfg: ExperimentConfig, sites: Any, d: int, k: int) -> BoundReport:
    p = _boundary_report(cfg, sites).value
    return area_law_bound(p, p, d, k)


# request name -> (function of the config and the parameters in order, required
# parameter names, optional parameter names, which default to None)
_BOUNDS = {
    "entangling_power": (lambda cfg, d: BoundReport(entangling_power(d), "estimate", {"d": d}),
                         ("d",), ()),
    "swap_constant": (lambda cfg, d: BoundReport(swap_constant(d), "estimate", {"d": d}),
                      ("d",), ()),
    "boundary_probability": (_boundary_report, ("target",), ()),
    "area_law": (lambda cfg, *args: area_law_bound(*args), ("pX", "pXtilde", "d", "k"), ()),
    "first_moment_convergence": (lambda cfg, *args: first_moment_convergence_bound(*args),
                                 ("omega_norm", "a_norm", "epsilon", "q_min", "num_regions"), ()),
    "correlated_convergence": (lambda cfg, *args: correlated_convergence_bound(*args),
                               ("gap", "n", "epsilon"), ()),
    "t_design": (lambda cfg, *args: t_design_delta(*args),
                 ("region_size", "alpha", "t", "d"), ("epsilon",)),
}
# the second form of area_law, chosen when the request names a target region
_AREA_LAW_AT_TARGET = (_area_law_at_target, ("target", "d", "k"), ())
# parameters that must be JSON integers; every other one but target must be a JSON number
_INTEGER_PARAMETERS = {"d", "k", "t", "region_size", "n", "num_regions"}


def _bound_row(request: Any, cfg: ExperimentConfig) -> tuple[str, BoundReport]:
    if not isinstance(request, dict):
        raise ValidationError(f"a bound request must be an object, got {request!r}")
    request = dict(request)
    name = request.pop("name", None)
    if not isinstance(name, str) or name not in _BOUNDS:
        raise ValidationError(f"unknown bound request {name!r}")
    at_target = name == "area_law" and "target" in request
    function, required, optional = _AREA_LAW_AT_TARGET if at_target else _BOUNDS[name]
    for key in required:
        if key not in request:
            raise ValidationError(f"bound request is missing parameter {key!r}")
    args = {key: request.pop(key) for key in required}
    args.update((key, request.pop(key)) for key in optional if key in request)
    if request:
        raise ValidationError(f"unknown keys in bound request {name!r}: {sorted(request)}")
    for key, value in args.items():
        integer = key in _INTEGER_PARAMETERS
        if key != "target" and (isinstance(value, bool) or
                                not isinstance(value, int if integer else (int, float))):
            raise ValidationError(f"bound request {name!r}: {key} must be "
                                  f"{'an integer' if integer else 'a number'}, got {value!r}")
    return name, function(cfg, *(args.get(key) for key in required + optional))


def cmd_bounds(cfg: ExperimentConfig) -> ResultTable:
    requests = cfg.run.get("bounds")
    if not isinstance(requests, list) or not requests:
        raise ValidationError("the bounds command needs a nonempty run.bounds list")
    names, values, kinds, inputs = [], [], [], []
    for request in requests:
        name, report = _bound_row(request, cfg)
        names.append(name)
        values.append(report.value)
        kinds.append(report.kind)
        inputs.append(json.dumps(report.inputs, sort_keys=True, separators=(',', ':')))
    return ResultTable({"name": names, "value": values, "kind": kinds, "inputs": inputs})


def _fixcheck_rows(structure: LocalStructure, d: int):
    """(case, regions, predicted, measured) fixed-space dimensions of one region, a disjoint
    and an overlapping pair, and the whole ensemble.

    Each case is measured on the sites its regions touch, relabelled 0..|S|-1 in order: a
    gate changes only the swap bits in its region, so the n-site step is the touched step
    times the identity on each idle site, and the count is the touched one times 2 per idle
    site.  The touched step is solved as the two halves of ``gram_half``: conjugated by the
    symmetric Gram root, it commutes with the complement involution and splits into two
    exactly symmetric 2^(|S|-1) blocks, built and solved one at a time by the symmetric
    eigensolver, whose counts add up.  The idle factor counts sites, not components, so the
    prediction stays independent."""
    n = structure.n
    regions = structure.regions
    cases = [("single", (regions[0],))]
    pairs = [(a, b) for i, a in enumerate(regions) for b in regions[i + 1:]]
    disjoint = next(((a, b) for a, b in pairs if (a & b).is_empty), None)
    overlap = next(((a, b) for a, b in pairs if not (a & b).is_empty and a != b), None)
    if disjoint is not None:
        cases.append(("pair-disjoint", disjoint))
    if overlap is not None:
        cases.append(("pair-overlap", overlap))
    cases.append(("full-ensemble", regions))
    for case, subset in cases:
        touched = sorted({s for r in subset for s in r.sites()})
        local = LocalStructure(len(touched), tuple(
            Region.of([touched.index(s) for s in r.sites()], len(touched)) for r in subset))
        size, idle = 1 << len(touched), n - len(touched)
        _log.debug("fixcheck %s: touched sites %s, %d x %d step matrix, idle factor 2^%d",
                   case, touched, size, size, idle)
        spec = EnsembleSpec(local, Uncorrelated(), d)
        measured = sum(fixed_space_dimension(gram_half(spec, sign)) for sign in (1, -1))
        predicted = connected_components(LocalStructure(n, subset)).fixed_dimension
        yield case, list(subset), predicted, measured << idle


def cmd_fixcheck(cfg: ExperimentConfig) -> ResultTable:
    n, d = model_shape(cfg.model)
    check_cap("fixcheck, whose cap bounds the dense symmetric eigensolver's time, not memory,",
              n, FIXCHECK_MAX_SITES, " sites")
    structure = structure_from_model(cfg.model)
    cases, details, predicted, measured, passed = [], [], [], [], []
    for case, involved, pred, meas in _fixcheck_rows(structure, d):
        cases.append(case)
        details.append(";".join(",".join(map(str, r.sites())) for r in involved))
        predicted.append(pred)
        measured.append(meas)
        passed.append(pred == meas)
    return ResultTable({"case": cases, "regions": details, "predicted_dim": predicted,
                        "measured_dim": measured, "pass": passed})


COMMANDS = {
    "evolve": cmd_evolve,
    "path1d": cmd_path1d,
    "gap": cmd_gap,
    "oracle": cmd_oracle,
    "bounds": cmd_bounds,
    "fixcheck": cmd_fixcheck,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrqc",
                                     description="Average-purity dynamics of local random circuits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--samples", type=int, help="override run.samples")
        p.add_argument("--out", help="override output.path")
        p.add_argument("--format", choices=("csv", "json"), help="override output.format")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.run["seed"] = args.seed
        if args.samples is not None:
            cfg.run["samples"] = args.samples
        if args.out is not None:
            cfg.output["path"] = args.out
        if args.format is not None:
            cfg.output["format"] = args.format
        out_path = cfg.output.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ValidationError(f"output.path must be a string, got {out_path!r}")
        if not out_path:
            raise ValidationError("an output path is required (output.path or --out)")
        fmt = cfg.output.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ValidationError(f"output format must be csv or json, got {fmt!r}")
        table = COMMANDS[args.command](cfg)
        table.metadata = {"version": __version__, "command": args.command,
                          "config": cfg.canonical()}
        write_table(table, out_path, fmt)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # OSError: output not writable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
