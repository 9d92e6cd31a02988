"""The benchmark's workloads: fixed lists of `lrqc` CLI operations.

Every input is fixed except `run.seed` of the oracle operations, which is the
workload seed.  Sizes follow the workload descriptions in `README.md` of this
directory; `smoke=True` gives the same shapes at sizes that run in seconds.
All models use local dimension d = 2 and nearest-neighbour or all-pairs
two-site regions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

NAMES = ("evolve-wide", "evolve-sparse", "spectral", "oracle-mc")

# The layer expected to hold the most self time on each workload.
PREDICTED_DOMINANT = {"evolve-wide": "swapcore", "evolve-sparse": "swapcore",
                      "spectral": "swapcore", "oracle-mc": "oracle"}


@dataclass(frozen=True)
class Op:
    """One CLI call: `lrqc <command> --config <file>` on `config`."""

    label: str
    command: str
    config: dict[str, Any]


def path_regions(n: int) -> list[list[int]]:
    return [[i, i + 1] for i in range(n - 1)]


def complete_regions(n: int) -> list[list[int]]:
    return [[i, j] for i in range(n) for j in range(i + 1, n)]


def alternating(n: int) -> list[int]:
    return list(range(0, n, 2))


def nearest_neighbour_markov(regions: list[list[int]]) -> dict[str, Any]:
    """Uniform start; each step moves uniformly to a region sharing a site."""
    m = len(regions)
    rows = []
    for a in regions:
        adj = [1.0 if set(a) & set(b) else 0.0 for b in regions]
        total = sum(adj)
        rows.append([x / total for x in adj])
    return {"kind": "markov", "initial": [1.0 / m] * m, "matrix": rows}


UNCORRELATED = {"kind": "uncorrelated"}
SWEEP = {"kind": "sweep", "order": "identity"}


def _model(kind: str, n: int) -> dict[str, Any]:
    regions = path_regions(n) if kind == "path" else complete_regions(n)
    return {"n": n, "d": 2, "regions": regions}


def _evolve(label, kind, n, initial, k, policy=UNCORRELATED, area_law=False) -> Op:
    run: dict[str, Any] = {"initial_region": initial, "k_max": k}
    if area_law:
        run["area_law"] = True
    return Op(label, "evolve", {"model": _model(kind, n), "policy": policy, "run": run})


def _gap(label, kind, sizes, policy=UNCORRELATED) -> Op:
    model = {"n": max(sizes), "d": 2, "family": {"kind": kind, "sizes": sizes}}
    return Op(label, "gap", {"model": model, "policy": policy, "run": {}})


def _oracle(label, kind, n, initial, samples, k, seed, policy=UNCORRELATED) -> Op:
    run = {"initial_region": initial, "k_max": k, "seed": seed, "samples": samples}
    return Op(label, "oracle", {"model": _model(kind, n), "policy": policy, "run": run})


def operations(name: str, seed: int, smoke: bool = False) -> list[Op]:
    """The operations of workload `name`, in the order one pass runs them."""
    if name == "evolve-wide":
        n1, n2, n3 = (8, 6, 7) if smoke else (14, 12, 12)
        k = 6 if smoke else 16
        return [
            _evolve("path-alt-area", "path", n1, alternating(n1), k, area_law=True),
            _evolve("complete-half", "complete", n2, list(range(n2 // 2)), k // 2),
            _evolve("path-alt-markov", "path", n3, alternating(n3), k,
                    policy=nearest_neighbour_markov(path_regions(n3))),
        ]
    if name == "evolve-sparse":
        n, ns = (12, 8) if smoke else (24, 16)
        half = n // 2
        path1d = {"model": _model("path", n), "policy": UNCORRELATED,
                  "run": {"initial_region": list(range(half)), "k_max": 40 if smoke else 200}}
        return [
            Op("path-prefix", "evolve", path1d),
            Op("path-prefix-closed-form", "path1d", path1d),
            _evolve("path-pair", "path", n, [half - 1, half], 8 if smoke else 16),
            _evolve("path-alt-sweep", "path", ns, alternating(ns), 4 if smoke else 10,
                    policy=SWEEP),
            _evolve("complete-alt-sweep", "complete", ns, alternating(ns), 2 if smoke else 4,
                    policy=SWEEP),
        ]
    if name == "spectral":
        path_sizes = [5, 6] if smoke else [8, 9, 10, 11]
        sizes = [5, 6] if smoke else [8, 9, 10]
        return [
            _gap("path-family", "path", path_sizes),
            _gap("path-family-sweep", "path", sizes, policy=SWEEP),
            _gap("complete-family", "complete", sizes),
            Op("complete-fixcheck", "fixcheck",
               {"model": _model("complete", 6 if smoke else 10), "policy": UNCORRELATED,
                "run": {}}),
        ]
    if name == "oracle-mc":
        n = 8 if smoke else 12
        scale = 10 if smoke else 1
        return [
            _oracle("path-half", "path", n, list(range(n // 2)), 300, 6 if smoke else 12, seed),
            _oracle("small-path", "path", 5, [0, 1], 10000 // scale, 8, seed),
            _oracle("small-path-markov", "path", 5, [0, 1], 10000 // scale, 8, seed,
                    policy=nearest_neighbour_markov(path_regions(5))),
            _oracle("small-complete-sweep", "complete", 5, [0, 1], 5000 // scale, 4, seed,
                    policy=SWEEP),
        ]
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
