"""Experiment configuration: JSON schema parsing, validation, model building.

Site indices are 0-based everywhere.  The schema is documented in the README;
unknown keys are rejected so that typos fail loudly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .regions import Region
from .swapcore import (CorrelatedSweep, EnsembleSpec, LocalStructure, Markov,
                       Uncorrelated, complete_structure, path_structure)


class ValidationError(ValueError):
    """A configuration document violates the schema; a model's own checks raise ValueError."""


_SECTIONS = {"model", "policy", "run", "output"}
_MODEL_KEYS = {"n", "d", "regions", "weights", "family"}
_POLICY_KEYS = {"kind", "initial", "matrix", "order", "step_weights"}
_RUN_KEYS = {"initial_region", "k_max", "seed", "samples", "cut", "area_law", "bounds"}
_OUTPUT_KEYS = {"path", "format"}
_ORDER_NAMES = ("identity", "expanding", "reversed")


@dataclass
class ExperimentConfig:
    model: dict[str, Any]
    policy: dict[str, Any]
    run: dict[str, Any] = field(default_factory=dict)
    output: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValidationError("config root must be a JSON object")
        unknown = set(raw) - _SECTIONS
        if unknown:
            raise ValidationError(f"unknown config sections: {sorted(unknown)}")
        for section in ("model", "policy"):
            if section not in raw:
                raise ValidationError(f"config is missing the '{section}' section")
        for section, value in raw.items():
            if not isinstance(value, dict):
                raise ValidationError(f"config section '{section}' must be an object, "
                                      f"got {value!r}")
        cfg = cls(model=dict(raw["model"]), policy=dict(raw["policy"]),
                  run=dict(raw.get("run", {})), output=dict(raw.get("output", {})))
        for keys, section, name in ((_MODEL_KEYS, cfg.model, "model"),
                                    (_POLICY_KEYS, cfg.policy, "policy"),
                                    (_RUN_KEYS, cfg.run, "run"),
                                    (_OUTPUT_KEYS, cfg.output, "output")):
            bad = set(section) - keys
            if bad:
                raise ValidationError(f"unknown keys in '{name}': {sorted(bad)}")
        for key in ("regions", "weights"):  # a family builds its own regions and weights
            if "family" in cfg.model and key in cfg.model:
                raise ValidationError(f"model.family and model.{key} cannot both be given")
        return cfg

    def canonical(self) -> dict[str, Any]:
        """Round-trippable echo of the effective configuration."""
        return {"model": self.model, "policy": self.policy,
                "run": self.run, "output": self.output}


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def _is_int(value: Any) -> bool:
    """An integer in the document; JSON true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(value: Any, key: str) -> tuple:
    """A list of JSON numbers as a tuple; true, false, strings and the rest name ``key``."""
    if not isinstance(value, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
        raise ValidationError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(value)


def _require(section: dict[str, Any], key: str, what: str) -> Any:
    if key not in section:
        raise ValidationError(f"{what} requires '{key}'")
    return section[key]


def model_shape(model: dict[str, Any]) -> tuple[int, int]:
    n = _require(model, "n", "model")
    d = _require(model, "d", "model")
    if not _is_int(n) or not _is_int(d):
        raise ValidationError("model n and d must be integers")
    return n, d


def region_from_sites(sites: Any, n: int) -> Region:
    if not isinstance(sites, (list, tuple)) or not all(_is_int(s) for s in sites):
        raise ValidationError(f"a region must be a list of site indices, got {sites!r}")
    if len(set(sites)) != len(sites):
        raise ValidationError(f"a region must list each site once, got {sites!r}")
    return Region.of(sites, n)


def structure_from_model(model: dict[str, Any]) -> LocalStructure:
    n, _ = model_shape(model)
    regions = _require(model, "regions", "model")
    if not isinstance(regions, list) or not regions:
        raise ValidationError("model.regions must be a nonempty list of site lists")
    weights = model.get("weights")
    return LocalStructure(n, tuple(region_from_sites(r, n) for r in regions),
                          None if weights is None else _numbers(weights, "model.weights"))


def family_structures(model: dict[str, Any]) -> list[tuple[int, LocalStructure]]:
    """Structures of a named family over a list of sizes (gap command)."""
    family = _require(model, "family", "gap model")
    if not isinstance(family, dict):
        raise ValidationError(f"model.family must be an object, got {family!r}")
    kind = _require(family, "kind", "model.family")
    sizes = _require(family, "sizes", "model.family")
    if not isinstance(sizes, list) or not sizes or not all(_is_int(s) for s in sizes):
        raise ValidationError("model.family.sizes must be a nonempty list of integers")
    builders = {"path": path_structure, "complete": complete_structure}
    if not isinstance(kind, str) or kind not in builders:
        raise ValidationError(f"unknown family kind {kind!r}; expected one of {sorted(builders)}")
    return [(n, builders[kind](n)) for n in sizes]


def resolve_order(order: Any, num_regions: int) -> tuple[int, ...]:
    """A sweep order: an explicit permutation or one of the named orders.

    ``identity`` and ``expanding`` both follow the listed region order
    (structures built edge-by-edge expand their covered set one site at a
    time); ``reversed`` walks it backwards.
    """
    if order in ("identity", "expanding"):
        return tuple(range(num_regions))
    if order == "reversed":
        return tuple(range(num_regions - 1, -1, -1))
    if isinstance(order, list) and all(_is_int(i) for i in order):
        return tuple(order)
    raise ValidationError(f"policy.order must be a permutation or one of {_ORDER_NAMES}, got {order!r}")


def _rows(value: Any, key: str) -> tuple:
    if not isinstance(value, list):
        raise ValidationError(f"{key} must be a list of lists of numbers, got {value!r}")
    return tuple(_numbers(row, f"{key}[{i}]") for i, row in enumerate(value))


def policy_from_config(policy: dict[str, Any], num_regions: int):
    kind = _require(policy, "kind", "policy")
    if kind == "uncorrelated":
        step_weights = policy.get("step_weights")
        if step_weights is None:
            return Uncorrelated()
        return Uncorrelated(_rows(step_weights, "policy.step_weights"))
    if kind == "markov":
        initial = _require(policy, "initial", "markov policy")
        matrix = _require(policy, "matrix", "markov policy")
        return Markov(_numbers(initial, "policy.initial"), _rows(matrix, "policy.matrix"))
    if kind == "sweep":
        return CorrelatedSweep(resolve_order(_require(policy, "order", "sweep policy"), num_regions))
    raise ValidationError(f"unknown policy kind {kind!r}")


def spec_from_config(cfg: ExperimentConfig, structure: LocalStructure | None = None) -> EnsembleSpec:
    """The config's policy on its model's structure, or on the given one (a family member)."""
    if structure is None:
        structure = structure_from_model(cfg.model)
    _, d = model_shape(cfg.model)
    return EnsembleSpec(structure, policy_from_config(cfg.policy, len(structure.regions)), d)


def run_int(cfg: ExperimentConfig, key: str, default: int | None = None) -> int:
    value = cfg.run.get(key, default)
    if value is None:
        raise ValidationError(f"run.{key} is required for this command")
    if not _is_int(value):
        raise ValidationError(f"run.{key} must be an integer, got {value!r}")
    return value
