"""Strict JSON descriptors resolving to systems.

Unknown keys are rejected with the offending key path, so configuration
mistakes surface before any computation starts.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigError
from .base import identity_system
from .intervals import doubling_grid, null_sequence_space, unit_lattice, random_space
from .kolyada import KolyadaSnohaMap
from .shifts import discrete_alphabet, full_shift, lattice_alphabet
from .combine import power_system, product_system

_SCHEMAS: dict[str, dict[str, tuple]] = {
    # kind -> {key: (required, type)}
    "shift": {"metric": (False, str), "symbols": (False, int),
              "depth": (True, int), "alphabet": (False, dict),
              "tail": (False, int), "horizon_cap": (False, int)},
    "doubling": {"grid": (False, int), "horizon_cap": (False, int)},
    "unit_lattice": {"points": (True, int), "horizon_cap": (False, int)},
    "null_sequence": {"k_max": (True, int), "horizon_cap": (False, int)},
    "random": {"points": (True, int), "seed": (True, int),
               "horizon_cap": (False, int)},
    "kolyada": {"family": (True, str), "k_max": (True, int),
                "beta": (False, (int, float, str))},
    "product": {"a": (True, dict), "b": (True, dict)},
    "power": {"base": (True, dict), "exponent": (True, int)},
}

_ALPHABET_SCHEMAS = {
    "discrete": {"symbols": (True, int)},
    "unit_lattice": {"points": (True, int)},
}


def _check_keys(data: dict, schema: dict, path: str) -> None:
    for key in data:
        if key in ("kind",):
            continue
        if key not in schema:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key, (required, typ) in schema.items():
        if required and key not in data:
            raise ConfigError(f"{path}.{key}", "missing required key")
        if key in data and not isinstance(data[key], typ):
            raise ConfigError(f"{path}.{key}",
                              f"expected {typ}, got {type(data[key]).__name__}")


def _alphabet(data: dict, path: str):
    kind = data.get("type")
    if kind not in _ALPHABET_SCHEMAS:
        raise ConfigError(f"{path}.type", f"unknown alphabet type {kind!r}")
    schema = _ALPHABET_SCHEMAS[kind]
    for key in data:
        if key != "type" and key not in schema:
            raise ConfigError(f"{path}.{key}", "unknown key")
    if kind == "discrete":
        return discrete_alphabet(int(data["symbols"]))
    return lattice_alphabet(int(data["points"]))


def resolve_system(data: Any, path: str = "system"):
    """Descriptor -> DynamicalSystem (or KolyadaSnohaMap for ladder maps)."""
    if not isinstance(data, dict):
        raise ConfigError(path, "descriptor must be an object")
    kind = data.get("kind")
    if kind not in _SCHEMAS:
        raise ConfigError(f"{path}.kind", f"unknown system kind {kind!r}")
    _check_keys(data, _SCHEMAS[kind], path)
    cap = data.get("horizon_cap")
    if cap is not None and cap < 1:
        raise ConfigError(f"{path}.horizon_cap", f"must be >= 1, got {cap}")
    if kind == "shift":
        metric = data.get("metric", "exp")
        alphabet = None
        if "alphabet" in data:
            alphabet = _alphabet(data["alphabet"], f"{path}.alphabet")
        return full_shift(data.get("symbols", 2), data["depth"], metric=metric,
                          alphabet=alphabet, tail=data.get("tail", 0),
                          horizon_cap=cap)
    if kind == "doubling":
        return doubling_grid(data.get("grid", 64), horizon_cap=cap or 8)
    if kind == "unit_lattice":
        return identity_system(unit_lattice(data["points"]), cap or 4)
    if kind == "null_sequence":
        return identity_system(null_sequence_space(data["k_max"]), cap or 4)
    if kind == "random":
        return identity_system(random_space(data["points"], data["seed"]), cap or 4)
    if kind == "kolyada":
        family = data["family"]
        if family == "F1":
            return KolyadaSnohaMap.family_f1(data["k_max"])
        if family == "F2":
            if "beta" not in data:
                raise ConfigError(f"{path}.beta", "required for family F2")
            return KolyadaSnohaMap.family_f2(data["beta"], data["k_max"])
        if family == "F3":
            return KolyadaSnohaMap.family_f3(data["k_max"])
        raise ConfigError(f"{path}.family", f"unknown family {family!r}")
    if kind == "product":
        return product_system(resolve_system(data["a"], f"{path}.a"),
                              resolve_system(data["b"], f"{path}.b"))
    if kind == "power":
        return power_system(resolve_system(data["base"], f"{path}.base"),
                            data["exponent"])
    raise ConfigError(f"{path}.kind", f"unhandled kind {kind!r}")
