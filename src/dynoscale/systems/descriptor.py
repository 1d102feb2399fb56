"""Strict JSON descriptors resolving to systems.

Each kind is a schema table over ``dynoscale.schema``: unknown keys, missing
keys and mistyped values are rejected with the offending key path, so
configuration mistakes surface before any computation starts.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigError, ParameterError
from ..schema import build, choice, integer, rational, tagged
from .base import DynamicalSystem, identity_system
from .intervals import doubling_grid, null_sequence_space, unit_lattice, random_space
from .shifts import discrete_alphabet, full_shift
from .combine import power_system, product_system


def resolve_system(data: Any, path: str = "system"):
    """Descriptor -> DynamicalSystem (or KolyadaSnohaMap for ladder maps)."""
    return tagged(data, "kind", _KINDS, path)


def _system(value, path):
    """Field type: a system a product or power can combine (no ladder map)."""
    # by global name, so a wrapper rebound on resolve_system sees nested calls
    system = resolve_system(value, path)
    if not isinstance(system, DynamicalSystem):
        raise ConfigError(path, "a ladder map cannot be combined")
    return system


def _alphabet(value, path):
    return tagged(value, "type", _ALPHABETS, path)


def _identity(make_space, **fields):
    """A static net carried by the identity map, default horizon cap 4."""
    return build(lambda horizon_cap, **kw: identity_system(make_space(**kw), horizon_cap),
                 dict(fields, horizon_cap=(integer(1), 4)))


def _kolyada(family, k_max, beta):
    from .kolyada import KolyadaSnohaMap
    if family == "F1":
        return KolyadaSnohaMap.family_f1(k_max)
    if family == "F3":
        return KolyadaSnohaMap.family_f3(k_max)
    if beta is None:
        raise ParameterError("beta is required for family F2")
    return KolyadaSnohaMap.family_f2(beta, k_max)


_ALPHABETS = {
    "discrete": build(discrete_alphabet, {"symbols": integer()}),
    "unit_lattice": build(unit_lattice, {"points": integer(2)}),
}

_KINDS = {
    "shift": build(full_shift, {
        "metric": (choice("exp", "product"), "exp"), "symbols": (integer(), 2),
        "depth": integer(), "alphabet": (_alphabet, None), "tail": (integer(), 0),
        "horizon_cap": (integer(1), None)}),
    "doubling": build(lambda grid, horizon_cap: doubling_grid(grid, horizon_cap),
                      {"grid": (integer(), 64), "horizon_cap": (integer(1), 8)}),
    "unit_lattice": _identity(unit_lattice, points=integer()),
    "null_sequence": _identity(null_sequence_space, k_max=integer()),
    "random": _identity(random_space, points=integer(1), seed=integer(0)),
    "kolyada": build(_kolyada, {"family": choice("F1", "F2", "F3"),
                                "k_max": integer(), "beta": (rational, None)}),
    "product": build(product_system, {"a": _system, "b": _system}),
    "power": build(lambda base, exponent: power_system(base, exponent),
                   {"base": _system, "exponent": integer()}),
}
