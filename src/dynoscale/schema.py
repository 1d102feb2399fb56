"""Strict checks for every JSON input: configs, descriptors, measures, instances.

A schema is a dict mapping each allowed key to a field type, or to a
``(field type, default)`` pair when the key is optional.  A field type is a
callable ``convert(value, path)`` that returns the checked value or raises
``ConfigError`` naming the offending key path.  JSON booleans never count as
numbers, numbers must be finite, and an integer is any number with no
fractional part, as in JSON Schema.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, ParameterError


def load_json(path: str | Path):
    """Parse a JSON file; a syntax error or an unreadable file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:line {exc.lineno}", exc.msg) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(path), str(exc)) from None


REQUIRED = object()


def check(data, fields: dict, path: str) -> dict:
    """Converted values of an object with exactly the keys ``fields`` allows."""
    if not isinstance(data, dict):
        raise ConfigError(path, "must be an object")
    for key in data:
        if key not in fields:
            raise ConfigError(f"{path}.{key}", "unknown key")
    values = {}
    for key, spec in fields.items():
        convert, default = spec if isinstance(spec, tuple) else (spec, REQUIRED)
        if key in data:
            values[key] = convert(data[key], f"{path}.{key}")
        elif default is REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required key")
        else:
            values[key] = default
    return values


def tagged(data, tag: str, schemas: dict, path: str):
    """Convert an object whose ``tag`` key picks its field type from ``schemas``."""
    if not isinstance(data, dict):
        raise ConfigError(path, "must be an object")
    kind = choice(*schemas)(data.get(tag), f"{path}.{tag}")
    return schemas[kind]({k: v for k, v in data.items() if k != tag}, path)


def build(make, fields: dict):
    """Field type: an object checked against ``fields`` and passed to ``make``.

    ``make`` receives the values as keywords; a ParameterError it raises
    is reported at the object's path.
    """
    def convert(value, path):
        values = check(value, fields, path)
        try:
            return make(**values)
        except ParameterError as exc:
            raise ConfigError(path, str(exc)) from None
    return convert


# -- field types ----------------------------------------------------------------


def integer(low: int | None = None):
    """Field type: an integer (``3`` or ``3.0``), at least ``low`` when given."""
    def convert(value, path):
        if type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not int or (low is not None and value < low):
            bound = "" if low is None else f" >= {low}"
            raise ConfigError(path, f"must be an integer{bound}, got {value!r}")
        return value
    return convert


def number(value, path: str) -> float:
    """Field type: a finite number, as a float."""
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError(path, f"must be a finite number, got {value!r}")


def rational(value, path: str) -> Fraction:
    """Field type: a finite number or a string such as "1/3", as a Fraction."""
    if type(value) is str:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(path, f"must be a rational, got {value!r}") from None
    number(value, path)
    return Fraction(value)


def boolean(value, path: str) -> bool:
    """Field type: true or false."""
    if type(value) is not bool:
        raise ConfigError(path, f"must be true or false, got {value!r}")
    return value


def choice(*options: str):
    """Field type: one of the given strings."""
    def convert(value, path):
        if type(value) is not str or value not in options:
            raise ConfigError(path, f"must be one of {list(options)}, got {value!r}")
        return value
    return convert


def list_of(item):
    """Field type: a nonempty list whose entries all have field type ``item``."""
    def convert(value, path):
        if type(value) is not list or not value:
            raise ConfigError(path, "must be a nonempty list")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return convert
