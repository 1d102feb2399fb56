"""Finitely supported probability measures over a finite metric space."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from ..errors import ParameterError, RepresentationError
from ..schema import build, integer, list_of, load_json, number, rational

FLOAT_WEIGHT_TOL = Fraction(1, 10**12)


@dataclass(frozen=True)
class AtomicMeasure:
    """Distinct atoms (point indices) with positive rational weights summing to 1."""

    atoms: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise ParameterError("atoms and weights must be nonempty and aligned")
        if len(set(self.atoms)) != len(self.atoms):
            raise ParameterError("atoms must be distinct")
        if any(w <= 0 for w in self.weights):
            raise ParameterError("weights must be strictly positive")
        if sum(self.weights) != 1:
            raise ParameterError("weights must sum to exactly 1")

    @classmethod
    def from_weights(cls, atoms, weights) -> "AtomicMeasure":
        """Build from floats or rationals.

        Rational weights must sum to exactly 1.  When some weight is a float,
        a total within 1e-12 of 1 is accepted and renormalised.
        """
        if len(atoms) != len(weights):
            raise ParameterError(f"{len(atoms)} atoms but {len(weights)} weights")
        fr = [Fraction(w) if not isinstance(w, float) else Fraction(w).limit_denominator(10**15)
              for w in weights]
        total = sum(fr)
        if any(isinstance(w, float) for w in weights):
            if abs(total - 1) > FLOAT_WEIGHT_TOL:
                raise ParameterError(f"float weights sum to {float(total)}, not 1")
            fr = [w / total for w in fr]
        elif total != 1:
            raise ParameterError(f"weights sum to {total}, not 1")
        pairs = sorted(zip(atoms, fr))
        return cls(tuple(int(a) for a, _ in pairs), tuple(w for _, w in pairs))

    @classmethod
    def dirac(cls, atom: int) -> "AtomicMeasure":
        return cls((int(atom),), (Fraction(1),))

    @classmethod
    def uniform(cls, atoms) -> "AtomicMeasure":
        atoms = sorted(set(int(a) for a in atoms))
        if not atoms:
            raise ParameterError("uniform measure needs atoms")
        w = Fraction(1, len(atoms))
        return cls(tuple(atoms), tuple(w for _ in atoms))

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def weight_of(self, atom: int) -> Fraction:
        try:
            return self.weights[self.atoms.index(atom)]
        except ValueError:
            return Fraction(0)

    def mass(self, atom_set) -> Fraction:
        s = set(atom_set)
        return sum((w for a, w in zip(self.atoms, self.weights) if a in s),
                   start=Fraction(0))

    def mix(self, other: "AtomicMeasure", t: Fraction) -> "AtomicMeasure":
        """t * self + (1 - t) * other."""
        t = Fraction(t)
        if not 0 < t < 1:
            raise ParameterError("mixture parameter must lie in (0, 1)")
        acc: dict[int, Fraction] = {}
        for a, w in zip(self.atoms, self.weights):
            acc[a] = acc.get(a, Fraction(0)) + t * w
        for a, w in zip(other.atoms, other.weights):
            acc[a] = acc.get(a, Fraction(0)) + (1 - t) * w
        atoms = tuple(sorted(acc))
        return AtomicMeasure(atoms, tuple(acc[a] for a in atoms))

    def dominates(self, other: "AtomicMeasure", t: Fraction) -> bool:
        """Whether self - t*other is a nonnegative measure."""
        return all(self.weight_of(a) >= t * w
                   for a, w in zip(other.atoms, other.weights))


def pushforward(mu: AtomicMeasure, step: np.ndarray) -> AtomicMeasure:
    """Image measure under an index map; colliding atoms merge weights."""
    acc: dict[int, Fraction] = {}
    for a, w in zip(mu.atoms, mu.weights):
        if not 0 <= a < step.shape[0]:
            raise RepresentationError(f"atom {a} outside the represented set")
        img = int(step[a])
        acc[img] = acc.get(img, Fraction(0)) + w
    atoms = tuple(sorted(acc))
    return AtomicMeasure(atoms, tuple(acc[a] for a in atoms))


# -- JSON measure files -------------------------------------------------------


def measure_to_json(mu: AtomicMeasure) -> str:
    return json.dumps({"atoms": list(mu.atoms),
                       "weights": [str(w) for w in mu.weights]})


def _weight(value, path: str):
    """Field type: a JSON float stays a float, so that the float tolerance of
    ``from_weights`` applies to it; an integer or a string is read as a rational.
    """
    return number(value, path) if type(value) is float else rational(value, path)


# Field type of a measure object: exactly 'atoms' and 'weights'.
MEASURE = build(AtomicMeasure.from_weights,
                {"atoms": list_of(integer(0)), "weights": list_of(_weight)})


def measure_from_json(text: str | Path) -> AtomicMeasure:
    data = load_json(text) if isinstance(text, Path) else json.loads(text)
    return MEASURE(data, "measure")
