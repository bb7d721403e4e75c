"""Finite weighted measure spaces and elementary field operations.

A field is a plain ``numpy`` array of 64-bit floats aligned with
``MeasureSpace.points``.  Point identifiers are strings; the dense index is
assigned by listing order, so all iteration is deterministic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StructuralError


@dataclass(frozen=True)
class MeasureSpace:
    """Finite point set with strictly positive measure weights."""

    points: tuple[str, ...]
    mu: np.ndarray

    def __post_init__(self):
        points = tuple(self.points)
        mu = np.asarray(self.mu, dtype=float)
        if len(points) != len(set(points)):
            raise StructuralError("point identifiers must be unique")
        if mu.shape != (len(points),):
            raise StructuralError(
                f"measure has {mu.shape} entries for {len(points)} points"
            )
        bad = np.flatnonzero(~((0 < mu) & (mu < np.inf)))
        if len(bad):
            raise StructuralError(
                f"space.mu[{points[bad[0]]!r}]: measure weight must be > 0 and finite"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(points)})

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise StructuralError(f"unknown point {point!r}") from None

    def indicator(self, points) -> np.ndarray:
        """Boolean mask of a point set; an unknown point is a StructuralError."""
        mask = np.zeros(self.n, dtype=bool)
        mask[[self.index(p) for p in points]] = True
        return mask

    def check_field(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.n,):
            raise StructuralError(
                f"field has shape {f.shape}, expected ({self.n},)"
            )
        if not np.all(np.isfinite(f)):
            raise StructuralError("field values must be finite")
        return f

    def field(self, values=0.0) -> np.ndarray:
        """Build a field from a number or a point -> number mapping; anything
        else is a StructuralError."""
        if np.isscalar(values):
            return np.full(self.n, _number(values))
        if not isinstance(values, Mapping):
            raise StructuralError(
                "a field is a number or a point -> number mapping, "
                f"not a {type(values).__name__}"
            )
        out = np.zeros(self.n)
        idx = np.array([self._index.get(point, -1) for point in values], dtype=int)
        numbers = list(values.values())
        if idx.min(initial=0) >= 0 and set(map(type, numbers)) <= {float, int}:
            out[idx] = numbers
            return out
        # numpy scalars and numeric strings, or the first bad entry to name
        for point, value in values.items():
            out[self.index(point)] = _number(value)
        return out

    def as_dict(self, f) -> dict[str, float]:
        f = self.check_field(f)
        return {p: float(f[i]) for i, p in enumerate(self.points)}

    # -- inner products and norms ------------------------------------------

    def inner(self, f, g) -> float:
        f = self.check_field(f)
        g = self.check_field(g)
        return float(np.sum(self.mu * f * g))

    def norm(self, f) -> float:
        f = self.check_field(f)
        return float(np.sqrt(np.sum(self.mu * f * f)))

    def l1_norm(self, f) -> float:
        return float(np.sum(self.mu * np.abs(self.check_field(f))))

    def total_mass(self) -> float:
        return float(np.sum(self.mu))


def _number(value) -> float:
    """A field value as a float; a boolean is not a number."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise StructuralError(f"field value {value!r} is not a number")


def lattice_ops(f, g) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise minimum and maximum of two fields on the same space."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise StructuralError("lattice_ops: fields live on different spaces")
    return np.minimum(f, g), np.maximum(f, g)


def weighted_lp_norm(space: MeasureSpace, f, p: float, w) -> float:
    """(sum_x mu_x w_x |f_x|^p)^(1/p) for p >= 1 and w >= 0."""
    if p < 1:
        raise ParameterError(f"weighted_lp_norm requires p >= 1, got {p}")
    f = space.check_field(f)
    w = space.check_field(w)
    if np.any(w < 0):
        raise ParameterError("weighted_lp_norm requires w >= 0")
    return float(np.sum(space.mu * w * np.abs(f) ** p) ** (1.0 / p))
