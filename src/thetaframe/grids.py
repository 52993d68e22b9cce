"""Evaluation grids for sweeps and verification suites."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, integer, real


class GridSpec(NamedTuple("GridSpec", [("min", float), ("max", float),
                                       ("steps", int), ("scale", str)])):
    """A one-dimensional grid of sample points.

    Parameters
    ----------
    min, max : float
        Finite real endpoints, not bools, stored as floats, in the grid;
        ``0 < min < max`` for log scale and ``min < max`` otherwise.
    steps : int
        Number of points, an integer, not a bool, at least 2.
    scale : str
        ``"linear"`` or ``"log"``.
    """

    __slots__ = ()

    def __new__(cls, min: float, max: float, steps: int,
                scale: str = "linear"):
        if scale not in ("linear", "log"):
            raise DomainError(f"unknown grid scale {scale!r}")
        if (steps := integer(steps, "grid steps")) < 2:
            raise DomainError("grid needs at least 2 points")
        lo = real(min, "grid endpoints min")
        hi = real(max, "grid endpoints max")
        if not (lo < hi):
            raise DomainError("grid endpoints must satisfy min < max")
        if scale == "log" and lo <= 0.0:
            raise DomainError("log grid requires min > 0")
        return super().__new__(cls, lo, hi, steps, scale)

    # so _replace, which calls _make, validates too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def points(self) -> list[float]:
        """Return the grid points, endpoints exact."""
        n = self.steps
        if self.scale == "log":
            lo, hi = math.log(self.min), math.log(self.max)
        else:
            lo, hi = self.min, self.max
        out = []
        for i in range(n):
            t = i / (n - 1)
            x = lo * (1.0 - t) + hi * t
            out.append(math.exp(x) if self.scale == "log" else x)
        # exp(log x) != x for most x (0.05, 0.1, 1e-3, 1e-6): pin the ends
        out[0] = self.min
        out[-1] = self.max
        return out
