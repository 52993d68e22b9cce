"""Evaluation grids for sweeps and verification suites."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class GridSpec:
    """A one-dimensional grid of sample points.

    Parameters
    ----------
    min, max : float
        Finite endpoints, included in the grid. Must satisfy ``0 < min < max``
        for log scale and ``min < max`` otherwise.
    steps : int
        Number of points, at least 2.
    scale : str
        ``"linear"`` or ``"log"``.
    """

    min: float
    max: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.scale not in ("linear", "log"):
            raise DomainError(f"unknown grid scale {self.scale!r}")
        try:
            steps = operator.index(self.steps)
        except TypeError:
            raise DomainError(
                f"grid steps must be an integer, got {self.steps!r}") from None
        if steps < 2:
            raise DomainError("grid needs at least 2 points")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise DomainError("grid endpoints must be finite")
        if not (self.min < self.max):
            raise DomainError("grid endpoints must satisfy min < max")
        if self.scale == "log" and self.min <= 0.0:
            raise DomainError("log grid requires min > 0")

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
        # lerp at t=0 and t=1 is exact, but pin endpoints anyway
        out[0] = self.min
        out[-1] = self.max
        return out
