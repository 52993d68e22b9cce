"""Brute-force reference computations.

naive_theta sums theta series with no certification, as an independent
cross-check on the main evaluator. janssen_F evaluates the lattice
time-frequency series

    F(x, w) = n sum_{k,l} (-1)^{k l n} e^{-(pi/2)(k^2/beta^2 + l^2/alpha^2)}
                          e^{2 pi i k x} e^{2 pi i l w}

whose infimum/supremum over the unit square reproduce the closed-form
frame bounds; the sum is real and is folded onto k, l >= 0 cosines.

numpy is imported on first use, so importing thetaframe does not pay for
it unless the lattice oracle runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .frame import FrameBounds, LatticeParams, _theta_args
from .theta import ThetaFamily

_TAIL_TARGET = 1e-13


@dataclass(frozen=True)
class ExtremaReport:
    """Grid extrema of F over {i/grid_steps : 0 <= i < grid_steps}^2."""

    max_value: float
    argmax: tuple[float, float]
    min_value: float
    argmin: tuple[float, float]
    grid_steps: int
    truncation_K: int


def naive_theta(family: ThetaFamily, s: float, k_max: int) -> float:
    """Plain partial sum over |k| <= k_max (odd family: |2k+1| <= 2k_max+1).

    No error control; intended as an independent sanity oracle.
    """
    if not isinstance(family, ThetaFamily):
        raise DomainError(f"expected ThetaFamily, got {family!r}")
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError(f"s={s!r} must be positive")
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 0:
        raise DomainError(f"k_max={k_max!r} must be a non-negative integer")
    kind = family.kind
    if kind == "theta_odd":
        return math.fsum(
            2.0 * math.exp(-math.pi * (2 * j + 1) ** 2 * s)
            for j in range(k_max + 1))
    terms = [1.0]
    for k in range(1, k_max + 1):
        t = 2.0 * math.exp(-math.pi * k * k * s)
        if kind == "theta4" and k % 2:
            t = -t
        elif kind == "theta_general":
            t *= math.cos(2.0 * math.pi * family.z * k)
        terms.append(t)
    return math.fsum(terms)


def auto_k_max(params: LatticeParams) -> int:
    """Smallest K whose neglected Gaussian tail is below 1e-13.

    Uses (2K+1)^2 e^{-(pi/2) K^2 m} < 1e-13 with m = min(1/beta^2,
    1/alpha^2), the crude envelope of the neglected coefficient mass.
    """
    m = min(1.0 / params.beta ** 2, 1.0 / params.alpha ** 2)
    k = 1
    while (2 * k + 1) ** 2 * math.exp(-0.5 * math.pi * k * k * m) >= _TAIL_TARGET:
        k += 1
        if k > 10 ** 5:
            raise ConvergenceError(
                "lattice too eccentric: truncation index exceeds 1e5")
    return k


def _coefficients(params: LatticeParams, k_max: int | None):
    # the frame_bounds domain caps auto_k_max at 3,904 (122 MB of weights);
    # outside it K can grow to 1e5, and the matrix to 80 GB, before failing
    _theta_args(params.n, params.beta)
    import numpy as np

    if k_max is None:
        k_max = auto_k_max(params)
    elif not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
        raise DomainError(f"k_max={k_max!r} must be a positive integer")
    k = np.arange(k_max + 1)
    ek = np.exp(-0.5 * math.pi * k ** 2 / params.beta ** 2)
    el = np.exp(-0.5 * math.pi * k ** 2 / params.alpha ** 2)
    c = np.where(k == 0, 1.0, 2.0)
    w = np.outer(c * ek, c * el) * float(params.n)
    if params.n % 2:
        odd = (np.outer(k, k) % 2).astype(bool)
        w = np.where(odd, -w, w)
    return w, k_max


def janssen_F(x: float, omega: float, params: LatticeParams,
              k_max: int | None = None) -> float:
    """Evaluate F at a single point of the unit square."""
    x = float(x)
    omega = float(omega)
    if not (0.0 <= x <= 1.0 and 0.0 <= omega <= 1.0):
        raise DomainError(f"(x, omega)=({x!r}, {omega!r}) outside [0, 1]^2")
    if not isinstance(params, LatticeParams):
        raise DomainError(f"expected LatticeParams, got {params!r}")
    import numpy as np

    w, kk = _coefficients(params, k_max)
    k = np.arange(kk + 1)
    cx = np.cos(2.0 * math.pi * k * x)
    cw = np.cos(2.0 * math.pi * k * omega)
    return math.fsum((w * np.outer(cx, cw)).ravel().tolist())


def grid_extrema_F(params: LatticeParams, grid_steps: int = 128,
                   k_max: int | None = None) -> ExtremaReport:
    """Extrema of F over the uniform grid {i/grid_steps}^2.

    Ties resolve to the lexicographically smallest (i, j). An even
    grid_steps places both (0, 0) and (1/2, 1/2) on the grid.
    """
    if not isinstance(params, LatticeParams):
        raise DomainError(f"expected LatticeParams, got {params!r}")
    if (not isinstance(grid_steps, int) or isinstance(grid_steps, bool)
            or grid_steps < 8):
        raise DomainError(f"grid_steps={grid_steps!r} must be an int >= 8")
    import numpy as np

    w, kk = _coefficients(params, k_max)
    k = np.arange(kk + 1)
    xs = np.arange(grid_steps) / grid_steps
    cos_grid = np.cos(2.0 * math.pi * np.outer(k, xs))
    f = cos_grid.T @ w @ cos_grid
    flat_max = int(np.argmax(f))
    flat_min = int(np.argmin(f))
    i_max, j_max = divmod(flat_max, grid_steps)
    i_min, j_min = divmod(flat_min, grid_steps)
    return ExtremaReport(
        max_value=float(f.flat[flat_max]),
        argmax=(float(xs[i_max]), float(xs[j_max])),
        min_value=float(f.flat[flat_min]),
        argmin=(float(xs[i_min]), float(xs[j_min])),
        grid_steps=grid_steps,
        truncation_K=kk,
    )


def frame_bounds_via_F(params: LatticeParams, grid_steps: int = 128,
                       k_max: int | None = None) -> FrameBounds:
    """Frame bounds estimated from the grid extrema of F.

    error_bound combines the neglected series tail with a Lipschitz
    grid-resolution term, so it is much looser than the closed forms.
    """
    import numpy as np

    rep = grid_extrema_F(params, grid_steps, k_max)
    kk = rep.truncation_K
    mb = 0.5 * math.pi / params.beta ** 2
    ma = 0.5 * math.pi / params.alpha ** 2
    k = np.arange(1, kk + 1)
    eb = np.exp(-mb * k ** 2)
    ea = np.exp(-ma * k ** 2)
    tail_b = 2.0 * math.exp(-mb * (kk + 1) ** 2) / (
        -math.expm1(-mb * (2 * kk + 3)))
    tail_a = 2.0 * math.exp(-ma * (kk + 1) ** 2) / (
        -math.expm1(-ma * (2 * kk + 3)))
    full_b = 1.0 + 2.0 * float(np.sum(eb)) + tail_b
    full_a = 1.0 + 2.0 * float(np.sum(ea)) + tail_a
    tail = params.n * (tail_b * full_a + full_b * tail_a + tail_a * tail_b)
    lip_x = params.n * 4.0 * math.pi * float(np.sum(k * eb)) * full_a
    lip_w = params.n * 4.0 * math.pi * float(np.sum(k * ea)) * full_b
    h = 1.0 / rep.grid_steps
    error_bound = tail + 0.5 * h * (lip_x + lip_w)
    lower = rep.min_value
    upper = rep.max_value
    ratio = upper / lower if lower > 0.0 else math.inf
    return FrameBounds(lower, upper, ratio, error_bound,
                       lower > error_bound)
