"""Brute-force reference computation of the frame bounds.

janssen_F evaluates the lattice time-frequency series

    F(x, w) = n sum_{k,l} (-1)^{k l n} e^{-(pi/2)(k^2/beta^2 + l^2/alpha^2)}
                          e^{2 pi i k x} e^{2 pi i l w}

whose infimum/supremum over the unit square reproduce the closed-form
frame bounds, truncated at |k|, |l| <= K = auto_k_max(params); the theta
domain checked by LatticeParams keeps K <= 3,904. On k >= 0, with weights
a_k = c_k e^{-(pi/2) k^2/beta^2} (c_0 = 1, else 2), u(x) = sum a_k
cos(2 pi k x), v(w) likewise with alpha, and u_o, v_o their odd-k parts,
F = n u v for even n and n (u v - 2 u_o v_o) for odd n. F is even in x
and in w, so a grid of G = 8 to 4,096 steps per axis is searched on
i, j <= G/2: even n builds no table of F, odd n one of (G/2 + 1)^2.

numpy is imported on first use, so importing thetaframe does not pay for
it unless the lattice oracle runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, integer, real
from .frame import FrameBounds, LatticeParams

_TAIL_TARGET = 1e-13
_MAX_GRID_STEPS = 4096


@dataclass(frozen=True)
class ExtremaReport:
    """Grid extrema of F over {i/grid_steps : 0 <= i < grid_steps}^2."""

    max_value: float
    argmax: tuple[float, float]
    min_value: float
    argmin: tuple[float, float]
    grid_steps: int
    truncation_K: int


def auto_k_max(params: LatticeParams) -> int:
    """Smallest K whose neglected Gaussian tail is below 1e-13.

    Uses (2K+1)^2 e^{-(pi/2) K^2 m} < 1e-13 with m = min(1/beta^2,
    1/alpha^2), the crude envelope of the neglected coefficient mass.
    """
    if not isinstance(params, LatticeParams):
        raise DomainError(f"expected LatticeParams, got {params!r}")
    m = min(1.0 / params.beta ** 2, 1.0 / params.alpha ** 2)
    k = 1
    while (2 * k + 1) ** 2 * math.exp(-0.5 * math.pi * k * k * m) >= _TAIL_TARGET:
        k += 1
    return k


def _factors(params: LatticeParams, xs):
    """L, R with F(xs[i], xs[j]) = (L @ R)[i, j], as factored above; K."""
    import numpy as np

    k_max = auto_k_max(params)
    k = np.arange(k_max + 1)
    c = np.where(k == 0, 1.0, 2.0)
    a = c * np.exp(-0.5 * math.pi * k ** 2 / params.beta ** 2)
    b = c * np.exp(-0.5 * math.pi * k ** 2 / params.alpha ** 2)
    a, b = a[:, None], b[:, None]
    if params.n % 2:
        odd = (k % 2)[:, None]
        a, b = np.hstack([a, -2.0 * odd * a]), np.hstack([b, odd * b])
    cos_grid = 2.0 * math.pi * np.outer(xs, k)
    np.cos(cos_grid, out=cos_grid)  # in place, so no second table
    return params.n * (cos_grid @ a), (cos_grid @ b).T, k_max


def janssen_F(x: float, omega: float, params: LatticeParams) -> float:
    """Evaluate F at a single point of the unit square."""
    x, omega = real(x, "x"), real(omega, "omega")
    if not (0.0 <= x <= 1.0 and 0.0 <= omega <= 1.0):
        raise DomainError(f"(x, omega)=({x!r}, {omega!r}) outside [0, 1]^2")
    left, right, _ = _factors(params, [x, omega])
    return float(left[0] @ right[:, 1])


def grid_extrema_F(params: LatticeParams,
                   grid_steps: int = 128) -> ExtremaReport:
    """Extrema of F over the uniform grid {i/grid_steps}^2.

    As F(x, w) = F(1 - x, w) = F(x, 1 - w), only i, j <= grid_steps/2 are
    searched, so an extremum at i > grid_steps/2 is reported at its mirror
    grid_steps - i. Ties resolve to the lexicographically smallest (i, j)
    searched; for even n, j only where v is extreme. An even grid_steps
    places both (0, 0) and (1/2, 1/2) on the grid.
    """
    if not 8 <= (grid_steps := integer(grid_steps, "grid_steps")) <= \
            _MAX_GRID_STEPS:
        raise DomainError(f"grid_steps={grid_steps!r} must be an int in "
                          f"[8, {_MAX_GRID_STEPS}]")
    import numpy as np

    steps = np.arange(grid_steps // 2 + 1)
    left, right, kk = _factors(params, steps / grid_steps)
    # even n, F = u_i v_j: on either sign of u_i, row i is extreme where v
    # is, and rounding keeps that order, so two columns hold both extrema
    cols = (steps if params.n % 2
            else sorted({int(np.argmin(right)), int(np.argmax(right))}))
    f = left @ right[:, cols]

    def located(flat):
        i, j = divmod(int(flat), len(cols))
        return float(f[i, j]), (i / grid_steps, int(cols[j]) / grid_steps)

    return ExtremaReport(*located(np.argmax(f)), *located(np.argmin(f)),
                         grid_steps, kk)


def frame_bounds_via_F(params: LatticeParams,
                       grid_steps: int = 128) -> FrameBounds:
    """Frame bounds estimated from the grid extrema of F.

    error_bound combines the neglected series tail with a Lipschitz
    grid-resolution term, so it is much looser than the closed forms.
    """
    import numpy as np

    rep = grid_extrema_F(params, grid_steps)
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
