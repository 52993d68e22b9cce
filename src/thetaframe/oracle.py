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
i, j <= G/2: even n tabulates F on the two columns where v is extreme,
odd n on all (G/2 + 1)^2 points.

Grids of up to 128 steps, the CLI's default, are searched in pure
Python; larger grids build the table with numpy, which is imported only
then, so janssen_F, frame_bounds_via_F and the default-grid search never
pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, integer, real
from .frame import FrameBounds, LatticeParams

_TAIL_TARGET = 1e-13
_MAX_GRID_STEPS = 4096
# the largest grid searched in pure Python: up to here the search costs
# less than importing numpy, above it numpy's table is the faster
_PURE_MAX_STEPS = 128


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


def _weights(params: LatticeParams):
    """K and the weights a_k, b_k of u and v for 0 <= k <= K, as lists."""
    k_max = auto_k_max(params)
    a, b = ([(2.0 if k else 1.0) * math.exp(-0.5 * math.pi * k ** 2 / s ** 2)
             for k in range(k_max + 1)]
            for s in (params.beta, params.alpha))
    return k_max, a, b


def _sums(params: LatticeParams, xs):
    """(u, v, u_o, v_o) at each x of xs, as defined above; K."""
    k_max, a, b = _weights(params)
    out = []
    for x in xs:
        u = v = u_o = v_o = 0.0
        for k in range(k_max, -1, -1):  # smallest terms first
            c = math.cos(2.0 * math.pi * (x * k))
            ac, bc = a[k] * c, b[k] * c
            u += ac
            v += bc
            if k % 2:
                u_o += ac
                v_o += bc
        out.append((u, v, u_o, v_o))
    return out, k_max


def _table(params: LatticeParams, grid_steps: int):
    """F on the searched grid, flat by row, its columns and K."""
    sums, k_max = _sums(params, [i / grid_steps
                                 for i in range(grid_steps // 2 + 1)])
    n = params.n
    if n % 2:
        left = [(n * u, n * (-2.0 * u_o)) for u, _, u_o, _ in sums]
        right = [(v, v_o) for _, v, _, v_o in sums]
        f = [l0 * r0 + l1 * r1 for l0, l1 in left for r0, r1 in right]
        return f, range(len(sums)), k_max
    # even n, F = u_i v_j: on either sign of u_i, row i is extreme where v
    # is, and rounding keeps that order, so two columns hold both extrema
    v = [s[1] for s in sums]
    cols = sorted({v.index(min(v)), v.index(max(v))})
    return [n * s[0] * v[j] for s in sums for j in cols], cols, k_max


def _factors(params: LatticeParams, grid_steps: int):
    """L, R with F(x_i, x_j) = (L @ R)[i, j], x_i = i/grid_steps <= 1/2,
    as factored above; K."""
    k_max = auto_k_max(params)  # refuses a foreign params before numpy
    import numpy as np

    xs = np.arange(grid_steps // 2 + 1) / grid_steps
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


def _numpy_table(params: LatticeParams, grid_steps: int):
    """_table's F, columns and K, with numpy's cosine table and products."""
    left, right, k_max = _factors(params, grid_steps)
    import numpy as np

    cols = (np.arange(len(left)) if params.n % 2
            else sorted({int(np.argmin(right)), int(np.argmax(right))}))
    return (left @ right[:, cols]).ravel(), cols, k_max


def janssen_F(x: float, omega: float, params: LatticeParams) -> float:
    """Evaluate F at a single point of the unit square."""
    x, omega = real(x, "x"), real(omega, "omega")
    if not (0.0 <= x <= 1.0 and 0.0 <= omega <= 1.0):
        raise DomainError(f"(x, omega)=({x!r}, {omega!r}) outside [0, 1]^2")
    ((u, _, u_o, _), (_, v, _, v_o)), _ = _sums(params, (x, omega))
    n = params.n
    return n * u * v + (n * (-2.0 * u_o) * v_o if n % 2 else 0.0)


def grid_extrema_F(params: LatticeParams,
                   grid_steps: int = 128) -> ExtremaReport:
    """Extrema of F over the uniform grid {i/grid_steps}^2.

    As F(x, w) = F(1 - x, w) = F(x, 1 - w), only i, j <= grid_steps/2 are
    searched, so an extremum at i > grid_steps/2 is reported at its mirror
    grid_steps - i. Ties resolve to the lexicographically smallest (i, j)
    searched; for even n, j only where v is extreme. An even grid_steps
    places both (0, 0) and (1/2, 1/2) on the grid. Grids of up to 128
    steps are searched in pure Python, larger ones with numpy.
    """
    if not 8 <= (grid_steps := integer(grid_steps, "grid_steps")) <= \
            _MAX_GRID_STEPS:
        raise DomainError(f"grid_steps={grid_steps!r} must be an int in "
                          f"[8, {_MAX_GRID_STEPS}]")
    if grid_steps <= _PURE_MAX_STEPS:
        f, cols, kk = _table(params, grid_steps)
        top, bottom = f.index(max(f)), f.index(min(f))
    else:
        f, cols, kk = _numpy_table(params, grid_steps)
        top, bottom = int(f.argmax()), int(f.argmin())

    def located(flat):
        i, j = divmod(flat, len(cols))
        return float(f[flat]), (i / grid_steps, int(cols[j]) / grid_steps)

    return ExtremaReport(*located(top), *located(bottom), grid_steps, kk)


def frame_bounds_via_F(params: LatticeParams,
                       grid_steps: int = 128) -> FrameBounds:
    """Frame bounds estimated from the grid extrema of F.

    error_bound combines the neglected series tail with a Lipschitz
    grid-resolution term, so it is much looser than the closed forms.
    """
    rep = grid_extrema_F(params, grid_steps)
    kk, a, b = _weights(params)
    mb = 0.5 * math.pi / params.beta ** 2
    ma = 0.5 * math.pi / params.alpha ** 2
    tail_b = 2.0 * math.exp(-mb * (kk + 1) ** 2) / (
        -math.expm1(-mb * (2 * kk + 3)))
    tail_a = 2.0 * math.exp(-ma * (kk + 1) ** 2) / (
        -math.expm1(-ma * (2 * kk + 3)))
    # a_k = 2 e^{-mb k^2} for k >= 1, and likewise b_k with ma
    full_b = sum(a) + tail_b
    full_a = sum(b) + tail_a
    tail = params.n * (tail_b * full_a + full_b * tail_a + tail_a * tail_b)
    lip_x = params.n * 2.0 * math.pi * sum(
        k * w for k, w in enumerate(a)) * full_a
    lip_w = params.n * 2.0 * math.pi * sum(
        k * w for k, w in enumerate(b)) * full_b
    h = 1.0 / rep.grid_steps
    error_bound = tail + 0.5 * h * (lip_x + lip_w)
    lower = rep.min_value
    upper = rep.max_value
    ratio = upper / lower if lower > 0.0 else math.inf
    return FrameBounds(lower, upper, ratio, error_bound,
                       lower > error_bound)
