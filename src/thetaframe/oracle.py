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
Python. Larger grids run the same sums over numpy arrays, so their
memory is O(G) plus odd n's table; numpy is imported only then, so
janssen_F, frame_bounds_via_F and the default-grid search never pay for
it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, integer, real
from .frame import FrameBounds, LatticeParams, _frame_record

_TAIL_TARGET = 1e-13
_MAX_GRID_STEPS = 4096
# the largest grid searched in pure Python: up to here the search costs
# less than importing numpy, above it numpy's table is the faster
_PURE_MAX_STEPS = 128


class ExtremaReport(NamedTuple):
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


def _sums(x, k_max: int, a, b, cos=math.cos):
    """(u, v, u_o, v_o) at x from _weights' K, a and b, as defined above.

    x is a float, or a numpy array with cos=np.cos; each element gets the
    same float operations either way.
    """
    u = v = u_o = v_o = 0.0
    for k in range(k_max, -1, -1):  # smallest terms first
        c = cos(2.0 * math.pi * (x * k))
        ac, bc = a[k] * c, b[k] * c
        u += ac
        v += bc
        if k % 2:
            u_o += ac
            v_o += bc
    return u, v, u_o, v_o


def _table(params: LatticeParams, grid_steps: int, k_max: int, a, b):
    """F on the searched grid from _weights' K, a and b, flat by row, and
    its columns: a list up to _PURE_MAX_STEPS steps, a numpy array above
    them."""
    rows, n = range(grid_steps // 2 + 1), params.n
    if grid_steps <= _PURE_MAX_STEPS:
        u, v, u_o, v_o = zip(*(_sums(i / grid_steps, k_max, a, b)
                               for i in rows))
        if n % 2:
            left = [(n * ui, n * (-2.0 * oi)) for ui, oi in zip(u, u_o)]
            return [l0 * vj + l1 * oj for l0, l1 in left
                    for vj, oj in zip(v, v_o)], rows
        # even n, F = u_i v_j: on either sign of u_i, row i is extreme
        # where v is, and rounding keeps that order, so two columns hold
        # both extrema
        cols = sorted({v.index(min(v)), v.index(max(v))})
        return [n * ui * v[j] for ui in u for j in cols], cols
    import numpy as np

    u, v, u_o, v_o = _sums(np.arange(len(rows)) / grid_steps, k_max, a, b,
                           np.cos)
    if n % 2:
        left = np.stack([n * u, n * (-2.0 * u_o)], axis=1)
        return (left @ np.stack([v, v_o])).ravel(), rows
    cols = sorted({int(v.argmin()), int(v.argmax())})
    return np.outer(n * u, v[cols]).ravel(), cols


def janssen_F(x: float, omega: float, params: LatticeParams) -> float:
    """Evaluate F at a single point of the unit square."""
    x, omega = real(x, "x"), real(omega, "omega")
    if not (0.0 <= x <= 1.0 and 0.0 <= omega <= 1.0):
        raise DomainError(f"(x, omega)=({x!r}, {omega!r}) outside [0, 1]^2")
    k_max, a, b = _weights(params)
    u, _, u_o, _ = _sums(x, k_max, a, b)
    _, v, _, v_o = _sums(omega, k_max, a, b)
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
    return _search(params, grid_steps)[0]


def _search(params: LatticeParams, grid_steps: int):
    """grid_extrema_F's report and the weights (K, a, b) it searched."""
    if not 8 <= (grid_steps := integer(grid_steps, "grid_steps")) <= \
            _MAX_GRID_STEPS:
        raise DomainError(f"grid_steps={grid_steps!r} must be an int in "
                          f"[8, {_MAX_GRID_STEPS}]")
    k_max, a, b = weights = _weights(params)
    f, cols = _table(params, grid_steps, k_max, a, b)
    if isinstance(f, list):
        top, bottom = f.index(max(f)), f.index(min(f))
    else:
        top, bottom = int(f.argmax()), int(f.argmin())

    def located(flat):
        i, j = divmod(flat, len(cols))
        return float(f[flat]), (i / grid_steps, int(cols[j]) / grid_steps)

    return ExtremaReport(*located(top), *located(bottom), grid_steps,
                         k_max), weights


def frame_bounds_via_F(params: LatticeParams,
                       grid_steps: int = 128) -> FrameBounds:
    """Frame bounds estimated from the grid extrema of F.

    error_bound combines the neglected series tail with a Lipschitz
    grid-resolution term, so it is much looser than the closed forms.
    """
    rep, (kk, a, b) = _search(params, grid_steps)
    # per axis, x's a with beta then omega's b with alpha: the tail past
    # K, the full sum and the first moment of its weights
    axes = []
    for w, s in ((a, params.beta), (b, params.alpha)):
        m = 0.5 * math.pi / s ** 2  # w_k = 2 e^{-m k^2} for k >= 1
        t = 2.0 * math.exp(-m * (kk + 1) ** 2) / (
            -math.expm1(-m * (2 * kk + 3)))
        axes.append((t, sum(w) + t, sum(k * c for k, c in enumerate(w))))
    (tail_x, full_x, moment_x), (tail_w, full_w, moment_w) = axes
    n = params.n
    tail = n * (tail_x * full_w + full_x * tail_w + tail_w * tail_x)
    lip_x = n * 2.0 * math.pi * moment_x * full_w
    lip_w = n * 2.0 * math.pi * moment_w * full_x
    h = 1.0 / rep.grid_steps
    return _frame_record(rep.min_value, rep.max_value,
                         tail + 0.5 * h * (lip_x + lip_w))
