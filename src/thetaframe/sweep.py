"""Parameter sweeps over beta and location of the optimal lattice.

For fixed redundancy n the closed-form bounds A(beta) and B(beta) are
unimodal with a common extremum at beta = 1/sqrt(n) (the square lattice):
A peaks there and B dips there. sweep_beta tabulates the bounds over a
grid; find_optimal_beta encloses both optimizers in a bracket whose ends
carry certified opposite signs of dA/dbeta and of dB/dbeta, found by
bisection on those signs (interval bisection in the sense of Moore,
Kearfott & Cloud, Introduction to Interval Analysis, SIAM 2009). The
bracket certifies a critical point of each bound, not the extremum over
the whole range. emit_csv / emit_plot write byte-reproducible artifacts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import DomainError, RangeError
from .frame import (LatticeParams, _frame_slopes, _theta_args, frame_bounds,
                    lattice_params)
from .grids import GridSpec
from .theta import DEFAULT_TOL

CSV_HEADER = "beta,A,B,ratio"
PLOT_COLUMNS = ("A", "B", "ratio")

_SVG_W = 800
_SVG_H = 600
_MARGIN_L = 80.0
_MARGIN_R = 20.0
_MARGIN_T = 20.0
_MARGIN_B = 60.0


@dataclass(frozen=True)
class SweepRow:
    """One tabulated point: bounds and their ratio at a given beta."""

    beta: float
    lower: float
    upper: float
    ratio: float


@dataclass(frozen=True)
class OptimumReport:
    """Locations and values of the A-maximum and B-minimum for one n.

    Both optimizers are reported at the log-midpoint of one bracket of
    width bracket_width, at whose ends the signs of dA/dbeta and dB/dbeta
    are certified opposite: the bracket holds a critical point of A and
    one of B. The width may exceed the requested resolution where those
    signs became uncertain first.
    """

    n: int
    beta_for_max_A: float
    max_A: float
    beta_for_min_B: float
    min_B: float
    bracket_width: float


def sweep_beta(n: int, grid: GridSpec,
               tol: float = DEFAULT_TOL) -> list[SweepRow]:
    """Tabulate (beta, A, B, B/A) over the grid, in grid order."""
    rows = []
    for beta in grid.points():
        fb = frame_bounds(lattice_params(n, beta), tol)
        rows.append(SweepRow(beta, fb.lower, fb.upper, fb.ratio))
    return rows


def find_optimal_beta(n: int, beta_range: tuple[float, float],
                      resolution: float) -> OptimumReport:
    """Enclose the beta maximizing A and the beta minimizing B.

    Bisects the range in log beta on the certified signs of dA/dbeta and
    dB/dbeta (balls from the frame-bound body), keeping A rising and B
    falling at lo and the reverse at hi, so [lo, hi] holds a critical
    point of each. It stops once hi - lo <= resolution or where a
    midpoint's signs are uncertain, which may leave a wider bracket. A
    range end that still bounds the bracket must have certified signs,
    else RangeError. The range must contain 1/sqrt(n), where both optima
    provably lie. n = 1 is rejected: there A vanishes identically
    (critical density), so it has no maximum to locate.
    """
    lo, hi = float(beta_range[0]), float(beta_range[1])
    for beta in (lo, hi):  # then every midpoint is in the theta domain
        _theta_args(n, LatticeParams(n, beta).beta)
    if n == 1:
        raise DomainError("n=1 has A = 0 at every beta: no maximum")
    if lo >= hi:
        raise DomainError(f"invalid beta range ({lo!r}, {hi!r})")
    root = 1.0 / math.sqrt(n)
    if not (lo < root < hi):
        raise DomainError(f"beta range ({lo}, {hi}) must contain "
                          f"1/sqrt({n}) = {root}")
    if not (isinstance(resolution, (int, float)) and
            math.isfinite(resolution) and resolution > 0.0):
        raise DomainError(f"resolution must be positive, got {resolution!r}")

    def side(beta):
        """-1 left of both optima, +1 right of them, 0 if uncertain."""
        sa, sb = _frame_slopes(n, beta)
        if sa.value - sa.error_bound > 0.0 and sb.value + sb.error_bound < 0.0:
            return -1
        if sa.value + sa.error_bound < 0.0 and sb.value - sb.error_bound > 0.0:
            return 1
        return 0

    window = (lo, hi)
    while hi - lo > resolution:
        mid = math.sqrt(lo * hi)
        where = side(mid) if lo < mid < hi else 0
        if where == 0:
            break
        lo, hi = (mid, hi) if where < 0 else (lo, mid)
    for end, want in ((lo, -1), (hi, 1)):
        if end in window and side(end) != want:
            raise RangeError(f"slope signs at the range end beta = {end!r} "
                             "are not certified; widen the range")
    beta = math.sqrt(lo * hi)
    fb = frame_bounds(lattice_params(n, beta))
    return OptimumReport(n, beta, fb.lower, beta, fb.upper, hi - lo)


def _sci17(x: float) -> str:
    """17-significant-digit lower-case scientific text, e.g. 1.25e-3.

    The exponent carries no sign padding or leading zeros so the encoding
    of a given double is unique (bit-exact reproducibility).
    """
    if not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    mantissa, exponent = f"{x:.16e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def emit_csv(rows: list[SweepRow], destination) -> None:
    """Write the sweep table as CSV: header beta,A,B,ratio then one line
    per row, 17-digit scientific fields, LF endings, one trailing LF."""
    if not rows:
        raise DomainError("no rows to write")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join((_sci17(r.beta), _sci17(r.lower),
                               _sci17(r.upper), _sci17(r.ratio))))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(os.fspath(destination), "wb") as fh:
        fh.write(data)


def _span(vals):
    lo = min(vals)
    hi = max(vals)
    if hi <= lo:
        pad = max(abs(lo) * 1e-6, 0.5)
        return lo - pad, hi + pad
    return lo, hi


def _fmt(v):
    return f"{v:.3f}"


def emit_plot(rows: list[SweepRow], destination, which: str) -> None:
    """Write an 800x600 SVG of one column (A, B or ratio) against beta.

    Linear axes, a single polyline, five ticks per axis. Output bytes are
    a pure function of the inputs.
    """
    if which not in PLOT_COLUMNS:
        raise DomainError(f"column must be one of {PLOT_COLUMNS}, "
                          f"got {which!r}")
    if len(rows) < 2:
        raise DomainError("need at least 2 rows to plot")
    attr = {"A": "lower", "B": "upper", "ratio": "ratio"}[which]
    xs = [r.beta for r in rows]
    ys = [getattr(r, attr) for r in rows]
    for v in xs + ys:
        if not math.isfinite(v):
            raise DomainError("cannot plot non-finite values")
    x0, x1 = _span(xs)
    y0, y1 = _span(ys)
    px_w = _SVG_W - _MARGIN_L - _MARGIN_R
    px_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def to_px(x, y):
        return (_MARGIN_L + (x - x0) / (x1 - x0) * px_w,
                _SVG_H - _MARGIN_B - (y - y0) / (y1 - y0) * px_h)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" '
        'fill="white"/>',
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" '
        f'width="{_fmt(px_w)}" height="{_fmt(px_h)}" fill="none" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4.0
        px, _ = to_px(fx, y0)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(_SVG_H - _MARGIN_B)}" '
                     f'x2="{_fmt(px)}" '
                     f'y2="{_fmt(_SVG_H - _MARGIN_B + 6)}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" '
                     f'y="{_fmt(_SVG_H - _MARGIN_B + 22)}" '
                     'font-family="monospace" font-size="12" '
                     f'text-anchor="middle">{fx:.6g}</text>')
        fy = y0 + (y1 - y0) * i / 4.0
        _, py = to_px(x0, fy)
        parts.append(f'<line x1="{_fmt(_MARGIN_L - 6)}" y1="{_fmt(py)}" '
                     f'x2="{_fmt(_MARGIN_L)}" y2="{_fmt(py)}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(_MARGIN_L - 10)}" '
                     f'y="{_fmt(py + 4)}" font-family="monospace" '
                     'font-size="12" '
                     f'text-anchor="end">{fy:.6g}</text>')
    points = " ".join("{},{}".format(_fmt(px), _fmt(py))
                      for px, py in (to_px(x, y) for x, y in zip(xs, ys)))
    parts.append(f'<polyline points="{points}" fill="none" stroke="blue" '
                 'stroke-width="1.5"/>')
    parts.append(f'<text x="{_fmt(_MARGIN_L + px_w / 2.0)}" '
                 f'y="{_fmt(_SVG_H - 16)}" font-family="monospace" '
                 'font-size="14" text-anchor="middle">beta</text>')
    parts.append(f'<text x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T - 4)}" '
                 'font-family="monospace" font-size="14" '
                 f'text-anchor="start">{which}(beta)</text>')
    parts.append("</svg>")
    data = ("\n".join(parts) + "\n").encode("utf-8")
    with open(os.fspath(destination), "wb") as fh:
        fh.write(data)
