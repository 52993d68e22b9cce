"""Parameter sweeps over beta and location of the optimal lattice.

For fixed redundancy n the closed-form bounds A(beta) and B(beta) are
unimodal with a common extremum at beta = 1/sqrt(n) (the square lattice):
A peaks there and B dips there. beta -> 1/(n beta) swaps the two theta
arguments, so both bounds are symmetric in log beta about 1/sqrt(n), a
critical point of each for every n. sweep_beta tabulates the bounds over
a grid; find_optimal_beta encloses both optimizers in a bracket built
outward from 1/sqrt(n), whose ends carry certified opposite signs of
dA/dbeta and of dB/dbeta. The bracket certifies a critical point of each
bound, not the extremum over the whole range. emit_csv / emit_plot write
byte-reproducible artifacts.
"""

from __future__ import annotations

import math
import os
import stat
from typing import NamedTuple

from .errors import DomainError, RangeError, real
from .frame import LatticeParams, _bounds, _frame_row, frame_bounds
from .grids import GridSpec

CSV_HEADER = "beta,A,B,ratio"
PLOT_COLUMNS = ("A", "B", "ratio")

_SVG_W = 800
_SVG_H = 600
_MARGIN_L = 80.0
_MARGIN_R = 20.0
_MARGIN_T = 20.0
_MARGIN_B = 60.0


class SweepRow(NamedTuple):
    """One tabulated point: bounds and their ratio at a given beta."""

    beta: float
    lower: float
    upper: float
    ratio: float


class OptimumReport(NamedTuple):
    """Locations and values of the A-maximum and B-minimum for one n.

    Both optimizers are reported at the log-midpoint of one bracket of
    width bracket_width, at whose ends the signs of dA/dbeta and dB/dbeta
    are certified opposite: the bracket holds a critical point of A and
    one of B. The width is half the requested resolution where those
    signs are certified a quarter of it either side of 1/sqrt(n); it is
    wider where they are uncertain that close, and narrower where the
    range is. max_A and min_B, A and B there, are each within
    error_bound.
    """

    n: int
    beta_for_max_A: float
    max_A: float
    beta_for_min_B: float
    min_B: float
    bracket_width: float
    error_bound: float


def sweep_beta(n: int, grid: GridSpec) -> list[SweepRow]:
    """Tabulate (beta, A, B, B/A) over the grid, in grid order, as
    frame_bounds gives them. a and b, and their rounding, are monotone in
    beta, so the lattices at both ends validate every point."""
    if not isinstance(grid, GridSpec):
        raise DomainError(f"expected GridSpec, got {grid!r}")
    points = grid.points()
    for beta in (min(points), max(points)):
        n = LatticeParams(n, beta).n
    return [SweepRow(beta, *_frame_row(n, beta)[:3]) for beta in points]


def find_optimal_beta(n: int, beta_range: tuple[float, float],
                      resolution: float) -> OptimumReport:
    """Enclose the beta maximizing A and the beta minimizing B.

    Works outward from 1/sqrt(n), where both optima provably lie and
    which the range must contain. Each end starts max(resolution/4,
    ulp(1/sqrt(n))) from it and doubles that offset until the signs there
    are certified: A rising and B falling at lo, the reverse at hi, so
    [lo, hi] holds a critical point of each. Where the signs are
    certified at the first offset, as for n = 2 to 64 at resolutions down
    to 5e-15, a call takes 2 slope evaluations and the width is
    resolution/2. An offset that passes a range end stops at that end,
    whose signs must then be certified the right way, else RangeError.
    n = 1, where A vanishes identically, has no maximum and is rejected.
    max_A and min_B come with frame_bounds' error_bound.
    """
    if not (hasattr(beta_range, "__len__") and len(beta_range) == 2):
        raise DomainError(f"beta_range={beta_range!r} must be (lo, hi)")
    # lattices at both ends put all betas between in the theta domain
    (n, lo), (_, hi) = (LatticeParams(n, beta) for beta in beta_range)
    if n == 1:
        raise DomainError("n=1 has A = 0 at every beta: no maximum")
    root = 1.0 / math.sqrt(n)
    if not (lo < root < hi):  # so also lo < hi
        raise DomainError(f"beta range ({lo!r}, {hi!r}) must satisfy "
                          f"lo < 1/sqrt({n}) = {root!r} < hi")
    if not (resolution := real(resolution, "resolution")) > 0.0:
        raise DomainError(f"resolution must be positive, got {resolution!r}")

    def side(beta):
        """-1 left of both optima, +1 right of them, 0 if uncertain."""
        (sa, ra), (sb, rb) = _bounds(n, beta, True)
        return (-1 if sa - ra > 0.0 and sb + rb < 0.0 else
                1 if sa + ra < 0.0 and sb - rb > 0.0 else 0)

    bracket = []
    for end, want in ((lo, -1), (hi, 1)):
        offset = max(0.25 * resolution, math.ulp(root))
        while want * (beta := root + want * offset) < want * end:
            if side(beta) == want:
                break
            offset *= 2.0
        else:
            if side(end) != want:
                raise RangeError(f"slope signs at the range end beta = "
                                 f"{end!r} are not certified; widen the "
                                 "range")
            beta = end
        bracket.append(beta)
    lo, hi = bracket
    beta = math.sqrt(lo * hi)
    fb = frame_bounds(LatticeParams(n, beta))
    return OptimumReport(n, beta, fb.lower, beta, fb.upper, hi - lo,
                         fb.error_bound)


def emit_csv(rows: list[SweepRow], destination) -> None:
    """Write the sweep table as CSV: header beta,A,B,ratio then one line
    per row, LF endings, one trailing LF.

    Fields are 17-significant-digit lower-case scientific text, e.g.
    1.25e-3, or nan, inf, -inf. The exponent carries no sign padding or
    leading zeros (e+05 -> e5, e-05 -> e-5), so the encoding of a given
    double is unique (bit-exact reproducibility).

    An existing destination is overwritten in place and cut to length; a
    non-regular one (a FIFO, /dev/null) is written as a stream. Nothing is
    fsynced or replaced atomically: a write that fails part-way leaves a
    damaged file.
    """
    if not (isinstance(rows, (list, tuple)) and rows
            and all(isinstance(r, SweepRow) for r in rows)):
        raise DomainError("rows must be a non-empty list or tuple of SweepRow")
    text = ("%.16e,%.16e,%.16e,%.16e\n" * len(rows)) % tuple(
        [v for row in rows for v in row])
    text = text.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-")
    _write(destination, f"{CSV_HEADER}\n{text}".encode("utf-8"))


def _write(destination, data: bytes) -> None:
    """Write data over destination in place, then cut a regular file to
    len(data). Without O_TRUNC, ext4 starts no writeback at close and frees
    no blocks at the next open; a FIFO or device is written as a stream."""
    # O_BINARY, on Windows only, keeps the LF endings untranslated
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    fd = os.open(destination, flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _span(vals):
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        pad = max(abs(lo) * 1e-6, 0.5)
        return lo - pad, hi + pad
    return lo, hi


def _fmt(v):
    return f"{v:.3f}"


def _line(x1, y1, x2, y2):
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="black" stroke-width="1"/>')


def _text(x, y, size, anchor, body):
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}">{body}</text>')


def emit_plot(rows: list[SweepRow], destination, which: str) -> None:
    """Write an 800x600 SVG of one column (A, B or ratio) against beta.

    Linear axes, a single polyline, five ticks per axis. Output bytes are
    a pure function of the inputs, written as emit_csv writes: in place and
    cut to length, or as a stream; neither fsynced nor atomic.
    """
    if which not in PLOT_COLUMNS:
        raise DomainError(f"column must be one of {PLOT_COLUMNS}, "
                          f"got {which!r}")
    if not (isinstance(rows, (list, tuple)) and len(rows) >= 2
            and all(isinstance(r, SweepRow) for r in rows)):
        raise DomainError("need a list or tuple of at least 2 SweepRow")
    attr = {"A": "lower", "B": "upper", "ratio": "ratio"}[which]
    xs = [r.beta for r in rows]
    ys = [getattr(r, attr) for r in rows]
    if not all(map(math.isfinite, xs + ys)):
        raise DomainError("cannot plot non-finite values")
    (x0, x1), (y0, y1) = _span(xs), _span(ys)
    px_w = _SVG_W - _MARGIN_L - _MARGIN_R
    px_h = _SVG_H - _MARGIN_T - _MARGIN_B
    base = _SVG_H - _MARGIN_B

    def to_px(x, y):
        return (_MARGIN_L + (x - x0) / (x1 - x0) * px_w,
                base - (y - y0) / (y1 - y0) * px_h)

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
        fy = y0 + (y1 - y0) * i / 4.0
        px, py = to_px(fx, fy)
        parts += [_line(px, base, px, base + 6),
                  _text(px, base + 22, 12, "middle", f"{fx:.6g}"),
                  _line(_MARGIN_L - 6, py, _MARGIN_L, py),
                  _text(_MARGIN_L - 10, py + 4, 12, "end", f"{fy:.6g}")]
    points = " ".join(["%.3f,%.3f" % to_px(x, y) for x, y in zip(xs, ys)])
    parts += [f'<polyline points="{points}" fill="none" stroke="blue" '
              'stroke-width="1.5"/>',
              _text(_MARGIN_L + px_w / 2.0, _SVG_H - 16, 14, "middle", "beta"),
              _text(_MARGIN_L, _MARGIN_T - 4, 14, "start", f"{which}(beta)"),
              "</svg>"]
    _write(destination, ("\n".join(parts) + "\n").encode("utf-8"))
