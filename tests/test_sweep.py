"""Sweep, optimizer and serialization tests."""

import math
import os
import pickle
import random
import stat
import struct
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import reference_values as ref
from thetaframe import (DomainError, GridSpec, LatticeParams, OptimumReport,
                        RangeError, SweepRow, emit_csv, emit_plot,
                        find_optimal_beta, frame, frame_bounds, sweep,
                        sweep_beta)


class TestFindOptimalBeta:
    @pytest.mark.parametrize("n,rng", [(2, (0.3, 1.5)), (3, (0.3, 1.5)),
                                       (4, (0.2, 1.2))])
    def test_locates_square_lattice(self, n, rng):
        rep = find_optimal_beta(n, rng, 1e-6)
        assert isinstance(rep, OptimumReport)
        assert rep.n == n
        target = n ** -0.5
        assert abs(rep.beta_for_max_A - target) < 1e-4
        assert abs(rep.beta_for_min_B - target) < 1e-4
        assert rep.bracket_width <= 1e-6
        # both searches shrink onto the same point
        assert abs(rep.beta_for_max_A - rep.beta_for_min_B) < 4e-6

    def test_deterministic(self):
        a = find_optimal_beta(2, (0.3, 1.5), 1e-6)
        b = find_optimal_beta(2, (0.3, 1.5), 1e-6)
        assert a == b

    def test_extremum_values_bracket_truth(self):
        rep = find_optimal_beta(2, (0.3, 1.5), 1e-7)
        assert rep.max_A == pytest.approx(ref.A_2_SQRT2, abs=1e-8)
        assert rep.min_B == pytest.approx(ref.B_2_SQRT2, abs=1e-8)

    def test_boundary_extremum_raises(self):
        # an end of the window that still bounds the final bracket must
        # carry certified slope signs; one ulp from the root they are not
        root = 1 / math.sqrt(2)
        rep = find_optimal_beta(2, (0.70, 5.0), 1e-6)
        assert abs(rep.beta_for_max_A - root) <= rep.bracket_width
        assert abs(rep.beta_for_min_B - root) <= rep.bracket_width
        for rng in ((math.nextafter(root, 0), 1.5),
                    (0.3, math.nextafter(root, 1))):
            with pytest.raises(RangeError):
                find_optimal_beta(2, rng, 1e-6)

    def test_window_must_contain_root(self):
        with pytest.raises(DomainError):
            find_optimal_beta(2, (0.8, 1.5), 1e-6)

    @pytest.mark.parametrize("rng", [(0.0, 1.0), (-0.1, 1.0), (1.5, 0.3),
                                     (0.5, 0.5), (0.3, math.inf),
                                     (0.3, 1.5, 9.0), 0.7, None])
    def test_bad_range(self, rng):
        # a range that is no pair too: a DomainError, not a TypeError
        with pytest.raises(DomainError):
            find_optimal_beta(2, rng, 1e-6)

    @pytest.mark.parametrize("res", [0.0, -1e-6, math.inf, math.nan, True])
    def test_bad_resolution(self, res):
        with pytest.raises(DomainError):
            find_optimal_beta(2, (0.3, 1.5), res)

    def test_validation_precedes_scan(self):
        # the resolution check fires before any bound is evaluated
        with pytest.raises(DomainError):
            find_optimal_beta(2, (0.70, 5.0), 0.0)

    def test_fine_resolution_accepted(self):
        rep = find_optimal_beta(2, (0.3, 1.5), 1e-9)
        assert abs(rep.beta_for_max_A - 2 ** -0.5) <= rep.bracket_width

    @pytest.mark.parametrize("n", [2, 5, 8, 18])
    def test_uncertain_signs_stop_the_bisection(self, n):
        # no bracket reaches 1e-300: the bisection stops where a slope
        # sign is no longer certified, some 1e-15 wide, and keeps the root
        root = 1 / math.sqrt(n)
        rep = find_optimal_beta(n, (0.3 * root, 2 * root), 1e-300)
        assert rep.bracket_width > 1e-300
        assert abs(rep.beta_for_max_A - root) <= rep.bracket_width
        assert abs(rep.beta_for_min_B - root) <= rep.bracket_width

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("factor", [2.5, 10.0])
    def test_uncertain_midpoint_keeps_bisecting(self, n, factor):
        # lo hi = 1/n puts the first midpoint at the root, where the slope
        # signs are uncertain; the bracket used to stop there, as wide as
        # the window. Each end now closes in on it to the resolution, and
        # the uncertain zone, some 1e-15 wide, adds next to nothing
        root = 1 / math.sqrt(n)
        rep = find_optimal_beta(n, (root / factor, root * factor), 1e-9)
        assert rep.bracket_width <= 2.5e-9
        assert abs(rep.beta_for_max_A - root) <= rep.bracket_width
        assert abs(rep.beta_for_min_B - root) <= rep.bracket_width

    @pytest.mark.parametrize("n", [3, 8])
    def test_one_slope_evaluation_per_beta(self, monkeypatch, n):
        # the Illinois steps and then lo and hi, bisecting through the
        # same midpoints, close in on the zone of uncertain signs some
        # 1e-15 from the root without evaluating any beta twice
        real = sweep._frame_slopes
        betas = []

        def counted(n, beta):
            betas.append(beta)
            return real(n, beta)

        monkeypatch.setattr(sweep, "_frame_slopes", counted)
        root = 1 / math.sqrt(n)
        rep = find_optimal_beta(n, (0.3 * root, 2 * root), 1e-300)
        assert len(betas) == len(set(betas))
        assert rep.bracket_width < 1e-14

    def test_illinois_steps_halve_the_evaluations(self, monkeypatch):
        # windows like the lattice benchmark's, ends 10^0.1 to 10^0.5 from
        # 1/sqrt(n): bisection alone took 19.8 slope evaluations a call.
        # The bracket's ends are the innermost certified betas evaluated
        real = sweep._frame_slopes
        slopes = {}

        def recorded(n, beta):
            assert beta not in slopes
            slopes[beta] = real(n, beta)
            return slopes[beta]

        monkeypatch.setattr(sweep, "_frame_slopes", recorded)
        rng = random.Random(21)
        counts = []
        for k in range(70):
            n = 2 + k % 7
            root = 1 / math.sqrt(n)
            window = (root * 10 ** -rng.uniform(0.1, 0.5),
                      root * 10 ** rng.uniform(0.1, 0.5))
            slopes.clear()
            rep = find_optimal_beta(n, window, 1e-6)
            counts.append(len(slopes))
            lo = max(b for b, ((sa, ra), (sb, rb)) in slopes.items()
                     if sa - ra > 0.0 and sb + rb < 0.0)
            hi = min(b for b, ((sa, ra), (sb, rb)) in slopes.items()
                     if sa + ra < 0.0 and sb - rb > 0.0)
            assert lo < root < hi
            assert hi - lo == rep.bracket_width <= 1e-6
            assert rep.beta_for_max_A == math.sqrt(lo * hi)
        assert sum(counts) / len(counts) <= 12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_error_bound_contains_reference(self, n):
        # A and B at the reported beta, with a and b rounded as frame
        # rounds them, at 50 digits
        mp = pytest.importorskip("mpmath")
        rep = find_optimal_beta(n, (0.3, 1.5), 1e-10)
        beta = rep.beta_for_max_A
        a, b = 0.5 * (n * beta) * (n * beta), 0.5 / (beta * beta)
        with mp.workdps(50):
            def pair(kind):
                return (ref.theta_reference(kind, a, 0)
                        * ref.theta_reference(kind, b, 0))
            odd = 2 * pair("theta_odd") if n % 2 else 0
            for got, true in ((rep.max_A, n * (pair("theta4") - odd)),
                              (rep.min_B, n * (pair("theta3") - odd))):
                assert abs(mp.mpf(got) - true) <= rep.error_bound
        assert 0.0 < rep.error_bound < 1e-13

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("res", [1e-6, 1e-8])
    def test_bracket_contains_root(self, n, res):
        root = 1 / math.sqrt(n)
        rep = find_optimal_beta(n, (0.3 * root, 2 * root), res)
        assert abs(rep.beta_for_max_A - root) <= rep.bracket_width
        assert abs(rep.beta_for_min_B - root) <= rep.bracket_width

    @pytest.mark.parametrize("rng", [(0.3, 100.0), (0.01, 30.0)])
    def test_wide_window_locates_root(self, rng):
        rep = find_optimal_beta(2, rng, 1e-6)
        assert abs(rep.beta_for_max_A - 2 ** -0.5) <= rep.bracket_width
        assert abs(rep.beta_for_min_B - 2 ** -0.5) <= rep.bracket_width

    @pytest.mark.parametrize("n", [0, -2, 1.0, True])
    def test_bad_n(self, n):
        with pytest.raises(DomainError):
            find_optimal_beta(n, (0.3, 1.5), 1e-6)

    @pytest.mark.parametrize("rng", [(0.3, 1.5), (0.6, 1.9)])
    def test_n1_has_no_a_maximum(self, rng):
        # A vanishes identically at n = 1; the scan used to report a
        # "maximum" of rounding noise
        with pytest.raises(DomainError, match="n=1"):
            find_optimal_beta(1, rng, 1e-6)


class TestSweepBeta:
    def test_grid_order_and_extrema(self):
        rows = sweep_beta(2, GridSpec(0.4, 1.4, 11, "linear"))
        assert len(rows) == 11
        assert [round(r.beta, 10) for r in rows] == \
            [round(0.4 + 0.1 * i, 10) for i in range(11)]
        best_a = max(rows, key=lambda r: r.lower)
        best_b = min(rows, key=lambda r: r.upper)
        assert best_a.beta == pytest.approx(0.7)
        assert best_b.beta == pytest.approx(0.7)

    def test_endpoint_values_match_closed_form(self):
        rows = sweep_beta(2, GridSpec(2.0 ** -0.5, 1.0, 2, "linear"))
        assert rows[0].beta == 2.0 ** -0.5
        assert rows[0].lower == pytest.approx(ref.A_2_SQRT2, abs=1e-12)
        assert rows[0].upper == pytest.approx(ref.B_2_SQRT2, abs=1e-12)
        assert rows[0].ratio == pytest.approx(ref.SQRT2, abs=1e-12)

    def test_reparam_symmetry(self):
        rows = sweep_beta(2, GridSpec(0.5, 1.0, 2, "linear"))
        # beta = 0.5 and beta = 1 are the same lattice reparametrized
        assert rows[0].lower == pytest.approx(rows[1].lower, abs=1e-12)
        assert rows[0].upper == pytest.approx(rows[1].upper, abs=1e-12)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            sweep_beta(0, GridSpec(0.4, 1.4, 5, "linear"))
        with pytest.raises(DomainError, match="expected GridSpec"):
            sweep_beta(2, "g")  # not an AttributeError

    @pytest.mark.parametrize("n,grid", [
        (2, GridSpec(1e-4, 0.5, 7, "log")),     # a < 1e-6 at the low end
        (2, GridSpec(0.5, 800.0, 7, "log")),    # b < 1e-6 at the high end
        (1, GridSpec(1e-3, 2.0, 5, "linear")),  # a < 1e-6 at the low end
        (8, GridSpec(0.01, 200.0, 9, "log")),   # a > 1e6 at the high end
        (3, GridSpec(-0.5, 1.0, 4, "linear"))])
    def test_end_outside_domain_runs_no_series(self, monkeypatch, n, grid):
        # the lattices at both ends are checked before the first row
        calls = []
        bounds = frame._bounds
        monkeypatch.setattr(frame, "_bounds",
                            lambda *args: calls.append(args) or bounds(*args))
        with pytest.raises(DomainError, match="beta"):
            sweep_beta(n, grid)
        assert calls == []

    def test_rows_are_frame_bounds(self):
        # seeded grids over the lattice domain of each n, and grids a few
        # ulps wide at 1/sqrt(3) and at the lowest beta of n = 1
        rng = random.Random(20)
        grids = []
        for n in range(1, 9):
            lo = math.log(max(math.sqrt(2e-6) / n, math.sqrt(5e-7)) * 1.001)
            hi = math.log(min(math.sqrt(2e6) / n, math.sqrt(5e5)) / 1.001)
            for scale in ("linear", "log"):
                a, b = sorted(math.exp(rng.uniform(lo, hi)) for _ in "ab")
                grids.append((n, GridSpec(a, b, rng.randint(2, 30), scale)))
        edge = math.sqrt(2e-6)
        while edge * edge * 0.5 < 1e-6:  # a = beta^2 / 2 as frame rounds it
            edge = math.nextafter(edge, 1.0)
        for n, beta in ((3, 3.0 ** -0.5), (1, edge)):
            top = beta
            for _ in range(3):
                top = math.nextafter(top, 1.0)
            grids.append((n, GridSpec(beta, top, 7, "linear")))
        with pytest.raises(DomainError):
            sweep_beta(1, GridSpec(math.nextafter(edge, 0.0), 1.0, 3))
        for n, grid in grids:
            rows = sweep_beta(n, grid)
            assert [r.beta for r in rows] == grid.points()
            for r in rows:
                fb = frame_bounds(LatticeParams(n, r.beta))
                assert [x.hex() for x in (r.lower, r.upper, r.ratio)] == \
                    [x.hex() for x in (fb.lower, fb.upper, fb.ratio)]


    def test_rows_are_the_constructors_records(self):
        # each row is the immutable record SweepRow(...) builds
        rows = sweep_beta(3, GridSpec(0.3, 1.0, 4, "log"))
        for row in rows:
            built = SweepRow(row.beta, row.lower, row.upper, row.ratio)
            assert type(row) is SweepRow
            assert row == built and built == row
            assert hash(row) == hash(built)
            assert repr(row) == repr(built)
            assert row._asdict() == built._asdict()
            assert pickle.dumps(row) == pickle.dumps(built)
        for field in SweepRow._fields:
            with pytest.raises(AttributeError):
                setattr(rows[0], field, 0.0)
            with pytest.raises(AttributeError):
                delattr(rows[0], field)


class TestGridSpec:
    def test_integer_types_accepted(self):
        np = pytest.importorskip("numpy")
        assert GridSpec(1.0, 2.0, np.int64(3)).points() == [1.0, 1.5, 2.0]

    @pytest.mark.parametrize("args", [
        (1.0, 2.0, 2.5), (1.0, 2.0, 3.0), (1.0, 2.0, "3"), (1.0, 2.0, None),
        (1.0, 2.0, 1), (1.0, 2.0, True),
        (0.0, math.inf, 3), (-math.inf, 0.0, 3), (1.0, math.inf, 3, "log"),
        (math.nan, 1.0, 3), (1.0, 1.0, 3), (0.0, 1.0, 3, "log"),
        (1.0, 2.0, 3, "cubic"),
        (True, 2.0, 3), (0.5, True, 3), (True, 2.0, 3, "log"),
    ])
    def test_bad_input_rejected(self, args):
        with pytest.raises(DomainError):
            GridSpec(*args)


def _sci17(x):
    """The CSV field rule, one field at a time: the reference that
    emit_csv's whole-text formatting must match."""
    if not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    mantissa, exponent = f"{x:.16e}".split("e")
    return f"{mantissa}e{int(exponent)}"


class TestSci17:
    """emit_csv's fields against the one-field reference _sci17, each
    field also parsing back to its float, bit for bit."""

    @staticmethod
    def _fields(tmp_path, values):
        """The CSV fields of values, four to a row, in order."""
        values = list(values)
        padded = values + values[-1:] * (-len(values) % 4)
        rows = [SweepRow(*padded[i:i + 4]) for i in range(0, len(padded), 4)]
        out = tmp_path / "fields.csv"
        emit_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,A,B,ratio" and len(lines) == len(rows) + 1
        return [f for line in lines[1:] for f in line.split(",")][
            :len(values)]

    def _check(self, tmp_path, values):
        fields = self._fields(tmp_path, values)
        for x, field in zip(values, fields):
            assert field == _sci17(x), (x, field)
            assert float(field).hex() == float(x).hex(), (x, field)
        return fields

    def test_frozen_forms(self, tmp_path):
        assert self._check(tmp_path, (1.0, 0.4, 1e-12, -2.0)) == [
            "1.0000000000000000e0", "4.0000000000000002e-1",
            "9.9999999999999998e-13", "-2.0000000000000000e0"]

    def test_round_trip(self, tmp_path):
        self._check(tmp_path, (1.0, 0.4, 2.0 ** -0.5, 1e-12, 123456.789,
                               5e300, 5e-300))

    def test_non_finite(self, tmp_path):
        assert self._check(tmp_path, (math.nan, math.inf, -math.inf)) == [
            "nan", "inf", "-inf"]

    def test_zeros_subnormals_and_exponent_widths(self, tmp_path):
        values = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320,
                  math.nextafter(2.0 ** -1022, 0.0), 2.0 ** -1022,
                  1.7976931348623157e308, -1.7976931348623157e308]
        for e in (1, 9, 10, 99, 100, 307):  # 1-, 2- and 3-digit exponents
            values += [1.5 * 10.0 ** e, -1.5 * 10.0 ** -e,
                       -(10.0 ** e), 10.0 ** -e]
        values += [9.999999999999999e-1, 1.0000000000000002, 0.5, 9.5]
        fields = self._check(tmp_path, values)
        assert fields[:4] == ["0.0000000000000000e0", "-0.0000000000000000e0",
                              "4.9406564584124654e-324",
                              "-4.9406564584124654e-324"]

    def test_int_and_numpy_fields(self, tmp_path):
        values = [0, 1, -7, 10 ** 17, 2 ** 63 + 1, np.float64(0.1),
                  np.float64(-3e-200), np.float64(np.inf), np.float64(6e22)]
        assert self._check(tmp_path, values)[:4] == [
            "0.0000000000000000e0", "1.0000000000000000e0",
            "-7.0000000000000000e0", "1.0000000000000000e17"]

    def test_seeded_doubles(self, tmp_path):
        rng = random.Random(20261019)
        bits = [rng.getrandbits(64) for _ in range(5000)]
        values = [struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits]
        values += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-30, 30)
                   for _ in range(5000)]
        self._check(tmp_path, values)


class TestEmitCsv:
    def test_exact_bytes(self, tmp_path):
        out = tmp_path / "one.csv"
        emit_csv([SweepRow(1.0, 1.0, 2.0, 2.0)], out)
        assert out.read_bytes() == (
            b"beta,A,B,ratio\n"
            b"1.0000000000000000e0,1.0000000000000000e0,"
            b"2.0000000000000000e0,2.0000000000000000e0\n")

    def test_line_count_and_trailing_newline(self, tmp_path):
        rows = sweep_beta(2, GridSpec(0.4, 1.4, 11, "linear"))
        out = tmp_path / "sweep.csv"
        emit_csv(rows, out)
        data = out.read_bytes()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n")
        assert data.count(b"\n") == 12
        assert data.splitlines()[0] == b"beta,A,B,ratio"

    def test_byte_identical_rewrites(self, tmp_path):
        rows = sweep_beta(3, GridSpec(0.3, 1.0, 7, "log"))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        emit_csv(rows, a)
        emit_csv(rows, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_rejected_without_file(self, tmp_path):
        # so are rows that are not a list or tuple of SweepRow
        out = tmp_path / "never.csv"
        row = SweepRow(0.5, 1.0, 2.0, 2.0)
        for rows in ([], (), "abc", None, iter([row]),
                     [row, (0.6, 1.0, 2.0, 2.0)]):
            with pytest.raises(DomainError):
                emit_csv(rows, out)
        assert not out.exists()


class TestEmitPlot:
    @staticmethod
    def _rows():
        return sweep_beta(2, GridSpec(0.4, 1.4, 9, "linear"))

    def test_svg_structure(self, tmp_path):
        out = tmp_path / "plot.svg"
        emit_plot(self._rows(), out, "ratio")
        data = out.read_bytes()
        assert data.startswith(b"<svg")
        assert b"<polyline" in data
        root = ET.fromstring(data.decode("utf-8"))
        assert root.tag.endswith("svg")
        assert root.attrib["width"] == "800"
        assert root.attrib["height"] == "600"

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        emit_plot(self._rows(), a, "A")
        emit_plot(self._rows(), b, "A")
        assert a.read_bytes() == b.read_bytes()

    def test_constant_column_ok(self, tmp_path):
        rows = [SweepRow(0.5, 1.0, 2.0, 2.0), SweepRow(0.6, 1.0, 2.0, 2.0)]
        out = tmp_path / "flat.svg"
        emit_plot(rows, out, "B")
        ET.fromstring(out.read_bytes().decode("utf-8"))

    def test_bad_inputs(self, tmp_path):
        rows = self._rows()
        with pytest.raises(DomainError):
            emit_plot(rows, tmp_path / "x.svg", "C")
        with pytest.raises(DomainError):
            emit_plot(rows[:1], tmp_path / "x.svg", "A")
        bad = [SweepRow(0.5, 1.0, 2.0, 2.0),
               SweepRow(0.6, 1.0, math.inf, math.inf)]
        with pytest.raises(DomainError):
            emit_plot(bad, tmp_path / "x.svg", "B")
        for not_rows in (None, "abc", [rows[0], "abc"]):
            with pytest.raises(DomainError):
                emit_plot(not_rows, tmp_path / "x.svg", "A")
        assert not (tmp_path / "x.svg").exists()


class TestWritePath:
    """Both emitters overwrite an existing destination in place and cut it
    to length: what is left is byte for byte what a fresh path gets."""

    @staticmethod
    def _emit(kind, rows, destination):
        if kind == "csv":
            emit_csv(rows, destination)
        else:
            emit_plot(rows, destination, "A")

    @staticmethod
    def _rows(steps=5):
        return sweep_beta(2, GridSpec(0.5, 1.2, steps, "log"))

    @pytest.mark.parametrize("kind", ["csv", "svg"])
    def test_shorter_output_over_longer_file(self, tmp_path, kind):
        fresh = tmp_path / f"fresh.{kind}"
        self._emit(kind, self._rows(), fresh)
        emitted, junk = tmp_path / f"emitted.{kind}", tmp_path / f"junk.{kind}"
        self._emit(kind, self._rows(40), emitted)
        junk.write_bytes(b"\xff" * (fresh.stat().st_size + 4096))
        for dest in (emitted, junk):
            assert dest.stat().st_size > fresh.stat().st_size
            self._emit(kind, self._rows(), dest)
            assert dest.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("kind", ["csv", "svg"])
    def test_devnull_destination(self, kind):
        # a character device ignores O_TRUNC and cannot be cut
        self._emit(kind, self._rows(), os.devnull)

    @pytest.mark.parametrize("kind", ["csv", "svg"])
    def test_existing_file_keeps_its_mode(self, tmp_path, kind):
        dest = tmp_path / f"dest.{kind}"
        dest.write_bytes(b"old contents")
        dest.chmod(0o640)
        self._emit(kind, self._rows(), dest)
        assert stat.S_IMODE(dest.stat().st_mode) == 0o640

    def test_no_truncating_open(self, tmp_path, monkeypatch):
        # O_TRUNC makes ext4 flush at close and free the blocks at the
        # next open of the same path; the emitters must never pass it
        flags = []
        real_open = os.open

        def recording_open(path, oflag, *args, **kwargs):
            flags.append(oflag)
            return real_open(path, oflag, *args, **kwargs)

        monkeypatch.setattr(sweep.os, "open", recording_open)
        for kind in ("csv", "svg"):
            dest = tmp_path / f"dest.{kind}"
            self._emit(kind, self._rows(), dest)  # fresh path
            self._emit(kind, self._rows(), dest)  # existing file
        assert len(flags) == 4
        assert not any(oflag & os.O_TRUNC for oflag in flags)
