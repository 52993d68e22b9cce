"""Sweep, optimizer and serialization tests."""

import math
import xml.etree.ElementTree as ET

import pytest

import reference_values as ref
from thetaframe import (DomainError, GridSpec, OptimumReport, RangeError,
                        SweepRow, emit_csv, emit_plot, find_optimal_beta,
                        sweep_beta)
from thetaframe.sweep import _sci17


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
                                     (0.5, 0.5), (0.3, math.inf)])
    def test_bad_range(self, rng):
        with pytest.raises(DomainError):
            find_optimal_beta(2, rng, 1e-6)

    @pytest.mark.parametrize("res", [0.0, -1e-6, math.inf, math.nan])
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
        with pytest.raises(DomainError):
            sweep_beta(2, GridSpec(0.4, 1.4, 5, "linear"), tol=0.0)


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
    ])
    def test_bad_input_rejected(self, args):
        with pytest.raises(DomainError):
            GridSpec(*args)


class TestSci17:
    def test_frozen_forms(self):
        assert _sci17(1.0) == "1.0000000000000000e0"
        assert _sci17(0.4) == "4.0000000000000002e-1"
        assert _sci17(1e-12) == "9.9999999999999998e-13"
        assert _sci17(-2.0) == "-2.0000000000000000e0"

    def test_round_trip(self):
        for x in (1.0, 0.4, 2.0 ** -0.5, 1e-12, 123456.789, 5e300, 5e-300):
            assert float(_sci17(x)) == x

    def test_non_finite(self):
        assert _sci17(math.nan) == "nan"
        assert _sci17(math.inf) == "inf"
        assert _sci17(-math.inf) == "-inf"


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
        out = tmp_path / "never.csv"
        with pytest.raises(DomainError):
            emit_csv([], out)
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
