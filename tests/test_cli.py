"""CLI surface: grid parsing, CSV/SVG emission, determinism, drill-down."""

import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import phasefree
from phasefree import encoding, entanglement, svgplot
from phasefree.cli import CSV_HEADER, MAX_GRID_POINTS, _most_probable, main, parse_grid
from phasefree.encoding import DEFAULT_EPSILON_TAIL, pair_outcome_distribution
from phasefree.entanglement import average_entanglement
from phasefree.numerics import log_poisson_table
from conftest import _X86_V3, _X86_V4, _avx2_child_env

SVG_NS = "{http://www.w3.org/2000/svg}"


class TestParseGrid:
    def test_comma_list(self):
        assert parse_grid("0.1,0.2,0.35") == [0.1, 0.2, 0.35]

    def test_inclusive_range(self):
        values = parse_grid("1:12:1")
        assert len(values) == 12
        assert values[0] == 1.0
        assert values[-1] == pytest.approx(12.0)

    def test_fractional_range(self):
        values = parse_grid("0.1:0.5:0.1")
        assert len(values) == 5
        assert values[-1] == pytest.approx(0.5)

    def test_single_value(self):
        assert parse_grid("2.5") == [2.5]

    @pytest.mark.parametrize("bad", ["", "1:2", "1:2:0", "2:1:1", "1:2:3:4", "1:inf:1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_grid(bad)

    def test_range_at_the_point_limit(self):
        assert len(parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS

    @pytest.mark.parametrize(
        "text,count",
        [(f"1:{MAX_GRID_POINTS + 1}:1", str(MAX_GRID_POINTS + 1)), ("0:1e9:1", "1000000001"), ("-1e308:1e308:1", "inf")],
    )
    def test_rejects_range_above_the_point_limit(self, text, count):
        with pytest.raises(ValueError, match=f"has {count} points"):
            parse_grid(text)


class TestSweepCommand:
    def test_writes_expected_csv(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(["sweep", "--etas", "0.0,0.3", "--betas", "1,2", "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

        # eta-major ordering and 12-significant-digit rendering
        row = lines[3].split(",")
        assert row[0] == "0.3"
        assert row[1] == "1"
        report = average_entanglement(0.3, 1.0)
        assert row[2] == f"{report.E_exact:.12g}"
        assert row[3] == f"{report.E_avg:.12g}"
        assert row[4] == f"{report.fraction_lost:.12g}"
        assert int(row[6]) == int(row[7]) == report.window

        # eta = 0 rows carry no entanglement
        zero_row = lines[1].split(",")
        assert zero_row[2] == "0"
        assert zero_row[4] == "0"

    def test_default_sweep_matches_the_reference_csv(self, tmp_path):
        """The default 60-point sweep writes the committed reference bytes."""
        reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "sweep_default.csv"
        csv_path = tmp_path / "default.csv"
        assert main(["sweep", "--csv", str(csv_path), "--threads", "1"]) == 0
        assert csv_path.read_bytes() == reference.read_bytes()

    # (eta, beta, column): (reference cell, cell written), per float64 dispatch
    _DISPATCH_CELLS = {
        _X86_V4: {},
        _X86_V3: {
            ("0.1", "6", "residual"): ("2.29838370558e-12", "2.29816166097e-12"),
            ("0.1", "8", "residual"): ("6.69353461547e-13", "6.69242439244e-13"),
            ("0.2", "2", "residual"): ("6.66133814775e-16", "5.55111512313e-16"),
            ("0.2", "3", "residual"): ("9.04354369169e-11", "9.04353258946e-11"),
            ("0.2", "6", "residual"): ("2.40651942818e-12", "2.40640840588e-12"),
            ("0.1", "9", "fraction_lost"): ("0.00223096563949", "0.00223096563948"),
        },
    }

    def test_default_sweep_under_the_avx2_kernels(self, tmp_path):
        """The default sweep, run in a child whose numpy has the features of
        conftest._AVX2_MASK that the host supports turned off, differs from
        the reference in exactly the cells known for the dispatch the child
        reports: none under the AVX-512 kernels, six in the 12th digit
        under the AVX2 ones."""
        reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "sweep_default.csv"
        csv_path = tmp_path / "default.csv"
        code = (
            "import conftest\nfrom phasefree.cli import main\n"
            f"assert main(['sweep', '--csv', {str(csv_path)!r}, '--threads', '1']) == 0\n"
            "print(conftest._float64_dispatch())"
        )
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_avx2_child_env())
        dispatch = child.stdout.splitlines()[-1]
        assert dispatch in self._DISPATCH_CELLS, f"no default-sweep cells are known for the float64 dispatch {dispatch!r}"
        ref_rows, rows = (path.read_text().splitlines() for path in (reference, csv_path))
        assert len(rows) == len(ref_rows) and rows[0] == ref_rows[0] == CSV_HEADER
        columns = CSV_HEADER.split(",")
        cells = {
            (ref[0], ref[1], column): (a, b)
            for ref, got in zip((r.split(",") for r in ref_rows[1:]), (r.split(",") for r in rows[1:]))
            for column, a, b in zip(columns, ref, got)
            if a != b
        }
        assert cells == self._DISPATCH_CELLS[dispatch]

    def test_strong_squeezing_sweep_matches_the_reference_csv(self, tmp_path):
        """The eight seed-0 points of the sweep-strong benchmark write the
        committed reference bytes; windows 290, 296 and 326 lie past window
        tops that leave too much mass outside."""
        reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / "sweep_strong_seed0.csv"
        csv_path = tmp_path / "strong.csv"
        argv = ["sweep", "--etas", "0.9081,0.9315", "--betas", "7.006,7.68,9.252,11.265", "--threads", "2"]
        assert main([*argv, "--csv", str(csv_path)]) == 0
        assert csv_path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("name", ["sweep_default.csv", "sweep_strong_seed0.csv"])
    def test_reference_residuals_are_the_summed_outside_mass(self, name):
        """The residual column is the float64 1 - sum P; on every reference
        row it is the directly summed mass outside the window to 1e-13
        (7.8e-14 apart at (0.1, 10))."""
        reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / name
        rows = [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in reference.read_text().splitlines()[1:]]
        assert rows
        for row in rows:
            eta, beta = float(row["eta"]), float(row["beta"])
            lp = log_poisson_table(beta**2, int(row["window_K"]) - 1)
            mass = encoding._outside_law(eta, beta**2, lp)[0]
            assert float(row["residual"]) == pytest.approx(mass, rel=0.0, abs=1e-13), (eta, beta)

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        paths = [tmp_path / f"run{i}.csv" for i in range(3)]
        for path, threads in zip(paths, ("1", "1", "3")):
            code = main(
                ["sweep", "--etas", "0.1,0.4", "--betas", "1:3:1",
                 "--csv", str(path), "--threads", threads]
            )
            assert code == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_svg_is_well_formed_with_one_polyline_per_eta(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "out.svg"
        code = main(
            ["sweep", "--etas", "0.1,0.2,0.3", "--betas", "1,2",
             "--csv", str(csv_path), "--svg", str(svg_path)]
        )
        assert code == 0
        root = ET.parse(svg_path).getroot()
        assert root.tag == f"{SVG_NS}svg"
        assert len(root.findall(f"{SVG_NS}polyline")) == 3
        labels = [t.text for t in root.findall(f"{SVG_NS}text")]
        assert "beta" in labels
        assert "fraction of entanglement lost" in labels

    @pytest.mark.parametrize(
        "series,digest",
        [
            (
                [(f"eta={0.1 * (i + 1):g}", [1.0, 2.5, 4.0], [0.01 * i, 0.02 * i + 0.001, 0.5 / (i + 1)]) for i in range(8)],
                "574134b6ce4301dfca2132d33be350e5f0b40d900b2768c6934ed09faebd7c18",
            ),
            ([("eta=0", [3.0], [0.0])], "8283abc123f6f5f3586bba80fcdfc7af7d14a9e6b5128ab1c36cc435b734df74"),
        ],
        ids=["palette-wraps", "both-ranges-degenerate"],
    )
    def test_chart_bytes_are_pinned(self, series, digest):
        """Eight series wrap the seven-colour palette; one single-point
        series widens both ranges.  The digests pin every byte the chart
        writes, so a change to how it spells SVG shows here."""
        svg = svgplot.render_line_chart(series, "title", "beta", "fraction of entanglement lost")
        assert hashlib.sha256(svg.encode("ascii")).hexdigest() == digest

    def test_chart_text_is_escaped(self):
        svg = svgplot.render_line_chart([("signal & idler <1>", [1, 2], [0.1, 0.2])], "a & b", "x", "y")
        texts = [t.text for t in ET.fromstring(svg).findall(f"{SVG_NS}text")]
        assert texts[0] == "a & b"
        assert texts[-1] == "signal & idler <1>"

    @pytest.mark.parametrize(
        "series,message",
        [
            ([], "at least one series"),
            ([("a", [], []), ("b", [], [])], "non-empty series"),
            ([("a", [1.0, 2.0], [0.1])], "series 'a' has 2 x values and 1 y values"),
            ([("a", [1.0], [])], "series 'a' has 1 x values and 0 y values"),
            ([("a", [1.0, 2.0], [0.1, 0.2]), ("b", [1.0, math.nan, 3.0], [0.1, 0.2, 0.3])], "series 'b' has a value that is not finite"),
            ([("a", [1.0, 2.0], [0.1, math.inf])], "series 'a' has a value that is not finite"),
        ],
        ids=["no-series", "only-empty-series", "more-xs", "no-ys", "nan-x", "inf-y"],
    )
    def test_chart_refuses_series_it_cannot_draw(self, series, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            svgplot.render_line_chart(series, "title", "x", "y")

    def test_unwritable_csv_path_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        code = main(["sweep", "--etas", "0.1", "--betas", "1", "--csv", str(target)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    def test_unwritable_svg_path_fails_cleanly_after_writing_the_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        svg_path = tmp_path / "missing" / "out.svg"
        code = main(["sweep", "--etas", "0.1", "--betas", "1", "--csv", str(csv_path), "--svg", str(svg_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(svg_path) in captured.err
        assert csv_path.read_text(encoding="ascii").startswith(CSV_HEADER + "\n0.1,1,")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flag", ["--csv", "--svg"])
    def test_a_full_device_is_named_in_the_error(self, tmp_path, capsys, flag):
        """Writing to /dev/full fails at the flush on close, where Python
        sets no filename; the error line still names the path, and a CSV
        written before a failing SVG stays on disk."""
        csv_path = tmp_path / "out.csv"
        outputs = {"--csv": ["--csv", "/dev/full"], "--svg": ["--csv", str(csv_path), "--svg", "/dev/full"]}[flag]
        assert main(["sweep", "--etas", "0.1", "--betas", "1", *outputs]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "'/dev/full'" in captured.err
        if flag == "--svg":
            assert csv_path.read_text(encoding="ascii").startswith(CSV_HEADER + "\n0.1,1,")

    @pytest.mark.parametrize(
        "etas,betas", [("0.5", "3"), ("0", "1,2")], ids=["one-point-x-range", "flat-y-range"]
    )
    def test_svg_of_a_degenerate_range_has_finite_coordinates(self, tmp_path, etas, betas):
        """One beta gives x_min == x_max, and eta = 0 loses nothing at any
        beta, so y_min == y_max: the chart widens each such range to 1."""
        svg_path = tmp_path / "out.svg"
        code = main(
            ["sweep", "--etas", etas, "--betas", betas,
             "--csv", str(tmp_path / "out.csv"), "--svg", str(svg_path)]
        )
        assert code == 0
        root = ET.parse(svg_path).getroot()
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == len(etas.split(","))
        coords = [float(v) for line in polylines for pair in line.get("points").split() for v in pair.split(",")]
        assert len(coords) == 2 * len(betas.split(","))
        assert all(math.isfinite(v) for v in coords)

    def test_invalid_grid_fails_cleanly(self, tmp_path, capsys):
        code = main(["sweep", "--etas", "0.1:0.5", "--betas", "1", "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,text,entry", [("--etas", "0.5,", "''"), ("--betas", "1:x:1", "'x'")])
    def test_grid_entry_error_names_the_flag_and_the_grid(self, tmp_path, capsys, flag, text, entry):
        """A grid entry that is not a number (the empty one after a trailing
        comma, too) fails with one error line naming the flag, the grid text
        and the entry."""
        target = tmp_path / "x.csv"
        code = main(["sweep", flag, text, "--csv", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err and repr(text) in err and entry in err
        assert not target.exists()

    def test_out_of_domain_eta_fails_cleanly(self, tmp_path, capsys):
        code = main(["sweep", "--etas", "1.5", "--betas", "1", "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,quantity",
        [("--epsilon-tail", "0", "epsilon_tail"), ("--epsilon-tail", "1", "epsilon_tail"), ("--threads", "0", "threads")],
        ids=["--epsilon-tail-0", "--epsilon-tail-1", "--threads-0"],
    )
    def test_rejects_bad_flags(self, tmp_path, capsys, flag, value, quantity):
        target = tmp_path / "x.csv"
        code = main(["sweep", "--etas", "0.1", "--betas", "1", "--csv", str(target), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert quantity in err
        assert not target.exists()

    def test_negative_range_written_with_equals(self, tmp_path):
        """A grid value with a leading minus reaches the grid parser when
        written as --betas=...; the CSV reports |beta|."""
        csv_path = tmp_path / "out.csv"
        code = main(["sweep", "--etas", "0.5", "--betas=-3:-1:1", "--csv", str(csv_path)])
        assert code == 0
        rows = csv_path.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["3", "2", "1"]

    def test_huge_range_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "x.csv"
        code = main(["sweep", "--etas", "0.1", "--betas", "0:1e9:1", "--csv", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1000000001 points" in err
        assert not target.exists()

    def test_sweep_point_count_is_capped(self, tmp_path, capsys, monkeypatch):
        """Each range fits the limit, but 10 000 etas times 2 betas make
        20 000 points: rejected before any point runs."""

        def refuse(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(entanglement, "average_entanglement", refuse)
        target = tmp_path / "x.csv"
        code = main(["sweep", "--etas", "0:0.9999:0.0001", "--betas", "1,2", "--csv", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "20000 (eta, beta) points" in err and str(MAX_GRID_POINTS) in err
        assert not target.exists()

    def test_tiny_eta_sweep(self, tmp_path):
        """At eta = 1e-170 sinh^2 r underflows to 0; those rows report no
        entanglement instead of failing."""
        csv_path = tmp_path / "tiny.csv"
        code = main(["sweep", "--etas", "0.5,1e-170", "--betas", "1e-200,3", "--csv", str(csv_path)])
        assert code == 0
        rows = [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in csv_path.read_text().splitlines()[1:]]
        assert len(rows) == 4
        for row in rows:
            e_exact, e_avg, lost = float(row["E_exact"]), float(row["E_avg"]), float(row["fraction_lost"])
            assert 0.0 <= e_avg <= e_exact and 0.0 <= lost <= 1.0
        assert all(row["E_exact"] == row["E_avg"] == row["fraction_lost"] == "0" for row in rows[2:])


class TestPointCommand:
    def test_tiny_eta_point(self, capsys):
        assert main(["point", "--eta", "1e-200", "--beta", "2"]) == 0
        assert "E_exact        0\n" in capsys.readouterr().out

    def test_prints_report_fields(self, capsys):
        code = main(["point", "--eta", "0.5", "--beta", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for field in ("E_exact", "E_avg", "fraction_lost", "residual", "top contributions"):
            assert field in out
        assert out.count("(") >= 10  # ten contribution rows
        assert out.count("1.08170416595") == 1  # E_exact at eta = 0.5, printed once
        # (1, 1) has Schmidt weights (0.8, 0.2)
        assert "(   1,   1)  0.126876828034  0.721928094887\n" in out

    def test_top_outcomes_are_sorted_by_probability(self):
        probs = pair_outcome_distribution(0.3, 1.0).support.probabilities
        top = _most_probable(probs, 5)
        values = [probs[k, l] for k, l in top]
        assert values == sorted(values, reverse=True)
        assert values[0] == probs.max()
        # equal probabilities keep outcome order, as (0, 1) and (1, 0) do
        assert top.index((0, 1)) + 1 == top.index((1, 0))

    @staticmethod
    def _sorted_window(probabilities, count):
        """The ranking by a sort of the whole window, by (-p, index)."""
        flat = probabilities.ravel()
        order = np.lexsort((np.arange(flat.size), -flat))[:count]
        return [divmod(int(i), probabilities.shape[1]) for i in order]

    def test_a_tie_at_the_cut_keeps_outcome_order(self):
        """The 10th value is shared by 29 cells; the first of them by index
        fill the last places, as a sort of the whole window gives."""
        probs = np.full((6, 6), 0.01)
        probs[np.unravel_index([31, 4, 17, 9, 22], probs.shape)] = [0.2, 0.1, 0.1, 0.05, 0.04]
        probs[5, 0] = probs[0, 5] = 0.001
        top = _most_probable(probs, 10)
        assert top == self._sorted_window(probs, 10)
        assert top[:5] == [(5, 1), (0, 4), (2, 5), (1, 3), (3, 4)]
        assert top[5:] == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]

    def test_a_window_with_fewer_cells_than_count(self):
        probs = np.array([[0.25, 0.5], [0.125, 0.125]])
        assert _most_probable(probs, 10) == [(0, 1), (0, 0), (1, 0), (1, 1)]

    def test_ranking_holds_one_copy_of_the_window(self):
        """At (0.5, 40) the window is 1922 cells wide.  The partition copies
        it once; a sort of the whole window peaked at 3.0 times the grid's
        bytes."""
        probs = entanglement._report_and_grid(0.5, 40.0, DEFAULT_EPSILON_TAIL)[1]
        tracemalloc.start()
        try:
            top = _most_probable(probs, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert top == self._sorted_window(probs, 10)
        assert peak <= 1.2 * probs.nbytes

    def test_zero_eta_point(self, capsys):
        code = main(["point", "--eta", "0", "--beta", "5"])
        assert code == 0
        assert "E_exact        0" in capsys.readouterr().out

    def test_tiny_beta_point_reaches_its_tail(self, capsys):
        """The window tops stay at 1 until w passes 1e15; a 4 x 4 window
        then meets the tail."""
        code = main(["point", "--eta", "0", "--beta", "1e-15", "--epsilon-tail", "1e-100"])
        assert code == 0
        assert "window         4 x 4" in capsys.readouterr().out

    def test_tail_below_float64_resolution(self, capsys):
        """A tail of 1e-17 is below what the float64 1 - sum P resolves;
        the window is the first whose directly summed outside mass meets
        it."""
        code = main(["point", "--eta", "0.5", "--beta", "2", "--epsilon-tail", "1e-17"])
        assert code == 0
        assert "window         39 x 39" in capsys.readouterr().out

    def test_underflowing_beta_squared_point(self, capsys):
        """|beta|^2 = 1e-400 underflows to 0: the report and its top
        contributions print, each (n, n) outcome with 0 ebits."""
        code = main(["point", "--eta", "0.5", "--beta", "1e-200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E_avg          0\n" in out
        assert "(   1,   1)  0.1875  0\n" in out

    def test_oracle_flag_reports_tiny_deviation(self, capsys):
        code = main(["point", "--eta", "0.5", "--beta", "1", "--oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle-vs-main max deviation" in out
        line = next(l for l in out.splitlines() if "oracle-vs-main" in l)
        values = [float(m) for m in re.findall(r"\d\.\d+e[+-]\d+", line)]
        assert len(values) == 3 and all(v < 1e-10 for v in values)

    def test_oracle_checks_the_printed_report(self, capsys, monkeypatch):
        """--oracle compares against the table the report already holds, so
        the outcome grid is built once, at the tail the report used."""
        calls = []
        for module in (entanglement, encoding):
            original = module._pair_window_grid

            def counted(*args, original=original, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, "_pair_window_grid", counted)
        code = main(["point", "--eta", "0.5", "--beta", "1", "--epsilon-tail", "1e-12", "--oracle"])
        assert code == 0
        assert "oracle-vs-main max deviation over 49 outcomes" in capsys.readouterr().out
        assert len(calls) == 1 and calls[0][2] == 1e-12

    def test_oracle_compares_only_outcomes_inside_the_window(self, capsys):
        # a loose tail leaves a window of 5 x 5 outcomes at (0.3, 0.3)
        code = main(["point", "--eta", "0.3", "--beta", "0.3", "--epsilon-tail", "0.01", "--oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert "window         5 x 5" in out
        line = next(l for l in out.splitlines() if "oracle-vs-main" in l)
        assert "over 25 outcomes" in line
        values = [float(m) for m in re.findall(r"\d\.\d+e[+-]\d+", line)]
        assert len(values) == 3 and all(v < 1e-10 for v in values)

    @pytest.mark.parametrize("beta", ["10", "28"])
    def test_oracle_reports_when_no_small_outcome_is_probable(self, capsys, beta):
        """At |beta| = 10 every outcome K, L <= 6 has P below 1e-12; at
        |beta| = 28 the dense projections onto them have probability 0."""
        code = main(["point", "--eta", "0.5", "--beta", beta, "--oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith("oracle-vs-main: no outcome K, L <= 6 has probability above 1e-12\n")

    @pytest.mark.parametrize("beta,window", [("1e-200", 1), ("1e-100", 2)])
    def test_oracle_compares_only_the_probable_outcomes(self, capsys, beta, window):
        """At eta = 0 only (0, 0) has P above 1e-12: at |beta| = 1e-200 it
        fills the window, at 1e-100 the dense P(1, 1) underflows to 0."""
        code = main(["point", "--eta", "0", "--beta", beta, "--oracle"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"window         {window} x {window}\n" in out
        assert out.splitlines()[-1].startswith("oracle-vs-main max deviation over 1 outcomes: ")

    def test_out_of_domain_eta_fails_cleanly(self, capsys):
        code = main(["point", "--eta", "1.0", "--beta", "2"])
        assert code == 2
        assert "eta" in capsys.readouterr().err

    def test_window_past_the_grid_budget_fails_cleanly(self, capsys, monkeypatch):
        # the first window whose outside mass meets 1e-17 is k_max = 38, and
        # its two grids and two block buffers take (2 * 39^2 + 2 * 760) * 8
        # = 36 496 bytes
        monkeypatch.setattr(encoding, "_GRID_BUDGET_BYTES", 30_000)
        code = main(["point", "--eta", "0.5", "--beta", "2", "--epsilon-tail", "1e-17"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: outcome window k_max=") and err.count("\n") == 1
        assert "grid budget" in err

    def test_huge_window_error_is_short(self, capsys):
        """|beta|^2 = 1e300 is finite; its window top of 301 digits and byte
        count of over 600 print as %.3e."""
        code = main(["point", "--eta", "0.5", "--beta", "1e150"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: outcome window k_max=1.000e+300 needs 1.600e+601 bytes")
        assert len(err) < 200 and err.count("\n") == 1

    @pytest.mark.parametrize("beta", ["inf", "-inf", "nan", "1e200"])
    def test_unrepresentable_beta_fails_cleanly(self, capsys, beta):
        code = main(["point", "--eta", "0.5", f"--beta={beta}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: beta ") and err.count("\n") == 1


def _child_env(blas_threads: str | None = None) -> dict[str, str]:
    """Environment of a child that imports the package under test, installed
    or not, with OPENBLAS_NUM_THREADS set to blas_threads or unset."""
    src = str(Path(phasefree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "phasefree", "--version"],
        capture_output=True,
        text=True,
        check=False,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert "phasefree" in result.stdout


class TestBlasThreadDefault:
    """The CLI loads numpy with one OpenBLAS thread unless the user chose a
    count or the process loaded numpy first; a library import changes none."""

    def _run(self, imports: str, blas_threads: str | None = None) -> list[str]:
        """The variable after imports run, then on Linux the thread count."""
        code = imports + "\nimport os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        if sys.platform == "linux":
            code += "print(len(os.listdir('/proc/self/task')))\n"
        env = _child_env(blas_threads)
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout.split()

    def test_cli_import_asks_for_one_thread(self):
        out = self._run("import phasefree.cli")
        assert out[0] == "1"
        if sys.platform == "linux":
            assert out[1] == "1", "a thread besides the main one is running"

    def test_a_count_the_user_set_wins(self):
        assert self._run("import phasefree.cli", blas_threads="2")[0] == "2"

    @pytest.mark.parametrize("imports", ["import numpy\nimport phasefree.cli", "import phasefree.encoding"])
    def test_numpy_loaded_first_or_a_library_import_is_left_alone(self, imports):
        assert self._run(imports)[0] == "None"
