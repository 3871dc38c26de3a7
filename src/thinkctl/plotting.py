"""Sweep plot emission: CSV always available, SVG on request.

Accuracy is plotted in percent, so a supplied regression fit must be in
percent space as well (the CLI fits on percent values). Output is
byte-deterministic for identical inputs (no timestamps, fixed float
formatting), so replayed runs can be compared byte for byte.
"""

from __future__ import annotations

import csv
import io
import re

from .evaluation import KIND_BUDGET, SweepResult
from .regression import RegressionFit

FORMAT_CSV = "csv"
FORMAT_SVG = "svg"

CSV_COLUMNS = ("x", "accuracy", "n", "ci_low", "ci_high")

_WIDTH, _HEIGHT = 640, 480
_MARGIN = 60

# what XML 1.0 allows in no document: C0 controls other than tab, newline
# and carriage return, surrogates, U+FFFE and U+FFFF
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _num(value: float) -> str:
    """Canonical number rendering: integers bare, floats via repr."""
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def emit_plot(sweep: SweepResult, fit: RegressionFit | None = None, format: str = FORMAT_CSV) -> bytes:
    """Render a sweep (and optional fit band) to file bytes."""
    if format == FORMAT_CSV:
        return _emit_csv(sweep, fit)
    if format == FORMAT_SVG:
        return _emit_svg(sweep, fit)
    raise ValueError(f"unknown plot format: {format!r}")


def _emit_csv(sweep: SweepResult, fit: RegressionFit | None) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for point in sweep.points:
        if fit is not None:
            low, high = fit.band(point.x)
            ci_low, ci_high = repr(low), repr(high)
        else:
            ci_low = ci_high = ""
        writer.writerow([_num(point.x), repr(100.0 * point.accuracy), point.n, ci_low, ci_high])
    return buffer.getvalue().encode("utf-8")


def _scale(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        lo -= 1.0
        hi += 1.0
    span = hi - lo
    lo -= 0.05 * span
    hi += 0.05 * span
    return lo, hi


def _emit_svg(sweep: SweepResult, fit: RegressionFit | None) -> bytes:
    # imported here, so that a run which draws no SVG never loads it
    from html import escape

    xs = [p.x for p in sweep.points]
    ys = [100.0 * p.accuracy for p in sweep.points]
    band_values = []
    if fit is not None:
        for x in xs:
            low, high = fit.band(x)
            band_values.extend([low, high])
    x_lo, x_hi = _scale(xs)
    y_lo, y_hi = _scale(ys + band_values)

    def px(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    def pt(x: float, y: float) -> str:
        return f"{px(x):.2f},{py(y):.2f}"

    x_label = "thinking budget (tokens)" if sweep.kind == KIND_BUDGET else "forcing count"
    title = escape(_NOT_XML_CHAR.sub("\ufffd", sweep.dataset), quote=False)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 15}" text-anchor="middle" font-size="14">{x_label}</text>',
        f'<text x="18" y="{_HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_HEIGHT // 2})">accuracy (%)</text>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
    ]
    if fit is not None:
        upper = [pt(x, fit.band(x)[1]) for x in xs]
        lower = [pt(x, fit.band(x)[0]) for x in reversed(xs)]
        parts.append(
            f'<polygon class="ci-band" points="{" ".join(upper + lower)}" '
            f'fill="#9ecae1" fill-opacity="0.4" stroke="none"/>'
        )
        line = " L ".join(pt(x, fit.predict(x)) for x in xs)
        parts.append(
            f'<path class="fit-line" d="M {line}" fill="none" stroke="#3182bd" '
            f'stroke-width="1.5" stroke-dasharray="5 4"/>'
        )
    for point in sweep.points:
        parts.append(
            f'<circle cx="{px(point.x):.2f}" cy="{py(100.0 * point.accuracy):.2f}" r="4" fill="#08519c"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")
