"""Tiny deterministic SVG line charts.

The simulator's plot output must be byte-identical across runs, on the same
platform C library (``math.exp``, ``pow``) that produced the plotted values,
which rules out plotting libraries that stamp versions or timestamps into
their files.  A polyline per series, two axes and a handful of tick labels
are all the panels need.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import add

WIDTH = 720
HEIGHT = 360
MARGIN_L = 56
MARGIN_R = 16
MARGIN_T = 28
MARGIN_B = 40

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Points per write of a polyline: the writer never holds more than one chunk
# of a series' text in memory.
CHUNK_POINTS = 512


def _fmt(x: float) -> str:
    """Stable coordinate/label formatting (no trailing .0 noise)."""
    s = f"{x:.6g}"
    return "0" if s == "-0" else s


def polyline_chart(path, title: str, series, y_label: str) -> None:
    """Write one chart; `series` is a list of (name, list-of-numbers) pairs.

    All series share the x axis 0..n-1, labelled k; the y range is the joint
    min/max padded by 5% (or a unit band when flat).  Each polyline streams
    to the file CHUNK_POINTS points at a time.  The title, y label and names
    are written as given: report.PANELS holds them, and none needs escaping.
    """
    n = max((len(v) for _, v in series), default=0)
    y_lo = min(chain.from_iterable(v for _, v in series), default=0.0)
    y_hi = max(chain.from_iterable(v for _, v in series), default=0.0)
    if y_hi == y_lo:
        y_lo -= 1.0
        y_hi += 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_hi = max(n - 1, 1)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + plot_w * (x / x_hi)

    def sy(y: float) -> float:
        return MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="18" font-family="monospace" font-size="13" '
        f'text-anchor="middle">{title}</text>',
    ]
    axis_y = MARGIN_T + plot_h
    out.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{axis_y}" '
        f'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{MARGIN_L}" y1="{axis_y}" x2="{MARGIN_L + plot_w}" y2="{axis_y}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for i in range(5):
        fy = y_lo + (y_hi - y_lo) * i / 4
        py = sy(fy)
        out.append(
            f'<line x1="{MARGIN_L - 4}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 7}" y="{_fmt(py + 4)}" font-family="monospace" '
            f'font-size="10" text-anchor="end">{_fmt(fy)}</text>'
        )
        fx = x_hi * i / 4
        px = sx(fx)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{axis_y}" x2="{_fmt(px)}" y2="{axis_y + 4}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{axis_y + 16}" font-family="monospace" '
            f'font-size="10" text-anchor="middle">{_fmt(fx)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 6}" font-family="monospace" '
        'font-size="11" text-anchor="middle">k</text>'
    )
    out.append(
        f'<text x="14" y="{MARGIN_T + plot_h // 2}" font-family="monospace" '
        f'font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 14 {MARGIN_T + plot_h // 2})">{y_label}</text>'
    )
    # A chart has at most n distinct x positions and, on the 8-bit grid, a
    # few hundred distinct y values, so each is formatted once, not per point.
    # x >= MARGIN_L, so its format never gives the "-0" that _fmt guards.
    xs = [f"{MARGIN_L + plot_w * (i / x_hi):.6g}," for i in range(n)]
    ys = {v: _fmt(sy(v)) for v in set(chain.from_iterable(v for _, v in series))}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
        for idx, (name, values) in enumerate(series):
            color = PALETTE[idx % len(PALETTE)]
            if values:
                # map stops at its shorter input: a short series ends at its last point
                pts = map(add, xs, map(ys.__getitem__, values))
                fh.write('<polyline points="' + " ".join(islice(pts, CHUNK_POINTS)))
                while chunk := " ".join(islice(pts, CHUNK_POINTS)):
                    fh.write(" " + chunk)
                fh.write(f'" fill="none" stroke="{color}" stroke-width="1"/>\n')
            ly = MARGIN_T + 12 + 13 * idx
            lx = MARGIN_L + plot_w - 150
            fh.write(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>\n'
                f'<text x="{lx + 22}" y="{ly}" font-family="monospace" font-size="10">'
                f"{name}</text>\n"
            )
        fh.write("</svg>\n")
