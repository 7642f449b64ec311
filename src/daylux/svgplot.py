"""Tiny deterministic SVG line charts.

The simulator's plot output must be byte-identical across runs, on the same
platform C library (``math.exp``, ``pow``) that produced the plotted values,
which rules out plotting libraries that stamp versions or timestamps into
their files.  A polyline per series, two axes and a handful of tick labels
are all the panels need.
"""

from __future__ import annotations

from itertools import chain

WIDTH = 720
HEIGHT = 360
MARGIN_L = 56
MARGIN_R = 16
MARGIN_T = 28
MARGIN_B = 40

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    """Stable coordinate/label formatting (no trailing .0 noise)."""
    s = f"{x:.6g}"
    return "0" if s == "-0" else s


def polyline_chart(path, title: str, series, y_label: str = "", x_label: str = "k") -> None:
    """Write one chart; `series` is a list of (name, list-of-numbers) pairs.

    All series share the x axis 0..n-1; the y range is the joint min/max
    padded by 5% (or a unit band when flat).
    """
    named = [(name, list(values)) for name, values in series]
    n = max((len(v) for _, v in named), default=0)
    # min/max see the points as floats in series order, NaNs included
    y_lo = min(map(float, chain.from_iterable(v for _, v in named)), default=0.0)
    y_hi = max(map(float, chain.from_iterable(v for _, v in named)), default=0.0)
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
        f'text-anchor="middle">{_esc(title)}</text>',
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
    if x_label:
        out.append(
            f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 6}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{_esc(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="14" y="{MARGIN_T + plot_h // 2}" font-family="monospace" '
            f'font-size="11" text-anchor="middle" '
            f'transform="rotate(-90 14 {MARGIN_T + plot_h // 2})">{_esc(y_label)}</text>'
        )
    # A chart has at most n distinct x positions and, on the 8-bit grid, a
    # few hundred distinct y values, so each is formatted once, not per point.
    xs: list[str] = []
    for idx, (name, values) in enumerate(named):
        color = PALETTE[idx % len(PALETTE)]
        if values:
            if len(values) > len(xs):
                xs += [_fmt(sx(i)) + "," for i in range(len(xs), len(values))]
            ys = {v: _fmt(sy(float(v))) for v in set(values)}
            pts = " ".join([x + ys[v] for x, v in zip(xs, values)])
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>'
            )
        ly = MARGIN_T + 12 + 13 * idx
        lx = MARGIN_L + plot_w - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 22}" y="{ly}" font-family="monospace" font-size="10">'
            f"{_esc(name)}</text>"
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
