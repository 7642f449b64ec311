"""polyline_chart against a per-point reference over seeded random series.

The reference below formats every point on its own and joins the whole file
in memory; the writer under test formats each x index and each distinct y
value once and streams each polyline in chunks of CHUNK_POINTS points.  Both
must produce the same bytes for any series set.
"""

import pytest

from daylux.rng import SplitMix64
from daylux.svgplot import (
    CHUNK_POINTS,
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    PALETTE,
    WIDTH,
    _fmt,
    polyline_chart,
)

SEED = 0x5E6
CASES = 200
NAMES = ("E_desired", "eps", "U_IM", "")


def reference_chart(title, series, y_label) -> str:
    """The file text polyline_chart must write: every point formatted alone."""
    named = [(name, [float(v) for v in values]) for name, values in series]
    n = max((len(v) for _, v in named), default=0)
    ys = [v for _, values in named for v in values]
    if not ys:
        ys = [0.0]
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo -= 1.0
        y_hi += 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_hi = max(n - 1, 1)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + plot_w * (x / x_hi)

    def sy(y):
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
    for idx, (name, values) in enumerate(named):
        color = PALETTE[idx % len(PALETTE)]
        if values:
            pts = " ".join(f"{_fmt(sx(i))},{_fmt(sy(v))}" for i, v in enumerate(values))
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
            f"{name}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def random_value(rng):
    """One point of a mixed series: int, bool, float or a signed zero."""
    pick = rng.next_u64() % 6
    if pick == 0:
        return rng.next_u64() % 256
    if pick == 1:
        return rng.next_u64() % 511 - 255
    if pick == 2:
        return rng.uniform(-300.0, 300.0)
    if pick == 3:
        return -0.0
    if pick == 4:
        return 0
    return bool(rng.next_u64() % 2)


def random_values(rng) -> list:
    n = rng.next_u64() % 40
    kind = rng.next_u64() % 7
    if kind == 0:
        return []
    if kind == 1:  # flat, the unit band case
        return [random_value(rng)] * n
    if kind == 2:  # the 8-bit grid the illuminance and command panels plot
        return [rng.next_u64() % 256 for _ in range(n)]
    if kind == 3:  # the error panel's eps range
        return [rng.next_u64() % 511 - 255 for _ in range(n)]
    if kind == 4:  # a narrow float range, where %.6g drops digits
        base = rng.uniform(-1.0, 1.0)
        return [base + rng.uniform(0.0, 1e-6) for _ in range(n)]
    if kind == 5:
        return [-0.0] * n
    return [random_value(rng) for _ in range(n)]


def random_case(rng):
    """(series, y_label): each series is (name, list of values)."""
    series = [
        (NAMES[rng.next_u64() % len(NAMES)], random_values(rng)) for _ in range(rng.next_u64() % 5)
    ]
    return series, ("lx_d8bv", "V_d8bv")[rng.next_u64() % 2]


def test_chart_bytes_match_per_point_reference(tmp_path):
    rng = SplitMix64(SEED)
    path = tmp_path / "chart.svg"
    for case in range(CASES):
        series, y_label = random_case(rng)
        polyline_chart(path, "Title", series, y_label)
        expected = reference_chart("Title", series, y_label)
        assert path.read_bytes() == expected.encode("utf-8"), f"case {case}: {series!r}"



# Series lengths of one chart around the chunk seams: one short of a chunk,
# exactly one, one past it, about three chunks, and series that end on
# either side of a seam while a longer one runs on.
SEAM_CASES = [
    (CHUNK_POINTS - 1,),
    (CHUNK_POINTS,),
    (CHUNK_POINTS + 1,),
    (3 * CHUNK_POINTS + 5,),
    (CHUNK_POINTS + 1, CHUNK_POINTS, CHUNK_POINTS - 1),
    (3 * CHUNK_POINTS, 2 * CHUNK_POINTS + 1, 2 * CHUNK_POINTS, 1),
]


@pytest.mark.parametrize("lengths", SEAM_CASES, ids=lambda c: "-".join(map(str, c)))
def test_chart_bytes_match_per_point_reference_across_chunk_seams(lengths, tmp_path):
    rng = SplitMix64(SEED + sum(lengths))
    series = [
        (NAMES[i % len(NAMES)], [random_value(rng) for _ in range(n)])
        for i, n in enumerate(lengths)
    ]
    path = tmp_path / "chart.svg"
    polyline_chart(path, "seams", series, "lx_d8bv")
    expected = reference_chart("seams", series, "lx_d8bv")
    assert path.read_bytes() == expected.encode("utf-8")
