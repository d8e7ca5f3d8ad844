import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest

from csocnn import svg
from csocnn.svg import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH

PLOT_W = WIDTH - MARGIN_L - MARGIN_R
PLOT_H = HEIGHT - MARGIN_T - MARGIN_B


@pytest.mark.parametrize("text", [
    "", "plain", "&", "<", ">", "a & b < c > d", "&amp;", "&lt;&gt;",
    "<<&&>>", "x<y>&z&lt;", "tag <g> & 'q' \"d\"",
])
def test_escape_matches_saxutils(text):
    assert svg.escape(text) == sax_escape(text)


def test_cli_import_leaves_network_modules_out():
    # xml.sax.saxutils imports urllib.request, which brings in http.client,
    # ssl and email: a cost every command pays at start-up for nothing
    code = ("import sys, csocnn.cli; "
            "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl')"
            " if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(svg.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def _point_for_point_line_chart(path, title, series, x_label="", y_label=""):
    """line_chart as it was before pixel-resolution drawing: every point a
    vertex, axis ranges over Python lists, px/py per scalar."""
    from csocnn.svg import PALETTE, _fmt, escape
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]

    def axis_range(values):
        lo, hi = min(values), max(values)
        if lo == hi:
            pad = abs(lo) * 0.1 or 1.0
            return lo - pad, hi + pad
        return lo, hi

    x_lo, x_hi = axis_range(xs_all)
    y_lo, y_hi = axis_range(ys_all)

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * PLOT_W

    def py(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" '
        f'height="{PLOT_H}" fill="none" stroke="#888"/>',
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{HEIGHT - MARGIN_B + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{escape(_fmt(round(xv, 3)))}</text>')
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">'
            f'{escape(_fmt(round(yv, 4)))}</text>')
    if x_label:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(x_label)}</text>')
    if y_label:
        parts.append(
            f'<text x="18" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {HEIGHT / 2:.1f})">{escape(y_label)}</text>')
    for i, (name, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 18 + 16 * i}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{escape(name)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


@pytest.mark.parametrize("series", [
    # curves.svg: integer epochs, accuracies and losses
    [("train_acc", [1, 2, 3], [0.5, 0.8125, 0.9]),
     ("val_acc", [1, 2, 3], [0.4, 0.75, 0.7]),
     ("train_loss", [1, 2, 3], [1.6094, 0.8, 0.41]),
     ("val_loss", [1, 2, 3], [1.7, 0.9, 1.05])],
    # convergence.svg: iterations from 0, a flat best
    [("best_accuracy", [0, 1, 2], [0.625, 0.625, 0.625]),
     ("mean_accuracy", [0, 1, 2], [0.4, 0.55, 0.6])],
    # one epoch: both axis ranges padded
    [("train_acc", [1], [0.5]), ("val_acc", [1], [0.5])],
    # a short ROC passed as arrays
    [("micro (auc=0.750)", np.array([0.0, 0.25, 0.5, 1.0]),
      np.array([0.0, 0.5, 1.0, 1.0]))],
])
def test_short_series_keep_point_for_point_bytes(tmp_path, series):
    got = svg.line_chart(tmp_path / "got.svg", "t & <t>", series, "x", "y")
    want = _point_for_point_line_chart(tmp_path / "want.svg", "t & <t>",
                                       [(n, list(xs), list(ys))
                                        for n, xs, ys in series], "x", "y")
    assert got.read_bytes() == want.read_bytes()


def _polylines(path):
    ns = "{http://www.w3.org/2000/svg}"
    return [[tuple(v.split(",")) for v in line.get("points").split()]
            for line in ET.parse(path).iter(f"{ns}polyline")]


def test_long_monotone_series_drawn_at_pixel_resolution(tmp_path):
    # a staircase ROC-like curve from (0, 0) to (1, 1), 100 000 points
    rng = np.random.default_rng(0)
    steps = rng.random((2, 100_000)) < [[0.5], [0.6]]
    steps[:, 0] = False
    xs = np.cumsum(steps[0]) / max(steps[0].sum(), 1)
    ys = np.cumsum(steps[1]) / max(steps[1].sum(), 1)
    (drawn,) = _polylines(svg.line_chart(tmp_path / "roc.svg", "roc",
                                         [("micro", xs, ys)]))
    vx = [MARGIN_L + x / 1.0 * PLOT_W for x in xs.tolist()]
    vy = [HEIGHT - MARGIN_B - y / 1.0 * PLOT_H for y in ys.tolist()]
    cells = [(math.floor(x), math.floor(y)) for x, y in zip(vx, vy)]
    last = len(cells) - 1
    kept = [i for i, c in enumerate(cells)
            if i in (0, last) or c != cells[i - 1] or c != cells[i + 1]]
    assert drawn == [(f"{vx[i]:.2f}", f"{vy[i]:.2f}") for i in kept]
    assert kept[0] == 0 and kept[-1] == last
    assert len(kept) <= 2 * (PLOT_W + PLOT_H) + 2
    # every dropped point shares its cell with the kept points around it
    for before, after in zip(kept, kept[1:]):
        for i in range(before + 1, after):
            assert cells[i] == cells[before] == cells[after]


def _heatmap_parts(path):
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.parse(path).getroot()
    cells = [r for r in root.iter(f"{ns}rect")
             if r.get("fill", "").startswith("rgb(")]
    texts = [t.text for t in root.iter(f"{ns}text")]
    return cells, texts


def test_heatmap_draws_one_cell_per_count(tmp_path):
    counts = [[5, 0, 1], [2, 7, 0]]
    path = svg.heatmap(tmp_path / "cm.svg", "Confusion & <matrix>", counts,
                       ["Benign", "Data & <Exfil>"], ["a", "b<", "c&"])
    cells, texts = _heatmap_parts(path)
    assert len(cells) == 6
    # the largest count is the darkest cell, and a zero count stays white
    fills = [c.get("fill") for c in cells]
    assert fills[4] == "rgb(75,75,255)" and fills[1] == "rgb(255,255,255)"
    assert texts[0] == "Confusion & <matrix>"
    assert [t for t in texts if t in ("5", "0", "1", "2", "7")] == [
        "5", "0", "1", "2", "7", "0"]
    for label in ("Benign", "Data & <Exfil>", "a", "b<", "c&",
                  "Predicted", "True"):
        assert label in texts


def test_heatmap_of_all_zero_counts(tmp_path):
    path = svg.heatmap(tmp_path / "cm.svg", "empty", [[0, 0], [0, 0]],
                       ["x", "y"], ["x", "y"])
    cells, texts = _heatmap_parts(path)
    assert [c.get("fill") for c in cells] == ["rgb(255,255,255)"] * 4
    assert texts.count("0") == 4
