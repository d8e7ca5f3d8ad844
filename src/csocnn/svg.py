"""Tiny SVG chart writer for the report artifacts.

Plots are derived views of data already written to sibling CSVs; output is
deterministic text and valid XML.
"""

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 50, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def escape(text):
    """text with &, > and < as XML entities, & first: what
    xml.sax.saxutils.escape does, without that module's import of
    urllib.request, http.client and ssl."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v):
    return f"{v:.2f}".rstrip("0").rstrip(".") if isinstance(v, float) else str(v)


def _axis_range(arrays):
    lo = min(float(a.min()) for a in arrays)
    hi = max(float(a.max()) for a in arrays)
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def _pixel_runs(px, py):
    """Mask of the vertices to draw: the first and last of every run of
    consecutive vertices in the same integer pixel cell. A monotone curve
    visits each cell in one run, so it keeps at most two vertices per cell
    it crosses; a NaN coordinate is a cell of its own."""
    cx, cy = np.floor(px), np.floor(py)
    new_cell = (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])
    keep = np.ones(px.size, dtype=bool)
    keep[1:-1] = new_cell[:-1] | new_cell[1:]
    return keep


def _axis_titles(x_title, y_title):
    """Titles under the plot and along its left edge; an empty one draws
    nothing."""
    parts = []
    if x_title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(x_title)}</text>')
    if y_title:
        parts.append(
            f'<text x="18" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {HEIGHT / 2:.1f})">{escape(y_title)}</text>')
    return parts


def _write(path, title, parts):
    """Write an SVG document: a white page, the title, then parts."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head + parts + ["</svg>"]) + "\n")
    return path


def line_chart(path, title, series, x_label="", y_label=""):
    """Polyline chart; series is a list of (name, xs, ys) triples of
    sequences or arrays. Each polyline is drawn at the plot's resolution:
    within a run of consecutive points that fall in one pixel cell only the
    run's first and last point are drawn, which moves the line by less than
    a pixel; a series whose points all fall in different cells is drawn
    point for point."""
    series = [(name, np.asarray(xs, dtype=np.float64),
               np.asarray(ys, dtype=np.float64)) for name, xs, ys in series]
    x_lo, x_hi = _axis_range([xs for _, xs, _ in series])
    y_lo, y_hi = _axis_range([ys for _, _, ys in series])
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#888"/>',
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
    parts += _axis_titles(x_label, y_label)
    for i, (name, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        # px and py over arrays: the same float64 operations in the same
        # order, so a drawn vertex has the bytes the scalar functions give
        vx, vy = px(xs), py(ys)
        keep = _pixel_runs(vx, vy)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                       zip(vx[keep].tolist(), vy[keep].tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.6"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 18 + 16 * i}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{escape(name)}</text>')
    return _write(path, title, parts)


def heatmap(path, title, matrix, row_labels, col_labels):
    """Annotated count grid (confusion-matrix style): true classes down the
    side, predicted classes along the bottom."""
    n_rows, n_cols = len(matrix), len(matrix[0])
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    cell_w, cell_h = plot_w / n_cols, plot_h / n_rows
    peak = max(max(row) for row in matrix) or 1

    parts = []
    for r in range(n_rows):
        for c in range(n_cols):
            x = MARGIN_L + c * cell_w
            y = MARGIN_T + r * cell_h
            value = matrix[r][c]
            shade = int(255 - 180 * (value / peak))
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell_w:.1f}" '
                f'height="{cell_h:.1f}" fill="rgb({shade},{shade},255)" '
                f'stroke="#666"/>')
            color = "black" if value / peak < 0.6 else "white"
            parts.append(
                f'<text x="{x + cell_w / 2:.1f}" y="{y + cell_h / 2 + 4:.1f}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="13" '
                f'fill="{color}">{value}</text>')
    for r, label in enumerate(row_labels):
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{MARGIN_T + r * cell_h + cell_h / 2 + 4:.1f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f'{escape(str(label))}</text>')
    for c, label in enumerate(col_labels):
        parts.append(
            f'<text x="{MARGIN_L + c * cell_w + cell_w / 2:.1f}" '
            f'y="{HEIGHT - MARGIN_B + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{escape(str(label))}</text>')
    return _write(path, title, parts + _axis_titles("Predicted", "True"))
