"""Minimal deterministic SVG scatter plots.

The writer emits SVG 1.1 by hand: a fixed-size canvas, one circle per
point, and a legend when labels are present.  Coordinates are formatted
with two decimals and elements are written in row order, so the output
bytes depend only on the input arrays.
"""

import numpy as np

from .errors import ParameterError

CANVAS_SIZE = 800
MARGIN = 40
POINT_RADIUS = 2.0

#: 12 distinguishable fill colors, cycled when there are more classes.
PALETTE = (
    "#a6cee3", "#1f78b4", "#b2df8a", "#33a02c",
    "#fb9a99", "#e31a1c", "#fdbf6f", "#ff7f00",
    "#cab2d6", "#6a3d9a", "#ffff99", "#b15928",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _projector(Z: np.ndarray):
    """Aspect-preserving map from data coordinates to canvas coordinates."""
    inner = CANVAS_SIZE - 2 * MARGIN
    lo = Z.min(axis=0)
    hi = Z.max(axis=0)
    span = hi - lo
    widest = float(span.max())
    scale = inner / widest if widest > 0.0 else 0.0
    offset = MARGIN + (inner - span * scale) / 2.0

    def to_canvas(point):
        x = offset[0] + (point[0] - lo[0]) * scale
        # SVG's y axis points down; flip so larger coordinates plot higher.
        y = CANVAS_SIZE - (offset[1] + (point[1] - lo[1]) * scale)
        return x, y

    return to_canvas


def render_svg_scatter(path, Z, labels=None, label_names=None) -> None:
    """Write a two-dimensional embedding as an SVG scatter plot.

    ``labels`` (integer codes) select fill colors from the palette and,
    together with ``label_names``, populate the legend.  Rendering the
    same arrays twice produces identical files byte for byte.  A path
    that cannot be written raises ParameterError.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != 2:
        raise ParameterError(f"scatter plots need an (n, 2) embedding, got {Z.shape}")
    if not np.isfinite(Z).all():
        raise ParameterError("embedding contains non-finite coordinates")
    n = Z.shape[0]
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ParameterError(f"labels must have shape ({n},), got {labels.shape}")

    to_canvas = _projector(Z)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_SIZE}" height="{CANVAS_SIZE}" '
        f'viewBox="0 0 {CANVAS_SIZE} {CANVAS_SIZE}">',
        f'<rect width="{CANVAS_SIZE}" height="{CANVAS_SIZE}" fill="#ffffff"/>',
    ]
    for i in range(n):
        x, y = to_canvas(Z[i])
        color = PALETTE[int(labels[i]) % len(PALETTE)] if labels is not None else PALETTE[1]
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(POINT_RADIUS)}" '
            f'fill="{color}" fill-opacity="0.8"/>')
    if labels is not None:
        codes = sorted(set(int(c) for c in labels))
        lines.append('<g font-family="sans-serif" font-size="12">')
        x_text = CANVAS_SIZE - MARGIN - 100
        for slot, code in enumerate(codes):
            y_row = MARGIN + 16 * slot
            name = label_names[code] if label_names is not None else str(code)
            color = PALETTE[code % len(PALETTE)]
            lines.append(
                f'<circle cx="{x_text - 10}" cy="{y_row - 4}" r="4" fill="{color}"/>'
                f'<text x="{x_text}" y="{y_row}">{_escape(name)}</text>')
        lines.append('</g>')
    lines.append('</svg>')
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from None


def _escape(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
