"""Static SVG heatmaps for population snapshots and fringe grids.

Pure-text rendering with fixed float formatting, so identical inputs produce
byte-identical documents.
"""
from __future__ import annotations

import re

import numpy as np

__all__ = ["render_heatmap"]

# Compact perceptual-ish ramp, dark blue -> teal -> yellow.
_RAMP = (
    (0.0, (68, 1, 84)),
    (0.25, (59, 82, 139)),
    (0.5, (33, 145, 140)),
    (0.75, (94, 201, 98)),
    (1.0, (253, 231, 37)),
)


# characters XML 1.0 does not allow in a document, escaped or not
_NOT_XML = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _text(value) -> str:
    """A value as XML character data: `&`, `<` and `>` escaped, and each character
    XML does not allow replaced by U+FFFD."""
    text = str(value).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _NOT_XML.sub("\ufffd", text)


def _color(x: float) -> str:
    x = min(max(x, 0.0), 1.0)
    for (x0, c0), (x1, c1) in zip(_RAMP, _RAMP[1:]):
        if x <= x1:
            f = 0.0 if x1 == x0 else (x - x0) / (x1 - x0)
            rgb = tuple(round(a + f * (b - a)) for a, b in zip(c0, c1))
            return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"
    return "#fde725"


def render_heatmap(
    matrix,
    vmin: float | None = None,
    vmax: float | None = None,
    title: str = "",
    row_labels=None,
    col_labels=None,
    mask=None,
    cell: int = 24,
) -> str:
    """Render a matrix as an SVG heatmap; masked cells are left as gaps."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("heatmap needs a nonempty 2D matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("heatmap matrix contains non-finite entries")
    mask = np.zeros(m.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != m.shape:
        raise ValueError("mask shape must match the matrix")
    visible = m[~mask]
    lo = float(vmin) if vmin is not None else (float(visible.min()) if visible.size else 0.0)
    hi = float(vmax) if vmax is not None else (float(visible.max()) if visible.size else 1.0)
    span = hi - lo if hi > lo else 1.0

    rows, cols = m.shape
    margin_left = 60 if row_labels is not None else 10
    margin_top = 34 if title else 10
    margin_bottom = 28 if col_labels is not None else 10
    width = margin_left + cols * cell + 10
    height = margin_top + rows * cell + margin_bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{margin_left}" y="20" font-family="monospace" font-size="13" fill="#000000">{_text(title)}</text>'
        )
    for i in range(rows):
        for j in range(cols):
            if mask[i, j]:
                continue
            x = margin_left + j * cell
            y = margin_top + i * cell
            color = _color((m[i, j] - lo) / span)
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{color}"/>')
    if row_labels is not None:
        for i, lab in enumerate(row_labels):
            y = margin_top + i * cell + cell // 2 + 4
            parts.append(
                f'<text x="4" y="{y}" font-family="monospace" font-size="10" fill="#000000">{_text(lab)}</text>'
            )
    if col_labels is not None:
        y = margin_top + rows * cell + 14
        for j, lab in enumerate(col_labels):
            x = margin_left + j * cell
            parts.append(
                f'<text x="{x}" y="{y}" font-family="monospace" font-size="10" fill="#000000">{_text(lab)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
