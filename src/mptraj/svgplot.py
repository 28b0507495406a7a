"""Minimal SVG line plots (polyline + optional band), no plotting dependency.

Good enough to eyeball a trajectory or a mean with its 2-sigma tube; axes get
min/max labels only.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError, take_floats
from .fileio import atomic_write_text

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 380
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 56, 16, 34, 40


def _points(xs, ys) -> str:
    """'x,y x,y ...' to two decimals, one format operation over all points."""
    pairs = np.column_stack([xs, ys])
    return " ".join(["%.2f,%.2f"] * pairs.shape[0]) % tuple(pairs.ravel().tolist())


def line_plot(path: str, times, values, labels, bands=None, title: str = "") -> None:
    """Write an SVG with one polyline per row of values (K, T), labelled by
    the K labels; bands, an optional (lower, upper) pair of (K, T) arrays,
    are drawn as translucent fills."""
    times = take_floats("times", times, 1)
    values = take_floats("values", values, 2)
    labels = [str(label) for label in labels]
    if not labels:
        raise ValidationError("plot needs at least one curve")
    if values.shape != (len(labels),) + times.shape:
        raise DimensionError(f"curve array {values.shape} for {len(labels)} labels "
                             f"does not match times {times.shape}")
    y_values = values.ravel()
    if bands is not None:
        bands = take_floats("bands", bands, 3)
        if bands.shape != (2,) + values.shape:
            raise DimensionError(f"bands {bands.shape} do not match curves {values.shape}")
        # curves, then each lower and upper row: a 0.0/-0.0 tie goes by position
        y_values = np.concatenate([y_values, bands.transpose(1, 0, 2).ravel()])

    x_low, x_high = float(times.min()), float(times.max())
    y_low, y_high = float(y_values.min()), float(y_values.max())
    if x_high <= x_low:
        x_high = x_low + 1.0
    pad = max(1.0, abs(y_low)) * 0.5 if y_high <= y_low else 0.05 * (y_high - y_low)
    y_low, y_high = y_low - pad, y_high + pad
    xs = _MARGIN_L + (_WIDTH - _MARGIN_L - _MARGIN_R) * (times - x_low) / (x_high - x_low)

    def y_of(data):
        return (_HEIGHT - _MARGIN_B
                - (_HEIGHT - _MARGIN_T - _MARGIN_B) * (data - y_low) / (y_high - y_low))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')

    if bands is not None:
        for i, (low, high) in enumerate(zip(*y_of(bands))):
            # out along the upper edge, back along the lower one
            ring = _points(np.concatenate([xs, xs[::-1]]), np.concatenate([high, low[::-1]]))
            color = _PALETTE[i % len(_PALETTE)]
            parts.append(f'<polygon points="{ring}" fill="{color}" fill-opacity="0.22" '
                         f'stroke="none"/>')

    axis_y = y_of(y_low)
    parts.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
                 f'y2="{axis_y:.2f}" stroke="#444" stroke-width="1"/>')
    parts.append(f'<line x1="{_MARGIN_L}" y1="{axis_y:.2f}" x2="{_WIDTH - _MARGIN_R}" '
                 f'y2="{axis_y:.2f}" stroke="#444" stroke-width="1"/>')
    label_style = 'font-family="sans-serif" font-size="11" fill="#444"'
    parts.append(f'<text x="{_MARGIN_L}" y="{_HEIGHT - 12}" {label_style}>'
                 f'{x_low:.3g}</text>')
    parts.append(f'<text x="{_WIDTH - _MARGIN_R}" y="{_HEIGHT - 12}" '
                 f'text-anchor="end" {label_style}>{x_high:.3g}</text>')
    parts.append(f'<text x="{_MARGIN_L - 6}" y="{axis_y:.2f}" text-anchor="end" '
                 f'{label_style}>{y_low:.3g}</text>')
    parts.append(f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + 4}" text-anchor="end" '
                 f'{label_style}>{y_high:.3g}</text>')

    for i, (label, ys) in enumerate(zip(labels, y_of(values))):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline points="{_points(xs, ys)}" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        legend_y = _MARGIN_T + 14 * i
        parts.append(f'<line x1="{_WIDTH - _MARGIN_R - 90}" y1="{legend_y}" '
                     f'x2="{_WIDTH - _MARGIN_R - 70}" y2="{legend_y}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN_R - 64}" y="{legend_y + 4}" '
                     f'{label_style}>{label}</text>')

    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
