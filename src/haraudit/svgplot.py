"""Hand-rolled SVG emitters for the audit's three figure types.

Plots are derived views; every figure's underlying data is exported as
CSV/JSON elsewhere. Coordinates are formatted with fixed precision so
identical inputs yield byte-identical documents.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

CHANNEL_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#9467bd", "#8c564b", "#17becf")
FLAG_COLORS = {False: "#b8e0b8", True: "#f2b8b8"}  # correct green, flagged red
CLASS_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _f(v: float) -> str:
    return f"{v:.2f}"


def _document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def condensed_view_svg(window_means: np.ndarray, flags: Sequence[bool]) -> str:
    """Window-averaged channel traces over a red/green correctness underlay.

    ``window_means`` is [num_windows, num_channels]: one point per window,
    the mean channel value over that window's samples. Flagged windows get a
    red background band, the rest green.
    """
    width, height = 1200, 300
    means = np.atleast_2d(np.asarray(window_means, dtype=float))
    flags = np.asarray(flags, dtype=bool)
    n, n_channels = means.shape
    if flags.size != n:
        raise ValueError("flags must align with window_means rows")
    if n == 0:
        return _document(width, height, ["<!-- no windows -->"])
    margin = 30
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    band_w = plot_w / n
    lo, hi = float(means.min()), float(means.max())
    span = (hi - lo) or 1.0

    def x(i: int) -> float:
        return margin + (i + 0.5) * band_w

    def y(v: float) -> float:
        return margin + plot_h * (1.0 - (v - lo) / span)

    body = []
    for i, flagged in enumerate(flags):
        body.append(
            f'<rect x="{_f(margin + i * band_w)}" y="{margin}" '
            f'width="{_f(band_w)}" height="{plot_h}" '
            f'fill="{FLAG_COLORS[bool(flagged)]}"/>'
        )
    for c in range(n_channels):
        points = " ".join(f"{_f(x(i))},{_f(y(means[i, c]))}" for i in range(n))
        color = CHANNEL_COLORS[c % len(CHANNEL_COLORS)]
        body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
            f'points="{points}"/>'
        )
    return _document(width, height, body)


def histogram_svg(bins: Sequence[tuple[int, int, int]]) -> str:
    """Bar chart of run-length bins; bar height scales with log2(count + 1)
    to keep the long tail readable."""
    width, height = 600, 400
    body = []
    margin = 40
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    if bins:
        n = len(bins)
        bar_w = plot_w / n
        max_h = max(np.log2(count + 1) for _, _, count in bins) or 1.0
        for i, (lower, upper, count) in enumerate(bins):
            h = plot_h * float(np.log2(count + 1)) / float(max_h)
            x0 = margin + i * bar_w
            body.append(
                f'<rect x="{_f(x0 + 2)}" y="{_f(margin + plot_h - h)}" '
                f'width="{_f(bar_w - 4)}" height="{_f(h)}" fill="#4c72b0"/>'
            )
            label = f"{lower}" if lower == upper else f"{lower}-{upper}"
            body.append(
                f'<text x="{_f(x0 + bar_w / 2)}" y="{height - margin + 14}" '
                f'font-size="10" text-anchor="middle">{label}</text>'
            )
            body.append(
                f'<text x="{_f(x0 + bar_w / 2)}" y="{_f(margin + plot_h - h - 4)}" '
                f'font-size="10" text-anchor="middle">{count}</text>'
            )
    body.append(
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#333333" stroke-width="1"/>'
    )
    return _document(width, height, body)


def chord_svg(edges: Sequence[tuple[int, int, int]], class_names: Sequence[str]) -> str:
    """Circular confusion-flow layout: classes on a circle, one curved ribbon
    per (true -> confused) pair, stroke width proportional to its weight and
    colored by the true class."""
    size = 500
    n = len(class_names)
    if n == 0:
        return _document(size, size, ["<!-- no classes -->"])
    center = size / 2.0
    radius = size / 2.0 - 60
    angles = [2.0 * np.pi * i / n - np.pi / 2.0 for i in range(n)]
    points = [
        (center + radius * np.cos(a), center + radius * np.sin(a)) for a in angles
    ]
    body = []
    max_weight = max((w for _, _, w in edges), default=1)
    for true_class, confused_class, weight in edges:
        x1, y1 = points[true_class % n]
        x2, y2 = points[confused_class % n]
        stroke = 1.0 + 9.0 * weight / max_weight
        color = CLASS_PALETTE[true_class % len(CLASS_PALETTE)]
        body.append(
            f'<path d="M {_f(x1)} {_f(y1)} Q {_f(center)} {_f(center)} '
            f'{_f(x2)} {_f(y2)}" fill="none" stroke="{color}" '
            f'stroke-width="{_f(stroke)}" stroke-opacity="0.7"/>'
        )
    for i, (x, y) in enumerate(points):
        color = CLASS_PALETTE[i % len(CLASS_PALETTE)]
        body.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="6" fill="{color}"/>')
        lx = center + (radius + 24) * np.cos(angles[i])
        ly = center + (radius + 24) * np.sin(angles[i])
        body.append(
            f'<text x="{_f(lx)}" y="{_f(ly)}" font-size="11" '
            f'text-anchor="middle">{class_names[i]}</text>'
        )
    return _document(size, size, body)
