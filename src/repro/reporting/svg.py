"""Inline-SVG renderers: span timelines and matrix heatmaps.

Standard-library only; both functions return a complete ``<svg>`` element
as a string, sized by content, safe to embed directly in an HTML document
(all labels are escaped).  The HTML report (:mod:`repro.obs.report`) is
the primary consumer: the timeline is the graphical analogue of
:func:`repro.reporting.timeline.render_timeline`, the heatmap renders
comm-volume matrices from :mod:`repro.obs.analysis`.
"""

from __future__ import annotations

import html
from typing import Sequence

from repro.errors import ConfigurationError
from repro.utils.units import format_time

#: Fill colors assigned to span names in first-seen order (cycled).
PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_LABEL_W = 110          # left gutter for track / row labels (px)
_ROW_H = 18             # timeline row height (px)
_AXIS_H = 22            # bottom axis strip (px)
_LEGEND_H = 16          # per-legend-row height (px)


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text and ``<title>`` content."""
    return html.escape(text, quote=False)


def _color_for(name: str, seen: dict[str, str]) -> str:
    if name not in seen:
        seen[name] = PALETTE[len(seen) % len(PALETTE)]
    return seen[name]


def svg_timeline(
    tracks: Sequence[tuple[str, Sequence[tuple[float, float, str]]]],
    width: int = 960,
    title: str = "",
) -> str:
    """A Gantt-style timeline: one row per track, one rect per interval.

    ``tracks`` is ``[(label, [(start, end, name), ...]), ...]``; rows render
    top to bottom in the given order, intervals are colored by name
    (first-seen palette order) with a legend below the axis.  Times are
    seconds (formatted with engineering units on the axis).
    """
    if width < 200:
        raise ConfigurationError(f"timeline width must be >= 200, got {width}")
    points = [t for _label, ivs in tracks for iv in ivs for t in iv[:2]]
    t0 = min(points) if points else 0.0
    t1 = max(points) if points else 1.0
    span = (t1 - t0) or 1.0
    plot_w = width - _LABEL_W - 10
    colors: dict[str, str] = {}
    body: list[str] = []
    for row, (label, intervals) in enumerate(tracks):
        y = row * _ROW_H
        body.append(
            f'<text x="{_LABEL_W - 6}" y="{y + _ROW_H - 5}" '
            f'text-anchor="end" class="lbl">{_escape(str(label))}</text>'
        )
        body.append(
            f'<line x1="{_LABEL_W}" y1="{y + _ROW_H - 0.5}" '
            f'x2="{width - 10}" y2="{y + _ROW_H - 0.5}" class="grid"/>'
        )
        for start, end, name in intervals:
            x = _LABEL_W + (start - t0) / span * plot_w
            w = max((end - start) / span * plot_w, 0.5)
            fill = _color_for(name, colors)
            tip = (f"{name}: {format_time(end - start)} "
                   f"[{format_time(start - t0)} .. {format_time(end - t0)}]")
            body.append(
                f'<rect x="{x:.2f}" y="{y + 2}" width="{w:.2f}" '
                f'height="{_ROW_H - 5}" fill="{fill}">'
                f"<title>{_escape(tip)}</title></rect>"
            )
    rows_h = len(tracks) * _ROW_H
    axis_y = rows_h + 14
    body.append(
        f'<text x="{_LABEL_W}" y="{axis_y}" class="lbl">'
        f"{_escape(format_time(0.0))}</text>"
    )
    body.append(
        f'<text x="{width - 10}" y="{axis_y}" text-anchor="end" class="lbl">'
        f"{_escape(format_time(span))}</text>"
    )
    legend_y = rows_h + _AXIS_H
    for i, (name, fill) in enumerate(colors.items()):
        y = legend_y + i * _LEGEND_H
        body.append(f'<rect x="{_LABEL_W}" y="{y}" width="10" height="10" '
                    f'fill="{fill}"/>')
        body.append(f'<text x="{_LABEL_W + 16}" y="{y + 9}" class="lbl">'
                    f"{_escape(name)}</text>")
    height = legend_y + len(colors) * _LEGEND_H + 6
    head = ""
    if title:
        head = (f'<text x="{_LABEL_W}" y="-6" class="ttl">'
                f"{_escape(title)}</text>")
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + (20 if title else 0)}" '
        f'viewBox="0 {-20 if title else 0} {width} '
        f'{height + (20 if title else 0)}">'
        "<style>.lbl{font:11px monospace;fill:#333}"
        ".ttl{font:bold 12px monospace;fill:#111}"
        ".grid{stroke:#eee;stroke-width:1}</style>"
        f"{head}{''.join(body)}</svg>"
    )


def svg_heatmap(
    values: Sequence[Sequence[float]],
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    title: str = "",
    cell: int = 26,
) -> str:
    """A labelled matrix heatmap (white → deep blue, scaled to the max).

    ``values[i][j]`` colors the cell at row ``i``, column ``j``; every cell
    carries a hover tooltip with its exact value.
    """
    if len(values) != len(row_labels):
        raise ConfigurationError(
            f"{len(values)} rows but {len(row_labels)} row labels"
        )
    for row in values:
        if len(row) != len(col_labels):
            raise ConfigurationError(
                f"row width {len(row)} != {len(col_labels)} column labels"
            )
    vmax = max((v for row in values for v in row), default=0.0)
    left, top = 70, 34 if title else 18
    body: list[str] = []
    if title:
        body.append(f'<text x="0" y="12" class="ttl">{_escape(title)}</text>')
    for j, lab in enumerate(col_labels):
        body.append(
            f'<text x="{left + j * cell + cell / 2:.1f}" y="{top - 4}" '
            f'text-anchor="middle" class="lbl">{_escape(str(lab))}</text>'
        )
    for i, (lab, row) in enumerate(zip(row_labels, values)):
        y = top + i * cell
        body.append(
            f'<text x="{left - 6}" y="{y + cell / 2 + 4:.1f}" '
            f'text-anchor="end" class="lbl">{_escape(str(lab))}</text>'
        )
        for j, v in enumerate(row):
            frac = (v / vmax) if vmax > 0 else 0.0
            # white (255,255,255) -> deep blue (32,74,135)
            r = round(255 - frac * (255 - 32))
            g = round(255 - frac * (255 - 74))
            b = round(255 - frac * (255 - 135))
            body.append(
                f'<rect x="{left + j * cell}" y="{y}" width="{cell - 1}" '
                f'height="{cell - 1}" fill="rgb({r},{g},{b})" '
                f'stroke="#ddd" stroke-width="0.5">'
                f"<title>{_escape(f'{row_labels[i]} -> {col_labels[j]}: {v:g}')}"
                "</title></rect>"
            )
    width = left + len(col_labels) * cell + 10
    height = top + len(row_labels) * cell + 8
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        "<style>.lbl{font:11px monospace;fill:#333}"
        ".ttl{font:bold 12px monospace;fill:#111}</style>"
        f"{''.join(body)}</svg>"
    )


__all__ = ["PALETTE", "svg_timeline", "svg_heatmap"]
