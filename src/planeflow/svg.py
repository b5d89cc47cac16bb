"""Deterministic static SVG rendering of phase portraits.

The scene model is deliberately dumb: a square window in the plane,
layered polylines with a style class, point markers and legend lines.
Rendering is byte-stable for identical scenes: fixed 6-significant-
digit formatting, no timestamps, elements emitted in the order given.
Segments are clipped to the window (Liang-Barsky), splitting polylines
where they leave it; no number written is infinite or NaN.
"""

from __future__ import annotations

import math

__all__ = ["render_svg"]

_SIZE = 640  # pixel width/height of the square viewport

_STYLES = """\
  polyline { fill: none; stroke-width: 1.2; }
  .trajectory { stroke: #1f77b4; }
  .blowup { stroke: #d62728; stroke-width: 1.6; }
  .level { stroke: #2ca02c; }
  .segment { stroke: #9467bd; stroke-width: 1.8; }
  .axis { stroke: #999999; stroke-width: 0.8; }
  .marker-zero { fill: none; stroke: #d62728; stroke-width: 1.2; }
  .marker-seed { fill: #111111; }
  text { font-family: monospace; font-size: 11px; fill: #333333; }
"""


def _scale(half_width: float) -> float:
    """Pixels per plane unit of a window with this half-width; a ValueError
    unless that is finite and positive."""
    scale = _SIZE / (2.0 * half_width) if half_width > 0 else 0.0
    if not 0.0 < scale < math.inf:
        raise ValueError(f"plot window half-width {half_width!r} gives no finite positive pixel scale")
    return scale


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _clip_segment(x0, y0, x1, y1, lo, hi):
    """Liang-Barsky clip of one segment to [lo,hi]^2; None when outside."""
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x0 - lo),
        (dx, hi - x0),
        (-dy, y0 - lo),
        (dy, hi - y0),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            if r > t0:
                t0 = r
        else:
            if r < t0:
                return None
            if r < t1:
                t1 = r
    return (x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy)


def render_svg(center: complex, half_width: float, polylines, markers, legend) -> str:
    """Render the scene to a standalone SVG document (a str of bytes-stable text).

    The window is the square of this center and half-width; ``polylines``
    are (points, css class) pairs, ``markers`` (z, kind) pairs with kind
    "zero" or "seed", and ``legend`` lines of text, each drawn in order.
    A ValueError when the window has no finite positive pixel scale.
    """
    cx, cy = center.real, center.imag
    hw = half_width
    scale = _scale(hw)
    lo, hi = 0.0, float(_SIZE)

    def to_px(x: float, y: float):
        # SVG's y axis points down
        return (x - cx + hw) * scale, (cy + hw - y) * scale

    def clip(a: complex, b: complex):
        seg = (*to_px(a.real, a.imag), *to_px(b.real, b.imag))
        if not _finite(seg):
            # a pixel end overflowed: clip in the plane first
            ends = _clip_segment(a.real - cx, a.imag - cy, b.real - cx, b.imag - cy, -hw, hw)
            if ends is None:
                return None
            u0, v0, u1, v1 = ends
            seg = ((u0 + hw) * scale, (hw - v0) * scale, (u1 + hw) * scale, (hw - v1) * scale)
        clipped = _clip_segment(*seg, lo, hi)
        # an end left non-finite by an overflowing clip drops the segment
        return clipped if clipped is None or _finite(clipped) else None

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f"<style>\n{_STYLES}</style>",
        f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
    ]

    # axes through the origin, when visible
    if abs(cx) <= hw:
        px, _ = to_px(0.0, 0.0)
        parts.append(
            f'<polyline class="axis" points="{_fmt(px)},0 {_fmt(px)},{_SIZE}"/>'
        )
    if abs(cy) <= hw:
        _, py = to_px(0.0, 0.0)
        parts.append(
            f'<polyline class="axis" points="0,{_fmt(py)} {_SIZE},{_fmt(py)}"/>'
        )

    for points, css in polylines:
        runs = []
        prev = None
        for a, b in zip(points, points[1:]):
            clipped = clip(a, b)
            if clipped is None:
                prev = None
                continue
            x0, y0, x1, y1 = clipped
            if (x0, y0) != prev:
                runs.append([(x0, y0)])
            runs[-1].append((x1, y1))
            prev = (x1, y1)
        for pts in runs:
            coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            parts.append(f'<polyline class="{css}" points="{coords}"/>')

    for z, kind in markers:
        px, py = to_px(z.real, z.imag)
        if abs(z.real - cx) <= hw and abs(z.imag - cy) <= hw and _finite((px, py)):
            css, r = ("marker-zero", 4) if kind == "zero" else ("marker-seed", 3)
            parts.append(f'<circle class="{css}" cx="{_fmt(px)}" cy="{_fmt(py)}" r="{r}"/>')

    for i, text in enumerate(legend):
        parts.append(f'<text x="8" y="{14 + 14 * i}">{_escape(text)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
