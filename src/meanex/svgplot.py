"""Dependency-free SVG rendering of mean-excess curves and bands.

The output is deterministic text: fixed %.2f pixel coordinates, %.6g
tick labels, LF line endings, a fixed color cycle. Undefined points
(NaN or infinite) split a polyline into separate segments: the first
point after a dropped one starts a new ``M`` subpath. They are dropped
from band envelopes.

Paths are written a block of points at a time: the data-to-pixel
transform runs once per block, with the same float operations per
element as on one scalar, and each block is formatted by one ``%`` over
the interleaved pixel columns (see ``_segments``). A vertex that repeats
the one before it at 0.01 px is written once: an ``L`` to the same
written point draws nothing under the default butt caps and adds no
area to a fill. Every ``M`` (the start of a path, or the first point
after an undefined one) and a band's closing ``Z`` are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape

import numpy as np

from .errors import InputError
from .serialize import _BLOCK

__all__ = ["PlotSpec", "line_series", "band_series", "svg_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


@dataclass(frozen=True)
class PlotSpec:
    width: int = 900
    height: int = 600
    title: str = ""
    xlabel: str = "u"
    ylabel: str = "e(u)"


def line_series(label: str, x, y):
    return ("line", str(label), np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def band_series(label: str, x, lower, upper, center=None):
    x = np.asarray(x, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    c = None if center is None else np.asarray(center, dtype=float)
    return ("band", str(label), x, lo, hi, c)


def _escape(s: str) -> str:
    """s with &, < and > escaped for XML text."""
    return escape(s, quote=False)


def _px(v: float) -> str:
    return "%.2f" % v


def _hundredths(v):
    """k = rint(100 v) as int64 bits, and where it is exact.

    For finite |v| < 1e7, 100 v is within 1e-7 of its exact value, so
    wherever it is more than 1e-6 from a rounding tie, k is the count of
    hundredths ``"%.2f" % v`` writes, and its sign bit is the sign that
    text carries ("-0.00" from below zero). Two exact points write the
    same text exactly when their k bits are equal."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = 100.0 * v
        k = np.rint(s)
        exact = (np.abs(s - k) < 0.5 - 1e-6) & (np.abs(v) < 1e7)
    return k.view(np.int64), exact


def _repeats(sx, sy):
    """repeat[i]: point i + 1 writes the same "%.2f,%.2f" text as point i.

    Decided from the hundredths keys, before any point is formatted; only
    the pairs with a point that has no exact key (near a tie, beyond 1e7
    px or not finite) are formatted and compared as text."""
    kx, ex = _hundredths(sx)
    ky, ey = _hundredths(sy)
    repeat = (kx[1:] == kx[:-1]) & (ky[1:] == ky[:-1])
    exact = ex & ey
    odd = np.flatnonzero(~(exact[1:] & exact[:-1]))
    if odd.size:
        def text(i):
            return "%.2f,%.2f" % (sx[i], sy[i])

        repeat[odd] = [text(i) == text(i + 1) for i in odd.tolist()]
    return repeat


def _segments(x, y, to_px):
    """Polyline path data, restarting at every undefined point.

    The points are taken ``_BLOCK`` at a time. In each block an ``L``
    point whose written pair equals the one before it is dropped before
    formatting (``_repeats``); the last point of the block before, when
    it is defined, is carried in as the first point's predecessor. One
    ``%`` writes the rest of the block: the template ``"L%.2f,%.2f " * n``
    has its command letter at byte 11 i for the i-th written point, and
    the letter of each point that follows a dropped undefined one (or
    starts the path) is set to ``M``. It is applied to the interleaved
    pixel coordinates, and the trailing space of the path is cut."""
    parts = []
    tail_x = tail_y = np.empty(0)  # the point before the block, when it is defined
    for i in range(0, x.size, _BLOCK):
        xb, yb = x[i:i + _BLOCK], y[i:i + _BLOCK]
        ok = np.isfinite(xb) & np.isfinite(yb)
        start = np.concatenate(([tail_x.size == 0], ~ok))[:-1][ok]
        sx, sy = to_px(xb[ok], yb[ok])
        if tail_x.size == 0:
            tail_x, tail_y = sx[:1], sy[:1]  # the first point starts a subpath: any predecessor will do
        keep = start | ~_repeats(np.concatenate((tail_x, sx)), np.concatenate((tail_y, sy)))
        tail_x, tail_y = (sx[-1:], sy[-1:]) if ok[-1] else (sx[:0], sy[:0])
        sx, sy, start = sx[keep], sy[keep], start[keep]
        template = bytearray(b"L%.2f,%.2f " * sx.size)
        np.frombuffer(template, dtype=np.uint8)[11 * np.flatnonzero(start)] = ord("M")
        parts.append(template.decode("ascii") % tuple(np.column_stack((sx, sy)).ravel().tolist()))
    return "".join(parts)[:-1]


def _data_range(series):
    xs, ys = [], []
    for s in series:
        if s[0] == "line":
            _, _, x, y = s
            xs.append(x)
            ys.append(y)
        else:
            _, _, x, lo, hi, c = s
            xs.append(x)
            ys.extend([lo, hi] if c is None else [lo, hi, c])
    x = np.concatenate(xs) if xs else np.array([])
    y = np.concatenate(ys) if ys else np.array([])
    x = x[np.isfinite(x)]
    y = y[np.isfinite(y)]
    if x.size == 0 or y.size == 0:
        raise InputError("no finite data to plot")

    def widen(lo, hi):
        if hi > lo:
            pad = 0.05 * (hi - lo)
            return lo - pad, hi + pad
        pad = max(0.5, abs(lo) * 0.05)
        return lo - pad, hi + pad

    return widen(float(x.min()), float(x.max())), widen(float(y.min()), float(y.max()))


def svg_plot(series, spec: PlotSpec = PlotSpec()) -> str:
    """Render line and band series to a standalone SVG document."""
    if not series:
        raise InputError("no finite data to plot")
    (x0, x1), (y0, y1) = _data_range(series)
    w, h = int(spec.width), int(spec.height)
    scale = max(w / 900.0, 0.5)
    ml, mr = 70.0 * scale, 20.0 * scale
    mt = (46.0 if spec.title else 24.0) * scale
    mb = 52.0 * scale
    font = 13.0 * scale
    stroke = 1.5 * scale

    def to_px(x, y):
        sx = ml + (x - x0) / (x1 - x0) * (w - ml - mr)
        sy = h - mb - (y - y0) / (y1 - y0) * (h - mt - mb)
        return sx, sy

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>',
    ]
    # axes frame
    fx0, fy1 = to_px(x0, y0)
    fx1, fy0 = to_px(x1, y1)
    out.append(
        f'<rect x="{_px(fx0)}" y="{_px(fy0)}" width="{_px(fx1 - fx0)}" '
        f'height="{_px(fy1 - fy0)}" fill="none" stroke="#444444" '
        f'stroke-width="{_px(stroke * 0.67)}"/>'
    )
    # ticks and labels
    for tx in np.linspace(x0, x1, 5):
        sx, _ = to_px(tx, y0)
        out.append(
            f'<line x1="{_px(sx)}" y1="{_px(fy1)}" x2="{_px(sx)}" y2="{_px(fy1 + 5 * scale)}" '
            f'stroke="#444444" stroke-width="{_px(stroke * 0.67)}"/>'
        )
        out.append(
            f'<text x="{_px(sx)}" y="{_px(fy1 + 18 * scale)}" font-size="{_px(font)}" '
            f'text-anchor="middle" font-family="sans-serif">{_escape("%.6g" % tx)}</text>'
        )
    for ty in np.linspace(y0, y1, 5):
        _, sy = to_px(x0, ty)
        out.append(
            f'<line x1="{_px(fx0 - 5 * scale)}" y1="{_px(sy)}" x2="{_px(fx0)}" y2="{_px(sy)}" '
            f'stroke="#444444" stroke-width="{_px(stroke * 0.67)}"/>'
        )
        out.append(
            f'<text x="{_px(fx0 - 8 * scale)}" y="{_px(sy + 0.35 * font)}" font-size="{_px(font)}" '
            f'text-anchor="end" font-family="sans-serif">{_escape("%.6g" % ty)}</text>'
        )
    # axis titles
    out.append(
        f'<text x="{_px((fx0 + fx1) / 2)}" y="{_px(h - 14 * scale)}" font-size="{_px(font)}" '
        f'text-anchor="middle" font-family="sans-serif">{_escape(spec.xlabel)}</text>'
    )
    out.append(
        f'<text x="{_px(16 * scale)}" y="{_px((fy0 + fy1) / 2)}" font-size="{_px(font)}" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 {_px(16 * scale)} {_px((fy0 + fy1) / 2)})">'
        f"{_escape(spec.ylabel)}</text>"
    )
    if spec.title:
        out.append(
            f'<text x="{_px(w / 2)}" y="{_px(24 * scale)}" font-size="{_px(font * 1.25)}" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(spec.title)}</text>'
        )
    # series
    legend = []
    color_i = 0
    for s in series:
        color = _PALETTE[color_i % len(_PALETTE)]
        color_i += 1
        if s[0] == "line":
            _, label, x, y = s
            d = _segments(x, y, to_px)
            if d:
                out.append(
                    f'<path d="{d}" fill="none" stroke="{color}" '
                    f'stroke-width="{_px(stroke)}"/>'
                )
            legend.append((label, color))
        else:
            _, label, x, lo, hi, c = s
            ok = np.isfinite(x) & np.isfinite(lo) & np.isfinite(hi)
            if np.any(ok):
                xs, los, his = x[ok], lo[ok], hi[ok]
                d = _segments(np.concatenate([xs, xs[::-1]]), np.concatenate([his, los[::-1]]), to_px) + " Z"
                out.append(f'<path d="{d}" fill="{color}" fill-opacity="0.18" stroke="none"/>')
            if c is not None:
                d = _segments(x, c, to_px)
                if d:
                    out.append(
                        f'<path d="{d}" fill="none" stroke="{color}" '
                        f'stroke-width="{_px(stroke)}"/>'
                    )
            legend.append((label, color))
    # legend block, top right inside the frame
    ly = fy0 + 16 * scale
    for label, color in legend:
        lx = fx1 - 150 * scale
        out.append(
            f'<line x1="{_px(lx)}" y1="{_px(ly - 0.3 * font)}" x2="{_px(lx + 22 * scale)}" '
            f'y2="{_px(ly - 0.3 * font)}" stroke="{color}" stroke-width="{_px(stroke)}"/>'
        )
        out.append(
            f'<text x="{_px(lx + 28 * scale)}" y="{_px(ly)}" font-size="{_px(font)}" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )
        ly += 1.5 * font
    out.append("</svg>")
    return "\n".join(out) + "\n"
