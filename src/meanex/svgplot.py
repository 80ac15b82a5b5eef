"""Dependency-free SVG rendering of mean-excess curves and bands.

The output is deterministic text: fixed %.2f pixel coordinates, %.6g
tick labels, LF line endings, a fixed color cycle. Undefined points
(NaN or infinite) split a polyline into separate segments: the first
point after a dropped one starts a new ``M`` subpath. A band envelope
drops every point where x, the lower or the upper bound is undefined,
and is one subpath: the upper edge left to right, then the lower edge
right to left, then ``Z``.

The plot range is reduced from each series array in place, a finite
min and max per array, so no data array is copied. A range whose
padded span is past the double range raises ``NumericError``.

Paths are written a block of points at a time: the data-to-pixel
transform runs once per block, with the same float operations per
element as on one scalar, and each block is written by the decimal-text
kernel of ``serialize`` from the interleaved pixel columns (see
``_segments``): a coordinate's count of hundredths, certified by
``_hundredths``, gives the digits of its "%.2f" text, and a coordinate
near a rounding tie, or 1e7 px or more from 0, is written by Python's
``%`` with that template. A path may be walked
from several pieces, as the envelope is from its upper edge and the
reversed views of its lower one, without joining them into one array.
A vertex that repeats the one before it at 0.01 px is written once: an
``L`` to the same written point draws nothing under the default butt
caps and adds no area to a fill. Every ``M`` (the start of a path, or
the first point after an undefined one) and a band's closing ``Z`` are
kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape

import numpy as np

from .errors import InputError, NumericError
from .serialize import _BLOCK, _COMMA, _F2, _L, _M, _decimal_text, _f2_words, _hundredths

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


def _px(v: float) -> str:
    return "%.2f" % v


def _text(x, y, size, anchor, rotate, s):
    """A <text> element of s, escaped, at (x, y) px, with a text-anchor
    unless anchor is None; rotated a quarter turn back about (x, y) when
    rotate is set."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    rotate = f' transform="rotate(-90 {_px(x)} {_px(y)})"' if rotate else ""
    return (f'<text x="{_px(x)}" y="{_px(y)}" font-size="{_px(size)}"{anchor} '
            f'font-family="sans-serif"{rotate}>{escape(s, quote=False)}</text>')


def _line(x1, y1, x2, y2, color, width):
    """A <line> element from (x1, y1) to (x2, y2) px."""
    return (f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            f'stroke="{color}" stroke-width="{_px(width)}"/>')


def _repeats(v, k, exact):
    """repeat[i]: point i + 1 writes the same "%.2f,%.2f" text as point i,
    for the (P, 2) pixel points v and the hundredths keys k of their
    coordinates and where the keys are exact (``_hundredths``).

    Decided from the keys, before any point is formatted; only the
    pairs with a point that has no exact key (near a tie, beyond 1e7 px
    or not finite) are formatted and compared as text."""
    same = k[1:] == k[:-1]
    repeat = same[:, 0] & same[:, 1]
    exact = exact[:, 0] & exact[:, 1]
    odd = np.flatnonzero(~(exact[1:] & exact[:-1]))
    if odd.size:
        def text(i):
            return "%.2f,%.2f" % (v[i, 0], v[i, 1])

        repeat[odd] = [text(i) == text(i + 1) for i in odd.tolist()]
    return repeat


def _segments(x, y, to_px, *pieces):
    """Polyline path data, restarting at every undefined point.

    The path walks (x, y) and then each further (x, y) piece in order,
    as one polyline: a piece's first point continues from the last point
    before it, as a block's does. The points of each piece are taken
    ``_BLOCK`` at a time. Each block's pixel coordinates are keyed once
    by ``_hundredths``; an ``L`` point whose written pair equals the one
    before it is dropped before formatting (``_repeats``), and the keys
    of the rest give their digits. The last point before the block (in
    this piece or the one before), when it is defined, is carried in as
    the first point's predecessor. The kernel writes the rest of the
    block, each point as " L" (or " M", for a point that follows a
    dropped undefined one or starts the path) and its "%.2f,%.2f" pair,
    and the leading space of the path is cut."""
    parts = []
    tail = np.empty((0, 2))  # the point before the block, when it is defined
    for x, y in ((x, y), *pieces):
        for i in range(0, x.size, _BLOCK):
            xb, yb = x[i:i + _BLOCK], y[i:i + _BLOCK]
            ok = np.isfinite(xb) & np.isfinite(yb)
            start = np.concatenate(([tail.size == 0], ~ok))[:-1][ok]
            v = np.column_stack(to_px(xb[ok], yb[ok]))
            if tail.size == 0:
                tail = v[:1]  # the first point starts a subpath: any predecessor will do
            v = np.concatenate((tail, v))
            k, exact = _hundredths(v)
            keep = np.flatnonzero(start | ~_repeats(v, k, exact))
            tail = v[-1:] if ok[-1] else v[:0]
            v, k, exact, start = v[keep + 1], k[keep + 1], exact[keep + 1], start[keep]
            prefix = np.full((start.size, 2), _COMMA)
            prefix[:, 0] = np.where(start, _M, _L)
            parts.append(_decimal_text(*_f2_words(k.ravel(), exact.ravel()), v.ravel(), prefix.ravel(), _F2))
    return "".join(parts)[1:]


def _axis_range(arrays):
    """(min, max) over the finite values of arrays, each reduced in place."""
    lo = min((np.min(a, where=np.isfinite(a), initial=np.inf) for a in arrays), default=np.inf)
    hi = max((np.max(a, where=np.isfinite(a), initial=-np.inf) for a in arrays), default=-np.inf)
    return float(lo), float(hi)


def _data_range(series):
    """((x0, x1), (y0, y1)): the finite data range of series, padded.

    A range of more than one value is padded by 5% of its span on each
    side; one value v by max(0.5, 5% of |v|). InputError when an axis
    has no finite value; NumericError when a padded span is past the
    double range, where no point could be placed."""
    ranges = {
        "x": _axis_range([s[2] for s in series]),
        "y": _axis_range([a for s in series for a in s[3:] if a is not None]),
    }
    if any(lo > hi for lo, hi in ranges.values()):
        raise InputError("no finite data to plot")
    out = []
    for axis, (lo, hi) in ranges.items():
        pad = 0.05 * (hi - lo) if hi > lo else max(0.5, abs(lo) * 0.05)
        lo, hi = lo - pad, hi + pad
        if not np.isfinite(hi - lo):
            raise NumericError(f"plot range of {axis} overflows: padded, it spans {lo!r} to {hi!r}")
        out.append((lo, hi))
    return tuple(out)


def svg_plot(series, spec: PlotSpec = PlotSpec()) -> str:
    """Render line and band series to a standalone SVG document."""
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
    tick = stroke * 0.67
    out.append(
        f'<rect x="{_px(fx0)}" y="{_px(fy0)}" width="{_px(fx1 - fx0)}" '
        f'height="{_px(fy1 - fy0)}" fill="none" stroke="#444444" stroke-width="{_px(tick)}"/>'
    )
    # ticks and labels
    for tx in np.linspace(x0, x1, 5):
        sx, _ = to_px(tx, y0)
        out.append(_line(sx, fy1, sx, fy1 + 5 * scale, "#444444", tick))
        out.append(_text(sx, fy1 + 18 * scale, font, "middle", False, "%.6g" % tx))
    for ty in np.linspace(y0, y1, 5):
        _, sy = to_px(x0, ty)
        out.append(_line(fx0 - 5 * scale, sy, fx0, sy, "#444444", tick))
        out.append(_text(fx0 - 8 * scale, sy + 0.35 * font, font, "end", False, "%.6g" % ty))
    # axis titles
    out.append(_text((fx0 + fx1) / 2, h - 14 * scale, font, "middle", False, spec.xlabel))
    out.append(_text(16 * scale, (fy0 + fy1) / 2, font, "middle", True, spec.ylabel))
    if spec.title:
        out.append(_text(w / 2, 24 * scale, font * 1.25, "middle", False, spec.title))
    # series: a band's envelope, then the line of a line series or a band's centre
    for i, (kind, label, x, *ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if kind == "band":
            lo, hi, y = ys
            ok = np.isfinite(x) & np.isfinite(lo) & np.isfinite(hi)
            xs, lo, hi = (x, lo, hi) if ok.all() else (x[ok], lo[ok], hi[ok])
            if xs.size:
                d = _segments(xs, hi, to_px, (xs[::-1], lo[::-1])) + " Z"
                out.append(f'<path d="{d}" fill="{color}" fill-opacity="0.18" stroke="none"/>')
        else:
            (y,) = ys
        d = "" if y is None else _segments(x, y, to_px)
        if d:
            out.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="{_px(stroke)}"/>')
    # legend block, top right inside the frame
    lx, ly = fx1 - 150 * scale, fy0 + 16 * scale
    for i, s in enumerate(series):
        out.append(_line(lx, ly - 0.3 * font, lx + 22 * scale, ly - 0.3 * font, _PALETTE[i % len(_PALETTE)], stroke))
        out.append(_text(lx + 28 * scale, ly, font, None, False, s[1]))
        ly += 1.5 * font
    out.append("</svg>")
    return "\n".join(out) + "\n"
