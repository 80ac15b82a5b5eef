"""Byte contracts of the CSV and SVG writers.

The column-at-a-time writers in ``serialize`` must give the same bytes
as the value-at-a-time loops they replaced. ``svgplot`` paths must give
the bytes of the vertex-at-a-time loop after each ``L`` token that
repeats the token before it (at the written 0.01 px) is dropped, and
its plot range must equal that of the concatenate-and-filter reduction
it replaced. Those loops are kept here as the oracle and compared with
exact string equality on inputs with NaN runs, infinities, signed zero,
extreme magnitudes, a single point, rounding ties and bands with dropped
points.
The CLI outputs of the bundled OHLCV fixture are also compared with the
same commands run on the oracle writers, so the check holds on any numpy
or scipy build.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanex import (
    band_constants,
    band_csv,
    band_series,
    compare_csv,
    curve_csv,
    empirical_mef_curve,
    line_series,
    make_curve,
    make_grid,
    make_sample,
    ohlcv_csv,
    parse_ohlcv_csv,
    svg_plot,
)
from meanex import cli, serialize, svgplot
from meanex.cli import main
from meanex.errors import InputError, NumericError
from meanex.serialize import _BLOCK, fmt, table
from meanex.svgplot import _data_range, _hundredths, _segments
from meanex.types import Band

NAN, INF = float("nan"), float("inf")
FIXTURE = "tests/data/synthetic_ohlcv.csv"


# ---------------------------------------------------------------------------
# oracles: the value-at-a-time writers


def oracle_curve_csv(curve):
    lines = ["u,e"]
    for u, e in zip(curve.grid.points, curve.values):
        lines.append(f"{fmt(u)},{fmt(e)}")
    return "\n".join(lines) + "\n"


def oracle_band_csv(band):
    lines = ["u,e,lower,upper"]
    rows = zip(band.curve.grid.points, band.curve.values, band.lower, band.upper)
    for u, e, lo, hi in rows:
        lines.append(f"{fmt(u)},{fmt(e)},{fmt(lo)},{fmt(hi)}")
    return "\n".join(lines) + "\n"


def oracle_ohlcv_csv(series):
    lines = ["date,open,high,low,close,volume"]
    for rec in series.records:
        nums = ",".join(fmt(v) for v in (rec.open, rec.high, rec.low, rec.close, rec.volume))
        lines.append(f"{rec.date.isoformat()},{nums}")
    return "\n".join(lines) + "\n"


def drop_repeats(tokens):
    """The path tokens left after each ``L`` token whose point text equals
    that of the token before it is dropped; every ``M`` stays."""
    return [t for i, t in enumerate(tokens) if t[0] == "M" or t[1:] != tokens[i - 1][1:]]


def oracle_segments(x, y, to_px):
    parts = []
    pen_down = False
    for xi, yi in zip(x, y):
        if not (np.isfinite(xi) and np.isfinite(yi)):
            pen_down = False
            continue
        sx, sy = to_px(xi, yi)
        parts.append(f"{'L' if pen_down else 'M'}{'%.2f' % sx},{'%.2f' % sy}")
        pen_down = True
    return " ".join(drop_repeats(parts))


def oracle_envelope(x, lo, hi, to_px):
    ok = np.isfinite(x) & np.isfinite(lo) & np.isfinite(hi)
    if not np.any(ok):
        return None
    xs, los, his = x[ok], lo[ok], hi[ok]
    pts = [to_px(xi, yi) for xi, yi in zip(xs, his)]
    pts += [to_px(xi, yi) for xi, yi in zip(xs[::-1], los[::-1])]
    tokens = [f"{'L' if i else 'M'}{'%.2f' % a},{'%.2f' % b}" for i, (a, b) in enumerate(pts)]
    return " ".join(drop_repeats(tokens)) + " Z"


def oracle_data_range(series):
    """The padded plot range, from every x and every y value of series
    joined into one array each and filtered to the finite ones."""
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
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    x = x[np.isfinite(x)]
    y = y[np.isfinite(y)]

    def widen(lo, hi):
        if hi > lo:
            pad = 0.05 * (hi - lo)
            return lo - pad, hi + pad
        pad = max(0.5, abs(lo) * 0.05)
        return lo - pad, hi + pad

    return widen(float(x.min()), float(x.max())), widen(float(y.min()), float(y.max()))


def default_to_px(series):
    """The data-to-pixel map of ``svg_plot`` under the default PlotSpec
    (900 x 600, no title: margins 70, 20, 24, 52)."""
    (x0, x1), (y0, y1) = oracle_data_range(series)

    def to_px(x, y):
        sx = 70.0 + (x - x0) / (x1 - x0) * (900 - 70.0 - 20.0)
        sy = 600 - 52.0 - (y - y0) / (y1 - y0) * (600 - 24.0 - 52.0)
        return sx, sy

    return to_px


def oracle_paths(series):
    """The d attributes ``svg_plot`` must write for ``series``, in order."""
    to_px = default_to_px(series)
    out = []
    for s in series:
        if s[0] == "line":
            out.append(oracle_segments(s[2], s[3], to_px))
        else:
            _, _, x, lo, hi, c = s
            out.append(oracle_envelope(x, lo, hi, to_px))
            if c is not None:
                out.append(oracle_segments(x, c, to_px))
    return [d for d in out if d]


def svg_paths(svg):
    return re.findall(r'<path d="([^"]*)"', svg)


def vertices(d):
    """(command, x, y) of each vertex of path data ``d``, parsed back."""
    return [(c, float(a), float(b)) for c, a, b in re.findall(r"([ML])([^, ]+),([^ ]+)", d)]


def pixels(x, y):
    """A to_px that takes the values as pixel coordinates."""
    return x, y


# ---------------------------------------------------------------------------
# edge-case columns


POINTS = [-1e300, -1e-300, -0.0, 1e-300, 1.0 / 3.0, 0.5, 2.0, 1e300]
VALUE_CASES = {
    "nan_runs": [NAN, NAN, 1.0, NAN, NAN, 2.5, 3.0, NAN],
    "infinities": [INF, 1.0, -INF, 2.0, NAN, -INF, 0.1, INF],
    "signed_zero": [-0.0, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 7.0],
    "all_nan_but_one": [NAN, NAN, NAN, 4.25, NAN, NAN, NAN, NAN],
    "finite": [2.0, 1.9, 1.7, 1.2, 0.8, 0.5, 0.3, 0.1],
}


@pytest.mark.parametrize("case", sorted(VALUE_CASES))
def test_curve_csv_matches_oracle(case):
    curve = make_curve(make_grid(POINTS), VALUE_CASES[case])
    assert curve_csv(curve) == oracle_curve_csv(curve)


def test_curve_csv_single_point_matches_oracle():
    for value in (NAN, -0.0, 1e300, 3.5):
        curve = make_curve(make_grid([-0.0]), [value])
        assert curve_csv(curve) == oracle_curve_csv(curve)


def _band(points, values, half):
    curve = make_curve(make_grid(points), values)
    lower = curve.values - np.asarray(half, dtype=float)
    upper = curve.values + np.asarray(half, dtype=float)
    constants = band_constants(-1.0, 1.0)
    return Band(curve, lower, upper, 1.0, 4, constants, 0.5, 1.0)


@pytest.mark.parametrize("case", sorted(VALUE_CASES))
def test_band_csv_matches_oracle(case):
    half = [0.5, NAN, 0.25, 0.5, INF, 0.0, 1e-300, 0.5]
    band = _band(POINTS, VALUE_CASES[case], half)
    assert band_csv(band) == oracle_band_csv(band)


def test_compare_csv_and_headerless_table_match_oracle():
    grid = make_grid(POINTS)
    a = make_curve(grid, VALUE_CASES["nan_runs"])
    b = make_curve(grid, VALUE_CASES["infinities"])
    want = ["u,e_data,e_model"] + [f"{fmt(u)},{fmt(x)},{fmt(y)}" for u, x, y in zip(POINTS, a.values, b.values)]
    assert compare_csv(a, b) == "\n".join(want) + "\n"
    col = VALUE_CASES["signed_zero"] + VALUE_CASES["infinities"]
    assert table(None, col) == "\n".join(fmt(v) for v in col) + "\n"
    assert table(None, []) == "\n"


def benchmark_columns(k, n, seed):
    """k columns of n values over 24 decades, with NaN, infinities,
    signed zeros and extreme magnitudes sprinkled in."""
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-12, 12, size=(k, n))
    edge = np.array([NAN, INF, -INF, -0.0, 0.0, 1e300, -1e-300, 5e-324])
    for col in cols:
        col[rng.integers(0, n, size=200)] = rng.choice(edge, 200)
    return cols


@pytest.mark.parametrize("k", [2, 4])
def test_table_at_benchmark_scale_matches_oracle(k):
    # a 200k-value series writes band tables of this size
    cols = benchmark_columns(k, 100_000, k)
    header = ",".join(f"c{j}" for j in range(k))
    assert table(header, *cols) == oracle_table(header, *cols)


def test_table_edge_shapes_match_oracle():
    assert table("u,e", [], []) == oracle_table("u,e", [], []) == "u,e\n"
    assert table(None, [], []) == oracle_table(None, [], []) == "\n"
    col = benchmark_columns(1, 1000, 7)[0]
    assert table("x", col) == oracle_table("x", col)
    assert table(None, col) == oracle_table(None, col)
    assert table("a,b", col, col[:10]) == oracle_table("a,b", col, col[:10])  # rows stop at the shortest


@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("header", [None, "h"])
def test_table_at_block_edges_matches_oracle(blocks, extra, k, header):
    b = _BLOCK // k  # the rows of a block of k columns
    rows = blocks * b + extra
    rng = np.random.default_rng(rows + k)
    special = [NAN, INF, -INF, -0.0]
    cols = []
    for j in range(k):
        c = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        c[np.arange(rows) % 11 == j] = special[j % 4]
        for i in (b - 1, b, 2 * b):  # the rows on each side of a block edge
            if i < rows:
                c[i] = special[(i + j) % 4]
        cols.append(c)
    header = None if header is None else ",".join(f"{header}{j}" for j in range(k))
    assert table(header, *cols) == oracle_table(header, *cols)


def test_ohlcv_csv_matches_oracle():
    with open(FIXTURE, encoding="utf-8") as fh:
        series = parse_ohlcv_csv(fh.read())
    assert ohlcv_csv(series) == oracle_ohlcv_csv(series)
    edge = parse_ohlcv_csv(
        "date,open,high,low,close,volume\n"
        "2024-01-02,1e-300,1e300,1e-300,1,-0.0\n"
        "0999-12-31,0.1,1e300,1e-300,0.30000000000000004,1e-300\n"
        "0001-01-01,2,2,2,2,1e300\n"
        "9999-12-31,1,3,0.5,2.5,0\n"
    )
    assert ohlcv_csv(edge) == oracle_ohlcv_csv(edge)
    assert ohlcv_csv(edge).splitlines()[1] == "0001-01-01,2,2,2,2,1e+300"


# ---------------------------------------------------------------------------
# SVG paths


LINE_X = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
LINE_CASES = {
    "nan_runs": (LINE_X, np.array(VALUE_CASES["nan_runs"])),
    "nan_x": (np.array([NAN, 1.0, 2.0, NAN, 4.0, 5.0, 6.0, NAN]), np.arange(8.0)),
    "infinities": (LINE_X, np.array(VALUE_CASES["infinities"])),
    "signed_zero": (LINE_X, np.array([-0.0, 0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 1.0])),
    "huge": (LINE_X, np.array([1e300, 1.0, 1e-300, 2.0, 3.0, NAN, 4.0, 1e300])),
    "all_nan_but_one": (LINE_X, np.array(VALUE_CASES["all_nan_but_one"])),
    "single_point": (np.array([-0.0]), np.array([2.0])),
    "finite": (LINE_X, np.array(VALUE_CASES["finite"])),
}


@pytest.mark.parametrize("case", sorted(LINE_CASES))
def test_segments_match_oracle(case):
    x, y = LINE_CASES[case]
    series = [line_series(case, x, y)]
    to_px = default_to_px(series)
    assert _segments(x, y, to_px) == oracle_segments(x, y, to_px)
    assert svg_paths(svg_plot(series)) == oracle_paths(series)


def test_segments_of_no_finite_point_is_empty():
    x = np.array([0.0, 1.0])
    y = np.array([NAN, INF])
    to_px = default_to_px([line_series("ref", x, [1.0, 2.0])])
    assert _segments(x, y, to_px) == oracle_segments(x, y, to_px) == ""
    assert _segments(x[:0], y[:0], to_px) == ""


@pytest.mark.parametrize(
    "lo_hi_c",
    [
        ([0.5, 0.6, NAN, 0.7, 0.8, 0.9, NAN, 1.0], [1.5, 1.6, 1.7, INF, 1.8, 1.9, 2.0, 2.1], None),
        ([NAN, NAN, 0.1, 0.2, 0.3, 0.4, NAN, NAN], [NAN, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, NAN],
         [NAN, 0.5, 0.6, NAN, 0.8, 0.9, 1.0, NAN]),
        ([NAN, NAN, NAN, -0.0, NAN, NAN, NAN, NAN], [NAN, NAN, NAN, 1e-300, NAN, NAN, NAN, NAN],
         [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0]),
        ([NAN] * 8, [NAN] * 8, [0.0, 0.5, 1.0, 1.5, NAN, 2.5, 3.0, 3.5]),
    ],
    ids=["dropped_points", "nan_runs_with_center", "one_kept_point", "no_envelope"],
)
def test_band_paths_match_oracle(lo_hi_c):
    lo, hi, c = lo_hi_c
    series = [band_series("band", LINE_X, lo, hi, c), line_series("ref", LINE_X, VALUE_CASES["nan_runs"])]
    assert svg_paths(svg_plot(series)) == oracle_paths(series)


def test_long_path_with_many_gaps_matches_oracle():
    x = np.linspace(-3.0, 7.0, 501)
    y = np.where(np.arange(501) % 37 < 3, NAN, np.sin(x))
    series = [line_series("s", x, y)]
    assert svg_paths(svg_plot(series)) == oracle_paths(series)


def test_path_restarting_every_3_points_matches_oracle():
    n = 100_000
    x = np.linspace(-1.0, 1.0, n)
    y = np.where(np.arange(n) % 4 == 3, NAN, np.cos(40.0 * x))
    series = [line_series("s", x, y)]
    to_px = default_to_px(series)
    d = _segments(x, y, to_px)
    assert d == oracle_segments(x, y, to_px)
    assert d.count("M") == n // 4
    assert svg_paths(svg_plot(series)) == oracle_paths(series)


RANGE_CASES = {
    "nan_and_inf_runs": [line_series("a", LINE_X, VALUE_CASES["nan_runs"]),
                         line_series("b", [INF, NAN, 2.0, -INF, 5.0, NAN, NAN, INF], VALUE_CASES["infinities"])],
    "all_nan_beside_finite": [line_series("a", [NAN, NAN], [NAN, NAN]),
                              line_series("b", [3.0, 4.0], [1.0, 0.5])],
    "band_without_center": [band_series("band", LINE_X, [0.5, NAN, 0.7, 0.8, -INF, 0.9, 1.0, 1.1],
                                        [1.5, 1.6, NAN, 1.8, 1.9, 2.0, INF, 2.2])],
    "band_with_center": [band_series("band", LINE_X, [NAN] * 8, [NAN] * 8,
                                     [NAN, 0.5, 0.6, NAN, 0.8, 0.9, 1.0, NAN]),
                         line_series("ref", LINE_X, VALUE_CASES["finite"])],
    "one_value_small": [line_series("a", [NAN, 2.0, NAN], [NAN, 3.0, INF])],
    "one_value_large": [line_series("a", [-40.0], [100.0])],
    "signed_zero": [line_series("a", [-0.0, 0.0, -0.0], [0.0, -0.0, NAN]),
                    band_series("band", [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0])],
    "all_negative": [line_series("a", -np.arange(1.0, 9.0), -np.exp(LINE_X)),
                     band_series("band", [-3.0, -2.0], [-9.0, -8.0], [-1e-300, -0.5])],
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
def test_data_range_matches_oracle(case):
    series = RANGE_CASES[case]
    assert repr(_data_range(series)) == repr(oracle_data_range(series))
    assert svg_paths(svg_plot(series)) == oracle_paths(series)


def test_plot_of_no_series_has_no_finite_data():
    with pytest.raises(InputError, match="no finite data"):
        svg_plot([])


@pytest.mark.parametrize("x,y,axis", [([-1e308, 1e308], [0.0, 1.0], "x"), ([0.0, 1.0], [1.0, 1.7e308], "y")])
def test_plot_range_past_the_double_range_raises(x, y, axis):
    # padded, the span from the least to the greatest value overflows to inf:
    # no point could be placed on this axis
    with pytest.raises(NumericError, match=f"plot range of {axis} overflows"):
        svg_plot([line_series("a", x, y)])


def test_plot_range_spanning_most_of_the_double_range_matches_oracle():
    series = [line_series("a", [-8e307, 0.0, 8e307], [1.0, 1e308, 2.0])]
    assert repr(_data_range(series)) == repr(oracle_data_range(series))
    assert svg_paths(svg_plot(series)) == oracle_paths(series)


def test_plot_range_overflow_exits_3(tmp_path, capsys):
    sample = tmp_path / "wide.txt"
    # the curve is finite: u = 1 and 1.7e308, e = 1.725e308 and 5e306
    sample.write_text("1\n1.7e308\n1.75e308\n", encoding="utf-8")
    argv = ["emef", str(sample), "--csv", str(tmp_path / "emef.csv"), "--svg", str(tmp_path / "emef.svg")]
    assert main(argv) == 3
    assert "error: plot range of x overflows" in capsys.readouterr().err


def block_edge_line(case):
    """A line of 2 _BLOCK + 3 points in pixels with ``case`` at the first
    block edge."""
    b = _BLOCK
    x = np.arange(2 * b + 3) * 0.37
    y = np.round(100.0 * np.sin(np.arange(2 * b + 3) * 0.01), 3)
    if case == "repeat_run_across":
        x[b - 3:b + 3], y[b - 3:b + 3] = x[b - 3], y[b - 3]
    elif case == "repeat_of_last_point":
        x[b], y[b] = x[b - 1], y[b - 1]
    elif case == "nan_last_of_block":
        y[b - 1] = NAN
    elif case == "nan_first_of_block":
        y[b] = NAN
    elif case == "nan_gap_across":
        y[b - 2:b + 2] = NAN
    elif case == "nan_whole_block":
        y[b:2 * b] = NAN
    elif case == "repeat_across_gap":
        y[b - 1] = NAN
        x[b], y[b] = x[b - 2], y[b - 2]
    elif case == "subpath_collapsing_across":
        y[b - 3] = y[b + 2] = NAN
        x[b - 2:b + 2], y[b - 2:b + 2] = x[b - 2], y[b - 2]
    elif case == "inf_x_first_of_block":
        x[b] = INF
    return x, y


@pytest.mark.parametrize("case", [
    "repeat_run_across", "repeat_of_last_point", "nan_last_of_block", "nan_first_of_block",
    "nan_gap_across", "nan_whole_block", "repeat_across_gap", "subpath_collapsing_across",
    "inf_x_first_of_block",
])
def test_segments_at_block_edges_match_oracle(case):
    x, y = block_edge_line(case)
    assert _segments(x, y, pixels) == oracle_segments(x, y, pixels)
    series = [line_series(case, x, y)]
    assert svg_paths(svg_plot(series)) == oracle_paths(series)


def test_band_envelope_repeating_across_a_block_edge_matches_oracle():
    # the upper edge has _BLOCK - 1 points: the envelope turns onto the
    # lower edge at the first block edge, through a run of repeated points
    n = _BLOCK - 1
    x = np.linspace(0.0, 1.0, n)
    hi = 2.0 + np.sin(3.0 * x)
    lo = hi - 1.0
    x[-3:] = x[-3]
    hi[-3:] = lo[-3:] = lo[-3]
    series = [band_series("band", x, lo, hi)]
    (d,) = svg_paths(svg_plot(series))
    assert d == oracle_paths(series)[0]


def test_repeat_run_across_a_gap_keeps_its_m():
    x = np.array([1.0, 1.001, 1.004, NAN, 1.0, 1.002, 2.0, 2.0])
    y = np.array([5.0, 5.0, 5.003, 0.0, 5.0, 5.0, 6.0, 6.001])
    d = _segments(x, y, pixels)
    assert d == oracle_segments(x, y, pixels) == "M1.00,5.00 M1.00,5.00 L2.00,6.00"


def test_subpath_collapsing_to_its_m():
    x = np.array([3.0, 3.001, 2.999, 3.004, NAN, 7.0, 8.0])
    y = np.array([4.0, 4.004, 3.996, 4.0, NAN, 1.0, 1.0])
    d = _segments(x, y, pixels)
    assert d == oracle_segments(x, y, pixels) == "M3.00,4.00 M7.00,1.00 L8.00,1.00"
    assert _segments(x[:4], y[:4], pixels) == "M3.00,4.00"


def test_band_polygon_repeating_before_z():
    # the first two x values and lower bounds map to one pixel, so the
    # polygon's last two vertices repeat just before its closing Z
    x = np.array([0.0, 1e-7, 0.5, 1.0])
    lo = np.array([0.25, 0.25, 0.5, 0.75])
    hi = np.array([1.0, 1.0 + 1e-7, 1.5, 2.0])
    series = [band_series("band", x, lo, hi)]
    (d,) = svg_paths(svg_plot(series))
    assert d == oracle_paths(series)[0]
    assert d.endswith(" Z") and len(vertices(d)) == 6
    assert d.split()[-2] == "L%.2f,%.2f" % default_to_px(series)(1e-7, 0.25)


@pytest.mark.parametrize("grid", ["ties", "near_ties"])
def test_pixels_at_rounding_ties_match_oracle(grid):
    j = np.arange(0, 900 * 8 + 1) / 8.0 if grid == "ties" else np.arange(0, 30_001) / 100.0 + 0.005
    # each tie between neighbours 0.002 px away, which round with it or not
    x = np.sort(np.concatenate((j - 0.002, j, j + 0.002)))
    for y in (x, np.full_like(x, 1.0), x[::-1]):
        d = _segments(x, y, pixels)
        assert d == oracle_segments(x, y, pixels)
        assert d.count("M") == 1 and d.count("L") < x.size - 1


def test_pixels_without_exact_keys_match_oracle():
    # signed zeros write "-0.00" and "0.00"; NaN and values past 1e7 px
    # are compared by their text
    def to_px(x, y):
        return np.where(x < -5.0, np.nan, np.where(x > 5.0, x * 1e20, x)), y

    x = np.array([-0.003, 0.003, 0.0, -0.0, -0.001, -6.0, -7.0, 6.0, 6.0, 6.0 + 1e-12, 7.0])
    y = np.zeros_like(x)
    d = _segments(x, y, to_px)
    assert d == oracle_segments(x, y, to_px)
    assert d.split() == ["M-0.00,0.00", "L0.00,0.00", "L-0.00,0.00", "Lnan,0.00", "L%.2f,0.00" % 6e20,
                         "L%.2f,0.00" % ((6.0 + 1e-12) * 1e20), "L%.2f,0.00" % 7e20]


def test_hundredths_keys_equal_the_written_text():
    rng = np.random.default_rng(14)
    v = np.concatenate((
        rng.uniform(0.0, 900.0, 1_000_000),
        np.arange(0, 900 * 8 + 1) / 8.0,
        np.arange(0, 90_001) / 100.0 + 0.005,
        [-0.0, 0.0, -0.004, 0.004, -0.006, -1e-300, 9.99e6, -9.99e6],
    ))
    k, exact = _hundredths(v)
    assert exact[:1_000_000].mean() > 0.99
    assert not exact[1_000_001:1_007_201:2].any()  # the ties j/8, j odd
    # the signed count of hundredths written, "-0.00" read as -0.0
    written = np.array([float(t.replace(".", "")) for t in ("%.2f\n" * v.size % tuple(v.tolist())).split()])
    assert np.array_equal(k[exact], written.view(np.int64)[exact])


def test_gpd_emef_path_parses_back_to_deduplicated_oracle():
    rng = np.random.default_rng(20_000)
    xi = 0.25
    sample = make_sample((rng.random(20_000) ** -xi - 1.0) / xi)
    grid = make_grid(sample.values[:-1])
    curve = empirical_mef_curve(sample, grid)
    series = [line_series("emef", grid.points, curve.values)]
    (d,) = svg_paths(svg_plot(series))
    got, want = vertices(d), vertices(oracle_paths(series)[0])
    assert got == want
    assert got[0][0] == "M" and all(c == "L" for c, _, _ in got[1:])
    assert len(got) < 0.5 * grid.points.size  # most of the 20k points repeat at 0.01 px


# ---------------------------------------------------------------------------
# CLI outputs on the bundled fixture, against the oracles in the same run


def oracle_compare_csv(data_curve, model_curve):
    lines = ["u,e_data,e_model"]
    rows = zip(data_curve.grid.points, data_curve.values, model_curve.values)
    for u, a, b in rows:
        lines.append(f"{fmt(u)},{fmt(a)},{fmt(b)}")
    return "\n".join(lines) + "\n"


def oracle_table(header, *columns):
    lines = [] if header is None else [header]
    for row in zip(*columns):
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def run_cli(out):
    """Write the ingest, emef, band, fit-gpd and compare outputs of the
    fixture into ``out``; return their bytes by file name."""
    returns = str(out / "returns.txt")
    assert main(["ingest", FIXTURE, "--log-returns", "--csv", returns]) == 0
    assert main(["emef", returns, "--csv", str(out / "emef.csv"), "--svg", str(out / "emef.svg")]) == 0
    band = ["band", returns, "--u0", "-0.02", "--u1", "0"]
    assert main(band + ["--csv", str(out / "band.csv"), "--svg", str(out / "band.svg")]) == 0
    assert main(["fit-gpd", returns, "--csv", str(out / "fit.csv")]) == 0
    compare = ["compare", "--data", FIXTURE, "--log-returns", "--dist", "normal(mu=0,sigma=0.02)"]
    assert main(compare + ["--csv", str(out / "compare.csv"), "--svg", str(out / "compare.svg")]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_outputs_match_oracle_writers(tmp_path, monkeypatch, capsys):
    (tmp_path / "new").mkdir()
    (tmp_path / "oracle").mkdir()
    got = run_cli(tmp_path / "new")
    # the CLI writes the blocks of each table; the oracles give each table whole
    monkeypatch.setattr(cli, "_curve_blocks", lambda curve: [oracle_curve_csv(curve)])
    monkeypatch.setattr(cli, "_band_blocks", lambda band: [oracle_band_csv(band)])
    monkeypatch.setattr(cli, "_compare_blocks", lambda a, b: [oracle_compare_csv(a, b)])
    monkeypatch.setattr(cli, "_blocks", lambda header, *cols: [oracle_table(header, *cols)])
    # a band envelope walks its lower edge as a second piece; the oracle takes the pieces joined
    monkeypatch.setattr(svgplot, "_segments", lambda x, y, to_px, *pieces: oracle_segments(
        np.concatenate([x, *(p[0] for p in pieces)]), np.concatenate([y, *(p[1] for p in pieces)]), to_px))
    want = run_cli(tmp_path / "oracle")
    assert len(got) == 8
    assert got == want


# ---------------------------------------------------------------------------
# the decimal-text kernel, value by value against Python's %


def g12_hard_cases():
    """Doubles whose 12-digit significand is hard to certify, and their
    negatives: every power of ten from 1e-8 to 1e16 and the three doubles
    on either side of it; at every exponent of the fixed notation, 40
    doubles nearest a tie in the 13th digit and their neighbours; 1e12 -
    0.5 (an exact tie) and its kin; zeros, subnormals, the largest
    double, NaN and the infinities."""
    out = []
    for k in range(-8, 17):
        up = down = float(f"1e{k}")
        out.append(up)
        for _ in range(3):
            up, down = np.nextafter(up, INF), np.nextafter(down, 0.0)
            out += [up, down]
    rng = np.random.default_rng(35)
    for e in range(-4, 12):
        for n in rng.integers(10**11, 10**12, 40).tolist():
            tie = float(f"{n}5e{e - 12}")  # the 13 digits n5 with the first at 10^e
            out += [tie, np.nextafter(tie, INF), np.nextafter(tie, 0.0)]
    out += [1e12 - 0.5, 1e12 - 1.5, 999999999999.4, 99999999999.95, 9.9999999999995e-5, 0.0, 5e-324,
            2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, NAN, INF]
    v = np.array(out)
    return np.concatenate((v, -v))


def percent_lines(values, template="%.12g\n"):
    return template * len(values) % tuple(values)


def guess_shifted(shift):
    """serialize's exponent guess moved by shift decades."""
    guess = serialize._exponent_guess
    return mock.patch.object(serialize, "_exponent_guess", lambda a: guess(a) + shift)


def test_g12_kernel_matches_percent_on_hard_cases():
    v = g12_hard_cases()
    cols = [v, np.roll(v, 1), np.roll(v, 7)]
    for shift in (0, -1, 1):  # a guess one decade off is never certified: % writes those values
        with guess_shifted(shift):
            assert table(None, v) == percent_lines(v.tolist())
            assert table("a,b,c", *cols) == oracle_table("a,b,c", *cols)
            assert table(None, v[: _BLOCK + 5]) == percent_lines(v[: _BLOCK + 5].tolist())
    _, ok = serialize._g12_words(v)
    assert 1000 < ok.sum() < v.size - 1000  # the kernel writes many of them, and % many others


def test_g12_kernel_at_each_decade_of_the_fixed_notation():
    # 12 significant digits at every exponent from -5 to 12, each printed
    # with and without trailing zeros, integer and fraction parts of every length
    rng = np.random.default_rng(36)
    m = rng.integers(10**11, 10**12, 500)
    m[::5] = m[::5] // 10**6 * 10**6
    m[1::5] = 10**11
    v = np.concatenate([m * 10.0 ** (e - 11) for e in range(-5, 13)])
    assert table(None, v) == percent_lines(v.tolist())
    assert table(None, -v) == percent_lines((-v).tolist())


def f2_hard_cases():
    """Pixel coordinates on and around the rounding ties of %.2f, at
    whole hundredths, at the integer group boundaries, 1e7 and the signed
    zeros, and spread over (-1e6, 1e6)."""
    cents = np.arange(-2000, 2000) / 100.0
    ties = cents + 0.005
    edges = np.array([9999.995, 9999.994999999999, 10000.0, 99999.995, 1e7 - 0.01, 1e7, 1e7 + 0.01, 0.0049999,
                      0.005, 0.0050001, -0.0, 0.0, 123456.785, 5e-324, 1e300])
    spread = np.random.default_rng(37).uniform(-1e6, 1e6, 4000)
    return np.concatenate((ties, np.nextafter(ties, INF), np.nextafter(ties, -INF), edges, -edges, cents, spread))


def test_f2_kernel_matches_percent_on_hard_cases():
    v = f2_hard_cases()
    w = np.roll(v, 3)
    assert _segments(v, w, pixels) == oracle_segments(v, w, pixels)
    words, ok = serialize._f2_words(*serialize._hundredths(v))
    assert 0.3 < ok.mean() < 0.7  # the kernel writes many of them, and % many others
    prefix = np.full(v.size, serialize._NL)
    assert serialize._decimal_text(words, ok, v, prefix, serialize._F2) == "".join("\n%.2f" % x for x in v)


ties_13th_digit = st.builds(lambda n, e: float(f"{n}5e{e - 12}"), st.integers(10**11, 10**12 - 1), st.integers(-4, 11))


@given(st.lists(st.floats() | ties_13th_digit, min_size=1, max_size=40), st.sampled_from([0, -1, 1]))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_g12_kernel_matches_percent_on_any_doubles(values, shift):
    v = np.array(values)
    with guess_shifted(shift):
        assert table(None, v) == percent_lines(values)
        assert table(None, -v) == percent_lines((-v).tolist())
        assert table("x,y", v, v[::-1]) == oracle_table("x,y", v, v[::-1])


@given(st.lists(st.floats(), min_size=1, max_size=40),
       st.lists(st.floats(-1e5, 1e5) | st.floats(-1.0, 1.0), min_size=1, max_size=40))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_f2_kernel_matches_percent_on_any_doubles(xs, ys):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n]), np.array(ys[:n])
    assert _segments(x, y, pixels) == oracle_segments(x, y, pixels)
