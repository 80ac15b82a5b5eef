"""CSV emission for curves, bands, fits, and experiment reports.

All emitters produce deterministic UTF-8 text with LF line endings and
numbers formatted with %.12g, so identical inputs yield byte-identical
files. Undefined values appear as nan, infinities as inf and -inf, and
negative zero as -0.

Tables are formatted in blocks of ``_BLOCK`` rows, one ``%`` per block:
``_blocks`` interleaves a block of the columns row by row into one float
array and applies ``"%.12g,...,%.12g\\n"`` repeated once per row to its
``tolist()`` floats, the same Python floats ``fmt`` formats one at a
time. ``table`` and the table emitters join the blocks; the CLI writes
them as they are made, so its memory does not grow with the row count.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .gpdfit import GpdParams, OlsFit
from .montecarlo import ExperimentReport
from .ohlcv import PriceSeries
from .types import Band, MefCurve

__all__ = [
    "fmt",
    "curve_csv",
    "band_csv",
    "fit_csv",
    "experiment_csv",
    "compare_csv",
    "ohlcv_csv",
    "write_text",
]

_BLOCK = 4096  # rows per block of a table, and points per block of an SVG path


def fmt(x: float) -> str:
    return "%.12g" % float(x)


def _blocks(header, *columns):
    """The text of ``table(header, *columns)`` in pieces: the header line,
    then one str per ``_BLOCK`` rows, each formatted when it is taken."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = min((c.size for c in cols), default=0)
    row = ",".join(["%.12g"] * len(cols)) + "\n"
    if header is not None or n == 0:
        yield ("" if header is None else header) + "\n"
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)  # rows stop at the shortest column
        flat = np.array([c[i:j] for c in cols]).T.ravel()  # row by row
        yield row * (j - i) % tuple(flat.tolist())


def table(header, *columns) -> str:
    """CSV text with one %.12g row per index of ``columns`` (rows stop at
    the shortest column), under ``header`` unless it is None."""
    return "".join(_blocks(header, *columns))


def _curve_blocks(curve: MefCurve):
    return _blocks("u,e", curve.grid.points, curve.values)


def _band_blocks(band: Band):
    return _blocks("u,e,lower,upper", band.curve.grid.points, band.curve.values, band.lower, band.upper)


def _compare_blocks(data_curve: MefCurve, model_curve: MefCurve):
    if not np.array_equal(data_curve.grid.points, model_curve.grid.points):
        raise DomainError("compare requires identical grids")
    return _blocks("u,e_data,e_model", data_curve.grid.points, data_curve.values, model_curve.values)


def curve_csv(curve: MefCurve) -> str:
    return "".join(_curve_blocks(curve))


def band_csv(band: Band) -> str:
    return "".join(_band_blocks(band))


def fit_csv(params: GpdParams, fit: OlsFit) -> str:
    return table("xi_hat,beta_hat,a_hat,b_hat,r2", [params.xi], [params.beta], [fit.a_hat], [fit.b_hat], [fit.r2])


def experiment_csv(report: ExperimentReport) -> str:
    lines = [
        f"# name={report.name},seed={report.seed},reps={report.replicate_count}",
        "metric,value",
    ]
    for key, value in report.metrics:
        lines.append(f"{key},{fmt(value)}")
    return "\n".join(lines) + "\n"


def compare_csv(data_curve: MefCurve, model_curve: MefCurve) -> str:
    """Side-by-side empirical vs model mean excess on a shared grid."""
    return "".join(_compare_blocks(data_curve, model_curve))


def ohlcv_csv(series: PriceSeries) -> str:
    """Serialize a PriceSeries back to the input CSV format."""
    row = "%s,%.12g,%.12g,%.12g,%.12g,%.12g".__mod__
    columns = (np.datetime_as_string(series.days).tolist(), *series.values.tolist())
    return "\n".join(["date,open,high,low,close,volume", *map(row, zip(*columns))]) + "\n"


def write_text(path, text) -> None:
    """Write text, a str or an iterable of str pieces written as they are
    taken, to path as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
