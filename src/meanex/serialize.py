"""CSV emission for curves, bands, fits, and experiment reports.

All emitters produce deterministic UTF-8 text with LF line endings and
numbers formatted with %.12g, so identical inputs yield byte-identical
files. Undefined values appear as nan, infinities as inf and -inf, and
negative zero as -0.

Each table is formatted by one ``%``: ``table`` interleaves its columns
row by row into one float array and applies ``"%.12g,...,%.12g\\n"``
repeated once per row to its ``tolist()`` floats, the same Python floats
``fmt`` formats one at a time.
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


def fmt(x: float) -> str:
    return "%.12g" % float(x)


def table(header, *columns) -> str:
    """CSV text with one %.12g row per index of ``columns`` (rows stop at
    the shortest column), under ``header`` unless it is None."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = min((c.size for c in cols), default=0)
    flat = np.array([c[:n] for c in cols]).T.ravel()  # row by row
    text = (",".join(["%.12g"] * len(cols)) + "\n") * n % tuple(flat.tolist())
    return ("" if header is None else header + "\n") + text or "\n"


def curve_csv(curve: MefCurve) -> str:
    return table("u,e", curve.grid.points, curve.values)


def band_csv(band: Band) -> str:
    return table("u,e,lower,upper", band.curve.grid.points, band.curve.values, band.lower, band.upper)


def fit_csv(params: GpdParams, fit: OlsFit) -> str:
    header = "xi_hat,beta_hat,a_hat,b_hat,r2"
    row = ",".join(fmt(v) for v in (params.xi, params.beta, fit.a_hat, fit.b_hat, fit.r2))
    return header + "\n" + row + "\n"


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
    if not np.array_equal(data_curve.grid.points, model_curve.grid.points):
        raise DomainError("compare requires identical grids")
    return table("u,e_data,e_model", data_curve.grid.points, data_curve.values, model_curve.values)


def ohlcv_csv(series: PriceSeries) -> str:
    """Serialize a PriceSeries back to the input CSV format."""
    row = "%s,%.12g,%.12g,%.12g,%.12g,%.12g".__mod__
    columns = (np.datetime_as_string(series.days).tolist(), *series.values.tolist())
    return "\n".join(["date,open,high,low,close,volume", *map(row, zip(*columns))]) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
