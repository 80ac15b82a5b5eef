"""
From OHLCV prices to a tail diagnosis
=====================================

"""

# read daily bars, take log-returns on the close, and ask whether the
# loss tail looks Pareto: a straight mean excess curve says yes
import numpy as np
from meanex import (
    parse_ohlcv_csv, log_returns, make_sample, default_grid,
    empirical_mef_curve, fit_gpd_curve, classify_tail,
)

with open("tests/data/synthetic_ohlcv.csv", encoding="utf-8") as fh:
    text = fh.read()
series = parse_ohlcv_csv(text, symbol="SYN")
print("records:", len(series.records), "symbol:", series.symbol)

r = log_returns(series, field="close")
print("daily log-returns:", len(r))

# losses are the negated returns; threshold the positive side
losses = make_sample(-r[np.isfinite(r)])
grid = default_grid(losses)
curve = empirical_mef_curve(losses, grid)

# the shape of the curve classifies the tail before any fitting
print("tail class:", classify_tail(curve))

params, fit = fit_gpd_curve(curve)
print("xi_hat  =", params.xi)
print("beta_hat=", params.beta)
print("r2      =", fit.r2)

from meanex import svg_plot, line_series, PlotSpec, write_text

series_plot = [line_series("loss emef", grid.points, curve.values)]
svg = svg_plot(series_plot, PlotSpec(title="Mean excess of daily losses", xlabel="threshold"))
write_text("demos/returns_pipeline.svg", svg)
print("wrote demos/returns_pipeline.svg")
