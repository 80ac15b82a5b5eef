"""Generalized Pareto fitting from the linearity of the empirical mean
excess curve, plus tail-weight classification.

A GPD with shape xi < 1 and scale beta > 0 has a linear mean excess
function

    e(u) = beta / (1 - xi) + (xi / (1 - xi)) * u =: b + a * u,

so an ordinary least squares line fitted to (u_i, e_n(u_i)) inverts to

    xi_hat = a_hat / (a_hat + 1),   beta_hat = b_hat / (a_hat + 1).

The inversion needs a_hat > -1 (a_hat = -1 is the vertical asymptote;
below it the implied shape would exceed one and the implied scale flips
sign). Positive slope means heavy tail (xi > 0), negative slope a
bounded tail, slope near zero the exponential boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .types import MefCurve

__all__ = [
    "GpdParams",
    "OlsFit",
    "ols_fit",
    "gpd_from_ols",
    "gpd_mef",
    "classify_tail",
    "fit_gpd_curve",
]


@dataclass(frozen=True)
class GpdParams:
    xi: float
    beta: float

    def __post_init__(self):
        if not np.isfinite(self.xi) or not np.isfinite(self.beta):
            raise DomainError("GPD parameters must be finite")
        if self.beta <= 0:
            raise DomainError("invalid scale: beta must be positive")


@dataclass(frozen=True)
class OlsFit:
    a_hat: float
    b_hat: float
    r2: float
    n_points: int


def ols_fit(x, y) -> OlsFit:
    """Least squares line through (x_i, y_i); NaN pairs are dropped.

    r2 is the coefficient of determination clamped to [0, 1], defined as
    1 when the responses are constant (the line is exact).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("ols_fit needs two equal-length vectors")
    keep = np.isfinite(x) & np.isfinite(y)
    x, y = x[keep], y[keep]
    m = x.size
    if m < 2:
        raise DomainError("ols_fit needs at least two finite points")
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise DomainError("singular design: thresholds are all equal")
    sxy = float(np.sum((x - xbar) * (y - ybar)))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    sstot = float(np.sum((y - ybar) ** 2))
    if sstot == 0.0:
        r2 = 1.0
    else:
        ssres = float(np.sum((y - (intercept + slope * x)) ** 2))
        r2 = min(1.0, max(0.0, 1.0 - ssres / sstot))
    return OlsFit(a_hat=float(slope), b_hat=float(intercept), r2=r2, n_points=m)


def gpd_from_ols(fit: OlsFit) -> GpdParams:
    """Invert a fitted mean-excess line to GPD shape and scale."""
    a, b = fit.a_hat, fit.b_hat
    if a + 1.0 == 0.0:
        raise DomainError("degenerate slope: a_hat = -1 has no GPD preimage")
    if a + 1.0 < 0.0:
        raise DomainError("invalid shape: slope below -1 implies xi > 1")
    beta = b / (a + 1.0)
    if beta <= 0:
        raise DomainError("invalid scale: fitted intercept implies beta <= 0")
    return GpdParams(xi=a / (a + 1.0), beta=beta)


def gpd_mef(params: GpdParams, u) -> np.ndarray:
    """Exact GPD mean excess b + a*u on the support, 0 at and beyond the
    right endpoint (finite only when xi < 0)."""
    if params.xi >= 1:
        raise DomainError("GPD mean excess requires xi < 1")
    u = np.asarray(u, dtype=float)
    e = (params.beta + params.xi * u) / (1.0 - params.xi)
    below = u < 0
    e = np.where(below, params.beta / (1.0 - params.xi) - u, e)
    if params.xi < 0:
        e = np.where(u >= -params.beta / params.xi, 0.0, e)
    return e if e.ndim else float(e)


# the central window's ends, as quantiles of the grid points
_QLO, _QHI = 0.10, 0.90


def _central_window(curve: MefCurve):
    """The grid points in [quantile(0.10), quantile(0.90)] and the curve there."""
    pts = curve.grid.points
    inside = (pts >= np.quantile(pts, _QLO)) & (pts <= np.quantile(pts, _QHI))
    return pts[inside], curve.values[inside]


def _tail_label(x, y, fit: OlsFit | None = None) -> str:
    """``classify_tail`` on a window (x, y), given or fitting its line."""
    if int(np.sum(np.isfinite(y))) < 3:
        raise DomainError("classify_tail needs at least three defined points")
    fit = ols_fit(x, y) if fit is None else fit
    span = x[-1] - x[0]
    level = float(np.nanmean(np.abs(y)))
    tol = 0.05 * level / span if span > 0 and level > 0 else 0.0
    if fit.a_hat > tol:
        return "heavy"
    if fit.a_hat < -tol:
        return "light"
    return "medium"


def classify_tail(curve: MefCurve) -> str:
    """'heavy', 'light', or 'medium' from the slope of the mean-excess
    curve over the central grid window.

    The window is [quantile(0.10), quantile(0.90)] of the grid points; the
    flat-slope tolerance is 0.05 * mean|e| over the window divided by the
    window span, so the verdict is scale and location invariant.
    """
    return _tail_label(*_central_window(curve))


def fit_gpd_curve(curve: MefCurve):
    """OLS over the central window of a mean-excess curve, inverted to
    GPD parameters. Returns (GpdParams, OlsFit)."""
    fit = ols_fit(*_central_window(curve))
    return gpd_from_ols(fit), fit
