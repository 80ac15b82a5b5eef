"""Empirical and theoretical mean excess functions, uniform consistency
bands, and the pointwise variance machinery.

The mean excess function of X at threshold u is

    e(u) = E(X - u | X > u) = (1 / F_bar(u)) * int_u^b (x - u) f(x) dx,

b the upper end of the support, set to 0 wherever F_bar(u) = 0. The
exponential, GPD and Pareto families have closed forms. Every other
family takes the integral by quadrature of the density, built from the
top of a threshold grid down (``dist_tail_moments``): the top threshold
takes one quadrature over its tail on the far side of the law's centre,
and each lower one adds one short quadrature over the gap to the
threshold above. A single threshold is the one-point case of a grid. The plug-in estimator from a sample is

    e_n(u) = sum (X_i - u) 1[X_i > u] / sum 1[X_i > u],

with e_n(u) = 0 for u beyond the sample maximum and an undefined marker
(NaN) exactly at the maximum, where the strict inequality leaves no
exceedance. Thresholds tie-break *below* the data: X_i == u does not
count as an exceedance.

The uniform band on [u0, u1] has half-width E_n / sqrt(n) with

    E_n = (D2 + D1 * E|X| / F_bar(u1)) / (F_bar(u1) - D1 / sqrt(n)),

defined only when F_bar(u1) > D1 / sqrt(n); D1, D2 come from the
constant block in BandConstants and scale with the user-supplied
universal constants A, A1 (default 1; the nominal coverage is therefore
configuration-dependent).

The influence values

    h_u(t) = f_u(t) / P(g_u) - P(f_u) g_u(t) / P(g_u)^2,
    f_u(x) = x 1[x > u],  g_u(x) = 1[x > u],

evaluated with the plug-in measure have empirical mean zero by
construction; their variance (divisor n) is the pointwise asymptotic
variance of sqrt(n) (e_n(u) - e(u)).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .types import Band, BandConstants, Grid, MefCurve, Sample, make_curve, make_grid

if TYPE_CHECKING:
    from .distributions import DistributionSpec

__all__ = [
    "empirical_mef",
    "empirical_mef_curve",
    "default_grid",
    "theoretical_mef",
    "theoretical_mef_curve",
    "sup_deviation",
    "band_constants",
    "consistency_band",
    "h_u_values",
    "asymptotic_variance",
]


def _exceedances(v: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count and sum of the observations above each threshold u, for
    sorted values v: one reversed cumsum and one searchsorted."""
    suffix = np.empty(v.size + 1)  # suffix[k] = sum of v[k:]
    suffix[-1] = 0.0
    np.cumsum(v[::-1], out=suffix[-2::-1])
    k = np.searchsorted(v, u, side="right")
    return v.size - k, suffix[k]


def _emef(u: np.ndarray, count: np.ndarray, total: np.ndarray, top) -> np.ndarray:
    """e_n at thresholds u from the count and sum of exceedances and the
    sample maximum top. Broadcasts: one sample takes vectors, a block of
    replicates takes one row per replicate and a column of maxima."""
    with np.errstate(invalid="ignore", divide="ignore"):
        e = (total - count * u) / count
    # no exceedance: 0 beyond the maximum, undefined (NaN) at it
    return np.where(count == 0, np.where(u > top, 0.0, np.nan), e)


def _emef_at(sample: Sample, u: np.ndarray) -> np.ndarray:
    v = sample.values
    return _emef(u, *_exceedances(v, u), v[-1])


def empirical_mef(sample: Sample, u: float) -> float:
    """Plug-in mean excess at a single threshold (NaN exactly at the
    sample maximum, 0 beyond it)."""
    return float(_emef_at(sample, np.asarray([float(u)]))[0])


def empirical_mef_curve(sample: Sample, grid: Grid) -> MefCurve:
    values = _emef_at(sample, grid.points)
    meta = f"emef n={sample.n} grid=[{grid.points[0]:.12g},{grid.points[-1]:.12g}]"
    return make_curve(grid, values, meta=meta)


def default_grid(sample: Sample, policy="order-statistics", trim_quantile: float = 0.98) -> Grid:
    """Threshold grid for a sample.

    policy 'order-statistics' (or 'order-stats'): the distinct sorted
    sample values excluding the maximum. An integer m: m equispaced
    points on [min, quantile(trim_quantile)] - the trim keeps the grid
    out of the noisy extreme region.
    """
    distinct = np.unique(sample.values)
    if distinct.size < 2:
        raise DomainError("degenerate sample: all observations equal")
    if isinstance(policy, str):
        if policy not in ("order-statistics", "order-stats"):
            raise DomainError(f"unknown grid policy '{policy}'")
        return make_grid(distinct[:-1])
    m = int(policy)
    if m < 1:
        raise DomainError("linspace grid needs at least one point")
    hi = float(np.quantile(sample.values, trim_quantile))
    lo = sample.min
    if not hi > lo:
        raise DomainError("degenerate sample: trimmed range is empty")
    return make_grid(np.linspace(lo, hi, m))


def theoretical_mef(dist: DistributionSpec, u: float) -> float:
    """e(u) for a registered distribution: the one-point case of
    ``theoretical_mef_curve``, so E[(X - u)^+] by one quadrature over u's
    tail on the far side of the law's centre where the family has no
    closed form."""
    return float(_mef_values(dist, np.array([float(u)]))[0][0])


def theoretical_mef_curve(dist: DistributionSpec, grid: Grid) -> MefCurve:
    """e on a strictly increasing grid.

    Closed form for the exponential, GPD and Pareto families. Otherwise
    E[(X - u)^+] / F_bar(u), both built from the top of the grid down by
    ``dist_tail_moments``: one quadrature over the tail of the top point,
    then one short quadrature per gap, each value a sum of
    nonnegative terms. e = E[X] - u below the support, and 0 from its
    upper end on and wherever F_bar(u) = 0. DomainError for a law without
    a finite mean, NumericError when a quadrature fails.
    """
    values, meta = _mef_values(dist, grid.points)
    return make_curve(grid, values, meta=meta)


def _mef_values(dist: DistributionSpec, u: np.ndarray) -> tuple[np.ndarray, str]:
    """e at thresholds u, and the curve's meta text naming the law."""
    from .distributions import dist_mean, dist_support, dist_tail_moments, format_distribution_spec

    meta = f"mef {format_distribution_spec(dist)}"
    p = dist.as_dict()
    lo, hi = dist_support(dist)
    out = np.zeros(u.size)
    live = u < hi
    if not np.any(live):
        return out, meta
    mean = dist_mean(dist)  # raises for undefined/infinite-mean families
    below = u < lo
    out[below] = mean - u[below]
    inside = live & ~below
    x = u[inside]
    if dist.family == "exponential":
        out[inside] = 1.0 / p["lambda"]
    elif dist.family == "gpd":
        xi, beta = p["xi"], p["beta"]
        out[inside] = (beta + xi * x) / (1.0 - xi)
    elif dist.family == "pareto":
        alpha, lam = p["alpha"], p["lambda"]
        if alpha <= 1:
            raise DomainError("pareto mean excess requires alpha > 1")
        out[inside] = (lam + x) / (alpha - 1.0)
    elif x.size:
        sf, stop_loss = dist_tail_moments(dist, x)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[inside] = np.where(sf > 0.0, stop_loss / sf, 0.0)
    return out, meta


def sup_deviation(a: MefCurve, b: MefCurve) -> float:
    """max_i |a_i - b_i| over the shared grid, skipping undefined points."""
    if a.grid.points.shape != b.grid.points.shape or not np.array_equal(a.grid.points, b.grid.points):
        raise DomainError("sup_deviation requires identical grids")
    return float(_sup_abs(a.values - b.values))


def _sup_abs(diff: np.ndarray) -> np.ndarray:
    """max |diff| over the finite entries of the last axis: one value per
    curve, or one per row of a block of replicate curves."""
    diff = np.abs(diff)
    ok = np.isfinite(diff)
    if not np.all(np.any(ok, axis=-1)):
        raise DomainError("no commonly defined points")
    return np.max(np.where(ok, diff, -np.inf), axis=-1)


def band_constants(u0: float, u1: float, A: float = 1.0, A1: float = 1.0) -> BandConstants:
    return BandConstants(A=float(A), A1=float(A1), u0=float(u0), u1=float(u1))


def consistency_band(
    sample: Sample,
    grid: Grid,
    constants: BandConstants,
    survival_u1: float | None = None,
    mean_abs: float | None = None,
) -> Band:
    """Uniform band around the empirical mean excess curve on [u0, u1].

    Plug-in mode (default): F_bar(u1) estimated by the exceedance
    fraction at u1 and E|X| by the mean of |X_i|. Oracle mode: pass the
    true survival_u1 and mean_abs. Mixing is allowed; each omitted value
    falls back to its plug-in.
    """
    pts = grid.points
    if pts[0] < constants.u0 or pts[-1] > constants.u1:
        raise DomainError("grid must lie inside [u0, u1]")
    if survival_u1 is None:
        survival_u1 = _plug_in_survival(sample.values, constants.u1)
    if mean_abs is None:
        mean_abs = _plug_in_mean_abs(sample.values)
    n = sample.n
    en = _band_en(n, survival_u1, mean_abs, constants)
    curve = empirical_mef_curve(sample, grid)
    half = en / np.sqrt(n)
    lower = curve.values - half
    upper = curve.values + half
    lower.flags.writeable = False
    upper.flags.writeable = False
    return Band(
        curve=curve,
        lower=lower,
        upper=upper,
        en=en,
        n=n,
        constants=constants,
        survival_u1=float(survival_u1),
        mean_abs=float(mean_abs),
    )


def _plug_in_survival(values: np.ndarray, u1: float) -> float:
    return float(np.mean(values > u1))


def _plug_in_mean_abs(values: np.ndarray) -> float:
    return float(np.mean(np.abs(values)))


def _band_en(n: int, survival_u1: float, mean_abs: float, constants: BandConstants) -> float:
    """E_n of the band on n observations; DomainError where it is undefined."""
    if not (0.0 < survival_u1 <= 1.0):
        raise DomainError("band undefined: n too small for interval (no exceedances at u1)")
    if mean_abs < 0:
        raise DomainError("mean_abs must be nonnegative")
    denom = survival_u1 - constants.D1 / np.sqrt(n)
    if denom <= 0.0:
        raise DomainError("band undefined: n too small for interval")
    return float((constants.D2 + constants.D1 * mean_abs / survival_u1) / denom)


def h_u_values(sample: Sample, u: float) -> np.ndarray:
    """Plug-in influence values h_u(X_i); requires an exceedance."""
    x = sample.values
    g = (x > u).astype(float)
    if not np.any(g):
        raise DomainError("h_u_values requires at least one exceedance above u")
    f = x * g
    pg = g.mean()
    pf = f.mean()
    return f / pg - (pf / pg ** 2) * g


def asymptotic_variance(sample: Sample, u: float) -> float:
    """Empirical variance (divisor n) of the influence values: the
    plug-in pointwise asymptotic variance of sqrt(n)(e_n(u) - e(u)).

    A single exceedance gives identically zero influence values, hence
    variance 0 (degenerate but defined); no exceedance is an error.
    """
    h = h_u_values(sample, u)
    return float(np.mean(h * h))  # h has mean 0 by construction
