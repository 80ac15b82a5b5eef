"""Empirical and theoretical mean excess functions, uniform consistency
bands, and the pointwise variance machinery.

The mean excess function of X at threshold u is

    e(u) = E(X - u | X > u) = (1 / F_bar(u)) * int_u^b (x - u) f(x) dx,

b the upper end of the support, set to 0 wherever F_bar(u) = 0. Families
without a closed form take that integral by one adaptive quadrature of
the density (``dist_stop_loss``). The plug-in estimator from a sample is

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

import numpy as np

from .distributions import (
    DistributionSpec,
    dist_mean,
    dist_stop_loss,
    dist_support,
    std_survival,
)
from .errors import DomainError
from .types import Band, BandConstants, Grid, MefCurve, Sample, make_curve, make_grid

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


def _suffix_sums(sample: Sample) -> np.ndarray:
    # suffix[k] = sum of values[k:]
    v = sample.values
    suf = np.zeros(v.size + 1)
    suf[:-1] = np.cumsum(v[::-1])[::-1]
    return suf


def _emef_at(sample: Sample, u: np.ndarray, suffix: np.ndarray) -> np.ndarray:
    v = sample.values
    k = np.searchsorted(v, u, side="right")
    count = v.size - k
    with np.errstate(invalid="ignore", divide="ignore"):
        e = (suffix[k] - count * u) / count
    # no exceedance: 0 beyond the maximum, undefined (NaN) at it
    return np.where(count == 0, np.where(u > v[-1], 0.0, np.nan), e)


def empirical_mef(sample: Sample, u: float) -> float:
    """Plug-in mean excess at a single threshold (NaN exactly at the
    sample maximum, 0 beyond it)."""
    return float(_emef_at(sample, np.asarray([float(u)]), _suffix_sums(sample))[0])


def empirical_mef_curve(sample: Sample, grid: Grid) -> MefCurve:
    values = _emef_at(sample, grid.points, _suffix_sums(sample))
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
    """e(u) for a registered distribution: closed form where the family
    has one, otherwise E[(X - u)^+] / F_bar(u) with the numerator from
    ``dist_stop_loss``, one adaptive quadrature of (x - u) f(x) over the
    support above u. NumericError when the quadrature fails."""
    u = float(u)
    p = dist.as_dict()
    lo, hi = dist_support(dist)
    if u >= hi:
        return 0.0
    mean = dist_mean(dist)  # raises for undefined/infinite-mean families
    if u < lo:
        return mean - u

    if dist.family == "exponential":
        return 1.0 / p["lambda"]
    if dist.family == "gpd":
        xi, beta = p["xi"], p["beta"]
        return (beta + xi * u) / (1.0 - xi)
    if dist.family == "pareto":
        alpha, lam = p["alpha"], p["lambda"]
        if alpha <= 1:
            raise DomainError("pareto mean excess requires alpha > 1")
        return (lam + u) / (alpha - 1.0)

    sf_u = float(std_survival(dist, u))
    if sf_u <= 0.0:
        return 0.0
    return dist_stop_loss(dist, u) / sf_u


def theoretical_mef_curve(dist: DistributionSpec, grid: Grid) -> MefCurve:
    values = np.array([theoretical_mef(dist, u) for u in grid.points])
    from .distributions import format_distribution_spec

    return make_curve(grid, values, meta=f"mef {format_distribution_spec(dist)}")


def sup_deviation(a: MefCurve, b: MefCurve) -> float:
    """max_i |a_i - b_i| over the shared grid, skipping undefined points."""
    if a.grid.points.shape != b.grid.points.shape or not np.array_equal(a.grid.points, b.grid.points):
        raise DomainError("sup_deviation requires identical grids")
    diff = np.abs(a.values - b.values)
    ok = np.isfinite(diff)
    if not np.any(ok):
        raise DomainError("no commonly defined points")
    return float(np.max(diff[ok]))


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
        survival_u1 = float(np.mean(sample.values > constants.u1))
    if mean_abs is None:
        mean_abs = float(np.mean(np.abs(sample.values)))
    if not (0.0 < survival_u1 <= 1.0):
        raise DomainError("band undefined: n too small for interval (no exceedances at u1)")
    if mean_abs < 0:
        raise DomainError("mean_abs must be nonnegative")
    n = sample.n
    root_n = np.sqrt(n)
    denom = survival_u1 - constants.D1 / root_n
    if denom <= 0.0:
        raise DomainError("band undefined: n too small for interval")
    en = (constants.D2 + constants.D1 * mean_abs / survival_u1) / denom
    curve = empirical_mef_curve(sample, grid)
    half = en / root_n
    lower = curve.values - half
    upper = curve.values + half
    lower.flags.writeable = False
    upper.flags.writeable = False
    return Band(
        curve=curve,
        lower=lower,
        upper=upper,
        en=float(en),
        n=n,
        constants=constants,
        survival_u1=float(survival_u1),
        mean_abs=float(mean_abs),
    )


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
