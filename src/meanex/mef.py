"""Empirical and theoretical mean excess functions, uniform consistency
bands, and the pointwise variance machinery.

The mean excess function of X at threshold u is

    e(u) = E(X - u | X > u) = (1 / F_bar(u)) * int_u^b (x - u) f(x) dx,

b the upper end of the support, set to 0 wherever F_bar(u) = 0. The
exponential, GPD and Pareto families have closed forms. Every other
family takes the integral by quadrature of the density, built from the
top of a threshold grid down (``dist_tail_moments``): the top threshold
takes one quadrature over its tail on the far side of the law's centre,
and each lower one adds the integral over the gap to the threshold
above. The integrals of all gaps are one vectorised quadrature, each
gap scaled to a first estimate of its own value. A single threshold is
the one-point case of a grid.

The plug-in estimator from a sample is

    e_n(u) = sum (X_i - u) 1[X_i > u] / sum 1[X_i > u],

with e_n(u) = 0 for u beyond the sample maximum and an undefined marker
(NaN) exactly at the maximum, where the strict inequality leaves no
exceedance. Thresholds tie-break *below* the data: X_i == u does not
count as an exceedance. A Sample is sorted, so the exceedances of u are
the tail v[k:], k = #{X_i <= u}. One kernel, ``_exceedances``, gives
n - k and the sum of v[k:] - c, c = v[n // 2], for each row of a block
of sorted rows: a sample is a block of one row, and the replicate
engine in ``montecarlo`` passes 64 replicates. The centred form
e_n(u) = sum(v[k:] - c) / (n - k) - (u - c) keeps its digits at large
offsets, where an uncentred sum loses them. Its suffix step,
``_suffix_sums``, takes any summands in sorted order with a zero column
past the end, such as rows of multiplier weights times v - c.

The uniform band on [u0, u1] has half-width E_n / sqrt(n) with

    E_n = (D2 + D1 * E|X| / F_bar(u1)) / (F_bar(u1) - D1 / sqrt(n)),

defined only when F_bar(u1) > D1 / sqrt(n); D1, D2 come from the
constant block in BandConstants and scale with the user-supplied
universal constants A, A1 (default 1; the nominal coverage is therefore
configuration-dependent).

The influence values h_u = f_u / P(g_u) - P(f_u) g_u / P(g_u)^2, with
f_u(x) = x 1[x > u] and g_u(x) = 1[x > u], are under the plug-in
measure (x - mean(v[k:])) / p on the tail, p = (n - k) / n, and 0 below
it. Their empirical mean is zero, and their variance (divisor n),
n var(v[k:]) / (n - k), is the pointwise asymptotic variance of
sqrt(n) (e_n(u) - e(u)).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, NumericError
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


def _exceedances(v: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a block v of sorted rows (B, n) and thresholds u (m,): the
    (B, m) counts of each row's values above u, the (B, m) sums of their
    excess over the row's middle value c = v[b, n // 2], and c as a
    (B, 1) column. NumericError when a row's sums leave the double range."""
    n = v.shape[1]
    c = v[:, n // 2, None]
    k = np.array([row.searchsorted(u, side="right") for row in v])
    s = np.empty((len(v), n + 1))
    s[:, n] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(v, c, out=s[:, :n])
        sums, whole = _suffix_sums(s, k)
    bad = np.flatnonzero(~np.isfinite(whole))
    if bad.size:
        b = bad[0]
        raise NumericError(f"the sample's values, from {v[b, 0]:g} to {v[b, -1]:g}, sum past the double range "
                           f"about their middle value {c[b, 0]:g}")
    return n - k, sums, c


def _suffix_sums(s: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sums of s[b, j:] at its indices j = k[b] and its whole
    sum, for summands s (B, n + 1) whose last column is 0, the sum past
    the end, and indices k (B, m), or (1, m) for every row. One reversed
    running sum per row (``np.add.accumulate``), written over s. An
    overflow leaves every later running sum, so the whole sum, inf or
    NaN; the caller sets the error state and checks it."""
    r = s[:, -2::-1]
    np.add.accumulate(r, axis=1, out=r)
    first = np.arange(0, s.size, s.shape[1])[:, None]  # each row's first flat index
    return s.reshape(-1)[k + first], s[:, 0]


def _emef_at(v: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e_n at thresholds u of each sorted row of the block v, and the
    exceedance counts, both (B, m); a sample is the block v[None].
    NumericError when a mean excess is past the double range."""
    count, total, c = _exceedances(v, u)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e = total / count - (u - c)
    # no exceedance: 0 beyond the maximum, undefined (NaN) at it
    e = np.where(count == 0, np.where(u > v[:, -1:], 0.0, np.nan), e)
    if np.isinf(e).any():
        raise NumericError("a mean excess of the sample is past the double range")
    return e, count


def _curve(sample: Sample, grid: Grid, values: np.ndarray) -> MefCurve:
    meta = f"emef n={sample.n} grid=[{grid.points[0]:.12g},{grid.points[-1]:.12g}]"
    return make_curve(grid, values, meta=meta)


def empirical_mef(sample: Sample, u: float) -> float:
    """Plug-in mean excess at a single threshold (NaN exactly at the
    sample maximum, 0 beyond it)."""
    return float(_emef_at(sample.values[None], np.asarray([float(u)]))[0][0, 0])


def empirical_mef_curve(sample: Sample, grid: Grid) -> MefCurve:
    return _curve(sample, grid, _emef_at(sample.values[None], grid.points)[0][0])


# an integer grid policy stops at this sample quantile
_TRIM_QUANTILE = 0.98


def default_grid(sample: Sample, policy="order-statistics") -> Grid:
    """Threshold grid for a sample.

    policy 'order-statistics' (or 'order-stats'): the distinct sorted
    sample values excluding the maximum. An integer m: m equispaced
    points on [min, quantile(0.98)] - the trim keeps the grid out of the
    noisy extreme region.
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
    hi = float(np.quantile(sample.values, _TRIM_QUANTILE))
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
    then one vectorised quadrature of every gap, each value a sum of
    nonnegative terms. e = E[X] - u below the support, and 0 from its
    upper end on and wherever F_bar(u) is 0 or subnormal (below 2.2e-308),
    where quadrature holds S and F_bar only to an absolute 2.2e-308 and
    their ratio means nothing. DomainError for a law without a finite
    mean, NumericError when a quadrature fails or gives a stop loss of 0
    where F_bar(u) is a normal double.
    """
    values, meta = _mef_values(dist, grid.points)
    return make_curve(grid, values, meta=meta)


def _mef_values(dist: DistributionSpec, u: np.ndarray) -> tuple[np.ndarray, str]:
    """e at thresholds u, and the curve's meta text naming the law."""
    from .distributions import _frame, _mean, _tail_moments, dist_support, format_distribution_spec

    meta = f"mef {format_distribution_spec(dist)}"
    p = dist.as_dict()
    lo, hi = dist_support(dist)
    out = np.zeros(u.size)
    live = u < hi
    if not np.any(live):
        return out, meta
    frame = _frame(dist)
    offset = _mean(frame)  # raises for undefined/infinite-mean families; computed once per curve
    mean = offset + frame.loc
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
        out[inside] = (lam + x) / (alpha - 1.0)
    elif x.size:
        sf, stop_loss = _tail_moments(frame, x, offset)
        normal = sf >= np.finfo(float).tiny
        # a law with F_bar(u) > 0 has S(u) > 0: a 0 is a stop loss the quadrature lost
        lost = np.flatnonzero(normal & (stop_loss == 0.0))
        if lost.size:
            i = lost[0]
            raise NumericError(f"{format_distribution_spec(dist)}: the stop loss at u={x[i]:.12g} underflows to 0, "
                               f"where F_bar = {sf[i]:.6g}")
        with np.errstate(invalid="ignore", divide="ignore"):
            out[inside] = np.where(normal, stop_loss / sf, 0.0)
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
    n = sample.n
    # one kernel call gives the curve and, at u1 appended, the plug-in F_bar(u1)
    e, count = _emef_at(sample.values[None], np.append(pts, constants.u1))
    if survival_u1 is None:
        survival_u1 = count[0, -1] / n
    if mean_abs is None:
        mean_abs = np.mean(np.abs(sample.values))
    en = _band_en(n, survival_u1, mean_abs, constants)
    curve = _curve(sample, grid, e[0, :-1])
    half = en / np.sqrt(n)
    lower, upper = curve.values - half, curve.values + half
    lower.flags.writeable = upper.flags.writeable = False
    return Band(curve=curve, lower=lower, upper=upper, en=en, n=n, constants=constants,
                survival_u1=float(survival_u1), mean_abs=float(mean_abs))


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


def _tail(sample: Sample, u: float) -> np.ndarray:
    """The exceedances of u, a tail of the sorted values; DomainError if none."""
    tail = sample.values[np.searchsorted(sample.values, u, side="right"):]
    if tail.size == 0:
        raise DomainError("h_u_values requires at least one exceedance above u")
    return tail


def h_u_values(sample: Sample, u: float) -> np.ndarray:
    """Plug-in influence values h_u(X_i); requires an exceedance. They are
    (x - mean of the tail) / p on the tail of p n exceedances, 0 below."""
    tail = _tail(sample, u)
    h = np.zeros(sample.n)
    h[-tail.size:] = (tail - tail.mean()) / (tail.size / sample.n)
    return h


def asymptotic_variance(sample: Sample, u: float) -> float:
    """Empirical variance (divisor n) of the influence values, n var(tail)
    / tail size: the plug-in pointwise asymptotic variance of
    sqrt(n)(e_n(u) - e(u)). A single exceedance gives identically zero
    influence values, hence variance 0 (degenerate but defined); no
    exceedance is an error."""
    tail = _tail(sample, u)
    return float(sample.n * tail.var() / tail.size)
