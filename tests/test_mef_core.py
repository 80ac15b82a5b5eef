"""Tests for the empirical mean excess function, grids, uniform bands,
and influence-value variance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from meanex import (
    DomainError,
    InputError,
    NumericError,
    asymptotic_variance,
    band_constants,
    consistency_band,
    default_grid,
    dist_mean_abs,
    empirical_mef,
    empirical_mef_curve,
    h_u_values,
    make_grid,
    make_sample,
    make_spec,
    sup_deviation,
    theoretical_mef,
    theoretical_mef_curve,
)
from meanex.distributions import _frame, _integrate, dist_stop_loss, std_survival
from meanex.mef import _emef_at, _exceedances, _suffix_sums
from meanex.ohlcv import log_returns, parse_ohlcv_csv


# ---------------------------------------------------------------------------
# empirical mef


def test_empirical_mef_small_sample():
    s = make_sample([1.0, 2.0, 3.0])
    assert empirical_mef(s, 0.0) == 2.0
    assert empirical_mef(s, 2.0) == 1.0
    assert empirical_mef(s, 10.0) == 0.0


def test_empirical_mef_at_max_is_nan():
    # no exceedance at the sample max, but not beyond it either
    s = make_sample([1.0, 2.0, 3.0])
    assert math.isnan(empirical_mef(s, 3.0))


def test_empirical_mef_curve_matches_pointwise():
    s = make_sample([1.0, 2.0, 3.0])
    curve = empirical_mef_curve(s, make_grid([0.0, 2.0, 10.0]))
    assert curve.values.tolist() == [2.0, 1.0, 0.0]


def test_empirical_mef_strict_exceedance():
    # observations equal to u do not count as exceedances
    s = make_sample([1.0, 1.0, 2.0])
    assert empirical_mef(s, 1.0) == 1.0


def test_empirical_mef_below_min_is_mean_minus_u():
    s = make_sample([2.0, 4.0, 6.0])
    assert empirical_mef(s, -1.0) == pytest.approx(5.0, abs=1e-12)


# dyadic lattice keeps shifts and power-of-two scalings exact in floats,
# so the exceedance set itself cannot flip from rounding
_lattice = st.integers(-200, 200).map(lambda k: k / 4.0)


@given(
    st.lists(_lattice, min_size=2, max_size=30),
    _lattice,
    _lattice,
)
@settings(max_examples=150, deadline=None)
def test_empirical_mef_shift_equivariance(values, u, c):
    s = make_sample(values)
    shifted = make_sample([v + c for v in values])
    a = empirical_mef(s, u)
    b = empirical_mef(shifted, u + c)
    if math.isnan(a):
        assert math.isnan(b)
    else:
        assert b == pytest.approx(a, abs=1e-9)


@given(
    st.lists(_lattice, min_size=2, max_size=30),
    _lattice,
    st.integers(-3, 6).map(lambda k: 2.0**k),
)
@settings(max_examples=150, deadline=None)
def test_empirical_mef_scale_equivariance(values, u, s_factor):
    s = make_sample(values)
    scaled = make_sample([v * s_factor for v in values])
    a = empirical_mef(s, u)
    b = empirical_mef(scaled, u * s_factor)
    if math.isnan(a):
        assert math.isnan(b)
    else:
        assert b == pytest.approx(s_factor * a, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("shift", [0.0, 1e4, 1e8])
def test_empirical_mef_accurate_at_large_offsets(shift):
    # an uncentred suffix sum carried the offset through every partial
    # sum: 1.4e-10 off at 1e4 and 1.9e-6 at 1e8. X - u is exact here
    # (Sterbenz), so the mean of the excesses is a sharp reference.
    s = make_sample(np.random.default_rng(5).exponential(1.0, 100_000) + shift)
    grid = make_grid(shift + np.linspace(0.0, 8.0, 101))
    got = empirical_mef_curve(s, grid).values
    x = s.values
    want = [np.mean(x[x > u] - u) for u in grid.points]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the exceedance kernel: a block of sorted rows, and weighted rows


def oracle_exceedances(v, u):
    """The 1-D form for one sorted sample: the counts above u and the sums
    of v[k:] - c, c = v[n // 2], from np.cumsum of the reversed excesses."""
    c = v[v.size // 2]
    suffix = np.append(np.cumsum((v - c)[::-1])[::-1], 0.0)
    k = np.searchsorted(v, u, side="right")
    return v.size - k, suffix[k], c


def fixture_returns():
    with open("tests/data/synthetic_ohlcv.csv") as f:
        return np.sort(log_returns(parse_ohlcv_csv(f)))


def kernel_samples():
    rng = np.random.default_rng(15)
    return {
        "fixture-499": fixture_returns(),
        "4000-at-1e6": np.sort(rng.standard_normal(4000)) + 1e6,
        "200000": np.sort(rng.exponential(1.0, 200_000)),
    }


@pytest.mark.parametrize("name", ["fixture-499", "4000-at-1e6", "200000"])
def test_unit_rows_give_the_curves_sums_bit_for_bit(name):
    v = kernel_samples()[name]
    assert name != "fixture-499" or v.size == 499
    # every order statistic, points between them, and points past both ends
    u = np.unique(np.concatenate((v, np.linspace(v[0] - 1.0, v[-1] + 1.0, 101))))
    count, total, c = _exceedances(v[None], u)
    want_count, want_total, want_c = oracle_exceedances(v, u)
    assert count.tobytes() == want_count[None].tobytes()
    assert total.tobytes() == want_total[None].tobytes()
    assert c.shape == (1, 1) and c[0, 0] == want_c
    k = np.searchsorted(v, u, side="right")[None]
    summands = np.zeros((3, v.size + 1))
    summands[:, :-1] = np.ones((3, v.size)) * (v - want_c)
    sums, whole = _suffix_sums(summands, k)
    assert sums.shape == (3, u.size)
    for row in sums:
        assert row.tobytes() == want_total.tobytes()
    assert np.all(whole == want_total[0])
    e = empirical_mef_curve(make_sample(v), make_grid(u)).values
    with np.errstate(invalid="ignore", divide="ignore"):
        want_e = np.where(want_count == 0, np.where(u > v[-1], 0.0, np.nan), want_total / want_count - (u - want_c))
    assert e.tobytes() == want_e.tobytes()


def test_block_gives_each_rows_result_bit_for_bit():
    rng = np.random.default_rng(16)
    offsets = np.array([0.0, 1e6, -3e8, 2.5, 0.0])[:, None]
    block = np.sort(rng.standard_t(3.0, (5, 1000)), axis=1) + offsets
    u = np.unique(np.concatenate((block.ravel()[::7], [-4e8, 4e8])))
    count, total, c = _exceedances(block, u)
    e, e_count = _emef_at(block, u)
    assert e_count.tobytes() == count.tobytes()
    for b, row in enumerate(block):
        one = _exceedances(row[None], u)
        assert count[b].tobytes() == one[0][0].tobytes()
        assert total[b].tobytes() == one[1][0].tobytes()
        assert c[b, 0] == one[2][0, 0]
        want_count, want_total, _ = oracle_exceedances(row, u)
        assert count[b].tobytes() == want_count.tobytes() and total[b].tobytes() == want_total.tobytes()
        assert e[b].tobytes() == empirical_mef_curve(make_sample(row), make_grid(u)).values.tobytes()


def test_block_sums_past_the_double_range_name_the_row():
    block = np.array([[0.0, 1.0, 2.0, 3.0], [-9e307, 0.0, 9e307, 9e307]])
    with pytest.raises(NumericError, match="from -9e[+]307 to 9e[+]307, sum past the double range"):
        _exceedances(block, np.array([0.5]))


@pytest.mark.parametrize("law", ["exp", "gpd"])
def test_weighted_rows_equal_the_dense_h_matrix_form(law):
    # one multiplier draw per row xi: sum_i xi_i h_u(X_i) from the kernel's sums
    # of xi (v - c), c = 0, and of xi above each u, against xi @ H.T with H the
    # dense influence values of h_u_values
    rng = np.random.default_rng(17)
    x = rng.exponential(1.0, 2000) if law == "exp" else (rng.random(2000) ** -0.25 - 1.0) / 0.25
    s = make_sample(x)
    v = s.values
    j = np.array([0, 10, 500, 1000, 1900, 1990])
    # three thresholds to a gap: at an order statistic, a quarter and half way to the next, no value between
    gaps = (v[j, None] + np.array([0.0, 0.25, 0.5]) * (v[j + 1] - v[j])[:, None]).ravel()
    u = np.unique(np.concatenate((gaps, np.quantile(v, [0.1, 0.5, 0.9]))))
    assert u[-1] < v[-1]  # every threshold has an exceedance
    xi = np.zeros((40, v.size + 1))  # the last column is the zero past the end
    xi[:, :-1] = rng.standard_normal((40, v.size))
    k = np.searchsorted(v, u, side="right")[None]
    weighted, _ = _suffix_sums(xi * np.append(v, 0.0), k)
    mass, _ = _suffix_sums(xi.copy(), k)
    count, total, c = _exceedances(v[None], u)
    p = count / v.size
    tail_mean = total / count + c
    got = (weighted - tail_mean * mass) / p
    h = np.stack([h_u_values(s, t) for t in u])
    want = xi[:, :-1] @ h.T
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# default grid


def test_default_grid_order_statistics():
    s = make_sample([1.0, 2.0, 2.0, 3.0])
    g = default_grid(s)
    assert g.points.tolist() == [1.0, 2.0]


def test_default_grid_linspace_policy():
    s = make_sample([0.0, 10.0])
    g = default_grid(s, policy=3)
    assert g.points.tolist() == pytest.approx([0.0, 4.9, 9.8], abs=1e-12)


def test_default_grid_degenerate_sample():
    s = make_sample([5.0, 5.0, 5.0])
    with pytest.raises(DomainError, match="degenerate sample"):
        default_grid(s)


def test_grid_order_is_checked_without_differences():
    # neighbours 2e308 apart: their difference overflows, their order does not
    assert make_grid([-1e308, 1e308]).points.tolist() == [-1e308, 1e308]
    assert make_grid([7.0]).points.tolist() == [7.0]
    for points in ([1e308, -1e308], [1.0, 1.0]):
        with pytest.raises(InputError, match="strictly increasing"):
            make_grid(points)


def test_empirical_mef_of_sums_past_the_double_range_raises():
    s = make_sample([-9e307, 0.0, 9e307, 9e307])
    with pytest.raises(NumericError, match="past the double range"):
        empirical_mef(s, 0.0)


# ---------------------------------------------------------------------------
# theoretical mef


def test_theoretical_mef_exponential():
    # memorylessness: constant 1/lambda at every threshold
    d = make_spec("exponential", **{"lambda": 2.0})
    assert theoretical_mef(d, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert theoretical_mef(d, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_theoretical_mef_gpd_at_origin():
    d = make_spec("gpd", xi=0.25, beta=1.0)
    assert theoretical_mef(d, 0.0) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_theoretical_mef_beyond_support_is_zero():
    d = make_spec("beta", a=2.0, b=3.0)
    assert theoretical_mef(d, 1.0) == 0.0
    assert theoretical_mef(d, 2.0) == 0.0


def test_theoretical_mef_below_support_is_mean_minus_u():
    d = make_spec("exponential", **{"lambda": 2.0})
    assert theoretical_mef(d, -1.0) == pytest.approx(1.5, abs=1e-10)


def test_theoretical_mef_gpd_quadrature_agreement():
    # closed form against the quadrature every family without one takes
    d = make_spec("gpd", xi=0.25, beta=1.0)
    for u in np.linspace(0.0, 8.0, 50):
        closed = theoretical_mef(d, float(u))
        quad = dist_stop_loss(d, float(u)) / float(std_survival(d, u))
        assert quad == pytest.approx(closed, abs=1e-6)


@pytest.mark.parametrize("flaw", ["status", "nan", "moment"])
def test_quadrature_failure_raises_numeric_error(monkeypatch, flaw):
    real_cubature = integrate.cubature

    def flawed_cubature(*args, **kwargs):
        res = real_cubature(*args, **kwargs)
        if flaw == "nan":
            res.estimate = res.estimate * math.nan
        elif flaw == "moment":
            # the estimate of a call for masses and moments holds a row of
            # each; only the moments go bad
            if res.estimate.shape[0] == 2:
                res.estimate = res.estimate * np.array([[1.0], [math.nan]])
        else:
            res.status = "not_converged"
        return res

    # a GH law seen nowhere else, mass-checked before the flaw, so the
    # flaw meets the quadratures of the curve and of the law's own survival
    gh = make_spec("gh", **{"lambda": -0.5, "alpha": 3.0, "beta": 0.4, "delta": 1.3, "mu": 0.1})
    std_survival(gh, 0.0)
    monkeypatch.setattr(integrate, "cubature", flawed_cubature)
    d = make_spec("normal", mu=0.0, sigma=1.0)
    with pytest.raises(NumericError):
        theoretical_mef(d, 0.5)
    with pytest.raises(NumericError):
        dist_mean_abs(d)
    grid = make_grid(np.linspace(-1.0, 2.0, 7))
    with pytest.raises(NumericError):
        theoretical_mef_curve(d, grid)
    with pytest.raises(NumericError):
        theoretical_mef_curve(gh, grid)
    # F_bar alone integrates no moment, so the moment flaw leaves it alone
    survival_checks = [
        lambda: std_survival(gh, grid.points),  # a tail, then every gap between points in one call
        lambda: std_survival(gh, 0.5),  # a half-line tail raises like any other interval
        lambda: _integrate(_frame(gh), [0.0, 0.1], [0.1, 0.2]),  # short gaps alone, no cut whose rest could flag them
    ]
    for check in survival_checks:
        if flaw == "moment":
            assert np.all(np.isfinite(check()))
        else:
            with pytest.raises(NumericError):
                check()


def test_fresh_gh_curve_takes_three_quadrature_calls(monkeypatch):
    # the law's mass check, the top threshold's tail and every gap at once,
    # each tail and gap call giving the mass and the moment together
    real_cubature = integrate.cubature
    calls = []

    def counted_cubature(*args, **kwargs):
        calls.append(1)
        return real_cubature(*args, **kwargs)

    monkeypatch.setattr(integrate, "cubature", counted_cubature)
    gh = make_spec("gh", **{"lambda": -0.5, "alpha": 61.7, "beta": -4.3, "delta": 0.0117, "mu": 0.0006})
    theoretical_mef_curve(gh, make_grid(np.linspace(-0.04, 0.05, 101)))
    assert len(calls) == 3


def test_theoretical_mef_curve_shape():
    d = make_spec("exponential", **{"lambda": 1.0})
    g = make_grid([0.0, 1.0, 2.0])
    c = theoretical_mef_curve(d, g)
    assert c.values.shape == (3,)
    assert c.values == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)


# ---------------------------------------------------------------------------
# sup deviation


def test_sup_deviation_example():
    g = make_grid([0.0, 1.0])
    a = empirical_mef_curve(make_sample([1.0, 2.0]), g)
    from meanex import make_curve

    b1 = make_curve(g, [1.0, 2.0])
    b2 = make_curve(g, [1.5, 1.0])
    assert sup_deviation(b1, b2) == 1.0


def test_sup_deviation_skips_undefined_points():
    from meanex import make_curve

    g = make_grid([0.0, 1.0, 2.0])
    a = make_curve(g, [1.0, float("nan"), 3.0])
    b = make_curve(g, [1.5, 100.0, 3.5])
    assert sup_deviation(a, b) == 0.5


def test_sup_deviation_grid_mismatch():
    from meanex import make_curve

    a = make_curve(make_grid([0.0, 1.0]), [1.0, 2.0])
    b = make_curve(make_grid([0.0, 2.0]), [1.0, 2.0])
    with pytest.raises(DomainError):
        sup_deviation(a, b)


def test_sup_deviation_no_common_points():
    from meanex import make_curve

    g = make_grid([0.0, 1.0])
    a = make_curve(g, [float("nan"), float("nan")])
    b = make_curve(g, [1.0, 2.0])
    with pytest.raises(DomainError, match="no commonly defined points"):
        sup_deviation(a, b)


# ---------------------------------------------------------------------------
# band constants


def test_band_constants_symmetric_interval():
    c = band_constants(-1.0, 1.0)
    expect = 2.0 * math.sqrt(math.log(2.0)) + 1.0
    assert c.M1 == 2.0
    assert c.D1 == pytest.approx(expect, abs=1e-12)
    assert c.D2 == pytest.approx(expect, abs=1e-12)


def test_band_constants_wider_interval():
    c = band_constants(0.0, 3.0)
    assert c.M1 == 3.0
    assert c.D2 == pytest.approx(4.144441221904615, abs=1e-12)


def test_band_constants_m1_floor():
    # M1 never drops below 2 even for narrow intervals near zero
    c = band_constants(0.1, 0.2)
    assert c.M1 == 2.0


def test_band_constants_reject_bad_interval():
    with pytest.raises(DomainError):
        band_constants(1.0, 1.0)
    with pytest.raises(DomainError):
        band_constants(0.0, 1.0, A=0.0)


def test_band_constants_scale_with_A():
    base = band_constants(0.0, 1.0, A=1.0, A1=1.0)
    wide = band_constants(0.0, 1.0, A=2.0, A1=1.0)
    assert wide.D1 > base.D1
    assert wide.D2 > base.D2


# ---------------------------------------------------------------------------
# consistency band


def _exp_sample(n, seed=7):
    rng = np.random.default_rng(seed)
    return make_sample(rng.exponential(1.0, n))


def test_band_en_oracle_inputs():
    # closed-form check with survival and mean-absolute supplied directly
    n = 10_000
    consts = band_constants(0.0, 1.0)
    s = _exp_sample(n)
    g = make_grid(np.linspace(0.0, 1.0, 11))
    band = consistency_band(s, g, consts, survival_u1=0.5, mean_abs=1.0)
    assert band.en == pytest.approx(16.89098154783422, abs=1e-10)
    assert band.half_width == pytest.approx(band.en / math.sqrt(n), abs=1e-12)


def test_band_en_formula_matches_definition():
    n = 5000
    consts = band_constants(0.0, 1.5)
    sf, mabs = 0.3, 1.2
    s = _exp_sample(n)
    g = make_grid(np.linspace(0.0, 1.5, 7))
    band = consistency_band(s, g, consts, survival_u1=sf, mean_abs=mabs)
    expect = (consts.D2 + consts.D1 * mabs / sf) / (sf - consts.D1 / math.sqrt(n))
    assert band.en == pytest.approx(expect, abs=1e-12)


def test_band_undefined_when_n_too_small():
    consts = band_constants(0.0, 1.0)
    s = _exp_sample(50)
    g = make_grid(np.linspace(0.0, 1.0, 5))
    # survival exactly at the critical ratio: denominator vanishes
    crit = consts.D1 / math.sqrt(s.n)
    with pytest.raises(DomainError, match="band undefined"):
        consistency_band(s, g, consts, survival_u1=crit, mean_abs=1.0)


def test_band_undefined_without_exceedances_at_u1():
    # every value is at most u1, so the plug-in F_bar(u1) is 0
    s = make_sample([0.2, 0.5, 1.0])
    g = make_grid(np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError, match="no exceedances at u1"):
        consistency_band(s, g, band_constants(0.0, 1.0))


def test_band_symmetry_is_bitwise():
    # both envelopes are the same stored half-width applied to the curve;
    # reconstructing them reproduces the stored arrays bit for bit
    s = _exp_sample(4000)
    consts = band_constants(0.0, 1.0)
    g = make_grid(np.linspace(0.0, 1.0, 21))
    band = consistency_band(s, g, consts)
    half = band.half_width
    assert np.array_equal(band.lower, band.curve.values - half, equal_nan=True)
    assert np.array_equal(band.upper, band.curve.values + half, equal_nan=True)


def test_band_width_non_increasing_in_n():
    consts = band_constants(0.0, 1.0)
    g = make_grid(np.linspace(0.0, 1.0, 5))
    widths = []
    for n in (1000, 4000, 16000):
        band = consistency_band(_exp_sample(n), g, consts, survival_u1=0.5, mean_abs=1.0)
        widths.append(band.half_width)
    assert widths[0] > widths[1] > widths[2]


def test_band_grid_must_lie_in_interval():
    consts = band_constants(0.0, 1.0)
    s = _exp_sample(100)
    g = make_grid([0.0, 2.0])
    with pytest.raises(DomainError):
        consistency_band(s, g, consts, survival_u1=0.5, mean_abs=1.0)


def test_band_plugin_defaults_run():
    s = _exp_sample(20_000)
    consts = band_constants(0.0, 0.5)
    g = make_grid(np.linspace(0.0, 0.5, 11))
    band = consistency_band(s, g, consts)
    assert band.survival_u1 == pytest.approx(math.exp(-0.5), abs=0.02)
    assert band.mean_abs == pytest.approx(1.0, abs=0.05)
    assert np.all(band.upper[np.isfinite(band.upper)] >= band.lower[np.isfinite(band.lower)])


# ---------------------------------------------------------------------------
# influence values and asymptotic variance


def test_h_values_constant_sample():
    s = make_sample([3.0, 3.0, 3.0])
    h = h_u_values(s, 1.0)
    assert h.tolist() == [0.0, 0.0, 0.0]


def test_h_values_single_exceedance():
    s = make_sample([0.0, 2.0])
    h = h_u_values(s, 1.0)
    assert h.tolist() == [0.0, 0.0]


def test_h_values_two_exceedances():
    s = make_sample([0.0, 2.0, 4.0])
    h = h_u_values(s, 1.0)
    assert h.tolist() == pytest.approx([0.0, -1.5, 1.5], abs=1e-12)
    assert asymptotic_variance(s, 1.0) == pytest.approx(1.5, abs=1e-12)


def test_h_values_no_exceedance_is_error():
    s = make_sample([0.0, 1.0])
    with pytest.raises(DomainError):
        h_u_values(s, 5.0)


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=40), st.floats(-12, 9))
@settings(max_examples=150, deadline=None)
def test_h_values_mean_zero(values, u):
    s = make_sample(values)
    if not np.any(s.values > u):
        return
    h = h_u_values(s, u)
    assert abs(float(np.mean(h))) <= 1e-10 * max(1.0, float(np.max(np.abs(h))))


def dense_h_u_values(x, u):
    """The influence values from their definition, over the whole sample:
    f_u / P(g_u) - P(f_u) g_u / P(g_u)^2 with dense indicator vectors."""
    g = (x > u).astype(float)
    f = x * g
    return f / g.mean() - (f.mean() / g.mean() ** 2) * g


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=60), st.floats(-12, 9))
@settings(max_examples=150, deadline=None)
def test_h_values_and_variance_match_dense_oracle(values, u):
    s = make_sample(values)
    if not np.any(s.values > u):
        return
    want = dense_h_u_values(s.values, u)
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(h_u_values(s, u), want, rtol=1e-12, atol=1e-12 * scale)
    var = float(np.mean(want * want))
    assert asymptotic_variance(s, u) == pytest.approx(var, rel=1e-12, abs=1e-12 * scale ** 2)


@pytest.mark.parametrize("q", [0.0, 0.5, 0.9, 0.999])
def test_h_values_and_variance_match_dense_oracle_on_draws(q):
    s = make_sample(np.random.default_rng(8).pareto(3.0, 20_000))
    u = float(np.quantile(s.values, q))
    want = dense_h_u_values(s.values, u)
    np.testing.assert_allclose(h_u_values(s, u), want, rtol=1e-12, atol=1e-12)
    assert asymptotic_variance(s, u) == pytest.approx(float(np.mean(want * want)), rel=1e-12)


def test_asymptotic_variance_degenerate_cases():
    assert asymptotic_variance(make_sample([2.0, 2.0, 2.0]), 1.0) == 0.0
    assert asymptotic_variance(make_sample([0.0, 2.0]), 1.0) == 0.0
