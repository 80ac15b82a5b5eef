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
from meanex.distributions import dist_stop_loss, std_survival


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


@pytest.mark.parametrize("flaw", ["ier", "nan"])
def test_quadrature_failure_raises_numeric_error(monkeypatch, flaw):
    real_quad = integrate.quad

    def flawed_quad(*args, **kwargs):
        out = real_quad(*args, **kwargs)
        if flaw == "nan":
            return (math.nan,) + tuple(out[1:])
        if kwargs.get("full_output"):  # quad's report of ier != 0
            return tuple(out[:3]) + ("The maximum number of subdivisions (400) has been achieved.",)
        return out

    # a GH law seen nowhere else, mass-checked before the flaw, so the
    # flaw meets the quads of the curve and of the law's own survival
    gh = make_spec("gh", **{"lambda": -0.5, "alpha": 3.0, "beta": 0.4, "delta": 1.3, "mu": 0.1})
    std_survival(gh, 0.0)
    monkeypatch.setattr(integrate, "quad", flawed_quad)
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
    with pytest.raises(NumericError):  # a tail quad, then one per gap between points
        std_survival(gh, grid.points)
    with pytest.raises(NumericError):  # a half-line tail quad raises like any other
        std_survival(gh, 0.5)


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


def test_asymptotic_variance_degenerate_cases():
    assert asymptotic_variance(make_sample([2.0, 2.0, 2.0]), 1.0) == 0.0
    assert asymptotic_variance(make_sample([0.0, 2.0]), 1.0) == 0.0
