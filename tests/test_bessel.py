"""Tests for the modified Bessel function of the second kind: closed
half-integer forms and mpmath at half-integer orders, symmetry in the
order, the three-term recurrence, and agreement with the integral
definition."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from meanex import DomainError, NumericError, bessel_k, bessel_k_scaled


def k_by_quadrature(order, x):
    # integral representation over cosh, independent of the implementation
    val, _ = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(order * t),
        0.0,
        60.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    return val


def test_half_order_closed_form():
    for x in (0.1, 1.0, 10.0):
        expect = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel_k(0.5, x) == pytest.approx(expect, rel=1e-10)


def test_three_halves_order_closed_form():
    for x in (0.1, 1.0, 10.0):
        expect = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * (1.0 + 1.0 / x)
        assert bessel_k(1.5, x) == pytest.approx(expect, rel=1e-10)


def test_order_one_reference_value():
    assert bessel_k(1.0, 1.0) == pytest.approx(0.6019072301972346, rel=1e-10)


def test_symmetry_specific_pair():
    assert bessel_k(2.3, 0.7) == pytest.approx(bessel_k(-2.3, 0.7), rel=1e-12)


def test_symmetry_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        lam = float(rng.uniform(-5.0, 5.0))
        x = float(rng.uniform(0.05, 20.0))
        assert bessel_k(lam, x) == pytest.approx(bessel_k(-lam, x), rel=1e-12)


def test_three_term_recurrence():
    # K_{lam+1} = K_{lam-1} + (2 lam / x) K_lam
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = float(rng.uniform(-3.0, 3.0))
        x = float(rng.uniform(0.1, 15.0))
        lhs = bessel_k(lam + 1.0, x)
        rhs = bessel_k(lam - 1.0, x) + (2.0 * lam / x) * bessel_k(lam, x)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_matches_integral_definition():
    for lam in (0.0, 0.5, 1.0, 2.7, -1.3):
        for x in (0.2, 1.0, 3.0):
            assert bessel_k(lam, x) == pytest.approx(k_by_quadrature(lam, x), rel=1e-9)


def test_half_integer_orders_against_mpmath():
    # kv alone underflows to 0 from x ~ 697.9; K_{1/2}(700) = 4.67e-306
    with mpmath.workdps(40):
        for order in np.arange(0.5, 30.0, 1.0):
            for x in np.geomspace(1e-5, 700.0, 25):
                exact = mpmath.besselk(mpmath.mpf(float(order)), mpmath.mpf(float(x)))
                got = bessel_k(float(order), float(x))
                assert abs(got - exact) <= 1e-13 * exact, (order, x)


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_k(1.0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(1.0, -2.0)
    with pytest.raises(DomainError):
        bessel_k(float("nan"), 1.0)


def test_overflow_raises_range_error():
    # small argument with large order blows past the double range
    with pytest.raises(NumericError, match="range"):
        bessel_k(200.0, 1e-4)
    # K = 2.6e307 is representable, but scipy's kv reports overflow from
    # about 2.5e303: "range" starts there, as the docstring says
    with pytest.raises(NumericError, match="range"):
        bessel_k(41.5, 1.148e-6)


def test_scaled_kernel_matches_unscaled():
    x = np.array([0.5, 1.0, 5.0])
    scaled = bessel_k_scaled(1.3, x)
    for xi, si in zip(x, scaled):
        assert si == pytest.approx(math.exp(xi) * bessel_k(1.3, float(xi)), rel=1e-12)


def test_scaled_kernel_finite_deep_in_tail():
    # e^x K(x) stays representable where the plain value underflows
    out = bessel_k_scaled(0.5, np.array([800.0]))
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(math.sqrt(math.pi / 1600.0), rel=1e-10)


def test_scaled_kernel_rejects_nonpositive():
    for x in (np.array([1.0, 0.0]), 0.0, -1.0, np.float64(-0.0), np.array(-2.0), np.array([[3.0], [0.0]])):
        with pytest.raises(DomainError):
            bessel_k_scaled(1.0, x)


def test_scaled_kernel_scalar_is_its_array_element():
    # the x > 0 and asymptotic-branch tests take another route on a 0-d x
    x = np.array([1e-3, 0.7, 1e8, 2e8, 1e12])
    for order in (0.2, 1.3, 4.5):
        vec = bessel_k_scaled(order, x)
        for xi, vi in zip(x, vec):
            assert bessel_k_scaled(order, float(xi)).tobytes() == vi.tobytes()
