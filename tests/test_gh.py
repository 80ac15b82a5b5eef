"""Tests for the generalized hyperbolic density, its classification of
special and limiting cases, the norming constant, and the mixture
sampler."""

import math

import numpy as np
import pytest
from scipy import integrate

from meanex import (
    DomainError,
    GhParams,
    bessel_k,
    gh_mean,
    gh_norming,
    gh_pdf,
    gh_sample,
    gh_validate,
    gh_variance,
)

# parameter bundles exercised throughout: one per behavior class
HYPERBOLIC = GhParams(1.0, 1.5, -0.5, 0.75, 0.2)
STUDENT_LIKE = GhParams(-2.0, 1e-8, 0.0, 2.0, 0.0)
ASYM_STUDENT = GhParams(-1.278, 0.01186, 0.01186, 0.0766, 1.005)
NIG_A = GhParams(-0.5, 8.03, -1.37, 0.051, 0.0105)
NIG_B = GhParams(-0.5, 7.6, -1.24, 0.052, 0.0103)
GAUSSIAN_LIMIT = GhParams(-0.5, 1e6, 2.0, 3e5, 3.0)
CAUCHY_LIMIT = GhParams(-0.5, 0.0, 0.0, 1.0, 7.0)
SKEW_LAPLACE = GhParams(1.0, 1.1, 0.1, 0.001, 2.0)


# ---------------------------------------------------------------------------
# classification


def test_validate_named_cases():
    assert gh_validate(CAUCHY_LIMIT) == "cauchy"
    assert gh_validate(SKEW_LAPLACE) == "skew-laplace"
    assert gh_validate(GhParams(2.0, 1.0, 2.0, 1.0, 0.0)) == "invalid"


def test_validate_subclasses():
    assert gh_validate(HYPERBOLIC) == "hyperbolic"
    assert gh_validate(NIG_A) == "nig"
    assert gh_validate(GAUSSIAN_LIMIT) == "gaussian"
    assert gh_validate(ASYM_STUDENT) == "skew-student"
    assert gh_validate(GhParams(-2.0, 0.0, 0.0, 2.0, 0.0)) == "student"
    assert gh_validate(GhParams(0.7, 2.0, 0.5, 1.0, 0.0)) == "interior"


def test_validate_tiny_alpha_is_still_interior():
    # alpha = 1e-8 is near the Student limit but inside the domain
    assert gh_validate(STUDENT_LIKE) == "interior"


def test_validate_variance_gamma_needs_zero_delta():
    assert gh_validate(GhParams(2.0, 0.3, 0.1, 0.0, 0.0)) == "variance-gamma"
    # a comfortably positive delta keeps lam > 0 parameters interior
    assert gh_validate(GhParams(2.0, 0.3, 0.1, 2.0, 0.0)) == "interior"


def test_validate_domain_rules():
    # lam = 0 needs delta > 0 and |beta| < alpha
    assert gh_validate(GhParams(0.0, 1.0, 0.0, 0.0, 0.0)) == "invalid"
    # lam < 0 allows |beta| = alpha, lam >= 0 does not
    assert gh_validate(GhParams(1.0, 1.0, 1.0, 1.0, 0.0)) == "invalid"
    assert gh_validate(GhParams(-1.0, 1.0, 1.0, 1.0, 0.0)) == "skew-student"
    # negative alpha or delta is never valid
    assert gh_validate(GhParams(1.0, -1.0, 0.0, 1.0, 0.0)) == "invalid"
    assert gh_validate(GhParams(1.0, 1.0, 0.0, -1.0, 0.0)) == "invalid"
    assert gh_validate(GhParams(float("nan"), 1.0, 0.0, 1.0, 0.0)) == "invalid"


def test_pdf_rejects_invalid_params():
    with pytest.raises(DomainError):
        gh_pdf(GhParams(2.0, 1.0, 2.0, 1.0, 0.0), 0.0)


# ---------------------------------------------------------------------------
# norming constant


def test_norming_reference_value():
    a = gh_norming(GhParams(1.0, 1.0, 0.0, 1.0, 0.0))
    assert a == pytest.approx(0.6627969567182409, rel=1e-10)
    # same quantity from the closed form with beta = 0, delta = alpha = 1
    assert a == pytest.approx(1.0 / (math.sqrt(2.0 * math.pi) * bessel_k(1.0, 1.0)), rel=1e-12)


def test_norming_symmetric_formula():
    # with beta = 0 the constant collapses to the alpha-only expression
    lam, alpha, delta = 0.8, 1.7, 0.6
    a = gh_norming(GhParams(lam, alpha, 0.0, delta, 0.0))
    expect = alpha**lam / (
        math.sqrt(2.0 * math.pi) * alpha ** (lam - 0.5) * delta**lam * bessel_k(lam, delta * alpha)
    )
    assert a == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# density


def test_pdf_evenness():
    params = GhParams(1.0, 1.5, 0.0, 0.75, 0.0)
    for x in (0.3, 1.7):
        assert gh_pdf(params, x) == gh_pdf(params, -x)


def test_pdf_integrates_to_one_hyperbolic():
    sigma = math.sqrt(gh_variance(HYPERBOLIC))
    lo = HYPERBOLIC.mu - 40.0 * sigma
    hi = HYPERBOLIC.mu + 40.0 * sigma
    total, _ = integrate.quad(lambda x: gh_pdf(HYPERBOLIC, x), lo, hi, limit=300)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_pdf_nig_positive_and_unimodal():
    sigma = math.sqrt(gh_variance(NIG_A))
    x = np.linspace(NIG_A.mu - 8.0 * sigma, NIG_A.mu + 8.0 * sigma, 1001)
    y = gh_pdf(NIG_A, x)
    assert np.all(y > 0)
    d = np.diff(y)
    # one sign change in the first difference: rises to the mode, then falls
    signs = np.sign(d[d != 0])
    changes = int(np.sum(signs[1:] != signs[:-1]))
    assert changes == 1


def test_pdf_student_limit_pointwise():
    # tiny alpha approaches the scaled t with nu = -2 lam degrees
    nu = -2.0 * STUDENT_LIKE.lam
    from meanex.gh import _student_pdf

    for x in (-2.0, 0.0, 1.0, 3.0):
        limit = float(_student_pdf(nu, STUDENT_LIKE.mu, STUDENT_LIKE.delta, np.array([x]))[0])
        assert abs(gh_pdf(STUDENT_LIKE, x) - limit) < 1e-3


def test_pdf_cauchy_limit_closed_form():
    from scipy import stats

    for x in (5.0, 7.0, 9.5):
        expect = stats.cauchy.pdf(x, loc=7.0, scale=1.0)
        assert gh_pdf(CAUCHY_LIMIT, x) == pytest.approx(expect, rel=1e-10)


def test_pdf_gaussian_limit_closed_form():
    from scipy import stats

    for x in (2.0, 3.0, 4.0):
        expect = stats.norm.pdf(x, loc=3.0, scale=math.sqrt(0.3))
        assert gh_pdf(GAUSSIAN_LIMIT, x) == pytest.approx(expect, rel=1e-10)


def test_pdf_skew_student_integrates_to_one():
    # |beta| = alpha boundary has its own density branch
    total, _ = integrate.quad(
        lambda x: gh_pdf(ASYM_STUDENT, x),
        ASYM_STUDENT.mu - 60.0,
        ASYM_STUDENT.mu + 60.0,
        limit=400,
    )
    assert total == pytest.approx(1.0, abs=1e-3)


# alpha = beta: the skew-Student class, with a heavy right tail
SKEW_STUDENT = GhParams(-2.0, 0.5, 0.5, 1.0, 0.0)


def test_pdf_skew_student_heavy_side_far_out():
    # the heavy side decays as the power x^(lam - 1) = x^-3; forming
    # beta d - alpha q directly cancelled and gave log f(1e20) = -22.45
    x = np.array([1e10, 1e20, 1e100])
    logf = np.log(gh_pdf(SKEW_STUDENT, x))
    np.testing.assert_allclose(logf + 3.0 * np.log(x), logf[0] + 3.0 * np.log(x[0]), rtol=1e-9)
    assert logf[1] == pytest.approx(-140.93, abs=0.005)
    assert logf[2] == pytest.approx(-693.55, abs=0.005)


@pytest.mark.parametrize("p", [HYPERBOLIC, SKEW_STUDENT, NIG_A, GhParams(0.7, 2.0, 0.5, 1.3, -0.4)], ids=gh_validate)
def test_pdf_finite_far_out(p):
    # sqrt(delta^2 + d^2) overflowed at |d| >= 1e155 and the density was NaN
    assert np.array_equal(gh_pdf(p, np.array([-1e155, 1e155])), [0.0, 0.0])


@pytest.mark.parametrize(
    "p", [HYPERBOLIC, SKEW_STUDENT, NIG_A, GAUSSIAN_LIMIT, CAUCHY_LIMIT, SKEW_LAPLACE, STUDENT_LIKE,
          GhParams(2.0, 1.5, 0.5, 0.0, 0.1), GhParams(-1.5, 0.0, 0.0, 2.0, 0.5)],
    ids=gh_validate,
)
def test_pdf_zero_at_infinity(p):
    assert np.array_equal(gh_pdf(p, np.array([-np.inf, np.inf])), [0.0, 0.0])
    assert gh_pdf(p, np.inf) == 0.0


def test_pdf_matches_scipy_interior():
    stats = pytest.importorskip("scipy.stats")
    p = GhParams(0.7, 2.0, 0.5, 1.3, -0.4)
    ref = stats.genhyperbolic(p=p.lam, a=p.alpha * p.delta, b=p.beta * p.delta, loc=p.mu, scale=p.delta)
    for x in (-2.0, -0.4, 0.3, 1.9):
        assert gh_pdf(p, x) == pytest.approx(float(ref.pdf(x)), rel=1e-9)


# ---------------------------------------------------------------------------
# sampling


def test_sample_symmetric_skewness():
    params = GhParams(1.0, 1.5, 0.0, 0.75, 0.0)
    rng = np.random.default_rng(2024)
    x = gh_sample(params, rng, 1_000_000)
    c = x - x.mean()
    skew = np.mean(c**3) / np.mean(c**2) ** 1.5
    assert abs(skew) < 0.02


def test_sample_gaussian_limit_moments():
    rng = np.random.default_rng(11)
    x = gh_sample(GAUSSIAN_LIMIT, rng, 200_000)
    assert x.mean() == pytest.approx(3.0, rel=0.02)
    assert x.var() == pytest.approx(0.3, rel=0.02)


def test_sample_hyperbolic_ks_against_quadrature_cdf():
    rng = np.random.default_rng(5)
    n = 100_000
    x = np.sort(gh_sample(HYPERBOLIC, rng, n))
    sigma = math.sqrt(gh_variance(HYPERBOLIC))
    grid = np.linspace(HYPERBOLIC.mu - 30.0 * sigma, HYPERBOLIC.mu + 30.0 * sigma, 8001)
    pdf = gh_pdf(HYPERBOLIC, grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    fx = np.interp(x, grid, cdf)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - fx), np.max(fx - (i - 1) / n))
    assert ks < 0.01


def test_sample_moments_match_formulas():
    rng = np.random.default_rng(9)
    x = gh_sample(NIG_B, rng, 400_000)
    m = gh_mean(NIG_B)
    v = gh_variance(NIG_B)
    assert x.mean() == pytest.approx(m, abs=4.0 * math.sqrt(v / x.size))
    assert x.var() == pytest.approx(v, rel=0.03)


def test_sample_deterministic_under_seed():
    a = gh_sample(HYPERBOLIC, np.random.default_rng(3), 100)
    b = gh_sample(HYPERBOLIC, np.random.default_rng(3), 100)
    assert np.array_equal(a, b)


def test_sample_rejects_invalid():
    with pytest.raises(DomainError):
        gh_sample(GhParams(2.0, 1.0, 2.0, 1.0, 0.0), np.random.default_rng(0), 10)


# ---------------------------------------------------------------------------
# moments


def test_mean_and_variance_gaussian_limit():
    assert gh_mean(GAUSSIAN_LIMIT) == pytest.approx(3.0, abs=1e-12)
    assert gh_variance(GAUSSIAN_LIMIT) == pytest.approx(0.3, abs=1e-12)


def test_variance_infinite_for_cauchy():
    assert math.isinf(gh_variance(CAUCHY_LIMIT))
