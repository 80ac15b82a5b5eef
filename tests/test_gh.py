"""Tests for the generalized hyperbolic density, its classification of
special and limiting cases, the norming constant, and the mixture
sampler."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

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
from meanex.cli import main

# parameter bundles exercised throughout: one per behavior class
HYPERBOLIC = GhParams(1.0, 1.5, -0.5, 0.75, 0.2)
STUDENT_LIKE = GhParams(-2.0, 1e-8, 0.0, 2.0, 0.0)
ASYM_STUDENT = GhParams(-1.278, 0.01186, 0.01186, 0.0766, 1.005)
NIG_A = GhParams(-0.5, 8.03, -1.37, 0.051, 0.0105)
NIG_B = GhParams(-0.5, 7.6, -1.24, 0.052, 0.0103)
# an interior NIG near the Gaussian limit: mean mu + beta delta / gamma = 3.6,
# variance about delta / alpha = 0.3
NEAR_GAUSSIAN_NIG = GhParams(-0.5, 1e6, 2.0, 3e5, 3.0)
CAUCHY_LIMIT = GhParams(-0.5, 0.0, 0.0, 1.0, 7.0)
SKEW_LAPLACE = GhParams(1.0, 1.1, 0.1, 0.0, 2.0)
# alpha = beta: the skew-Student class, with a heavy right tail
SKEW_STUDENT = GhParams(-2.0, 0.5, 0.5, 1.0, 0.0)
STUDENT = GhParams(-1.5, 0.0, 0.0, 2.0, 0.5)
# one law of each class, ids by gh_validate, and the NIG at large alpha delta
ONE_PER_CLASS = [HYPERBOLIC, SKEW_STUDENT, NIG_A, pytest.param(NEAR_GAUSSIAN_NIG, id="nig-near-gaussian"),
                 CAUCHY_LIMIT, SKEW_LAPLACE, STUDENT_LIKE, GhParams(2.0, 1.5, 0.5, 0.0, 0.1), STUDENT]


# ---------------------------------------------------------------------------
# classification


def test_validate_named_cases():
    assert gh_validate(CAUCHY_LIMIT) == "cauchy"
    assert gh_validate(SKEW_LAPLACE) == "skew-laplace"
    assert gh_validate(GhParams(2.0, 1.0, 2.0, 1.0, 0.0)) == "invalid"


def test_validate_subclasses():
    assert gh_validate(HYPERBOLIC) == "hyperbolic"
    assert gh_validate(NIG_A) == "nig"
    # alpha and delta far out are still one interior law, beta included
    assert gh_validate(NEAR_GAUSSIAN_NIG) == "nig"
    assert gh_validate(ASYM_STUDENT) == "skew-student"
    assert gh_validate(GhParams(-2.0, 0.0, 0.0, 2.0, 0.0)) == "student"
    assert gh_validate(GhParams(0.7, 2.0, 0.5, 1.0, 0.0)) == "interior"


def test_validate_tiny_alpha_is_still_interior():
    # alpha = 1e-8 is near the Student limit but inside the domain
    assert gh_validate(STUDENT_LIKE) == "interior"


def test_validate_variance_gamma_needs_zero_delta():
    assert gh_validate(GhParams(2.0, 0.3, 0.1, 0.0, 0.0)) == "variance-gamma"
    # any positive delta keeps lam > 0 parameters interior, however small
    assert gh_validate(GhParams(2.0, 0.3, 0.1, 2.0, 0.0)) == "interior"
    assert gh_validate(GhParams(1.0, 100.0, 0.0, 9e-4, 0.0)) == "hyperbolic"


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
    for x in (-2.0, 0.0, 1.0, 3.0):
        limit = stats.t.pdf(x, df=nu, loc=STUDENT_LIKE.mu, scale=STUDENT_LIKE.delta / math.sqrt(nu))
        assert abs(gh_pdf(STUDENT_LIKE, x) - limit) < 1e-3


def test_pdf_cauchy_limit_closed_form():
    for x in (5.0, 7.0, 9.5):
        expect = stats.cauchy.pdf(x, loc=7.0, scale=1.0)
        assert gh_pdf(CAUCHY_LIMIT, x) == pytest.approx(expect, rel=1e-10)


def test_pdf_skew_student_integrates_to_one():
    # |beta| = alpha boundary has its own density branch
    total, _ = integrate.quad(
        lambda x: gh_pdf(ASYM_STUDENT, x),
        ASYM_STUDENT.mu - 60.0,
        ASYM_STUDENT.mu + 60.0,
        limit=400,
    )
    assert total == pytest.approx(1.0, abs=1e-3)


def test_pdf_skew_student_heavy_side_far_out():
    # the heavy side decays as the power x^(lam - 1) = x^-3; forming
    # beta d - alpha q directly cancelled and gave log f(1e20) = -22.45
    x = np.array([1e10, 1e20, 1e100])
    logf = np.log(gh_pdf(SKEW_STUDENT, x))
    np.testing.assert_allclose(logf + 3.0 * np.log(x), logf[0] + 3.0 * np.log(x[0]), rtol=1e-9)
    assert logf[1] == pytest.approx(-140.93, abs=0.005)
    assert logf[2] == pytest.approx(-693.55, abs=0.005)


def _mp_pdf(p, x):
    """The density at x from its closed form in 40-digit arithmetic,
    rounded to double: the Student t for alpha = 0, else the GH formula
    with the interior norming constant or its skew-Student limit."""
    with mpmath.workdps(40):
        lam, al, be, de, mu = (mpmath.mpf(v) for v in (p.lam, p.alpha, p.beta, p.delta, p.mu))
        d = mpmath.mpf(x) - mu
        if al == 0:
            nu = -2 * lam
            s = de / mpmath.sqrt(nu)
            return float(mpmath.gamma((nu + 1) / 2) / (mpmath.gamma(nu / 2) * mpmath.sqrt(nu * mpmath.pi) * s)
                         * (1 + (d / s) ** 2 / nu) ** (-(nu + 1) / 2))
        if al == abs(be):
            a = 2 ** (lam + 1) / (mpmath.gamma(-lam) * de ** (2 * lam))
        else:
            gam = mpmath.sqrt(al * al - be * be)
            a = gam ** lam / (de ** lam * mpmath.besselk(lam, de * gam))
        q = mpmath.sqrt(de * de + d * d)
        return float(a / (mpmath.sqrt(2 * mpmath.pi) * al ** (lam - 0.5)) * q ** (lam - 0.5) * mpmath.exp(be * d)
                     * mpmath.besselk(lam - 0.5, al * q))


def test_pdf_interior_at_large_alpha_delta():
    # -alpha q and the norming constant's +delta gamma = 3e8 cancelled,
    # and the density was 5e-8 to 9e-8 off, a staircase in x
    p = GhParams(-0.5, 1e6, 2.0, 300.0, 0.0)
    x = np.array([0.0, 0.01, 0.05])
    reference = [_mp_pdf(p, v) for v in x]
    np.testing.assert_allclose(gh_pdf(p, x), reference, rtol=1e-12, atol=0.0)


def test_pdf_gaussian_limit_closed_form():
    # the NIG near the Gaussian limit is its own interior law, not
    # N(mu, delta / alpha): its density peaks near its mean 3.6, not at mu = 3
    mean = gh_mean(NEAR_GAUSSIAN_NIG)
    sd = math.sqrt(gh_variance(NEAR_GAUSSIAN_NIG))
    x = np.array([mean - sd, mean, mean + sd])
    reference = [_mp_pdf(NEAR_GAUSSIAN_NIG, v) for v in x]
    np.testing.assert_allclose(gh_pdf(NEAR_GAUSSIAN_NIG, x), reference, rtol=1e-12, atol=0.0)
    assert _mp_pdf(NEAR_GAUSSIAN_NIG, 3.6) == pytest.approx(0.728365620393445, rel=1e-12)


def test_compare_at_large_alpha_delta_exits_0(capsys):
    # the staircase density failed the mass check (exit 3)
    spec = "gh(lambda=-0.5,alpha=1e6,beta=2,delta=300,mu=0)"
    code = main(["compare", "--data", "tests/data/synthetic_ohlcv.csv", "--log-returns", "--dist", spec])
    assert code == 0, capsys.readouterr().err
    assert "sup_deviation = " in capsys.readouterr().out


def test_compare_near_delta_zero_exits_0(capsys):
    # a return-scale hyperbolic law with delta = 9e-4 is its own law, not
    # the variance-gamma law of delta = 0 (density at mu 46.26, not 50)
    spec = "gh(lambda=1,alpha=100,beta=0,delta=0.0009,mu=0)"
    code = main(["compare", "--data", "tests/data/synthetic_ohlcv.csv", "--log-returns", "--dist", spec])
    assert code == 0, capsys.readouterr().err
    assert "sup_deviation = " in capsys.readouterr().out


def test_gh_pdf_out_of_double_range_exits_3(capsys):
    # alpha^2 and delta^2 overflow; the law was N(0, 1) at exit 0
    code = main(["gh-pdf", "--dist", "gh(lambda=1,alpha=1e160,beta=0,delta=1e160,mu=0)"])
    assert code == 3
    assert "out of double range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p",
    [HYPERBOLIC, SKEW_STUDENT, NIG_A, GhParams(0.7, 2.0, 0.5, 1.3, -0.4),
     pytest.param(STUDENT_LIKE, id="interior-student-like"), CAUCHY_LIMIT, STUDENT,
     pytest.param(GhParams(-0.3, 0.0, 0.0, 1.0, 0.0), id="student-nu-0.6")],
    ids=gh_validate,
)
def test_pdf_finite_far_out(p):
    # sqrt(delta^2 + d^2) overflowed at |d| >= 1e155 and the density was
    # NaN; the Student classes squared x there and raised on overflow. A
    # power tail of index below about 1.1 is still above 0 in double.
    x = np.array([-1e155, 1e155])
    reference = [_mp_pdf(p, v) for v in x]
    np.testing.assert_allclose(gh_pdf(p, x), reference, rtol=1e-10, atol=0.0)


def test_pdf_power_tail_far_out_is_not_zero():
    # the reference values the finite-far-out test checks are above 0 for
    # these laws, so it checks a value, not only that one is finite
    assert _mp_pdf(CAUCHY_LIMIT, 1e155) == pytest.approx(1.0 / (math.pi * 1e155) / 1e155, rel=1e-12)
    assert _mp_pdf(GhParams(-0.3, 0.0, 0.0, 1.0, 0.0), 1e155) > 1e-260


@pytest.mark.parametrize("p", ONE_PER_CLASS, ids=gh_validate)
def test_pdf_zero_at_infinity(p):
    assert np.array_equal(gh_pdf(p, np.array([-np.inf, np.inf])), [0.0, 0.0])
    assert gh_pdf(p, np.inf) == 0.0


@pytest.mark.parametrize("p", ONE_PER_CLASS, ids=gh_validate)
def test_pdf_scalar_matches_array_bitwise(p):
    # a quadrature node is a scalar and std_pdf / gh-pdf pass arrays: each
    # scalar call gives the bits of its element of one array call, out to
    # +-inf and past the Bessel kernel's 1e8 cutoff
    x = [-np.inf, -1e155, p.mu - 3.0, p.mu - 0.1, p.mu, p.mu + 1e-9, p.mu + 0.37, p.mu + 2.5, 1e155, np.inf]
    if p.alpha > 0:
        x += [p.mu - 2e8 / p.alpha, p.mu + 2e8 / p.alpha]
    scalars = [gh_pdf(p, v) for v in x]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(np.array(scalars).view(np.uint64), gh_pdf(p, np.array(x)).view(np.uint64))


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
    # the draws keep beta's shift of the mean: 3.6, not mu = 3
    rng = np.random.default_rng(11)
    x = gh_sample(NEAR_GAUSSIAN_NIG, rng, 200_000)
    m, v = gh_mean(NEAR_GAUSSIAN_NIG), gh_variance(NEAR_GAUSSIAN_NIG)
    assert x.mean() == pytest.approx(m, abs=4.0 * math.sqrt(v / x.size))
    assert x.var() == pytest.approx(v, rel=0.02)


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
    # NIG closed forms: mean mu + beta delta / gamma, variance delta alpha^2 / gamma^3
    p = NEAR_GAUSSIAN_NIG
    gamma = math.sqrt(p.alpha ** 2 - p.beta ** 2)
    assert gh_mean(p) == pytest.approx(p.mu + p.beta * p.delta / gamma, rel=1e-12)
    assert gh_variance(p) == pytest.approx(p.delta * p.alpha ** 2 / gamma ** 3, rel=1e-12)


def test_variance_infinite_for_cauchy():
    assert math.isinf(gh_variance(CAUCHY_LIMIT))
