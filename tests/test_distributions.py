"""Tests for distribution spec parsing, the family registry, standard
transforms, and the increment-regularity diagnostic."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from meanex import (
    DomainError,
    GhParams,
    InputError,
    NumericError,
    dist_isf,
    dist_mean,
    dist_mean_abs,
    dist_ppf,
    dist_support,
    fdelta_check,
    format_distribution_spec,
    gh_mean,
    gh_sample,
    gig_moment,
    gig_sample,
    make_spec,
    parse_distribution_spec,
    std_cdf,
    std_pdf,
    std_sample,
    std_survival,
)
from meanex.distributions import FAMILIES, _frozen

# one representative parameterization per family
REPRESENTATIVES = [
    "gpd(xi=0.25,beta=1)",
    "pareto(alpha=2.5,lambda=1)",
    "exponential(lambda=2)",
    "weibull(beta=1,tau=1.5)",
    "burr(alpha=2,lambda=1,tau=1.5)",
    "gompertz(alpha=0.5,lambda=1)",
    "gamma(alpha=2,beta=1.5)",
    "beta(a=2,b=3)",
    "lognormal(mu=0,sigma=0.5)",
    "normal(mu=0,sigma=1)",
    "laplace(mu=0,sigma=1,tau=0.5)",
    "student(nu=5,mu=1)",
    "cauchy(mu=0,delta=1)",
    "gh(lambda=1,alpha=1.5,beta=-0.5,delta=0.75,mu=0.2)",
    "gig(lambda=1,chi=1,psi=1)",
]


# ---------------------------------------------------------------------------
# parsing


def test_parse_simple_spec():
    d = parse_distribution_spec("exponential(lambda=2)")
    assert d.family == "exponential"
    assert dict(d.params)["lambda"] == 2.0


def test_parse_alias_and_case():
    d = parse_distribution_spec("Exp(lambda=2)")
    assert d.family == "exponential"


def test_parse_whitespace_tolerance():
    d = parse_distribution_spec("  gpd( xi = 0.25 , beta = 1 )  ")
    assert dict(d.params) == {"xi": 0.25, "beta": 1.0}


@pytest.mark.parametrize("text", REPRESENTATIVES)
def test_parse_format_round_trip(text):
    d = parse_distribution_spec(text)
    again = parse_distribution_spec(format_distribution_spec(d))
    assert again == d


def test_parse_unknown_family():
    with pytest.raises(InputError, match="unknown distribution family"):
        parse_distribution_spec("zeta(s=2)")


def test_parse_names_offending_token():
    with pytest.raises(InputError, match="xi=abc"):
        parse_distribution_spec("gpd(xi=abc,beta=1)")
    with pytest.raises(InputError, match="0.25"):
        parse_distribution_spec("gpd(0.25,beta=1)")


def test_parse_missing_and_extra_parameters():
    with pytest.raises(InputError, match="missing"):
        parse_distribution_spec("gpd(xi=0.25)")
    with pytest.raises(InputError, match="does not take"):
        parse_distribution_spec("exponential(lambda=1,mu=0)")


def test_parse_duplicate_parameter():
    with pytest.raises(InputError, match="duplicate"):
        parse_distribution_spec("gpd(xi=0.25,xi=0.5,beta=1)")


def test_parse_not_a_spec_shape():
    with pytest.raises(InputError):
        parse_distribution_spec("exponential")
    with pytest.raises(InputError):
        parse_distribution_spec("exponential(lambda=2")


def test_make_spec_validates_domains():
    with pytest.raises(DomainError):
        make_spec("exponential", **{"lambda": 0.0})
    with pytest.raises(DomainError):
        make_spec("normal", mu=0.0, sigma=-1.0)


# ---------------------------------------------------------------------------
# registry values


def test_exponential_closed_forms():
    d = make_spec("exponential", **{"lambda": 2.0})
    assert std_cdf(d, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert std_survival(d, math.log(2.0) / 2.0) == pytest.approx(0.5, rel=1e-12)


def test_gpd_survival_closed_form():
    d = make_spec("gpd", xi=0.25, beta=1.0)
    # (1 + 0.25 x)^(-4) at x = 4 gives 2^(-4)
    assert std_survival(d, 4.0) == pytest.approx(0.0625, rel=1e-12)


def test_cauchy_median():
    d = make_spec("cauchy", mu=0.0, delta=1.0)
    assert std_cdf(d, 0.0) == pytest.approx(0.5, rel=1e-12)


def test_dist_mean_values():
    assert dist_mean(make_spec("exponential", **{"lambda": 2.0})) == pytest.approx(0.5, rel=1e-9)
    assert dist_mean(make_spec("gpd", xi=0.25, beta=1.0)) == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_dist_mean_abs_normal():
    d = make_spec("normal", mu=0.0, sigma=1.0)
    assert dist_mean_abs(d) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-9)


@pytest.mark.parametrize(
    "text, expected",
    [
        # all the mass on one side of 0, far from it
        ("normal(mu=10,sigma=0.1)", 10.0),
        ("normal(mu=-10,sigma=0.1)", 10.0),
        ("gh(lambda=-0.5,alpha=50,beta=0,delta=0.01,mu=5)", 5.0),
        # narrower than the unit scale of quad's half-line map
        ("normal(mu=0,sigma=0.0001)", 1e-4 * math.sqrt(2.0 / math.pi)),
        ("normal(mu=0.001,sigma=0.0001)", 0.001),
    ],
)
def test_dist_mean_abs_finds_narrow_mass(text, expected):
    assert dist_mean_abs(parse_distribution_spec(text)) == pytest.approx(expected, rel=1e-8)


def test_dist_mean_abs_narrow_in_house_law_is_right_or_refused():
    # NIG with standard deviation 1e-5, far narrower than quad's unit scale.
    # Oracle: for beta = 0, x dx = q dq turns E|X - mu| into
    # 2 (alpha delta / pi) e^(alpha delta) int_delta^inf K_1(alpha q) dq
    # = (2 delta / pi) e^(alpha delta) K_0(alpha delta); scipy's
    # norminvgauss.expect(abs) misses most of the mass here (1.14e-6).
    alpha, delta = 1e4, 1e-6
    d = parse_distribution_spec(f"gh(lambda=-0.5,alpha={alpha:g},beta=0,delta={delta:g},mu=0)")
    try:
        value = dist_mean_abs(d)
    except NumericError:
        return
    expected = 2.0 * delta / math.pi * special.k0e(alpha * delta)
    assert value == pytest.approx(expected, rel=1e-6)


def test_dist_support():
    lo, hi = dist_support(make_spec("beta", a=2.0, b=3.0))
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = dist_support(make_spec("exponential", **{"lambda": 1.0}))
    assert lo == 0.0
    assert math.isinf(hi)


def test_ppf_isf_consistency():
    d = make_spec("gamma", alpha=2.0, beta=1.5)
    assert dist_ppf(d, 0.9) == pytest.approx(dist_isf(d, 0.1), rel=1e-9)


# ---------------------------------------------------------------------------
# standard transforms across every family


@pytest.mark.parametrize("text", REPRESENTATIVES)
def test_cdf_monotone_onto_unit_interval(text):
    d = parse_distribution_spec(text)
    lo = dist_ppf(d, 0.001)
    hi = dist_isf(d, 0.001)
    x = np.linspace(lo, hi, 1000)
    c = std_cdf(d, x)
    assert np.all(np.diff(c) >= -1e-12)
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert c[0] <= 0.01
    assert c[-1] >= 0.99


@pytest.mark.parametrize("text", REPRESENTATIVES)
def test_survival_complements_cdf(text):
    d = parse_distribution_spec(text)
    for q in (0.2, 0.5, 0.8):
        x = dist_ppf(d, q)
        assert std_cdf(d, x) + std_survival(d, x) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("text", REPRESENTATIVES)
def test_sampler_hits_central_quantiles(text):
    d = parse_distribution_spec(text)
    rng = np.random.default_rng(17)
    x = std_sample(d, rng, 4000)
    frac = float(np.mean(x <= dist_ppf(d, 0.5)))
    assert abs(frac - 0.5) < 0.03


def test_sampler_deterministic():
    d = make_spec("exponential", **{"lambda": 2.0})
    a = std_sample(d, np.random.default_rng(6), 50)
    b = std_sample(d, np.random.default_rng(6), 50)
    assert np.array_equal(a, b)


def test_pdf_positive_where_defined():
    d = make_spec("normal", mu=0.0, sigma=1.0)
    assert std_pdf(d, 0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)


# ---------------------------------------------------------------------------
# increment regularity


def test_fdelta_exponential_bounded_and_decreasing():
    d = make_spec("exponential", **{"lambda": 2.0})
    deltas = [0.1, 0.01, 0.001]
    vals = fdelta_check(d, 0.0, 1.0, deltas)
    for v, delta in zip(vals, deltas):
        assert 0.0 <= v <= 4.0 * delta
    assert vals[0] > vals[1] > vals[2]


def test_fdelta_uniform_is_delta_exactly():
    d = make_spec("beta", a=1.0, b=1.0)
    deltas = [0.1, 0.01]
    vals = fdelta_check(d, 0.2, 0.8, deltas)
    assert vals[0] == pytest.approx(0.1, rel=1e-9)
    assert vals[1] == pytest.approx(0.01, rel=1e-9)


def test_fdelta_output_length():
    d = make_spec("exponential", **{"lambda": 1.0})
    out = fdelta_check(d, 0.0, 2.0, [0.5, 0.25, 0.125, 0.0625])
    assert len(out) == 4


# ---------------------------------------------------------------------------
# GH and GIG: in-house density, mean and sampler under scipy's law machinery

# one row per class gh_validate names (interior, hyperbolic, nig, variance-gamma,
# skew-laplace, skew-student, student, cauchy, gaussian) and per GIG class
# (interior, gamma, inverse-gamma)
IN_HOUSE_LAWS = [
    "gh(lambda=0.7,alpha=2,beta=0.5,delta=1,mu=0)",
    "gh(lambda=1,alpha=1.5,beta=-0.5,delta=0.75,mu=0.2)",
    "gh(lambda=-0.5,alpha=8.03,beta=-1.37,delta=0.051,mu=0.0105)",
    "gh(lambda=2,alpha=1.5,beta=0.5,delta=0,mu=0.1)",
    "gh(lambda=1,alpha=1.1,beta=0.1,delta=0,mu=2)",
    "gh(lambda=-2,alpha=0.5,beta=0.5,delta=1,mu=0)",
    "gh(lambda=-1.5,alpha=0,beta=0,delta=2,mu=0.5)",
    "gh(lambda=-0.5,alpha=0,beta=0,delta=1,mu=0)",
    "gh(lambda=-0.5,alpha=1e6,beta=2,delta=3e5,mu=3)",
    "gh(lambda=1,alpha=1e4,beta=100,delta=1e4,mu=0)",
    "gig(lambda=1,chi=1,psi=1)",
    "gig(lambda=2,chi=0,psi=1)",
    "gig(lambda=-3,chi=2,psi=0)",
]


def _in_house(d):
    """The in-house mean and sampler behind a GH or GIG spec."""
    p = [v for _, v in d.params]
    if d.family == "gh":
        params = GhParams(*p)
        return (lambda: gh_mean(params)), (lambda rng, n: gh_sample(params, rng, n))
    return (lambda: gig_moment(*p, 1)), (lambda rng, n: gig_sample(*p, rng, n))


@pytest.mark.parametrize("text", IN_HOUSE_LAWS)
def test_in_house_law_layer(text):
    d = parse_distribution_spec(text)
    mean, sample = _in_house(d)
    draws = std_sample(d, np.random.default_rng(5), 300)
    assert draws.tobytes() == sample(np.random.default_rng(5), 300).tobytes()
    try:
        expected = mean()
    except DomainError:
        with pytest.raises(DomainError):
            dist_mean(d)
    else:
        assert dist_mean(d) == expected
    for x in np.quantile(draws, [0.1, 0.5, 0.9]):
        sf = std_survival(d, x)
        assert sf + std_cdf(d, x) == pytest.approx(1.0, abs=1e-14)
        assert dist_isf(d, sf) == pytest.approx(x, rel=1e-7, abs=1e-9)


SAMPLER_CASES = list(dict.fromkeys(REPRESENTATIVES + IN_HOUSE_LAWS))


def test_sampler_cases_cover_every_family():
    assert {parse_distribution_spec(t).family for t in SAMPLER_CASES} == set(FAMILIES)


@pytest.mark.parametrize("text", SAMPLER_CASES)
def test_sampler_matches_scipy_rvs(text):
    # std_sample skips scipy's rvs wrapper; the public rvs is the oracle
    d = parse_distribution_spec(text)
    for seed in (0, 1):
        want = _frozen(d).rvs(size=777, random_state=np.random.default_rng(seed))
        assert std_sample(d, np.random.default_rng(seed), 777).tobytes() == want.tobytes()
    assert std_sample(d, np.random.default_rng(0), 0).shape == (0,)
    with pytest.raises(DomainError):
        std_sample(d, np.random.default_rng(0), -1)


def test_near_gaussian_gig_is_right_or_refused():
    # chi psi = 9e22: mean 0.3, standard deviation 5.5e-7, far too narrow
    # for quad to find from the centre
    d = parse_distribution_spec("gig(lambda=-0.5,chi=9e10,psi=1e12)")
    assert dist_mean(d) == gig_moment(-0.5, 9e10, 1e12, 1)
    assert std_sample(d, np.random.default_rng(2), 50).tobytes() == gig_sample(
        -0.5, 9e10, 1e12, np.random.default_rng(2), 50).tobytes()
    m1, m2 = (gig_moment(-0.5, 9e10, 1e12, k) for k in (1, 2))
    sd = math.sqrt(m2 - m1 * m1)
    for z in (-1.0, 0.0, 1.0):
        x = m1 + z * sd
        try:
            sf = std_survival(d, x)
        except NumericError:
            continue
        assert sf == pytest.approx(stats.norm.sf(z), abs=0.01)
    with pytest.raises(NumericError):
        dist_isf(d, 0.5)


@pytest.mark.parametrize("text", IN_HOUSE_LAWS)
def test_in_house_vector_cdf_matches_scalar(text):
    # a vector call sums gap quads walked in from one edge; each value must
    # still be the one-quad scalar value
    d = parse_distribution_spec(text)
    draws = std_sample(d, np.random.default_rng(3), 30)
    x = np.concatenate((draws, draws[:3], [np.median(draws)]))
    cdf, sf = std_cdf(d, x), std_survival(d, x)
    order = np.argsort(x)
    assert np.all(np.diff(cdf[order]) >= 0) and np.all(np.diff(sf[order]) <= 0)
    for i in (0, 7, 19, 29, 31, 33):
        assert cdf[i] == pytest.approx(std_cdf(d, x[i]), abs=1e-12)
        assert sf[i] == pytest.approx(std_survival(d, x[i]), abs=1e-12)


def _skew_student_sf(x_values, alpha=0.5, beta=0.5, delta=1.0, mu=0.0):
    """F_bar of the GH law with lam = -2 and alpha = beta, independent of
    meanex.gh: mpmath at 30 digits over the GH density formula, with
    K_{5/2}(z) = sqrt(pi / (2 z)) e^-z (1 + 3/z + 3/z^2), normalised
    numerically, over pieces that double in length out to infinity."""
    with mpmath.workdps(30):
        a, b, de, m = (mpmath.mpf(v) for v in (alpha, beta, delta, mu))

        def f(x):
            q = mpmath.sqrt(de * de + (x - m) ** 2)
            z = a * q
            return q ** -2.5 * mpmath.exp(b * (x - m) - z) / mpmath.sqrt(z) * (1 + 3 / z + 3 / z ** 2)

        doubling = [2 ** k for k in range(64)]
        total = mpmath.quad(f, [-mpmath.inf] + [-v for v in doubling[7::-1]] + [0] + doubling + [mpmath.inf])
        return [float(mpmath.quad(f, [x * v for v in doubling] + [mpmath.inf]) / total) for x in x_values]


def test_skew_student_survival_far_out():
    # a bare half-line quad that only warned gave 3.1330e-8, 7.710e-11
    # and 8.616e-14 here
    d = parse_distribution_spec("gh(lambda=-2,alpha=0.5,beta=0.5,delta=1,mu=0)")
    x = [1e3, 1e4, 1e5]
    reference = _skew_student_sf(x)
    np.testing.assert_allclose([float(std_survival(d, v)) for v in x], reference, rtol=1e-6)
    np.testing.assert_allclose(std_survival(d, np.array(x)), reference, rtol=1e-6)


@pytest.mark.parametrize("text", [t for t in REPRESENTATIVES if not t.startswith(("gh(", "gig("))])
def test_std_pdf_is_scipy_pdf(text):
    # the density callable skips scipy's argument handling, not its values
    d = parse_distribution_spec(text)
    law = _frozen(d)
    lo, hi = dist_support(d)
    x = np.concatenate((law.ppf(np.linspace(0.001, 0.999, 41)), [lo - 1.0, lo, hi, hi + 1.0, np.nan]))
    x = x[np.isfinite(x) | np.isnan(x)]
    assert np.asarray(std_pdf(d, x)).tobytes() == np.asarray(law.pdf(x)).tobytes()
    for v in x[::10]:
        assert np.asarray(std_pdf(d, v)).tobytes() == np.asarray(law.pdf(v)).tobytes()


def test_skew_student_quantiles_far_out():
    # solved on the log of the small tail: scipy's generic isf(q) solved
    # F(x) = 1 - q and was +inf below q ~ 1e-16
    d = parse_distribution_spec("gh(lambda=-2,alpha=0.5,beta=0.5,delta=1,mu=0)")
    q = [1e-3, 1e-10, 1e-20]
    x = [dist_isf(d, v) for v in q]
    np.testing.assert_allclose(_skew_student_sf(x), q, rtol=1e-6)
    for v in q:
        assert float(std_cdf(d, dist_ppf(d, v))) == pytest.approx(v, rel=1e-6, abs=0.0)


def test_gig_lower_quantiles_near_zero():
    # held to their relative distance from the support's end at 0; scipy's
    # generic ppf, with its absolute tolerance, returned 0 from q = 1e-30
    d = parse_distribution_spec("gig(lambda=2,chi=0,psi=1)")
    for q in (1e-3, 1e-30, 1e-100):
        assert dist_ppf(d, q) == pytest.approx(stats.gamma(2.0, scale=2.0).ppf(q), rel=1e-8, abs=0.0)
