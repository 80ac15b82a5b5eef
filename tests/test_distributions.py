"""Tests for distribution spec parsing, the family registry, standard
transforms, and the increment-regularity diagnostic."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

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
    gh_variance,
    gig_moment,
    gig_sample,
    make_spec,
    parse_distribution_spec,
    std_cdf,
    std_pdf,
    std_sample,
    std_survival,
    theoretical_mef,
)
from meanex.distributions import FAMILIES, DistributionSpec, _frame, _integrate
from meanex.gh import gh_validate
from meanex.gig import gig_mode, gig_validate

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


def scipy_law(d):
    """A standard family's frozen scipy law, in the parameterization the
    module docstring of meanex.distributions states."""
    p = d.as_dict()
    laws = {
        "gpd": lambda: stats.genpareto(c=p["xi"], scale=p["beta"]),
        "pareto": lambda: stats.lomax(c=p["alpha"], scale=p["lambda"]),
        "exponential": lambda: stats.expon(scale=1.0 / p["lambda"]),
        "weibull": lambda: stats.weibull_min(c=p["tau"], scale=p["beta"] ** (-1.0 / p["tau"])),
        "burr": lambda: stats.burr12(c=p["tau"], d=p["alpha"], scale=p["lambda"] ** (1.0 / p["tau"])),
        "gompertz": lambda: stats.gompertz(c=p["alpha"] / p["lambda"], scale=1.0 / p["lambda"]),
        "gamma": lambda: stats.gamma(a=p["alpha"], scale=1.0 / p["beta"]),
        "beta": lambda: stats.beta(a=p["a"], b=p["b"]),
        "lognormal": lambda: stats.lognorm(s=p["sigma"], scale=math.exp(p["mu"])),
        "normal": lambda: stats.norm(loc=p["mu"], scale=p["sigma"]),
        "laplace": lambda: stats.laplace_asymmetric(kappa=p["tau"], loc=p["mu"], scale=p["sigma"]),
        "student": lambda: stats.t(df=p["nu"], loc=p["mu"]),
        "cauchy": lambda: stats.cauchy(loc=p["mu"], scale=p["delta"]),
    }
    return laws[d.family]()


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


# every parameter's rule, stated apart from the registry, and the values
# each rule refuses with the words of its message
PARAMETER_RULES = {
    "gpd": {"xi": "real", "beta": "positive"},
    "pareto": {"alpha": "positive", "lambda": "positive"},
    "exponential": {"lambda": "positive"},
    "weibull": {"beta": "positive", "tau": "positive"},
    "burr": {"alpha": "positive", "lambda": "positive", "tau": "positive"},
    "gompertz": {"alpha": "positive", "lambda": "positive"},
    "gamma": {"alpha": "positive", "beta": "positive"},
    "beta": {"a": "positive", "b": "positive"},
    "lognormal": {"mu": "real", "sigma": "positive"},
    "normal": {"mu": "real", "sigma": "positive"},
    "laplace": {"mu": "real", "sigma": "positive", "tau": "positive"},
    "student": {"nu": "positive", "mu": "real"},
    "cauchy": {"mu": "real", "delta": "positive"},
    "gh": {"lambda": "real", "alpha": "nonnegative", "beta": "real", "delta": "nonnegative", "mu": "real"},
    "gig": {"lambda": "real", "chi": "nonnegative", "psi": "nonnegative"},
}
REFUSALS = {
    "real": [(math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be finite")],
    "positive": [
        (0.0, "must be positive, got 0"),
        (-1.0, "must be positive, got -1"),
        (math.nan, "must be positive, got nan"),
        (-math.inf, "must be positive, got -inf"),
        (math.inf, "must be finite"),
    ],
    "nonnegative": [
        (-1.0, "must be nonnegative, got -1"),
        (math.nan, "must be nonnegative, got nan"),
        (-math.inf, "must be nonnegative, got -inf"),
        (math.inf, "must be finite"),
    ],
}
REFUSED_PARAMETERS = [
    (text, name, value, words)
    for text in REPRESENTATIVES
    for name, rule in PARAMETER_RULES[parse_distribution_spec(text).family].items()
    for value, words in REFUSALS[rule]
]


def test_parameter_rules_name_every_parameter_in_order():
    assert set(PARAMETER_RULES) == set(FAMILIES)
    for text in REPRESENTATIVES:
        d = parse_distribution_spec(text)
        assert list(PARAMETER_RULES[d.family]) == [name for name, _ in d.params]


@pytest.mark.parametrize(
    "text,name,value,words",
    REFUSED_PARAMETERS,
    ids=[f"{text.split('(')[0]}-{name}-{value:g}" for text, name, value, _ in REFUSED_PARAMETERS],
)
def test_refused_parameter_message(text, name, value, words):
    """Each rule's message, the other parameters valid, from keyword
    parameters and from the text format alike."""
    d = parse_distribution_spec(text)
    params = {**d.as_dict(), name: value}
    expected = f"{d.family} parameter {name} {words}"
    with pytest.raises(DomainError) as err:
        make_spec(d.family, **params)
    assert str(err.value) == expected
    body = ",".join(f"{key}={val!r}" for key, val in params.items())
    with pytest.raises(DomainError) as err:
        parse_distribution_spec(f"{d.family}({body})")
    assert str(err.value) == expected


def test_hand_built_spec_of_unknown_family_is_refused():
    with pytest.raises(InputError) as err:
        std_pdf(DistributionSpec("nosuch", ()), 0.0)
    assert str(err.value) == "unknown family 'nosuch'"


# finite parameters whose law's scale passes the double range: 1 / lambda or
# 1 / beta is inf, or a power or exp of the parameters raises OverflowError
SCALE_OVERFLOWS = [
    "exponential(lambda=1e-320)",
    "gamma(alpha=1,beta=1e-320)",
    "gompertz(alpha=1,lambda=1e-320)",
    "weibull(beta=1e-320,tau=1)",
    "burr(alpha=1,lambda=1e300,tau=0.01)",
    "lognormal(mu=800,sigma=1)",
]


@pytest.mark.parametrize("text", SCALE_OVERFLOWS)
def test_law_whose_scale_overflows_is_refused(text):
    d = parse_distribution_spec(text)
    for use in (lambda: std_sample(d, np.random.default_rng(0), 3), lambda: std_pdf(d, 1.0), lambda: dist_mean(d)):
        with pytest.raises(NumericError) as err:
            use()
        assert str(err.value) == f"{format_distribution_spec(d)}: the law's scale overflows"


# beta^(-1/tau), lambda^(1/tau) and e^mu round to 0: a law with all its mass at 0
SCALE_UNDERFLOWS = [
    "weibull(beta=1e300,tau=0.01)",
    "burr(alpha=1,lambda=1e-300,tau=0.01)",
    "lognormal(mu=-800,sigma=1)",
]


@pytest.mark.parametrize("text", SCALE_UNDERFLOWS)
def test_law_whose_scale_underflows_is_refused(text):
    d = parse_distribution_spec(text)
    for use in (lambda: std_sample(d, np.random.default_rng(0), 3), lambda: std_pdf(d, 1.0), lambda: dist_mean(d)):
        with pytest.raises(NumericError) as err:
            use()
        assert str(err.value) == f"{format_distribution_spec(d)}: the law's scale underflows to 0"


@pytest.mark.parametrize("text", ["gamma(alpha=2,beta=1e308)", "exponential(lambda=1e308)", "lognormal(mu=-700,sigma=1)"])
def test_law_whose_scale_is_small_but_positive_is_kept(text):
    d = parse_distribution_spec(text)
    draws = std_sample(d, np.random.default_rng(0), 3)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)
    assert 0.0 < dist_mean(d) < 1e-300


# 1 / scale passes the double range: e^740, e^720 and 1e310 times the standard density at the
# centre, and 1 / 1.34e-308 = 7.4e307 times lognormal's 39.9 at sigma = 0.01
DENSITY_OVERFLOWS = [
    "lognormal(mu=-740,sigma=1)",
    "lognormal(mu=-720,sigma=1)",
    "normal(mu=0,sigma=1e-310)",
    "lognormal(mu=-708.9,sigma=0.01)",
]


@pytest.mark.parametrize("text", DENSITY_OVERFLOWS)
def test_law_whose_density_overflows_is_refused(text):
    # the density printed inf, or under warnings as errors ended in scipy's "overflow encountered
    # in divide"
    d = parse_distribution_spec(text)
    scale = d.value("sigma") if d.family == "normal" else math.exp(d.value("mu"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for use in (lambda: std_sample(d, np.random.default_rng(0), 3), lambda: std_pdf(d, 1.0), lambda: dist_mean(d)):
            with pytest.raises(NumericError) as err:
                use()
            assert str(err.value) == (f"{format_distribution_spec(d)}: the law's density is not finite at its "
                                      f"centre (scale {scale:.3g})")


@pytest.mark.parametrize("text", ["gamma(alpha=2,beta=1e308)", "exponential(lambda=1e308)",
                                  "lognormal(mu=-708.5,sigma=1)", "normal(mu=0,sigma=6e-309)"])
def test_law_whose_density_is_large_but_finite_is_kept(text):
    # scales of 1e-308 and below, whose densities stay below the largest double
    d = parse_distribution_spec(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = std_pdf(d, dist_ppf(d, 0.5))
        draws = std_sample(d, np.random.default_rng(0), 3)
    assert 1e300 < top < np.inf
    assert np.all(np.isfinite(draws))


@pytest.mark.parametrize("text", ["exponential(lambda=1e-300)", "weibull(beta=1e-300,tau=1)", "lognormal(mu=700,sigma=1)"])
def test_law_whose_scale_is_large_but_finite_is_kept(text):
    d = parse_distribution_spec(text)
    draws = std_sample(d, np.random.default_rng(0), 3)
    assert np.all(np.isfinite(draws)) and np.all(draws > 0)


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
# skew-laplace, skew-student, student, cauchy), two interior laws at large
# alpha delta, and one row per GIG class (interior, gamma, inverse-gamma)
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
def test_edges_of_support_and_unit_interval(text):
    # F and F_bar are 0 or 1 outside the support and at +-inf, and NaN at
    # NaN; q = 0 and q = 1 give the ends of the support, and q outside
    # [0, 1] or NaN gives NaN. Arrays keep their shape, a scalar comes back
    # as a float64, and the points inside reach F as they would alone
    d = parse_distribution_spec(text)
    lo, hi = dist_support(d)
    below = lo - 1.0 if np.isfinite(lo) else -np.inf
    above = hi + 1.0 if np.isfinite(hi) else np.inf
    a, b = std_sample(d, np.random.default_rng(1), 2)
    x = np.array([[below, np.nan, -np.inf, a], [above, np.nan, np.inf, b]])
    for call, outer in ((std_cdf, (0.0, 1.0)), (std_survival, (1.0, 0.0))):
        values = call(d, x)
        assert values.shape == x.shape and values.dtype == np.float64
        assert values[0, [0, 2]].tolist() == [outer[0]] * 2
        assert values[1, [0, 2]].tolist() == [outer[1]] * 2
        assert np.isnan(values[:, 1]).all()
        assert np.all((values[:, 3] > 0.0) & (values[:, 3] < 1.0))
        assert values[:, 3].tobytes() == call(d, x[:, 3]).tobytes()
        for v in (below, above, np.nan, a):
            assert type(call(d, v)) is np.float64
    assert std_cdf(d, np.array([[above]])).shape == (1, 1)
    for call, ends in ((dist_ppf, (lo, hi)), (dist_isf, (hi, lo))):
        assert [call(d, 0.0), call(d, 1.0)] == list(ends)
        assert all(math.isnan(call(d, q)) for q in (1.5, -0.5, np.nan))
    if d.family == "gh":
        assert dist_ppf(d, 0.0) == dist_isf(d, 1.0) == -np.inf
    if d.family == "gig":
        assert (std_cdf(d, -1.0), std_survival(d, -1.0), dist_ppf(d, 0.0), dist_isf(d, 1.0)) == (0.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("text", SAMPLER_CASES)
def test_sampler_matches_scipy_rvs(text):
    # std_sample skips scipy's rvs wrapper; the public rvs is a standard
    # law's oracle. A GH or GIG law has no scipy law: its oracle is its
    # family module's sampler, whose draws test_gig.py checks by KS and by
    # moments
    d = parse_distribution_spec(text)
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        if d.family in ("gh", "gig"):
            want = _in_house(d)[1](rng, 777)
        else:
            want = scipy_law(d).rvs(size=777, random_state=rng)
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
    # GIG(-1/2, chi, psi) is the inverse Gaussian of mean s = sqrt(chi / psi)
    # and shape chi; its survival function, at 60 digits since e^(2 chi / s)
    # overflows doubles, is the oracle for the quantiles
    with mpmath.workdps(60):
        shape, s = mpmath.mpf(9e10), mpmath.sqrt(mpmath.mpf(9e10) / mpmath.mpf(1e12))
        for p in (0.9, 0.5, 1e-6):
            x = mpmath.mpf(dist_isf(d, p))
            r = mpmath.sqrt(shape / x)
            sf = 1 - mpmath.ncdf(r * (x / s - 1)) - mpmath.exp(2 * shape / s) * mpmath.ncdf(-r * (x / s + 1))
            assert float(sf) == pytest.approx(p, rel=1e-9)


# GH laws whose interior terms reach the ends of double range, each with
# the law it equals to double precision, or None where no value is right
EXTREME_GH_LAWS = {
    # alpha delta = 1e200: N(0, 1)
    "gh(lambda=1,alpha=1e100,beta=0,delta=1e100,mu=0)": "normal(mu=0,sigma=1)",
    # alpha^2 and delta^2 overflow: the parent read it as N(0, 1)
    "gh(lambda=1,alpha=1e160,beta=0,delta=1e160,mu=0)": None,
    # K_5(delta gamma) overflows; delta^2 = 1e-160 is below every other term
    "gh(lambda=5,alpha=1,beta=0.5,delta=1e-80,mu=0)": "gh(lambda=5,alpha=1,beta=0.5,delta=0,mu=0)",
    # the symmetric Laplace law of density e^-|x| / 2
    "gh(lambda=1,alpha=1,beta=0,delta=1e-300,mu=0)": "laplace(mu=0,sigma=1,tau=1)",
}


@pytest.mark.parametrize("text", EXTREME_GH_LAWS)
def test_extreme_gh_laws_are_right_or_refused(text):
    # the interior terms of these laws leave double range, where NaN,
    # OverflowError or a RuntimeWarning (an error in this suite) could
    # escape; each call is right or refused
    d = parse_distribution_spec(text)
    same = EXTREME_GH_LAWS[text] and parse_distribution_spec(EXTREME_GH_LAWS[text])
    calls = {
        "mean": dist_mean,
        "sf": lambda law: float(std_survival(law, 0.5)),
        "mef": lambda law: theoretical_mef(law, 0.5),
        "isf": lambda law: dist_isf(law, 0.01),
    }
    for name, call in calls.items():
        try:
            value = call(d)
        except (NumericError, DomainError):
            continue
        assert same, name
        assert value == pytest.approx(call(same), rel=1e-9, abs=1e-15), name
    try:
        x = std_sample(d, np.random.default_rng(3), 20_000)
    except (NumericError, DomainError):
        return
    assert same
    assert x.mean() == pytest.approx(dist_mean(same), abs=4.0 * x.std() / math.sqrt(x.size))
    p = [v for _, v in same.params]
    if same.family == "gh":
        var = gh_variance(GhParams(*p))
    elif same.family == "gig":
        var = gig_moment(*p, 2) - gig_moment(*p, 1) ** 2
    else:
        var = scipy_law(same).var()
    assert x.var() == pytest.approx(var, rel=0.05)


def oracle_frame_fields(d):
    """centre, scale and pole of a GH or GIG law's frame, worked out apart
    from ``gh_bulk`` and ``gig_bulk``: the pole from the GH class and
    lambda, a GH centre as its offset from mu, and a GIG law centred at
    its mode, or at its scale when the mode is 0."""
    p = [v for _, v in d.params]
    if d.family == "gh":
        gh = GhParams(*p)
        kind = gh_validate(gh)
        pole = kind == "variance-gamma" and gh.lam <= 0.5
        if kind in ("variance-gamma", "skew-laplace"):
            return 0.0, 1.0 / gh.alpha, pole
        chi = gh.delta ** 2
        psi = 0.0 if kind in ("student", "cauchy", "skew-student") else gh.alpha ** 2 - gh.beta ** 2
        centre = gh.beta * float(gig_mode(gh.lam, chi, psi))
        return centre, gh.delta / float(np.sqrt(max(1.0, gh.alpha * gh.delta) * max(1.0, -2.0 * gh.lam))), pole
    lam, chi, psi = p
    mode = float(gig_mode(lam, chi, psi))
    scale = mode / float(np.sqrt(0.5 * (psi * mode + chi / mode))) if mode > 0.0 else 2.0 * lam / psi
    return (mode if mode > 0.0 else scale), scale, False


def frame_specs():
    """220 seeded GH and GIG laws, 20 of each GH class (variance-gamma at
    lambda <= 1/2 and > 1/2 apart) and of each GIG class (Gamma with its
    mode at 0 and above 0 apart)."""
    rng = np.random.default_rng(2404)
    u = rng.uniform
    gh_draws = {
        "interior": lambda: (u(-3, 3), 2.0, u(-1.9, 1.9), u(0.01, 3)),
        "hyperbolic": lambda: (1.0, 2.0, u(-1.9, 1.9), u(0.01, 3)),
        "nig": lambda: (-0.5, u(0.5, 80), 0.4 * u(-1, 1), u(0.001, 2)),
        "vg-pole": lambda: (rng.choice([0.5, u(0.01, 0.5)]), u(0.5, 5), 0.4 * u(-1, 1), 0.0),
        "vg-kink": lambda: (u(0.51, 4), u(0.5, 5), 0.4 * u(-1, 1), 0.0),
        "skew-laplace": lambda: (1.0, u(0.5, 5), 0.4 * u(-1, 1), 0.0),
        "student": lambda: (u(-4, -0.6), 0.0, 0.0, u(0.1, 3)),
        "skew-student": lambda: (u(-4, -0.1), *(2 * [u(0.1, 2)]), u(0.1, 3)),
        "cauchy": lambda: (-0.5, 0.0, 0.0, u(0.1, 3)),
    }
    gig_draws = {
        "interior": lambda: (u(-3, 3), 10 ** u(-4, 3), 10 ** u(-4, 3)),
        "gamma-mode-0": lambda: (rng.choice([1.0, u(0.05, 1)]), 0.0, 10 ** u(-2, 2)),
        "gamma": lambda: (u(1.01, 5), 0.0, 10 ** u(-2, 2)),
        "inverse-gamma": lambda: (u(-5, -0.05), 10 ** u(-2, 2), 0.0),
    }
    for draw in gh_draws.values():
        for _ in range(20):
            lam, alpha, beta, delta = draw()
            yield make_spec("gh", **{"lambda": float(lam), "alpha": alpha, "beta": beta, "delta": delta, "mu": u(-1, 1)})
    for draw in gig_draws.values():
        for _ in range(20):
            lam, chi, psi = draw()
            yield make_spec("gig", **{"lambda": float(lam), "chi": chi, "psi": psi})


def test_in_house_frames_match_oracle_rules():
    # gh_bulk and gig_bulk decide the pole and the centre; the oracle
    # works them out from the class and the mode
    classes = set()
    for d in frame_specs():
        frame = _frame(d)
        assert (frame.centre, frame.scale, frame.pole) == oracle_frame_fields(d), d
        p = [v for _, v in d.params]
        if d.family == "gh":
            classes.add((gh_validate(GhParams(*p)), frame.pole))
        else:
            classes.add((gig_validate(*p), gig_mode(*p) > 0.0))
    # the variance-gamma class with and without its pole, Gamma with its mode at 0 and above
    assert len(classes) == 13, classes


@pytest.mark.parametrize("text", IN_HOUSE_LAWS)
def test_in_house_vector_cdf_matches_scalar(text):
    # a vector call sums the gaps of one quadrature walked in from one edge;
    # each value must still be the scalar value
    d = parse_distribution_spec(text)
    draws = std_sample(d, np.random.default_rng(3), 30)
    x = np.concatenate((draws, draws[:3], [np.median(draws)]))
    cdf, sf = std_cdf(d, x), std_survival(d, x)
    order = np.argsort(x)
    assert np.all(np.diff(cdf[order]) >= 0) and np.all(np.diff(sf[order]) <= 0)
    for i in (0, 7, 19, 29, 31, 33):
        assert cdf[i] == pytest.approx(std_cdf(d, x[i]), abs=1e-12)
        assert sf[i] == pytest.approx(std_survival(d, x[i]), abs=1e-12)


def test_zero_width_interval_is_zero_without_quadrature(monkeypatch):
    # an interval of zero width is 0 with no quadrature at all; the root
    # search of a quantile asks for such intervals
    frame = _frame(parse_distribution_spec("gh(lambda=-0.5,alpha=60,beta=-5,delta=0.012,mu=0.0008)"))
    whole = _integrate(frame, [-0.02, 0.0], [0.0, 0.02], ref=[-0.02, 0.0])

    def no_cubature(*args, **kwargs):
        raise AssertionError("cubature called for zero-width intervals")

    with monkeypatch.context() as patch:
        patch.setattr(integrate, "cubature", no_cubature)
        assert _integrate(frame, 0.01, 0.01) == 0.0
        mass, moment = _integrate(frame, [0.01, -0.03], [0.01, -0.03], ref=[0.0, 0.0])
        assert mass.tolist() == moment.tolist() == [0.0, 0.0]
    mixed = _integrate(frame, [-0.02, 0.01, 0.0], [0.0, 0.01, 0.02], ref=[-0.02, 0.01, 0.0])
    for part, want in zip(mixed, whole):  # the masses, then the moments
        assert part[1] == 0.0
        np.testing.assert_allclose(part[[0, 2]], want, rtol=1e-12)
    d = parse_distribution_spec("gh(lambda=-0.5,alpha=61,beta=-5,delta=0.012,mu=0.0008)")
    for q in (1e-6, 0.01, 0.5, 0.99):
        assert float(std_survival(d, dist_isf(d, q))) == pytest.approx(q, rel=1e-8)


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
    # the frame's density is scipy's public pdf in standard coordinates, read at x - loc: scipy's own bits
    d = parse_distribution_spec(text)
    law = scipy_law(d)
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
