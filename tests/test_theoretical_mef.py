"""theoretical_mef against independent oracles along the whole tail of
every registered family, including one GH law per class that
gh_validate names and the GIG interior and boundaries.

Oracles are closed forms where the law has one. Otherwise scipy's
``expect``: conditional on X > u for scipy's own laws, and over the
normal mean-variance mixture (the mixing law from scipy, the normal
partial expectation in closed form) for the GH classes. The scipy
oracles are used only up to the 1 - 1e-3 quantile; beyond it their own
quadrature drifts (about 2% for Student nu=1.5 at 1 - 1e-6), so the far
tail is held to the closed forms and the invariants e(u) >= 0 and
u + e(u) non-decreasing.
"""

import math

import numpy as np
import pytest
from scipy import special, stats

from meanex import (
    DomainError,
    dist_isf,
    gh_validate,
    GhParams,
    make_spec,
    parse_distribution_spec,
    theoretical_mef,
)
from meanex.distributions import FAMILIES

LEVELS = (0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1 - 1e-4, 1 - 1e-5, 1 - 1e-6)
EXPECT_MAX_LEVEL = 1 - 1e-3


# ---------------------------------------------------------------------------
# closed forms: e(u) as a function of the spec's parameters


def _student(nu, mu, scale=1.0):
    def e(u):
        z = (u - mu) / scale
        ratio = stats.t.pdf(z, nu) / stats.t.sf(z, nu)
        return scale * ((nu + z * z) / (nu - 1.0) * ratio - z)
    return e


def _normal(mu, sigma):
    def e(u):
        z = (u - mu) / sigma
        return sigma * math.exp(stats.norm.logpdf(z) - stats.norm.logsf(z)) - (u - mu)
    return e


def _gamma(shape, rate):
    # E[X; X > u] = (shape / rate) P(Gamma(shape + 1) > u)
    return lambda u: shape / rate * special.gammaincc(shape + 1, rate * u) / special.gammaincc(shape, rate * u) - u


def _inverse_gamma(shape, scale):
    # E[X; X > u] = scale / (shape - 1) P(InvGamma(shape - 1) > u)
    def e(u):
        upper = stats.invgamma.sf(u, shape - 1.0, scale=scale)
        return scale / (shape - 1.0) * upper / stats.invgamma.sf(u, shape, scale=scale) - u
    return e


def _weibull(beta, tau):
    # X^tau ~ Exp(beta): E[X; X > u] = beta^(-1/tau) Gamma(1 + 1/tau, beta u^tau)
    def e(u):
        a, t = 1.0 + 1.0 / tau, beta * u ** tau
        return beta ** (-1.0 / tau) * special.gamma(a) * special.gammaincc(a, t) / math.exp(-t) - u
    return e


def _beta(a, b):
    return lambda u: a / (a + b) * special.betaincc(a + 1, b, u) / special.betaincc(a, b, u) - u


def _lognormal(mu, sigma):
    def e(u):
        z = (math.log(u) - mu) / sigma
        return math.exp(mu + 0.5 * sigma * sigma) * stats.norm.sf(z - sigma) / stats.norm.sf(z) - u
    return e


def _laplace_tails(params: GhParams):
    """GH with delta = 0 and lam in {1, 2}, where K_{lam-1/2} is
    elementary: the density is proportional to p(|y|) exp(beta y - alpha |y|),
    y = x - mu, with p(s) = 1 at lam = 1 and s + 1/alpha at lam = 2. Each
    side is an exponential tail with closed partial moments."""
    r, l = params.alpha - params.beta, params.alpha + params.beta

    def side(rate, w, k):
        # int_w^inf (s - w)^k p(s) exp(-rate (s - w)) ds
        if params.lam == 1:
            return math.factorial(k) / rate ** (k + 1)
        c = w + 1.0 / params.alpha
        return math.factorial(k + 1) / rate ** (k + 2) + c * math.factorial(k) / rate ** (k + 1)

    norm = side(r, 0.0, 0) + side(l, 0.0, 0)
    mean = (side(r, 0.0, 1) - side(l, 0.0, 1)) / norm

    def e(u):
        v = u - params.mu
        if v >= 0:
            return side(r, v, 1) / side(r, v, 0)
        w = -v  # (Y - v)^+ = (Y - v) + (v - Y)^+
        left = math.exp(-l * w) / norm
        return (mean - v + left * side(l, w, 1)) / (1.0 - left * side(l, w, 0))
    return e


# ---------------------------------------------------------------------------
# scipy oracles


_TIGHT = dict(epsabs=1e-13, epsrel=1e-10, limit=200)


def _conditional(law):
    return lambda u: law.expect(lambda x: x - u, lb=u, conditional=True, **_TIGHT)


def _gh_mixture(params: GhParams):
    """E[(X - u)^+] / P(X > u) with X = mu + beta W + sqrt(W) Z given W,
    averaged over scipy's law of the mixing variable W."""
    lam, chi, psi = params.lam, params.delta ** 2, params.alpha ** 2 - params.beta ** 2
    if psi == 0.0:
        mixing = stats.invgamma(-lam, scale=0.5 * chi)
    else:
        mixing = stats.geninvgauss(lam, math.sqrt(chi * psi), scale=math.sqrt(chi / psi))

    def e(u):
        def d(w):
            return (params.mu + params.beta * w - u) / math.sqrt(w)

        excess = mixing.expect(lambda w: math.sqrt(w) * (stats.norm.pdf(d(w)) + d(w) * stats.norm.cdf(d(w))), **_TIGHT)
        return excess / mixing.expect(lambda w: stats.norm.cdf(d(w)), **_TIGHT)
    return e


# spec -> (far-tail closed form or None, scipy oracle or None); "undefined"
# marks laws without a finite mean
CASES = {
    "gpd(xi=0.25,beta=1)": (lambda u: (1.0 + 0.25 * u) / 0.75, None),
    "pareto(alpha=2.5,lambda=1)": (lambda u: (1.0 + u) / 1.5, None),
    "exponential(lambda=2)": (lambda u: 0.5, None),
    "weibull(beta=1,tau=1.5)": (_weibull(1.0, 1.5), None),
    "burr(alpha=1.5,lambda=1,tau=1)": (lambda u: (1.0 + u) / 0.5, None),  # Lomax
    "burr(alpha=2,lambda=1,tau=1.5)": (None, _conditional(stats.burr12(c=1.5, d=2.0))),
    "gompertz(alpha=0.5,lambda=1)": (None, _conditional(stats.gompertz(c=0.5))),
    "gamma(alpha=2,beta=1.5)": (_gamma(2.0, 1.5), None),
    "beta(a=2,b=3)": (_beta(2.0, 3.0), None),
    "lognormal(mu=0,sigma=0.5)": (_lognormal(0.0, 0.5), None),
    "normal(mu=0,sigma=1)": (_normal(0.0, 1.0), None),
    "laplace(mu=0,sigma=1,tau=0.5)": (None, _conditional(stats.laplace_asymmetric(kappa=0.5))),
    "student(nu=1.5,mu=0)": (_student(1.5, 0.0), None),
    "student(nu=5,mu=1)": (_student(5.0, 1.0), None),
    "cauchy(mu=0,delta=1)": "undefined",
    "gh(lambda=0.7,alpha=2,beta=0.5,delta=1,mu=0)": (None, _gh_mixture(GhParams(0.7, 2.0, 0.5, 1.0, 0.0))),
    "gh(lambda=1,alpha=1.5,beta=-0.5,delta=0.75,mu=0.2)": (None, _gh_mixture(GhParams(1.0, 1.5, -0.5, 0.75, 0.2))),
    "gh(lambda=-0.5,alpha=8.03,beta=-1.37,delta=0.051,mu=0.0105)": (
        None, _gh_mixture(GhParams(-0.5, 8.03, -1.37, 0.051, 0.0105))),
    "gh(lambda=2,alpha=1.5,beta=0.5,delta=0,mu=0.1)": (_laplace_tails(GhParams(2.0, 1.5, 0.5, 0.0, 0.1)), None),
    "gh(lambda=1,alpha=1.1,beta=0.1,delta=0,mu=2)": (_laplace_tails(GhParams(1.0, 1.1, 0.1, 0.0, 2.0)), None),
    "gh(lambda=-2,alpha=0.5,beta=0.5,delta=1,mu=0)": (None, _gh_mixture(GhParams(-2.0, 0.5, 0.5, 1.0, 0.0))),
    "gh(lambda=-1.5,alpha=0,beta=0,delta=2,mu=0.5)": (_student(3.0, 0.5, scale=2.0 / math.sqrt(3.0)), None),
    "gh(lambda=-0.5,alpha=0,beta=0,delta=1,mu=0)": "undefined",
    "gh(lambda=-0.5,alpha=1e6,beta=2,delta=3e5,mu=3)": (_normal(3.0, math.sqrt(0.3)), None),
    "gig(lambda=1,chi=1,psi=1)": (None, _conditional(stats.geninvgauss(1.0, 1.0))),
    "gig(lambda=2,chi=0,psi=1)": (_gamma(2.0, 0.5), None),
    "gig(lambda=-3,chi=2,psi=0)": (_inverse_gamma(3.0, 1.0), None),
}


def test_cases_cover_every_family_and_gh_class():
    specs = [parse_distribution_spec(text) for text in CASES]
    assert {d.family for d in specs} == set(FAMILIES)
    gh_classes = {gh_validate(GhParams(*(v for _, v in d.params))) for d in specs if d.family == "gh"}
    assert gh_classes == {
        "interior", "hyperbolic", "nig", "variance-gamma", "skew-laplace",
        "skew-student", "student", "cauchy", "gaussian",
    }


@pytest.mark.parametrize("text", list(CASES))
def test_theoretical_mef_against_oracles(text):
    d = parse_distribution_spec(text)
    if CASES[text] == "undefined":
        with pytest.raises(DomainError):
            theoretical_mef(d, dist_isf(d, 0.5))
        return
    closed, expect = CASES[text]
    thresholds = [dist_isf(d, 1.0 - q) for q in LEVELS]
    values = [theoretical_mef(d, u) for u in thresholds]
    for q, u, e in zip(LEVELS, thresholds, values):
        assert e >= 0.0, (q, u, e)
        if closed is not None:
            assert e == pytest.approx(closed(u), rel=1e-6), (q, u)
        if expect is not None and q <= EXPECT_MAX_LEVEL:
            assert e == pytest.approx(expect(u), rel=1e-6), (q, u)
    tail_means = np.add(thresholds, values)
    assert np.all(np.diff(tail_means) >= -1e-9 * np.abs(tail_means[1:])), tail_means


@pytest.mark.parametrize(
    "text, u, expected",
    [
        ("student(nu=1.5,mu=0)", 1.0, 2.98840186),
        ("student(nu=1.5,mu=0)", 10.0, 20.1280743),
        ("burr(alpha=1.5,lambda=1,tau=1)", 1.0, 4.0),
    ],
)
def test_theoretical_mef_heavy_tail_rows(text, u, expected):
    # integrating only up to a far quantile lost the whole tail here
    assert theoretical_mef(parse_distribution_spec(text), u) == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize(
    "text, u",
    [
        # mass far above u: every node of the quadrature above u misses it
        ("normal(mu=5,sigma=0.1)", 0.0),
        ("normal(mu=50,sigma=0.1)", 0.0),
        ("gh(lambda=-0.5,alpha=50,beta=0,delta=0.01,mu=5)", 0.0),
        # a law far narrower than the unit scale of quad's half-line map
        ("normal(mu=0,sigma=0.0001)", 0.0),
        ("normal(mu=0,sigma=0.0001)", 0.0002),
        ("normal(mu=0.001,sigma=0.0001)", 0.0),
    ],
)
def test_theoretical_mef_finds_narrow_mass(text, u):
    d = parse_distribution_spec(text)
    if d.family == "normal":
        expected = _normal(d.value("mu"), d.value("sigma"))(u)
    else:
        expected = d.value("mu") - u  # symmetric about mu, all mass above u
    assert theoretical_mef(d, u) == pytest.approx(expected, rel=1e-8)


def test_theoretical_mef_bounded_support_integrates_to_the_endpoint():
    d = make_spec("beta", a=2.0, b=3.0)
    assert theoretical_mef(d, 0.5) == pytest.approx(_beta(2.0, 3.0)(0.5), rel=1e-9)
