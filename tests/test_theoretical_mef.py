"""theoretical_mef and theoretical_mef_curve against independent oracles
along the whole tail of every registered family, including one GH law
per class that gh_validate names and the GIG interior and boundaries.

Oracles are closed forms where the law has one. Otherwise scipy's
``expect``: conditional on X > u for scipy's own laws, and over the
normal mean-variance mixture (the mixing law from scipy, the normal
partial expectation in closed form) for the GH classes; where scipy's
mixing law fails (delta sqrt(alpha^2 - beta^2) of 1e8 and more), mpmath's
quadrature of the GH density. The scipy
oracles are used only up to the 1 - 1e-3 quantile; beyond it their own
quadrature drifts (about 2% for Student nu=1.5 at 1 - 1e-6), so the far
tail is held to the closed forms and the invariants e(u) >= 0 and
u + e(u) non-decreasing. GH and GIG F_bar and F are checked on a coarse
grid, with gaps wider than the law's bulk, against the mixture, scipy's
closed-form laws or mpmath.
"""

import contextlib
import functools
import math
import re
import signal

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from meanex import (
    DomainError,
    NumericError,
    dist_isf,
    dist_ppf,
    gh_pdf,
    gh_validate,
    GhParams,
    make_grid,
    make_spec,
    parse_distribution_spec,
    std_cdf,
    std_survival,
    theoretical_mef,
    theoretical_mef_curve,
)
from meanex.distributions import FAMILIES, _frame, dist_mean_abs, dist_stop_loss, dist_tail_moments

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


def _gig_law(lam, chi, psi):
    """scipy's law of GIG(lam, chi, psi), by its class."""
    if psi == 0.0:
        return stats.invgamma(-lam, scale=0.5 * chi)
    if chi == 0.0:
        return stats.gamma(lam, scale=2.0 / psi)
    return stats.geninvgauss(lam, math.sqrt(chi * psi), scale=math.sqrt(chi / psi))


def _mixing(params: GhParams):
    """scipy's law of the mixing variable W, GIG(lam, delta^2, alpha^2 - beta^2),
    and d(w, u) = (mu + beta w - u) / sqrt(w): P(X > u | W = w) = Phi(d)."""
    mixing = _gig_law(params.lam, params.delta ** 2, params.alpha ** 2 - params.beta ** 2)
    return mixing, lambda w, u: (params.mu + params.beta * w - u) / math.sqrt(w)


def _gh_mixture(params: GhParams):
    """E[(X - u)^+] / P(X > u) with X = mu + beta W + sqrt(W) Z given W,
    averaged over scipy's law of the mixing variable W."""
    mixing, d = _mixing(params)

    def e(u):
        excess = mixing.expect(
            lambda w: math.sqrt(w) * (stats.norm.pdf(d(w, u)) + d(w, u) * stats.norm.cdf(d(w, u))), **_TIGHT)
        return excess / mixing.expect(lambda w: stats.norm.cdf(d(w, u)), **_TIGHT)
    return e


def _gh_mixture_tails(params: GhParams):
    """(F_bar(u), F(u)) = (E Phi(d(W, u)), E Phi(-d(W, u))) over scipy's
    law of the mixing variable."""
    mixing, d = _mixing(params)
    return lambda u: tuple(mixing.expect(lambda w: stats.norm.cdf(s * d(w, u)), **_TIGHT) for s in (1.0, -1.0))


def _mp_gh(params: GhParams):
    """(density, e, tails) of an interior GH law from its closed form in
    mpmath, independent of meanex.gh: e(u) is a ratio of mpmath quadratures
    over (u, inf) and tails(u) = (F_bar(u), F(u)) quadratures over (u, inf)
    and (-inf, u), split at the mean + k sd of the mixture's Bessel-ratio
    moments and at mu +- delta 10^k, where a small delta leaves a spike.
    The precision is 20 digits plus those of alpha delta, the size of the
    exponents that cancel in the density."""
    dps = 20 + int(math.log10(1.0 + params.alpha * params.delta))
    with mpmath.workdps(dps):
        lam, al, be, de, mu = (mpmath.mpf(v) for v in (params.lam, params.alpha, params.beta, params.delta, params.mu))
        gam = mpmath.sqrt(al * al - be * be)
        z = de * gam
        w1, w2 = ((de / gam) ** k * mpmath.besselk(lam + k, z) / mpmath.besselk(lam, z) for k in (1, 2))
        mean, sd = mu + be * w1, mpmath.sqrt(w1 + be * be * (w2 - w1 * w1))
        a = gam ** lam / (mpmath.sqrt(2 * mpmath.pi) * al ** (lam - 0.5) * de ** lam * mpmath.besselk(lam, z))
        breaks = {mean + k * sd for k in (-8, -2, 0, 2, 8, 32)}
        breaks |= {mu + s * de * 10 ** k for s in (-1, 1) for k in (0, 3, 6, 9)} | {mu}

    def pdf(x):
        q = mpmath.sqrt(de * de + (x - mu) ** 2)
        return a * q ** (lam - 0.5) * mpmath.exp(be * (x - mu)) * mpmath.besselk(lam - 0.5, al * q)

    @functools.lru_cache(maxsize=None)
    def e(u):
        with mpmath.workdps(dps):
            u = mpmath.mpf(u)
            pts = [u] + sorted(x for x in breaks if x > u) + [mpmath.inf]
            return float(mpmath.quad(lambda x: (x - u) * pdf(x), pts) / mpmath.quad(pdf, pts))

    def tails(u):
        with mpmath.workdps(dps):
            u = mpmath.mpf(u)
            above = [u] + sorted(x for x in breaks if x > u) + [mpmath.inf]
            below = [-mpmath.inf] + sorted(x for x in breaks if x < u) + [u]
            return float(mpmath.quad(pdf, above)), float(mpmath.quad(pdf, below))

    def density(x):
        with mpmath.workdps(dps):
            return float(pdf(mpmath.mpf(x)))

    return density, e, tails


# spec -> (far-tail closed form or None, scipy oracle or None); "undefined"
# marks laws without a finite mean
CASES = {
    "gpd(xi=0.25,beta=1)": (lambda u: (1.0 + 0.25 * u) / 0.75, None),
    "pareto(alpha=2.5,lambda=1)": (lambda u: (1.0 + u) / 1.5, None),
    "exponential(lambda=2)": (lambda u: 0.5, None),
    "weibull(beta=1,tau=1.5)": (_weibull(1.0, 1.5), None),
    # tau = 3: the log map reaches x ~ 1e130, where x^tau overflows in scipy's density
    "weibull(beta=1,tau=3)": (_weibull(1.0, 3.0), None),
    "burr(alpha=1.5,lambda=1,tau=1)": (lambda u: (1.0 + u) / 0.5, None),  # Lomax
    "burr(alpha=2,lambda=1,tau=1.5)": (None, _conditional(stats.burr12(c=1.5, d=2.0))),
    "burr(alpha=2,lambda=1,tau=3)": (None, _conditional(stats.burr12(c=3.0, d=2.0))),
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
    # variance gamma with lam < 1/2: the density has a pole at mu
    "gh(lambda=0.3,alpha=1.1,beta=0.1,delta=0,mu=2)": (None, _gh_mixture(GhParams(0.3, 1.1, 0.1, 0.0, 2.0))),
    "gh(lambda=-2,alpha=0.5,beta=0.5,delta=1,mu=0)": (None, _gh_mixture(GhParams(-2.0, 0.5, 0.5, 1.0, 0.0))),
    "gh(lambda=-1.5,alpha=0,beta=0,delta=2,mu=0.5)": (_student(3.0, 0.5, scale=2.0 / math.sqrt(3.0)), None),
    "gh(lambda=-0.5,alpha=0,beta=0,delta=1,mu=0)": "undefined",
    # interior laws at large alpha delta, near their Gaussian limit but with
    # beta's shift of the mean (3.6 and 100.005), and near a delta = 0 limit
    "gh(lambda=-0.5,alpha=1e6,beta=2,delta=3e5,mu=3)": (None, _mp_gh(GhParams(-0.5, 1e6, 2.0, 3e5, 3.0))[1]),
    "gh(lambda=1,alpha=1e4,beta=100,delta=1e4,mu=0)": (None, _mp_gh(GhParams(1.0, 1e4, 100.0, 1e4, 0.0))[1]),
    "gh(lambda=1,alpha=100,beta=0,delta=0.0009,mu=0)": (None, _gh_mixture(GhParams(1.0, 100.0, 0.0, 9e-4, 0.0))),
    "gh(lambda=0.3,alpha=80,beta=0,delta=1e-3,mu=0)": (None, _gh_mixture(GhParams(0.3, 80.0, 0.0, 1e-3, 0.0))),
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
        "skew-student", "student", "cauchy",
    }


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_pareto_without_finite_mean_is_refused(alpha):
    """Pareto's closed form holds for alpha > 1 alone; below that the law's
    mean, which every curve asks for first, refuses it."""
    d = make_spec("pareto", alpha=alpha, **{"lambda": 1.0})
    for mef in (lambda: theoretical_mef(d, 1.0), lambda: theoretical_mef_curve(d, make_grid([0.5, 1.0, 2.0]))):
        with pytest.raises(DomainError) as err:
            mef()
        assert str(err.value) == "pareto has no finite mean at these parameters"


@pytest.mark.parametrize("text", CASES)
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


# interior laws by exact classification that were replaced by a nearby
# limit: delta <= 1e-3 with lam > 0 by variance gamma (e(0) of the first
# law 0.0100000 against 0.0100855), alpha, delta >= 1e4 by N(mu, delta /
# alpha) without beta (e(100) of the fourth 0.0 against 0.79977)
NEAR_LIMITS = [
    "gh(lambda=1,alpha=100,beta=0,delta=0.0009,mu=0)",
    "gh(lambda=0.3,alpha=80,beta=0,delta=1e-3,mu=0)",
    "gh(lambda=0.3,alpha=80,beta=0,delta=1e-10,mu=0)",
    "gh(lambda=1,alpha=1e4,beta=100,delta=1e4,mu=0)",
    "gh(lambda=-0.5,alpha=1e6,beta=2,delta=3e5,mu=3)",
]


@pytest.mark.parametrize("text", NEAR_LIMITS)
def test_interior_law_near_a_limit_matches_mpmath(text):
    d = parse_distribution_spec(text)
    p = GhParams(*(v for _, v in d.params))
    density, e, _ = _mp_gh(p)
    x = [dist_isf(d, q) for q in (0.99, 0.5, 0.01)]
    np.testing.assert_allclose(gh_pdf(p, np.array(x)), [density(v) for v in x], rtol=1e-12, atol=0.0)
    for u in x[1:]:
        assert theoretical_mef(d, u) == pytest.approx(e(u), rel=1e-9), u


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


FAR_LEVELS = (1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)


FAR_TAILS = {
    "student(nu=1.5,mu=0)": _student(1.5, 0.0),
    "student(nu=1.2,mu=0)": _student(1.2, 0.0),
    "burr(alpha=1.5,lambda=1,tau=1)": lambda u: (1.0 + u) / 0.5,
    "lognormal(mu=0,sigma=2)": _lognormal(0.0, 2.0),
}


@pytest.mark.parametrize("text", FAR_TAILS)
def test_theoretical_mef_far_tail(text):
    # out to the 1 - 1e-12 quantile; quad's own half-line map flagged these
    # tails from 1 - 1e-7 on
    d = parse_distribution_spec(text)
    u = np.array([dist_isf(d, q) for q in FAR_LEVELS])
    expected = [FAR_TAILS[text](v) for v in u]
    np.testing.assert_allclose([theoretical_mef(d, v) for v in u], expected, rtol=1e-6)
    e = theoretical_mef_curve(d, make_grid(u)).values
    np.testing.assert_allclose(e, expected, rtol=1e-6)
    _tail_means_never_decrease(u, e)


@pytest.mark.parametrize("nu", [1.02, 1.05, 1.1])
def test_theoretical_mef_tail_past_the_log_map_is_right(nu):
    # the log map stops near 1e130; beyond it (x - u) f(x) of nu = 1.02
    # still holds about 0.25% of E[(X - u)^+], and its power-law rest is added
    d = make_spec("student", nu=nu, mu=0.0)
    for u in (0.0, 1.0, 10.0):
        assert theoretical_mef(d, u) == pytest.approx(_student(nu, 0.0)(u), rel=1e-6), u


def test_survival_past_the_log_map_is_right():
    # Student t with nu = 0.06: about 1.5e-8 of F_bar(10) lies past the log map
    d = parse_distribution_spec("gh(lambda=-0.03,alpha=0,beta=0,delta=1,mu=0)")
    law = stats.t(0.06, scale=1.0 / math.sqrt(0.06))
    assert std_survival(d, 10.0) == pytest.approx(law.sf(10.0), rel=1e-6)


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


@pytest.mark.parametrize(
    "text, u, closed",
    [
        ("beta(a=2,b=0.5)", 0.95, _beta(2.0, 0.5)),
        ("beta(a=0.5,b=0.5)", 0.3, _beta(0.5, 0.5)),
        ("beta(a=0.5,b=0.5)", 0.7, _beta(0.5, 0.5)),
        ("gamma(alpha=0.2,beta=1)", 0.001, _gamma(0.2, 1.0)),
        ("weibull(beta=1,tau=0.5)", 0.1, _weibull(1.0, 0.5)),
    ],
)
def test_theoretical_mef_density_with_a_pole_at_an_end(text, u, closed):
    # the density goes as a power of the distance to an end of its support
    # that is infinite there; the integral from u runs to that end
    assert theoretical_mef(parse_distribution_spec(text), u) == pytest.approx(closed(u), rel=1e-9)


def test_variance_gamma_pole_at_the_centre():
    # lam = 0.05: the density goes as |x - mu|^-0.9, and 1% of the mass lies
    # within 1e-30 of mu. F(mu) from mpmath at 30 digits, integrating
    # |d|^(lam - 1/2) e^(beta d) K_(lam - 1/2)(alpha |d|) over each side of
    # d = 0 with breakpoints at 1e-30, 1e-20, 1e-12, 1e-6, 1e-3, 1 and 10
    d = parse_distribution_spec("gh(lambda=0.05,alpha=1.1,beta=0.1,delta=0,mu=2)")
    assert float(std_cdf(d, 2.0)) == pytest.approx(0.49573145306913715, rel=1e-8)


# ---------------------------------------------------------------------------
# the curve: one pass down a strictly increasing grid


@functools.lru_cache(maxsize=None)
def _quantile_grid(text):
    """101 thresholds spaced evenly between neighbouring quantiles at
    LEVELS, twenty in the first gap and ten in each other one, so every
    quantile of LEVELS is a grid point."""
    d = parse_distribution_spec(text)
    q = np.array([dist_isf(d, 1.0 - level) for level in LEVELS])
    counts = [20] + [10] * (q.size - 2)
    pts = np.concatenate([np.linspace(a, b, k + 1)[:-1] for a, b, k in zip(q[:-1], q[1:], counts)] + [q[-1:]])
    return q, pts


COARSE_LEVELS = (0.001, 0.05, 0.5, 0.95, 0.999, 1 - 1e-6)


@functools.lru_cache(maxsize=None)
def _coarse_grid(text):
    """Thresholds at COARSE_LEVELS, with gaps wider than the law's bulk:
    a walk must find the mass inside each gap from the gap alone."""
    d = parse_distribution_spec(text)
    pts = np.array([dist_isf(d, 1.0 - level) for level in COARSE_LEVELS])
    assert np.diff(pts).max() > _frame(d).scale
    return pts


def _tail_means_never_decrease(u, e):
    # up to the rounding of quad's results, ~1e-14 relative
    assert np.all(e >= 0.0), e
    tail_means = u + e
    assert np.all(np.diff(tail_means) >= -1e-12 * np.abs(tail_means[1:])), tail_means


@pytest.mark.parametrize("text", CASES)
def test_theoretical_mef_curve_against_oracles(text):
    d = parse_distribution_spec(text)
    if CASES[text] == "undefined":
        with pytest.raises(DomainError):
            theoretical_mef_curve(d, make_grid([dist_isf(d, 0.5), dist_isf(d, 0.25)]))
        return
    closed, expect = CASES[text]
    quantiles, fine = _quantile_grid(text)
    assert fine.size == 101
    coarse = _coarse_grid(text)
    grids = (
        (fine, np.flatnonzero(np.isin(fine, quantiles[np.array(LEVELS) <= EXPECT_MAX_LEVEL]))),
        (coarse, np.flatnonzero(np.array(COARSE_LEVELS) <= EXPECT_MAX_LEVEL)),
    )
    for pts, at in grids:
        e = theoretical_mef_curve(d, make_grid(pts)).values
        _tail_means_never_decrease(pts, e)
        if closed is not None:
            np.testing.assert_allclose(e, [closed(u) for u in pts], rtol=1e-8)
        if expect is not None:
            np.testing.assert_allclose(e[at], [expect(pts[i]) for i in at], rtol=1e-8)


def _tails_oracle(d):
    """u -> (F_bar(u), F(u)) of a GH or GIG law, independent of meanex, and
    whether it holds past EXPECT_MAX_LEVEL: scipy's gamma, inverse gamma
    and t, and mpmath, do; scipy's generic quadrature does not."""
    p = [v for _, v in d.params]
    if d.family == "gig":
        law = _gig_law(*p)
        return (lambda u: (law.sf(u), law.cdf(u))), 0.0 in p[1:]
    params = GhParams(*p)
    if params.alpha == 0.0:  # Student t with nu = -2 lam, Cauchy at lam = -1/2
        nu = -2.0 * params.lam
        law = stats.t(nu, loc=params.mu, scale=params.delta / math.sqrt(nu))
        return (lambda u: (law.sf(u), law.cdf(u))), True
    if params.alpha * params.delta >= 1e6:  # near the Gaussian limit, where scipy's mixing law fails
        return _mp_gh(params)[2], True
    return _gh_mixture_tails(params), False


@pytest.mark.parametrize("text", [t for t in CASES if t.startswith(("gh(", "gig("))])
def test_in_house_tails_on_the_coarse_grid(text):
    # one vector call walks the coarse grid's gaps, some wider than the law's bulk
    d = parse_distribution_spec(text)
    pts = _coarse_grid(text)
    oracle, far = _tails_oracle(d)
    at = np.arange(pts.size) if far else np.flatnonzero(np.array(COARSE_LEVELS) <= EXPECT_MAX_LEVEL)
    sf_expected, cdf_expected = np.array([oracle(pts[i]) for i in at]).T
    np.testing.assert_allclose(std_survival(d, pts)[at], sf_expected, rtol=1e-8)
    np.testing.assert_allclose(std_cdf(d, pts)[at], cdf_expected, rtol=1e-8)


@pytest.mark.parametrize(
    "text",
    [
        "gh(lambda=-0.5,alpha=60,beta=-5,delta=0.012,mu=0.0008)",  # NIG
        "gh(lambda=1,alpha=50,beta=4,delta=0.01,mu=0)",  # hyperbolic
        "gh(lambda=0.37,alpha=45,beta=-3,delta=0.02,mu=0.001)",  # interior lambda
        "gig(lambda=0.4,chi=0,psi=3)",  # Gamma class, a pole at 0
    ],
)
def test_grid_walk_matches_one_tail_per_point(text):
    # F_bar and S of a grid come from one tail and the gaps below it, each
    # call giving mass and moment; one tail quadrature per point must agree
    d = parse_distribution_spec(text)
    lo = 0.0 if d.family == "gig" else dist_ppf(d, 0.02)
    u = np.linspace(lo, dist_isf(d, 1e-3), 101)
    sf, stop_loss = dist_tail_moments(d, u)
    np.testing.assert_allclose(sf, [float(std_survival(d, v)) for v in u], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(stop_loss, [dist_stop_loss(d, v) for v in u], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "text",
    [
        "normal(mu=0,sigma=1)",
        "student(nu=5,mu=1)",
        "gamma(alpha=2,beta=1.5)",
        "gh(lambda=-0.5,alpha=8.03,beta=-1.37,delta=0.051,mu=0.0105)",
        "gig(lambda=1,chi=1,psi=1)",
    ],
)
def test_theoretical_mef_curve_is_grid_independent(text):
    # a value must not depend on which other thresholds share the grid
    d = parse_distribution_spec(text)
    _, pts = _quantile_grid(text)
    full = theoretical_mef_curve(d, make_grid(pts)).values
    keep = np.r_[0:100:2, 100]  # every other point, both ends kept
    thinned = theoretical_mef_curve(d, make_grid(pts[keep])).values
    denser = np.sort(np.concatenate((pts, 0.5 * (pts[:-1] + pts[1:]))))
    dense = theoretical_mef_curve(d, make_grid(denser)).values
    np.testing.assert_allclose(thinned, full[keep], rtol=1e-10)
    np.testing.assert_allclose(dense[np.isin(denser, pts)], full, rtol=1e-10)


@pytest.mark.parametrize(
    "text, points",
    [
        # the whole mass inside one gap, far narrower than the gap
        ("normal(mu=0,sigma=0.0001)", [-1.0, -0.5, 0.0, 0.5]),
        ("normal(mu=0.2,sigma=0.0001)", [-1.0, 0.0, 1.0]),
        ("normal(mu=5,sigma=0.1)", [0.0, 4.0, 5.0, 5.2]),
        ("gh(lambda=-0.5,alpha=50,beta=0,delta=0.01,mu=5)", [0.0, 2.5, 5.02]),
        ("gh(lambda=-0.5,alpha=50,beta=0,delta=0.01,mu=3.3)", [-1.0, 0.0, 3.31]),
    ],
)
def test_theoretical_mef_curve_finds_narrow_mass(text, points):
    d = parse_distribution_spec(text)
    e = theoretical_mef_curve(d, make_grid(points)).values
    if d.family == "normal":
        mu, sigma = d.value("mu"), d.value("sigma")
        # e = 0 where F_bar underflows, 5000 standard deviations out
        expected = [_normal(mu, sigma)(u) if stats.norm.sf(u, mu, sigma) > 0 else 0.0 for u in points]
    else:
        expected = [_gh_mixture(GhParams(*(v for _, v in d.params)))(u) for u in points]
    np.testing.assert_allclose(e, expected, rtol=1e-8)
    _tail_means_never_decrease(np.asarray(points), e)


# ---------------------------------------------------------------------------
# location and scale: every density is read at its offset from the law's loc


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once it has run for ``seconds``: a
    quadrature that spends its whole budget fails here, not after it."""

    def expired(signum, frame):
        raise TimeoutError(f"still integrating after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_EQUIVARIANT = {
    "normal": lambda mu, sigma: make_spec("normal", mu=mu, sigma=sigma),
    "laplace": lambda mu, sigma: make_spec("laplace", mu=mu, sigma=sigma, tau=0.6),
    "student": lambda mu, sigma: make_spec("student", nu=3.5, mu=mu),  # no scale parameter: sigma = 1
}


def _equivariance_cases():
    for family in _EQUIVARIANT:
        for sigma in (1.0,) if family == "student" else (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300):
            for k in (0.0, -3.7, 1e4, -1e8, 1e12, 1e16, -1e17):  # mu = k sigma, while mu stays below 1e307
                if abs(k) * sigma <= 1e307:
                    yield pytest.param(family, sigma, k, id=f"{family}-sigma{sigma:g}-k{k:g}")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("family, sigma, k", list(_equivariance_cases()))
def test_standard_law_is_location_scale_equivariant(family, sigma, k):
    # e(u) = sigma e_std((u - mu) / sigma), e_std from the law at mu = 0, sigma = 1, at the z that
    # the threshold u, a double, stands for. Tolerance, fixed before the run: 1e-9 relative, the
    # quadrature's own. A density read at loc + d rounded to the ulp of mu spent cubature's whole
    # budget once mu / sigma reached about 1e8; a mean mu + sigma m held as one double put S = mean - u
    # below the centre two ulps of mu off, and an interquartile range read as the difference of two
    # quantiles at mu was 0 from mu / sigma ~ 1e16 on
    mu = k * sigma
    law, standard = _EQUIVARIANT[family](mu, sigma), _EQUIVARIANT[family](0.0, 1.0)
    with _within(5):
        for z in (-1.5, 0.0, 0.7, 3.0):
            u = mu + sigma * z
            expected = sigma * theoretical_mef(standard, (u - mu) / sigma)
            assert theoretical_mef(law, u) == pytest.approx(expected, rel=1e-9), z


def _student_half_mean(nu):
    # E[T | T > 0] = sqrt(nu / pi) Gamma((nu - 1) / 2) / Gamma(nu / 2), to 30 digits
    with mpmath.workdps(30):
        nu = mpmath.mpf(nu)
        return float(mpmath.sqrt(nu / mpmath.pi) * mpmath.gamma((nu - 1) / 2) / mpmath.gamma(nu / 2))


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize(
    "text, u, expected, rel",
    [
        # refused after about 9 s and 14 s, and 1.8e-11 off, while the density was read at loc + d
        pytest.param(text, u, expected, rel, id=text)
        for text, u, expected, rel in [
            ("normal(mu=-22.885,sigma=1e-8)", -22.885, 1e-8 * math.sqrt(2.0 / math.pi), 1e-14),
            ("student(nu=52.28,mu=-1e8)", -1e8, _student_half_mean(52.28), 1e-12),
            ("student(nu=52.28,mu=0)", 0.0, _student_half_mean(52.28), 1e-12),
            ("normal(mu=1e6,sigma=1)", 1e6, math.sqrt(2.0 / math.pi), 1e-15),
        ]
    ],
)
def test_far_shifted_or_narrow_law_at_its_centre(text, u, expected, rel):
    d = parse_distribution_spec(text)
    with _within(1):
        e = theoretical_mef(d, u)
    assert e == pytest.approx(expected, rel=rel, abs=0.0)
    if d.family == "student":
        assert e == pytest.approx(theoretical_mef(make_spec("student", nu=52.28, mu=0.0), 0.0), rel=1e-12, abs=0.0)


# F_bar of this law falls below the smallest normal double between u = 6.5 and 6.6
SUBNORMAL_TAIL = ("gh(lambda=0.224639102136,alpha=114.279785566,beta=6.44264365844,delta=0.00660634244206,"
                  "mu=0.000192222274645)")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_subnormal_tail_neither_stalls_nor_gives_a_value():
    # a piece whose first estimate is subnormal was divided by it: its values kept fewer than 53
    # bits, and cubature spent all 10000 subdivisions (29.6 s for this curve, 6.1 s for e(6.765)).
    # It now converges on an absolute 2.2e-308, so S and F_bar below that mean nothing: e(6.765)
    # would read 0.009174 (7e-322 / 8e-320) against 0.009263 nearby. e is 0 wherever F_bar(u) is
    # below the smallest normal double, as where F_bar(u) = 0
    d = parse_distribution_spec(SUBNORMAL_TAIL)
    grid = make_grid(np.linspace(0.0, 7.0, 101))
    with _within(3):
        e = theoretical_mef_curve(d, grid).values
        at = theoretical_mef(d, 6.765), theoretical_mef(d, 6.6)
    tiny = np.finfo(float).tiny
    sf = std_survival(d, grid.points)
    assert np.all(e[sf < tiny] == 0.0) and np.all(e[sf >= tiny] > 0.0)
    assert np.count_nonzero(sf >= tiny) == 94 and std_survival(d, 6.6) < tiny
    assert at == (0.0, 0.0)
    last = np.flatnonzero(sf >= tiny)[-1]
    assert e[last] == pytest.approx(theoretical_mef(d, grid.points[last]), rel=1e-9)
    _tail_means_never_decrease(grid.points[: last + 1], e[: last + 1])


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("u, sf", [(1e85, 1.10265779e-255), (1e90, 1.10265779e-270)])
def test_stop_loss_lost_under_a_normal_tail_is_refused(u, sf):
    # scipy's t density is 0 out here while its survival is a normal double: the
    # quadrature's stop loss came back 0, and e(u) read 0 where it is u / 2
    d = parse_distribution_spec("student(nu=3,mu=0)")
    assert std_survival(d, u) == pytest.approx(sf, rel=1e-8)
    message = re.escape(f"student(nu=3,mu=0): the stop loss at u={u:.12g} underflows to 0, where F_bar = 1.10266e-2")
    with _within(3):
        with pytest.raises(NumericError, match=message):
            theoretical_mef(d, u)
        with pytest.raises(NumericError, match=message):
            theoretical_mef_curve(d, make_grid([u, 2.0 * u]))
        # nearer in, where the density is a normal double, the curve is right
        assert theoretical_mef(d, 1e70) == pytest.approx(5e69, rel=1e-12)


def test_gh_model_curve_and_mean_abs_compute_the_mean_once(monkeypatch):
    # the curve took E[X] for its values below the support and again for
    # its stop losses, and E|X| took it for itself and again for E[X^+]
    import meanex.gh as gh

    calls = []
    moment = gh.gig_moment
    monkeypatch.setattr(gh, "gig_moment", lambda *a: calls.append(a) or moment(*a))
    spec = parse_distribution_spec("gh(lambda=-0.5,alpha=50,beta=3,delta=0.01,mu=0.001)")
    curve = theoretical_mef_curve(spec, make_grid(np.linspace(-0.02, 0.02, 21)))
    assert np.all(np.isfinite(curve.values))
    assert len(calls) == 1
    calls.clear()
    assert dist_mean_abs(spec) > 0.0
    assert len(calls) == 1
