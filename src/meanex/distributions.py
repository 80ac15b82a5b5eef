"""Distribution registry: the standard families used by the reference
curves, plus the generalized hyperbolic and generalized inverse Gaussian
laws, behind one text format.

Every family is a scipy law. The standard families are scipy's own
frozen distributions. GH and GIG are one ``rv_continuous`` subclass over
the in-house density, mean and sampler of ``gh`` / ``gig``. Every
integral of a density, GH/GIG F, F_bar and quantiles among them, is one
checked quadrature path (``_integrate``).

Text format: ``family(name=value,...)``, e.g. ``gpd(xi=0.25,beta=1)`` or
``gh(lambda=-0.5,alpha=7.6,beta=-1.24,delta=0.052,mu=0.0103)``.

Survival conventions (several sources name parameters without fixing a
CDF; these are the conventions implemented here):

    gpd(xi, beta)           F_bar(x) = (1 + xi x / beta)^(-1/xi), exponential at xi=0
    pareto(alpha, lambda)   F_bar(x) = (lambda / (lambda + x))^alpha
    exponential(lambda)     F_bar(x) = exp(-lambda x)
    weibull(beta, tau)      F_bar(x) = exp(-beta x^tau)
    burr(alpha, lambda, tau) F_bar(x) = (lambda / (lambda + x^tau))^alpha
    gompertz(alpha, lambda) F_bar(x) = exp(-(alpha/lambda)(e^(lambda x) - 1))
    gamma(alpha, beta)      shape alpha, rate beta
    beta(a, b)              standard Beta on (0, 1)
    lognormal(mu, sigma)    log X ~ N(mu, sigma^2)
    normal(mu, sigma)
    laplace(mu, sigma, tau) asymmetric Laplace, tau the asymmetry (tau=1 symmetric)
    student(nu, mu)         t with nu degrees of freedom shifted by mu
    cauchy(mu, delta)
    gh(lambda, alpha, beta, delta, mu)
    gig(lambda, chi, psi)
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy import integrate, optimize, stats

from .errors import DomainError, InputError, NumericError
from .gh import GhParams, gh_bulk, gh_mean, gh_pdf, gh_sample, gh_validate
from .gig import gig_bulk, gig_moment, gig_pdf, gig_sample, gig_validate

__all__ = [
    "DistributionSpec",
    "parse_distribution_spec",
    "format_distribution_spec",
    "std_sample",
    "std_cdf",
    "std_survival",
    "std_pdf",
    "dist_support",
    "dist_mean",
    "dist_mean_abs",
    "dist_isf",
    "dist_ppf",
    "integrate_density",
    "dist_stop_loss",
    "dist_tail_moments",
    "fdelta_check",
    "FAMILIES",
]


@dataclass(frozen=True)
class DistributionSpec:
    family: str
    params: tuple[tuple[str, float], ...]

    def value(self, name: str) -> float:
        for key, val in self.params:
            if key == name:
                return val
        raise KeyError(name)

    def as_dict(self) -> dict[str, float]:
        return dict(self.params)


def _positive(name):
    def check(v, fam):
        if not v > 0:
            raise DomainError(f"{fam} parameter {name} must be positive, got {v:g}")
    return check


def _real(name):
    def check(v, fam):
        if not np.isfinite(v):
            raise DomainError(f"{fam} parameter {name} must be finite")
    return check


def _nonneg(name):
    def check(v, fam):
        if not v >= 0:
            raise DomainError(f"{fam} parameter {name} must be nonnegative, got {v:g}")
    return check


# family -> ordered (param, validator) signature
FAMILIES: dict[str, tuple[tuple[str, object], ...]] = {
    "gpd": (("xi", _real("xi")), ("beta", _positive("beta"))),
    "pareto": (("alpha", _positive("alpha")), ("lambda", _positive("lambda"))),
    "exponential": (("lambda", _positive("lambda")),),
    "weibull": (("beta", _positive("beta")), ("tau", _positive("tau"))),
    "burr": (("alpha", _positive("alpha")), ("lambda", _positive("lambda")), ("tau", _positive("tau"))),
    "gompertz": (("alpha", _positive("alpha")), ("lambda", _positive("lambda"))),
    "gamma": (("alpha", _positive("alpha")), ("beta", _positive("beta"))),
    "beta": (("a", _positive("a")), ("b", _positive("b"))),
    "lognormal": (("mu", _real("mu")), ("sigma", _positive("sigma"))),
    "normal": (("mu", _real("mu")), ("sigma", _positive("sigma"))),
    "laplace": (("mu", _real("mu")), ("sigma", _positive("sigma")), ("tau", _positive("tau"))),
    "student": (("nu", _positive("nu")), ("mu", _real("mu"))),
    "cauchy": (("mu", _real("mu")), ("delta", _positive("delta"))),
    "gh": (
        ("lambda", _real("lambda")),
        ("alpha", _nonneg("alpha")),
        ("beta", _real("beta")),
        ("delta", _nonneg("delta")),
        ("mu", _real("mu")),
    ),
    "gig": (("lambda", _real("lambda")), ("chi", _nonneg("chi")), ("psi", _nonneg("psi"))),
}

_ALIASES = {"exp": "exponential", "studentt": "student", "t": "student", "lognorm": "lognormal", "gauss": "normal"}

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*$", re.S)


def make_spec(family: str, **params: float) -> DistributionSpec:
    """Build and validate a spec from keyword parameters."""
    fam = _ALIASES.get(family.lower(), family.lower())
    if fam not in FAMILIES:
        raise InputError(f"unknown distribution family '{family}'")
    sig = FAMILIES[fam]
    names = [n for n, _ in sig]
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing:
        raise InputError(f"{fam} missing parameter(s): {', '.join(missing)}")
    if extra:
        raise InputError(f"{fam} does not take parameter(s): {', '.join(extra)}")
    ordered = []
    for name, check in sig:
        val = float(params[name])
        check(val, fam)
        ordered.append((name, val))
    return DistributionSpec(family=fam, params=tuple(ordered))


def parse_distribution_spec(text: str) -> DistributionSpec:
    """Parse ``family(name=value,...)``; errors name the offending token."""
    m = _SPEC_RE.match(text)
    if not m:
        raise InputError(f"cannot parse distribution spec '{text}': expected family(name=value,...)")
    family, body = m.group(1), m.group(2)
    params: dict[str, float] = {}
    if body.strip():
        for token in body.split(","):
            token = token.strip()
            if not token:
                raise InputError(f"empty parameter token in '{text}'")
            if "=" not in token:
                raise InputError(f"bad parameter token '{token}': expected name=value")
            name, _, raw = token.partition("=")
            name = name.strip().lower()
            try:
                val = float(raw.strip())
            except ValueError:
                raise InputError(f"bad numeric value in token '{token}'") from None
            if name in params:
                raise InputError(f"duplicate parameter '{name}' in '{text}'")
            params[name] = val
    return make_spec(family, **params)


def format_distribution_spec(spec: DistributionSpec) -> str:
    body = ",".join(f"{name}={val:.12g}" for name, val in spec.params)
    return f"{spec.family}({body})"


# ---------------------------------------------------------------------------
# laws


@dataclass(frozen=True)
class _Frame:
    """What quadrature needs of a law: its density, its support [lo, hi],
    a centre in its bulk and a length no wider than that bulk."""

    name: str
    pdf: object
    lo: float
    hi: float
    centre: float
    scale: float


class _InHouseLaw(stats.rv_continuous):
    """A scipy law over one of meanex's own densities (GH or GIG).

    The density, mean and sampler stay in-house: they work in log space
    with scaled Bessel functions, where scipy's ``genhyperbolic`` mean is
    NaN once delta sqrt(alpha^2 - beta^2) reaches the hundreds and
    ``geninvgauss`` is NaN at chi psi ~ 1e23. The CDF and the survival
    function come from the gap walker (``_walk``), the one builder of F
    and F_bar, and quantiles from a root search on the log of the tail
    that holds them (``_quantile``), so ``isf(q)`` keeps its relative
    accuracy below q ~ 1e-16, where 1 - q rounds to 1. scipy's generic
    code supplies ``expect``.
    """

    def __init__(self, frame: _Frame, mean, sample):
        super().__init__(a=frame.lo, name="meanex")
        self.frame, self._mean, self._sample = frame, mean, sample

    def _pdf(self, x):
        return self.frame.pdf(x)

    def _stats(self):
        return self._mean(), None, None, None

    def _rvs(self, size=None, random_state=None):
        return self._sample(random_state, int(np.prod(size))).reshape(size)

    def _cdf(self, x):
        return _walk(self.frame, x, upper=False)

    def _sf(self, x):
        return _walk(self.frame, x, upper=True)

    def _ppf(self, q):
        return np.array([_quantile(self.frame, v, upper=False) for v in np.ravel(q)]).reshape(np.shape(q))

    def _isf(self, q):
        return np.array([_quantile(self.frame, v, upper=True) for v in np.ravel(q)]).reshape(np.shape(q))


@lru_cache(maxsize=256)
def _frozen(spec: DistributionSpec):
    p = spec.as_dict()
    fam = spec.family
    if fam == "gpd":
        return stats.genpareto(c=p["xi"], scale=p["beta"])
    if fam == "pareto":
        return stats.lomax(c=p["alpha"], scale=p["lambda"])
    if fam == "exponential":
        return stats.expon(scale=1.0 / p["lambda"])
    if fam == "weibull":
        return stats.weibull_min(c=p["tau"], scale=p["beta"] ** (-1.0 / p["tau"]))
    if fam == "burr":
        return stats.burr12(c=p["tau"], d=p["alpha"], scale=p["lambda"] ** (1.0 / p["tau"]))
    if fam == "gompertz":
        return stats.gompertz(c=p["alpha"] / p["lambda"], scale=1.0 / p["lambda"])
    if fam == "gamma":
        return stats.gamma(a=p["alpha"], scale=1.0 / p["beta"])
    if fam == "beta":
        return stats.beta(a=p["a"], b=p["b"])
    if fam == "lognormal":
        return stats.lognorm(s=p["sigma"], scale=math.exp(p["mu"]))
    if fam == "normal":
        return stats.norm(loc=p["mu"], scale=p["sigma"])
    if fam == "laplace":
        return stats.laplace_asymmetric(kappa=p["tau"], loc=p["mu"], scale=p["sigma"])
    if fam == "student":
        return stats.t(df=p["nu"], loc=p["mu"])
    if fam == "cauchy":
        return stats.cauchy(loc=p["mu"], scale=p["delta"])
    if fam == "gh":
        gh = GhParams(lam=p["lambda"], alpha=p["alpha"], beta=p["beta"], delta=p["delta"], mu=p["mu"])
        if gh_validate(gh) == "invalid":
            raise DomainError(f"invalid generalized hyperbolic parameters {format_distribution_spec(spec)}")
        frame = _Frame(fam, partial(gh_pdf, gh), -np.inf, np.inf, *gh_bulk(gh))
        return _InHouseLaw(frame, partial(gh_mean, gh), partial(gh_sample, gh))
    if fam == "gig":
        lam, chi, psi = p["lambda"], p["chi"], p["psi"]
        gig_validate(lam, chi, psi)
        frame = _Frame(fam, partial(gig_pdf, lam, chi, psi), 0.0, np.inf, *gig_bulk(lam, chi, psi))
        return _InHouseLaw(frame, partial(gig_moment, lam, chi, psi, 1), partial(gig_sample, lam, chi, psi))
    raise InputError(f"unknown family '{fam}'")


@lru_cache(maxsize=256)
def _sampler(spec: DistributionSpec):
    """draw(rng, n) for a law, resolved once: the in-house sampler of a GH
    or GIG law, else the scipy law's ``_rvs`` hook with its shapes, loc
    and scale parsed once and applied as ``rv_generic.rvs`` does. The
    draws are those of ``rvs``, without its per-call argument handling."""
    law = _frozen(spec)
    if isinstance(law, _InHouseLaw):
        return law._sample
    shapes, loc, scale = law.dist._parse_args(*law.args, **law.kwds)
    rvs = law.dist._rvs

    def draw(rng, n):
        return rvs(*shapes, size=n, random_state=rng) * scale + loc

    return draw


@lru_cache(maxsize=256)
def _frame(spec: DistributionSpec) -> _Frame:
    """The law's quadrature frame, resolved once. A scipy law's density is
    its ``_pdf`` hook with shapes, loc and scale parsed once and applied as
    ``rv_continuous.pdf`` does, without its per-call argument handling; its
    centre is the median and its bulk the interquartile range."""
    law = _frozen(spec)
    if isinstance(law, _InHouseLaw):
        return law.frame
    dist = law.dist
    shapes, loc, scale = dist._parse_args(*law.args, **law.kwds)

    def pdf(x):
        z = (np.asarray(x, dtype=float) - loc) / scale
        inside = dist._support_mask(z, *shapes)
        out = np.where(np.isnan(z), np.nan, 0.0)
        out[inside] = dist._pdf(z[inside], *shapes) / scale
        return out[()]

    lo, hi = law.support()
    iqr = law.ppf(0.75) - law.ppf(0.25)
    return _Frame(spec.family, pdf, float(lo), float(hi), float(law.median()), float(iqr))


def std_sample(dist: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent draws, in draw order."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    return np.asarray(_sampler(dist)(rng, n), dtype=float)


def std_cdf(dist: DistributionSpec, x):
    return _frozen(dist).cdf(x)


def std_survival(dist: DistributionSpec, x):
    """F_bar at x: scipy's own for a standard law. For GH/GIG the gap
    walker's, which takes each point's tail on the far side of the law's
    centre, so F_bar keeps its relative accuracy far out."""
    return _frozen(dist).sf(x)


def std_pdf(dist: DistributionSpec, x):
    """Density at x, without scipy's per-call argument handling."""
    return _frame(dist).pdf(x)


def dist_support(dist: DistributionSpec) -> tuple[float, float]:
    s = _frozen(dist).support()
    return float(s[0]), float(s[1])


def dist_mean(dist: DistributionSpec) -> float:
    m = float(_frozen(dist).mean())
    if not np.isfinite(m):
        raise DomainError(f"{dist.family} has no finite mean at these parameters")
    return m


def dist_isf(dist: DistributionSpec, q: float) -> float:
    return float(_frozen(dist).isf(q))


def dist_ppf(dist: DistributionSpec, q: float) -> float:
    return float(_frozen(dist).ppf(q))


def _checked_quad(f, a: float, b: float, what: str) -> float:
    """int_a^b f by quad (limit 400), the one quad call of meanex, held to
    its relative tolerance alone: a far tail lies well below the default
    epsabs 1.49e-8. NumericError when quad flags (ier != 0) or is not finite."""
    out = integrate.quad(f, a, b, full_output=1, limit=400, epsabs=0.0)
    if len(out) > 3:  # quad appends a message exactly when ier != 0
        raise NumericError(f"quadrature over [{a:g}, {b:g}] failed for {what}: {out[3]}")
    if not np.isfinite(out[0]):
        raise NumericError(f"quadrature over [{a:g}, {b:g}] is not finite for {what}")
    return float(out[0])


# The log map stops at s = 300, |x - x0| = w e^300 ~ 1e130 w, where x^2
# stays finite. What lies beyond is bounded by ``_beyond_span``: a tail
# of index k holds about 10^(-130 k) of its mass there.
_LOG_SPAN = 300.0
# quad's default relative tolerance, the one every piece is held to
_EPSREL = 1.49e-8
_TINY = np.finfo(float).tiny


def _beyond_span(g, value: float, what: str) -> None:
    """NumericError unless the mapped integrand g, cut at s = _LOG_SPAN,
    drops a negligible part of ``value``. Past the cut g is taken to decay
    as e^-(k s), k read off g over the last unit of s, so the part dropped
    is g(_LOG_SPAN) / k: a heavy tail such as (x - u) f(x) of a Student
    law with nu = 1.02 (k = 0.02) is refused, not cut short."""
    last = abs(g(_LOG_SPAN))
    if last == 0.0:
        return
    prev = abs(g(_LOG_SPAN - 1.0))
    k = math.log(prev / last) if prev > 0.0 else 0.0
    if not (k > 0.0 and last / k <= _EPSREL * abs(value)):
        raise NumericError(
            f"quadrature for {what} cuts its half-line at {_LOG_SPAN:g} in log scale, "
            f"and the tail beyond is not negligible"
        )


def _integrate(frame: _Frame, weight, a: float, b: float) -> float:
    """int_a^b weight(x) f(x) dx, one checked quad per piece.

    The interval is split at the centre (where a variance-gamma density
    has its kink or pole). A side no wider than the law's bulk w
    (``scale``) is one quad in x; a wider one is mapped to
    x = x0 +- w (e^s - 1), s >= 0, from its end x0 nearer the centre: the
    bulk stays on the scale w near s = 0, and a power tail x^-(k+1)
    becomes e^-(k s), so a half-line is flag-free far out. The map stops
    at s = _LOG_SPAN, and ``_beyond_span`` refuses a tail cut short there.
    """
    c = frame.centre
    if a < c < b:
        return _integrate(frame, weight, a, c) + _integrate(frame, weight, c, b)
    if b - a <= frame.scale:
        return _checked_quad(lambda x: weight(x) * frame.pdf(x), a, b, frame.name)
    x0, w = (a, frame.scale) if a >= c else (b, -frame.scale)

    def g(s):
        x = x0 + w * math.expm1(s)
        return weight(x) * frame.pdf(x) * frame.scale * math.exp(s)

    top = math.log1p((b - a) / frame.scale)
    value = _checked_quad(lambda s: 0.0 if s > _LOG_SPAN else g(s), 0.0, top, frame.name)
    if top > _LOG_SPAN:
        _beyond_span(g, value, frame.name)
    return value


def _one(x):
    return 1.0


@lru_cache(maxsize=256)
def _check_mass(frame: _Frame) -> tuple[float, float]:
    """F and F_bar at the centre, once quad finds mass 1 under the
    density; NumericError otherwise (a law far narrower than its
    ``scale`` can fall between quad's nodes, and its F would come back as
    a step function)."""
    halves = _tail(frame, frame.centre, False), _tail(frame, frame.centre, True)
    total = halves[0] + halves[1]
    if not abs(total - 1.0) <= 1e-6:
        raise NumericError(f"quadrature finds mass {total:.6g} under the density, not 1")
    return halves


def _restarts(walk: np.ndarray, scale: float) -> np.ndarray:
    """Where a walk over points takes a fresh tail instead of the gap from
    the previous point: at its first point and after any gap wider than
    the law's bulk, which could hold the whole mass between quad's nodes."""
    return np.concatenate(([True], np.abs(np.diff(walk)) > scale))


def _tail(frame: _Frame, x: float, upper: bool) -> float:
    """F_bar(x) (upper) or F(x), one integral over that tail."""
    return _integrate(frame, _one, x, frame.hi) if upper else _integrate(frame, _one, frame.lo, x)


def _walk(frame: _Frame, x, upper: bool) -> np.ndarray:
    """F_bar (upper) or F at every point of x, the one builder of both.

    F_bar is walked down from the upper edge and F up from the lower one:
    each point adds the mass of its gap to the previous point, one short
    quad. Where ``_restarts`` says so, a point takes one quad over its
    tail on the far side of the centre instead, so whichever of F and
    F_bar is small keeps its relative accuracy.
    """
    _check_mass(frame)
    flat = np.ravel(x)
    order = np.argsort(flat, kind="stable")
    if upper:
        order = order[::-1]
    walk = flat[order]
    fresh = _restarts(walk, frame.scale)
    vals = np.empty(walk.size)
    for i, v in enumerate(walk):
        if fresh[i]:
            above = v >= frame.centre
            piece = _tail(frame, v, above)
            vals[i] = piece if above == upper else 1.0 - piece
        else:
            lo, hi = sorted((walk[i - 1], v))
            vals[i] = vals[i - 1] + _integrate(frame, _one, lo, hi)
    out = np.empty(walk.size)
    out[order] = np.clip(vals, 0.0, 1.0)
    return out.reshape(np.shape(x))


def _quantile(frame: _Frame, q: float, upper: bool) -> float:
    """x with F_bar(x) = q (upper) or F(x) = q, from the tail beyond the
    centre that holds q, so a small q keeps its relative accuracy.

    x runs from the centre at v = 0 out along the tail: x = centre +- w v
    toward an infinite end of the support, x = end + (centre - end) e^-v
    toward a finite one, so v holds x to the bulk w, or x - end to its
    relative accuracy. The bracket doubles v until the tail T at its
    outer end is at most q. Each step takes the gap from the tail at the
    step before; that difference is only good to about 3 epsrel of the
    last tail integral, so a step whose difference lands that close to q,
    or below it, takes its tail as one integral instead. brentq then
    solves log T = log q in v inside the bracket, with T the outer end's
    tail plus the gap.
    """
    if q > _check_mass(frame)[upper]:
        q, upper = 1.0 - q, not upper
    anchor = t = _check_mass(frame)[upper]
    c, end = frame.centre, (frame.hi if upper else frame.lo)

    def at(v):
        if math.isinf(end):
            return c + math.copysign(frame.scale, end) * v
        return end + (c - end) * math.exp(-v)

    inner, outer = 0.0, 1.0
    while True:
        a, b = sorted((at(inner), at(outer)))
        if not math.isfinite(b - a):
            raise NumericError(f"no quantile at {q:g} for {frame.name}: its tail never falls that low")
        t -= _integrate(frame, _one, a, b)
        if t - q <= 3.0 * _EPSREL * anchor:
            anchor = t = _tail(frame, at(outer), upper)
            if t <= q:
                break
        inner, outer = outer, 2.0 * outer
    log_q, x_out = math.log(max(q, _TINY)), at(outer)

    @lru_cache(maxsize=None)  # brentq asks again for the value at inner
    def excess(v):
        x = at(v)
        return math.log(max(t + _integrate(frame, _one, min(x, x_out), max(x, x_out)), _TINY)) - log_q

    if excess(inner) <= 0.0:
        return at(inner)
    return at(optimize.brentq(excess, inner, outer, xtol=1e-15))


def integrate_density(dist: DistributionSpec, weight, a: float, b: float) -> float:
    """int_a^b weight(x) f(x) dx by ``_integrate`` after the law's one-time
    mass check; NumericError when quad flags a piece or it is not finite."""
    frame = _frame(dist)
    _check_mass(frame)
    return _integrate(frame, weight, a, b)


def dist_stop_loss(dist: DistributionSpec, u: float) -> float:
    """E[(X - u)^+], the numerator of the mean excess function, by one
    quadrature over u's tail on the far side of the law's centre, where
    the mass is the small side: int_u^b (x - u) f(x) dx for u at or above
    the centre, E[X] - u + int_a^u (u - x) f(x) dx below it."""
    frame, mean = _frame(dist), dist_mean(dist)
    if u >= frame.centre:
        return integrate_density(dist, lambda x: x - u, u, frame.hi)
    return mean - u + integrate_density(dist, lambda x: u - x, frame.lo, u)


def dist_tail_moments(dist: DistributionSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F_bar(u_i), the law's own, and S(u_i) = E[(X - u_i)^+] at strictly
    increasing thresholds inside the support. S is walked from the top
    down with the restarts of the gap walker: a restart point takes S from
    ``dist_stop_loss``, and every other point adds its gap to the point
    above, S(u_i) = S(u_{i+1}) + (u_{i+1} - u_i) F_bar(u_{i+1})
    + int_{u_i}^{u_{i+1}} (x - u_i) f(x) dx, three nonnegative terms.
    """
    sf = np.atleast_1d(np.asarray(_frozen(dist).sf(u), dtype=float))
    fresh = _restarts(u[::-1], _frame(dist).scale)[::-1]
    s = np.zeros(u.size)
    for i in range(u.size - 1, -1, -1):
        a = u[i]
        if not fresh[i]:
            b = u[i + 1]
            s[i] = s[i + 1] + (b - a) * sf[i + 1] + integrate_density(dist, lambda x: x - a, a, b)
        elif sf[i] > 0.0:
            s[i] = dist_stop_loss(dist, a)
    return sf, s


def dist_mean_abs(dist: DistributionSpec) -> float:
    """E|X| = 2 E[X^+] - E[X]; the mean when the support is nonnegative."""
    lo, _ = dist_support(dist)
    mean = dist_mean(dist)  # rejects undefined-mean families up front
    if lo >= 0.0:
        return mean
    return 2.0 * dist_stop_loss(dist, 0.0) - mean


def fdelta_check(dist: DistributionSpec, u0: float, u1: float, deltas) -> np.ndarray:
    """Smoothness diagnostic for the uniform band's CDF-increment condition.

    For each delta: sup over a 512-point v-grid in [u0, u1] of
    ((F(v) - F(v - delta))^2 / delta). Decay toward 0 as delta -> 0
    signals an absolutely continuous F on the interval; a jump shows up
    as 1/delta divergence (reported, not errored).
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0 or np.any(deltas <= 0):
        raise DomainError("deltas must be positive")
    if deltas.size > 1 and not np.all(np.diff(deltas) < 0):
        raise DomainError("deltas must be strictly decreasing")
    if not u0 < u1:
        raise DomainError("fdelta_check requires u0 < u1")
    lo, hi = dist_support(dist)
    if u1 >= hi:
        raise DomainError("fdelta_check requires u1 below the right endpoint of the support")
    v = np.linspace(u0, u1, 512)
    fv = np.asarray(std_cdf(dist, v), dtype=float)
    out = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        fvd = np.asarray(std_cdf(dist, v - d), dtype=float)
        out[i] = float(np.max((fv - fvd) ** 2 / d))
    return out
