"""Distribution registry: the standard families used by the reference
curves, plus the generalized hyperbolic and generalized inverse Gaussian
laws, behind one text format.

Every family is a scipy law. The standard families are scipy's own
frozen distributions. GH and GIG are one ``rv_continuous`` subclass over
the in-house density, mean and sampler of ``gh`` / ``gig``: meanex owns
the density, scipy's generic code owns the quantiles, and the CDF and
survival function are quadratures of the in-house density.

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
from scipy import integrate, stats

from .errors import DomainError, InputError, NumericError
from .gh import GhParams, gh_mean, gh_pdf, gh_sample, gh_validate
from .gig import gig_mode, gig_moment, gig_pdf, gig_sample, gig_validate

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


class _InHouseLaw(stats.rv_continuous):
    """A scipy law over one of meanex's own densities (GH or GIG).

    The density, mean and sampler stay in-house: they work in log space
    with scaled Bessel functions, where scipy's ``genhyperbolic`` mean is
    NaN once delta sqrt(alpha^2 - beta^2) reaches the hundreds and
    ``geninvgauss`` is NaN at chi psi ~ 1e23. The CDF and the survival
    function are quads of the density over the tail on the far side of
    ``centre`` from x, so both keep their relative accuracy far out; a
    vector of points takes one tail quad per side and one short quad per
    gap between neighbours. scipy's generic code supplies quantiles and
    ``expect``; its ``isf(q)`` solves F(x) = 1 - q, so a quantile is only
    as precise as 1 - q (``isf`` is +inf below q ~ 1e-16).
    """

    def __init__(self, density, mean, sample, centre: float, lower: float = -np.inf):
        super().__init__(a=lower, name="meanex")
        self.density, self._mean, self._sample, self._centre = density, mean, sample, centre
        self._mass_checked = False

    def _pdf(self, x):
        return self.density(x)

    def _stats(self):
        return self._mean(), None, None, None

    def _rvs(self, size=None, random_state=None):
        return self._sample(random_state, int(np.prod(size))).reshape(size)

    def _mass(self, lo: float, hi: float) -> float:
        """Mass between lo and hi. A flagged quad over a finite interval
        raises NumericError; a half-line one only warns, as scipy's
        quantile bracket search may probe a heavy tail far out."""
        if np.isfinite(lo) and np.isfinite(hi):
            value = _checked_quad(self.density, lo, hi, "the law", limit=300)
        else:
            value = integrate.quad(self.density, lo, hi, limit=300)[0]
            if not np.isfinite(value):
                raise NumericError(f"quadrature over [{lo:g}, {hi:g}] is not finite for the law")
        return min(max(value, 0.0), 1.0)

    def check_mass(self) -> None:
        """Raise NumericError unless quad finds mass 1 under the density.

        quad maps a half-line at unit scale; a law far narrower than that
        falls between its nodes, and its CDF would come back as a step
        function. Checked once per law, before the first quadrature.
        """
        if not self._mass_checked:
            total = self._mass(self.a, self._centre) + self._mass(self._centre, self.b)
            if not abs(total - 1.0) <= 1e-6:
                raise NumericError(f"quadrature finds mass {total:.6g} under the density, not 1")
            self._mass_checked = True

    def _tails(self, xs: np.ndarray, edge: float) -> np.ndarray:
        """Mass between edge and each of xs, ordered from edge toward the
        centre: one quad up to the first point, then one per gap."""
        out = np.empty(xs.size)
        acc, prev = 0.0, edge
        for i, v in enumerate(xs):
            if v != prev:
                acc = min(acc + self._mass(min(v, prev), max(v, prev)), 1.0)
            out[i], prev = acc, v
        return out

    def _each(self, x, side: int):
        """F (side 0) or F_bar (side 1) at every point of x."""
        self.check_mass()
        flat = np.ravel(x)
        order = np.argsort(flat, kind="stable")
        xs = flat[order]
        up = xs >= self._centre
        lower = self._tails(xs[~up], self.a)  # F below the centre
        upper = self._tails(xs[up][::-1], self.b)[::-1]  # F_bar above it
        vals = np.concatenate((lower, 1.0 - upper) if side == 0 else (1.0 - lower, upper))
        out = np.empty_like(vals)
        out[order] = vals
        return out.reshape(np.shape(x))

    def _cdf(self, x):
        return self._each(x, 0)

    def _sf(self, x):
        return self._each(x, 1)


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
        return _InHouseLaw(partial(gh_pdf, gh), partial(gh_mean, gh), partial(gh_sample, gh), centre=gh.mu)
    if fam == "gig":
        lam, chi, psi = p["lambda"], p["chi"], p["psi"]
        gig_validate(lam, chi, psi)
        return _InHouseLaw(
            partial(gig_pdf, lam, chi, psi),
            partial(gig_moment, lam, chi, psi, 1),
            partial(gig_sample, lam, chi, psi),
            centre=gig_mode(lam, chi, psi),
            lower=0.0,
        )
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


def std_sample(dist: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent draws, in draw order."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    return np.asarray(_sampler(dist)(rng, n), dtype=float)


def std_cdf(dist: DistributionSpec, x):
    return _frozen(dist).cdf(x)


def std_survival(dist: DistributionSpec, x):
    """1 - F computed by the stable direct formula where available."""
    return _frozen(dist).sf(x)


def std_pdf(dist: DistributionSpec, x):
    """Density at x; in-house laws skip scipy's per-call argument handling,
    which costs as much as one GH density value."""
    law = _frozen(dist)
    return law.density(x) if isinstance(law, _InHouseLaw) else law.pdf(x)


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


def _checked_quad(f, a: float, b: float, what: str, **options) -> float:
    """int_a^b f by one adaptive quad; NumericError when quad flags its
    result (ier != 0) or the value is not finite."""
    out = integrate.quad(f, a, b, full_output=1, **options)
    if len(out) > 3:  # quad appends a message exactly when ier != 0
        raise NumericError(f"quadrature over [{a:g}, {b:g}] failed for {what}: {out[3]}")
    if not np.isfinite(out[0]):
        raise NumericError(f"quadrature over [{a:g}, {b:g}] is not finite for {what}")
    return float(out[0])


def integrate_density(dist: DistributionSpec, weight, a: float, b: float) -> float:
    """int_a^b weight(x) f(x) dx by one adaptive quad (limit 400) held to
    quad's relative tolerance alone: a far tail's value can lie well below
    its default absolute tolerance of 1.49e-8.

    quad maps a half-line onto (0, 1] at unit scale. A standard law is
    therefore integrated in t = (x - c) / s, c its median and s its
    interquartile range, so a narrow law is resolved wherever it sits. An
    in-house law, whose quantiles are quadratures themselves, is
    integrated in x after its mass check. Raises NumericError when quad
    flags its result (ier != 0) or the value is not finite.
    """
    law = _frozen(dist)
    if isinstance(law, _InHouseLaw):
        law.check_mass()
        pdf, c, s = law.density, 0.0, 1.0
    else:
        pdf, c, s = law.pdf, float(law.median()), _iqr(law)
    return _checked_quad(
        lambda t: weight(c + s * t) * pdf(c + s * t) * s, (a - c) / s, (b - c) / s, dist.family,
        limit=400, epsabs=0.0,
    )


def _iqr(law) -> float:
    return float(law.ppf(0.75) - law.ppf(0.25))


def dist_stop_loss(dist: DistributionSpec, u: float) -> float:
    """E[(X - u)^+] = int_u^b (x - u) f(x) dx, the numerator of the mean
    excess function, by one quadrature above u.

    When the mass lies far above u on a scale far below that distance,
    quad's nodes can all miss it and the integral comes back as ~0 with
    no flag. E[(X - u)^+] >= E[X] - u exposes that; the mass below u is
    then the small side, and E[X] - u + int_a^u (u - x) f(x) dx is the
    value.
    """
    lo, hi = dist_support(dist)
    mean = dist_mean(dist)
    above = integrate_density(dist, lambda x: x - u, u, hi)
    if above >= mean - u:
        return above
    return mean - u + integrate_density(dist, lambda x: u - x, lo, u)


def dist_tail_moments(dist: DistributionSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F_bar(u_i) and S(u_i) = E[(X - u_i)^+] at strictly increasing
    thresholds inside the support, walked from the top down.

    The top point, and any point whose gap to the next is wider than the
    law's bulk (``_spread``; such a gap can hold the whole mass between
    quad's nodes), takes S from ``dist_stop_loss``. Every other point
    adds its gap to the point above:

        S(u_i) = S(u_{i+1}) + (u_{i+1} - u_i) F_bar(u_{i+1})
                 + int_{u_i}^{u_{i+1}} (x - u_i) f(x) dx,

    three nonnegative terms, the last one short quadrature. F_bar is
    scipy's for a standard law. For GH/GIG it is built the same way from
    one quad of f per gap, and a point that takes S afresh takes F_bar
    from one quad over its tail on the far side of the law's centre, as
    the law's CDF does. These quads go through ``integrate_density``: the
    CDF's keep quad's absolute tolerance of 1.49e-8, coarse next to an
    F_bar of 1e-6.
    """
    law = _frozen(dist)
    in_house = isinstance(law, _InHouseLaw)
    sf = np.zeros(u.size) if in_house else np.atleast_1d(np.asarray(law.sf(u), dtype=float))
    s = np.zeros(u.size)
    spread = _spread(dist) if u.size > 1 else 0.0
    for i in range(u.size - 1, -1, -1):
        a = u[i]
        b = u[i + 1] if i + 1 < u.size else np.inf
        if b - a <= spread:
            if in_house:
                sf[i] = sf[i + 1] + integrate_density(dist, _one, a, b)
            s[i] = s[i + 1] + (b - a) * sf[i + 1] + integrate_density(dist, lambda x: x - a, a, b)
            continue
        if in_house:
            far = a >= law._centre
            side = integrate_density(dist, _one, a, law.b) if far else integrate_density(dist, _one, law.a, a)
            sf[i] = side if far else 1.0 - side
        if sf[i] > 0.0:
            s[i] = dist_stop_loss(dist, a)
    return sf, s


def _one(x):
    return 1.0


@lru_cache(maxsize=256)
def _spread(dist: DistributionSpec) -> float:
    """Width of the law's bulk: the interquartile range of a standard law,
    E|X - E[X]| = 2 E[(X - E[X])^+] of a GH/GIG law (one quadrature; its
    quantiles would take dozens each). Every law with a mean has one."""
    law = _frozen(dist)
    if isinstance(law, _InHouseLaw):
        return 2.0 * dist_stop_loss(dist, dist_mean(dist))
    return _iqr(law)


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
