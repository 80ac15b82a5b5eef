"""Distribution registry: the standard families used by the reference
curves, plus the generalized hyperbolic and generalized inverse Gaussian
laws, behind one text format.

``FAMILIES`` states each family once: its parameters in order, the rule
each value keeps (real, positive or nonnegative, and finite in every
case), and its frozen scipy law (none for GH and GIG). Each law resolves
once into a ``_Frame`` (``_frame``), which gives its density, draws, F,
F_bar, quantiles and mean at the offset d = x - loc from the law's
location ``loc``, so no digit of d is lost next to it. A standard
family's F, F_bar and quantiles are its frozen scipy law's, the rest its
standard law's times its scale. GH and GIG take their density, mean and
sampler from ``gh`` / ``gig``, F and F_bar from the gap walker
(``_walk``) and quantiles from ``_quantile``. Every integral of a density
is one checked quadrature path (``_integrate``): all intervals of a walk
over a grid go into one ``scipy.integrate.cubature`` call, which
evaluates the density at a region's nodes for all intervals as one
array. A call can integrate (x - ref) f beside f from the same density
values, so a walk gets F_bar and the stop loss of every threshold together.

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
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
from scipy import integrate, optimize, special, stats

from .errors import DomainError, InputError, NumericError
from .gh import GhParams, _density, gh_bulk, gh_mean, gh_sample
from .gig import gig_bulk, gig_moment, gig_pdf, gig_sample

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


# family -> its parameters in order, each with the rule its value keeps
# (``_RULES``), and its frozen scipy law from the parameters (None for GH and
# GIG, whose frames ``gh`` and ``gig`` decide)
FAMILIES: dict[str, tuple[dict[str, str], object]] = {
    "gpd": ({"xi": "real", "beta": "positive"}, lambda p: stats.genpareto(c=p["xi"], scale=p["beta"])),
    "pareto": ({"alpha": "positive", "lambda": "positive"}, lambda p: stats.lomax(c=p["alpha"], scale=p["lambda"])),
    "exponential": ({"lambda": "positive"}, lambda p: stats.expon(scale=1.0 / p["lambda"])),
    "weibull": ({"beta": "positive", "tau": "positive"},
                lambda p: stats.weibull_min(c=p["tau"], scale=p["beta"] ** (-1.0 / p["tau"]))),
    "burr": ({"alpha": "positive", "lambda": "positive", "tau": "positive"},
             lambda p: stats.burr12(c=p["tau"], d=p["alpha"], scale=p["lambda"] ** (1.0 / p["tau"]))),
    "gompertz": ({"alpha": "positive", "lambda": "positive"},
                 lambda p: stats.gompertz(c=p["alpha"] / p["lambda"], scale=1.0 / p["lambda"])),
    "gamma": ({"alpha": "positive", "beta": "positive"}, lambda p: stats.gamma(a=p["alpha"], scale=1.0 / p["beta"])),
    "beta": ({"a": "positive", "b": "positive"}, lambda p: stats.beta(a=p["a"], b=p["b"])),
    "lognormal": ({"mu": "real", "sigma": "positive"}, lambda p: stats.lognorm(s=p["sigma"], scale=math.exp(p["mu"]))),
    "normal": ({"mu": "real", "sigma": "positive"}, lambda p: stats.norm(loc=p["mu"], scale=p["sigma"])),
    "laplace": ({"mu": "real", "sigma": "positive", "tau": "positive"},
                lambda p: stats.laplace_asymmetric(kappa=p["tau"], loc=p["mu"], scale=p["sigma"])),
    "student": ({"nu": "positive", "mu": "real"}, lambda p: stats.t(df=p["nu"], loc=p["mu"])),
    "cauchy": ({"mu": "real", "delta": "positive"}, lambda p: stats.cauchy(loc=p["mu"], scale=p["delta"])),
    "gh": ({"lambda": "real", "alpha": "nonnegative", "beta": "real", "delta": "nonnegative", "mu": "real"}, None),
    "gig": ({"lambda": "real", "chi": "nonnegative", "psi": "nonnegative"}, None),
}

# rule -> the sign test a value must pass before it is checked to be finite
_RULES = {"real": lambda v: True, "positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}

_ALIASES = {"exp": "exponential", "studentt": "student", "t": "student", "lognorm": "lognormal", "gauss": "normal"}

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(.*?)\s*\)\s*$", re.S)


def make_spec(family: str, **params: float) -> DistributionSpec:
    """Build and validate a spec from keyword parameters."""
    fam = _ALIASES.get(family.lower(), family.lower())
    if fam not in FAMILIES:
        raise InputError(f"unknown distribution family '{family}'")
    rules, _ = FAMILIES[fam]
    missing = [n for n in rules if n not in params]
    extra = [n for n in params if n not in rules]
    if missing:
        raise InputError(f"{fam} missing parameter(s): {', '.join(missing)}")
    if extra:
        raise InputError(f"{fam} does not take parameter(s): {', '.join(extra)}")
    ordered = []
    for name, rule in rules.items():
        val = float(params[name])
        if not _RULES[rule](val):
            raise DomainError(f"{fam} parameter {name} must be {rule}, got {val:g}")
        if not math.isfinite(val):
            raise DomainError(f"{fam} parameter {name} must be finite")
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
    """What meanex computes from a law, resolved once per law, at the
    offset d = x - loc from the law's location ``loc``, so a point next to
    it keeps every digit of its offset: the density pdf(d); draws in x,
    draw(rng, n) for n of them in draw order; mean(), an offset; and for
    quadrature the support [lo, hi], a centre in the bulk, a length no
    wider than that bulk, and whether the density has a pole at the
    centre. ``_edges`` and ``_inverse`` take F, F_bar and quantiles from
    the frozen scipy ``law``, or for GH/GIG (``law`` None) from ``_walk``
    and ``_quantile``."""

    name: str
    pdf: object
    draw: object
    mean: object
    lo: float
    hi: float
    centre: float
    scale: float
    pole: bool = False
    loc: float = 0.0
    law: object = None


@lru_cache(maxsize=256)
def _frame(spec: DistributionSpec) -> _Frame:
    """The law's frame, resolved once. GH and GIG take their density, mean
    and draws from ``gh`` / ``gig`` (log space, scaled Bessel functions:
    scipy's ``genhyperbolic`` mean is NaN once delta sqrt(alpha^2 -
    beta^2) reaches the hundreds, ``geninvgauss`` NaN at chi psi ~ 1e23),
    with loc mu or 0; a GH density is resolved on its first call, so a law
    whose norming constant leaves the double range can still be drawn. A
    standard family's frozen scipy law gives loc and scale, and the rest
    is its standard law's times scale: scipy's unfrozen ``pdf`` at
    d / scale, support, median (the centre), interquartile range (the
    bulk), mean, and draws from ``_rvs``, without the argument handling of
    ``rvs`` that a Monte Carlo protocol would pay on every replicate.
    InputError for a family ``FAMILIES`` does not name; NumericError where
    the law's scale overflows, as 1 / lambda does at lambda = 1e-320, or
    underflows to 0, as beta^(-1/tau) does at beta = 1e300, tau = 0.01, or
    where its density is not finite at the centre: 1 / scale times the
    standard density overflows at ``normal(mu=0,sigma=1e-310)``, not at
    ``gamma(alpha=2,beta=1e308)``."""
    p, fam = spec.as_dict(), spec.family
    if fam == "gh":
        gh = GhParams(lam=p["lambda"], alpha=p["alpha"], beta=p["beta"], delta=p["delta"], mu=p["mu"])
        return _Frame(fam, lambda d: _density(gh)(d), partial(gh_sample, gh), partial(gh_mean, replace(gh, mu=0.0)),
                      -np.inf, np.inf, *gh_bulk(gh), loc=gh.mu)
    if fam == "gig":
        gig = p["lambda"], p["chi"], p["psi"]
        return _Frame(fam, partial(gig_pdf, *gig), partial(gig_sample, *gig), partial(gig_moment, *gig, 1), 0.0,
                      np.inf, *gig_bulk(*gig))
    if fam not in FAMILIES:
        raise InputError(f"unknown family '{fam}'")
    try:
        law = FAMILIES[fam][1](p)
        shapes, loc, scale = law.dist._parse_args(*law.args, **law.kwds)
    except OverflowError:  # a power or exp of finite parameters passed the double range
        scale = math.inf
    if not math.isfinite(scale):
        raise NumericError(f"{format_distribution_spec(spec)}: the law's scale overflows")
    if scale == 0.0:
        raise NumericError(f"{format_distribution_spec(spec)}: the law's scale underflows to 0")

    def pdf(d):
        with np.errstate(over="ignore"):  # x^tau of a far Weibull or Burr tail, where the density is 0
            return law.dist.pdf(d / scale, *shapes) / scale

    def draw(rng, n):
        return law.dist._rvs(*shapes, size=n, random_state=rng) * scale + loc

    lo, hi = np.multiply(law.dist.support(*shapes), scale)
    q1, centre, q3 = law.dist.ppf([0.25, 0.5, 0.75], *shapes) * scale
    with np.errstate(all="ignore"):  # a refusal, not a warning, where the density fails
        top = pdf(centre)
    if not np.isfinite(top):
        raise NumericError(f"{format_distribution_spec(spec)}: the law's density is not finite at its centre "
                           f"(scale {scale:.3g})")
    return _Frame(fam, pdf, draw, lambda: law.dist.mean(*shapes) * scale, float(lo), float(hi), float(centre),
                  float(q3 - q1), loc=loc, law=law)


def _edges(frame: _Frame, x, upper: bool):
    """F_bar (upper) or F at x, in its shape: the scipy law's, or NaN at
    NaN, 0 or 1 outside the open support, and ``_walk``'s at x - loc. The
    walk gets the inside points alone, flattened in C order, as scipy's
    ``cdf`` hands them to ``_cdf``: its gaps depend on that set."""
    if frame.law is not None:
        return frame.law.sf(x) if upper else frame.law.cdf(x)
    d = np.asarray(x, dtype=float) - frame.loc
    out = np.asarray(d <= frame.lo if upper else d >= frame.hi, dtype=float)
    out[np.isnan(d)] = np.nan
    inside = (frame.lo < d) & (d < frame.hi)
    if np.any(inside):
        out[inside] = _walk(frame, d[inside], upper)
    return out[()]


def _inverse(frame: _Frame, q, upper: bool):
    """x with F_bar(x) = q (upper) or F(x) = q: the scipy law's, or loc
    plus ``_quantile``'s offset for q in (0, 1), the ends of the support
    at q = 0 and q = 1, and NaN at any other q. The shape of q."""
    if frame.law is not None:
        return frame.law.isf(q) if upper else frame.law.ppf(q)
    q = np.asarray(q)
    out = np.full(q.shape, np.nan)
    out[q == 0], out[q == 1] = (frame.hi, frame.lo) if upper else (frame.lo, frame.hi)
    inside = (0 < q) & (q < 1)
    out[inside] = [_quantile(frame, v, upper) for v in q[inside]]
    return (out + frame.loc)[()]


def std_sample(dist: DistributionSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent draws, in draw order."""
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    return np.asarray(_frame(dist).draw(rng, n), dtype=float)


def std_cdf(dist: DistributionSpec, x):
    return _edges(_frame(dist), x, upper=False)


def std_survival(dist: DistributionSpec, x):
    """F_bar at x: scipy's own for a standard law. For GH/GIG the gap
    walker's, which starts from a tail on the far side of the law's
    centre, so F_bar keeps its relative accuracy far out."""
    return _edges(_frame(dist), x, upper=True)


def std_pdf(dist: DistributionSpec, x):
    """Density at x, the one the frame integrates, read at x - loc: for a
    standard family bitwise the frozen scipy law's ``pdf``."""
    frame = _frame(dist)
    return frame.pdf(np.asarray(x, dtype=float) - frame.loc)


def dist_support(dist: DistributionSpec) -> tuple[float, float]:
    frame = _frame(dist)
    return frame.lo + frame.loc, frame.hi + frame.loc


def _mean(frame: _Frame) -> float:
    """The mean's offset from loc; DomainError where the mean is not finite."""
    m = float(frame.mean())
    if not np.isfinite(m + frame.loc):
        raise DomainError(f"{frame.name} has no finite mean at these parameters")
    return m


def dist_mean(dist: DistributionSpec) -> float:
    frame = _frame(dist)
    return _mean(frame) + frame.loc


def dist_isf(dist: DistributionSpec, q: float) -> float:
    return float(_inverse(_frame(dist), q, upper=True))


def dist_ppf(dist: DistributionSpec, q: float) -> float:
    return float(_inverse(_frame(dist), q, upper=False))


# The log map stops at s = 300, |x - x0| = w e^300 ~ 1e130 w, where x^2
# stays finite, or where w e^s reaches e^_LOG_TOP, e^-8 of the largest
# double (s ~ 10.7 for a normal law of sigma 1e300), so x0 + dx and the
# map's slope stay finite; a piece with an end at an anchor starts
# _INNER_SPAN below s = min(0, its own far end), within w e^-40 ~ 4e-18 w
# of the anchor. ``_power_rest`` adds what lies past either cut.
_LOG_SPAN = 300.0
_LOG_TOP = math.log(np.finfo(float).max) - 8.0
_INNER_SPAN = 40.0
# quad's default relative tolerance: how closely the two readings of a
# rest past a cut must agree, and what a quantile's gap steps allow for
_EPSREL = 1.49e-8
# cubature's relative tolerance. It bounds |K21 - G10|, the error of the
# 10-node Gauss sum, not that of the 21-node Kronrod value cubature
# returns. Held to 1.49e-8, F_bar of a GIG law walked over a grid and
# taken point by point differed by 1.5e-10; held to 1e-10, by at most
# 7e-15 on every law tried
_RTOL = 1e-10
_TINY = np.finfo(float).tiny
# where cubature's first subintervals of a log-mapped integrand end, in s:
# on GH laws of daily-return scale these took half the nodes of [0, 1]
# alone, and a far tail's value stays within 1e-14 of mpmath
_LOG_BREAKS = (-16.0, -4.0, 2.0, 8.0, 32.0)


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """A 20-node Gauss-Legendre rule on [0, 1], the nodes as a column:
    the first estimate of each piece, which its integrand is divided by.
    Worked out on first use, so a process that integrates nothing never
    starts LAPACK for it (about 0.5 MB)."""
    nodes, weights = special.roots_legendre(20)
    return 0.5 * (nodes[:, None] + 1.0), 0.5 * weights


def _power_rest(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What a mapped integrand holds past a cut in s, from g, its values
    two units, one unit and zero units before the cut (three rows), and
    how far the same rest read one unit earlier lies from it.

    Past the cut g is taken to decay as e^-(k |s|), as a power of the
    distance from the map's origin does (a power tail, or a density with
    a pole or a smooth value at an end of its piece), so the rest is
    g(cut) / k, k read over the last unit. NaN where g does not decay.
    """
    g0, g1, g2 = g
    gone = g2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k_before, k_last = np.log(g0 / g1), np.log(g1 / g2)
        rest = np.where(gone, 0.0, g2 / k_last)
        spread = np.where(gone, 0.0, np.abs(g2 / k_before - rest))
    return np.where(gone | ((k_before > 0.0) & (k_last > 0.0)), rest, np.nan), spread


def _integrate(frame: _Frame, a, b, ref=None):
    """int f(x) dx over each interval [a_i, b_i] of offsets from loc (a <=
    b), one value per interval; with ref given, the pair of that mass and
    the moment int (x - ref_i) f(x) dx. All of it comes from one
    ``cubature`` call, which evaluates the density at a region's nodes for
    all pieces as one array, so a moment costs no density value of its own.

    Each interval is split at the law's centre c, where a variance-gamma
    density has its kink or pole, and w inside each finite end of the
    support (w is the bulk length ``scale``). Each piece is mapped onto t
    in [0, 1]:

    - a piece with an end at an anchor, a finite end of the support or a
      centre where the density has a pole (``pole``): x = anchor +- w e^s,
      from _INNER_SPAN below s = min(0, log(width / w)) up to
      log(width / w), so a density that goes as a power of the distance
      to the anchor becomes e^(k s). The density is read at the offset
      anchor + dx, which keeps every digit of dx at a pole; next to
      an end, s starts where x is 2^20 ulps from the end, an ulp counted
      as at least the smallest normal double. A piece with no room for
      that next to an end at 0 is refused if its density grows toward
      that end, a pole the linear map below cannot take;
    - any other piece no wider than w: linearly;
    - a wider one: x = x0 +- w (e^s - 1), s >= 0, from its end x0 nearer
      c, so the bulk stays on the scale w near s = 0 and a power tail
      x^-(k+1) becomes e^-(k s).

    s stops at _LOG_SPAN, or sooner for a w near the double range's top,
    and ``_power_rest`` adds what lies past that cut
    and below a piece's inner start. ``cubature`` holds each value to
    _RTOL of its own, but splits first the region whose largest error is
    largest, so each piece's integrand is divided by a first estimate of
    its value, a 20-node Gauss-Legendre sum, which puts the errors of all
    pieces on one scale. A zero-width interval is exactly 0 without a
    call. NumericError when a piece is refused, cubature does not
    converge, a cut leaves a rest that is not a power law's, or a value
    is not finite.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    c, w = frame.centre, frame.scale
    cuts = np.unique([-np.inf, frame.lo + w, c, frame.hi - w, np.inf])
    lo = np.clip(a[:, None], cuts[:-1], cuts[1:]).ravel()
    hi = np.clip(b[:, None], cuts[:-1], cuts[1:]).ravel()
    keep = hi > lo
    owner, lo, hi = np.repeat(np.arange(a.size), cuts.size - 1)[keep], lo[keep], hi[keep]
    if not owner.size:
        zero = np.zeros(shape)
        return zero if ref is None else (zero, np.zeros(shape))
    if ref is not None:
        ref = np.broadcast_to(np.asarray(ref, dtype=float), shape).ravel()[owner]

    width = hi - lo
    # an anchor is a point where the density may be singular: a finite end
    # of the support, or the centre of a law with a pole there
    pole_lo, pole_hi = frame.pole & (lo == c), frame.pole & (hi == c)
    at_lo = pole_lo | ((lo == frame.lo) & np.isfinite(lo))
    at_hi = ~at_lo & (pole_hi | ((hi == frame.hi) & np.isfinite(hi)))
    with np.errstate(divide="ignore"):
        log_width = np.log(width / w)
        cut = min(_LOG_SPAN, _LOG_TOP - np.log(w))
        # x0 + dx keeps every digit of dx next to a pole at the centre;
        # next to an end of the support the points stay 2^20 ulps of the
        # end, and at least 2^20 smallest normal doubles, away from it (so
        # no density is read at subnormal spacing next to 0), and a piece
        # with no room for that is not mapped from its anchor
        ulp = np.maximum(np.spacing(np.abs(np.where(at_lo, lo, hi))), _TINY)
        floor = np.where(pole_lo | pole_hi, -np.inf, np.log(ulp * 2.0 ** 20 / w))
    inner = (at_lo | at_hi) & (floor < log_width - 2.0)
    lin = ~inner & (width <= w)
    up = np.where(inner, at_lo, lin | (lo >= c))  # dx runs up from lo, else down from hi
    x0 = np.where(up, lo, hi)
    span = np.where(inner, log_width, np.log1p(width / w))  # s at the far end
    far_cut = ~lin & (span > cut)
    # every piece as x0 + dx, dx = slope t + reach (e^s - shift) with
    # s = start + rate t: the three maps of the docstring
    start = np.where(inner, np.maximum(np.minimum(span, 0.0) - _INNER_SPAN, floor), 0.0)
    rate = np.where(lin, 0.0, np.minimum(span, cut) - start)
    columns = (
        x0,
        np.where(lin, width, 0.0),  # slope
        np.where(lin, 0.0, np.where(up, w, -w)),  # reach
        np.where(inner, 0.0, 1.0),  # shift
        start,
        rate,
        ref,
    )

    def mapped(x0, slope, reach, shift, start, rate, ref):
        pull = w * rate

        def integrand(t):
            e = np.exp(start + rate * t)
            dx = slope * t + reach * (e - shift)
            y = frame.pdf(x0 + dx) * (slope + pull * e)
            return y[..., None, :] if ref is None else np.stack((y, y * ((x0 - ref) + dx)), axis=-2)

        return integrand

    def pick(sel):
        return [None if v is None else v[sel] for v in columns]

    integrand = mapped(*columns)
    nodes, weights = _gauss_legendre()
    first = integrand(nodes)
    estimate = np.abs(np.tensordot(weights, first, 1))
    x_a, x_b = a + frame.loc, b + frame.loc  # a message names points in x, not offsets
    where = f"[{x_a[0]:g}, {x_b[0]:g}]" if a.size == 1 else f"{a.size} intervals in [{x_a.min():g}, {x_b.max():g}]"
    if not np.all(np.isfinite(estimate)):  # a density past the double range: no unit to scale by
        raise NumericError(f"quadrature over {where} is not finite for {frame.name}")
    # a piece with no room for its map from an end at 0, of a law at loc 0,
    # is taken linearly: exact for a density bounded there, which cannot
    # change across so narrow a piece. One that grows toward the end has a
    # pole, on which cubature spent its whole budget (about 7 s for a
    # Gamma-class GIG law with lambda < 1), so it is refused
    rising = np.where(at_lo, first[0, 0] > first[-1, 0], first[-1, 0] > first[0, 0])
    cramped = (at_lo | at_hi) & ~inner & (ulp == _TINY) & rising
    if np.any(cramped):
        i = np.flatnonzero(cramped)[0]
        raise NumericError(f"quadrature over [{lo[i]:g}, {hi[i]:g}] is refused for {frame.name}: the density "
                           f"grows toward the end of the support at {(lo if at_lo[i] else hi)[i]:g}, and the piece "
                           f"is narrower than the {np.exp(floor[i] + 2.0) * w:.3g} that its map from that end needs "
                           f"to stay off subnormal spacing")
    # a subnormal estimate is no unit: values divided by it carry fewer than
    # 53 bits, and cubature spent its whole budget on them (30 s for a GH
    # curve whose F_bar reaches 1e-320). Such a piece keeps unit 1 and meets
    # atol = _TINY, below which F_bar gives e = 0 (``mef``)
    units = np.where(estimate >= _TINY, estimate, 1.0)
    # cubature starts from subintervals that end at s = _LOG_BREAKS of the
    # longest log map, so no round of nodes is spent closing in on s = 0
    i = np.argmax(rate)
    breaks = [[(s - start[i]) / rate[i]] for s in _LOG_BREAKS if start[i] < s < start[i] + rate[i]]
    res = integrate.cubature(lambda t: integrand(t) / units, [0.0], [1.0], rule="gk21", rtol=_RTOL, atol=_TINY,
                             points=breaks)
    if res.status != "converged":
        raise NumericError(f"quadrature over {where} failed for {frame.name}: not converged after "
                           f"{res.subdivisions} subdivisions")
    value = res.estimate * units

    def past(sel, outward):
        # what the pieces sel hold past their cut, NaN unless the rest read
        # over the last unit and the unit before agree to the tolerance;
        # (x - ref) f is (x0 - ref) f + dx f, each a power on its own
        x0, slope, reach, shift, start, rate, ref = pick(sel)
        steps = np.array([[2.0], [1.0], [0.0]]) / rate
        t = 1.0 - steps if outward else steps
        g = mapped(x0, slope, reach, shift, start, rate, None if ref is None else x0)(t)
        rest, spread = _power_rest(g / rate)
        if ref is not None:
            rest[1] += (x0 - ref) * rest[0]
            spread[1] += np.abs(x0 - ref) * spread[0]
        return np.where(spread <= _EPSREL * np.abs(value[:, sel] + rest), rest, np.nan)

    if np.any(inner):
        rest = past(inner, False)
        if np.any(np.isnan(rest)):
            raise NumericError(f"quadrature over {where} for {frame.name} stops short of an end or pole of the "
                               f"density, and the rest there does not read as a power of the distance")
        value[:, inner] += rest
    if np.any(far_cut):
        rest = past(far_cut, True)
        if np.any(np.isnan(rest)):
            raise NumericError(f"quadrature for {frame.name} cuts its half-line at {cut:.3g} in log scale, "
                               f"and the tail beyond does not fall as a power of x")
        value[:, far_cut] += rest
    if not np.all(np.isfinite(value)):
        raise NumericError(f"quadrature over {where} is not finite for {frame.name}")
    sums = tuple(np.bincount(owner, weights=v, minlength=a.size).reshape(shape) for v in value)
    return sums[0] if ref is None else sums


@lru_cache(maxsize=256)
def _check_mass(frame: _Frame) -> tuple[float, float]:
    """F and F_bar at the centre, once quadrature finds mass 1 under the
    density; NumericError otherwise (a law far narrower than its
    ``scale`` can fall between the nodes, and its F would come back as
    a step function). Both halves are one ``_integrate`` call."""
    below, above = _integrate(frame, [frame.lo, frame.centre], [frame.centre, frame.hi])
    total = below + above
    if not abs(total - 1.0) <= 1e-6:
        raise NumericError(f"quadrature finds mass {total:.6g} under the density, not 1")
    return float(below), float(above)


def _walk(frame: _Frame, x, upper: bool, mean=None):
    """F_bar (upper) or F at every point of x, the one builder of both;
    with the law's mean given (upper only), the pair of F_bar and the stop
    loss S(x) = E[(X - x)^+]. x and the mean are offsets from loc.

    F_bar is walked down from the upper edge and F up from the lower one.
    The first point takes its tail on the far side of the centre, so
    whichever of F and F_bar is small keeps its relative accuracy. Each
    later point adds the mass of its gap to the previous point. S walks
    down beside F_bar: the first point x_0 takes the tail's integral of
    (x - x_0) f above it, or E[X] - x_0 minus that integral below it, and
    each later point adds three nonnegative terms,
    S(x_{k+1}) = S(x_k) + (x_k - x_{k+1}) F_bar(x_k)
    + int_{x_{k+1}}^{x_k} (x - x_{k+1}) f(x) dx. The tail is one
    ``_integrate`` call and every gap, however wide, one more; each gives
    the masses and the moments from the same density values.
    """
    _check_mass(frame)
    flat = np.ravel(x)
    order = np.argsort(flat, kind="stable")
    if upper:
        order = order[::-1]
    walk = flat[order]
    above = walk[0] >= frame.centre
    tail = (walk[0], frame.hi) if above else (frame.lo, walk[0])
    near, far = np.minimum(walk[:-1], walk[1:]), np.maximum(walk[:-1], walk[1:])
    if mean is None:
        first, gaps = _integrate(frame, *tail), _integrate(frame, near, far)
    else:
        first, first_moment = _integrate(frame, *tail, ref=walk[0])
        gaps, moments = _integrate(frame, near, far, ref=near)
    mass = np.clip(np.cumsum(np.append(first if above == upper else 1.0 - first, gaps)), 0.0, 1.0)
    out = np.empty(walk.size)
    out[order] = mass
    if mean is None:
        return out.reshape(np.shape(x))
    # S(x_k) + (x_k - x_{k+1}) F_bar(x_k), then + the gap's moment
    steps = np.column_stack([(walk[:-1] - walk[1:]) * mass[:-1], moments]).ravel()
    stop_loss = np.empty(walk.size)
    stop_loss[order] = np.cumsum(np.append(first_moment if above else mean - walk[0] - first_moment, steps))[::2]
    return out.reshape(np.shape(x)), stop_loss.reshape(np.shape(x))


def _quantile(frame: _Frame, q: float, upper: bool) -> float:
    """The offset x with F_bar(x) = q (upper) or F(x) = q, from the tail
    beyond the centre that holds q, so a small q keeps its relative
    accuracy: isf(q) keeps it below q ~ 1e-16, where 1 - q rounds to 1.

    x runs from the centre at v = 0 out along the tail: x = centre +- w v
    toward an infinite end of the support, x = end + (centre - end) e^-v
    toward a finite one, so v holds x to the bulk w, or x - end to its
    relative accuracy. The bracket doubles v until the tail T at its
    outer end is at most q. Each step takes the gap from the tail at the
    step before; that difference is only good to about 3 epsrel of the
    last tail integral, so a step whose difference lands that close to q,
    or below it, takes a fresh tail from ``_walk`` instead. brentq then
    solves log T = log q in v inside the bracket, with T the outer end's
    tail plus the gap. Every integral is one interval of ``_integrate``.
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
        t -= float(_integrate(frame, a, b))
        if t - q <= 3.0 * _EPSREL * anchor:
            anchor = t = float(_walk(frame, at(outer), upper))
            if t <= q:
                break
        inner, outer = outer, 2.0 * outer
    log_q, x_out = math.log(max(q, _TINY)), at(outer)

    @lru_cache(maxsize=None)  # brentq asks again for the value at inner
    def excess(v):
        x = at(v)
        return math.log(max(t + float(_integrate(frame, min(x, x_out), max(x, x_out))), _TINY)) - log_q

    if excess(inner) <= 0.0:
        return at(inner)
    return at(optimize.brentq(excess, inner, outer, xtol=1e-15))


def dist_stop_loss(dist: DistributionSpec, u: float) -> float:
    """E[(X - u)^+], the numerator of the mean excess function: the
    one-point ``dist_tail_moments``, one quadrature over u's tail on the
    far side of the law's centre, where the mass is the small side.
    NumericError when the mass check or the quadrature fails."""
    return float(dist_tail_moments(dist, float(u))[1])


def dist_tail_moments(dist: DistributionSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F_bar(u_i), the law's own, and S(u_i) = E[(X - u_i)^+] at
    thresholds inside the support, walked together from the top down
    (``_walk``, at u_i - loc): one quadrature over the top threshold's
    tail and one of every gap, each giving mass and moment. A GH/GIG
    law's F_bar is the walk's; a standard law's is scipy's own."""
    frame = _frame(dist)
    return _tail_moments(frame, u, _mean(frame))


def _tail_moments(frame: _Frame, u, mean: float):
    """``dist_tail_moments`` on the law's frame, given its mean's offset
    from loc, which a caller that has it does not compute again."""
    sf, stop_loss = _walk(frame, np.asarray(u, dtype=float) - frame.loc, True, mean)
    if frame.law is not None:
        sf = np.asarray(frame.law.sf(u), dtype=float)
    return sf, stop_loss


def dist_mean_abs(dist: DistributionSpec) -> float:
    """E|X| = 2 E[X^+] - E[X]; the mean when the support is nonnegative.
    The mean is computed once, and rejects undefined-mean families."""
    frame = _frame(dist)
    offset = _mean(frame)
    mean = offset + frame.loc
    if frame.lo + frame.loc >= 0.0:
        return mean
    return 2.0 * float(_tail_moments(frame, 0.0, offset)[1]) - mean


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
