"""Generalized hyperbolic (GH) family: density, norming constant,
domain classification, and sampling.

Parameter bundle (lam, alpha, beta, delta, mu): lam selects the Bessel
order and the subclass, alpha the shape, beta the skew, delta the scale,
mu the location. Interior density:

    f(x) = a * (delta^2 + (x-mu)^2)^((lam - 1/2)/2)
             * exp(beta (x - mu)) * K_{lam-1/2}(alpha sqrt(delta^2 + (x-mu)^2))

    a = (alpha^2 - beta^2)^(lam/2)
        / (sqrt(2 pi) alpha^(lam-1/2) delta^lam K_lam(delta sqrt(alpha^2-beta^2)))

Admissible domains:

    lam < 0: delta > 0, |beta| <= alpha
    lam = 0: delta > 0, |beta| <  alpha
    lam > 0: delta >= 0, |beta| <  alpha

The family nests named subclasses (hyperbolic lam=1, NIG lam=-1/2) and
limit classes at exact parameter values (see ``gh_validate``), which are
dispatched to their closed forms: the interior formula gives 0/0 there.
Every other valid law, however close to a limit, takes the interior
density; where its terms leave double range (alpha^2, delta^2 or
K_lam(delta gamma) overflowing) it raises NumericError.

Everything is evaluated in log space with exponentially scaled Bessel
functions, so far tails and extreme parameter magnitudes stay finite.

Sampling uses the normal mean-variance mixture

    X = mu + beta W + sqrt(W) Z,   W ~ GIG(lam, delta^2, alpha^2 - beta^2)

whose boundary cases (psi = 0 Inverse Gamma, chi = 0 Gamma) are exactly
the Student and variance-gamma limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .bessel import bessel_k_scaled
from .errors import DomainError, NumericError
from .gig import gig_mode, gig_moment, gig_sample

__all__ = [
    "GhParams",
    "gh_validate",
    "gh_norming",
    "gh_pdf",
    "gh_sample",
    "gh_mean",
    "gh_variance",
    "gh_bulk",
]

_INTERIOR = ("interior", "hyperbolic", "nig")


@dataclass(frozen=True)
class GhParams:
    lam: float
    alpha: float
    beta: float
    delta: float
    mu: float


def gh_validate(params: GhParams) -> str:
    """Total classification of a parameter bundle.

    Returns 'invalid', 'interior', or a subclass/limit name:
    'hyperbolic', 'nig', 'variance-gamma', 'skew-laplace', 'skew-student',
    'student', 'cauchy', the limit classes at exact values: alpha == 0,
    alpha == |beta| > 0 with lam < 0, and delta == 0 with lam > 0.
    """
    lam, al, be, de = params.lam, params.alpha, params.beta, params.delta
    for v in (lam, al, be, de, params.mu):
        if not np.isfinite(v):
            return "invalid"
    if al < 0 or de < 0:
        return "invalid"
    if lam < 0:
        if not (de > 0 and abs(be) <= al):
            return "invalid"
    else:
        if not (abs(be) < al):
            return "invalid"
        if lam == 0 and not de > 0:
            return "invalid"

    if al == 0.0:
        # domain already forces beta == 0 and lam < 0 here
        return "cauchy" if lam == -0.5 else "student"
    if lam < 0 and abs(be) == al:
        return "skew-student"
    if de == 0.0:
        # domain already forces lam > 0 here
        return "skew-laplace" if lam == 1.0 else "variance-gamma"
    if lam == 1.0:
        return "hyperbolic"
    if lam == -0.5:
        return "nig"
    return "interior"


def _require_valid(params: GhParams) -> str:
    kind = gh_validate(params)
    if kind == "invalid":
        raise DomainError(f"invalid generalized hyperbolic parameters {params}")
    return kind


def _log_norming_terms(params: GhParams) -> tuple[float, float, float]:
    """The log norming constant as c - (log kve(lam, delta gamma) - delta
    gamma), gamma = sqrt(alpha^2 - beta^2): returns c, the log of the
    scaled Bessel factor, and gamma; NumericError out of double range."""
    lam, al, be, de = params.lam, params.alpha, params.beta, params.delta
    gam2 = al * al - be * be
    gam = np.sqrt(gam2)
    if not 0.0 < de * gam < np.inf:
        raise NumericError(f"delta sqrt(alpha^2 - beta^2) = {de * gam:g} is out of double range")
    c = 0.5 * lam * np.log(gam2) - 0.5 * np.log(2.0 * np.pi) - (lam - 0.5) * np.log(al) - lam * np.log(de)
    return c, np.log(bessel_k_scaled(lam, de * gam)), gam


def gh_norming(params: GhParams) -> float:
    """The interior norming constant a. Boundary and limit parameter
    sets have no finite interior constant: error 'use limiting form'."""
    kind = _require_valid(params)
    if kind not in _INTERIOR:
        raise DomainError(f"use limiting form: parameters classify as '{kind}'")
    c, log_kve, gam = _log_norming_terms(params)
    val = float(np.exp(c - (log_kve - params.delta * gam)))
    if not np.isfinite(val) or val == 0.0:
        raise DomainError("use limiting form: norming constant out of double range")
    return val


# Each builder below takes a law of its class and returns its density
# d -> f(mu + d) for finite offsets d, with every per-law constant worked
# out once. The same ufuncs run on a scalar d and on an array, so a
# scalar gets the bits of the matching array element.


def _interior(params: GhParams):
    # beta d - alpha q + delta gamma (+delta gamma from the norming constant)
    # peaks at 0 where (d, q) = delta (beta, alpha) / gamma =: (d0, q0), and
    # its terms cancel when alpha delta or beta d is large. As
    # (d - d0) (beta - alpha (d + d0) / (q + q0)) it cancels only near d0.
    order = params.lam - 0.5
    al, be, de = params.alpha, params.beta, params.delta
    c, log_kve, gam = _log_norming_terms(params)
    log_a = c - log_kve
    if not np.isfinite(log_a):
        raise NumericError(f"the norming constant is out of double range at K_{params.lam:g}({de * gam:g})")
    d0, q0 = de * (be / gam), de * (al / gam)

    def pdf(d):
        q = np.hypot(de, d)
        return np.exp(log_a + order * np.log(q) + (d - d0) * (be - al * ((d + d0) / (q + q0)))
                      + np.log(bessel_k_scaled(order, al * q)))

    return pdf


def _skew_student(params: GhParams):
    # alpha = |beta| > 0, lam < 0; the gamma -> 0 limit of the interior
    # norming constant (K_lam(z) ~ Gamma(-lam)/2 * (2/z)^(-lam) as z -> 0)
    lam, al, be, de = params.lam, params.alpha, params.beta, params.delta
    order = lam - 0.5
    log_a = (
        (lam + 1.0) * np.log(2.0)
        - 0.5 * np.log(2.0 * np.pi)
        - special.gammaln(-lam)
        - order * np.log(al)
        - 2.0 * lam * np.log(de)
    )
    neg_al_de2 = -al * de * de

    def pdf(d):
        q = np.hypot(de, d)
        # beta d - alpha q cancels on the heavy side, where beta d = alpha |d|;
        # there it equals -alpha delta^2 / (q + |d|)
        tilt = np.where(be * d > 0.0, neg_al_de2 / (q + np.abs(d)), be * d - al * q)
        return np.exp(log_a + order * np.log(q) + tilt + np.log(bessel_k_scaled(order, al * q)))

    return pdf


def _student(params: GhParams):
    # Student t with nu = -2 lam degrees of freedom and scale delta / sqrt(nu),
    # scipy's t density term for term. Where z^2 / nu overflows, z^2 / nu
    # dwarfs 1 and log1p(z^2 / nu) is 2 log|z| - log nu: the power tail of a
    # law with nu below about 1.1 is still above the double range's floor there.
    nu = -2.0 * params.lam
    s = params.delta / np.sqrt(nu)
    log_c = np.log(special.poch(0.5 * nu, 0.5)) - 0.5 * (np.log(nu) + np.log(np.pi))
    k, log_nu = (nu + 1) / 2, np.log(nu)

    def pdf(d):
        z = d / s
        with np.errstate(over="ignore"):
            t = z * z / nu
        log1p_t = np.log1p(t)
        far = np.isinf(t)
        if far.any():
            log1p_t = np.where(far, 2.0 * np.log(np.maximum(np.abs(z), 1.0)) - log_nu, log1p_t)
        return np.exp(log_c - k * log1p_t) / s

    return pdf


def _variance_gamma(params: GhParams):
    # variance gamma (delta = 0), skew-Laplace at lam = 1
    lam, al, be = params.lam, params.alpha, params.beta
    order = lam - 0.5
    gam2 = al * al - be * be
    log_a = (
        lam * np.log(gam2)
        - 0.5 * np.log(2.0 * np.pi)
        - (lam - 1.0) * np.log(2.0)
        - order * np.log(al)
        - special.gammaln(lam)
    )
    if lam > 0.5:
        centre = np.exp(log_a + special.gammaln(order) - np.log(2.0) + order * (np.log(2.0) - np.log(al)))
    else:
        centre = np.inf  # a pole at mu

    def pdf(d):
        at_centre = d == 0.0
        y = np.where(at_centre, 1.0, np.abs(d))
        out = np.exp(log_a + order * np.log(y) + be * d - al * y + np.log(bessel_k_scaled(order, al * y)))
        return np.where(at_centre, centre, out)

    return pdf


_BUILDERS = {
    "interior": _interior,
    "hyperbolic": _interior,
    "nig": _interior,
    "skew-student": _skew_student,
    "student": _student,
    "cauchy": _student,
    "variance-gamma": _variance_gamma,
    "skew-laplace": _variance_gamma,
}


@lru_cache(maxsize=256)
def _density(params: GhParams):
    """The law's density at mu + d, as a function of the offset d,
    resolved once per parameter set: the class and its constants, so a
    call pays only its class's arithmetic. The density is 0 at d = +-inf,
    where the formulas would give inf - inf."""
    f = _BUILDERS[_require_valid(params)](params)

    def pdf(d):
        far = np.isinf(d)
        if far.any():
            return np.where(far, 0.0, f(np.where(far, 0.0, d)))
        return f(d)

    return pdf


def gh_pdf(params: GhParams, x) -> np.ndarray | float:
    """Density at x (scalar or array), dispatching limit classes to
    their closed forms. Total on the real line for valid parameters."""
    arr = np.asarray(x, dtype=float)
    out = _density(params)(arr - params.mu)
    return float(out) if arr.ndim == 0 else out


def _mixing(params: GhParams) -> tuple[str, float, float]:
    """The class, and chi = delta^2, psi = alpha^2 - beta^2 (0 at a limit) of W."""
    kind = _require_valid(params)
    try:
        chi = 0.0 if kind in ("variance-gamma", "skew-laplace") else params.delta ** 2
        psi = 0.0 if kind in ("student", "cauchy", "skew-student") else params.alpha ** 2 - params.beta ** 2
    except OverflowError:
        raise NumericError(f"the mixing law of these '{kind}' parameters is out of double range") from None
    return kind, chi, psi


def gh_sample(params: GhParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws via the normal mean-variance mixture, in draw order."""
    return _sampler(params)(rng, n)


@lru_cache(maxsize=256)
def _sampler(params: GhParams):
    """The law's draw(rng, n), resolved once per parameter set: its
    mixing law, whose own sampler ``gig_sample`` resolves once."""
    _, chi, psi = _mixing(params)
    lam, mu, beta = params.lam, params.mu, params.beta

    def draw(rng, n):
        w = gig_sample(lam, chi, psi, rng, n)
        z = rng.standard_normal(n)
        return mu + beta * w + np.sqrt(w) * z

    return draw


def gh_mean(params: GhParams) -> float:
    """mu + beta E[W]; requires the mixing law to have a first moment."""
    kind, chi, psi = _mixing(params)
    try:
        w1 = gig_moment(params.lam, chi, psi, 1)
    except DomainError as exc:
        raise DomainError(f"mean undefined for '{kind}' parameters: {exc}") from exc
    return params.mu + params.beta * w1


def gh_variance(params: GhParams) -> float:
    """E[W] + beta^2 Var(W) for the mixture; inf when W lacks moments."""
    _, chi, psi = _mixing(params)
    try:
        w1 = gig_moment(params.lam, chi, psi, 1)
    except DomainError:
        return float("inf")
    if params.beta == 0.0:
        return w1
    try:
        w2 = gig_moment(params.lam, chi, psi, 2)
    except DomainError:
        return float("inf")
    return w1 + params.beta ** 2 * (w2 - w1 * w1)


def gh_bulk(params: GhParams) -> tuple[float, float, bool]:
    """A centre, as its offset from mu, a length no wider than the
    density's bulk, and whether the density has a pole at the centre.

    The variance-gamma classes are centred on mu (offset 0), where the
    density has its kink, or for lam <= 1/2 its pole, with length 1/alpha.
    The others are centred on mu + beta m, m the mode of the mixing law,
    with length delta, shrunk to sqrt(delta/alpha) when alpha delta > 1 (a
    near-Gaussian core) and by sqrt(nu) for a Student core of
    nu = -2 lam degrees of freedom.
    """
    kind, chi, psi = _mixing(params)
    if kind in ("variance-gamma", "skew-laplace"):
        return 0.0, 1.0 / params.alpha, params.lam <= 0.5  # K_(lam-1/2)(alpha |x - mu|)
    centre = params.beta * float(gig_mode(params.lam, chi, psi))
    shrink = max(1.0, params.alpha * params.delta) * max(1.0, -2.0 * params.lam)
    return centre, params.delta / float(np.sqrt(shrink)), False
