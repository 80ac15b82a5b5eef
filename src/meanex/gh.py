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

The family nests named subclasses (hyperbolic lam=1, NIG lam=-1/2,
variance gamma delta=0) and limits (Student/Cauchy at alpha=|beta|=0,
skew-Student at alpha=|beta|>0, skew-Laplace at lam=1 delta=0, Gaussian
as alpha, delta -> inf with delta/alpha -> sigma^2). Limit classes are
dispatched to their closed forms: the raw formula is numerically hostile
exactly where the limits live (boundary parameter sets produce 0/0 or
overflow in the norming constant).

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
from scipy import special, stats

from .bessel import bessel_k_scaled
from .errors import DomainError
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
    "GAUSSIAN_LIMIT_MAGNITUDE",
    "DELTA_ZERO_TOLERANCE",
]

# Classification heuristics for limit rows encoded with extreme values.
# alpha and delta both at least this large reads as the Gaussian limit
# (variance delta/alpha); delta at or below the zero tolerance with
# lam > 0 reads as a variance-gamma-type zero-delta law.
GAUSSIAN_LIMIT_MAGNITUDE = 1e4
DELTA_ZERO_TOLERANCE = 1e-3

_INTERIOR = ("interior", "hyperbolic", "nig")


@dataclass(frozen=True)
class GhParams:
    lam: float
    alpha: float
    beta: float
    delta: float
    mu: float


@lru_cache(maxsize=256)
def gh_validate(params: GhParams) -> str:
    """Total classification of a parameter bundle.

    Returns 'invalid', 'interior', or a subclass/limit name:
    'hyperbolic', 'nig', 'variance-gamma', 'skew-laplace', 'skew-student',
    'student', 'cauchy', 'gaussian'. Cached per parameter set, like the
    norming constant: a quadrature asks for the density point by point.
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

    if al >= GAUSSIAN_LIMIT_MAGNITUDE and de >= GAUSSIAN_LIMIT_MAGNITUDE:
        return "gaussian"
    if al == 0.0:
        # domain already forces beta == 0 and lam < 0 here
        return "cauchy" if lam == -0.5 else "student"
    if lam < 0 and abs(be) == al:
        return "skew-student"
    if lam > 0 and de <= DELTA_ZERO_TOLERANCE:
        return "skew-laplace" if lam == 1.0 else "variance-gamma"
    if lam == 1.0:
        return "hyperbolic"
    if lam == -0.5:
        return "nig"
    return "interior"


def _require_valid(params: GhParams) -> str:
    kind = gh_validate(params)
    if kind == "invalid":
        raise DomainError(
            "invalid generalized hyperbolic parameters "
            f"(lam={params.lam}, alpha={params.alpha}, beta={params.beta}, delta={params.delta})"
        )
    return kind


@lru_cache(maxsize=256)
def _log_norming(params: GhParams) -> float:
    lam, al, be, de = params.lam, params.alpha, params.beta, params.delta
    gam2 = al * al - be * be
    om = de * np.sqrt(gam2)
    log_k = np.log(bessel_k_scaled(lam, om)) - om
    return (
        0.5 * lam * np.log(gam2)
        - 0.5 * np.log(2.0 * np.pi)
        - (lam - 0.5) * np.log(al)
        - lam * np.log(de)
        - log_k
    )


def gh_norming(params: GhParams) -> float:
    """The interior norming constant a. Boundary and limit parameter
    sets have no finite interior constant: error 'use limiting form'."""
    kind = _require_valid(params)
    if kind not in _INTERIOR:
        raise DomainError(f"use limiting form: parameters classify as '{kind}'")
    val = float(np.exp(_log_norming(params)))
    if not np.isfinite(val) or val == 0.0:
        raise DomainError("use limiting form: norming constant out of double range")
    return val


def _student_pdf(nu: float, mu: float, delta: float, x: np.ndarray) -> np.ndarray:
    return stats.t.pdf(x, df=nu, loc=mu, scale=delta / np.sqrt(nu))


def _vg_pdf(params: GhParams, x: np.ndarray) -> np.ndarray:
    # variance gamma (delta = 0), skew-Laplace at lam = 1
    lam, al, be, mu = params.lam, params.alpha, params.beta, params.mu
    gam2 = al * al - be * be
    y = np.abs(x - mu)
    log_a = (
        lam * np.log(gam2)
        - 0.5 * np.log(2.0 * np.pi)
        - (lam - 1.0) * np.log(2.0)
        - (lam - 0.5) * np.log(al)
        - special.gammaln(lam)
    )
    at_center = y == 0.0
    yo = np.where(at_center, 1.0, y)
    out = np.exp(
        log_a + (lam - 0.5) * np.log(yo) + be * (x - mu) - al * yo + np.log(bessel_k_scaled(lam - 0.5, al * yo))
    )
    if np.any(at_center):
        if lam > 0.5:
            center = np.exp(
                log_a + special.gammaln(lam - 0.5) - np.log(2.0) + (lam - 0.5) * (np.log(2.0) - np.log(al))
            )
        else:
            center = np.inf
        out = np.where(at_center, center, out)
    return out


def _interior_logpdf(params: GhParams, x: np.ndarray) -> np.ndarray:
    lam, al, be, de, mu = params.lam, params.alpha, params.beta, params.delta, params.mu
    d = x - mu
    q = np.hypot(de, d)
    return (
        _log_norming(params)
        + (lam - 0.5) * np.log(q)
        + be * d
        - al * q
        + np.log(bessel_k_scaled(lam - 0.5, al * q))
    )


def _skew_student_logpdf(params: GhParams, x: np.ndarray) -> np.ndarray:
    # alpha = |beta| > 0, lam < 0; the gamma -> 0 limit of the interior
    # norming constant (K_lam(z) ~ Gamma(-lam)/2 * (2/z)^(-lam) as z -> 0)
    lam, al, be, de, mu = params.lam, params.alpha, params.beta, params.delta, params.mu
    d = x - mu
    q = np.hypot(de, d)
    log_a = (
        (lam + 1.0) * np.log(2.0)
        - 0.5 * np.log(2.0 * np.pi)
        - special.gammaln(-lam)
        - (lam - 0.5) * np.log(al)
        - 2.0 * lam * np.log(de)
    )
    # beta d - alpha q cancels on the heavy side, where beta d = alpha |d|;
    # there it equals -alpha delta^2 / (q + |d|)
    heavy = be * d > 0.0
    tilt = np.where(heavy, -al * de * de / (q + np.abs(d)), be * d - al * q)
    return log_a + (lam - 0.5) * np.log(q) + tilt + np.log(bessel_k_scaled(lam - 0.5, al * q))


def gh_pdf(params: GhParams, x) -> np.ndarray | float:
    """Density at x (scalar or array), dispatching limit classes to
    their closed forms. Total on the real line for valid parameters."""
    kind = _require_valid(params)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    far = np.isinf(arr)  # density 0 there; the formulas would give inf - inf
    any_far = far.any()
    if any_far:
        arr = np.where(far, params.mu, arr)
    if kind in _INTERIOR:
        out = np.exp(_interior_logpdf(params, arr))
    elif kind == "skew-student":
        out = np.exp(_skew_student_logpdf(params, arr))
    elif kind in ("student", "cauchy"):
        out = _student_pdf(-2.0 * params.lam, params.mu, params.delta, arr)
    elif kind in ("variance-gamma", "skew-laplace"):
        out = _vg_pdf(params, arr)
    else:  # gaussian
        out = stats.norm.pdf(arr, loc=params.mu, scale=np.sqrt(params.delta / params.alpha))
    if any_far:
        out = np.where(far, 0.0, out)
    return float(out[0]) if scalar else out


def _mixing_chi_psi(params: GhParams, kind: str) -> tuple[float, float]:
    if kind in ("variance-gamma", "skew-laplace"):
        chi = 0.0
    else:
        chi = params.delta ** 2
    if kind in ("student", "cauchy", "skew-student"):
        psi = 0.0
    else:
        psi = params.alpha ** 2 - params.beta ** 2
    return chi, psi


def gh_sample(params: GhParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws via the normal mean-variance mixture (Gaussian limit
    directly from the normal sampler). Returns draws in draw order."""
    kind = _require_valid(params)
    if kind == "gaussian":
        return params.mu + np.sqrt(params.delta / params.alpha) * rng.standard_normal(n)
    chi, psi = _mixing_chi_psi(params, kind)
    w = gig_sample(params.lam, chi, psi, rng, n)
    z = rng.standard_normal(n)
    return params.mu + params.beta * w + np.sqrt(w) * z


def _mixing_moments(params: GhParams, kind: str) -> tuple[float, float]:
    chi, psi = _mixing_chi_psi(params, kind)
    w1 = gig_moment(params.lam, chi, psi, 1)
    w2 = gig_moment(params.lam, chi, psi, 2)
    return w1, w2


def gh_mean(params: GhParams) -> float:
    """mu + beta E[W]; requires the mixing law to have a first moment."""
    kind = _require_valid(params)
    if kind == "gaussian":
        return params.mu
    chi, psi = _mixing_chi_psi(params, kind)
    try:
        w1 = gig_moment(params.lam, chi, psi, 1)
    except DomainError as exc:
        raise DomainError(f"mean undefined for '{kind}' parameters: {exc}") from exc
    return params.mu + params.beta * w1


def gh_variance(params: GhParams) -> float:
    """E[W] + beta^2 Var(W) for the mixture; inf when W lacks moments."""
    kind = _require_valid(params)
    if kind == "gaussian":
        return params.delta / params.alpha
    chi, psi = _mixing_chi_psi(params, kind)
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


def gh_bulk(params: GhParams) -> tuple[float, float]:
    """A centre and a length no wider than the density's bulk.

    The variance-gamma classes are centred on mu, where the density has
    its kink or pole, with length 1/alpha. The Gaussian limit is
    N(mu, delta/alpha), beta aside, like its density. The others are
    centred on mu + beta m, m the mode of the mixing law, with length
    delta, shrunk to sqrt(delta/alpha) when alpha delta > 1 (a
    near-Gaussian core) and by sqrt(nu) for a Student core of
    nu = -2 lam degrees of freedom.
    """
    kind = _require_valid(params)
    if kind == "gaussian":
        return params.mu, float(np.sqrt(params.delta / params.alpha))
    if kind in ("variance-gamma", "skew-laplace"):
        return params.mu, 1.0 / params.alpha
    centre = params.mu + params.beta * float(gig_mode(params.lam, *_mixing_chi_psi(params, kind)))
    return centre, params.delta / float(np.sqrt(max(1.0, params.alpha * params.delta) * max(1.0, -2.0 * params.lam)))
