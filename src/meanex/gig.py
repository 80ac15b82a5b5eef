"""Generalized inverse Gaussian distribution: sampling, density, moments.

Parameterized as GIG(lambda, chi, psi) with density proportional to

    w^(lambda - 1) * exp(-(chi / w + psi * w) / 2),   w > 0.

Domain rules mirror the mixing law of the generalized hyperbolic family:

    lambda > 0:  chi >= 0, psi > 0      (chi = 0 degenerates to Gamma)
    lambda = 0:  chi > 0,  psi > 0
    lambda < 0:  chi > 0,  psi >= 0     (psi = 0 degenerates to Inverse Gamma)

Moments in the interior satisfy

    E[W^k] = (chi/psi)^(k/2) * K_{lambda+k}(sqrt(chi psi)) / K_lambda(sqrt(chi psi)),

which is the validation oracle for the sampler.

Sampling uses ratio-of-uniforms with a shift to the mode: draw (u, v)
uniformly on (0, 1] x [v-, v+] and accept w = m + v/u when
u^2 <= h(w)/h(m), where h is the unnormalized density, m its mode and
v-, v+ the extrema of (w - m) sqrt(h(w)/h(m)). All envelope work is done
on log h relative to the mode, so extreme parameter magnitudes (for
instance the near-Gaussian mixing laws with chi*psi ~ 1e23) stay inside
double range. The rejection loop is vectorized.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import optimize, special

from .bessel import bessel_k_scaled
from .errors import DomainError

__all__ = ["gig_validate", "gig_sample", "gig_pdf", "gig_moment", "gig_mode", "gig_bulk"]


def gig_validate(lam: float, chi: float, psi: float) -> str:
    """Classify the parameter triple: 'interior', 'gamma', 'inverse-gamma' or raise."""
    for name, val in (("lambda", lam), ("chi", chi), ("psi", psi)):
        if not np.isfinite(val):
            raise DomainError(f"gig parameter {name} must be finite")
    if chi < 0 or psi < 0:
        raise DomainError("gig requires chi >= 0 and psi >= 0")
    if chi > 0 and psi > 0:
        return "interior"
    if psi == 0:
        if lam < 0 and chi > 0:
            return "inverse-gamma"
        raise DomainError("gig with psi = 0 requires lambda < 0 and chi > 0")
    # chi == 0
    if lam > 0:
        return "gamma"
    raise DomainError("gig with chi = 0 requires lambda > 0")


def gig_mode(lam: float, chi: float, psi: float) -> float:
    """Mode of the GIG density; chi / (2 (1 - lambda)) at the Inverse
    Gamma boundary psi = 0."""
    if psi == 0.0:
        return 0.5 * chi / (1.0 - lam)
    return ((lam - 1.0) + np.sqrt((lam - 1.0) ** 2 + chi * psi)) / psi


def gig_bulk(lam: float, chi: float, psi: float) -> tuple[float, float]:
    """The mode m and the width of the bulk around it: m / sqrt((psi m +
    chi / m) / 2), the curvature scale of the log density at m; the mean
    2 lambda / psi of a Gamma law whose mode is 0."""
    m = float(gig_mode(lam, chi, psi))
    if m > 0.0:
        return m, m / float(np.sqrt(0.5 * (psi * m + chi / m)))
    return m, 2.0 * lam / psi


def _log_h(w, lam, chi, psi):
    return (lam - 1.0) * np.log(w) - 0.5 * (chi / w + psi * w)


@lru_cache(maxsize=256)
def _rou_envelope(lam: float, chi: float, psi: float):
    """Mode, log h(mode) and the box bounds (v-, v+) for ratio-of-uniforms,
    solved once per parameter set: a Monte Carlo run draws many samples
    from one law."""
    m = gig_mode(lam, chi, psi)
    lh_m = _log_h(m, lam, chi, psi)

    def s(w):
        # (w - m) * sqrt(h(w)/h(m))
        return (w - m) * np.exp(0.5 * (_log_h(w, lam, chi, psi) - lh_m))

    def g(w):
        # stationarity of (w - m)^2 h(w): 2 + (w - m) dlogh/dw = 0
        return 2.0 + (w - m) * ((lam - 1.0) / w - 0.5 * psi + 0.5 * chi / (w * w))

    hi = 2.0 * m + 1.0 / psi
    while g(hi) > 0.0:
        hi = 2.0 * hi + 1.0 / psi
    w_plus = optimize.brentq(g, m, hi, xtol=1e-13 * max(m, 1.0), rtol=8.9e-16)

    lo = 0.5 * m
    while g(lo) > 0.0 and lo > 5e-324:
        lo *= 0.5
    w_minus = optimize.brentq(g, lo, m, xtol=5e-324, rtol=8.9e-16)

    return m, lh_m, s(w_minus), s(w_plus)


def gig_sample(lam: float, chi: float, psi: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n independent variates from GIG(lambda, chi, psi).

    Degenerate boundaries dispatch to the exact Gamma / Inverse Gamma
    samplers; the interior uses mode-shifted ratio-of-uniforms.
    """
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    kind = gig_validate(lam, chi, psi)
    if kind == "gamma":
        return rng.gamma(shape=lam, scale=2.0 / psi, size=n)
    if kind == "inverse-gamma":
        return (0.5 * chi) / rng.gamma(shape=-lam, scale=1.0, size=n)

    m, lh_m, v_lo, v_hi = _rou_envelope(lam, chi, psi)
    out = np.empty(n, dtype=float)
    got = 0
    while got < n:
        k = max(1024, int(1.8 * (n - got)))
        u = rng.uniform(0.0, 1.0, size=k)
        v = rng.uniform(v_lo, v_hi, size=k)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = m + v / u
            ok = (u > 0.0) & (w > 0.0) & np.isfinite(w)
            wv = np.where(ok, w, 1.0)
            ok &= 2.0 * np.log(u) <= _log_h(wv, lam, chi, psi) - lh_m
        acc = w[ok]
        take = min(n - got, acc.size)
        out[got:got + take] = acc[:take]
        got += take
    return out


@lru_cache(maxsize=256)
def _log_norm(lam: float, chi: float, psi: float) -> tuple[str, float]:
    """The class and the log of the density's constant factor, once per
    parameter set: a quadrature asks for the density point by point."""
    kind = gig_validate(lam, chi, psi)
    if kind == "gamma":
        return kind, lam * np.log(psi / 2.0) - special.gammaln(lam)
    if kind == "inverse-gamma":
        return kind, -lam * np.log(chi / 2.0) - special.gammaln(-lam)
    om = np.sqrt(chi * psi)
    # (psi/chi)^(lam/2) / (2 K_lam(om)), scaled Bessel for range
    return kind, 0.5 * lam * (np.log(psi) - np.log(chi)) - np.log(2.0) - (np.log(bessel_k_scaled(lam, om)) - om)


def gig_pdf(lam: float, chi: float, psi: float, w) -> np.ndarray:
    """Density of GIG(lambda, chi, psi), vectorized over w (0 outside support)."""
    kind, log_norm = _log_norm(lam, chi, psi)
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    pos = w > 0
    if not np.any(pos):
        return out
    wp = w[pos]
    if kind == "gamma":
        out[pos] = np.exp(log_norm + (lam - 1.0) * np.log(wp) - 0.5 * psi * wp)
    elif kind == "inverse-gamma":
        out[pos] = np.exp(log_norm - (1.0 - lam) * np.log(wp) - 0.5 * chi / wp)
    else:
        out[pos] = np.exp(log_norm + _log_h(wp, lam, chi, psi))
    return out


def gig_moment(lam: float, chi: float, psi: float, k: int) -> float:
    """E[W^k] for W ~ GIG(lambda, chi, psi).

    Interior: Bessel ratio (evaluated with scaled Bessel functions so the
    ratio survives large sqrt(chi*psi)). Boundaries: Gamma / Inverse
    Gamma closed forms; the Inverse Gamma moment requires k < -lambda.
    """
    kind = gig_validate(lam, chi, psi)
    if kind == "gamma":
        return float((2.0 / psi) ** k * np.exp(special.gammaln(lam + k) - special.gammaln(lam)))
    if kind == "inverse-gamma":
        a = -lam
        if k >= a:
            raise DomainError(f"inverse-gamma moment of order {k} requires k < {a}")
        return float((0.5 * chi) ** k * np.exp(special.gammaln(a - k) - special.gammaln(a)))
    om = np.sqrt(chi * psi)
    ratio = float(bessel_k_scaled(lam + k, om) / bessel_k_scaled(lam, om))
    return float((chi / psi) ** (k / 2.0) * ratio)
