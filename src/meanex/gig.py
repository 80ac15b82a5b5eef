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
double range. For 0 < |lambda| < 1 a second sampler draws from the
boundary law (Gamma for lambda > 0, Inverse Gamma for lambda < 0) and
thins. The expected acceptance of each sampler, the share of its
candidates it keeps, comes from the norming constant (``_log_acceptance``),
and the sampler whose acceptance is larger runs: the two are compared by
the terms in which they differ (``_log_kept``); a ROU box that cannot
be solved (chi or psi near the double range's floor, or lambda < -1 at
small chi psi) keeps nothing. A
law whose figure is below 1e-4 (lambda = 0 with small chi psi, where no
boundary law can be thinned) is refused with NumericError. All of this
is resolved once per law, on its first draw (``_sampler``). Rejection is
vectorized: a batch of candidates is drawn whole, and only as many of
its leading candidates are tested as the acceptance says are needed,
the rest only when those fall short, so the draws and the generator's
state are those of testing the whole batch.

The interior density writes its exponent as -(psi / (2 w)) (w - s)^2,
s = sqrt(chi / psi), beside the scaled Bessel constant, so at large
chi psi no term of size sqrt(chi psi) cancels. The ROU box and test
read the same centred log h (``_log_h_centred``), the one log density
here: as log h(w) - log h(m), two terms of size sqrt(chi psi) cancel,
and draws came out ten times too wide at chi = psi = 1e20, and all
below the mode at gig(-0.5, 1e10, 1e22).
"""

from __future__ import annotations

import decimal
import math
from functools import lru_cache, partial

import numpy as np
from scipy import optimize, special

from .bessel import bessel_k_scaled
from .errors import DomainError, NumericError

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
    """Mode of the GIG density, free of chi psi (it overflows) and of the
    cancellation in (lambda - 1) + r; chi / (2 (1 - lambda)) at psi = 0."""
    if psi == 0.0:
        return 0.5 * chi / (1.0 - lam)
    r = np.hypot(lam - 1.0, np.sqrt(chi) * np.sqrt(psi))
    return chi / ((1.0 - lam) + r) if lam < 1.0 else ((lam - 1.0) + r) / psi


def _refusal(lam: float, chi: float, psi: float, why: str) -> NumericError:
    return NumericError(f"gig(lambda={lam:.12g},chi={chi:.12g},psi={psi:.12g}): {why}")


def _boundary_scale(lam: float, chi: float, psi: float, kind: str) -> float:
    """The scale of a boundary law's draws and moments, 2 / psi for the
    Gamma class and chi / 2 for the Inverse Gamma one; NumericError where
    it leaves the double range (2 / 5e-324 overflows, 5e-324 / 2 is 0)."""
    with np.errstate(over="ignore"):
        scale = 2.0 / psi if kind == "gamma" else 0.5 * chi
    if scale == math.inf:
        raise _refusal(lam, chi, psi, "the law's scale overflows")
    if scale == 0.0:
        raise _refusal(lam, chi, psi, "the law's scale underflows to 0")
    return scale


def gig_bulk(lam: float, chi: float, psi: float) -> tuple[float, float]:
    """A centre, the mode m, and the bulk's width m / sqrt((psi m + chi /
    m) / 2), the curvature scale of the log density at m; DomainError for
    an invalid triple, NumericError where the mode underflows to 0 at
    lambda <= 0, the width underflows to 0 or a boundary law's scale
    leaves the double range. A Gamma law whose mode is 0, its lower end,
    takes its mean 2 lambda / psi for both: F has mass below it and keeps
    its accuracy."""
    kind = gig_validate(lam, chi, psi)
    with np.errstate(over="ignore"):  # 1 / psi of a Gamma law whose scale overflows, refused below
        m = float(gig_mode(lam, chi, psi))
    if m == 0.0 and lam <= 0.0:
        raise _refusal(lam, chi, psi, "the law's mode underflows to 0")
    if kind != "interior":
        _boundary_scale(lam, chi, psi, kind)
    if m > 0.0:
        centre, width = m, m / float(np.sqrt(0.5 * (psi * m + chi / m)))
    else:
        centre = width = 2.0 * lam / psi
    if not width > 0.0:
        raise _refusal(lam, chi, psi, "the bulk's width underflows to 0")
    return centre, width


def _centre(chi: float, psi: float) -> tuple[float, float]:
    """s = sqrt(chi / psi) as a double-double s_hi + s_lo: w - s is then
    right to an ulp of itself near s, where the interior exponent
    -(psi / (2 w)) (w - s)^2 multiplies its error by psi (w - s) / w."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exact = (decimal.Decimal(chi) / decimal.Decimal(psi)).sqrt()
        s_hi = float(exact)
        return s_hi, float(exact - decimal.Decimal(s_hi))


def _log_h_centred(w, lam, chi, psi, s_hi, s_lo):
    """log h(w) + omega, omega = sqrt(chi psi): (chi / w + psi w) / 2 - omega
    is written as (psi / 2) ((w - s) / sqrt(w))^2, so no term of size
    omega cancels (an uncentred log h loses log10(omega) digits)."""
    d = ((w - s_hi) - s_lo) / np.sqrt(w)
    return (lam - 1.0) * np.log(w) - 0.5 * psi * (d * d)


@lru_cache(maxsize=256)
def _rou_envelope(lam: float, chi: float, psi: float):
    """Mode m, the centred log h(m) and the box bounds (v-, v+) for
    ratio-of-uniforms, solved once per parameter set: a Monte Carlo run
    draws many samples from one law. v-+ is (w - m) sqrt(h(w) / h(m)) on
    ``_log_h_centred`` at a root of 2 + (w - m) d log h / dw, written with
    the mode's lambda - 1 = psi m / 2 - chi / (2 m) as 2 - ((w - m) / w)^2
    (psi w + chi / m) / 2, where no term of size psi w cancels; the upper
    root is solved to 1e-13 of the bulk's width (``gig_bulk``). None where
    the mode or width leaves the double range or the root search fails to
    bracket or converge. Where psi w overflows, g and log h take their
    limits without a warning."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m, width = gig_bulk(lam, chi, psi)
        s_hi, s_lo = _centre(chi, psi)
        lh_m = _log_h_centred(m, lam, chi, psi, s_hi, s_lo)

        def s(w):
            return (w - m) * np.exp(0.5 * (_log_h_centred(w, lam, chi, psi, s_hi, s_lo) - lh_m))

        def g(w):
            d = (w - m) / w
            return 2.0 - 0.5 * d * d * (psi * w + chi / m)

        try:
            hi = 2.0 * m + 1.0 / psi
            while g(hi) > 0.0:
                hi = 2.0 * hi + 1.0 / psi
            w_plus = optimize.brentq(g, m, hi, xtol=1e-13 * width, rtol=8.9e-16)

            lo = 0.5 * m
            while g(lo) > 0.0 and lo > 5e-324:
                lo *= 0.5
            w_minus = optimize.brentq(g, lo, m, xtol=5e-324, rtol=8.9e-16)
        except (ZeroDivisionError, RuntimeError, ValueError):
            return None
        return m, lh_m, s(w_minus), s(w_plus)


def _boundary_draws(lam: float, chi: float, psi: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of Gamma(lambda, 2 / psi) if lambda > 0, else of InvGamma(-lambda, chi / 2)."""
    if lam > 0:
        return rng.gamma(shape=lam, scale=2.0 / psi, size=n)
    return (0.5 * chi) / rng.gamma(shape=-lam, scale=1.0, size=n)


# below this expected acceptance a sampler is refused rather than run:
# 4000 draws at 1e-4 take about 4e7 candidates
_ACCEPTANCE_FLOOR = 1e-4


def _log_kept(lam: float, chi: float, psi: float, thin: bool) -> float:
    """The sampler's own term of ``_log_acceptance``: a log (c / 2) -
    log Gamma(a) - omega when thinning, -log(2 h(m) e^omega (v+ - v-)) for
    ROU (+inf for an empty box, which keeps every candidate, and -inf
    for a box that cannot be solved, which keeps none). It leaves out
    log int h + omega, which every sampler shares, so it stays finite where
    K_lambda(omega), and int h with it, overflows."""
    if thin:
        c = psi if lam > 0 else chi
        return abs(lam) * np.log(0.5 * c) - special.gammaln(abs(lam)) - np.sqrt(chi) * np.sqrt(psi)
    box = _rou_envelope(lam, chi, psi)
    if box is None:
        return -np.inf
    _, lh_m, v_lo, v_hi = box
    with np.errstate(divide="ignore"):
        return -lh_m - np.log(2.0 * (v_hi - v_lo))


def _log_acceptance(lam: float, chi: float, psi: float, thin: bool) -> float:
    """Log of the share of its candidates a sampler keeps: int h (c / 2)^a
    / Gamma(a) when thinning a boundary draw (a = |lambda|, c = psi or
    chi), int h / (2 h(m) (v+ - v-)) for ROU, with int h the inverse of
    the norming constant. +inf where K_lambda(omega) overflows, as int h
    then does, unless the sampler keeps nothing (-inf)."""
    kept = _log_kept(lam, chi, psi, thin)
    return kept if kept == -np.inf else kept - _log_norm(lam, chi, psi)[1]


def gig_sample(lam: float, chi: float, psi: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n independent variates from GIG(lambda, chi, psi).

    Degenerate boundaries dispatch to the exact Gamma / Inverse Gamma
    samplers. In the interior the sampler is the one whose
    ``_log_acceptance`` is larger (compared by ``_log_kept``):
    mode-shifted ratio-of-uniforms, or for 0 < |lambda| < 1 thinned
    boundary draws (ROU on a tie). A ROU box that cannot be solved keeps
    nothing, so such a law thins where it can. NumericError where the
    chosen figure is below 1e-4 (lambda = 0 with small chi psi, or no
    box and no thinning), instead of running on. The choice is made once
    per law (``_sampler``).
    """
    if n < 0:
        raise DomainError("sample size must be nonnegative")
    return _sampler(lam, chi, psi)(rng, n)


@lru_cache(maxsize=256)
def _sampler(lam: float, chi: float, psi: float):
    """The law's draw(rng, n), resolved once per parameter set: its
    class, the sampler that runs, that sampler's acceptance and the ROU
    envelope, or the refusal, so a draw pays only for its candidates.
    DomainError for an invalid triple; NumericError for a boundary law
    whose scale leaves the double range."""
    kind = gig_validate(lam, chi, psi)
    if kind != "interior":
        _boundary_scale(lam, chi, psi, kind)
        return lambda rng, n: _boundary_draws(lam, chi, psi, rng, n)
    thin = 0.0 < abs(lam) < 1.0 and _log_kept(lam, chi, psi, True) > _log_kept(lam, chi, psi, False)
    log_acc = _log_acceptance(lam, chi, psi, thin)
    box = _rou_envelope(lam, chi, psi)
    if log_acc < np.log(_ACCEPTANCE_FLOOR):
        why = (f"its {'thinning' if thin else 'ratio-of-uniforms'} sampler would keep "
               f"{np.exp(log_acc):.2g} of its candidates (floor {_ACCEPTANCE_FLOOR:g})")
        if box is None:
            why = "its ratio-of-uniforms box could not be solved" + (f", and {why}" if thin else "")
        error = f"GIG(lambda={lam:g}, chi={chi:g}, psi={psi:g}) cannot be sampled: {why}"

        def refuse(rng, n):
            raise NumericError(error)

        return refuse
    if thin:
        def candidates(rng, k):
            return _boundary_draws(lam, chi, psi, rng, k), rng.random(k)

        def kept(w, u):
            return w[np.log(u) < (-0.5 * chi / w if lam > 0 else -0.5 * psi * w)]
    else:
        m, lh_m, v_lo, v_hi = box
        _, _, s_hi, s_lo = _log_norm(lam, chi, psi)

        def candidates(rng, k):
            # random(k) is uniform(0, 1, k) bit for bit: 0 + 1 * d = d
            return rng.random(k), rng.uniform(v_lo, v_hi, size=k)

        def kept(u, v):
            w = m + v / u
            ok = (u > 0.0) & (w > 0.0) & np.isfinite(w)
            wv = np.where(ok, w, 1.0)
            ok &= 2.0 * np.log(u) <= _log_h_centred(wv, lam, chi, psi, s_hi, s_lo) - lh_m
            return w[ok]

    return partial(_rejection, candidates, kept, min(1.0, float(np.exp(log_acc))))


def _rejection(candidates, kept, share, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws, the first n candidates that ``kept`` keeps, from batches
    of k = max(1024, 1.8 (n - got)) candidates. Only the leading ones that
    the acceptance share says are enough, with four standard deviations to
    spare, are tested; the rest of a batch only when they fall short. So
    the candidates drawn, the draws and the generator's state afterwards
    are those of testing every batch whole."""
    out = np.empty(n, dtype=float)
    got = 0
    while got < n:
        need = n - got
        k = max(1024, int(1.8 * need))
        lead = min(k, int((need + 4.0 * math.sqrt(need) + 16.0) / share))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a, b = candidates(rng, k)
            acc = kept(a[:lead], b[:lead])
            if acc.size < need and lead < k:
                acc = np.concatenate((acc, kept(a[lead:], b[lead:])))
        take = min(need, acc.size)
        out[got:got + take] = acc[:take]
        got += take
    return out


@lru_cache(maxsize=256)
def _log_norm(lam: float, chi: float, psi: float) -> tuple[str, float, float, float]:
    """The class, the log of the density's constant factor and s, once
    per parameter set, so a density call pays only its arithmetic. In the
    interior the factor is taken times e^(-omega), which
    ``_log_h_centred`` adds back, so it comes from the scaled Bessel
    function with nothing added; -inf where K_lambda(omega) overflows."""
    kind = gig_validate(lam, chi, psi)
    if kind == "gamma":
        return kind, lam * np.log(psi / 2.0) - special.gammaln(lam), 0.0, 0.0
    if kind == "inverse-gamma":
        return kind, -lam * np.log(chi / 2.0) - special.gammaln(-lam), 0.0, 0.0
    om = np.sqrt(chi) * np.sqrt(psi)
    # (psi/chi)^(lam/2) / (2 e^-om K_lam(om))
    log_norm = 0.5 * lam * (np.log(psi) - np.log(chi)) - np.log(2.0) - np.log(bessel_k_scaled(lam, om))
    return kind, log_norm, *_centre(chi, psi)


def gig_pdf(lam: float, chi: float, psi: float, w) -> np.ndarray:
    """Density of GIG(lambda, chi, psi), vectorized over w (0 outside
    support, and at +inf, where the formulas would give inf - inf; 0 with
    no warning where log h overflows to -inf, and inf with none where a
    pole at 0 passes the double range)."""
    kind, log_norm, s_hi, s_lo = _log_norm(lam, chi, psi)
    if not np.isfinite(log_norm):
        om = np.sqrt(chi) * np.sqrt(psi)
        raise NumericError(f"gig norming constant out of double range: K_{lam:g}({om:g}) overflows")
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    pos = (w > 0) & (w < np.inf)
    if not np.any(pos):
        return out
    wp = w[pos]
    if kind == "gamma":
        with np.errstate(over="ignore"):  # at subnormal w a pole (lambda < 1) passes the double range
            out[pos] = np.exp(log_norm + (lam - 1.0) * np.log(wp) - 0.5 * psi * wp)
    elif kind == "inverse-gamma":
        out[pos] = np.exp(log_norm - (1.0 - lam) * np.log(wp) - 0.5 * chi / wp)
    else:
        with np.errstate(over="ignore"):  # d * d overflows far from s, where exp(-inf) is the 0 wanted
            out[pos] = np.exp(log_norm + _log_h_centred(wp, lam, chi, psi, s_hi, s_lo))
    return out


def gig_moment(lam: float, chi: float, psi: float, k: int) -> float:
    """E[W^k] for W ~ GIG(lambda, chi, psi).

    Interior: Bessel ratio (evaluated with scaled Bessel functions so the
    ratio survives large sqrt(chi*psi)). Boundaries: Gamma / Inverse
    Gamma closed forms; the Inverse Gamma moment requires k < -lambda,
    and NumericError where the boundary law's scale leaves the double
    range.
    """
    kind = gig_validate(lam, chi, psi)
    if kind == "gamma":
        scale = _boundary_scale(lam, chi, psi, kind)
        return float(scale ** k * np.exp(special.gammaln(lam + k) - special.gammaln(lam)))
    if kind == "inverse-gamma":
        a = -lam
        if k >= a:
            raise DomainError(f"inverse-gamma moment of order {k} requires k < {a}")
        scale = _boundary_scale(lam, chi, psi, kind)
        return float(scale ** k * np.exp(special.gammaln(a - k) - special.gammaln(a)))
    om = np.sqrt(chi) * np.sqrt(psi)
    with np.errstate(over="ignore", invalid="ignore"):
        value = (np.sqrt(chi) / np.sqrt(psi)) ** k * (bessel_k_scaled(lam + k, om) / bessel_k_scaled(lam, om))
    if not np.isfinite(value):
        raise NumericError(f"gig moment of order {k} out of double range: K_{lam + k:g}({om:g}) / K_{lam:g}({om:g})")
    return float(value)
