"""Modified Bessel function of the third kind, K_lambda.

K_lambda is the kernel of the generalized hyperbolic density and of the
generalized-inverse-Gaussian moment ratios used throughout this package.
It admits the integral representation

    K_lambda(x) = (1/2) * int_0^inf y^(lambda-1) exp(-x (y + 1/y) / 2) dy
                = int_0^inf cosh(lambda t) exp(-x cosh t) dt,   x > 0,

is symmetric in the order (K_lambda = K_{-lambda}) and satisfies the
three-term recurrence K_{lambda+1}(x) = K_{lambda-1}(x) + (2 lambda / x) K_lambda(x).

Evaluation strategy: scipy's series/asymptotic machinery (``kv``,
``kve``) at every order, half-integer ones included. The integral
representation is kept in the test suite as an independent quadrature
oracle rather than as the production path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError, NumericError

__all__ = ["bessel_k", "bessel_k_scaled"]


def bessel_k(order: float, x: float) -> float:
    """K_lambda(x) for real order and x > 0, to >= 10 significant digits.

    Raises
    ------
    DomainError
        if x <= 0.
    NumericError
        "range" when scipy's ``kv`` overflows (tiny x with large |order|).
        It reports overflow from about 2.5e303, not only past the double
        range 1.8e308: K_41.5(1.148e-6) = 2.6e307 raises.
    """
    if not np.isfinite(order):
        raise DomainError("bessel_k requires a finite order")
    if not np.isfinite(x) or x <= 0.0:
        raise DomainError("bessel_k requires x > 0")
    # kv underflows to 0 from x ~ 697.9, though K_{1/2}(700) = 4.67e-306: take e^-x kve
    val = float(special.kv(abs(order), x)) or float(bessel_k_scaled(order, x)) * math.exp(-x)
    if not np.isfinite(val):
        raise NumericError(f"range: K_{order}({x}) overflows")
    return val


# past this argument the library kernel reports failure; the asymptotic
# series in 1/x is already far below double precision there
_ASYMPTOTIC_CUTOFF = 1e8


def _scaled_asymptotic(order: float, x: np.ndarray) -> np.ndarray:
    # e^x K(x) = sqrt(pi/(2x)) (1 + c1/x + c2/x^2 + c3/x^3 + ...)
    mu = 4.0 * order * order
    t1 = (mu - 1.0) / 8.0
    t2 = t1 * (mu - 9.0) / 16.0
    t3 = t2 * (mu - 25.0) / 24.0
    return np.sqrt(np.pi / (2.0 * x)) * (1.0 + (t1 + (t2 + t3 / x) / x) / x)


def bessel_k_scaled(order: float, x) -> np.ndarray:
    """Exponentially scaled kernel e^x K_lambda(x), vectorized over x.

    The scaled form stays representable deep into the tails and is what
    the density code uses internally. Arguments beyond the library
    kernel's range fall back to the large-argument expansion. Where
    scipy's ``kve`` overflows it returns inf, and it reports overflow from
    about 2.5e303, not only past 1.8e308; the GH and GIG code raises
    NumericError ("out of double range") from there.
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise DomainError("bessel_k_scaled requires x > 0")
    a = abs(order)
    out = np.asarray(special.kve(a, x), dtype=float)
    big = x > _ASYMPTOTIC_CUTOFF
    if big.any():
        out = np.where(big, _scaled_asymptotic(a, np.where(big, x, 1.0)), out)
    return out
