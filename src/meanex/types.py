"""Core value types: samples, threshold grids, mean-excess curves and bands.

All types are immutable after construction and safe to share between
workers. Arrays are stored as read-only float64 ndarrays.

The "undefined" marker
----------------------
A mean-excess value is undefined at a threshold with no exceedance that
is not beyond the sample maximum (this happens only at u equal to the
maximum itself). Undefined points are carried as NaN inside MefCurve
values; every consumer (sup_deviation, averaging, plotting) skips them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"{name} must be one-dimensional")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Sample:
    """An ordered collection of finite real observations, sorted ascending.

    Build through :func:`make_sample`, which validates and sorts.
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def max(self) -> float:
        return float(self.values[-1])

    @property
    def min(self) -> float:
        return float(self.values[0])


def require_finite(values: np.ndarray) -> None:
    """InputError unless every observation is finite."""
    if not np.isfinite(values).all():
        raise InputError("sample values must be finite (no NaN or infinities)")


def make_sample(values) -> Sample:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InputError("sample must be one-dimensional")
    if arr.size < 1:
        raise InputError("sample must contain at least one observation")
    require_finite(arr)
    arr = np.sort(arr)
    arr.flags.writeable = False
    return Sample(values=arr)


@dataclass(frozen=True)
class Grid:
    """Strictly increasing threshold abscissae."""

    points: np.ndarray


def make_grid(points) -> Grid:
    arr = _frozen_array(points, "grid")
    if arr.size < 1:
        raise InputError("grid must contain at least one point")
    if not np.all(np.isfinite(arr)):
        raise InputError("grid points must be finite")
    if not np.all(arr[1:] > arr[:-1]):
        raise InputError("grid points must be strictly increasing")
    return Grid(points=arr)


@dataclass(frozen=True)
class MefCurve:
    """A threshold grid paired with mean-excess values (NaN = undefined)."""

    grid: Grid
    values: np.ndarray
    meta: str = ""

    def __post_init__(self):
        if self.values.shape != self.grid.points.shape:
            raise InputError("curve values must match grid length")


def make_curve(grid: Grid, values, meta: str = "") -> MefCurve:
    arr = _frozen_array(values, "curve values")
    return MefCurve(grid=grid, values=arr, meta=meta)


@dataclass(frozen=True)
class BandConstants:
    """Constant block for the uniform consistency band.

    M1 = max(2, max(|u0|, |u1|))
    D1 = 2*A*A1*sqrt(log 2) + A1
    D2 = A*A1*M1*sqrt(log M1) + A1
    """

    A: float
    A1: float
    u0: float
    u1: float
    M1: float = field(init=False)
    D1: float = field(init=False)
    D2: float = field(init=False)

    def __post_init__(self):
        if not (self.u0 < self.u1):
            raise DomainError("band interval requires u0 < u1")
        if not (self.A > 0 and self.A1 > 0):
            raise DomainError("band constants A and A1 must be positive")
        m1 = max(2.0, max(abs(self.u0), abs(self.u1)))
        object.__setattr__(self, "M1", m1)
        object.__setattr__(self, "D1", 2.0 * self.A * self.A1 * np.sqrt(np.log(2.0)) + self.A1)
        object.__setattr__(self, "D2", self.A * self.A1 * m1 * np.sqrt(np.log(m1)) + self.A1)


@dataclass(frozen=True)
class Band:
    """A mean-excess curve with symmetric envelopes of half-width en/sqrt(n).

    lower/upper are stored exactly as curve -/+ half_width so the
    symmetry is bitwise, not merely approximate.
    """

    curve: MefCurve
    lower: np.ndarray
    upper: np.ndarray
    en: float
    n: int
    constants: BandConstants
    survival_u1: float
    mean_abs: float

    @property
    def half_width(self) -> float:
        return self.en / np.sqrt(self.n)
