"""Monte Carlo harness: replicated mean-excess averaging, band coverage
and convergence experiments, and an exactly checkable fourth-moment
identity.

Determinism contract
--------------------
One engine runs the replicates of all three protocols. Replicate r
draws from default_rng(SeedSequence(entropy=seed, spawn_key=prefix +
(r,))); the prefix is () for stallion and coverage and (i,) for the
i-th sample size of convergence. So each replicate's stream depends on
its index alone, and the draws come from the law's frame hook, the
one ``std_sample`` calls, so a replicate is the sample std_sample gives
on that stream. The replicates run serially in blocks of a fixed 64:
each sample is drawn and sorted on its own, and checked finite from its
ends (NaN sorts last, -inf first), and the mean-excess formula runs
once per block on all its replicates. A block's sums add its rows in
replicate order, and the block sums are combined in block order, so
every result is a fixed function of the seed.

The fourth-moment identity: for iid centered X_1..X_n with kappa1 =
E X^2 and kappa2 = E X^4,

    E (X_1 + ... + X_n)^4 = n*kappa2 + 3*n*(n-1)*kappa1^2,

which pairs with a brute-force enumeration oracle over small discrete
supports for validation at machine precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, InputError
from .mef import (
    _band_en,
    _emef,
    _exceedances,
    _plug_in_mean_abs,
    _sup_abs,
    theoretical_mef_curve,
)
from .types import BandConstants, Grid, MefCurve, make_curve, make_grid, require_finite

if TYPE_CHECKING:
    from .distributions import DistributionSpec

__all__ = [
    "StallionCurve",
    "ExperimentReport",
    "stallion",
    "coverage_experiment",
    "convergence_experiment",
    "fourth_moment_identity",
    "fourth_moment_oracle",
]

_CHUNK = 64  # replicates per block; fixed, so it fixes the summation tree


@dataclass(frozen=True)
class StallionCurve:
    """Pointwise average of empirical mean-excess curves over replicates.

    contributors[i] counts the replicates whose curve was defined at
    grid point i (NaN points are skipped, not zero-filled).
    """

    curve: MefCurve
    contributors: np.ndarray
    n_reps: int
    sample_size: int
    seed: int
    dist: DistributionSpec


@dataclass(frozen=True)
class ExperimentReport:
    """Named metric block from one experiment run."""

    name: str
    metrics: tuple
    replicate_count: int
    seed: int


def _replicate_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _emef_blocks(draw, points, size, seed, n_reps, prefix=(), stat=None):
    """The replicate engine: for each block of up to _CHUNK consecutive
    replicates, yield the (B, m) empirical mean excess on points, one row
    per replicate, the (B, m) exceedance counts, and stat of each sorted
    sample (an empty list without stat). draw(rng, size) draws one
    sample: the law's frame hook, looked up once per protocol call.
    Memory per block is O(B m + size)."""
    for start in range(0, n_reps, _CHUNK):
        reps = range(start, min(start + _CHUNK, n_reps))
        count = np.empty((len(reps), points.size), dtype=np.int64)
        total = np.empty((len(reps), points.size))
        centre = np.empty((len(reps), 1))
        top = np.empty((len(reps), 1))
        stats = []
        for b, r in enumerate(reps):
            x = draw(_replicate_rng(seed, *prefix, r), size)
            x.sort()
            # NaN sorts last and -inf first, so the ends show a sample that is not finite
            if not (x[0] > -math.inf and x[-1] < math.inf):
                require_finite(x)
            count[b], total[b], centre[b] = _exceedances(x, points)
            top[b] = x[-1]
            if stat is not None:
                stats.append(stat(x))
        yield _emef(points, count, total, centre, top), count, stats


def stallion(dist: DistributionSpec, n_reps: int, sample_size: int, grid: Grid, seed: int) -> StallionCurve:
    """Average the empirical mean-excess curve over n_reps independent
    samples of sample_size draws each."""
    from .distributions import _frame, dist_support

    if n_reps < 1 or sample_size < 1:
        raise InputError("stallion requires n_reps >= 1 and sample_size >= 1")
    lo, hi = dist_support(dist)
    points = grid.points
    if points[0] < lo or points[-1] >= hi:
        raise DomainError("grid outside support")
    sums = np.zeros(points.size)
    cnts = np.zeros(points.size, dtype=np.int64)
    for e, _, _ in _emef_blocks(_frame(dist).draw, points, sample_size, seed, n_reps):
        ok = np.isfinite(e)  # NaN points are skipped, not zero-filled
        # accumulate adds rows in replicate order for any grid size; sum
        # would add a one-point grid's column pairwise
        sums += np.add.accumulate(np.where(ok, e, 0.0), axis=0)[-1]
        cnts += ok.sum(axis=0)
    with np.errstate(invalid="ignore"):
        avg = np.where(cnts > 0, sums / np.maximum(cnts, 1), np.nan)
    curve = make_curve(grid, avg, meta=f"stallion reps={n_reps} size={sample_size} seed={seed}")
    cnts.flags.writeable = False
    return StallionCurve(
        curve=curve, contributors=cnts, n_reps=n_reps,
        sample_size=sample_size, seed=seed, dist=dist,
    )


def coverage_experiment(
    dist: DistributionSpec,
    u0: float,
    u1: float,
    constants: BandConstants,
    sample_size: int,
    n_reps: int,
    seed: int,
    eps: float = 0.05,
    oracle: bool = True,
) -> ExperimentReport:
    """Fraction of replicates whose uniform band contains the true mean
    excess function at every point of a 101-point grid on [u0, u1].

    eps is the nominal miss level carried into the report (the band
    aims at coverage 1 - eps); it does not alter the band itself.
    oracle=True feeds the band the exact survival at u1 and E|X|;
    oracle=False uses the plug-in estimates: the exceedance fraction at
    u1, the grid's last point, and the mean of |X_i|. A replicate whose
    band is undefined (too few exceedances) counts as not covered.
    """
    from .distributions import _frame, dist_mean_abs, std_survival

    if n_reps < 1 or sample_size < 1:
        raise InputError("coverage requires n_reps >= 1 and sample_size >= 1")
    if not (0.0 <= eps < 1.0):
        raise InputError("eps must lie in [0, 1)")
    if (u0, u1) != (constants.u0, constants.u1):
        raise InputError("constants were built for a different [u0, u1]")
    grid = make_grid(np.linspace(u0, u1, 101))
    truth = theoretical_mef_curve(dist, grid).values
    sf_u1 = float(std_survival(dist, u1)) if oracle else None
    mabs = dist_mean_abs(dist) if oracle else None
    if oracle:
        _band_en(sample_size, sf_u1, mabs, constants)  # DomainError where no replicate's band is defined

    root_n = np.sqrt(sample_size)
    covered, defined, en_sum, hw_sum = 0, 0, 0.0, 0.0
    stat = None if oracle else _plug_in_mean_abs
    blocks = _emef_blocks(_frame(dist).draw, grid.points, sample_size, seed, n_reps, stat=stat)
    for e, count, mean_abs in blocks:
        half = np.full((len(e), 1), np.nan)  # stays NaN where the band is undefined
        for b in range(len(e)):
            sf, ma = (sf_u1, mabs) if oracle else (count[b, -1] / sample_size, mean_abs[b])
            try:
                en = _band_en(sample_size, sf, ma, constants)
            except DomainError:
                continue
            defined += 1
            en_sum += en
            half[b] = en / root_n
            hw_sum += half[b, 0]
        # NaN comparisons are False: an undefined band or point is uncovered
        inside = (e - half <= truth) & (truth <= e + half)
        covered += int(np.count_nonzero(np.all(inside, axis=1)))
    metrics = (
        ("coverage", covered / n_reps),
        ("mean_en", en_sum / defined if defined else float("nan")),
        ("mean_half_width", hw_sum / defined if defined else float("nan")),
        ("defined_fraction", defined / n_reps),
        ("eps", eps),
        ("size", float(sample_size)),
    )
    return ExperimentReport(name="coverage", metrics=metrics, replicate_count=n_reps, seed=seed)


def convergence_experiment(
    dist: DistributionSpec,
    u1: float,
    sizes,
    n_reps: int,
    seed: int,
    u0: float | None = None,
) -> ExperimentReport:
    """Median sup deviation between the empirical and true mean excess
    over a fixed 101-point window ending at u1, per sample size.

    The window starts at the support low end when finite, else at the
    0.1% quantile.
    """
    from .distributions import _frame, dist_ppf, dist_support

    if n_reps < 1:
        raise InputError("convergence requires n_reps >= 1")
    sizes = [int(s) for s in sizes]
    if len(sizes) < 1 or any(s < 2 for s in sizes):
        raise InputError("convergence requires sizes of at least 2 observations")
    if sorted(sizes) != sizes or len(set(sizes)) != len(sizes):
        raise InputError("sizes must be strictly increasing")
    lo_support, _ = dist_support(dist)
    if u0 is None:
        u0 = lo_support if np.isfinite(lo_support) else dist_ppf(dist, 0.001)
    if not u0 < u1:
        raise InputError("convergence window is empty")
    grid = make_grid(np.linspace(u0, u1, 101))
    truth = theoretical_mef_curve(dist, grid)
    draw = _frame(dist).draw
    metrics = []
    for i, size in enumerate(sizes):
        blocks = _emef_blocks(draw, grid.points, size, seed, n_reps, prefix=(i,))
        devs = np.concatenate([_sup_abs(e - truth.values) for e, _, _ in blocks])
        metrics.append((f"median_sup_dev_{size}", float(np.median(devs))))
    return ExperimentReport(name="convergence", metrics=tuple(metrics), replicate_count=n_reps, seed=seed)


def fourth_moment_identity(kappa1: float, kappa2: float, n: int) -> float:
    """E (X_1+...+X_n)^4 for iid centered X with E X^2 = kappa1 and
    E X^4 = kappa2."""
    if int(n) != n or n < 1:
        raise DomainError("n must be a positive integer")
    if kappa1 < 0 or kappa2 < 0:
        raise DomainError("inconsistent moments: moments of even order are nonnegative")
    if kappa2 < kappa1 ** 2:
        raise DomainError("inconsistent moments: E X^4 < (E X^2)^2 violates Jensen")
    if kappa1 == 0 and kappa2 != 0:
        raise DomainError("inconsistent moments: zero variance forces zero fourth moment")
    n = int(n)
    return n * kappa2 + 3.0 * n * (n - 1) * kappa1 ** 2


_ORACLE_BUDGET = 2_000_000


def fourth_moment_oracle(pairs, n: int) -> float:
    """Exact E (X_1+...+X_n)^4 for iid discrete X given as (value,
    probability) pairs, by full enumeration of the n-fold product space.
    Values are centered internally; small cases only."""
    pairs = list(pairs)
    if not pairs:
        raise DomainError("support must be nonempty")
    support = np.array([float(v) for v, _ in pairs])
    probs = np.array([float(p) for _, p in pairs])
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
        raise DomainError("probabilities must be nonnegative and sum to 1")
    if int(n) != n or n < 1 or n > 8:
        raise DomainError("oracle enumerates n between 1 and 8 only")
    n = int(n)
    if support.size ** n > _ORACLE_BUDGET:
        raise DomainError("oracle enumeration budget exceeded")
    support = support - float(np.dot(support, probs))
    total = 0.0
    idx = range(support.size)
    for combo in itertools.product(idx, repeat=n):
        s = 0.0
        p = 1.0
        for i in combo:
            s += support[i]
            p *= probs[i]
        total += p * s ** 4
    return total
