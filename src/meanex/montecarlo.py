"""Monte Carlo harness: replicated mean-excess averaging, band coverage
and convergence experiments, and an exactly checkable fourth-moment
identity.

Determinism contract
--------------------
One engine runs the replicates of all three protocols. Replicate r
draws from the PCG64 stream default_rng(SeedSequence(entropy=seed,
spawn_key=prefix + (r,))) gives; the prefix is () for stallion and
coverage and (i,) for the i-th sample size of convergence. So each
replicate's stream depends on its index alone. The streams are derived a
block at a time (``_streams``): the pool of SeedSequence(entropy=seed,
spawn_key=prefix) is built once per protocol call, and one vectorised
uint32 pass of numpy's SeedSequence hash mixes in each replicate's r and
gives the block's PCG64 seed words. numpy's SeedSequence is the oracle
of these streams, state and draws, in the tests. The seed must be a
non-negative integer (InputError). The draws come from the law's frame
hook, the one ``std_sample`` calls, so a replicate is the sample
std_sample gives on its stream. The replicates run serially in blocks
of a fixed 64: each sample is drawn and sorted into its row of the
block, checked finite from its ends (NaN sorts last, -inf first), and
summed at once where its sums may leave the double range, so that it
is refused before the next draw; then one call of the mean-excess
kernel takes the block. A block's sums add its rows in replicate
order, and the block sums are combined in block order, so every
result is a fixed function of the seed.

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
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError, InputError
from .mef import _band_en, _emef_at, _sup_abs, theoretical_mef_curve
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_M32 = 0xFFFFFFFF


def _hash_consts(start: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of n hash steps from start on: step k XORs the value
    with c_k and multiplies it by c_(k+1) = c_k mult (mod 2^32)."""
    c = [start]
    for _ in range(n):
        c.append(c[-1] * mult & _M32)
    return np.array(c[:-1], dtype=np.uint32), np.array(c[1:], dtype=np.uint32)


def _hashed(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Hash steps with the constants of ``_hash_consts``, one per column."""
    v = (v ^ xor) * mult
    return v ^ (v >> np.uint32(16))


def _mixed(mixer: np.ndarray, word: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """The (B, 4) pools after row b takes in the entropy word word[b],
    from mixer, one pool (4,) for every row or a pool (B, 4) each: the
    word is hashed once per pool word, and each pool word mixed with its
    hash."""
    out = _MIX_L * mixer - _MIX_R * _hashed(word[:, None], xor, mult)
    return out ^ (out >> np.uint32(16))


def _words(k: int) -> int:
    """How many uint32 words numpy's SeedSequence makes of the integer k."""
    return max(1, -(-k.bit_length() // 32))


# generate_state(4, uint64) reads the pool twice round, each word hashed
# with the next constant of INIT_B's sequence: (2, 4), a row per round
_STATE_CONSTS = tuple(c.reshape(2, 4) for c in _hash_consts(_INIT_B, _MULT_B, 8))


class _Seeded(ISeedSequence):
    """One replicate's PCG64 seed words, as its SeedSequence's
    generate_state(4, uint64) gives them."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a replicate's seed words serve PCG64 alone")
        return self._state


def _streams(seed: int, prefix: tuple = ()):
    """block(start, stop): the generators of replicates start..stop-1 under
    (seed, prefix), replicate r's the one default_rng(SeedSequence(
    entropy=seed, spawn_key=prefix + (r,))) gives, bit for bit.

    SeedSequence(entropy=seed, spawn_key=prefix).pool is the state the
    hash has reached after the seed (padded to 4 words) and the prefix's
    words, W of them. Its constant has taken 16 steps for the first 4
    words and the pool's own mixing, and 4 for each later word, so it
    stands at INIT_A MULT_A^(4 W). A block takes up each replicate's words
    of r from there in one uint32 pass, and each PCG64 is seeded from its
    row. InputError for a seed that is not a non-negative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError("seed must be a non-negative integer")
    pool = np.random.SeedSequence(entropy=seed, spawn_key=prefix).pool
    w = max(4, _words(int(seed))) + sum(_words(int(k)) for k in prefix)
    hc = _INIT_A * pow(_MULT_A, 4 * w, 1 << 32) & _M32
    low = _hash_consts(hc, _MULT_A, 4)
    high = _hash_consts(int(low[1][-1]), _MULT_A, 4)  # for the second word of an r >= 2**32

    def block(start: int, stop: int) -> list:
        r = np.arange(start, stop, dtype=np.uint64)
        mixer = _mixed(pool, r.astype(np.uint32), *low)
        if stop - 1 > _M32:
            big = r > _M32
            mixer[big] = _mixed(mixer[big], (r[big] >> np.uint64(32)).astype(np.uint32), *high)
        half = _hashed(mixer[:, None, :], *_STATE_CONSTS).reshape(-1, 8).astype(np.uint64)
        state = half[:, 0::2] | half[:, 1::2] << np.uint64(32)
        return [np.random.Generator(np.random.PCG64(_Seeded(row))) for row in state]

    return block


def _replicate_rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of replicate key[-1] under (seed, key[:-1])."""
    return _streams(seed, key[:-1])(key[-1], key[-1] + 1)[0]


def _emef_blocks(draw, points, size, streams, n_reps):
    """The replicate engine: for each block of up to _CHUNK consecutive
    replicates, yield the (B, m) empirical mean excess on points, one row
    per replicate, the (B, m) exceedance counts, and the (B, size) block
    of sorted samples, from one ``_emef_at`` call. draw(rng, size) draws
    one sample: the law's frame hook, looked up once per protocol call;
    streams(start, stop) gives the block's generators (``_streams``).
    Memory is O(B (m + size)): one block buffer per call, refilled, so a
    caller reads each block before the next."""
    buffer = np.empty((min(_CHUNK, n_reps), size))  # a fresh block each time faulted in all its pages
    for start in range(0, n_reps, _CHUNK):
        rngs = streams(start, min(start + _CHUNK, n_reps))
        block = buffer[:len(rngs)]
        for row, rng in zip(block, rngs):
            row[:] = draw(rng, size)
            row.sort()
            lo, mid, hi = float(row[0]), float(row[size // 2]), float(row[-1])
            # NaN sorts last and -inf first, so the ends show a sample that is not finite
            if not (lo > -math.inf and hi < math.inf):
                require_finite(row)
            # a row whose sums may overflow is summed now, and refused before the next draw
            if not 2.0 * size * max(hi - mid, mid - lo) < math.inf:
                _emef_at(row[None], points)
        yield (*_emef_at(block, points), block)


def stallion(dist: DistributionSpec, n_reps: int, sample_size: int, grid: Grid, seed: int) -> StallionCurve:
    """Average the empirical mean-excess curve over n_reps independent
    samples of sample_size draws each."""
    from .distributions import _frame, dist_support

    if n_reps < 1 or sample_size < 1:
        raise InputError("stallion requires n_reps >= 1 and sample_size >= 1")
    streams = _streams(seed)
    lo, hi = dist_support(dist)
    points = grid.points
    if points[0] < lo or points[-1] >= hi:
        raise DomainError("grid outside support")
    sums = np.zeros(points.size)
    cnts = np.zeros(points.size, dtype=np.int64)
    for e, _, _ in _emef_blocks(_frame(dist).draw, points, sample_size, streams, n_reps):
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
    streams = _streams(seed)
    grid = make_grid(np.linspace(u0, u1, 101))
    truth = theoretical_mef_curve(dist, grid).values
    sf_u1 = float(std_survival(dist, u1)) if oracle else None
    mabs = dist_mean_abs(dist) if oracle else None
    if oracle:
        _band_en(sample_size, sf_u1, mabs, constants)  # DomainError where no replicate's band is defined

    root_n = np.sqrt(sample_size)
    covered, defined, en_sum, hw_sum = 0, 0, 0.0, 0.0
    blocks = _emef_blocks(_frame(dist).draw, grid.points, sample_size, streams, n_reps)
    for e, count, block in blocks:
        mean_abs = None if oracle else np.mean(np.abs(block), axis=1)
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
    streams = [_streams(seed, (i,)) for i in range(len(sizes))]
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
        blocks = _emef_blocks(draw, grid.points, size, streams[i], n_reps)
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
