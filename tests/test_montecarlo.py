"""Tests for the replicated-emef experiment harness: averaged curves,
coverage and convergence experiments, the replicate engine against the
per-replicate loops it replaced, and the fourth-moment identity with its
enumeration oracle."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from meanex import (
    DomainError,
    InputError,
    NumericError,
    band_constants,
    consistency_band,
    convergence_experiment,
    coverage_experiment,
    dist_mean_abs,
    dist_ppf,
    dist_support,
    empirical_mef_curve,
    fourth_moment_identity,
    fourth_moment_oracle,
    make_grid,
    make_sample,
    make_spec,
    ols_fit,
    stallion,
    std_sample,
    std_survival,
    sup_deviation,
    theoretical_mef_curve,
)
from meanex import cli, distributions
from meanex.cli import main
from meanex.montecarlo import ExperimentReport, StallionCurve, _emef_blocks, _replicate_rng, _streams
from meanex.types import make_curve

EXP2 = make_spec("exponential", **{"lambda": 2.0})
GPD = make_spec("gpd", xi=0.25, beta=1.0)
NIG = make_spec("gh", **{"lambda": -0.5}, alpha=2.0, beta=0.3, delta=1.0, mu=0.0)


# ---------------------------------------------------------------------------
# oracles: the per-replicate loops the replicate engine replaced, one
# sample, one curve and one band at a time


def oracle_rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def oracle_stallion(dist, n_reps, sample_size, grid, seed):
    lo, hi = dist_support(dist)
    if grid.points[0] < lo or grid.points[-1] >= hi:
        raise DomainError("grid outside support")
    sums = np.zeros(grid.points.size)
    cnts = np.zeros(grid.points.size, dtype=np.int64)
    for start in range(0, n_reps, 64):  # each block summed from zero, blocks in order
        block_sums = np.zeros(grid.points.size)
        block_cnts = np.zeros(grid.points.size, dtype=np.int64)
        for r in range(start, min(start + 64, n_reps)):
            x = std_sample(dist, oracle_rng(seed, r), sample_size)
            curve = empirical_mef_curve(make_sample(x), grid)
            ok = np.isfinite(curve.values)
            block_sums[ok] += curve.values[ok]
            block_cnts[ok] += 1
        sums += block_sums
        cnts += block_cnts
    with np.errstate(invalid="ignore"):
        avg = np.where(cnts > 0, sums / np.maximum(cnts, 1), np.nan)
    curve = make_curve(grid, avg, meta=f"stallion reps={n_reps} size={sample_size} seed={seed}")
    return StallionCurve(curve=curve, contributors=cnts, n_reps=n_reps,
                         sample_size=sample_size, seed=seed, dist=dist)


def oracle_coverage(dist, u0, u1, constants, sample_size, n_reps, seed, eps=0.05, oracle=True):
    grid = make_grid(np.linspace(u0, u1, 101))
    truth = theoretical_mef_curve(dist, grid).values
    sf_u1 = float(std_survival(dist, u1)) if oracle else None
    mabs = dist_mean_abs(dist) if oracle else None
    covered, en_sum, hw_sum, defined = 0, 0.0, 0.0, 0
    for r in range(n_reps):
        sample = make_sample(std_sample(dist, oracle_rng(seed, r), sample_size))
        try:
            band = consistency_band(sample, grid, constants, survival_u1=sf_u1, mean_abs=mabs)
        except DomainError:
            continue
        defined += 1
        en_sum += band.en
        hw_sum += band.half_width
        if bool(np.all((band.lower <= truth) & (truth <= band.upper))):
            covered += 1
    metrics = (
        ("coverage", covered / n_reps),
        ("mean_en", en_sum / defined if defined else float("nan")),
        ("mean_half_width", hw_sum / defined if defined else float("nan")),
        ("defined_fraction", defined / n_reps),
        ("eps", eps),
        ("size", float(sample_size)),
    )
    return ExperimentReport(name="coverage", metrics=metrics, replicate_count=n_reps, seed=seed)


def oracle_convergence(dist, u1, sizes, n_reps, seed):
    lo, _ = dist_support(dist)
    u0 = lo if np.isfinite(lo) else dist_ppf(dist, 0.001)
    grid = make_grid(np.linspace(u0, u1, 101))
    truth = theoretical_mef_curve(dist, grid)
    metrics = []
    for i, size in enumerate(sizes):
        devs = np.empty(n_reps)
        for r in range(n_reps):
            sample = make_sample(std_sample(dist, oracle_rng(seed, i, r), size))
            devs[r] = sup_deviation(empirical_mef_curve(sample, grid), truth)
        metrics.append((f"median_sup_dev_{size}", float(np.median(devs))))
    return ExperimentReport(name="convergence", metrics=tuple(metrics), replicate_count=n_reps, seed=seed)


def grid_through_maxima(dist, seed, size, reps, lo, hi):
    """A grid on [lo, hi] that also holds the sample maxima of some
    replicates: their curves are undefined (NaN) there."""
    tops = [std_sample(dist, oracle_rng(seed, r), size).max() for r in reps]
    return make_grid(np.unique(np.concatenate([np.linspace(lo, hi, 60), tops])))


# ---------------------------------------------------------------------------
# the replicate engine against the oracles, bit for bit


@pytest.mark.parametrize("n_reps", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("dist, lo, hi", [(EXP2, 0.01, 12.0), (NIG, -3.0, 12.0)], ids=["exp", "nig"])
def test_stallion_matches_per_replicate_oracle(dist, lo, hi, n_reps):
    # hi lies past every sample maximum: e is 0 there on every replicate
    grid = grid_through_maxima(dist, 21, 300, [0, 62, 63, 64, 129], lo, hi)
    got = stallion(dist, n_reps=n_reps, sample_size=300, grid=grid, seed=21)
    want = oracle_stallion(dist, n_reps, 300, grid, 21)
    assert got.curve.values.tobytes() == want.curve.values.tobytes()
    assert got.contributors.tobytes() == want.contributors.tobytes()
    assert got.curve.meta == want.curve.meta
    assert got.contributors.min() < n_reps  # some replicate's maximum is on the grid
    assert got.curve.values[-1] == 0.0


def test_stallion_one_point_grid_matches_per_replicate_oracle():
    # a (B, 1) block: numpy sums one column pairwise, not row by row
    grid = make_grid([0.5])
    got = stallion(GPD, n_reps=130, sample_size=50, grid=grid, seed=1)
    want = oracle_stallion(GPD, 130, 50, grid, 1)
    assert got.curve.values.tobytes() == want.curve.values.tobytes()


@pytest.mark.parametrize("oracle, size", [(True, 400), (False, 53)], ids=["oracle", "plug-in"])
def test_coverage_matches_per_replicate_oracle(oracle, size):
    d = make_spec("exponential", **{"lambda": 1.0})
    consts = band_constants(0.0, 1.0, A=0.2, A1=0.2) if oracle else band_constants(0.0, 1.0)
    got = coverage_experiment(d, 0.0, 1.0, consts, sample_size=size, n_reps=130, seed=5, oracle=oracle)
    want = oracle_coverage(d, 0.0, 1.0, consts, size, 130, 5, oracle=oracle)
    assert repr(got) == repr(want)
    metrics = dict(got.metrics)
    assert 0.0 < metrics["coverage"] < 1.0
    if not oracle:  # the plug-in band is undefined on some replicates
        assert 0.0 < metrics["defined_fraction"] < 1.0


def test_convergence_matches_per_replicate_oracle():
    d = make_spec("exponential", **{"lambda": 1.0})
    got = convergence_experiment(d, u1=1.5, sizes=[10, 100, 1000], n_reps=70, seed=4)
    assert repr(got) == repr(oracle_convergence(d, 1.5, [10, 100, 1000], 70, 4))


# ---------------------------------------------------------------------------
# the block streams against numpy's SeedSequence, the streams' oracle

STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127 + 11, 2**130 + 9, 2**200 + 1]
STREAM_PREFIXES = [(), (0,), (2,), (5, 3), (2**33,)]


def assert_oracle_streams(rngs, seed, prefix, reps):
    assert len(rngs) == len(reps)
    for rng, r in zip(rngs, reps):
        want = oracle_rng(seed, *prefix, r)
        assert rng.bit_generator.state == want.bit_generator.state, r
        assert rng.random(16).tobytes() == want.random(16).tobytes(), r


@pytest.mark.parametrize("n_reps", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("prefix", STREAM_PREFIXES, ids=str)
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_engine_streams_are_seed_sequence_streams(seed, prefix, n_reps):
    rngs = []

    def draw(rng, size):  # the engine's draw hook: record the generator, draw nothing from it
        rngs.append(rng)
        return np.zeros(size)

    blocks = list(_emef_blocks(draw, np.array([0.5]), 2, _streams(seed, prefix), n_reps))
    assert [len(e) for e, _, _ in blocks] == [min(64, n_reps - s) for s in range(0, n_reps, 64)]
    assert_oracle_streams(rngs, seed, prefix, range(n_reps))


@pytest.mark.parametrize("start", [2**32 - 64, 2**32 - 20, 2**32, 2**40 + 5], ids=hex)
@pytest.mark.parametrize("prefix", [(), (5, 3), (2**33,)], ids=str)
@pytest.mark.parametrize("seed", [0, 2**32, 2**130 + 9])
def test_block_streams_across_two_to_the_32(seed, prefix, start):
    # an r of 2**32 or more is two words of the spawn key
    reps = range(start, start + 64)
    assert_oracle_streams(_streams(seed, prefix)(reps.start, reps.stop), seed, prefix, reps)


def test_replicate_rng_is_the_block_stream():
    assert_oracle_streams([_replicate_rng(7, 0)], 7, (), [0])
    assert_oracle_streams([_replicate_rng(7, 2, 65)], 7, (2,), [65])


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, None, "3"])
def test_seed_that_is_not_a_non_negative_integer_is_refused(seed):
    d = make_spec("exponential", **{"lambda": 1.0})
    grid = make_grid(np.linspace(0.1, 1.0, 5))
    calls = [
        lambda: stallion(d, n_reps=3, sample_size=10, grid=grid, seed=seed),
        lambda: coverage_experiment(d, 0.1, 1.0, band_constants(0.1, 1.0), sample_size=50, n_reps=3, seed=seed),
        lambda: convergence_experiment(d, u1=1.0, sizes=[10, 20], n_reps=3, seed=seed),
        lambda: _replicate_rng(seed, 0),
    ]
    for call in calls:
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == "seed must be a non-negative integer"


def test_numpy_integer_seed_gives_the_int_seed_streams():
    grid = make_grid(np.linspace(0.1, 1.0, 5))
    a = stallion(EXP2, n_reps=3, sample_size=20, grid=grid, seed=np.uint64(2**63 + 1))
    b = stallion(EXP2, n_reps=3, sample_size=20, grid=grid, seed=2**63 + 1)
    assert a.curve.values.tobytes() == b.curve.values.tobytes()


def run_mc_cli(out, capsys):
    """Run stallion (exp and NIG, CSV and SVG) and coverage; return stdout
    and the files written into ``out``."""
    exp = ["stallion", "--dist", "exponential(lambda=1)", "--reps", "70", "--size", "300",
           "--u0", "0.01", "--u1", "9", "--seed", "3"]
    assert main(exp + ["--csv", str(out / "exp.csv"), "--svg", str(out / "exp.svg")]) == 0
    nig = ["stallion", "--dist", "gh(lambda=-0.5,alpha=2,beta=0.3,delta=1,mu=0)", "--reps", "66",
           "--size", "400", "--seed", "4"]
    assert main(nig + ["--csv", str(out / "nig.csv"), "--svg", str(out / "nig.svg")]) == 0
    assert main(nig) == 0
    cov = ["coverage", "--dist", "exponential(lambda=1)", "--u0", "0", "--u1", "1", "--reps", "70",
           "--size", "500", "--seed", "5", "--A", "0.4", "--A1", "0.4"]
    assert main(cov) == 0
    stdout = capsys.readouterr().out
    return stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_outputs_match_per_replicate_oracles(tmp_path, monkeypatch, capsys):
    (tmp_path / "new").mkdir()
    (tmp_path / "oracle").mkdir()
    got = run_mc_cli(tmp_path / "new", capsys)
    monkeypatch.setattr(cli, "stallion", oracle_stallion)
    monkeypatch.setattr(cli, "coverage_experiment", oracle_coverage)
    want = run_mc_cli(tmp_path / "oracle", capsys)
    assert len(got[1]) == 4
    assert "coverage," in got[0]
    assert got == want


# ---------------------------------------------------------------------------
# stallion


def test_stallion_single_rep_equals_emef():
    grid = make_grid(np.linspace(0.1, 1.0, 20))
    st = stallion(EXP2, n_reps=1, sample_size=500, grid=grid, seed=42)
    x = std_sample(EXP2, _replicate_rng(42, 0), 500)
    direct = empirical_mef_curve(make_sample(x), grid)
    assert np.array_equal(st.curve.values, direct.values, equal_nan=True)


def test_stallion_metadata():
    grid = make_grid(np.linspace(0.1, 1.0, 5))
    st = stallion(EXP2, n_reps=3, sample_size=200, grid=grid, seed=1)
    assert st.n_reps == 3
    assert st.sample_size == 200
    assert st.seed == 1
    assert st.dist == EXP2
    assert st.contributors.shape == (5,)
    assert np.all(st.contributors == 3)


def test_stallion_exponential_mean_level():
    grid = make_grid(np.linspace(0.1, 1.0, 15))
    st = stallion(EXP2, n_reps=40, sample_size=1500, grid=grid, seed=3)
    assert np.all(np.abs(st.curve.values - 0.5) < 0.08)


def test_stallion_gpd_slope():
    grid = make_grid(np.linspace(0.0, 2.0, 40))
    st = stallion(GPD, n_reps=60, sample_size=2000, grid=grid, seed=5)
    fit = ols_fit(grid.points, st.curve.values)
    assert abs(fit.a_hat - 1.0 / 3.0) < 0.05


def test_stallion_grid_outside_support():
    grid = make_grid([-0.5, 0.5])
    with pytest.raises(DomainError, match="grid outside support"):
        stallion(EXP2, n_reps=2, sample_size=100, grid=grid, seed=0)


def test_stallion_deterministic():
    grid = make_grid(np.linspace(0.1, 1.0, 10))
    a = stallion(EXP2, n_reps=5, sample_size=300, grid=grid, seed=9)
    b = stallion(EXP2, n_reps=5, sample_size=300, grid=grid, seed=9)
    assert np.array_equal(a.curve.values, b.curve.values, equal_nan=True)
    assert np.array_equal(a.contributors, b.contributors)


# ---------------------------------------------------------------------------
# coverage experiment


def test_coverage_report_fields():
    consts = band_constants(0.0, 1.0)
    rep = coverage_experiment(
        make_spec("exponential", **{"lambda": 1.0}),
        0.0,
        1.0,
        consts,
        sample_size=2000,
        n_reps=40,
        seed=7,
    )
    metrics = dict(rep.metrics)
    assert set(metrics) == {"coverage", "mean_en", "mean_half_width", "defined_fraction", "eps", "size"}
    assert 0.0 <= metrics["coverage"] <= 1.0
    assert metrics["eps"] == 0.05
    assert metrics["size"] == 2000.0
    assert rep.replicate_count == 40
    assert rep.name == "coverage"


def test_coverage_doubling_a1_never_decreases_coverage():
    d = make_spec("exponential", **{"lambda": 1.0})
    base = band_constants(0.0, 1.0, A=1.0, A1=1.0)
    wide = band_constants(0.0, 1.0, A=1.0, A1=2.0)
    cov1 = dict(
        coverage_experiment(d, 0.0, 1.0, base, sample_size=1500, n_reps=30, seed=2).metrics
    )["coverage"]
    cov2 = dict(
        coverage_experiment(d, 0.0, 1.0, wide, sample_size=1500, n_reps=30, seed=2).metrics
    )["coverage"]
    assert cov2 >= cov1


def test_coverage_guard_small_sample():
    d = make_spec("exponential", **{"lambda": 1.0})
    consts = band_constants(0.0, 1.0)
    with pytest.raises(DomainError, match="band undefined"):
        coverage_experiment(d, 0.0, 1.0, consts, sample_size=25, n_reps=10, seed=0)


def test_coverage_constants_interval_mismatch():
    d = make_spec("exponential", **{"lambda": 1.0})
    consts = band_constants(0.0, 2.0)
    with pytest.raises(InputError):
        coverage_experiment(d, 0.0, 1.0, consts, sample_size=2000, n_reps=10, seed=0)


def test_coverage_deterministic():
    d = make_spec("exponential", **{"lambda": 1.0})
    consts = band_constants(0.0, 1.0)
    a = coverage_experiment(d, 0.0, 1.0, consts, sample_size=1000, n_reps=20, seed=4)
    b = coverage_experiment(d, 0.0, 1.0, consts, sample_size=1000, n_reps=20, seed=4)
    assert a == b


# ---------------------------------------------------------------------------
# convergence experiment


def test_convergence_medians_decrease():
    d = make_spec("exponential", **{"lambda": 1.0})
    rep = convergence_experiment(d, u1=1.5, sizes=[100, 1000], n_reps=20, seed=3)
    vals = [v for _, v in rep.metrics]
    assert vals[0] > vals[1]


def test_convergence_single_size():
    d = make_spec("exponential", **{"lambda": 1.0})
    rep = convergence_experiment(d, u1=1.0, sizes=[200], n_reps=5, seed=1)
    assert len(rep.metrics) == 1
    assert rep.metrics[0][0] == "median_sup_dev_200"
    assert rep.metrics[0][1] > 0.0


def test_convergence_bit_identical_reports():
    d = make_spec("exponential", **{"lambda": 1.0})
    a = convergence_experiment(d, u1=1.0, sizes=[100, 300], n_reps=8, seed=6)
    b = convergence_experiment(d, u1=1.0, sizes=[100, 300], n_reps=8, seed=6)
    assert a == b


def test_convergence_rejects_unordered_sizes():
    d = make_spec("exponential", **{"lambda": 1.0})
    with pytest.raises(InputError):
        convergence_experiment(d, u1=1.0, sizes=[1000, 100], n_reps=5, seed=0)
    with pytest.raises(InputError):
        convergence_experiment(d, u1=1.0, sizes=[100, 100], n_reps=5, seed=0)


def test_convergence_rejects_no_replicates():
    d = make_spec("exponential", **{"lambda": 1.0})
    with pytest.raises(InputError, match="n_reps"):
        convergence_experiment(d, u1=1.0, sizes=[100], n_reps=0, seed=0)


# ---------------------------------------------------------------------------
# the finiteness check


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [0, 250, -1], ids=["first", "middle", "last"])
def test_sample_that_is_not_finite_is_refused(monkeypatch, bad, where):
    # the engine sorts each sample before it checks it, from its ends: NaN
    # sorts last and -inf first. The 70th draw, in the second block (and
    # for convergence at the second size), puts a value that is not finite
    # at a place in draw order, and each protocol refuses it with the
    # InputError of require_finite
    real = distributions._frame
    frame = real(EXP2)
    calls = []

    def draw(rng, n):
        x = frame.draw(rng, n)
        calls.append(n)
        if len(calls) == 70:
            x[where] = bad
        return x

    monkeypatch.setattr(distributions, "_frame", lambda spec: replace(frame, draw=draw) if spec == EXP2 else real(spec))
    runs = [
        lambda: stallion(EXP2, 80, 500, make_grid(np.linspace(0.01, 2.0, 20)), seed=3),
        lambda: coverage_experiment(EXP2, 0.0, 0.5, band_constants(0.0, 0.5), sample_size=1000, n_reps=80, seed=3),
        lambda: convergence_experiment(EXP2, u1=1.0, sizes=[300, 500], n_reps=40, seed=3),
    ]
    for run in runs:
        calls.clear()
        with pytest.raises(InputError, match="sample values must be finite"):
            run()
        assert len(calls) == 70


def test_sample_whose_sums_leave_the_double_range_is_refused_before_the_next_draw(monkeypatch):
    # the first replicate's sums about its middle value overflow, and the next ones hold
    # infinities: the first is refused with NumericError, before any other draw, and no
    # warning escapes from the sums
    cauchy = make_spec("cauchy", mu=0.0, delta=3e304)
    real = distributions._frame
    frame = real(cauchy)
    calls = []

    def draw(rng, n):
        calls.append(n)
        return frame.draw(rng, n)

    monkeypatch.setattr(distributions, "_frame", lambda spec: replace(frame, draw=draw) if spec == cauchy else real(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="sum past the double range"):
            stallion(cauchy, n_reps=3, sample_size=4000, grid=make_grid(np.linspace(-1.0, 1.0, 5)), seed=0)
    assert calls == [4000]


# ---------------------------------------------------------------------------
# fourth-moment identity and oracle


def test_identity_single_summand():
    assert fourth_moment_identity(2.0, 7.0, 1) == 7.0


def test_identity_two_and_three_summands():
    assert fourth_moment_identity(1.0, 1.0, 2) == 8.0
    assert fourth_moment_identity(1.0, 1.0, 3) == 21.0


def test_identity_degenerate():
    assert fourth_moment_identity(0.0, 0.0, 5) == 0.0


def test_identity_guards():
    with pytest.raises(DomainError, match="inconsistent moments"):
        fourth_moment_identity(2.0, 1.0, 2)  # kappa2 < kappa1^2
    with pytest.raises(DomainError):
        fourth_moment_identity(-1.0, 1.0, 2)
    with pytest.raises(DomainError):
        fourth_moment_identity(1.0, 1.0, 0)


def test_oracle_rademacher():
    pairs = [(-1.0, 0.5), (1.0, 0.5)]
    assert fourth_moment_oracle(pairs, 2) == pytest.approx(8.0, rel=1e-14)
    assert fourth_moment_oracle(pairs, 3) == pytest.approx(21.0, rel=1e-14)


def test_oracle_centers_internally():
    # {0, 2} shifts to {-1, +1}
    assert fourth_moment_oracle([(0.0, 0.5), (2.0, 0.5)], 2) == pytest.approx(8.0, rel=1e-14)


def test_oracle_single_draw():
    pairs = [(-2.0, 0.25), (2.0 / 3.0, 0.75)]
    # centered two-point law: E Z^4 directly
    vals = np.array([-2.0, 2.0 / 3.0])
    probs = np.array([0.25, 0.75])
    mean = float(vals @ probs)
    expect = float(((vals - mean) ** 4) @ probs)
    assert fourth_moment_oracle(pairs, 1) == pytest.approx(expect, rel=1e-14)


def test_oracle_matches_identity_randomized():
    rng = np.random.default_rng(12)
    for _ in range(10):
        v = rng.uniform(-2.0, 2.0, size=3)
        p = rng.dirichlet(np.ones(3))
        pairs = list(zip(v.tolist(), p.tolist()))
        mean = float(v @ p)
        c = v - mean
        k1 = float((c**2) @ p)
        k2 = float((c**4) @ p)
        for n in (1, 2, 3, 4):
            a = fourth_moment_identity(k1, k2, n)
            b = fourth_moment_oracle(pairs, n)
            assert b == pytest.approx(a, rel=1e-12)


def test_oracle_guards():
    with pytest.raises(DomainError):
        fourth_moment_oracle([(-1.0, 0.5), (1.0, 0.6)], 2)  # probs sum > 1
    with pytest.raises(DomainError):
        fourth_moment_oracle([(-1.0, 0.5), (1.0, 0.5)], 9)  # n > 8
    big = [(float(i), 1.0 / 7.0) for i in range(7)]
    with pytest.raises(DomainError, match="budget"):
        fourth_moment_oracle(big, 8)  # 7^8 outcomes exceed the budget
