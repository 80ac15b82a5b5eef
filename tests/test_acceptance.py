"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Each test prints a single summary line with the measured quantities and
the tolerance it was held to, then asserts. Run with -v to get one
pass/fail line per criterion.
"""

import time

import numpy as np
from scipy import integrate

from meanex import (
    GhParams,
    asymptotic_variance,
    band_constants,
    bessel_k,
    consistency_band,
    convergence_experiment,
    coverage_experiment,
    default_grid,
    dist_mean_abs,
    dist_ppf,
    empirical_mef,
    empirical_mef_curve,
    fit_gpd_curve,
    fourth_moment_identity,
    fourth_moment_oracle,
    gh_pdf,
    gig_moment,
    gig_sample,
    log_returns,
    make_grid,
    make_sample,
    parse_distribution_spec,
    parse_ohlcv_csv,
    returns,
    ohlcv_csv,
    stallion,
    std_sample,
    std_survival,
)
from meanex.cli import main

FIXTURE = "tests/data/synthetic_ohlcv.csv"


def test_criterion_01_gpd_linearity_recovers_parameters():
    """OLS on the emef of one seeded GPD(0.25, 1) sample, n=4000, over the
    central grid-quantile window recovers xi within 0.10 and beta within
    0.15, in under a second."""
    t0 = time.perf_counter()
    spec = parse_distribution_spec("gpd(xi=0.25,beta=1)")
    rng = np.random.default_rng(0)
    sample = make_sample(std_sample(spec, rng, 4000))
    curve = empirical_mef_curve(sample, default_grid(sample))
    params, fit = fit_gpd_curve(curve)
    elapsed = time.perf_counter() - t0
    ok = abs(params.xi - 0.25) <= 0.10 and abs(params.beta - 1.0) <= 0.15
    print(
        f"criterion 01 gpd-linearity: xi_hat={params.xi:.4f} (tol 0.25+-0.10) "
        f"beta_hat={params.beta:.4f} (tol 1+-0.15) t={elapsed:.3f}s "
        f"{'PASS' if ok and elapsed < 1.0 else 'FAIL'}"
    )
    assert abs(params.xi - 0.25) <= 0.10
    assert abs(params.beta - 1.0) <= 0.15
    assert elapsed < 1.0


def test_criterion_02_exponential_stallion_level():
    """Averaged emef of exponential(lambda=2) over 200 reps x 2000 draws
    stays within 0.05 of the constant level 0.5 at every grid point on
    [0.1, 1.5], in under 15 seconds."""
    t0 = time.perf_counter()
    spec = parse_distribution_spec("exponential(lambda=2)")
    grid = make_grid(np.linspace(0.1, 1.5, 200))
    st = stallion(spec, n_reps=200, sample_size=2000, grid=grid, seed=0)
    elapsed = time.perf_counter() - t0
    dev = float(np.max(np.abs(st.curve.values - 0.5)))
    ok = dev <= 0.05 and elapsed < 15.0
    print(
        f"criterion 02 exponential-stallion: max|mean_emef-0.5|={dev:.5f} "
        f"(tol 0.05) t={elapsed:.2f}s {'PASS' if ok else 'FAIL'}"
    )
    assert dev <= 0.05
    assert elapsed < 15.0


def test_criterion_03_fourth_moment_identity_vs_oracle():
    """The closed-form fourth moment of a centered iid sum equals the
    enumeration oracle to 1e-12 relative for n in {1,2,3,4} across 50
    randomized centered 2- and 3-point supports, in under a second."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for trial in range(50):
        k = 2 if trial % 2 == 0 else 3
        vals = rng.uniform(-3.0, 3.0, size=k)
        while len(set(vals.tolist())) < k:
            vals = rng.uniform(-3.0, 3.0, size=k)
        probs = rng.dirichlet(np.ones(k))
        pairs = list(zip(vals.tolist(), probs.tolist()))
        m = sum(v * p for v, p in pairs)
        kappa1 = sum(p * (v - m) ** 2 for v, p in pairs)
        kappa2 = sum(p * (v - m) ** 4 for v, p in pairs)
        for n in (1, 2, 3, 4):
            lhs = fourth_moment_identity(kappa1, kappa2, n)
            rhs = fourth_moment_oracle(pairs, n)
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    print(
        f"criterion 03 fourth-moment-identity: worst_rel={worst:.3e} "
        f"(tol 1e-12) t={elapsed:.3f}s {'PASS' if ok else 'FAIL'}"
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_04_bessel_closed_forms_and_recurrence():
    """Half-integer closed forms at x in {0.1, 1, 10} to 1e-10; symmetry
    in the order and the three-term recurrence to 1e-10 over 20 seeded
    (order, x) pairs."""
    worst_cf = 0.0
    for x in (0.1, 1.0, 10.0):
        k_half = np.sqrt(np.pi / (2.0 * x)) * np.exp(-x)
        k_three = k_half * (1.0 + 1.0 / x)
        worst_cf = max(worst_cf, abs(bessel_k(0.5, x) - k_half) / k_half)
        worst_cf = max(worst_cf, abs(bessel_k(1.5, x) - k_three) / k_three)

    rng = np.random.default_rng(7)
    worst_sym = 0.0
    worst_rec = 0.0
    for _ in range(20):
        lam = rng.uniform(-5.0, 5.0)
        x = rng.uniform(0.2, 20.0)
        a = bessel_k(lam, x)
        worst_sym = max(worst_sym, abs(a - bessel_k(-lam, x)) / abs(a))
        lhs = bessel_k(lam + 1.0, x)
        rhs = bessel_k(lam - 1.0, x) + (2.0 * lam / x) * a
        worst_rec = max(worst_rec, abs(lhs - rhs) / abs(lhs))
    ok = worst_cf <= 1e-10 and worst_sym <= 1e-10 and worst_rec <= 1e-10
    print(
        f"criterion 04 bessel-k: closed_form={worst_cf:.2e} symmetry={worst_sym:.2e} "
        f"recurrence={worst_rec:.2e} (tol 1e-10 each) {'PASS' if ok else 'FAIL'}"
    )
    assert worst_cf <= 1e-10
    assert worst_sym <= 1e-10
    assert worst_rec <= 1e-10


def test_criterion_05_gh_density_normalization():
    """The density integrates to 1 within 1e-4 for the interior reference
    parameter rows (hyperbolic, both asymmetric heavy-tail rows at their
    raw parameters, both NIG rows), in under 5 seconds."""
    rows = [
        GhParams(1.0, 1.5, -0.5, 0.75, 0.2),
        GhParams(-1.278, 0.01186, 0.01186, 0.0766, 1.005),
        GhParams(-1.247, 0.0148, -0.0147, 0.076, 1.005),
        GhParams(-0.5, 8.03, -1.37, 0.051, 0.0105),
        GhParams(-0.5, 7.6, -1.24, 0.052, 0.0103),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for p in rows:
        total, _ = integrate.quad(
            lambda x: float(gh_pdf(p, x)), -np.inf, np.inf, limit=400
        )
        worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 5.0
    print(
        f"criterion 05 gh-normalization: worst|integral-1|={worst:.2e} "
        f"(tol 1e-4) over {len(rows)} rows t={elapsed:.2f}s "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert worst <= 1e-4
    assert elapsed < 5.0


def test_criterion_06_gig_sampler_moments():
    """First and second moments of 10^6 draws match the Bessel-ratio
    formula within 3 Monte Carlo standard errors for three parameter
    triples spanning negative, unit, and large order."""
    worst_z = 0.0
    for lam, chi, psi in [(-0.5, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.5, 2.0)]:
        rng = np.random.default_rng(0)
        w = gig_sample(lam, chi, psi, rng, 10**6)
        for k in (1, 2):
            m_hat = float(np.mean(w**k))
            se = float(np.std(w**k, ddof=1)) / 1000.0
            z = abs(m_hat - gig_moment(lam, chi, psi, k)) / se
            worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    print(
        f"criterion 06 gig-sampler: worst |z|={worst_z:.2f} (tol 3 MC SE) "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert worst_z <= 3.0


def test_criterion_07_sup_deviation_convergence():
    """Medians of the sup deviation between emef and the true mef over 50
    replicates decrease strictly across n in {100, 1000, 10000} for
    exponential(lambda=1) with the window ending at the 0.9 quantile,
    in under 30 seconds."""
    t0 = time.perf_counter()
    spec = parse_distribution_spec("exponential(lambda=1)")
    u1 = dist_ppf(spec, 0.9)
    rep = convergence_experiment(spec, u1=u1, sizes=[100, 1000, 10000], n_reps=50, seed=0)
    elapsed = time.perf_counter() - t0
    m = dict(rep.metrics)
    meds = [m[f"median_sup_dev_{n}"] for n in (100, 1000, 10000)]
    ok = meds[0] > meds[1] > meds[2] and elapsed < 30.0
    print(
        f"criterion 07 convergence: medians={meds[0]:.4f} > {meds[1]:.4f} > "
        f"{meds[2]:.4f} t={elapsed:.2f}s {'PASS' if ok else 'FAIL'}"
    )
    assert meds[0] > meds[1] > meds[2]
    assert elapsed < 30.0


def test_criterion_08_band_structure_and_coverage():
    """Band geometry and calibration: stored envelopes reconstruct exactly
    as curve -/+ half-width; the width multiplier is non-increasing in n;
    the half-width ratio between n=10^4 and 4n with oracle plug-ins lies
    in [0.48, 0.52]; measured coverage with A=A1=1, eps=0.05,
    exponential(lambda=1), n=4000, 500 reps is at least 0.95."""
    spec = parse_distribution_spec("exponential(lambda=1)")

    # exact symmetry on an empirical band
    rng = np.random.default_rng(3)
    x = rng.exponential(1.0, 4000)
    consts01 = band_constants(0.0, 1.0, A=1.0, A1=1.0)
    grid01 = make_grid(np.linspace(0.0, 1.0, 50))
    band = consistency_band(make_sample(x), grid01, consts01)
    half = band.en / np.sqrt(band.n)
    sym = np.array_equal(band.lower, band.curve.values - half, equal_nan=True) and np.array_equal(
        band.upper, band.curve.values + half, equal_nan=True
    )

    # En non-increasing in n at fixed plug-ins
    u1_med = float(np.log(2.0))
    consts_med = band_constants(0.0, u1_med, A=1.0, A1=1.0)
    grid_med = make_grid(np.linspace(0.0, u1_med, 50))
    sf_med = std_survival(spec, u1_med)
    mabs = dist_mean_abs(spec)
    big = np.random.default_rng(0).exponential(1.0, 40000)
    ens = [
        consistency_band(
            make_sample(big[:n]), grid_med, consts_med, survival_u1=sf_med, mean_abs=mabs
        ).en
        for n in (2000, 4000, 8000, 16000)
    ]
    en_monotone = all(a >= b for a, b in zip(ens, ens[1:]))

    # half-width ratio n vs 4n with oracle plug-ins, n = 10^4
    b1 = consistency_band(
        make_sample(big[:10000]), grid_med, consts_med, survival_u1=sf_med, mean_abs=mabs
    )
    b4 = consistency_band(
        make_sample(big), grid_med, consts_med, survival_u1=sf_med, mean_abs=mabs
    )
    ratio = (b4.en / np.sqrt(b4.n)) / (b1.en / np.sqrt(b1.n))
    # independently derived value for survival(u1) = 1/2 exactly
    ratio_oracle = 0.4863095894954945
    ratio_ok = 0.48 <= ratio <= 0.52 and abs(ratio - ratio_oracle) <= 1e-12

    # measured coverage
    rep = coverage_experiment(
        spec, u0=0.0, u1=1.0, constants=consts01, sample_size=4000,
        n_reps=500, seed=0, eps=0.05,
    )
    cov = dict(rep.metrics)["coverage"]
    ok = sym and en_monotone and ratio_ok and cov >= 0.95
    print(
        f"criterion 08 band-structure: symmetry={'exact' if sym else 'broken'} "
        f"En_monotone={en_monotone} ratio={ratio:.6f} (tol [0.48,0.52]) "
        f"coverage={cov:.3f} (tol >=0.95) {'PASS' if ok else 'FAIL'}"
    )
    assert sym
    assert en_monotone
    assert 0.48 <= ratio <= 0.52
    assert abs(ratio - ratio_oracle) <= 1e-12
    assert cov >= 0.95


def test_criterion_09_asymptotic_variance_vs_bootstrap():
    """asymptotic_variance/n agrees with the 500-resample bootstrap
    variance of the emef at the median threshold within 15% relative,
    exponential(lambda=1), n=4000."""
    spec = parse_distribution_spec("exponential(lambda=1)")
    rng = np.random.default_rng(1)
    x = std_sample(spec, rng, 4000)
    u = float(np.median(x))
    sample = make_sample(x)
    av = asymptotic_variance(sample, u) / 4000.0

    boot_rng = np.random.default_rng(1001)
    stats = np.empty(500)
    for b in range(500):
        xb = x[boot_rng.integers(0, 4000, size=4000)]
        stats[b] = empirical_mef(make_sample(xb), u)
    bv = float(np.var(stats, ddof=1))
    rel = abs(av - bv) / bv
    ok = rel <= 0.15
    print(
        f"criterion 09 variance-vs-bootstrap: asym/n={av:.4e} boot={bv:.4e} "
        f"rel={rel:.4f} (tol 0.15) {'PASS' if ok else 'FAIL'}"
    )
    assert rel <= 0.15


def test_criterion_10_data_pipeline_identities(tmp_path):
    """Return identities on the 500-row fixture (exp of log-returns
    reproduces gross to 1e-12; gross-1 equals simple to 1e-15), the
    parse/serialize round trip is the identity, and the compare command
    writes byte-identical CSV across repeated runs."""
    series = parse_ohlcv_csv(open(FIXTURE, encoding="utf-8").read())
    assert len(series.records) == 500

    gross = returns(series, field="close", kind="gross")
    simple = returns(series, field="close", kind="simple")
    logr = log_returns(series, field="close")
    exp_log_err = float(np.max(np.abs(np.exp(logr) - gross)))
    gross_simple_err = float(np.max(np.abs((gross - 1.0) - simple)))

    round_trip = parse_ohlcv_csv(ohlcv_csv(series))
    rt_ok = round_trip == series

    args = [
        "compare", "--data", FIXTURE, "--field", "close", "--log-returns",
        "--dist", "normal(mu=0,sigma=0.02)",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    bytes_ok = a.read_bytes() == b.read_bytes()

    ok = exp_log_err <= 1e-12 and gross_simple_err <= 1e-15 and rt_ok and bytes_ok
    print(
        f"criterion 10 data-pipeline: exp(log)-gross={exp_log_err:.2e} (tol 1e-12) "
        f"(gross-1)-simple={gross_simple_err:.2e} (tol 1e-15) "
        f"round_trip={'identity' if rt_ok else 'broken'} "
        f"compare_bytes={'identical' if bytes_ok else 'differ'} "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert exp_log_err <= 1e-12
    assert gross_simple_err <= 1e-15
    assert rt_ok
    assert bytes_ok
