"""Tests for the generalized inverse Gaussian sampler, density, and
Bessel-ratio moments, including the Gamma and Inverse Gamma boundaries."""

import math
import signal
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from meanex import DomainError, NumericError, gig_moment, gig_pdf, gig_sample, gig_validate
from meanex import dist_ppf, make_grid, make_spec, parse_distribution_spec, std_cdf, std_sample, std_survival
from meanex import theoretical_mef, theoretical_mef_curve
from meanex import gig
from meanex.gh import GhParams, gh_sample
from meanex.gh import _mixing as gh_mixing
from meanex.cli import main
from meanex.gig import gig_mode
from test_distributions import SAMPLER_CASES


# ---------------------------------------------------------------------------
# validation


def test_validate_interior():
    assert gig_validate(-0.5, 1.0, 1.0) == "interior"
    assert gig_validate(2.0, 0.5, 2.0) == "interior"


def test_validate_boundaries():
    assert gig_validate(2.0, 0.0, 1.0) == "gamma"
    assert gig_validate(-1.5, 2.0, 0.0) == "inverse-gamma"


def test_validate_rejects_bad_triples():
    with pytest.raises(DomainError):
        gig_validate(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        gig_validate(0.0, 0.0, 1.0)  # chi = 0 needs lambda > 0
    with pytest.raises(DomainError):
        gig_validate(0.5, 1.0, 0.0)  # psi = 0 needs lambda < 0
    with pytest.raises(DomainError):
        gig_validate(float("inf"), 1.0, 1.0)


# ---------------------------------------------------------------------------
# moments


def test_moment_reference_values():
    # Bessel-ratio identity evaluated at three interior triples
    assert gig_moment(-0.5, 1.0, 1.0, 1) == pytest.approx(1.0, rel=1e-12)
    assert gig_moment(-0.5, 1.0, 1.0, 2) == pytest.approx(2.0, rel=1e-12)
    assert gig_moment(1.0, 1.0, 1.0, 1) == pytest.approx(2.699483935593772, rel=1e-12)
    assert gig_moment(1.0, 1.0, 1.0, 2) == pytest.approx(11.797935742375088, rel=1e-12)
    assert gig_moment(2.0, 0.5, 2.0, 1) == pytest.approx(2.185220587315709, rel=1e-12)
    assert gig_moment(2.0, 0.5, 2.0, 2) == pytest.approx(6.8056617619471265, rel=1e-12)


def test_moment_matches_quadrature():
    for lam, chi, psi in ((-0.5, 1.0, 1.0), (1.3, 0.7, 2.0)):
        for k in (1, 2):
            val, _ = integrate.quad(
                lambda w: w**k * gig_pdf(lam, chi, psi, w), 0.0, 200.0, limit=300
            )
            assert gig_moment(lam, chi, psi, k) == pytest.approx(val, rel=1e-8)


def test_moment_gamma_boundary():
    # chi = 0: plain Gamma(shape=lam, scale=2/psi)
    assert gig_moment(3.0, 0.0, 2.0, 1) == pytest.approx(3.0, rel=1e-12)
    assert gig_moment(3.0, 0.0, 2.0, 2) == pytest.approx(12.0, rel=1e-12)


def test_moment_inverse_gamma_boundary():
    # psi = 0: Inverse Gamma(shape=-lam, scale=chi/2); mean needs -lam > 1
    assert gig_moment(-3.0, 2.0, 0.0, 1) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(DomainError):
        gig_moment(-0.5, 1.0, 0.0, 1)


def test_moment_survives_extreme_omega():
    # scaled Bessel keeps the ratio alive where K itself underflows
    val = gig_moment(-0.5, 9e10, 1e12, 1)
    assert val == pytest.approx(math.sqrt(9e10 / 1e12), rel=1e-6)


def test_moment_at_huge_chi_psi():
    # chi psi = 1e400 overflowed in sqrt(chi psi) and the moments were NaN;
    # at omega = 1e200, W is sqrt(chi / psi) = 1 to double precision
    for k in (1, 2):
        assert gig_moment(1.0, 1e200, 1e200, k) == pytest.approx(1.0, rel=1e-15)
    assert gig_mode(1.0, 1e200, 1e200) == pytest.approx(1.0, rel=1e-15)


def test_moment_at_tiny_chi_psi_is_refused():
    # K_6 and K_5 both overflow at omega = 8.7e-81: the ratio was inf / inf,
    # NaN with a RuntimeWarning (the Gamma limit is 2 lambda / psi = 13.3)
    with pytest.raises(NumericError):
        gig_moment(5.0, 1e-160, 0.75, 1)
    with pytest.raises(NumericError):
        gig_pdf(5.0, 1e-160, 0.75, 1.0)


# ---------------------------------------------------------------------------
# density


def test_pdf_integrates_to_one():
    for lam, chi, psi in ((-0.5, 1.0, 1.0), (1.0, 1.0, 1.0), (2.0, 0.5, 2.0)):
        total, _ = integrate.quad(lambda w: gig_pdf(lam, chi, psi, w), 0.0, 150.0, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_pdf_zero_outside_support():
    out = gig_pdf(1.0, 1.0, 1.0, np.array([-1.0, 0.0, 1.0]))
    assert out[0] == 0.0
    assert out[1] == 0.0
    assert out[2] > 0.0


@pytest.mark.parametrize(
    "triple",
    [(2.0, 1.0, 1.0), (2.0, 0.0, 1.0), (-1.5, 2.0, 0.0), pytest.param((1.0, 1.0, 1.0), id="interior-lambda-1")],
    ids=lambda t: gig_validate(*t),
)
def test_pdf_zero_at_infinity(triple):
    # the Gamma class formed inf - inf at +inf and gave NaN, and so did
    # the interior class for lambda >= 1 (0 * inf at lambda = 1)
    assert np.array_equal(gig_pdf(*triple, np.array([np.inf, -np.inf])), [0.0, 0.0])
    assert gig_pdf(*triple, np.inf) == 0.0


def test_pdf_is_zero_without_warning_where_log_h_overflows():
    # (w - s) / sqrt(w) is about 1e150 s at w = 1e-300: its square overflows,
    # and exp(-inf) is the density there
    assert np.array_equal(gig_pdf(0.5, 1221.87, 3.427e-6, np.array([1e-300, 5.5e-300, 1e-299])), [0.0, 0.0, 0.0])


def test_gamma_class_pole_past_double_range_is_refused_without_warning():
    # the quantiles lie under the double range: next to them w^(lambda - 1)
    # e^(log norm) overflowed with a RuntimeWarning (an error in this
    # suite); the density is inf there, and the quadrature refuses it, at
    # q = 1e-20 from its first estimate, before an inf / inf. At q = 1e-4
    # brentq asks for F on [0, 3.98e-306], a piece too narrow for the map
    # anchored at 0, which is refused before cubature reads it
    assert gig_pdf(0.01, 0.0, 1e-3, 5e-324) == np.inf
    for q, why in ((1e-4, r"\[0, 3.97517e-306\] is refused"), (1e-20, "not finite")):
        with pytest.raises(NumericError, match=why):
            dist_ppf(parse_distribution_spec("gig(lambda=0.01,chi=0,psi=1e-3)"), q)


def test_pdf_matches_scipy():
    # scipy's geninvgauss(p, b) is GIG(p, chi=b*scale, psi=b/scale)
    lam, chi, psi = 1.4, 0.9, 2.3
    b = math.sqrt(chi * psi)
    scale = math.sqrt(chi / psi)
    ref = stats.geninvgauss(p=lam, b=b, scale=scale)
    w = np.array([0.2, 0.7, 1.5, 4.0])
    assert gig_pdf(lam, chi, psi, w) == pytest.approx(ref.pdf(w), rel=1e-10)


def _mp_gig_pdf(lam, chi, psi, w):
    with mpmath.workdps(50):
        lam, chi, psi, w = (mpmath.mpf(v) for v in (lam, chi, psi, w))
        norm = (psi / chi) ** (lam / 2) / (2 * mpmath.besselk(lam, mpmath.sqrt(chi * psi)))
        return float(norm * w ** (lam - 1) * mpmath.exp(-(chi / w + psi * w) / 2))


@pytest.mark.parametrize(
    "triple, ws",
    [
        # omega = 3e11: log norm (about +omega) plus log h (about -omega)
        # lost log10(omega) digits, 4e-5 to 8e-5 off at these points
        ((-0.5, 9e10, 1e12), [0.3, 0.3 + 1e-6, 0.3 - 1e-6, 0.3 + 3e-7, 0.3 - 2.5e-6]),
        ((2.0, 1e30, 1e30), [1.0, 1.0 + 2.0**-50, 1.0 - 2.0**-51]),
        ((0.7, 3.3e7, 1e-5), [1816590.0, 1816600.0, 1816000.0]),
        ((-0.5, 1.3, 2.7), [0.1, 0.7, 3.0]),
        ((0.3, 1e-8, 1e-8), [1e-6, 1.0, 50.0]),
    ],
    ids=["omega-3e11", "omega-1e30", "lambda-0.7-wide", "plain", "small-chi-psi"],
)
def test_pdf_matches_mpmath(triple, ws):
    for w in ws:
        want = _mp_gig_pdf(*triple, w)
        assert want > 0.0
        assert gig_pdf(*triple, w) == pytest.approx(want, rel=1e-12)


def test_mode_is_density_maximum():
    lam, chi, psi = 1.7, 0.8, 1.9
    m = gig_mode(lam, chi, psi)
    pm = gig_pdf(lam, chi, psi, m)
    for w in (0.5 * m, 0.9 * m, 1.1 * m, 2.0 * m):
        assert gig_pdf(lam, chi, psi, w) <= pm


def test_mode_near_the_gamma_boundary():
    # (lambda - 1) + sqrt((lambda - 1)^2 + chi psi) cancelled to 0 at
    # chi psi = 6.4e-17, and sampling took log(0); the mode is about
    # chi / (2 (1 - lambda)) there
    assert gig_mode(0.3, 1e-20, 6400.0) == pytest.approx(1e-20 / 1.4, rel=1e-12)
    w = gig_sample(0.3, 1e-20, 6400.0, np.random.default_rng(4), 20_000)
    # W is Gamma(0.3, scale 2 / 6400) to double precision: mean 9.375e-5
    assert w.mean() == pytest.approx(9.375e-5, rel=0.05)


@pytest.mark.parametrize("lam, psi", [(0.5, 2.0), (1.0, 2.0), (0.5, 0.3)])
def test_gamma_law_with_mode_zero_matches_scipy(lam, psi):
    # chi = 0 and lambda <= 1 put the mode at 0, so gig_bulk takes the
    # mean 2 lambda / psi as the centre and as the bulk's width
    assert gig.gig_bulk(lam, 0.0, psi) == (2.0 * lam / psi, 2.0 * lam / psi)
    spec = parse_distribution_spec(f"gig(lambda={lam},chi=0,psi={psi})")
    law = stats.gamma(a=lam, scale=2.0 / psi)
    u = law.ppf([0.05, 0.25, 0.5, 0.75, 0.95, 0.999])
    # E[X 1{X > u}] = E[X] F_bar(u) of the Gamma law of shape lambda + 1
    e = law.mean() * stats.gamma(a=lam + 1.0, scale=2.0 / psi).sf(u) / law.sf(u) - u
    np.testing.assert_allclose(std_survival(spec, u), law.sf(u), rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(theoretical_mef_curve(spec, make_grid(u)).values, e, rtol=1e-10, atol=0.0)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
@pytest.mark.parametrize("lam, chi, psi", [(-1.5, 5e-324, 1.0), (-1.5, 5e-324, 0.0), (0.0, 5e-324, 1.0),
                                           (-0.5, 5e-324, 1.0)])
def test_law_whose_mode_underflows_to_zero_is_refused(lam, chi, psi):
    # chi = 5e-324 puts the mode of these lambda <= 0 laws at 0, where gig_bulk took the Gamma
    # class's 2 lambda / psi: a centre of -3 (warnings, then a refusal for a quadrature that is
    # not finite), of 0, or a ZeroDivisionError at psi = 0; and the sampler's box search, its
    # bracket 2 hi + 1 / psi stuck at -1 for m = -1, never returned. Each is refused at once
    spec = make_spec("gig", **{"lambda": lam, "chi": chi, "psi": psi})
    refusals = [
        lambda: gig.gig_bulk(lam, chi, psi),
        lambda: std_survival(spec, 1.0),
        lambda: std_sample(spec, np.random.default_rng(0), 10),
    ]

    def expired(signum, frame):
        raise TimeoutError("still running after 3 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(3)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for refused in refusals:
                with pytest.raises(NumericError, match="the law's mode underflows to 0"):
                    refused()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_law_whose_bulk_width_underflows_to_zero_is_refused(capsys):
    # the mode 2.96e-243 is a normal double, but m / sqrt((psi m + chi / m) / 2) = 2.6e-364 is
    # 0: dist_ppf warned "divide by zero" and gh-pdf exited 3 with "quadrature finds mass 0
    # under the density, not 1"; each is refused at once, with no warning
    lam, chi, psi = -1.3e242, 0.77, 0.0
    assert gig_mode(lam, chi, psi) > 0.0
    spec = make_spec("gig", **{"lambda": lam, "chi": chi, "psi": psi})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for refused in (lambda: gig.gig_bulk(lam, chi, psi), lambda: dist_ppf(spec, 0.5),
                        lambda: theoretical_mef(spec, 1.0)):
            with pytest.raises(NumericError, match="the bulk's width underflows to 0"):
                refused()
        assert main(["gh-pdf", "--dist", "gig(lambda=-1.3e242,chi=0.77,psi=0)"]) == 3
    assert "the bulk's width underflows to 0" in capsys.readouterr().err


@pytest.mark.parametrize("lam, chi, psi, why", [(-1.5, 5e-324, 0.0, "underflows to 0"), (1.5, 0.0, 5e-324, "overflows"),
                                                (-2.5, 5e-324, 0.0, "underflows to 0"), (0.4, 0.0, 1e-310, "overflows")])
def test_boundary_law_whose_scale_leaves_the_double_range_is_refused(lam, chi, psi, why):
    # the Inverse Gamma scale chi / 2 underflows to 0 and the Gamma scale 2 / psi overflows:
    # gig_sample gave five 0.0 or five inf, gig_moment 0.0 or inf, with no error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for refused in (lambda: gig_sample(lam, chi, psi, np.random.default_rng(0), 5),
                        lambda: gig_moment(lam, chi, psi, 1),
                        lambda: gig.gig_bulk(lam, chi, psi)):
            with pytest.raises(NumericError, match=f"the law's (scale {why}|mode underflows to 0)"):
                refused()


def test_boundary_laws_next_to_the_double_range_are_drawn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gig_moment(1.5, 0.0, 1e-300, 1) == pytest.approx(3e300, rel=1e-14)
        assert gig_moment(-1.5, 1e-300, 0.0, 1) == pytest.approx(1e-300, rel=1e-14)
        for lam, chi, psi in [(1.5, 0.0, 1e-300), (-1.5, 1e-300, 0.0)]:
            w = gig_sample(lam, chi, psi, np.random.default_rng(0), 200)
            assert np.all((w > 0.0) & np.isfinite(w))


def test_boundary_scale_is_checked_once_per_law(monkeypatch):
    checks = []
    scale = gig._boundary_scale
    monkeypatch.setattr(gig, "_boundary_scale", lambda *a: checks.append(a) or scale(*a))
    rng = np.random.default_rng(1)
    for _ in range(3):
        gig_sample(1.2345, 0.0, 0.6789, rng, 50)  # a law no other test draws, so its sampler is resolved here
    assert checks == [(1.2345, 0.0, 0.6789, "gamma")]


def test_gh_sample_of_a_gamma_law_whose_scale_overflows_exits_3(capsys):
    # it printed three inf lines after a RuntimeWarning from gig_mode, and exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gh-sample", "--dist", "gig(lambda=1.5,chi=0,psi=5e-324)", "--size", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gig(lambda=1.5,chi=0,psi=4.94065645841e-324): the law's scale overflows\n"


# a Gamma-class law's F and ppf against scipy's, to a relative tolerance
# fixed before the run: cubature holds each integral to 1e-10 of itself,
# and x ~ q^(1 / lambda) moves by 1 / lambda of F's relative error
GAMMA_CLASS_RTOL = 1e-8


@pytest.mark.parametrize("lam, psi", [(0.5, 2.0), (0.8, 3.0), (1.0, 1.0)])
def test_gamma_class_lower_tail_keeps_relative_accuracy(lam, psi):
    # the mode is 0, the support's lower end: F taken as 1 - F_bar there
    # made ppf(1e-9) of gig(0.5, 0, 2) come back as 0
    spec = parse_distribution_spec(f"gig(lambda={lam},chi=0,psi={psi})")
    law = stats.gamma(a=lam, scale=2.0 / psi)
    q = np.logspace(-2, -30, 15)
    x = law.ppf(q)
    np.testing.assert_allclose([dist_ppf(spec, v) for v in q], x, rtol=GAMMA_CLASS_RTOL, atol=0.0)
    np.testing.assert_allclose(std_cdf(spec, x), law.cdf(x), rtol=GAMMA_CLASS_RTOL, atol=0.0)


def test_gamma_class_quantile_near_the_subnormal_range():
    # ppf(1e-15) is 1.67e-300: the piece anchored at 0 started its log map
    # 2^20 ulps of 0 above it, a subnormal, where the density's points are
    # coarse and its rest below the map did not read as a power
    spec = parse_distribution_spec("gig(lambda=0.05,chi=0,psi=0.7)")
    law = stats.gamma(a=0.05, scale=2.0 / 0.7)
    q = np.array([1e-2, 1e-5, 1e-9, 1e-12, 1e-15])
    x = law.ppf(q)
    np.testing.assert_allclose([dist_ppf(spec, v) for v in q], x, rtol=GAMMA_CLASS_RTOL, atol=0.0)
    np.testing.assert_allclose(std_cdf(spec, x), law.cdf(x), rtol=GAMMA_CLASS_RTOL, atol=0.0)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_gamma_class_quantile_past_the_map_floor_is_refused_at_once():
    # ppf(1e-16) is about 1e-320, a subnormal: brentq asked for F on [0,
    # 4.8e-319], a piece too narrow for the map anchored at 0, and cubature
    # read the pole there at subnormal spacing for about 7 s before it gave
    # up. The piece is refused after its first estimate, and the message
    # names it; ppf(1e-15) = 1.67e-300 still has room for the map. A
    # density bounded at 0 cannot change across such a piece, and still
    # takes it linearly: F of the unit exponential, GIG(1, 0, 2), is x there
    spec = parse_distribution_spec("gig(lambda=0.05,chi=0,psi=0.7)")

    def expired(signum, frame):
        raise TimeoutError("still integrating after 3 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(3)
    try:
        with pytest.raises(NumericError, match=r"quadrature over \[0, \d\.\d+e-3[12]\d\] is refused for gig"):
            dist_ppf(spec, 1e-16)
        with pytest.raises(NumericError, match="stay off subnormal spacing"):
            std_cdf(spec, 1e-310)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert dist_ppf(spec, 1e-15) == pytest.approx(1.6699e-300, rel=1e-4)
    assert std_cdf(parse_distribution_spec("gig(lambda=1,chi=0,psi=2)"), 1e-305) == pytest.approx(1e-305, rel=1e-14)


# ---------------------------------------------------------------------------
# sampling


def test_sample_inverse_gaussian_mean():
    # lam = -1/2 is the Inverse Gaussian subfamily
    rng = np.random.default_rng(77)
    w = gig_sample(-0.5, 1.0, 1.0, rng, 1_000_000)
    target = gig_moment(-0.5, 1.0, 1.0, 1)
    assert w.mean() == pytest.approx(target, rel=0.01)


def test_sample_inverse_gamma_log_moment():
    # psi = 0 boundary: E[log W] = log(chi/2) - digamma(-lam)
    from scipy.special import digamma

    rng = np.random.default_rng(13)
    lam, chi = -2.5, 3.0
    w = gig_sample(lam, chi, 0.0, rng, 400_000)
    expect = math.log(chi / 2.0) - digamma(-lam)
    assert np.log(w).mean() == pytest.approx(expect, abs=0.02 * max(1.0, abs(expect)))


def test_sample_balanced_parameters_median():
    rng = np.random.default_rng(99)
    w = gig_sample(1.0, 1.0, 1.0, rng, 50_000)
    med = float(np.median(w))
    assert math.isfinite(med)
    assert med > 0.0


def test_sample_gamma_boundary_moments():
    rng = np.random.default_rng(21)
    w = gig_sample(3.0, 0.0, 2.0, rng, 400_000)
    assert w.mean() == pytest.approx(3.0, rel=0.02)


def test_sample_ks_against_scipy():
    lam, chi, psi = 1.0, 1.0, 1.0
    b = math.sqrt(chi * psi)
    scale = math.sqrt(chi / psi)
    rng = np.random.default_rng(31)
    w = gig_sample(lam, chi, psi, rng, 100_000)
    stat = stats.kstest(w, stats.geninvgauss(p=lam, b=b, scale=scale).cdf).statistic
    assert stat < 0.01


def test_sample_deterministic_under_seed():
    a = gig_sample(1.0, 1.0, 1.0, np.random.default_rng(4), 50)
    b = gig_sample(1.0, 1.0, 1.0, np.random.default_rng(4), 50)
    assert np.array_equal(a, b)


def test_envelope_is_solved_once_per_triple(monkeypatch):
    # the class, the sampler's choice, its acceptance and the ROU box are
    # worked out on a law's first draw; later draws solve nothing again
    triple = (-0.5, 1.3, 2.7)
    gig._sampler.cache_clear()
    gig._rou_envelope.cache_clear()
    fresh = gig_sample(*triple, np.random.default_rng(9), 500)
    assert gig._rou_envelope(*triple) == gig._rou_envelope.__wrapped__(*triple)
    calls = []
    for name in ("gig_validate", "_log_kept", "_log_acceptance", "_rou_envelope"):
        real = getattr(gig, name)
        monkeypatch.setattr(gig, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    brentq = gig.optimize.brentq
    monkeypatch.setattr(gig.optimize, "brentq", lambda *a, **k: calls.append("brentq") or brentq(*a, **k))
    again = gig_sample(*triple, np.random.default_rng(9), 500)
    assert calls == []
    assert again.tobytes() == fresh.tobytes()
    # resolved afresh, the law still finds its box in the cache: no second brentq call
    gig._sampler.cache_clear()
    assert gig_sample(*triple, np.random.default_rng(9), 500).tobytes() == fresh.tobytes()
    assert "brentq" not in calls and "_rou_envelope" in calls


def test_sample_rejects_invalid_domain():
    with pytest.raises(DomainError):
        gig_sample(0.5, 1.0, 0.0, np.random.default_rng(0), 10)
    with pytest.raises(DomainError):
        gig_sample(1.0, 1.0, 1.0, np.random.default_rng(0), -1)


def uncentred_log_h(w, lam, chi, psi):
    """log h(w) as written, the oracles' own: its two terms of size omega
    = sqrt(chi psi) cancel near the mode, so it serves only at moderate
    omega, where the sampler reads the centred ``_log_h_centred``."""
    return (lam - 1.0) * np.log(w) - 0.5 * (chi / w + psi * w)


def oracle_thinning_wins(lam, chi, psi):
    """Whether keeping a boundary draw w with probability e^(-chi / (2 w))
    (lambda > 0) or e^(-psi w / 2) (lambda < 0) accepts more often than ROU
    (6e-6 at lambda = 0.3, chi = psi = 1e-8): the former accepts int h (c /
    2)^a / Gamma(a), a = |lambda|, c = psi or chi, ROU int h / (2 h(m) (v+ - v-)).

    The sampler choice from the terms in which the two acceptances differ,
    with log h(m) uncentred: gig_sample compares ``_log_kept``, which takes
    log h(m) + omega from ``_log_h_centred``."""
    a = abs(lam)
    if not 0.0 < a < 1.0:
        return False
    m, _, v_lo, v_hi = gig._rou_envelope(lam, chi, psi)
    lh_m = uncentred_log_h(m, lam, chi, psi)
    c = psi if lam > 0 else chi
    return v_hi > v_lo and np.log(2.0 * (v_hi - v_lo)) + lh_m + a * np.log(0.5 * c) - special.gammaln(a) > 0.0


THINNING_TRIPLES = [(-0.5, 1e-8, 1e-8), (-0.5, 0.0026, 62.6), (0.5, 1e-4, 1.0)]
ACCEPTANCE_CASES = [
    ((-0.5, 1.3, 2.7), False), ((0.0, 1e-3, 1e-3), False), ((0.01, 1e-8, 1e-8), True), ((-0.3, 1e-4, 1.0), True),
]


@pytest.mark.parametrize("triple", THINNING_TRIPLES)
def test_sample_by_thinning_the_boundary_law(triple):
    # the ROU box accepts 1.5e-4 of its candidates at (-0.5, 1e-8, 1e-8).
    # GIG(-1/2, chi, psi) is the inverse Gaussian of mean sqrt(chi / psi)
    # and shape chi, scipy's invgauss(mean / chi, scale=chi); 1 / W is
    # GIG(-lambda, psi, chi)
    assert oracle_thinning_wins(*triple)
    lam, chi, psi = triple
    w = gig_sample(lam, chi, psi, np.random.default_rng(1), 20_000)
    if lam > 0:
        w, chi, psi = 1.0 / w, psi, chi
    ref = stats.invgauss(math.sqrt(chi / psi) / chi, scale=chi)
    assert stats.kstest(w, ref.cdf).pvalue > 1e-3


def test_sample_extreme_mixing_parameters():
    # the near-Gaussian mixing law: chi*psi around 1e23 must not overflow
    rng = np.random.default_rng(8)
    w = gig_sample(-0.5, 9e10, 1e12 - 4.0, rng, 10_000)
    assert np.isfinite(w).all()
    assert w.mean() == pytest.approx(0.3, rel=0.01)


@pytest.mark.parametrize("lam", [0.5, 2.0, -1.5])
@pytest.mark.parametrize("b", [1e16, 1e20])
def test_near_gaussian_draws_keep_their_width(lam, b):
    # GIG(lambda, b, b) has mean 1 and standard deviation 1 / sqrt(b), each
    # to O(1 / b). The ROU test on the uncentred log h(w) - log h(m), two
    # terms of size omega = b, lost log10(b) digits and kept draws too
    # wide: sd sqrt(b) read 1.07 at b = 1e16 and 11 at b = 1e20. The sd of
    # 20000 draws is good to 0.5%
    w = gig_sample(lam, b, b, np.random.default_rng(3), 20_000)
    assert w.std() * math.sqrt(b) == pytest.approx(1.0, abs=0.03)
    assert w.mean() == pytest.approx(1.0, abs=5.0 / math.sqrt(20_000 * b))


def mp_rou_box(lam, chi, psi, m, width):
    """The ratio-of-uniforms box (v-, v+) of the shift m, the sampler's
    own double, to 80 digits: each root of 2 + (w - m) d log h / dw, the
    stationarity of (w - m)^2 h(w), is bisected as written (its terms of
    size omega cancel by at most 24 of the 80 digits), and each bound is
    (w - m) sqrt(h(w) / h(m)) on the uncentred log h. Brackets grow from m
    in steps of the bulk's width."""
    with mpmath.workdps(80):
        lam, chi, psi, m, width = (mpmath.mpf(x) for x in (lam, chi, psi, m, width))

        def log_h(w):
            return (lam - 1) * mpmath.log(w) - (chi / w + psi * w) / 2

        def g(w):
            return 2 + (w - m) * ((lam - 1) / w - psi / 2 + chi / (2 * w * w))

        def root(inside, outside):
            # g(inside) > 0 >= g(outside); 300 halvings shrink the bracket
            # by 1e-90
            for _ in range(300):
                mid = (inside + outside) / 2
                inside, outside = (mid, outside) if g(mid) > 0 else (inside, mid)
            return inside

        step = width
        while g(m + step) > 0:
            step *= 2
        w_plus = root(m, m + step)
        step = width
        while step < m and g(m - step) > 0:
            step *= 2
        lo = m - step if step < m else m / 2
        while g(lo) > 0:
            lo /= 2
        w_minus = root(m, lo)
        return tuple(float((w - m) * mpmath.exp((log_h(w) - log_h(m)) / 2)) for w in (w_minus, w_plus))


# 5 lambdas x omega = 1 to 1e24 in steps of 100 x chi / psi = 1e-12, 1, 1e12
BOX_SWEEP = [(lam, omega * math.sqrt(ratio), omega / math.sqrt(ratio))
             for lam in (-3.0, -0.5, 0.3, 1.0, 2.5)
             for omega in (10.0 ** k for k in range(0, 25, 2))
             for ratio in (1e-12, 1.0, 1e12)]


def test_rou_box_matches_an_80_digit_box_across_omega():
    # at omega = 1e24 the bulk's width is 1e-12 of the mode, so one ulp of
    # the mode is about 1e-4 of it: 1e-4 relative is the bound, fixed
    # before the run. Solved on an uncentred log h with an absolute xtol
    # of 1e-13, the box came out narrower than this one on 55 of these
    # laws and wider on 63, and was [-1.41e-14, 0] at gig(-0.5, 1e10, 1e22)
    assert len(BOX_SWEEP) == 195
    for lam, chi, psi in BOX_SWEEP:
        box = gig._rou_envelope(lam, chi, psi)
        assert box is not None, (lam, chi, psi)
        m, _, v_lo, v_hi = box
        ref_lo, ref_hi = mp_rou_box(lam, chi, psi, m, gig.gig_bulk(lam, chi, psi)[1])
        assert v_lo == pytest.approx(ref_lo, rel=1e-4), (lam, chi, psi)
        assert v_hi == pytest.approx(ref_hi, rel=1e-4), (lam, chi, psi)


def test_draws_at_omega_1e16_fill_both_sides_of_the_mode():
    # GIG(-1/2, 1e10, 1e22) is the inverse Gaussian of mean 1e-6 and sd
    # 1e-14. Its box was solved as [-1.41e-14, 0], so no draw lay above
    # the mode, the mean was 253 standard errors low and the sd 0.61 of
    # the exact one
    lam, chi, psi = -0.5, 1e10, 1e22
    n = 100_000
    w = gig_sample(lam, chi, psi, np.random.default_rng(0), n)
    with mpmath.workdps(60):
        s, om = mpmath.sqrt(mpmath.mpf(chi) / psi), mpmath.sqrt(mpmath.mpf(chi) * psi)
        k0, k1, k2 = (mpmath.besselk(lam + k, om) for k in range(3))
        mean = s * k1 / k0
        sd = float(mpmath.sqrt(s * s * k2 / k0 - mean * mean))
        mean = float(mean)
    assert abs(np.mean(w > gig_mode(lam, chi, psi)) - 0.5) <= 0.01
    assert abs(np.mean(w - mean)) <= 5.0 * sd / math.sqrt(n)
    assert np.std(w - mean) == pytest.approx(sd, rel=0.01)


def test_thinned_candidate_that_underflows_draws_without_a_warning():
    # a Gamma(0.00736) draw underflows to 0, so the inverse-Gamma candidate
    # 0.5 chi / 0 is inf, which the thinning test rejects; the division
    # warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = gig_sample(-0.00736, 1.103, 1.38e-19, np.random.default_rng(0), 50)
    assert w.shape == (50,) and np.all(np.isfinite(w))


def reference_gig_sample(lam, chi, psi, rng, n):
    """The per-call sampler that ``gig._sampler`` replaced, the oracle of
    its bits: it works out its set-up on every call, draws u with
    uniform(0, 1) and tests every candidate of a batch. Its acceptance
    test is the centred one that the sampler runs."""
    if gig.gig_validate(lam, chi, psi) != "interior":
        return gig._boundary_draws(lam, chi, psi, rng, n)
    thin = 0.0 < abs(lam) < 1.0 and gig._log_kept(lam, chi, psi, True) > gig._log_kept(lam, chi, psi, False)
    if gig._log_acceptance(lam, chi, psi, thin) < math.log(gig._ACCEPTANCE_FLOOR):
        raise NumericError("refused")
    if not thin:
        m, _, v_lo, v_hi = gig._rou_envelope(lam, chi, psi)
        _, _, s_hi, s_lo = gig._log_norm(lam, chi, psi)
        lh_m = gig._log_h_centred(m, lam, chi, psi, s_hi, s_lo)
    out = np.empty(n, dtype=float)
    got = 0
    while got < n:
        k = max(1024, int(1.8 * (n - got)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if thin:
                w = gig._boundary_draws(lam, chi, psi, rng, k)
                ok = np.log(rng.uniform(0.0, 1.0, size=k)) < (-0.5 * chi / w if lam > 0 else -0.5 * psi * w)
            else:
                u = rng.uniform(0.0, 1.0, size=k)
                v = rng.uniform(v_lo, v_hi, size=k)
                w = m + v / u
                ok = (u > 0.0) & (w > 0.0) & np.isfinite(w)
                wv = np.where(ok, w, 1.0)
                ok &= 2.0 * np.log(u) <= gig._log_h_centred(wv, lam, chi, psi, s_hi, s_lo) - lh_m
        acc = w[ok]
        take = min(n - got, acc.size)
        out[got:got + take] = acc[:take]
        got += take
    return out


def reference_gh_sample(params, rng, n):
    _, chi, psi = gh_mixing(params)
    w = reference_gig_sample(params.lam, chi, psi, rng, n)
    z = rng.standard_normal(n)
    return params.mu + params.beta * w + np.sqrt(w) * z


# every GH and GIG law of test_distributions.py, and the laws that thin
BIT_LAWS = [t for t in SAMPLER_CASES if t.startswith(("gh(", "gig("))] + [
    f"gig(lambda={lam!r},chi={chi!r},psi={psi!r})" for lam, chi, psi in THINNING_TRIPLES]


@pytest.mark.parametrize("triple", [(-0.5, 1.3, 2.7), (0.3, 0.2, 0.1)], ids=["rou", "thinning"])
def test_rejection_tests_the_rest_of_a_batch_when_the_lead_falls_short(triple):
    # told that every candidate is kept, the loop tests too few leading
    # candidates of each batch (about 0.7 of them are kept) and must test
    # the rest to give the per-call sampler's draws and generator state
    candidates, kept, share = gig._sampler(*triple).args
    assert share < 0.9
    for n in (1, 1025, 4000):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        got = gig._rejection(candidates, kept, 1.0, rng, n)
        assert got.tobytes() == reference_gig_sample(*triple, ref, n).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("text", BIT_LAWS)
def test_resolved_sampler_is_the_per_call_sampler_bit_for_bit(text):
    # the same draws and the same generator state afterwards, at sizes on
    # either side of the 1024-candidate batch and over several batches
    d = parse_distribution_spec(text)
    p = [v for _, v in d.params]
    if d.family == "gh":
        params = GhParams(*p)
        sample, reference = partial(gh_sample, params), partial(reference_gh_sample, params)
    else:
        sample, reference = partial(gig_sample, *p), partial(reference_gig_sample, *p)
    for n in (1, 1023, 1024, 1025, 4000, 10007):
        for seed in (0, 1, 2):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sample(rng, n).tobytes() == reference(ref, n).tobytes(), (n, seed)
            assert rng.bit_generator.state == ref.bit_generator.state, (n, seed)


@pytest.mark.parametrize("triple, thin", ACCEPTANCE_CASES)
def test_acceptance_matches_the_share_of_candidates_kept(triple, thin):
    # the expected acceptance, from the norming constant, against the share
    # of 400000 candidates that the sampler's own test keeps
    lam, chi, psi = triple
    assert oracle_thinning_wins(*triple) == thin
    rng = np.random.default_rng(12)
    k = 400_000
    if thin:
        w = gig._boundary_draws(lam, chi, psi, rng, k)
        with np.errstate(divide="ignore"):  # Gamma(0.01) draws underflow to 0
            kept = np.exp(-0.5 * chi / w if lam > 0 else -0.5 * psi * w)
    else:
        m, _, v_lo, v_hi = gig._rou_envelope(*triple)
        u = rng.uniform(0.0, 1.0, size=k)
        w = m + rng.uniform(v_lo, v_hi, size=k) / u
        ok = w > 0.0
        kept = np.zeros(k)
        kept[ok] = 2.0 * np.log(u[ok]) <= uncentred_log_h(w[ok], lam, chi, psi) - uncentred_log_h(m, lam, chi, psi)
    se = kept.std() / math.sqrt(k)
    assert math.exp(gig._log_acceptance(lam, chi, psi, thin)) == pytest.approx(kept.mean(), abs=5.0 * se)


def test_sampler_figures_are_defined_where_the_norming_constant_overflows():
    # K_0.99(omega) overflows at omega = sqrt(1e-300 * 1e-321), so int h
    # does, and with it each whole acceptance; the terms that choose the
    # sampler leave it out
    assert gig._log_norm(0.99, 1e-300, 1e-321)[1] == -math.inf
    assert gig._log_acceptance(0.99, 1e-300, 1e-321, True) == math.inf
    assert math.isfinite(gig._log_kept(0.99, 1e-300, 1e-321, True))


def choice_sweep():
    """The seven triples above, then 200 seeded ones: lambda = 0, 0 < |lambda|
    < 1 and 1 <= |lambda| <= 3 in turn, chi psi from 1e-300 up to 1e23."""
    triples = THINNING_TRIPLES + [t for t, _ in ACCEPTANCE_CASES]
    rng = np.random.default_rng(2310)
    for i in range(200):
        lam = [0.0, rng.uniform(-1.0, 1.0), rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0)][i % 3]
        log_prod = -300.0 + 323.0 * i / 199
        tilt = rng.uniform(-8.0, 8.0)
        triples.append((float(lam), 10.0 ** (0.5 * log_prod + tilt), 10.0 ** (0.5 * log_prod - tilt)))
    return triples


def test_sampler_that_runs_is_the_oracle_s_choice(monkeypatch):
    # only thinning draws boundary-law candidates, so counting the calls of
    # _boundary_draws on an interior law shows which sampler ran
    calls = []
    boundary_draws = gig._boundary_draws
    monkeypatch.setattr(gig, "_boundary_draws", lambda *a: calls.append(a) or boundary_draws(*a))
    ran = {True: 0, False: 0, "refused": 0}
    for i, (lam, chi, psi) in enumerate(choice_sweep()):
        calls.clear()
        if gig._rou_envelope(lam, chi, psi) is None:
            # the oracle needs the box; test_law_whose_box_cannot_be_solved_draws_or_is_refused
            # takes these laws
            continue
        thin = oracle_thinning_wins(lam, chi, psi)
        try:
            w = gig_sample(lam, chi, psi, np.random.default_rng(i), 20)
        except NumericError as exc:
            assert not calls and ("thinning" if thin else "ratio-of-uniforms") in str(exc), (lam, chi, psi)
            ran["refused"] += 1
        else:
            assert w.shape == (20,) and bool(calls) == thin, (lam, chi, psi)
            ran[thin] += 1
    # both samplers ran, and some laws were refused
    assert min(ran.values()) >= 5, ran


def test_law_whose_box_cannot_be_solved_draws_or_is_refused(monkeypatch):
    # the ROU box of these laws cannot be solved: brentq does not converge
    # (lambda < -1, small chi psi), or the mode leaves the double range.
    # The box keeps nothing, so a law thins where that passes the floor
    # and is refused otherwise. The three named laws raised
    # ZeroDivisionError (from chi / w^2, which g no longer forms: the box
    # now solves and thinning still wins), RuntimeError and an overflow
    # RuntimeWarning; the last one's box solves with its warnings silenced
    calls = []
    boundary_draws = gig._boundary_draws
    monkeypatch.setattr(gig, "_boundary_draws", lambda *a: calls.append(a) or boundary_draws(*a))
    named = [(0.97, 1e-300, 1e-20), (-1.2, 1e-40, 1e-80), (0.0, 5.85e-147, 1.71e-154)]
    ran = {"drew": 0, "refused": 0}
    for i, (lam, chi, psi) in enumerate(named + choice_sweep()):
        box = gig._rou_envelope(lam, chi, psi)
        if i >= len(named) and box is not None:
            continue
        calls.clear()
        try:
            w = gig_sample(lam, chi, psi, np.random.default_rng(i), 20)
        except NumericError as exc:
            assert box is not None or "box could not be solved" in str(exc), (lam, chi, psi)
            ran["refused"] += 1
        else:
            assert w.shape == (20,) and np.all(w > 0.0) and (box is not None or calls), (lam, chi, psi)
            ran["drew"] += 1
    assert min(ran.values()) >= 1, ran


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_sampler_below_the_acceptance_floor_is_refused_at_once():
    # GIG(0, 1e-20, 6400), the mixing law of gh(0, 80, 0, 1e-10, 0), has
    # no boundary law to thin, and its ROU box keeps 2e-7 of the
    # candidates: 4000 draws took about 2e10 of them
    assert math.exp(gig._log_acceptance(0.0, 1e-20, 6400.0, False)) == pytest.approx(2.0e-7, rel=0.05)

    def expired(signum, frame):
        raise TimeoutError("still sampling after 5 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(5)
    try:
        with pytest.raises(NumericError, match=r"GIG\(lambda=0, chi=1e-20, psi=6400\)"):
            gig_sample(0.0, 1e-20, 6400.0, np.random.default_rng(0), 4000)
        with pytest.raises(NumericError, match="ratio-of-uniforms"):
            gh_sample(GhParams(0.0, 80.0, 0.0, 1e-10, 0.0), np.random.default_rng(0), 4000)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # above the floor, the same class of law still samples
    w = gig_sample(0.0, 1e-3, 1e-3, np.random.default_rng(0), 2000)
    assert w.shape == (2000,) and (w > 0).all()
