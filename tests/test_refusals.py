"""Argument refusals of the public API, one row each: the error class and
the whole message. These are the checks that no computing test reaches."""

import math

import numpy as np
import pytest

from meanex import (
    DomainError,
    GhParams,
    InputError,
    MefCurve,
    band_constants,
    consistency_band,
    convergence_experiment,
    coverage_experiment,
    default_grid,
    fdelta_check,
    fourth_moment_identity,
    fourth_moment_oracle,
    gh_norming,
    make_grid,
    make_sample,
    ols_fit,
    parse_distribution_spec,
    stallion,
)
from meanex.cli import main

NORMAL = parse_distribution_spec("normal(mu=0,sigma=1)")
EXP = parse_distribution_spec("exponential(lambda=1)")
SAMPLE = make_sample(np.arange(1.0, 101.0))


REFUSALS = [
    # fdelta_check: its deltas, its window and the support's right end
    ("fdelta-no-delta", lambda: fdelta_check(NORMAL, -1.0, 1.0, []),
     DomainError, "deltas must be positive"),
    ("fdelta-delta-0", lambda: fdelta_check(NORMAL, -1.0, 1.0, [0.1, 0.0]),
     DomainError, "deltas must be positive"),
    ("fdelta-deltas-rise", lambda: fdelta_check(NORMAL, -1.0, 1.0, [0.01, 0.1]),
     DomainError, "deltas must be strictly decreasing"),
    ("fdelta-empty-window", lambda: fdelta_check(NORMAL, 1.0, 1.0, [0.1]),
     DomainError, "fdelta_check requires u0 < u1"),
    ("fdelta-past-support", lambda: fdelta_check(parse_distribution_spec("beta(a=2,b=2)"), 0.1, 1.0, [0.1]),
     DomainError, "fdelta_check requires u1 below the right endpoint of the support"),
    # default_grid
    ("grid-policy", lambda: default_grid(SAMPLE, "quantiles"),
     DomainError, "unknown grid policy 'quantiles'"),
    ("grid-no-point", lambda: default_grid(SAMPLE, 0),
     DomainError, "linspace grid needs at least one point"),
    # 99 ties at the minimum: the 0.98 quantile is the minimum
    ("grid-trimmed-empty", lambda: default_grid(make_sample([0.0] * 99 + [1.0]), 10),
     DomainError, "degenerate sample: trimmed range is empty"),
    ("band-mean-abs", lambda: consistency_band(SAMPLE, make_grid([10.0, 20.0]), band_constants(0.0, 50.0),
                                               survival_u1=0.5, mean_abs=-1.0),
     DomainError, "mean_abs must be nonnegative"),
    # Monte Carlo protocols
    ("coverage-no-rep", lambda: coverage_experiment(EXP, 0.1, 1.0, band_constants(0.1, 1.0), 10, 0, 0),
     InputError, "coverage requires n_reps >= 1 and sample_size >= 1"),
    *[(f"coverage-eps-{eps}",
       lambda eps=eps: coverage_experiment(EXP, 0.1, 1.0, band_constants(0.1, 1.0), 10, 3, 0, eps=eps),
       InputError, "eps must lie in [0, 1)") for eps in (-0.01, 1.0, 2.0, math.nan)],
    ("stallion-no-rep", lambda: stallion(EXP, 0, 10, make_grid([0.5]), 0),
     InputError, "stallion requires n_reps >= 1 and sample_size >= 1"),
    ("convergence-size-1", lambda: convergence_experiment(EXP, 1.0, [1, 10], 2, 0),
     InputError, "convergence requires sizes of at least 2 observations"),
    ("convergence-no-size", lambda: convergence_experiment(EXP, 1.0, [], 2, 0),
     InputError, "convergence requires sizes of at least 2 observations"),
    ("convergence-window", lambda: convergence_experiment(EXP, 0.5, [10], 2, 0, u0=0.5),
     InputError, "convergence window is empty"),
    # value types
    ("sample-2d", lambda: make_sample([[1.0, 2.0], [3.0, 4.0]]),
     InputError, "sample must be one-dimensional"),
    ("sample-empty", lambda: make_sample([]),
     InputError, "sample must contain at least one observation"),
    ("grid-empty", lambda: make_grid([]),
     InputError, "grid must contain at least one point"),
    ("grid-inf", lambda: make_grid([0.0, math.inf]),
     InputError, "grid points must be finite"),
    ("grid-nan", lambda: make_grid([math.nan, 0.0]),
     InputError, "grid points must be finite"),
    ("curve-length", lambda: MefCurve(grid=make_grid([1.0, 2.0]), values=np.array([1.0])),
     InputError, "curve values must match grid length"),
    ("ols-shapes", lambda: ols_fit([1.0, 2.0, 3.0], [1.0, 2.0]),
     DomainError, "ols_fit needs two equal-length vectors"),
    ("spec-empty-token", lambda: parse_distribution_spec("gpd(xi=1,,beta=1)"),
     InputError, "empty parameter token in 'gpd(xi=1,,beta=1)'"),
    # the Cauchy limit class (alpha = 0, lambda = -1/2) has no interior norming constant
    ("gh-norming-limit", lambda: gh_norming(GhParams(lam=-0.5, alpha=0.0, beta=0.0, delta=1.0, mu=0.0)),
     DomainError, "use limiting form: parameters classify as 'cauchy'"),
    ("fourth-moment-zero-variance", lambda: fourth_moment_identity(0, 1, 2),
     DomainError, "inconsistent moments: zero variance forces zero fourth moment"),
    ("fourth-moment-no-support", lambda: fourth_moment_oracle([], 2),
     DomainError, "support must be nonempty"),
]


@pytest.mark.parametrize("call, cls, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refusal(call, cls, message):
    with pytest.raises(cls) as err:
        call()
    assert type(err.value) is cls
    assert str(err.value) == message


def test_coverage_eps_outside_unit_interval_exit_2(capsys):
    argv = ["coverage", "--dist", "exponential(lambda=1)", "--u0", "0.1", "--u1", "1", "--reps", "3", "--size", "10"]
    assert main(argv + ["--eps", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: eps must lie in [0, 1)\n"
    assert captured.out == ""
