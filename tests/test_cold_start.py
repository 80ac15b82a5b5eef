"""Cold start: ``import meanex`` and the sample-only commands load no
scipy and none of ``urllib.request``, ``http.client`` and ``email``, and
the lazily exported names resolve to the defining modules.

The checks run in a fresh interpreter, because the test process has
scipy loaded already (pytest's IntegrationWarning filter imports
``scipy.integrate``).
"""

import json
import os
import subprocess
import sys

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "synthetic_ohlcv.csv")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the names ``from meanex import *`` binds; each module that defines an
# exported name is itself an exported name
STAR_NAMES = {
    "Band", "BandConstants", "DistributionSpec", "DomainError", "ExperimentReport", "GhParams",
    "GpdParams", "Grid", "InputError", "MeanexError", "MefCurve", "NumericError", "OhlcvRecord",
    "OlsFit", "PlotSpec", "PriceSeries", "Sample", "StallionCurve", "asymptotic_variance",
    "band_constants", "band_csv", "band_series", "bessel", "bessel_k", "bessel_k_scaled",
    "classify_tail", "compare_csv", "consistency_band", "convergence_experiment",
    "coverage_experiment", "curve_csv", "default_grid", "dist_isf", "dist_mean", "dist_mean_abs",
    "dist_ppf", "dist_support", "distributions", "empirical_mef", "empirical_mef_curve", "errors",
    "experiment_csv", "fdelta_check", "fit_csv", "fit_gpd_curve", "format_distribution_spec",
    "fourth_moment_identity", "fourth_moment_oracle", "gh", "gh_mean", "gh_norming", "gh_pdf",
    "gh_sample", "gh_validate", "gh_variance", "gig", "gig_moment", "gig_pdf", "gig_sample",
    "gig_validate", "gpd_from_ols", "gpd_mef", "gpdfit", "h_u_values", "line_series",
    "log_returns", "make_curve", "make_grid", "make_sample", "make_spec", "mef", "montecarlo",
    "monthly_last", "ohlcv", "ohlcv_csv", "ols_fit", "parse_distribution_spec", "parse_ohlcv_csv",
    "returns", "serialize", "stallion", "std_cdf", "std_pdf", "std_sample", "std_survival",
    "sup_deviation", "svg_plot", "svgplot", "theoretical_mef", "theoretical_mef_curve", "types",
    "write_text",
}

SCRIPT = r"""
import contextlib, io, json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def web_modules():
    return sorted(m for m in sys.modules if m in ("urllib.request", "http.client") or m.split(".")[0] == "email")

fixture, out = sys.argv[1], sys.argv[2]
report = {}
import meanex
report["after_import"] = scipy_modules()
report["web_after_import"] = web_modules()

from meanex import cli
returns = os.path.join(out, "returns.txt")
runs = [
    ["ingest", fixture, "--log-returns", "--csv", returns],
    ["emef", returns, "--csv", os.path.join(out, "emef.csv"), "--svg", os.path.join(out, "emef.svg")],
    ["band", returns, "--u0", "-0.02", "--u1", "0",
     "--csv", os.path.join(out, "band.csv"), "--svg", os.path.join(out, "band.svg")],
    ["fit-gpd", returns, "--csv", os.path.join(out, "fit.csv")],
]
with contextlib.redirect_stdout(io.StringIO()):
    report["codes"] = [cli.main(argv) for argv in runs]
import numpy as np
sample = meanex.make_sample(-np.log1p(-(np.arange(4000) + 0.5) / 4000))  # exp(1) quantiles
meanex.consistency_band(sample, meanex.make_grid([0.0, 0.5, 1.0]), meanex.band_constants(0.0, 1.0))
meanex.asymptotic_variance(sample, 1.0)
report["after_sample_work"] = scipy_modules()
report["web_after_sample_work"] = web_modules()

stallion = ["stallion", "--dist", "exponential(lambda=1)", "--reps", "3", "--size", "50",
            "--grid", "5", "--csv", os.path.join(out, "stallion.csv")]
report["stallion_code"] = cli.main(stallion)
report["after_stallion"] = scipy_modules()

lazy = {}
for name, home in meanex._LAZY.items():
    module = sys.modules["meanex." + home]
    value = getattr(meanex, name)
    lazy[name] = [value is (module if name == home else getattr(module, name)), name in dir(meanex)]
report["lazy"] = lazy
print(json.dumps(report))
"""


def run_fresh(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, FIXTURE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_sample_only_work_loads_no_scipy_and_a_law_loads_it(tmp_path):
    report = run_fresh(tmp_path)
    assert report["after_import"] == []
    assert report["codes"] == [0, 0, 0, 0]
    assert report["after_sample_work"] == []
    assert report["web_after_import"] == report["web_after_sample_work"] == []
    assert report["stallion_code"] == 0
    assert "scipy.stats" in report["after_stallion"]
    assert (tmp_path / "stallion.csv").read_text(encoding="utf-8").startswith("u,e\n")
    assert len(report["lazy"]) == 31
    assert {name: ok for name, ok in report["lazy"].items() if ok != [True, True]} == {}


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from meanex import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR_NAMES
    import meanex

    assert set(meanex.__all__) == STAR_NAMES
    assert STAR_NAMES <= set(dir(meanex))
