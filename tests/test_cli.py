"""Integration tests for the command-line interface: exit codes, CSV
bytes, SVG structure, and flag validation."""

import argparse
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from meanex import InputError, cli, dist_isf, dist_ppf, parse_distribution_spec, parse_ohlcv_csv, std_pdf, std_sample
from meanex.cli import build_parser, main
from meanex.serialize import fmt, table

FIXTURE = "tests/data/synthetic_ohlcv.csv"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def sample3(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text("1\n2\n3\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def gpd_sample(tmp_path):
    rng = np.random.default_rng(2)
    # inverse-CDF draws from GPD(0.25, 1)
    u = rng.uniform(size=3000)
    x = (np.power(u, -0.25) - 1.0) / 0.25
    path = tmp_path / "gpd.txt"
    path.write_text("\n".join("%.17g" % v for v in x) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# emef


def test_emef_matches_library_example(sample3, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["emef", sample3, "--csv", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "u,e\n1,1.5\n2,1\n"


def test_emef_stdout_default(sample3, capsys):
    assert main(["emef", sample3]) == 0
    assert capsys.readouterr().out == "u,e\n1,1.5\n2,1\n"


def test_emef_missing_file_exit_2(tmp_path, capsys):
    assert main(["emef", str(tmp_path / "absent.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_emef_svg_structure(sample3, tmp_path):
    out = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    assert main(["emef", sample3, "--csv", str(out), "--svg", str(svg_path)]) == 0
    svg = svg_path.read_text(encoding="utf-8")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.count("<path") == 1


def test_emef_numeric_grid_flag(sample3, capsys):
    assert main(["emef", sample3, "--grid", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "u,e"
    assert len(lines) == 4


def test_emef_order_stats_grid_is_the_default(sample3, capsys):
    assert main(["emef", sample3, "--grid", "order-stats"]) == 0
    assert capsys.readouterr().out == "u,e\n1,1.5\n2,1\n"


@pytest.mark.parametrize(
    "grid,message",
    [("abc", "--grid expects an integer or 'order-stats', got 'abc'"), ("0", "--grid size must be positive")],
)
def test_emef_bad_grid_exit_2(grid, message, sample3, capsys):
    assert main(["emef", sample3, "--grid", grid]) == 2
    assert message in capsys.readouterr().err


def test_emef_degenerate_sample_exit_3(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("5\n5\n5\n", encoding="utf-8")
    assert main(["emef", str(path)]) == 3
    assert "degenerate" in capsys.readouterr().err


@pytest.mark.parametrize("values", [
    "-9e307 0 9e307 9e307",  # the sums of v - c about the middle value overflow
    "-1e308 1e308 1.1e308",  # so do the neighbour differences of its grid
    "-1.7e308 0 0 1.7e308",  # the sums fit, but e(-1.7e308) = 2.27e308 does not
])
def test_emef_sample_summing_past_the_double_range_exit_3(values, tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text(values.replace(" ", "\n") + "\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["emef", str(path)]) == 3
    assert caught == []
    assert "past the double range" in capsys.readouterr().err


def test_emef_sample_spanning_the_double_range_whose_sums_fit(tmp_path, capsys):
    # v - c stays finite about the middle value 0, and so do its sums
    path = tmp_path / "wide.txt"
    path.write_text("-1e308\n0\n0\n1e308\n", encoding="utf-8")
    assert main(["emef", str(path)]) == 0
    assert capsys.readouterr().out == "u,e\n-1e+308,1.33333333333e+308\n0,1e+308\n"


# ---------------------------------------------------------------------------
# sample files


@pytest.mark.parametrize(
    "text",
    [
        "1\n2\n3\n",
        "value\n1\n2\n3\n",  # header line
        "\n1\n\n  \n2\n3\n\n",  # blank lines
        "1,9\n 2 , x\n3,\n",  # second column ignored
        "x,y\n1,a\r\n2,b\n,\n3,c",  # header, CRLF, empty first field, no final newline
        "1,\x0c2\n3\n",  # a form feed starts a line (not for loadtxt on a file handle)
        "1\u20282\r3",  # line separator, lone CR
        "x\n1_0e-1\n\u0662\n3\n",  # tokens only float() reads
        "\ufeff1\n2\n3\n",  # a byte-order mark is not part of the first value
        "\ufeffvalue\n1\n2\n3\n",  # nor of the header
        "\ufeff\ufeff0\n1\n2\n3\n",  # a second mark is data: its line is a header
    ],
    ids=["plain", "header", "blank_lines", "second_column", "mixed", "form_feed", "line_separators", "float_only",
         "byte_order_mark", "byte_order_mark_header", "two_byte_order_marks"],
)
def test_sample_file_reads_first_column(tmp_path, capsys, text):
    path = tmp_path / "s.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert main(["emef", str(path)]) == 0
    assert capsys.readouterr().out == "u,e\n1,1.5\n2,1\n"


@pytest.mark.parametrize(
    "text, k",
    [("1\n2\nabc\n4\n", 3), ("value\n1\n\n2\n1e\n", 5), ("1\nvalue\n2\n", 2), ("\nvalue\n1\n", 2)],
)
def test_sample_file_bad_value_names_line(tmp_path, capsys, text, k):
    path = tmp_path / "s.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["emef", str(path)]) == 2
    bad = text.splitlines()[k - 1]
    assert capsys.readouterr().err == f"error: {path}: line {k} is not a number: {bad!r}\n"


def test_sample_file_without_numbers_exit_2(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("value\n\n", encoding="utf-8")
    assert main(["emef", str(path)]) == 2
    assert "no numeric values" in capsys.readouterr().err


def test_sample_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_bytes(b"1\n2\xff\n3\n")
    assert main(["emef", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"


# ---------------------------------------------------------------------------
# band


def test_band_requires_window(sample3, capsys):
    assert main(["band", sample3]) == 2


def test_band_csv_shape(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "exp.txt"
    path.write_text("\n".join("%.17g" % v for v in rng.exponential(1.0, 4000)), encoding="utf-8")
    out = tmp_path / "band.csv"
    code = main(["band", str(path), "--u0", "0", "--u1", "1", "--grid", "21", "--csv", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "u,e,lower,upper"
    assert len(lines) == 22


def test_band_window_without_order_statistic_exit_2(sample3, capsys):
    assert main(["band", sample3, "--u0", "1.2", "--u1", "1.8"]) == 2
    assert "no grid points inside [u0, u1]" in capsys.readouterr().err


def test_band_too_small_sample_exit_3(sample3, capsys):
    assert main(["band", sample3, "--u0", "1", "--u1", "2"]) == 3
    assert "band undefined" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stallion / coverage


def test_stallion_curve_output(tmp_path):
    out = tmp_path / "st.csv"
    code = main(
        [
            "stallion",
            "--dist",
            "exponential(lambda=2)",
            "--reps",
            "10",
            "--size",
            "400",
            "--seed",
            "3",
            "--u0",
            "0.1",
            "--u1",
            "1.0",
            "--csv",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "u,e"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(abs(v - 0.5) < 0.2 for v in vals)


def test_stallion_byte_identical_across_runs(tmp_path):
    args = [
        "stallion",
        "--dist",
        "exponential(lambda=2)",
        "--reps",
        "5",
        "--size",
        "200",
        "--seed",
        "7",
        "--u0",
        "0.1",
        "--u1",
        "1.0",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stallion_bad_dist_exit_2(capsys):
    assert main(["stallion", "--dist", "zeta(s=2)", "--reps", "2", "--size", "50"]) == 2


def test_coverage_report_output(tmp_path):
    out = tmp_path / "cov.csv"
    code = main(
        [
            "coverage",
            "--dist",
            "exponential(lambda=1)",
            "--u0",
            "0",
            "--u1",
            "1",
            "--reps",
            "20",
            "--size",
            "1500",
            "--seed",
            "5",
            "--csv",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0].startswith("# name=coverage,seed=5,reps=20")
    assert lines[1] == "metric,value"
    assert any(line.startswith("coverage,") for line in lines)
    assert any(line.startswith("eps,0.05") for line in lines)


def test_coverage_guard_exit_3(capsys):
    code = main(
        [
            "coverage",
            "--dist",
            "exponential(lambda=1)",
            "--u0",
            "0",
            "--u1",
            "1",
            "--reps",
            "5",
            "--size",
            "25",
        ]
    )
    assert code == 3


# ---------------------------------------------------------------------------
# fit-gpd


def test_fit_gpd_prints_estimates(gpd_sample, capsys):
    assert main(["fit-gpd", gpd_sample]) == 0
    out = capsys.readouterr().out
    fields = dict(
        line.split(" = ") for line in out.strip().split("\n") if " = " in line
    )
    assert abs(float(fields["xi_hat"]) - 0.25) < 0.15
    assert abs(float(fields["beta_hat"]) - 1.0) < 0.3
    assert fields["tail"] == "heavy"


def test_fit_gpd_csv_output(gpd_sample, tmp_path):
    out = tmp_path / "fit.csv"
    assert main(["fit-gpd", gpd_sample, "--csv", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "xi_hat,beta_hat,a_hat,b_hat,r2"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# fdelta


def test_fdelta_csv(capsys):
    code = main(["fdelta", "--dist", "exponential(lambda=2)", "--u0", "0", "--u1", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "delta,statistic"
    rows = [line.split(",") for line in lines[1:]]
    deltas = [float(r[0]) for r in rows]
    stats = [float(r[1]) for r in rows]
    assert deltas == [0.1, 0.01, 0.001]
    assert stats[0] > stats[1] > stats[2]
    for d, s in zip(deltas, stats):
        assert s <= 4.0 * d


# ---------------------------------------------------------------------------
# gh-pdf / gh-sample


def test_gh_pdf_table(tmp_path):
    out = tmp_path / "pdf.csv"
    spec = "gh(lambda=-0.5,alpha=8.03,beta=-1.37,delta=0.051,mu=0.0105)"
    code = main(["gh-pdf", "--dist", spec, "--csv", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "x,pdf"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(vals) == 401
    assert all(v >= 0 for v in vals)
    # the table takes the density of the whole grid at once; one call per point is the reference
    d = parse_distribution_spec(spec)
    x = np.linspace(dist_ppf(d, 0.001), dist_isf(d, 0.001), 401)
    assert lines[1:] == [f"{fmt(xi)},{fmt(std_pdf(d, xi))}" for xi in x]


def test_gh_pdf_invalid_params_exit_3(capsys):
    code = main(["gh-pdf", "--dist", "gh(lambda=2,alpha=1,beta=2,delta=1,mu=0)"])
    assert code == 3


def test_gh_sample_deterministic(tmp_path):
    args = [
        "gh-sample",
        "--dist",
        "gh(lambda=1,alpha=1.5,beta=-0.5,delta=0.75,mu=0.2)",
        "--size",
        "50",
        "--seed",
        "9",
    ]
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text(encoding="utf-8").strip().split("\n")) == 50


def test_gh_sample_draws_replicate_zero_of_the_seed(tmp_path):
    out = tmp_path / "draws.txt"
    assert main(["gh-sample", "--dist", "exponential(lambda=1)", "--size", "5", "--seed", "7", "--csv", str(out)]) == 0
    rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(0,)))
    expected = std_sample(parse_distribution_spec("exponential(lambda=1)"), rng, 5)
    assert out.read_text(encoding="utf-8") == table(None, expected)


@pytest.mark.parametrize("command", [
    ["gh-sample", "--dist", "exponential(lambda=1)", "--size", "3"],
    ["stallion", "--dist", "exponential(lambda=1)", "--reps", "3", "--size", "10"],
    ["coverage", "--dist", "exponential(lambda=1)", "--u0", "0.1", "--u1", "1", "--reps", "3", "--size", "50"],
], ids=["gh-sample", "stallion", "coverage"])
def test_negative_seed_exit_2(command, capsys):
    assert main(command + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a non-negative integer\n"
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["exponential(lambda=1e-320)", "weibull(beta=1e-320,tau=1)"])
def test_gh_sample_law_whose_scale_overflows_exit_3(spec, capsys):
    assert main(["gh-sample", "--dist", spec, "--size", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.err.endswith(": the law's scale overflows\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["gh-sample", "--size", "3"],
    ["gh-pdf"],
    ["compare", "--data", FIXTURE, "--log-returns"],
])
def test_law_whose_scale_underflows_exit_3(command, capsys):
    # beta^(-1/tau) = 1e300^-100 rounds to 0, a law with all its mass at 0: each command refuses it
    # before it draws zeros, finds an empty window or writes e_model = 0
    spec = "weibull(beta=1e300,tau=0.01)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(command + ["--dist", spec]) == 3
    captured = capsys.readouterr()
    assert captured.err.endswith("weibull(beta=1e+300,tau=0.01): the law's scale underflows to 0\n")
    assert captured.out == ""


def test_law_whose_density_overflows_exit_3(capsys):
    # scale e^-740 = 4.2e-322: gh-pdf printed three inf densities, or under warnings as errors ended
    # in scipy's "overflow encountered in divide"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gh-pdf", "--dist", "lognormal(mu=-740,sigma=1)", "--grid", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.err.endswith("lognormal(mu=-740,sigma=1): the law's density is not finite at its centre "
                                 "(scale 4.2e-322)\n")
    assert captured.out == ""


def test_gh_law_whose_density_is_out_of_range_still_draws(capsys):
    # the frame resolves a GH density on its first call: this law's norming constant leaves the
    # double range, which its draws never need
    spec = "gh(lambda=-200,alpha=1,beta=0,delta=1e-3,mu=0)"
    assert main(["gh-sample", "--dist", spec, "--size", "3"]) == 0
    draws = [float(v) for v in capsys.readouterr().out.split()]
    assert len(draws) == 3 and all(np.isfinite(draws))
    assert main(["gh-pdf", "--dist", spec, "--u0", "-1", "--u1", "1", "--grid", "3"]) == 3
    assert "norming constant" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--reps", "5"], ["--full"]])
def test_gh_sample_refuses_replicate_options(flag, capsys):
    # gh-sample draws one sample: --reps and --full are stallion's and coverage's
    with pytest.raises(SystemExit) as err:
        main(["gh-sample", "--dist", "exponential(lambda=1)", "--size", "2"] + flag)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# ingest / compare


def test_ingest_log_returns(tmp_path):
    out = tmp_path / "lr.txt"
    assert main(["ingest", FIXTURE, "--log-returns", "--csv", str(out)]) == 0
    vals = [float(v) for v in out.read_text(encoding="utf-8").strip().split("\n")]
    assert len(vals) == 499


def test_ingest_reads_crlf_file_as_lf(tmp_path):
    text = open(FIXTURE, encoding="utf-8").read()
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    outs = []
    for data in (FIXTURE, str(crlf)):
        out = tmp_path / f"lr{len(outs)}.txt"
        assert main(["ingest", data, "--log-returns", "--csv", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_ingest_reads_file_with_byte_order_mark(tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + open(FIXTURE, "rb").read())
    outs = []
    for data in (FIXTURE, str(bom)):
        out = tmp_path / f"lr{len(outs)}.txt"
        assert main(["ingest", data, "--log-returns", "--csv", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", [["ingest"], ["compare", "--dist", "normal(mu=0,sigma=0.02)", "--data"]])
def test_ohlcv_file_behind_two_byte_order_marks_exit_2(tmp_path, capsys, command):
    # parse_ohlcv_csv drops one mark, and the command line drops none of its own
    path = tmp_path / "two-marks.csv"
    path.write_bytes(b"\xef\xbb\xbf" * 2 + open(FIXTURE, "rb").read())
    with pytest.raises(InputError, match="bad header") as raised:
        parse_ohlcv_csv(path.read_text(encoding="utf-8"))
    assert main([*command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {raised.value}\n"


def test_ingest_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(open(FIXTURE, "rb").read() + b"2030-01-02,10,11,9,10\xff,90\n")
    assert main(["ingest", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text\n"


def test_ingest_field_over_csv_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("date,open,high,low,close,volume\n2024-01-31,10,11,9,10," + "9" * 140_000 + "\n",
                    encoding="utf-8")
    assert main(["ingest", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: malformed CSV: field larger than field limit (131072)\n"


def test_ingest_flag_conflict_exit_2(capsys):
    assert main(["ingest", FIXTURE, "--log-returns", "--kind", "simple"]) == 2


def test_ingest_kind_simple(tmp_path):
    out = tmp_path / "r.txt"
    assert main(["ingest", FIXTURE, "--kind", "simple", "--csv", str(out)]) == 0
    vals = np.array([float(v) for v in out.read_text(encoding="utf-8").strip().split("\n")])
    assert np.all(np.abs(vals) < 0.5)


def test_compare_prints_sup_deviation(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main(
        [
            "compare",
            "--data",
            FIXTURE,
            "--field",
            "close",
            "--log-returns",
            "--dist",
            "normal(mu=0,sigma=0.02)",
            "--csv",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "sup_deviation = " in printed
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "u,e_data,e_model"


def test_compare_pareto_without_finite_mean_exit_3(capsys):
    code = main(["compare", "--data", FIXTURE, "--log-returns", "--dist", "pareto(alpha=1,lambda=1)"])
    assert code == 3
    assert "pareto has no finite mean at these parameters" in capsys.readouterr().err


def test_compare_byte_identical_runs(tmp_path):
    args = [
        "compare",
        "--data",
        FIXTURE,
        "--field",
        "close",
        "--log-returns",
        "--dist",
        "normal(mu=0,sigma=0.02)",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--csv", str(a)]) == 0
    assert main(args + ["--csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# output streams


@pytest.mark.parametrize("command,flag", [("emef", "--csv"), ("emef", "--svg"), ("fit-gpd", "--csv")])
def test_unwritable_output_path_exit_2(command, flag, gpd_sample, tmp_path, capsys):
    bad = str(tmp_path / "no" / "such" / "dir" / "out")
    argv = [command, gpd_sample, flag, bad]
    if flag == "--svg":
        argv += ["--csv", str(tmp_path / "ok.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ") and "No such file or directory" in err


def _gpd_file(path, n, seed):
    u = np.random.default_rng(seed).random(n)
    path.write_text("\n".join(map(repr, ((u ** -0.25 - 1.0) / 0.25).tolist())) + "\n", encoding="utf-8")
    return str(path)


def test_reader_closing_stdout_early_exits_0(tmp_path):
    # 20000 rows are several blocks and far more than a pipe holds, so a
    # write after the reader has gone meets a closed pipe
    sample = _gpd_file(tmp_path / "gpd.txt", 20_000, 1)
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, "-m", "meanex.cli", "emef", sample],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"u,e\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_band_csv_write_stage_memory_is_bounded(tmp_path, monkeypatch):
    # written a block at a time, the CSV of a 2e5-value band needs about
    # 1 MB; formatted whole before its first byte, it needs about 45 MB
    sample = _gpd_file(tmp_path / "gpd.txt", 200_000, 3)
    band = cli.consistency_band

    def computed(*args, **kwargs):
        result = band(*args, **kwargs)
        tracemalloc.start()  # from here on the band is formatted and written
        return result

    monkeypatch.setattr(cli, "consistency_band", computed)
    out = tmp_path / "band.csv"
    try:
        assert main(["band", sample, "--u0", "0", "--u1", "5", "--csv", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out, "rb") as fh:
        assert sum(1 for _ in fh) > 150_000
    assert peak < 16e6


def test_band_csv_and_svg_write_stage_memory_is_bounded(tmp_path, monkeypatch):
    # the plot range is reduced from each array in place and the envelope
    # walked from views of its two edges, so the SVG adds its path text and
    # O(block) temporaries; copying each data array to plot it read 16 MB
    sample = _gpd_file(tmp_path / "gpd.txt", 200_000, 3)
    band = cli.consistency_band

    def computed(*args, **kwargs):
        result = band(*args, **kwargs)
        tracemalloc.start()  # from here on the band is formatted, plotted and written
        return result

    monkeypatch.setattr(cli, "consistency_band", computed)
    out, svg = tmp_path / "band.csv", tmp_path / "band.svg"
    try:
        assert main(["band", sample, "--u0", "0", "--u1", "5", "--csv", str(out), "--svg", str(svg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out, "rb") as fh:
        assert sum(1 for _ in fh) > 150_000
    assert svg.read_text(encoding="utf-8").count("<path") == 2
    assert peak < 12e6


# ---------------------------------------------------------------------------
# parser-level behavior


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_flag_exits_2(sample3):
    with pytest.raises(SystemExit) as err:
        main(["emef", sample3, "--bogus"])
    assert err.value.code == 2


# each command's positionals (by dest) and option strings: an option added
# to a group that a command does not read fails here
OPTIONS = {
    "emef": {"sample", "--grid", "--csv", "--svg"},
    "band": {"sample", "--grid", "--u0", "--u1", "--A", "--A1", "--csv", "--svg"},
    "stallion": {"--dist", "--grid", "--u0", "--u1", "--seed", "--size", "--reps", "--full", "--csv", "--svg"},
    "coverage": {"--dist", "--u0", "--u1", "--A", "--A1", "--seed", "--size", "--reps", "--full", "--eps", "--csv"},
    "fit-gpd": {"sample", "--grid", "--csv"},
    "fdelta": {"--dist", "--u0", "--u1", "--csv"},
    "gh-pdf": {"--dist", "--grid", "--u0", "--u1", "--csv", "--svg"},
    "gh-sample": {"--dist", "--seed", "--size", "--csv"},
    "ingest": {"data", "--field", "--log-returns", "--kind", "--csv"},
    "compare": {"--data", "--dist", "--grid", "--u0", "--u1", "--field", "--log-returns", "--kind", "--csv", "--svg"},
}


def test_each_command_declares_exactly_its_options():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    declared = {
        name: {s for a in p._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings or [a.dest]}
        for name, p in commands.items()
    }
    assert declared == OPTIONS


# help, and each way argparse refuses a line: no command, an unknown one,
# a required option missing, an option no parser knows
PARSER_LINES = (
    [["-h"]] + [[name, "-h"] for name in OPTIONS]
    + [[], ["bogus"], ["compare", "--log-returns"], ["emef", "x.txt", "--nope"],
       ["compare", "--data", FIXTURE, "--dist", "normal(mu=0,sigma=1)", "--bogus"]]
)


def _parsed(parse, argv, capsys):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


@pytest.mark.parametrize("argv", PARSER_LINES, ids=lambda argv: " ".join(["meanex", *argv]))
def test_main_parses_as_the_whole_parser_does(argv, capsys):
    # main builds only the parser of the command a line names: its help,
    # usage and errors are those of the parser of every command
    whole = _parsed(build_parser().parse_args, argv, capsys)
    assert _parsed(main, argv, capsys) == whole
    assert whole[0] in (0, 2) and whole[1 if whole[0] == 0 else 2].startswith("usage: meanex")
    if "--bogus" in argv:  # the top-level usage names every command
        names = "{emef,band,stallion,coverage,fit-gpd,fdelta,gh-pdf,gh-sample,ingest,compare}"
        assert " ".join(whole[2].split()).startswith(f"usage: meanex [-h] {names} ...")


def test_readme_synopsis_lists_each_command_s_options():
    # a synopsis is its "meanex NAME" line and the indented "[" lines after it
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    synopsis, name = {}, None
    for line in block.splitlines():
        if line.startswith("meanex "):
            name = line.split()[1]
            synopsis[name] = set()
        elif not line.lstrip().startswith("["):
            name = None
        if name is not None:
            synopsis[name] |= set(re.findall(r"--[\w-]+", line))
    assert synopsis == {name: {s for s in opts if s.startswith("--")} for name, opts in OPTIONS.items()}


# ---------------------------------------------------------------------------
# shared --u0/--u1 and --grid checks


def _argv(command, sample):
    if command == "band":
        return ["band", sample]
    if command == "compare":
        return ["compare", "--data", FIXTURE, "--log-returns", "--dist", "normal(mu=0,sigma=0.02)"]
    if command in ("stallion", "coverage"):
        return [command, "--dist", "exponential(lambda=1)", "--reps", "5", "--size", "100"]
    return [command, "--dist", "exponential(lambda=1)"]


@pytest.mark.parametrize("command", ["band", "coverage", "fdelta", "stallion", "gh-pdf", "compare"])
def test_empty_window_exit_2(command, sample3, capsys):
    assert main(_argv(command, sample3) + ["--u0", "2", "--u1", "1"]) == 2
    assert f"{command} window is empty" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["band", "coverage", "fdelta"])
def test_missing_window_bound_exit_2(command, sample3, capsys):
    assert main(_argv(command, sample3) + ["--u0", "0"]) == 2
    assert f"{command} requires --u0 and --u1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize(
    "command,flag",
    [("stallion", "--reps"), ("stallion", "--size"), ("coverage", "--reps"), ("coverage", "--size"), ("gh-sample", "--size")],
)
def test_count_below_one_exit_2(command, flag, value, sample3, capsys):
    # an explicit 0 used to run the default count; a negative --size of gh-sample exited 3
    window = [] if command == "gh-sample" else ["--u0", "0.1", "--u1", "1"]
    assert main(_argv(command, sample3) + window + [flag, value]) == 2
    captured = capsys.readouterr()
    assert f"{flag} must be at least 1, got {value}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("grid", ["order-stats", "order-statistics"])
@pytest.mark.parametrize("command", ["stallion", "gh-pdf", "compare"])
def test_order_stats_grid_rejected_without_sample_file(command, grid, sample3, capsys):
    assert main(_argv(command, sample3) + ["--grid", grid]) == 2
    assert "takes --grid as a point count" in capsys.readouterr().err


@pytest.mark.parametrize("command,points", [("stallion", 200), ("gh-pdf", 401), ("compare", 101)])
def test_omitted_grid_keeps_the_default_point_count(command, points, sample3, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(_argv(command, sample3) + ["--csv", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == points + 1
