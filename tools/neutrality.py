"""Report which outputs of meanex moved between a git revision and the
working tree, or a second revision.

    python tools/neutrality.py REV [NEW_REV]

``git archive REV`` (and NEW_REV) is unpacked into a temporary
directory. The same fixed list of outputs (``cli_runs`` and
``library_values`` below) is then made twice under this interpreter:
once with REV's ``src`` and once with the working tree's (or NEW_REV's),
each in a fresh process and a fresh working directory. The list holds

- CLI runs through ``meanex.cli.main``, help and usage errors among
  them, each output kept apart: the exit code, stdout, stderr (with the
  category and text of every warning, or the type and text of an
  exception that escapes ``main``) and the bytes of every CSV and SVG
  file the run writes;
- library values as ``float.hex``: one spec per family and the laws the
  CI checks, each with its support, mean, quantiles, F and F_bar, the
  model curve, stop losses, E|X| and 1000 draws at two seeds; ``stallion``
  past 64 replicates on exponential, Student, GH and thinning GIG laws;
  ``coverage_experiment`` in oracle and plug-in mode;
  ``convergence_experiment``; empirical curves, bands and influence
  values. An exception is kept as its type and text.

Every output is named, and the report prints each one that moved with
its first differing line, then a count. Exit status 0 when nothing
moved, 1 when something did. Each item runs under a 30 s alarm, so a
revision that hangs on one reports it as timed out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "data", "synthetic_ohlcv.csv")
ALARM_S = 30

# one spec per family, then the laws the CI and the tests single out
FAMILY_SPECS = [
    "gpd(xi=0.25,beta=1)",
    "pareto(alpha=3,lambda=1)",
    "exponential(lambda=2)",
    "weibull(beta=1.5,tau=3)",
    "burr(alpha=2,lambda=1.5,tau=3)",
    "gompertz(alpha=0.5,lambda=1)",
    "gamma(alpha=2.5,beta=1)",
    "beta(a=2,b=3)",
    "lognormal(mu=0,sigma=0.5)",
    "normal(mu=0.5,sigma=2)",
    "laplace(mu=0.1,sigma=1,tau=0.6)",
    "student(nu=3.5,mu=0.2)",
    "cauchy(mu=0,delta=1)",
    "gh(lambda=-0.5,alpha=50,beta=3,delta=0.01,mu=0)",
    "gh(lambda=0.7,alpha=40,beta=-6,delta=0.015,mu=0.0005)",
    "gh(lambda=-1.5,alpha=0,beta=0,delta=2,mu=0.5)",
    "gh(lambda=0.3,alpha=3,beta=1,delta=0,mu=0)",
    "gh(lambda=1,alpha=1.1,beta=0.1,delta=0,mu=2)",
    "gig(lambda=0.5,chi=1,psi=2)",
    "gig(lambda=0.5,chi=0,psi=2)",
    "gig(lambda=0.3,chi=0.2,psi=0.1)",
    "gig(lambda=0.5,chi=1e-4,psi=1)",
]

# laws whose draws alone are kept: this one's quantiles take seconds each
DRAWS_ONLY = ["gig(lambda=-0.5,chi=1e10,psi=1e22)"]

# single thresholds far from the bulk: a law far from 0, and a far tail
FAR_POINTS = [
    ("laplace(mu=1e20,sigma=1e8,tau=0.6)", 1e20),
    ("normal(mu=1e16,sigma=1)", 1e16),
    ("student(nu=3,mu=1e17)", 1e17),
    ("normal(mu=-22.885,sigma=1e-8)", -22.885),
    ("student(nu=3,mu=0)", 1e70),
    ("student(nu=3,mu=0)", 1e85),
    ("student(nu=3,mu=0)", 1e90),
]

NIG = "gh(lambda=-0.5,alpha=50,beta=3,delta=0.01,mu=0)"
THINNING_GIG = "gig(lambda=0.3,chi=0.2,psi=0.1)"


def cli_runs():
    """(name, argv) of every CLI run, in order; the inputs are files of
    the working directory that ``write_inputs`` makes, and the fixture."""
    ret = ["--data", FIXTURE, "--log-returns"]
    runs = [
        ("ingest log", ["ingest", FIXTURE, "--log-returns", "--csv", "returns.txt"]),
        ("ingest simple open", ["ingest", FIXTURE, "--kind", "simple", "--field", "open"]),
        ("ingest gross", ["ingest", FIXTURE, "--kind", "gross"]),
        ("emef returns", ["emef", "returns.txt", "--csv", "emef.csv", "--svg", "emef.svg"]),
        ("emef returns grid", ["emef", "returns.txt", "--grid", "50"]),
        ("band returns", ["band", "returns.txt", "--u0", "-0.02", "--u1", "0", "--csv", "band.csv", "--svg", "band.svg"]),
        ("band returns wide", ["band", "returns.txt", "--u0", "-0.02", "--u1", "0.015"]),
        ("emef gpd", ["emef", "gpd.txt", "--csv", "emef-gpd.csv", "--svg", "emef-gpd.svg"]),
        ("band gpd", ["band", "gpd.txt", "--u0", "0", "--u1", "5", "--csv", "band-gpd.csv", "--svg", "band-gpd.svg"]),
        ("fit-gpd returns", ["fit-gpd", "returns.txt"]),
        ("fit-gpd gpd", ["fit-gpd", "gpd.txt"]),
    ]
    for name in ("gpd-repr.txt", "gpd-repr-header.txt"):  # the benchmark's format, bare and under a header
        runs += [
            (f"emef {name}", ["emef", name, "--csv", f"emef-{name}.csv", "--svg", f"emef-{name}.svg"]),
            (f"band {name}", ["band", name, "--u0", "0", "--u1", "5", "--csv", f"band-{name}.csv"]),
            (f"fit-gpd {name}", ["fit-gpd", name, "--csv", f"fit-{name}.csv"]),
        ]
    runs += [
        ("emef wide", ["emef", "wide.txt"]),
    ]
    for name in ("ohlcv-5000.csv", "ohlcv-5000-padded.csv"):  # the benchmark's compare input, bare and padded
        runs += [
            (f"ingest {name}", ["ingest", name, "--log-returns", "--csv", f"returns-{name}.txt"]),
            (f"compare nig {name}", ["compare", "--data", name, "--log-returns", "--dist", NIG,
                                     "--csv", f"compare-{name}.csv", "--svg", f"compare-{name}.svg"]),
        ]
    runs += [
        ("compare normal", ["compare", *ret, "--dist", "normal(mu=0,sigma=0.02)", "--csv", "compare.csv",
                            "--svg", "compare.svg"]),
        ("compare nig", ["compare", *ret, "--dist", "gh(lambda=-0.5,alpha=50,beta=3,delta=0.01,mu=0)"]),
        ("compare student", ["compare", *ret, "--dist", "student(nu=1.05,mu=0)"]),
        ("compare weibull", ["compare", *ret, "--dist", "weibull(beta=1.5,tau=3)"]),
        ("compare burr", ["compare", *ret, "--dist", "burr(alpha=2,lambda=1.5,tau=3)"]),
        ("compare far normal", ["compare", *ret, "--dist", "normal(mu=-22.885,sigma=1e-8)", "--u0", "-22.8850001",
                                "--u1", "-22.8849999", "--grid", "5"]),
        ("compare student far tail", ["compare", *ret, "--dist", "student(nu=3,mu=0)", "--u0", "1e85",
                                      "--u1", "1e90", "--grid", "3"]),
        ("gh-pdf student", ["gh-pdf", "--dist", "gh(lambda=-1.5,alpha=0,beta=0,delta=2,mu=0.5)"]),
        ("gh-pdf interior", ["gh-pdf", "--dist", "gh(lambda=0.7,alpha=40,beta=-6,delta=0.015,mu=0.0005)",
                             "--svg", "gh-pdf.svg"]),
        ("gh-pdf vg pole", ["gh-pdf", "--dist", "gh(lambda=0.3,alpha=3,beta=1,delta=0,mu=0)"]),
        ("gh-pdf gig near 0", ["gh-pdf", "--dist", "gig(lambda=0.5,chi=1221.87,psi=3.427e-6)", "--u0", "1e-300",
                               "--u1", "1e-299", "--grid", "3"]),
        ("stallion exp", ["stallion", "--dist", "exponential(lambda=1)", "--reps", "70", "--size", "300",
                          "--u0", "0.01", "--u1", "9", "--seed", "3", "--csv", "stallion.csv", "--svg", "stallion.svg"]),
        ("stallion gig", ["stallion", "--dist", "gig(lambda=0.5,chi=0,psi=2)", "--reps", "5", "--size", "200"]),
        ("stallion nig", ["stallion", "--dist", NIG, "--reps", "130", "--size", "400"]),
        ("stallion gig thinning", ["stallion", "--dist", THINNING_GIG, "--reps", "20", "--size", "300"]),
        ("stallion cauchy sums", ["stallion", "--dist", "cauchy(mu=0,delta=3e304)", "--reps", "3", "--size", "4000",
                                  "--u0", "-1", "--u1", "1", "--grid", "5"]),
        ("coverage exp", ["coverage", "--dist", "exponential(lambda=1)", "--u0", "0.1", "--u1", "1", "--reps", "70",
                          "--size", "500", "--seed", "5", "--A", "0.4", "--A1", "0.4"]),
        ("fdelta normal", ["fdelta", "--dist", "normal(mu=0,sigma=1)", "--u0", "-1", "--u1", "1"]),
        ("fdelta gig", ["fdelta", "--dist", "gig(lambda=0.5,chi=1,psi=2)", "--u0", "0.001", "--u1", "2"]),
        ("fdelta gh", ["fdelta", "--dist", "gh(lambda=1,alpha=1.1,beta=0.1,delta=0,mu=2)", "--u0", "0.1", "--u1", "0.5"]),
        ("gh-sample refused scale", ["gh-sample", "--dist", "gig(lambda=1.5,chi=0,psi=5e-324)", "--size", "3"]),
        ("gh-sample refused no box", ["gh-sample", "--dist", "gig(lambda=-1.2,chi=1e-40,psi=1e-80)", "--size", "100"]),
        ("gh-pdf refused mode", ["gh-pdf", "--dist", "gig(lambda=-1.5,chi=5e-324,psi=0)", "--grid", "3"]),
        ("gh-pdf refused mode psi 1", ["gh-pdf", "--dist", "gig(lambda=-1.5,chi=5e-324,psi=1)", "--grid", "3"]),
        ("gh-pdf refused bulk width", ["gh-pdf", "--dist", "gig(lambda=-1.3e242,chi=0.77,psi=0)"]),
        ("gh-sample refused exp scale", ["gh-sample", "--dist", "exponential(lambda=1e-320)", "--size", "3"]),
    ]
    for seed in ("3", "4"):
        for spec in (NIG, "gig(lambda=0.5,chi=1e-4,psi=1)", "gig(lambda=-0.00736,chi=1.103,psi=1.38e-19)"):
            runs.append((f"gh-sample {spec} seed {seed}", ["gh-sample", "--dist", spec, "--size", "100", "--seed", seed]))
    # help and usage: main builds the parser of the command a line names, and all of them otherwise
    commands = ["emef", "band", "stallion", "coverage", "fit-gpd", "fdelta", "gh-pdf", "gh-sample", "ingest", "compare"]
    runs += [("help", ["-h"])] + [(f"help {command}", [command, "-h"]) for command in commands]
    runs += [
        ("usage no arguments", []),
        ("usage unknown command", ["bogus"]),
        ("usage missing option", ["compare", "--log-returns"]),
        ("usage unrecognized option", ["compare", *ret, "--dist", NIG, "--bogus"]),
    ]
    return runs


def write_inputs():
    import numpy as np

    u = np.random.default_rng(1).random(20000)
    np.savetxt("gpd.txt", (u ** -0.25 - 1) / 0.25)
    series = "".join("%r\n" % v for v in ((u ** -0.25 - 1) / 0.25).tolist())
    with open("gpd-repr.txt", "w") as f:
        f.write(series)
    with open("gpd-repr-header.txt", "w") as f:
        f.write("value\n" + series)
    with open("wide.txt", "w") as f:
        f.write("-1.7e308\n0\n0\n1.7e308\n")
    # 5000 days of a Student-t price path as the benchmark writes its compare input: %.17g prices,
    # integer volumes; the padded twin has one space after every comma
    rng = np.random.default_rng(2)
    close = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(0.01 * rng.standard_t(4, 4999)))))
    opn = np.concatenate(([100.0], close[:-1]))
    high = np.maximum(opn, close) * np.exp(np.abs(rng.normal(0.0, 0.002, 5000)))
    low = np.minimum(opn, close) * np.exp(-np.abs(rng.normal(0.0, 0.002, 5000)))
    days = (np.datetime64("1990-01-01") + np.arange(5000)).astype(str)
    rows = ["date,open,high,low,close,volume"] + [
        f"{d},{o:.17g},{h:.17g},{lo:.17g},{c:.17g},{v}"
        for d, o, h, lo, c, v in zip(days, opn, high, low, close, rng.integers(1000, 1_000_000, 5000))]
    with open("ohlcv-5000.csv", "w") as f:
        f.write("\n".join(rows) + "\n")
    with open("ohlcv-5000-padded.csv", "w") as f:
        f.write("\n".join(row.replace(",", ", ") for row in rows) + "\n")


def _hex(value) -> str:
    """float.hex of every number in value, one a line; nested tuples,
    lists, arrays and (name, number) metrics are walked in order."""
    import numpy as np

    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return "\n".join(_hex(v) for v in value)
    arr = np.asarray(value)
    if arr.dtype.kind in "iub":
        return " ".join(str(int(v)) for v in arr.ravel())
    return " ".join(float(v).hex() for v in arr.ravel())


def library_values():
    """(name, thunk) of every library value, in order."""
    import numpy as np

    import meanex as m
    from meanex import distributions as dist

    law = m.parse_distribution_spec  # called inside each item, so a spec a revision refuses is an output

    items = []
    levels = np.array([1e-6, 0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1 - 1e-6])
    for text in FAMILY_SPECS:
        def grid(text=text):
            return np.linspace(m.dist_ppf(law(text), 0.05), m.dist_ppf(law(text), 0.99), 21)

        items += [
            (f"{text} support", lambda text=text: m.dist_support(law(text))),
            (f"{text} mean", lambda text=text: m.dist_mean(law(text))),
            (f"{text} ppf", lambda text=text: [m.dist_ppf(law(text), q) for q in levels]),
            (f"{text} isf", lambda text=text: [m.dist_isf(law(text), q) for q in levels]),
            (f"{text} cdf", lambda text=text, g=grid: m.std_cdf(law(text), g())),
            (f"{text} survival", lambda text=text, g=grid: m.std_survival(law(text), g())),
            (f"{text} curve", lambda text=text, g=grid: m.theoretical_mef_curve(law(text), m.make_grid(g())).values),
            (f"{text} tail moments", lambda text=text, g=grid: dist.dist_tail_moments(law(text), g()[::5])),
            (f"{text} mean abs", lambda text=text: m.dist_mean_abs(law(text))),
        ]
    for text in FAMILY_SPECS + DRAWS_ONLY:
        for seed in (7, 8):
            items.append((f"{text} draws seed {seed}",
                          lambda text=text, seed=seed: m.std_sample(law(text), np.random.default_rng(seed), 1000)))
    for text, u in FAR_POINTS:
        items.append((f"{text} e({u:g})", lambda text=text, u=u: m.theoretical_mef(law(text), u)))

    def report(r):
        return [r.name, *(f"{k} {_hex(v)}" for k, v in r.metrics), str(r.replicate_count)]

    def stallion(text, reps, size, lo, hi, seed):
        s = m.stallion(law(text), reps, size, m.make_grid(np.linspace(lo, hi, 60)), seed=seed)
        return [s.curve.values, s.contributors, s.curve.meta]

    for seed in (3, 4):
        items += [
            (f"stallion exp seed {seed}", lambda seed=seed: stallion("exponential(lambda=1)", 130, 300, 0.01, 9.0, seed)),
            (f"stallion student seed {seed}", lambda seed=seed: stallion("student(nu=3,mu=0)", 130, 300, -3.0, 6.0, seed)),
            (f"stallion nig seed {seed}", lambda seed=seed: stallion(NIG, 130, 400, -0.03, 0.03, seed)),
            (f"stallion thinning gig seed {seed}", lambda seed=seed: stallion(THINNING_GIG, 130, 300, 1e-3, 5.0, seed)),
        ]
    for oracle in (True, False):
        items.append((f"coverage exp oracle={oracle}", lambda oracle=oracle: report(m.coverage_experiment(
            law("exponential(lambda=1)"), 0.0, 1.0, m.band_constants(0.0, 1.0, A=0.2, A1=0.2), sample_size=2000, n_reps=130, seed=5,
            oracle=oracle))))
    items.append(("coverage nig plug-in", lambda: report(m.coverage_experiment(
        law(NIG), -0.01, 0.0, m.band_constants(-0.01, 0.0), sample_size=4000, n_reps=70, seed=6, oracle=False))))
    items.append(("convergence exp", lambda: report(m.convergence_experiment(
        law("exponential(lambda=1)"), u1=1.5, sizes=[10, 100, 1000, 10000], n_reps=70, seed=4))))
    items.append(("convergence nig", lambda: report(m.convergence_experiment(
        law(NIG), u1=0.02, sizes=[100, 1000], n_reps=70, seed=4))))

    def sample(name):
        if name == "returns":
            with open(FIXTURE) as f:
                return m.make_sample(m.log_returns(m.parse_ohlcv_csv(f)))
        return m.make_sample(np.loadtxt("gpd.txt"))

    for name, u0, u1 in (("returns", -0.02, 0.0), ("gpd", 0.0, 5.0)):
        def band(s, u0=u0, u1=u1, **oracle):
            g = m.default_grid(s)
            p = m.make_grid(g.points[(g.points >= u0) & (g.points <= u1)])
            b = m.consistency_band(s, p, m.band_constants(u0, u1), **oracle)
            return [b.curve.values, b.lower, b.upper, b.en, b.survival_u1, b.mean_abs]

        items += [
            (f"{name} curve", lambda name=name: m.empirical_mef_curve(
                sample(name), m.default_grid(sample(name))).values),
            (f"{name} curve 101", lambda name=name: m.empirical_mef_curve(
                sample(name), m.default_grid(sample(name), 101)).values),
            (f"{name} band", lambda name=name, band=band: band(sample(name))),
            (f"{name} band oracle", lambda name=name, band=band: band(sample(name), survival_u1=0.3, mean_abs=0.5)),
            (f"{name} h and variance", lambda name=name: [
                (m.h_u_values(sample(name), u), m.asymptotic_variance(sample(name), u))
                for u in np.quantile(sample(name).values, [0.1, 0.5, 0.9])]),
            (f"{name} emef at max", lambda name=name: [
                m.empirical_mef(sample(name), sample(name).max), m.empirical_mef(sample(name), sample(name).max + 1)]),
        ]
    return items


def _captured(run):
    """run() with warnings recorded and kept from the streams; returns
    (value or exception text, warning lines)."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            value = run()
        except SystemExit as exc:  # argparse refuses a command line
            value = exc.code
        except Exception as exc:  # the outcome of the run is the output
            value = f"raised {type(exc).__name__}: {exc}"
    lines = sorted({f"warning {w.category.__name__}: {w.message}" for w in seen})
    return value, lines


class _Expired(Exception):
    pass


def probe(out_path):
    """Make every output of the list in the working directory, with the
    meanex found on sys.path, and write them to out_path as JSON."""
    import meanex
    from meanex.cli import main

    def expired(signum, frame):
        raise _Expired(f"timed out after {ALARM_S} s")

    signal.signal(signal.SIGALRM, expired)
    outputs = {"meanex package": os.path.dirname(meanex.__file__)}

    def put(key, value):
        if key in outputs:
            raise RuntimeError(f"two outputs are named {key!r}")
        outputs[key] = value

    write_inputs()
    for name, argv in cli_runs():
        before = set(os.listdir("."))
        out, err = io.StringIO(), io.StringIO()
        signal.alarm(ALARM_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, lines = _captured(lambda: main(argv))
        signal.alarm(0)
        put(f"cli {name}: exit", str(code))
        put(f"cli {name}: stdout", out.getvalue())
        put(f"cli {name}: stderr", err.getvalue() + "".join(line + "\n" for line in lines))
        for f in sorted(set(os.listdir(".")) - before):
            with open(f, "rb") as fh:
                put(f"cli {name}: {f}", fh.read().decode("latin-1"))
    for name, thunk in library_values():
        signal.alarm(ALARM_S)
        value, lines = _captured(lambda: _hex(thunk()))
        signal.alarm(0)
        put(f"lib {name}", value + "".join("\n" + line for line in lines))
    with open(out_path, "w") as f:
        json.dump(outputs, f)


def _outputs(tree, work):
    """The outputs of the list made with tree's src, in work."""
    out = os.path.join(work, "outputs.json")
    src = os.path.join(tree, "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--probe", out], cwd=work, env=env, check=True)
    with open(out) as f:
        outputs = json.load(f)
    package = outputs.pop("meanex package")
    if os.path.commonpath([package, src]) != src:
        raise RuntimeError(f"the probe imported meanex from {package}, not from {src}")
    return outputs


def _first_difference(a, b):
    """Where the texts a and b first differ: the line, and in it the
    first differing word; for float.hex words, the largest relative
    difference over the line."""
    a, b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            xs, ys = x.split(), y.split()
            j = next((j for j, (p, q) in enumerate(zip(xs, ys)) if p != q), min(len(xs), len(ys)))
            where = f"line {i + 1}, word {j + 1}: {' '.join(xs[j:j + 1])[:150]!r} -> {' '.join(ys[j:j + 1])[:150]!r}"
            if len(xs) != len(ys):
                return f"{where} ({len(xs)} words -> {len(ys)})"
            try:  # float.hex words carry a binary exponent; a bare integer would parse as hex too
                if not all("p" in w or w.lstrip("-") in ("inf", "nan") for w in xs + ys):
                    raise ValueError
                pairs = [(float.fromhex(p), float.fromhex(q)) for p, q in zip(xs, ys)]
            except ValueError:
                return where
            rel = max((abs(p - q) / max(abs(p), abs(q)) for p, q in pairs if p != q and abs(p - q) < math.inf),
                      default=math.nan)
            return f"{where}; largest relative difference {rel:.2g}"
    extra = a[len(b):] or b[len(a):]
    return f"{len(a)} lines -> {len(b)} lines, {'dropped' if len(a) > len(b) else 'added'} {extra[0][:150]!r}"


def _unpacked(rev, tree):
    """git archive rev, unpacked into the directory tree."""
    os.makedirs(tree)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def compare(rev, new_rev=None):
    t0 = time.perf_counter()
    new_name = new_rev or "the working tree"
    with tempfile.TemporaryDirectory() as tmp:
        trees = [_unpacked(rev, os.path.join(tmp, "old")),
                 _unpacked(new_rev, os.path.join(tmp, "new")) if new_rev else ROOT]
        old, new = (_outputs(tree, tempfile.mkdtemp(dir=tmp)) for tree in trees)
    keys = sorted(set(old) | set(new))
    moved = [k for k in keys if old.get(k) != new.get(k)]
    for k in moved:
        if k not in old or k not in new:
            print(f"MOVED {k}: only in {new_name if k in new else rev}")
        else:
            print(f"MOVED {k}: {_first_difference(old[k], new[k])}")
    print(f"{len(moved)} of {len(keys)} outputs moved between {rev} and {new_name} "
          f"({time.perf_counter() - t0:.0f} s)")
    return 1 if moved else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="the git revision whose outputs are the reference")
    parser.add_argument("new_rev", nargs="?", help="a git revision to compare with it (default: the working tree)")
    parser.add_argument("--probe", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    if not args.rev:
        parser.error("a revision is required")
    return compare(args.rev, args.new_rev)


if __name__ == "__main__":
    sys.exit(main())
