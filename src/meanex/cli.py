"""Command line interface.

Subcommands wrap the library operations and emit deterministic CSV and
SVG artifacts:

    emef       empirical mean excess curve of a sample file
    band       uniform consistency band on [u0, u1]
    stallion   replicate-averaged mean excess curve of a known law
    coverage   band coverage experiment
    fit-gpd    GPD shape/scale from mean-excess linearity
    fdelta     smoothness statistic sup (F(v)-F(v-delta))^2/delta
    gh-pdf     density table of a distribution spec
    gh-sample  seeded draws from a distribution spec
    ingest     OHLCV CSV to a return series (one value per line)
    compare    data emef vs model mef overlay plus sup deviation

Exit codes: 0 success, 2 usage or input error (an empty --u0/--u1
window, --grid order-stats on stallion, gh-pdf or compare, or an output
path that cannot be written, among them), 3 numeric or domain error. Sample files carry one number per
line, in the first comma field; blank fields are skipped and a
non-numeric first line is tolerated as a header. Every command is
deterministic given --seed.

Sample files are read by three readers in turn, each only where the one
before declines (``_sample_values``): the numpy decimal kernel
``decimal_lines`` takes a file of bare decimal numbers with LF line
ends, and declines any other (a blank line, whitespace, a second
column, CR, inf or nan, ``1_000``, non-ASCII digits); then
``np.loadtxt``; then a line loop that words every error. Each gives the
bits ``float`` gives, so a file reads to the same values whichever
reader takes it.

Cold start: only the commands that take --dist (stallion, coverage,
fdelta, gh-pdf, gh-sample, compare) import the scipy-backed
``distributions`` module, inside the command. emef, band, fit-gpd and
ingest run on numpy alone. ``main`` builds the argparse parser of the
command its first argument names (about 0.3 ms), and the parser of all
ten (about 2.3 ms) only for a line that names none: ``-h``, no
arguments or an unknown command. Help, usage and errors are the same
bytes either way.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
import warnings

import numpy as np

from . import decimal_lines
from .errors import DomainError, InputError, NumericError
from .gpdfit import _central_window, _tail_label, gpd_from_ols, ols_fit
from .mef import (
    band_constants,
    consistency_band,
    default_grid,
    empirical_mef_curve,
    theoretical_mef_curve,
    sup_deviation,
)
from .montecarlo import _replicate_rng, coverage_experiment, stallion
from .ohlcv import log_returns, parse_ohlcv_csv, returns
from .serialize import (
    _band_blocks,
    _blocks,
    _compare_blocks,
    _curve_blocks,
    experiment_csv,
    fit_csv,
    fmt,
    write_text,
)
from .svgplot import PlotSpec, band_series, line_series, svg_plot
from .types import make_grid, make_sample

__all__ = ["main", "PlotSpec"]

FULL_REPS = 6000  # full-protocol replicate count
FULL_SIZE = 4000  # full-protocol sample size


def _parse_file(path, parse, mode="r"):
    """parse(fh) of the file at path, opened in mode: "r" for UTF-8 text
    with universal newlines, "rb" for bytes that parse decodes as UTF-8.
    InputError where the file cannot be read or its text is not UTF-8.
    A byte-order mark is left to the reader of the file's format."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None


def _first_field(line):
    return line.strip().split(",")[0].strip()


def _loadtxt(lines):
    """np.loadtxt of the lines' first comma fields; None where it raises
    or reads nothing."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            values = np.loadtxt(lines, dtype=float, delimiter=",", usecols=0, comments=None, ndmin=1)
    except ValueError:
        return None
    return values if values.size else None


def _is_header(line):
    """Whether a sample file's first line is skipped as a header: its
    first field is not blank and ``float`` rejects it."""
    tok = _first_field(line)
    try:
        float(tok)
    except ValueError:
        return bool(tok)
    return False


def _sample_values(path):
    """The first comma field of each line of the sample file at path, in
    file order. One leading byte-order mark is dropped, and lines are
    split by ``str.splitlines``; blank fields are skipped, and a first
    line ``_is_header`` takes is skipped as a header.

    The file is read as bytes, and its first line is passed to
    ``_is_header`` once. Three readers then take the lines past the
    header, each only where the one before declines:

    - ``decimal_lines.read_lines``, on the bytes: one number a line in
      ASCII digits, LF line ends, with each value's bits certified equal
      to ``float``'s. It declines the file where a line is anything else
      (a blank line, whitespace, a second column, CR, inf or nan,
      ``1_000``, non-ASCII digits), where the header line holds a line
      break of its own, and on a platform without extended precision;
    - ``np.loadtxt``, on the text's lines, in one C call (on the file
      handle it would not split at form feeds or U+2028). It reads every
      token it accepts to the bits ``float`` gives, and accepts no token
      ``float`` rejects;
    - where it raises or reads nothing (a blank field, ``1_000``,
      non-ASCII digits, no number), the line loop reads the same lines
      and words every error.

    So a file reads to the same values, or the same error, whichever
    reader takes it."""
    return _parse_file(path, lambda fh: _sample_data_values(path, fh.read().removeprefix(codecs.BOM_UTF8)), "rb")


def _sample_data_values(path, data):
    """``_sample_values`` of the file's bytes data, past its byte-order
    mark; UnicodeDecodeError where a text it decodes is not UTF-8."""
    head, _, body = data.partition(b"\n")
    head = head.decode("utf-8")
    first = head.splitlines()  # the first line of the text, split as the whole text is split
    header = bool(data) and _is_header(first[0] if first else "")
    if not header:
        values = decimal_lines.read_lines(data)
    elif first == [head.removesuffix("\r")]:  # the header line ends at its LF or CR LF
        values = decimal_lines.read_lines(body)
    else:
        values = None
    if values is not None:
        return values
    lines = data.decode("utf-8").splitlines()
    start = int(header)
    values = _loadtxt(lines[start:])
    if values is not None:
        return values
    values = []
    for i, line in enumerate(lines[start:], start=start + 1):
        tok = _first_field(line)
        if not tok:
            continue
        try:
            values.append(float(tok))
        except ValueError:
            raise InputError(f"{path}: line {i} is not a number: {line!r}")
    if not values:
        raise InputError(f"{path}: no numeric values")
    return np.array(values, dtype=float)


def _read_sample_file(path):
    return make_sample(_sample_values(path))


def _read_returns(args):
    """The return series --field/--kind/--log-returns select from --data."""
    # the text is read whole, once; the file is opened with universal
    # newlines, so it splits at LF into the lines iterating the file gives
    series = _parse_file(args.data, lambda fh: parse_ohlcv_csv(fh.read()))
    if args.log_returns and args.kind is not None:
        raise InputError("--log-returns conflicts with --kind")
    if args.log_returns:
        return log_returns(series, field=args.field)
    return returns(series, kind=args.kind or "gross", field=args.field)


def _grid_arg(args, points=None):
    """--grid: a point count, or 'order-statistics' of the sample file.
    The commands that read no sample file pass their default count as
    points and take a count only."""
    raw = args.grid
    if raw is None:
        return "order-statistics" if points is None else points
    if raw in ("order-stats", "order-statistics"):
        if points is not None:
            raise InputError(f"{args.command} takes --grid as a point count, not 'order-stats'")
        return "order-statistics"
    try:
        m = int(raw)
    except ValueError:
        raise InputError(f"--grid expects an integer or 'order-stats', got {raw!r}")
    if m < 1:
        raise InputError("--grid size must be positive")
    return m


def _count_arg(args, name, default):
    """--reps or --size: the default when absent, else a count of at least 1."""
    value = getattr(args, name)
    if value is not None and value < 1:
        raise InputError(f"--{name} must be at least 1, got {value}")
    return default if value is None else value


def _window(args, u0=None, u1=None):
    """The [u0, u1] window from --u0/--u1. u0 and u1 are the callables
    that give a command's default bounds; without them the options are
    required. InputError when a bound is missing or the window is empty."""
    lo, hi = args.u0, args.u1
    if lo is None and u0 is not None:
        lo = u0()
    if hi is None and u1 is not None:
        hi = u1()
    if lo is None or hi is None:
        raise InputError(f"{args.command} requires --u0 and --u1")
    if not lo < hi:
        raise InputError(f"{args.command} window is empty")
    return lo, hi


def _write(path, text):
    """write_text(path, text); InputError if path cannot be written."""
    try:
        write_text(path, text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _emit(args, blocks, spec=None, series=()):
    """The one writer of a command's output: the text blocks to --csv,
    else stdout, written as they are made, and with --svg the plot of
    series under spec. Only the commands that pass series declare --svg.

    A reader that closes stdout early (``meanex emef x.txt | head -1``)
    ends the output there: stdout is pointed at the null device, so the
    rest of the command runs and exits as before."""
    if args.csv:
        _write(args.csv, blocks)
    else:
        try:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if getattr(args, "svg", None):
        _write(args.svg, svg_plot(series, spec))


def cmd_emef(args):
    sample = _read_sample_file(args.sample)
    grid = default_grid(sample, _grid_arg(args))
    curve = empirical_mef_curve(sample, grid)
    spec = PlotSpec(title="empirical mean excess")
    _emit(args, _curve_blocks(curve), spec, [line_series("emef", grid.points, curve.values)])
    return 0


def cmd_band(args):
    sample = _read_sample_file(args.sample)
    u0, u1 = _window(args)
    constants = band_constants(u0, u1, A=args.A, A1=args.A1)
    g = _grid_arg(args)
    if g == "order-statistics":
        pts = default_grid(sample).points
        pts = pts[(pts >= u0) & (pts <= u1)]
        if pts.size == 0:
            raise InputError("no grid points inside [u0, u1]")
        grid = make_grid(pts)
    else:
        grid = make_grid(np.linspace(u0, u1, g))
    band = consistency_band(sample, grid, constants)
    spec = PlotSpec(title="mean excess consistency band")
    _emit(args, _band_blocks(band), spec, [band_series("band", grid.points, band.lower, band.upper, band.curve.values)])
    return 0


def cmd_stallion(args):
    from .distributions import dist_isf, dist_ppf, parse_distribution_spec

    dist = parse_distribution_spec(args.dist)
    reps = _count_arg(args, "reps", FULL_REPS if args.full else 200)
    size = _count_arg(args, "size", FULL_SIZE if args.full else 2000)
    u0, u1 = _window(args, lambda: dist_ppf(dist, 0.01), lambda: dist_isf(dist, 0.01))
    grid = make_grid(np.linspace(u0, u1, _grid_arg(args, 200)))
    result = stallion(dist, n_reps=reps, sample_size=size, grid=grid, seed=args.seed)
    spec = PlotSpec(title=f"stallion: {args.dist}")
    _emit(args, _curve_blocks(result.curve), spec, [line_series("stallion", grid.points, result.curve.values)])
    return 0


def cmd_coverage(args):
    from .distributions import parse_distribution_spec

    dist = parse_distribution_spec(args.dist)
    u0, u1 = _window(args)
    reps = _count_arg(args, "reps", FULL_REPS if args.full else 500)
    size = _count_arg(args, "size", FULL_SIZE if args.full else 4000)
    constants = band_constants(u0, u1, A=args.A, A1=args.A1)
    report = coverage_experiment(
        dist, u0, u1, constants,
        sample_size=size, n_reps=reps, seed=args.seed, eps=args.eps,
    )
    _emit(args, [experiment_csv(report)])
    return 0


def cmd_fit_gpd(args):
    sample = _read_sample_file(args.sample)
    grid = default_grid(sample, _grid_arg(args))
    curve = empirical_mef_curve(sample, grid)
    x, y = _central_window(curve)
    fit = ols_fit(x, y)
    params, label = gpd_from_ols(fit), _tail_label(x, y, fit)
    if args.csv:
        _write(args.csv, fit_csv(params, fit))
    print(f"xi_hat = {fmt(params.xi)}")
    print(f"beta_hat = {fmt(params.beta)}")
    print(f"a_hat = {fmt(fit.a_hat)}")
    print(f"b_hat = {fmt(fit.b_hat)}")
    print(f"r2 = {fmt(fit.r2)}")
    print(f"tail = {label}")
    return 0


def cmd_fdelta(args):
    from .distributions import fdelta_check, parse_distribution_spec

    dist = parse_distribution_spec(args.dist)
    u0, u1 = _window(args)
    deltas = [0.1, 0.01, 0.001]
    stats = fdelta_check(dist, u0, u1, deltas)
    _emit(args, _blocks("delta,statistic", deltas, stats))
    return 0


def cmd_gh_pdf(args):
    from .distributions import dist_isf, dist_ppf, parse_distribution_spec, std_pdf

    dist = parse_distribution_spec(args.dist)
    u0, u1 = _window(args, lambda: dist_ppf(dist, 0.001), lambda: dist_isf(dist, 0.001))
    x = np.linspace(u0, u1, _grid_arg(args, 401))
    y = np.asarray(std_pdf(dist, x), dtype=float)
    spec = PlotSpec(title=args.dist, xlabel="x", ylabel="density")
    _emit(args, _blocks("x,pdf", x, y), spec, [line_series("pdf", x, y)])
    return 0


def cmd_gh_sample(args):
    from .distributions import parse_distribution_spec, std_sample

    dist = parse_distribution_spec(args.dist)
    size = _count_arg(args, "size", 1000)
    _emit(args, _blocks(None, std_sample(dist, _replicate_rng(args.seed, 0), size)))
    return 0


def cmd_ingest(args):
    _emit(args, _blocks(None, _read_returns(args)))
    return 0


def cmd_compare(args):
    from .distributions import parse_distribution_spec

    vals = _read_returns(args)
    sample = make_sample(vals)
    dist = parse_distribution_spec(args.dist)
    u0, u1 = _window(
        args,
        lambda: float(np.quantile(sample.values, 0.02)),
        lambda: float(np.quantile(sample.values, 0.98)),
    )
    grid = make_grid(np.linspace(u0, u1, _grid_arg(args, 101)))
    data_curve = empirical_mef_curve(sample, grid)
    model_curve = theoretical_mef_curve(dist, grid)
    spec = PlotSpec(title="mean excess: data vs model")
    series = [
        line_series("data emef", grid.points, data_curve.values),
        line_series("model mef", grid.points, model_curve.values),
    ]
    _emit(args, _compare_blocks(data_curve, model_curve), spec, series)
    print(f"sup_deviation = {fmt(sup_deviation(data_curve, model_curve))}")
    return 0


def _add_common(p, *names):
    if "data" in names:
        p.add_argument("--data", required=True)
    if "dist" in names:
        p.add_argument("--dist", required=True, help="distribution spec, e.g. 'exponential(lambda=2)'")
    if "grid" in names:
        p.add_argument("--grid", default=None, help="point count, or 'order-stats' (emef, band, fit-gpd)")
    if "window" in names:
        p.add_argument("--u0", type=float, default=None)
        p.add_argument("--u1", type=float, default=None)
    if "band" in names:
        p.add_argument("--A", type=float, default=1.0)
        p.add_argument("--A1", type=float, default=1.0)
    if "draws" in names:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--size", type=int, default=None)
    if "reps" in names:
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--full", action="store_true", help="full-protocol reps/size (6000 x 4000)")
    if "out" in names:
        p.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    if "eps" in names:
        p.add_argument("--eps", type=float, default=0.05, help="nominal miss level recorded in the report")
    if "svg" in names:
        p.add_argument("--svg", default=None, help="also render an SVG plot")
    if "returns" in names:
        p.add_argument("--field", default="close")
        p.add_argument("--log-returns", dest="log_returns", action="store_true")
        p.add_argument("--kind", choices=["simple", "gross"], default=None)


# command -> (help, handler, its positional argument or None, its option
# groups, which _add_common declares in its own order), in the order of
# the top-level usage
_COMMANDS = {
    "emef": ("empirical mean excess curve", cmd_emef, "sample", ("grid", "out", "svg")),
    "band": ("uniform consistency band", cmd_band, "sample", ("grid", "window", "band", "out", "svg")),
    "stallion": ("replicate-averaged mean excess curve", cmd_stallion, None,
                 ("dist", "grid", "window", "draws", "reps", "out", "svg")),
    "coverage": ("band coverage experiment", cmd_coverage, None,
                 ("dist", "window", "band", "draws", "reps", "out", "eps")),
    "fit-gpd": ("GPD fit from mean-excess linearity", cmd_fit_gpd, "sample", ("grid", "out")),
    "fdelta": ("smoothness condition statistic", cmd_fdelta, None, ("dist", "window", "out")),
    "gh-pdf": ("density table", cmd_gh_pdf, None, ("dist", "grid", "window", "out", "svg")),
    "gh-sample": ("seeded draws", cmd_gh_sample, None, ("dist", "draws", "out")),
    "ingest": ("OHLCV to return series", cmd_ingest, "data", ("returns", "out")),
    "compare": ("data emef vs model mef", cmd_compare, None,
                ("data", "dist", "grid", "window", "returns", "out", "svg")),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or with command given, of the
    top-level options and that command alone. Either gives the same
    usage, help and errors for a command line that starts with the
    command."""
    parser = argparse.ArgumentParser(prog="meanex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        # the top-level usage of an "unrecognized arguments" error still
        # lists every command. Only here: a metavar would also rename the
        # argument "command" in the whole parser's own errors
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name, (help_text, func, positional, groups) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        if positional:
            p.add_argument(positional)
        _add_common(p, *groups)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command line that names its command builds that command's parser
    # alone; any other (-h, no arguments, an unknown name) builds them all
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
