"""The decimal kernel ``decimal_lines.read_lines`` against ``float``.

For every text it accepts, the kernel must return, line by line, the
bits ``float(line)`` gives; it must decline (None) every text with a
line outside its grammar. The sample-file reader tries it first, so a
file it declines, or every file on a platform without extended
precision, must read as before through ``np.loadtxt`` and the line loop.
"""

import importlib.util
import re
import types
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanex import cli, decimal_lines
from meanex.cli import _sample_values
from meanex.decimal_lines import read_lines
from meanex.serialize import table

from test_sample_reader import FILES, outcome, sample_text

GRAMMAR = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")


def floats(lines):
    return np.array([float(line) for line in lines], dtype=float)


def assert_float_bits(lines, end="\n"):
    text = "".join(line + "\n" for line in lines[:-1]) + lines[-1] + end
    got = read_lines(text.encode("ascii"))
    assert got is not None, lines[:5]
    want = floats(lines)
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert got.shape == want.shape and bad.size == 0, [(lines[i], got[i], want[i]) for i in bad[:5]]


def gpd(seed, n):
    u = np.random.default_rng(seed).random(n)
    return ((1.0 - u) ** -0.25 - 1.0) / 0.25


@pytest.mark.parametrize("fmt", ["repr", "%.18e", "%.12g"])
def test_on_disk_formats_read_to_floats_bits(fmt):
    # repr is the benchmark's series, %.18e np.savetxt's default and %.12g
    # what ingest and the other CSV writers print
    rng = np.random.default_rng(21)
    values = np.concatenate((
        gpd(22, 20_000),
        rng.standard_normal(20_000) * 10.0 ** rng.integers(-12, 12, 20_000),
        rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000),
        [0.0, -0.0, 1.0, -1.0, 5e-324, 1.7976931348623157e308, 2.0 ** -1022, 2.0 ** 60, 0.1, 1e-5, 1e16],
    ))
    if fmt == "repr":
        lines = [repr(v) for v in values.tolist()]
    elif fmt == "%.12g":
        lines = table(None, values).splitlines()
    else:
        lines = [fmt % v for v in values.tolist()]
    assert_float_bits(lines)
    assert_float_bits(lines, end="")  # no LF after the last line


def test_exact_decimal_midpoints_and_their_neighbours():
    # a decimal halfway between two doubles must round to the even one, as
    # float does; the decimals one unit of their last digit away must not
    rng = np.random.default_rng(23)
    lines = []
    for _ in range(3000):
        d = float(rng.uniform(1, 2) * 2.0 ** int(rng.integers(-60, 70)))
        mid = (Decimal(d) + Decimal(np.nextafter(d, np.inf))) / 2  # exact
        text = format(mid, "f") if rng.random() < 0.5 else format(mid, "e")
        lines.append(text)
        if len(mid.as_tuple().digits) <= 19:
            unit = Decimal((0, (1,), mid.as_tuple().exponent - 1))
            lines += [str(mid + unit), str(mid - unit)]
    # short midpoints that the kernel itself meets: 2^53 + 1 and its halves
    # and doublings stay inside 19 digits and |q| <= 27
    for j in range(-8, 11):
        mid = Decimal(2**53 + 1) * Decimal(2) ** j
        lines += [str(mid), str(-mid), format(mid, "e")]
    assert sum(GRAMMAR.fullmatch(line) is not None for line in lines) == len(lines)
    assert_float_bits(lines)


def test_long_significands_and_far_exponents():
    lines = [
        # 19 and 20 digits, up to and past 2^64 - 1, where the significand saturates
        "1234567890123456789", "9999999999999999999", "18446744073709551615", "18446744073709551616",
        "99999999999999999999", "123456789012345678901234567890", "-18446744073709551615e-10",
        "1844674407370955161.5", "0.00000000000000000001234567890123456789", "12345678901234567890e-5",
        # 28 fraction digits and more, |q| > 27
        "0.1234567890123456789012345678", "0.00000000000000000000000000001", "1e28", "1e-28", "1e27", "1e-27",
        "1.5e300", "-2.5e-300", "5e-324", "2e-324", "1e400", "-1e400", "1e-400", "0e999999999999999999999",
        # signs, a bare '.' end or start, and the exponent's forms
        "-0", "+0", "-0.0", "-0e5", "+.5", "-.5", "5.", "-5.", "0.", ".0", "007", "-007.5",
        "1e5", "1E5", "1e+5", "1E-5", "-2.5e-3", "+2.5E+03", "5.e3", ".5e-3", "1e0005", "1e-0",
        "9007199254740993", "4503599627370496.5", "0.1", "0.3", "2.2250738585072014e-308",
    ]
    assert all(GRAMMAR.fullmatch(line) for line in lines)
    assert_float_bits(lines)


@pytest.mark.parametrize("text", [
    "", "\n", "1\n\n2\n", "1\n\n", " 1\n", "1 \n", "\t1\n", "1,2\n", "1\r\n2\n", "1\r2", "inf\n", "-inf\n",
    "nan\n", "1_000\n", ".\n", "+.\n", "-\n", ".e5\n", "e5\n", "1e\n", "1e+\n", "1.2.3\n", "1e5e5\n",
    "1e5.3\n", "1e+.5\n", "+-1\n", "1-2\n", "1+\n", "--1\n", "1ee5\n", "0x10\n", "1d5\n",
    "\u0661\u0662\n", "\uff17\n", "1\xa0\n", "1\x0b2\n", "1\x0c\n", "\ufeff1\n",
])
def test_declines_every_line_outside_the_grammar(text):
    assert read_lines(text.encode("utf-8")) is None
    # one bad line declines the whole text, wherever it falls among many good ones (an empty
    # text between them adds no line)
    good = "".join("%r\n" % v for v in gpd(24, 9000).tolist())
    assert read_lines((good + text + good).encode("utf-8")) is None or text == ""


def grammar_line():
    digits = st.text("0123456789", max_size=30)
    mantissa = st.one_of(
        st.tuples(st.text("0123456789", min_size=1, max_size=30), st.sampled_from(["", "."]), digits).map("".join),
        st.text("0123456789", min_size=1, max_size=30).map(lambda d: "." + d),
    )
    exponent = st.one_of(st.just(""), st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                                                st.text("0123456789", min_size=1, max_size=4)).map("".join))
    return st.tuples(st.sampled_from(["", "+", "-"]), mantissa, exponent).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(grammar_line(), min_size=1, max_size=40))
def test_grammar_lines_read_to_floats_bits(lines):
    assert all(GRAMMAR.fullmatch(line) for line in lines)
    assert_float_bits(lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text("0123456789.+-eE\nx ", min_size=1, max_size=30))
def test_accepts_exactly_the_grammar(text):
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    got = read_lines(text.encode("ascii"))
    if all(GRAMMAR.fullmatch(line) for line in lines):
        assert got is not None and got.view(np.uint64).tolist() == floats(lines).view(np.uint64).tolist()
    else:
        assert got is None


def test_lines_longer_than_a_block(monkeypatch):
    monkeypatch.setattr(decimal_lines, "_BLOCK", 64)
    lines = [repr(v) for v in gpd(25, 500).tolist()] + ["0." + "0" * 100 + "1", "1" * 90, "-" + "9" * 80 + "e-75"]
    assert_float_bits(lines)
    assert_float_bits(lines, end="")


def written_files(tmp_path):
    """The seeded files of the line-loop test, and the kernel's formats
    with and without a header."""
    paths = []
    for seed in range(FILES):
        path = tmp_path / f"sample{seed}.txt"
        path.write_text(sample_text(seed), encoding="utf-8", newline="")
        paths.append(path)
    body = "".join("%r\n" % v for v in gpd(26, 5000).tolist())
    for name, text in [("repr", body), ("headed", "value,note\n" + body), ("crlf-header", "value\r\n" + body),
                       ("savetxt", "".join("%.18e\n" % v for v in gpd(27, 5000).tolist())),
                       ("bom", "\ufeff" + body), ("no-final-lf", body.rstrip("\n"))]:
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8", newline="")
        paths.append(path)
    return paths


def test_without_extended_precision_every_file_reads_the_same(tmp_path, monkeypatch):
    paths = written_files(tmp_path)
    kernel = [outcome(_sample_values, p) for p in paths]
    taken = sum(read_lines(p.read_bytes().removeprefix(b"\xef\xbb\xbf")) is not None for p in paths)
    assert taken >= 4
    monkeypatch.setattr(decimal_lines, "_EXTENDED", False)
    assert all(read_lines(p.read_bytes()) is None for p in paths)
    for path, want in zip(paths, kernel):
        got = outcome(_sample_values, path)
        if isinstance(want, str):
            assert got == want, path.name
        else:
            assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes(), path.name



@pytest.mark.parametrize("nmant, taken", [(52, False), (63, True), (105, False), (112, True)])
def test_guard_takes_only_the_formats_the_certificate_holds_for(monkeypatch, nmant, taken):
    # x87 extended (63) and IEEE quad (112) round correctly on an even grid;
    # double-double (105) does neither, so it must be declined
    spec = importlib.util.spec_from_file_location("decimal_lines_probe", decimal_lines.__file__)
    probe = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(np, "finfo", lambda dtype: types.SimpleNamespace(nmant=nmant))
    spec.loader.exec_module(probe)
    assert probe._EXTENDED == taken


def test_kernel_reads_a_headed_file_without_the_text_readers(tmp_path, monkeypatch):
    values = gpd(28, 3000)
    body = "".join("%r\n" % v for v in values.tolist())
    for header in ("", "value\n", "x,y\r\n"):
        path = tmp_path / "series.txt"
        path.write_text(header + body, encoding="utf-8", newline="")
        monkeypatch.setattr(cli, "_loadtxt", None)  # any call would fail
        assert _sample_values(path).tobytes() == values.tobytes()
