"""Tests for OHLCV CSV parsing, return construction, monthly
subsampling, and serialization round-trips.

The parser is checked against the row-at-a-time parser of an earlier
version (``oracle_parse``), kept here as an independent oracle, and its
C pass against its csv path."""

import csv
import io
import math
import random
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from meanex import (
    InputError,
    OhlcvRecord,
    PriceSeries,
    log_returns,
    monthly_last,
    ohlcv_csv,
    parse_ohlcv_csv,
    returns,
)
from meanex import ohlcv
from meanex.cli import main

FIXTURE = Path(__file__).parent / "data" / "synthetic_ohlcv.csv"

HEADER = "date,open,high,low,close,volume"


def rows(*lines):
    return HEADER + "\n" + "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing


def test_parse_two_rows_out_of_order():
    text = rows(
        "2024-02-01,10,11,9,10.5,100",
        "2024-01-31,10,10.5,9.5,10,90",
    )
    series = parse_ohlcv_csv(text)
    assert series.n == 2
    assert series.dates()[0].isoformat() == "2024-01-31"
    assert series.field("close").tolist() == [10.0, 10.5]


def test_parse_rejects_low_above_high():
    text = rows("2024-01-31,10,9.5,11,10,90")
    with pytest.raises(InputError, match="row 1"):
        parse_ohlcv_csv(text)


def test_parse_rejects_close_outside_sandwich():
    text = rows("2024-01-31,10,11,9,12,90")
    with pytest.raises(InputError, match="row 1"):
        parse_ohlcv_csv(text)


def test_parse_error_names_later_row():
    text = rows(
        "2024-01-30,10,11,9,10.5,100",
        "2024-01-31,10,11,9,10.5,100",
        "2024-02-01,xx,11,9,10.5,100",
    )
    with pytest.raises(InputError, match="row 3"):
        parse_ohlcv_csv(text)


def test_parse_rejects_duplicate_dates():
    text = rows(
        "2024-01-31,10,11,9,10.5,100",
        "2024-01-31,10,11,9,10.2,100",
    )
    with pytest.raises(InputError, match="duplicate date"):
        parse_ohlcv_csv(text)


def test_parse_rejects_bad_header():
    with pytest.raises(InputError, match="header"):
        parse_ohlcv_csv("date,open,high,low,close\n2024-01-31,10,11,9,10\n")


def test_parse_empty_after_header():
    with pytest.raises(InputError, match="no records"):
        parse_ohlcv_csv(HEADER + "\n")


def test_parse_rejects_nonpositive_price():
    text = rows("2024-01-31,0,11,0,10,90")
    with pytest.raises(InputError, match="positive"):
        parse_ohlcv_csv(text)


def test_parse_rejects_negative_volume():
    text = rows("2024-01-31,10,11,9,10,-5")
    with pytest.raises(InputError, match="volume"):
        parse_ohlcv_csv(text)


def test_parse_rejects_bad_date():
    text = rows("31/01/2024,10,11,9,10,90")
    with pytest.raises(InputError, match="date"):
        parse_ohlcv_csv(text)


def test_parse_rejects_wrong_field_count():
    text = rows("2024-01-31,10,11,9,10")
    with pytest.raises(InputError, match="6 fields"):
        parse_ohlcv_csv(text)


def test_parse_skips_blank_lines():
    text = rows("2024-01-31,10,11,9,10,90", "", "2024-02-01,10,11,9,10,90")
    assert parse_ohlcv_csv(text).n == 2


def test_parse_accepts_crlf():
    text = rows("2024-01-31,10,11,9,10,90").replace("\n", "\r\n")
    assert parse_ohlcv_csv(text).n == 1


def test_parse_rejects_lone_carriage_return():
    # a bare \r inside an unquoted field: csv.Error, raised as InputError
    text = rows("2024-01-31,10,11,9,10,90", "2024-02-01,10,1\r1,9,10,90")
    with pytest.raises(InputError, match="line 3: malformed CSV: new-line character seen in unquoted field"):
        parse_ohlcv_csv(text)


def test_parse_sets_symbol():
    text = rows("2024-01-31,10,11,9,10,90")
    series = parse_ohlcv_csv(text, symbol="AXP")
    assert series.symbol == "AXP"


@pytest.mark.parametrize(
    "token", ["20240131", "2024-W05-4", "2024-01-31T00", "2024-1-31", "０２０２-01-31", "0000-01-01"]
)
def test_parse_accepts_only_yyyy_mm_dd_dates(token, tmp_path, capsys):
    # Python 3.11's date.fromisoformat reads the first two as 2024-01-31
    # and 2024-02-01, and numpy's datetime64 reads year 0000; the format
    # (and Python 3.10) take YYYY-MM-DD from year 0001 only, on the C
    # pass, on a stream and on text the C pass declines (a quoted field)
    text = rows("2024-01-30,10,11,9,10,90", f"{token},10,11,9,10,90")
    for form in (text, io.StringIO(text), text.replace(",10,", ',"10",')):
        with pytest.raises(InputError) as raised:
            parse_ohlcv_csv(form)
        assert str(raised.value) == f"row 2: invalid date {token!r}"
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["ingest", str(path)]) == 2
    assert f"row 2: invalid date {token!r}" in capsys.readouterr().err


def test_field_rejects_unknown_name():
    series = parse_ohlcv_csv(rows("2024-01-31,10,11,9,10,90"))
    with pytest.raises(InputError, match="unknown field"):
        series.field("adj_close")


# ---------------------------------------------------------------------------
# returns


def _series(prices):
    lines = []
    day = 1
    for p in prices:
        lines.append(f"2024-01-{day:02d},{p},{p},{p},{p},100")
        day += 1
    return parse_ohlcv_csv(rows(*lines))


def test_simple_return():
    out = returns(_series([100.0, 110.0]), kind="simple")
    assert out.tolist() == pytest.approx([0.10], abs=1e-15)


def test_gross_return():
    out = returns(_series([100.0, 110.0]), kind="gross")
    assert out.tolist() == pytest.approx([1.10], abs=1e-15)


def test_constant_prices_simple_zero():
    out = returns(_series([50.0, 50.0, 50.0]), kind="simple")
    assert np.all(out == 0.0)


def test_log_return_values():
    out = log_returns(_series([100.0, 110.0]))
    assert out.tolist() == pytest.approx([math.log(1.1)], rel=1e-12)
    out = log_returns(_series([math.e, math.e**2]))
    assert out.tolist() == pytest.approx([1.0], rel=1e-12)


def test_returns_field_selection():
    text = rows(
        "2024-01-01,10,12,9,11,100",
        "2024-01-02,11,13,10,12,100",
    )
    series = parse_ohlcv_csv(text)
    got = returns(series, field="open", kind="gross")
    assert got.tolist() == pytest.approx([1.1], rel=1e-12)


def test_returns_reject_unknown_kind():
    with pytest.raises(InputError):
        returns(_series([1.0, 2.0]), kind="net")


def test_returns_require_two_records():
    with pytest.raises(InputError):
        returns(_series([1.0]))


def test_returns_reject_zero_volume_field():
    text = rows(
        "2024-01-01,10,12,9,11,0",
        "2024-01-02,11,13,10,12,100",
    )
    series = parse_ohlcv_csv(text)
    with pytest.raises(InputError, match="positive"):
        returns(series, field="volume")


def test_gross_minus_one_is_simple():
    series = _series([100.0, 103.0, 99.5, 101.25, 108.0])
    g = returns(series, kind="gross")
    s = returns(series, kind="simple")
    assert np.max(np.abs((g - 1.0) - s)) <= 1e-15


def test_exp_log_returns_is_gross():
    series = _series([100.0, 103.0, 99.5, 101.25, 108.0])
    g = returns(series, kind="gross")
    lr = log_returns(series)
    assert np.max(np.abs(np.exp(lr) / g - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# monthly subsampling


def test_monthly_last_two_months():
    text = rows(
        "2024-01-30,10,11,9,10,90",
        "2024-01-31,10,11,9,10.5,90",
        "2024-02-01,10,11,9,10.2,90",
    )
    out = monthly_last(parse_ohlcv_csv(text))
    assert out.n == 2
    assert [d.isoformat() for d in out.dates()] == ["2024-01-31", "2024-02-01"]


def test_monthly_last_idempotent():
    series = parse_ohlcv_csv(FIXTURE.read_text(encoding="utf-8"))
    once = monthly_last(series)
    twice = monthly_last(once)
    assert once == twice


def test_monthly_last_single_record():
    series = parse_ohlcv_csv(rows("2024-01-31,10,11,9,10,90"))
    assert monthly_last(series) == series


def test_monthly_last_preserves_symbol():
    series = parse_ohlcv_csv(rows("2024-01-31,10,11,9,10,90"), symbol="AXP")
    assert monthly_last(series).symbol == "AXP"


# ---------------------------------------------------------------------------
# serialization round-trip


def test_parse_serialize_parse_identity():
    text = rows(
        "2024-01-30,10.25,11.5,9.75,10.125,90",
        "2024-01-31,10.125,11,9.5,10.5,120",
    )
    first = parse_ohlcv_csv(text)
    again = parse_ohlcv_csv(ohlcv_csv(first))
    assert again == first


def test_fixture_parses_and_round_trips():
    text = FIXTURE.read_text(encoding="utf-8")
    series = parse_ohlcv_csv(text)
    assert series.n == 500
    assert parse_ohlcv_csv(ohlcv_csv(series)) == series
    # identities on real-shaped data
    g = returns(series, kind="gross")
    s = returns(series, kind="simple")
    assert np.max(np.abs((g - 1.0) - s)) <= 1e-15
    assert np.max(np.abs(np.exp(log_returns(series)) / g - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# the row-at-a-time parser as an oracle


def oracle_parse(text):
    """The row-at-a-time parser the columnar one replaced: the records it
    builds, or the message of the InputError it raises. It reads dates
    with date.fromisoformat alone, so the generated files below keep to
    forms every supported Python reads the same way."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert [h.strip().lower() for h in header] == HEADER.split(",")
    records, seen = [], set()
    for rownum, row in enumerate(reader, start=1):
        if not row or all(not tok.strip() for tok in row):
            continue
        if len(row) != 6:
            return f"row {rownum}: expected 6 fields, got {len(row)}"
        try:
            d = date.fromisoformat(row[0].strip())
        except ValueError:
            return f"row {rownum}: invalid date {row[0]!r}"
        try:
            o, h, l, c, v = (float(tok) for tok in row[1:])
        except ValueError:
            return f"row {rownum}: non-numeric price or volume"
        if not all(np.isfinite([o, h, l, c, v])):
            return f"row {rownum}: non-finite price or volume"
        if min(o, h, l, c) <= 0:
            return f"row {rownum}: prices must be positive"
        if v < 0:
            return f"row {rownum}: volume must be nonnegative"
        if not (l <= min(o, c) and max(o, c) <= h):
            return f"row {rownum}: price bounds violated (need low <= open,close <= high)"
        if d in seen:
            return f"row {rownum}: duplicate date {d.isoformat()}"
        seen.add(d)
        records.append(OhlcvRecord(date=d, open=o, high=h, low=l, close=c, volume=v))
    if not records:
        return "no records"
    return tuple(sorted(records, key=lambda r: r.date))


def parsed(text):
    """What parse_ohlcv_csv gives, in the oracle's terms."""
    try:
        return parse_ohlcv_csv(text).records
    except InputError as exc:
        return str(exc)


def test_fixture_matches_oracle():
    text = FIXTURE.read_text(encoding="utf-8")
    want = oracle_parse(text)
    assert isinstance(want, tuple) and len(want) == 500
    series = parse_ohlcv_csv(text)
    assert series.records == want
    assert series.dates() == [r.date for r in want]
    for name in ("open", "high", "low", "close", "volume"):
        assert series.field(name).tolist() == [getattr(r, name) for r in want]


BAD_TOKENS = {
    "date": ["2024-13-01", "2023-02-29", "31/01/2024", "", "x", "0000-01-01", "2024-00-10", "2024/01/05"],
    "number": ["abc", "", "1.2.3", "0x10", "1e"],
    "finite": ["nan", "inf", "-inf", "1e400", "NaN"],
    "positive": ["0", "-1", "-0.0", "-1e-300"],
    "volume": ["-5", "-1e-300", "-1e300"],
}


def add_fault(rnd, fields, dates):
    """The six tokens of a row rewritten so that one randomly chosen check
    fails there (an earlier check of the same row may fail as well)."""
    f = list(fields)
    kind = rnd.choice(["fields", "date", "number", "finite", "positive", "volume", "bounds", "duplicate"])
    if kind == "fields":
        return rnd.choice([f[:1], f[:5], f + ["1"]])
    if kind == "date":
        f[0] = rnd.choice(BAD_TOKENS["date"])
    elif kind == "duplicate":
        f[0] = rnd.choice(dates)
    elif kind == "bounds":
        o, h, l, c = (float(t) for t in f[1:5])
        k, value = rnd.choice([(3, h * 1.01), (2, l * 0.99), (4, h * 1.5), (1, l * 0.5)])
        f[k] = repr(value)
    else:
        k = {"volume": 5, "positive": rnd.randrange(1, 5)}.get(kind, rnd.randrange(1, 6))
        f[k] = rnd.choice(BAD_TOKENS[kind])
    return f


def _valid_fields(rnd, day):
    low = rnd.uniform(5.0, 50.0)
    high = low * rnd.uniform(1.0, 1.1)
    o, c = rnd.uniform(low, high), rnd.uniform(low, high)
    return [day.isoformat(), repr(o), repr(high), repr(low), repr(c), str(rnd.randrange(0, 10**6))]


def malformed_file(seed):
    """A 30-row file, shuffled dates, with one to three faults and a few
    blank or whitespace-only rows."""
    rnd = random.Random(seed)
    days = [date.fromordinal(date(2023, 12, 20).toordinal() + k) for k in range(30)]
    rnd.shuffle(days)
    table = [_valid_fields(rnd, d) for d in days]
    dates = [f[0] for f in table]
    for _ in range(rnd.randint(1, 3)):
        k = rnd.randrange(len(table))
        table[k] = add_fault(rnd, table[k], dates)
    lines = [",".join(f) for f in table]
    for _ in range(rnd.randint(0, 3)):
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["", "  ", " , ,,, ,", "\t"]))
    return HEADER + "\n" + "\n".join(lines) + "\n"


def test_malformed_files_match_oracle():
    reported = set()
    for seed in range(400):
        text = malformed_file(seed)
        want = oracle_parse(text)
        assert parsed(text) == want, (seed, text)
        if isinstance(want, str):
            reported.add(want.split(": ", 1)[1].split(" ")[0])
    # every check is the one reported somewhere in the set
    assert reported == {"expected", "invalid", "non-numeric", "non-finite", "prices",
                        "volume", "price", "duplicate"}


@pytest.mark.parametrize(
    "text",
    [
        rows("2024-01-31,10,11,9,10,90", "", "   ", "2024-02-01,10,11,9,10,90"),
        rows("", " , , , , , ", "2024-02-01,10,11,9,10,90", "\t"),
        rows("2024-01-31,10,11,9,10,90", "2024-02-01,10,11,9,10,90").replace("\n", "\r\n"),
        rows("2024-02-01,10,11,9,10,90", "", "2024-01-31,10,11,9,xx,90").replace("\n", "\r\n"),
        rows('"2024-01-31","10","11","9","10.5","90"', '" 2024-02-01 ",10,11,9,"10",90'),
        rows('2024-01-31,"10,5",11,9,10,90'),
        rows('"2024-01-31,10",11,9,10,90'),
        rows('2024-01-31,10,11,9,10,"9\n0"'),
        rows("", ""),
        rows(" , "),
        # a duplicate date before an earlier row's price error, and after it
        rows("2024-01-02,10,11,9,10,90", "2024-01-02,10,11,9,10,90", "2024-01-03,0,11,9,10,90"),
        rows("2024-01-02,10,11,9,10,90", "2024-01-03,0,11,9,10,90", "2024-01-02,10,11,9,10,90"),
        rows("2024-01-03,10,11,9,10,90", "2024-01-02,10,11,9,12,90", "2024-01-02,10,11,9,10,90"),
        # several checks failing on one row: the first check is named
        rows("2024-01-02,10,11,9,10,90", "2024-01-02,nan,11,0,10,-1"),
        rows("2024-01-02,10,11,9,10,90", "2024-01-02,1,0.5,0,10,-1"),
        rows("2024-01-02,10,11,9,10,90", "2024-01-02,10,11,9,12,-1"),
        rows("2024-01-02,10,11,9,10,90", "2024-13-02,xx,11,9,10"),
    ],
)
def test_edge_files_match_oracle(text):
    assert parsed(text) == oracle_parse(text)


def test_series_storage_is_read_only():
    series = parse_ohlcv_csv(FIXTURE.read_text(encoding="utf-8"))
    with pytest.raises(ValueError):
        series.field("close")[0] = 1.0
    with pytest.raises(ValueError):
        series.days[0] = series.days[1]
    assert hash(series) == hash(parse_ohlcv_csv(FIXTURE.read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# the C pass against the csv path


def csv_path_parse(text, monkeypatch):
    """parse_ohlcv_csv with the C pass declining every input."""
    with monkeypatch.context() as patch:
        patch.setattr(ohlcv, "_c_columns", lambda text: None)
        return parse_ohlcv_csv(text)


class CsvReaderCalled(Exception):
    pass


def c_pass_parse(text_or_stream, monkeypatch):
    """parse_ohlcv_csv with csv.reader raising, so that an input the C
    pass declines fails here instead of falling back."""
    def refuse(*args, **kwargs):
        raise CsvReaderCalled

    with monkeypatch.context() as patch:
        patch.setattr(csv, "reader", refuse)
        return parse_ohlcv_csv(text_or_stream)


def _pad(rnd, token):
    return rnd.choice(["", " ", "\t", "  ", " \t"]) + token + rnd.choice(["", " ", "\t", "\t "])


def _number(rnd, x):
    """A token float reads as x: repr, or an exponent form."""
    return rnd.choice([repr, "{:.16e}".format, "{:.17E}".format, "{:.17g}".format])(x)


def valid_file(seed, pad=True):
    """A valid file of 1 to 40 rows with shuffled dates, 17-digit and
    exponent-form numbers padded with spaces or tabs, blank and
    whitespace-only rows, and a mixed-case header with spaces. With
    ``pad=False`` nothing is padded and the blank rows are empty."""
    rnd = random.Random(seed)
    padded = _pad if pad else lambda rnd, token: token
    scale = rnd.choice([1.0, 1e-5, 1e17])
    days = [date.fromordinal(date(1999, 12, 20).toordinal() + k) for k in range(rnd.randint(1, 40))]
    rnd.shuffle(days)
    lines = []
    for day in days:
        low = rnd.uniform(5.0, 50.0) * scale
        high = low * rnd.uniform(1.0, 1.1)
        o, c = rnd.uniform(low, high), rnd.uniform(low, high)
        volume = rnd.choice([str(rnd.randrange(0, 10**6)), "1e-05", "1.5E+3", "0", _number(rnd, rnd.uniform(0, 1e9))])
        fields = [padded(rnd, day.isoformat())] + [padded(rnd, _number(rnd, x)) for x in (o, high, low, c)]
        lines.append(",".join(fields + [padded(rnd, volume)]))
    for _ in range(rnd.randint(0, 3)):
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["", "  ", "\t", " , ,,, ,", ",,,,,"]) if pad else "")
    header = ",".join(padded(rnd, "".join(rnd.choice([ch, ch.upper()]) for ch in name)) for name in HEADER.split(","))
    return header + "\n" + "\n".join(lines) + rnd.choice(["", "\n"])


def assert_bitwise_equal(got, want):
    assert isinstance(got, PriceSeries) and got == want
    assert got.days.tobytes() == want.days.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.values.strides == want.values.strides


def test_c_pass_matches_csv_path(monkeypatch):
    texts = [FIXTURE.read_text(encoding="utf-8")] + [valid_file(seed) for seed in range(200)]
    for text in texts:
        want = csv_path_parse(text, monkeypatch)
        assert_bitwise_equal(c_pass_parse(text, monkeypatch), want)
        assert_bitwise_equal(parse_ohlcv_csv(io.StringIO(text)), want)
        assert_bitwise_equal(parse_ohlcv_csv(text), want)


def test_fixture_takes_the_c_pass(monkeypatch):
    text = FIXTURE.read_text(encoding="utf-8")
    assert c_pass_parse(text, monkeypatch).n == 500
    with open(FIXTURE, encoding="utf-8") as fh:
        assert_bitwise_equal(parse_ohlcv_csv(fh), csv_path_parse(text, monkeypatch))


@pytest.mark.parametrize(
    "text",
    [
        rows('"2024-01-31","10","11","9","10.5","90"', '2024-02-01,10,11,9,10,90'),
        rows("2024-01-31,1_0,11,9,10,90"),
        rows("2024-01-31,１０,11,9,10,90"),
        rows("2024-01-31,10,11,9,10,90", "2024-02-01,10,11,9,10,90").replace("\n", "\r\n"),
        rows('"2024-01-31\n",10,11,9,10,90', '2024-02-01,10,11,9," 10\n",90'),
        # np.loadtxt strips \x1c-\x1f around a number, float refuses it
        rows("2024-01-31,10,11,9,10,90\x1c"),
        rows("2024-01-31,10,11,9,10,\x1f90", "2024-02-01,10,11,9,10,90"),
    ],
)
def test_files_the_c_pass_declines_match_oracle(text, monkeypatch):
    with pytest.raises(CsvReaderCalled):
        c_pass_parse(text, monkeypatch)
    assert parsed(text) == oracle_parse(text)


def test_field_over_csv_limit_is_still_refused():
    text = rows("2024-01-31,10,11,9,10," + "0" * csv.field_size_limit() + "90")
    with pytest.raises(InputError, match="^line 2: malformed CSV: field larger than field limit"):
        parse_ohlcv_csv(text)


@pytest.mark.parametrize("wrap", [str, io.StringIO])
def test_parse_drops_one_leading_byte_order_mark(wrap):
    text = FIXTURE.read_text(encoding="utf-8")
    assert parse_ohlcv_csv(wrap("\ufeff" + text)) == parse_ohlcv_csv(text)
    with pytest.raises(InputError, match="bad header"):
        parse_ohlcv_csv(wrap("\ufeff\ufeff" + text))


def test_iterables_of_lines_are_read_as_csv_reader_reads_them(monkeypatch):
    lines = rows("2024-01-31,10,11,9,10,90", "2024-02-01,10,11,9,10.5,90").splitlines()
    # lines without their LFs, and one line holding two
    assert parse_ohlcv_csv(lines) == parse_ohlcv_csv("\n".join(lines))
    with pytest.raises(InputError, match="new-line character seen in unquoted field"):
        parse_ohlcv_csv(["\n".join(lines)])
    with pytest.raises(InputError, match="malformed CSV: iterator should return strings, not bytes"):
        parse_ohlcv_csv(io.BytesIO("\n".join(lines).encode()))


# ---------------------------------------------------------------------------
# the kernel pass against the csv path


class LoadtxtCalled(Exception):
    pass


def kernel_parse(text, monkeypatch):
    """parse_ohlcv_csv with np.loadtxt and csv.reader raising, so that a
    text the kernel pass declines fails here instead of falling back."""
    def refuse(*args, **kwargs):
        raise LoadtxtCalled

    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        return c_pass_parse(text, monkeypatch)


def gh_compare_file(rows, seed=0):
    """A file shaped like the benchmark's compare input: a price path of
    Student-t log returns, prices written with %.17g and integer volumes,
    one row a day from 1990-01-01."""
    rng = np.random.default_rng(seed)
    close = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(0.01 * rng.standard_t(4, rows - 1)))))
    opn = np.concatenate(([100.0], close[:-1]))
    high = np.maximum(opn, close) * np.exp(np.abs(rng.normal(0.0, 0.002, rows)))
    low = np.minimum(opn, close) * np.exp(-np.abs(rng.normal(0.0, 0.002, rows)))
    volume = rng.integers(1000, 1_000_000, rows)
    days = np.datetime64("1990-01-01") + np.arange(rows)
    lines = [f"{d},{o:.17g},{h:.17g},{lo:.17g},{c:.17g},{v}"
             for d, o, h, lo, c, v in zip(days.astype(str), opn, high, low, close, volume)]
    return HEADER + "\n" + "\n".join(lines) + "\n"


def test_kernel_pass_matches_csv_path(monkeypatch):
    texts = [valid_file(seed, pad=False) for seed in range(200)] + [gh_compare_file(5000)]
    for text in texts:
        want = csv_path_parse(text, monkeypatch)
        assert_bitwise_equal(kernel_parse(text, monkeypatch), want)
        assert_bitwise_equal(parse_ohlcv_csv(text), want)


def outcome(parse, text):
    """The series parse gives, or the text of its InputError."""
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


LONG = "0" * csv.field_size_limit()


@pytest.mark.parametrize(
    "text, taken",
    [
        (rows("2024-01-30,10,11,9,10,90", "2024-1-05,10,11,9,10,90"), False),
        (rows("2024-01-30,10,11,9,10,90", "0000-01-01,10,11,9,10,90"), False),
        (rows("2024-01-30,10,11,9,10,90", "2024-02-30,10,11,9,10,90"), False),
        (rows("2024-01-30,10,11,9,10,90", "202٤-01-05,10,11,9,10,90"), False),
        (rows("2024-01-30,10,11,9,10,90", "2024-01-31,10,11,9,10"), False),
        (rows("2024-01-30,10,11,9,10,90", "2024-01-31,10,11,9,10,90,1"), False),
        (rows("2024-01-30,10,11,9,10,90", "2024-01-31,10,inf,9,10,90"), False),
        (rows("2024-01-30,10,11,9,10,90", "2024-01-31,1_0,11,9,10,90"), False),
        (rows("2024-01-30,+.5,11,.5,5.,1e-05", "2024-01-31,10,11,9,10,90"), True),
        (rows("2024-01-30,10,11,9,10,90", "", "", "2024-01-31,10,11,9,10.5,90", ""), True),
        (rows("2024-01-30,10,11,9,10,90", "", "2024-01-31,0,11,9,10,90"), True),
        (rows("2024-01-30,10,11,9,10,90", "", "2024-01-31,xx,11,9,10,90"), False),
        (rows("2024-01-30,10,11,9,10,90", "2024-01-31,10,11,9,10,90").removesuffix("\n"), True),
        (rows("2024-01-30,10,11,9,10,90", "2024-01-31,10,11,9,10,").removesuffix("\n"), False),
        (rows("2024-01-30,10,11,9,10,90", f"2024-01-31,10,11,9,10,{LONG}90"), False),
    ],
)
def test_kernel_pass_edges_match_csv_path(text, taken, monkeypatch):
    # each case reads to the csv path's series or error, on the kernel
    # pass where taken and through np.loadtxt or the csv path where not
    want = outcome(lambda t: csv_path_parse(t, monkeypatch), text)
    assert (ohlcv._kernel_columns(text) is not None) == taken
    got = outcome(parse_ohlcv_csv, text)
    if isinstance(want, str):
        assert got == want
    else:
        assert_bitwise_equal(got, want)
    if taken:
        assert outcome(lambda t: kernel_parse(t, monkeypatch), text) == got


def test_kernel_pass_names_the_row_after_a_blank_one():
    # data row numbers count the empty rows the kernel pass skips
    text = rows("2024-01-30,10,11,9,10,90", "", "2024-01-31,0,11,9,10,90")
    with pytest.raises(InputError, match="^row 3: prices must be positive$"):
        parse_ohlcv_csv(text)


def test_mutated_plain_files_read_as_the_csv_path_reads_them(monkeypatch):
    # one to three byte edits of a plain file the kernel pass takes, from
    # an alphabet of the bytes its checks turn on: each text gives the csv
    # path's series or error text, whichever reader takes it
    base = rows("2024-01-30,10,11,9,10,90", "2024-01-31,10.5,11,9,10,1e3", "",
                "2024-02-01,+.5,1,.5,.75,0", "2024-02-29,1.5e1,16,14,15.,7")
    alphabet = list("0123456789,-\n.+eE \t\r\"x_٤") + ["inf", "0000", "\n\n", ",,"]
    rnd = random.Random(39)
    taken = 0
    for _ in range(3000):
        text = base
        for _ in range(rnd.randint(1, 3)):
            i, edit = rnd.randrange(len(text) + 1), rnd.random()
            tail = text[i + 1:] if edit < 0.6 else text[i:]
            text = text[:i] + (rnd.choice(alphabet) if edit >= 0.3 else "") + tail
        taken += ohlcv._kernel_columns(text) is not None
        want = outcome(lambda t: csv_path_parse(t, monkeypatch), text)
        got = outcome(parse_ohlcv_csv, text)
        if isinstance(want, str):
            assert got == want, text
        else:
            assert_bitwise_equal(got, want)
    assert taken > 100
