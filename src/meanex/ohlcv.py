"""Daily OHLCV ingestion and return-series construction.

Input format: CSV with header exactly

    date,open,high,low,close,volume

Dates in the form YYYY-MM-DD from year 0001 and nothing else (surrounding
whitespace is ignored; 20240131, 2024-W05-4 and 0000-01-01 are refused
on every Python), positive prices satisfying
low <= min(open, close) <= max(open, close) <= high, nonnegative volume.
Duplicate dates are rejected; records are sorted by date on ingest.
Empty and whitespace-only rows are skipped. Errors carry the 1-based
data row number of the first bad row in file order.

A str is read in one C pass where it is plain (no quote, no CR and no
U+001C-U+001F, six comma fields on every row): its five number columns
come from one ``np.loadtxt`` call, which reads every token it takes to
the bits Python's float gives, and its dates from one regex call. Text
the C pass declines, and any stream or other iterable of lines, takes
the csv path: one loop over the ``csv.reader`` rows in file order, each
number read with float, which stops at the first row whose field count,
date or numbers are bad and words that error. Both paths hand their
columns to one set of column checks, so a file gives the same series or
the same error on either. A PriceSeries stores the sorted dates as one
datetime64[D] array and the five fields as one read-only 5 x n float
array; ``records`` builds the per-row OhlcvRecord view on demand.

Returns are computed from closes: gross R_t = P_t / P_{t-1}, simple
R_t - 1, and log returns log(P_t / P_{t-1}), so a series of m records
yields m-1 returns.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import date as _date
from itertools import compress, count, repeat
from operator import itemgetter, not_

import numpy as np

from .errors import InputError

__all__ = [
    "OhlcvRecord",
    "PriceSeries",
    "parse_ohlcv_csv",
    "returns",
    "log_returns",
    "monthly_last",
]

_HEADER = ["date", "open", "high", "low", "close", "volume"]
_FIELDS = _HEADER[1:]


@dataclass(frozen=True)
class OhlcvRecord:
    date: _date
    open: float
    high: float
    low: float
    close: float
    volume: float


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """A date-sorted OHLCV series held as columns: ``days``, the dates as
    datetime64[D], and ``values``, a read-only 5 x n float array with one
    row per field in header order (open, high, low, close, volume).

    ``field(name)`` returns that field's row, itself read-only; ``records``
    and ``dates()`` build the per-record views on demand. Two series are
    equal when their symbols, dates and values are."""

    days: np.ndarray
    values: np.ndarray
    symbol: str = ""

    def __post_init__(self):
        self.days.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def n(self) -> int:
        return self.days.size

    @property
    def records(self) -> tuple:
        return tuple(map(OhlcvRecord, self.dates(), *self.values.tolist()))

    def field(self, name: str) -> np.ndarray:
        if name not in _FIELDS:
            raise InputError(f"unknown field {name!r}; expected one of {_FIELDS}")
        return self.values[_FIELDS.index(name)]

    def dates(self) -> list:
        return self.days.tolist()

    def __eq__(self, other):
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return (
            self.symbol == other.symbol
            and np.array_equal(self.days, other.days)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.symbol, self.records))


# a date token, once stripped, is a line that reads YYYY-MM-DD in ASCII
# digits from year 0001: Python 3.11's date.fromisoformat alone would also
# take 20240131 and 2024-W05-4, and numpy's datetime64 year 0000
_DATE = re.compile(r"^(?!0000)[0-9]{4}-[0-9]{2}-[0-9]{2}$", re.MULTILINE)


def _days(tokens) -> np.ndarray:
    """datetime64[D] days of the C pass's date tokens, checked in one
    regex call over the tokens joined at LF; ValueError when a token has
    another form or names no date."""
    stripped = list(map(str.strip, tokens))
    if len(_DATE.findall("\n".join(stripped))) != len(stripped):
        raise ValueError("date not in YYYY-MM-DD form")
    return np.array(stripped, dtype="datetime64[D]")


def _is_header(fields) -> bool:
    return [f.strip().lower() for f in fields] == _HEADER


def _first(mask) -> int:
    """Index of the first True of a boolean vector, its length if none."""
    return int(mask.argmax()) if mask.any() else mask.size


# characters of a line the C pass declines: csv.reader reads a quote or a
# CR apart, and np.loadtxt strips \x1c-\x1f around a number where float
# refuses the number
_DECLINED = '"\r\x1c\x1d\x1e\x1f'


def _c_columns(text):
    """The C pass: the dates, the 5 x n numbers and the data row numbers
    of the kept rows of the text, or None where it declines the text (a
    declined character, a line longer than csv's field limit, a bad
    header, no rows, a row of other than six fields, a non-blank row
    whose first field is blank, a date or a number token it cannot read),
    so that the csv path reads it and words the error. The text splits
    at LF into the lines csv.reader would read."""
    if any(ch in text for ch in _DECLINED):
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    if not _is_header(lines[0].split(",")):
        return None
    body = lines[1:]
    heads = list(map(itemgetter(0), map(str.partition, body, repeat(","))))
    # rows of a blank first field are skipped where they are commas and
    # whitespace only, as on the csv path; the csv path words any other
    kept = list(map(bool, map(str.strip, heads)))
    if any(line.replace(",", "").strip() for line in compress(body, map(not_, kept))):
        return None
    rows = list(compress(body, kept))
    if not rows or set(map(str.count, rows, repeat(","))) != {5}:
        return None
    try:
        days = _days(list(compress(heads, kept)))
        values = np.loadtxt(rows, delimiter=",", usecols=(1, 2, 3, 4, 5), comments=None, ndmin=2)
    except ValueError:
        return None
    return days, values.T, list(compress(count(1), kept))


def _csv_columns(reader):
    """The csv path, one loop over the rows in file order: the dates and
    the 5 x n numbers of the rows before the first row whose field count,
    date or numbers are bad, the data row number of each kept row up to
    that one, and that bad row's error (None if every row is read)."""
    try:
        header = next(reader, None)
        if header is None:
            raise InputError("no records: input is empty")
        if not _is_header(header):
            raise InputError(f"bad header: expected {','.join(_HEADER)}")
        rows = list(reader)
    except csv.Error as exc:  # a lone carriage return, a field over csv's size limit
        raise InputError(f"line {reader.line_num}: malformed CSV: {exc}") from None
    dates, numbers, rownums, error = [], [], [], None
    for rownum, row in enumerate(rows, start=1):
        if not "".join(row).strip():  # empty and whitespace-only rows are skipped
            continue
        rownums.append(rownum)
        if len(row) != 6:
            error = f"expected 6 fields, got {len(row)}"
            break
        token = row[0].strip()
        try:
            if not _DATE.fullmatch(token):
                raise ValueError
            day = _date.fromisoformat(token)
        except ValueError:
            error = f"invalid date {row[0]!r}"
            break
        try:
            numbers.extend(map(float, row[1:]))
        except ValueError:
            del numbers[5 * len(dates):]  # the bad row's numbers before its bad one
            error = "non-numeric price or volume"
            break
        dates.append(day)
    if not rownums:
        raise InputError("no records")
    return np.array(dates, dtype="datetime64[D]"), np.array(numbers, dtype=float).reshape(-1, 5).T, rownums, error


def _checked(days, values, rownums, error=None, symbol=""):
    """The PriceSeries of the rows read, or the InputError naming the
    first bad row: the first row a column check fails (finiteness,
    positive prices, volume, price bounds, duplicate date), else the row
    after the last one read, whose error is ``error``."""
    n = days.size
    o, h, l, c, v = values
    order = np.argsort(days, kind="stable")
    sorted_days = days[order]
    repeated = np.zeros(n, dtype=bool)  # rows whose date an earlier row has
    repeated[order[1:][sorted_days[1:] == sorted_days[:-1]]] = True
    checks = (
        (~np.isfinite(values).all(axis=0), "non-finite price or volume"),
        ((values[:4] <= 0).any(axis=0), "prices must be positive"),
        (v < 0, "volume must be nonnegative"),
        (~((l <= np.minimum(o, c)) & (np.maximum(o, c) <= h)),
         "price bounds violated (need low <= open,close <= high)"),
        (repeated, "duplicate date {day}"),
    )
    i = _first(np.logical_or.reduce([mask for mask, _ in checks]))
    if i < n:
        n, error = i, next(msg for mask, msg in checks if mask[i]).format(day=days[i])
    if error is not None:
        raise InputError(f"row {rownums[n]}: {error}")
    return PriceSeries(sorted_days, values[:, order], symbol)


def parse_ohlcv_csv(text_or_stream, symbol: str = "") -> PriceSeries:
    """Parse OHLCV CSV from a string or text stream into a PriceSeries.

    One leading byte-order mark is dropped, and a second is part of the
    header. A str takes the C pass, and the csv path's row loop only
    where the C pass declines it; a stream or other iterable of lines
    always takes the row loop. The columns read are then checked a
    column at a time. Each check runs over the rows before the first bad
    row found so far, in the order the checks apply within a row (field
    count, date, numbers, finiteness, positive prices, volume, price
    bounds, duplicate date), so the InputError names the first bad row
    in file order and the first check that row fails."""
    if isinstance(text_or_stream, str):
        text = text_or_stream.removeprefix("\ufeff")
        columns = _c_columns(text)
        if columns is not None:
            return _checked(*columns, symbol=symbol)
        lines = io.StringIO(text)
    else:  # the lines csv.reader would take from the stream
        lines = list(text_or_stream)
        if lines and isinstance(lines[0], str):
            lines[0] = lines[0].removeprefix("\ufeff")
    return _checked(*_csv_columns(csv.reader(lines)), symbol=symbol)


def _positive_field(series: PriceSeries, field: str) -> np.ndarray:
    p = series.field(field)
    if p.size < 2:
        raise InputError("returns require at least two records")
    if np.any(p <= 0):
        raise InputError(f"returns require positive {field} values")
    return p


def returns(series: PriceSeries, field: str = "close", kind: str = "gross") -> np.ndarray:
    """Period-over-period returns of a price field.

    kind 'gross': P_t / P_{t-1}; kind 'simple': P_t / P_{t-1} - 1.
    """
    if kind not in ("gross", "simple"):
        raise InputError(f"unknown return kind {kind!r}; expected 'gross' or 'simple'")
    p = _positive_field(series, field)
    gross = p[1:] / p[:-1]
    return gross if kind == "gross" else gross - 1.0


def log_returns(series: PriceSeries, field: str = "close") -> np.ndarray:
    p = _positive_field(series, field)
    return np.diff(np.log(p))


def monthly_last(series: PriceSeries) -> PriceSeries:
    """Keep only the last record of each calendar month."""
    month = series.days.astype("datetime64[M]")
    last = np.append(month[1:] != month[:-1], True)
    return PriceSeries(series.days[last], series.values[:, last], series.symbol)
