"""CSV emission for curves, bands, fits, and experiment reports.

All emitters produce deterministic UTF-8 text with LF line endings and
numbers formatted with %.12g, so identical inputs yield byte-identical
files. Undefined values appear as nan, infinities as inf and -inf, and
negative zero as -0.

Tables are formatted in blocks of about ``_BLOCK`` values: ``_blocks``
interleaves a block of the columns row by row into one float array and
writes it with the decimal-text kernel ``_decimal_text``, which
``svgplot`` uses for its ``%.2f`` path coordinates too. ``table`` and the
table emitters join the blocks; the CLI writes them as they are made, so
its memory does not grow with the row count.

The kernel writes each value from exact integer digits. For ``%.12g``,
``_g12_words`` takes the value's 12-digit significand m = rint(|v| 10^q)
from one correctly rounded multiply by an exact power of ten (q from a
guess of the decimal exponent, 0 <= q <= 15) and certifies it: the
rounded product s is at least 1e11, m is below 1e12, and s lies at
least 2^-13 from a rounding tie. The exact product is within half an
ulp of s, at most 2^-14 below 2^40, so it rounds to m as well, and m is
the 12-digit significand ``%`` writes, with the decimal exponent 11 - q,
whatever the guess was: a guess one decade off gives a product of 11 or
13 digits, which is never certified. For ``%.2f`` it is the
count of hundredths that ``_hundredths`` certifies. The digits are laid
out in 4-byte words looked up in ``_WORDS`` (sign, integer part, '.',
fraction; ``%g``'s trailing zeros are cut), with NUL where a word has
no character, and a block is one ``take`` of its word indices followed
by one ``bytes.translate`` that deletes the NULs. A value the kernel
does not certify (near a tie, zero, not finite, or, for ``%.12g``, with
a decimal exponent outside the fixed notation's [-4, 11]) is written by
Python's ``%`` with the same template, from a placeholder in the block.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .gpdfit import GpdParams, OlsFit
from .montecarlo import ExperimentReport
from .ohlcv import PriceSeries
from .types import Band, MefCurve

__all__ = [
    "fmt",
    "curve_csv",
    "band_csv",
    "fit_csv",
    "experiment_csv",
    "compare_csv",
    "ohlcv_csv",
    "write_text",
]

_BLOCK = 4096  # values (rows times columns) per block of a table, and points per block of an SVG path


def fmt(x: float) -> str:
    return "%.12g" % float(x)


def _word_table():
    """The uint32 words of the kernel and where each kind starts.

    A word is four ASCII bytes, NUL where it writes nothing. First come
    the prefixes, each followed by the same prefix with "-" appended,
    then the placeholders; then, for each count g of a four-digit group,
    the group in full ("0042"), with its leading zeros cut ("42",
    nothing for 0), with its leading zeros cut but one ("42", "0" for 0)
    and with its trailing zeros cut; "." and three digits in full and
    cut of trailing zeros ("" for 0); "." and two digits."""
    d = (np.arange(10_000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    d += ord("0")
    zero = d == ord("0")
    lead = np.cumprod(zero, axis=1, dtype=bool)
    trail = np.cumprod(zero[:, ::-1], axis=1, dtype=bool)[:, ::-1]
    dot3 = d[:1000].copy()
    dot3[:, 0] = ord(".")
    dot2 = np.zeros((100, 4), np.uint8)
    dot2[:, :3] = dot3[:100, [0, 2, 3]]
    first = [b"", b"-", b",", b",-", b"\n", b"\n-", b" L", b" L-", b" M", b" M-", b"%.12", b"g", b"%.2f"]
    kinds = {
        "first": np.frombuffer(b"".join(w.ljust(4, b"\0") for w in first), np.uint8).reshape(-1, 4),
        "full": d,
        "lead": np.where(lead, 0, d),
        "lead0": np.where(lead & (np.arange(4) < 3), 0, d),
        "trail": np.where(trail, 0, d),
        "dot3": dot3,
        "dot3t": np.where(trail[:1000] | (np.arange(1000) == 0)[:, None], 0, dot3),
        "dot2": dot2,
    }
    at = np.cumsum([0] + [len(k) for k in kinds.values()])
    return np.concatenate(list(kinds.values())).view(np.uint32).ravel(), dict(zip(kinds, at.tolist()))


_WORDS, _AT = _word_table()
_NUL, _COMMA, _NL, _L, _M = 0, 2, 4, 6, 8  # prefix words; each + 1 appends "-"
_G12, _F2 = (10, 11), (12,)  # the placeholders "%.12" "g" and "%.2f"
_P10 = 10.0 ** np.arange(16)  # exact
_P4 = np.array([[1e12], [1e8], [1e4], [1.0]])  # the last digit of each group of four
# A group's word is its count plus a base, plus a step where a group before
# it (integer part) or after it (fraction) is not 0: the last integer group
# keeps one "0", the first fraction group is "." and three digits.
_IBASE = np.array([[_AT["lead"]], [_AT["lead"]], [_AT["lead0"]]], dtype=float)
_ISTEP = np.array([[_AT["full"] - _AT["lead"]], [_AT["full"] - _AT["lead0"]]], dtype=float)
_FBASE = np.array([[_AT["dot3t"]], [_AT["trail"]], [_AT["trail"]], [_AT["trail"]]], dtype=float)
_FSTEP = np.array([[_AT["dot3"] - _AT["dot3t"]], [_AT["full"] - _AT["trail"]], [_AT["full"] - _AT["trail"]]], dtype=float)


def _integer_words(ip, ok, extra):
    """An (1 + k + extra, n) float array of word rows whose rows 1 to k
    hold the integer parts ip (below 1e12) of the certified values, one
    group of four digits a row, in as few rows as the largest needs.
    Row 0 is left for the prefix and the last ``extra`` rows for the
    fraction."""
    top = np.max(ip, where=ok, initial=0.0)
    k = 1 + int(top >= 1e4) + int(top >= 1e8)
    words = np.empty((1 + k + extra, ip.size))
    above = np.floor(ip / _P4[4 - k:])  # ip down to the last digit of each group
    g = words[1:1 + k]
    g[0] = above[0]
    np.subtract(above[1:], 1e4 * above[:-1], out=g[1:])
    g += _IBASE[3 - k:]
    g[1:] += (above[:-1] > 0.0) * _ISTEP[3 - k:]
    return words


def _exponent_guess(a):
    """floor(log10(a)): a guess of the decimal exponent of each a, which
    only picks the power of ten ``_g12_words`` then certifies."""
    return np.floor(np.log10(a))


def _g12_words(v):
    """(words, ok): the word rows of each "%.12g" % v[i] in column i, and
    where they are certified (see the module docstring).

    The fixed notation of a 12-digit significand m with decimal exponent
    11 - q has the integer part ip = floor(m / 10^q) (12 digits at most)
    and the fraction f = (m - ip 10^q) 10^(15 - q) (15 digits, in groups
    of three, four, four and four). Every step is exact on integers
    below 2^53."""
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # 10^q for a guess 11 - q of the decimal exponent, clipped to q in [0, 15]
        p = _P10.take((11.0 - _exponent_guess(a)).astype(np.intp), mode="clip")
        s = a * p
        m = np.rint(s)
        ok = (s >= 1e11) & (m < 1e12) & (np.abs(s - m) <= 0.5 - 2.0 ** -13)
        ip = np.floor(m / p)
        words = _integer_words(ip, ok, 4)
        f = (m - ip * p) * (1e15 / p)
        above = np.floor(f / _P4)
        g = words[-4:]
        g[0] = above[0]
        np.subtract(above[1:], 1e4 * above[:-1], out=g[1:])
        g += _FBASE
        g[:3] += (f > above[:3] * _P4[:3]) * _FSTEP  # the last group has none after it
    return words, ok


def _hundredths(v):
    """k = rint(100 v) as int64 bits, and where it is exact.

    For finite |v| < 1e7, 100 v is within 1e-7 of its exact value, so
    wherever it is more than 1e-6 from a rounding tie, k is the count of
    hundredths ``"%.2f" % v`` writes, and its sign bit is the sign that
    text carries ("-0.00" from below zero). Two exact points write the
    same text exactly when their k bits are equal."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = 100.0 * v
        k = np.rint(s)
        exact = (np.abs(s - k) < 0.5 - 1e-6) & (np.abs(v) < 1e7)
    return k.view(np.int64), exact


def _f2_words(k, ok):
    """(words, ok): the word rows of each "%.2f" text in column i, from
    the hundredths keys k of the values and where they are certified,
    as ``_hundredths`` gives them: the integer part, then "." and the
    two digits of the hundredths count."""
    h = np.abs(k.view(np.float64))
    with np.errstate(invalid="ignore"):
        ip = np.floor(h / 100.0)
        words = _integer_words(ip, ok, 1)
        words[-1] = h - 100.0 * ip + _AT["dot2"]
    return words, ok


def _decimal_text(words, ok, v, prefix, placeholder) -> str:
    """The text of the values v in order: for each its prefix word (with
    "-" after it where v is negative) and its words, from ``_g12_words``
    or ``_f2_words``. Where a value is not certified, its prefix word and
    the placeholder of its format are laid out, and Python's ``%`` writes
    the value there."""
    words[0] = prefix + np.signbit(v)
    with np.errstate(invalid="ignore"):
        index = words.astype(np.intp)
    bad = np.flatnonzero(~ok)
    if bad.size:
        index[1:, bad] = _NUL
        index[0, bad] = prefix[bad]
        index[1:1 + len(placeholder), bad] = np.array(placeholder)[:, None]
    text = _WORDS.take(index).T.tobytes().translate(None, b"\0").decode("ascii")
    return text % tuple(v[bad].tolist()) if bad.size else text


def _blocks(header, *columns):
    """The text of ``table(header, *columns)`` in pieces: the header line,
    then one str per block of ``_BLOCK`` values (at least one row), each
    formatted when it is taken."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = min((c.size for c in cols), default=0)
    if header is not None or n == 0:
        yield ("" if header is None else header) + "\n"
    rows = max(1, _BLOCK // max(1, len(cols)))
    for i in range(0, n, rows):
        j = min(i + rows, n)  # rows stop at the shortest column
        v = np.column_stack([c[i:j] for c in cols]).ravel()  # row by row
        prefix = np.full((j - i, len(cols)), _COMMA)
        prefix[:, 0] = _NL
        prefix[0, 0] = _NUL
        yield _decimal_text(*_g12_words(v), v, prefix.ravel(), _G12) + "\n"


def table(header, *columns) -> str:
    """CSV text with one %.12g row per index of ``columns`` (rows stop at
    the shortest column), under ``header`` unless it is None."""
    return "".join(_blocks(header, *columns))


def _curve_blocks(curve: MefCurve):
    return _blocks("u,e", curve.grid.points, curve.values)


def _band_blocks(band: Band):
    return _blocks("u,e,lower,upper", band.curve.grid.points, band.curve.values, band.lower, band.upper)


def _compare_blocks(data_curve: MefCurve, model_curve: MefCurve):
    if not np.array_equal(data_curve.grid.points, model_curve.grid.points):
        raise DomainError("compare requires identical grids")
    return _blocks("u,e_data,e_model", data_curve.grid.points, data_curve.values, model_curve.values)


def curve_csv(curve: MefCurve) -> str:
    return "".join(_curve_blocks(curve))


def band_csv(band: Band) -> str:
    return "".join(_band_blocks(band))


def fit_csv(params: GpdParams, fit: OlsFit) -> str:
    return table("xi_hat,beta_hat,a_hat,b_hat,r2", [params.xi], [params.beta], [fit.a_hat], [fit.b_hat], [fit.r2])


def experiment_csv(report: ExperimentReport) -> str:
    lines = [
        f"# name={report.name},seed={report.seed},reps={report.replicate_count}",
        "metric,value",
    ]
    for key, value in report.metrics:
        lines.append(f"{key},{fmt(value)}")
    return "\n".join(lines) + "\n"


def compare_csv(data_curve: MefCurve, model_curve: MefCurve) -> str:
    """Side-by-side empirical vs model mean excess on a shared grid."""
    return "".join(_compare_blocks(data_curve, model_curve))


def ohlcv_csv(series: PriceSeries) -> str:
    """Serialize a PriceSeries back to the input CSV format."""
    row = "%s,%.12g,%.12g,%.12g,%.12g,%.12g".__mod__
    columns = (np.datetime_as_string(series.days).tolist(), *series.values.tolist())
    return "\n".join(["date,open,high,low,close,volume", *map(row, zip(*columns))]) + "\n"


def write_text(path, text) -> None:
    """Write text, a str or an iterable of str pieces written as they are
    taken, to path as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)
