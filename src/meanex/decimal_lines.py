"""A reader of decimal numbers, one a line, that gives ``float``'s bits.

``read_lines(data)`` takes the bytes of a text whose every line is a
decimal number of the grammar

    [+-]?(d+[.d*]|.d+)([eE][+-]?d+)?

in ASCII digits, each line ended by LF (the last may lack it), and
returns the numbers as float64, each with the bits ``float(line)``
gives. It declines the whole text, with None, where a line is outside
the grammar (a blank line, whitespace, a second column, CR, ``inf`` or
``nan``, ``1_000``, non-ASCII digits), where the text is empty, and on a
platform whose ``np.longdouble`` is neither x87 extended (63 fraction
bits) nor IEEE quad (112).

The text is read in line-aligned blocks of about ``_BLOCK`` bytes, so
the temporaries stay small and are reused from one block to the next.
In a block:

- the bytes that are not digits, found by one compare, are checked
  against the grammar: the kind of each (LF, '.', sign, 'e') and of the
  byte before it, at most one '.' and one 'e' a line, the '.' before
  the 'e' and next to a digit;
- one ``np.fromstring(..., dtype=np.uint64, sep="\\n")`` over the block,
  with '.', '+' and '-' deleted and 'e'/'E' mapped to LF, reads each
  line's integer significand m, and its exponent as the next integer
  (a significand of 2^64 or more saturates at 2^64 - 1);
- the count k of fraction digits and the signs come from the byte
  positions, and the value is m 10^q, q = exponent - k.

The certificate. For |q| <= 27, m < 2^64 and 10^|q| (5^27 < 2^63) are
exact in extended precision, so x = m * 10^q, or m / 10^-q, is one
correctly rounded operation: the exact value X lies within spacing(x) / 2
of x. The double d = x.astype(float) is certified where x == d, or where
|x - d| <= spacing(d) / 2 - spacing(x) and d is not a power of two: then
|X - d| < spacing(d) / 2, d's rounding interval is symmetric, and X
rounds to d as ``float`` rounds it. x is then in d's binade, where the
midpoints between doubles lie on x's grid, so the bound is
|x - d| < spacing(d) / 2: x is not a midpoint. Every other line (a tie
between two doubles, a saturated significand, |q| > 27, d a power of
two) is read by ``float``.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["read_lines"]

_BLOCK = 1 << 16  # bytes a block, about: a block ends at the first LF past this many
# the formats the certificate holds for: correctly rounded, on an evenly spaced grid;
# double-double (nmant 105, ppc64) is neither, so it is declined
_EXTENDED = np.finfo(np.longdouble).nmant in (63, 112)
_Q = 27  # the largest |q| whose 10^|q| is exact in extended precision
_P10 = np.multiply.accumulate(np.r_[1, np.full(_Q, 10)].astype(np.longdouble))  # 10^0 .. 10^27, exact
_SATURATED = np.uint64(2**64 - 1)
_TOKENS = bytes.maketrans(b"eE", b"\n\n")

# the kind of each byte that is not a digit, 0 where the grammar has none
_DIGIT, _LF, _DOT, _SIGN, _E = range(5)
_KIND = np.zeros(256, np.uint8)
_KIND[[ord("\n"), ord("."), ord("+"), ord("-"), ord("e"), ord("E")]] = [_LF, _DOT, _SIGN, _SIGN, _E, _E]


def _grammar():
    """_VALID[((before 5 + kind) 5 + later) 2 + adjacent]: whether the
    grammar lets a byte of the kind (not a digit) stand after a byte of
    the kind before (_DIGIT for a digit) and before the next byte that is
    not a digit, of the kind later, adjacent to it or not. On a line, a
    sign is followed by '.', 'e' or the LF, or, after the 'e', by the LF;
    a '.' by the 'e' or the LF; an 'e' by its sign or the LF; and a '.'
    stands next to a digit."""
    pairs = {(_LF, _DOT), (_LF, _SIGN), (_DIGIT, _LF), (_DIGIT, _DOT), (_DIGIT, _E),
             (_DOT, _LF), (_DOT, _E), (_SIGN, _DOT), (_E, _SIGN)}  # adjacent bytes
    valid = np.zeros(250, bool)
    for before, kind, later, adjacent in itertools.product(range(5), range(1, 5), range(1, 5), range(2)):
        follows = {_LF: (_LF, _DOT, _SIGN, _E), _DOT: (_LF, _E), _E: (_LF, _SIGN),
                   _SIGN: (_LF,) if before == _E else (_LF, _DOT, _E)}[kind]
        valid[((before * 5 + kind) * 5 + later) * 2 + adjacent] = (
            (before, kind) in pairs and later in follows and not (kind == _DOT and before and adjacent))
    return valid


_VALID = _grammar()


def read_lines(data: bytes) -> np.ndarray | None:
    """The number on each line of data as float64, with the bits
    ``float`` gives it; None where the reader declines the text (see the
    module docstring)."""
    if not (_EXTENDED and data):
        return None
    blocks = []
    pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos + _BLOCK) + 1 or len(data)
        block = data[pos:end]
        blocks.append(_block(block if block.endswith(b"\n") else block + b"\n"))
        if blocks[-1] is None:
            return None
        pos = end
    return np.concatenate(blocks)


def _line(kind, line, i):
    """The lines of the bytes that are not digits at indices i into
    them, each a '.', an 'e' or a sign after it: their line's LF is at
    most two of them on."""
    for _ in range(2):
        i = i + (kind.take(i) != _LF)
    return line.take(i)


def _block(block: bytes) -> np.ndarray | None:
    """The numbers of block, whole lines each ended by LF; None where a
    line is outside the grammar."""
    a = np.frombuffer(block, np.uint8)
    at = np.flatnonzero((a < ord("0")) | (a > ord("9")))  # ascending; the last is the block's last LF
    byte = a.take(at)
    kind = _KIND.take(byte)
    adjacent = at[1:] == at[:-1] + 1
    before = np.empty_like(kind)  # the kind of the byte before, _DIGIT for a digit; a block starts after an LF
    before[0] = _LF if at[0] == 0 else _DIGIT
    np.multiply(kind[:-1], adjacent, out=before[1:])
    code = (before * 5 + kind) * 10
    code[:-1] += kind[1:] * 2 + adjacent
    code[-1] += _LF * 2  # the next block starts a line
    if not _VALID.take(code).all():
        return None
    lf = np.flatnonzero(kind == _LF)
    line = np.empty(at.size, np.intp)
    line[lf] = np.arange(lf.size)
    ends = at.take(lf)
    e = np.flatnonzero(kind == _E)
    q = np.zeros(lf.size, np.int64)  # -k, k the count of fraction digits, plus the exponent
    dot = np.flatnonzero(kind == _DOT)
    # the byte after a '.' that is not a digit ends the significand; without an 'e' it is the LF
    q[_line(kind, line, dot + 1) if e.size else line.take(dot + 1)] = at.take(dot) + 1 - at.take(dot + 1)
    tokens = np.fromstring(block.translate(_TOKENS, b".+-"), dtype=np.uint64, sep="\n")
    if tokens.size != lf.size + e.size:
        return None
    m = tokens
    if e.size:
        e_line = _line(kind, line, e + 1)
        has_e = np.zeros(lf.size, bool)
        has_e[e_line] = True
        first = np.arange(lf.size) + np.cumsum(has_e) - has_e  # the integer of each line's significand
        m = tokens.take(first)
        exponent = np.minimum(tokens.take(first.take(e_line) + 1), 1 << 20).astype(np.int64)
        q[e_line] += np.where(byte.take(e + 1) == ord("-"), -exponent, exponent)
    x = m.astype(np.longdouble)
    p = _P10.take(np.minimum(np.abs(q), _Q))
    np.divide(x, p, out=x, where=q < 0)
    np.multiply(x, p, out=x, where=q > 0)
    d = x.astype(np.float64)
    # x - d is exact, and so is its double with 64 fraction bits; with
    # more it is rounded, which leaves a midpoint's spacing(d) / 2 as it is
    r = np.abs((x - d).astype(np.float64))
    not_power_of_two = (d.view(np.uint64) << np.uint64(12)) != 0
    certified = (np.abs(q) <= _Q) & (m != _SATURATED) & ((r == 0) | ((r < np.spacing(d) / 2) & not_power_of_two))
    starts = np.concatenate(([0], ends[:-1] + 1))
    np.negative(d, out=d, where=a.take(starts) == ord("-"))
    for j in np.flatnonzero(~certified).tolist():
        d[j] = float(block[starts[j]:ends[j]])
    return d
