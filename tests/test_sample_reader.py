"""The sample-file reader against the line loop it falls back to.

``cli._sample_values`` parses a file's lines with ``np.loadtxt`` and
runs a line loop only when that fails. The loop, kept here as it was
before the fast path existed, is the oracle: on every seeded file below
the reader must return bitwise the same values, or raise the same error
text. The files mix headers, blank and whitespace-only lines, CRLF and
lone CR, the other separators ``str.splitlines`` splits on (inside
fields too), second columns, tokens only ``float`` reads (``1_000``,
non-ASCII digits), nan and inf, and bad tokens.
"""

import numpy as np

from meanex import InputError, cli
from meanex.cli import _read_sample_file, _sample_values
from meanex.types import make_sample


def oracle_values(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    values = []
    for i, line in enumerate(lines):
        tok = line.strip().split(",")[0].strip()
        if not tok:
            continue
        try:
            values.append(float(tok))
        except ValueError:
            if i == 0 and not values:
                continue  # header line
            raise InputError(f"{path}: line {i + 1} is not a number: {line!r}")
    if not values:
        raise InputError(f"{path}: no numeric values")
    return np.array(values, dtype=float)


SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ENDINGS = ["\n", "\n", "\n", "\r\n", "\r"]
HEADERS = ["value", "x,y", "u", " returns ", "# sample"]
SECOND_COLUMNS = [",b", ",1.5", ",", ",,", ", 7", ",nan", ",x,y"]
SPECIALS = ["nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "1e400", "-1e400", "5e-324", "-0.0", "+.5", "7."]
FLOAT_ONLY = ["1_000", "2_5.5", "\u0661\u0662", "\u0663.\u0665", "\uff17", "1\xa0", "\u30004"]
BAD = ["abc", "1.2.3", "0x10", "1d5", "--1", "1 2", "1e", "nan(1)", "i", "1;5"]
BLANK = ["", "   ", "\t", " \t "]


def number(rng):
    kind = rng.integers(4)
    if kind == 0:
        return repr(float(rng.standard_normal() * 10.0 ** rng.integers(-8, 9)))
    if kind == 1:
        return "%.25g" % (rng.exponential() * 10.0 ** rng.integers(-320, 300))
    if kind == 2:
        return str(int(rng.integers(-10**6, 10**6)))
    return " %s\t" % repr(float(rng.uniform(-1, 1)))


def pick(rng, items):
    return items[rng.integers(len(items))]


def sample_text(seed):
    """One file's text: mostly numbers, with each kind of trouble present
    in a share of the files, so that some files take the fast path and
    some the loop."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 0.15, size=7)  # header, blank, second column, separator, special, float-only, bad
    lines = []
    if rng.uniform() < 0.3:
        lines.append(pick(rng, HEADERS))
    for _ in range(int(rng.integers(0, 25))):
        u = rng.uniform(size=7)
        if u[1] < p[1]:
            lines.append(pick(rng, BLANK))
            continue
        if u[6] < p[6] / 3:
            tok = pick(rng, BAD)
        elif u[5] < p[5]:
            tok = pick(rng, FLOAT_ONLY)
        elif u[4] < p[4]:
            tok = pick(rng, SPECIALS)
        else:
            tok = number(rng)
        if u[2] < p[2]:
            tok += pick(rng, SECOND_COLUMNS)
        if u[3] < p[3]:
            # a separator after the first field, or between two numbers, starts a new line
            sep = pick(rng, SEPARATORS)
            tok += pick(rng, [",", ""]) + sep + number(rng)
        if u[0] < p[0] / 4:
            tok = pick(rng, HEADERS)
        lines.append(tok)
    text = "".join(line + pick(rng, ENDINGS) for line in lines)
    return text if rng.uniform() < 0.8 else text.rstrip("\r\n")


def outcome(read, path):
    try:
        return read(path)
    except InputError as exc:
        return str(exc)


def sorted_outcome(read, path):
    """The sorted sample's bytes, or the error text (nan and inf are refused)."""
    got = outcome(read, path)
    return got if isinstance(got, str) else got.values.tobytes()


FILES = 400


def test_reader_matches_line_loop(tmp_path):
    kinds = {"values": 0, "errors": 0, "separators read": 0}
    for seed in range(FILES):
        path = tmp_path / f"sample{seed}.txt"
        text = sample_text(seed)
        path.write_text(text, encoding="utf-8", newline="")
        want = outcome(oracle_values, path)
        got = outcome(_sample_values, path)
        if isinstance(want, str):
            assert got == want, (seed, text)
            kinds["errors"] += 1
            continue
        assert isinstance(got, np.ndarray) and got.dtype == np.float64, (seed, text, got)
        assert got.tobytes() == want.tobytes(), (seed, text)
        kinds["values"] += 1
        kinds["separators read"] += any(s in text for s in SEPARATORS)
        assert sorted_outcome(_read_sample_file, path) == sorted_outcome(lambda p: make_sample(oracle_values(p)), path)
    # the mix exercises both outcomes, and files whose separators split fields
    assert min(kinds.values()) >= 40, kinds


def test_header_file_stays_on_the_fast_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    body = "".join("%r\n" % v for v in (rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 9, 5000)).tolist())
    plain, headed = tmp_path / "plain.txt", tmp_path / "headed.txt"
    plain.write_text(body, encoding="utf-8")
    headed.write_text("value,note\n" + body, encoding="utf-8")
    fields = []
    monkeypatch.setattr(cli, "_first_field", lambda line: fields.append(line) or line.strip().split(",")[0].strip())
    assert _sample_values(headed).tobytes() == _sample_values(plain).tobytes()
    # one header check per file; the line loop never ran on either
    assert fields == ["value,note", body.splitlines()[0]]
