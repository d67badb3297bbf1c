"""The text readers against per-row oracles, and the token rules.

The function oracle is the row-at-a-time function reader that built one
tagged ``ExtReal`` per value cell, with its special-cased infinity
tokens, and sorted the rows in Python, with one rule added: digit-group
underscores, which ``float`` reads (``1_0`` as 10.0), are refused.  The
labelled-table oracle, for matrix and context files, is the row loop
that parsed one cell at a time into lists of lists.  The readers under
test must give the same labels and array bytes, or the same
``FormatError`` text, line and field.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus.core import FormatError, parse_matrix_csv
from nucleus.galois import parse_context_csv
from nucleus.legendre import Space, parse_function_csv


def oracle_value(token: str) -> float:
    """One value cell as the tagged parser read it, as its float cell."""
    t = token.strip().lower()
    if t in ("inf", "+inf"):
        return math.inf
    if t == "-inf":
        return -math.inf
    try:
        if "_" in t:
            raise ValueError
        v = float(t)
    except ValueError:
        raise ValueError(f"not an extended real: {token!r}") from None
    if math.isnan(v):
        raise ValueError(f"not an extended real: {token!r}")
    return v if v else 0.0


def oracle_function_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows: list[tuple[float, float, int]] = []
    seen_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not seen_content:
            seen_content = True
            if line.lower().replace(" ", "") == "x,value":
                continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise FormatError(f"expected 2 cells, found {len(cells)}", line=lineno)
        try:
            if "_" in cells[0]:
                raise ValueError
            x = float(cells[0])
        except ValueError:
            raise FormatError(f"bad abscissa {cells[0]!r}", line=lineno, field="x") from None
        if not math.isfinite(x):
            raise FormatError("abscissae must be finite", line=lineno, field="x")
        try:
            v = oracle_value(cells[1])
        except ValueError as e:
            raise FormatError(str(e), line=lineno, field="value") from None
        rows.append((x, v, lineno))
    if not rows:
        raise FormatError("function file has no samples")
    rows.sort(key=lambda r: r[0])
    for (x1, _, _), (x2, _, ln) in zip(rows, rows[1:]):
        if x1 == x2:
            raise FormatError(f"duplicate abscissa {x2!r}", line=ln, field="x")
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


NUMBERS = ["0", "0.0", "-0.0", "+0", "1", "-1", "2.5", "-3.25", "1e-320", "1e400", "-1e400", "7e308"]
SPECIAL = ["inf", "+inf", "-inf", "INF", "+Inf", "-iNf", "Infinity", "-infinity", "nan", "NaN", "-nan"]
JUNK = ["1_0", "1_000.5", "-2_5", "_1", "abc", "", "1..2", "0x10", "1e", "--1"]
# whitespace that str.strip strips: \x0c also ends a line, and float does
# not strip \x1f, so a reader that hands float unstripped cells refuses it
PAD = st.sampled_from(["", " ", "  ", "\t", "\x0c", "\xa0", "\u2003", "\x1f"])
# line breaks of str.splitlines beyond \n and \r\n
NEWLINES = ["\n", "\r\n", "\x0b", "\x1c", "\x85", "\u2028"]


@st.composite
def token(draw, pool):
    core = draw(st.sampled_from(pool))
    if draw(st.booleans()):
        core = core.upper()
    return draw(PAD) + core + draw(PAD)


@st.composite
def mixed_file(draw):
    """Mostly well-formed rows over few abscissae, so that duplicates are
    common; a row is blank, has the wrong cell count or holds a bad token
    now and then."""
    abscissae = NUMBERS[:6] + ["0.5", "-2", "1e2"]
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["x,value", "X,Value", " x , value ", "x,values"])))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t", "\xa0\u2003"])))
        elif kind == 1:
            lines.append(",".join(draw(st.lists(token(NUMBERS), min_size=1, max_size=3).filter(lambda c: len(c) != 2))))
        else:
            x = draw(token(abscissae + ["inf", "nan", "1_0", "abc"] if kind == 2 else abscissae))
            v = draw(token(NUMBERS + SPECIAL + JUNK if kind == 3 else NUMBERS + SPECIAL[:7]))
            lines.append(f"{x},{v}")
    newline = draw(st.sampled_from(NEWLINES))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def well_formed_file(draw):
    """A file the reader must accept: distinct finite abscissae in any
    order, written as ``repr``, and value tokens from the valid pool or
    as ``repr``, with padding that does not end a line, blank lines and
    an optional header."""
    xs = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8, unique=True))
    pad = st.sampled_from(["", " ", "\t", "\xa0", "\u2003", "\x1f"])
    lines = [draw(st.sampled_from(["x,value", "X,Value", " x , value "]))] if draw(st.booleans()) else []
    for x in xs:
        v = draw(st.one_of(st.sampled_from(NUMBERS + SPECIAL[:7]), st.floats(allow_nan=False).map(repr)))
        lines.append(f"{draw(pad)}{x!r}{draw(pad)},{draw(pad)}{v}{draw(pad)}")
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(pad))
    newline = draw(st.sampled_from(NEWLINES))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def function_file():
    return st.one_of(mixed_file(), well_formed_file())


@settings(max_examples=300, deadline=None)
@given(function_file(), st.sampled_from(list(Space)))
def test_function_reader_matches_the_per_row_oracle(text, space):
    try:
        want = oracle_function_csv(text)
    except FormatError as e:
        with pytest.raises(FormatError) as got:
            parse_function_csv(text, space)
        assert (str(got.value), got.value.line, got.value.field) == (str(e), e.line, e.field)
        return
    f = parse_function_csv(text, space)
    assert f.space is space
    assert f.grid.as_array.tobytes() == want[0].tobytes()
    assert f.values_array.tobytes() == want[1].tobytes()


def test_duplicate_zeros_are_reported_at_the_later_line():
    with pytest.raises(FormatError) as e:
        parse_function_csv("x,value\n1,0\n-0.0,1\n\n0.0,2\n")
    assert (str(e.value), e.value.field) == ("line 5, field 'x': duplicate abscissa 0.0", "x")
    f = parse_function_csv("0.0,1\n-1,2\n")
    assert f.grid.points == (-1.0, 0.0)
    f = parse_function_csv("-0.0,1\n-1,2\n")
    assert f.grid.as_array.tobytes() == np.array([-1.0, -0.0]).tobytes()


@pytest.mark.parametrize(
    "text, line, field",
    [("x,value\n0,1\n1,1_0\n", 3, "value"), ("1_0,1\n", 1, "x"), ("0,1\n1,-2_5.5\n", 2, "value")],
)
def test_function_reader_refuses_digit_group_underscores(text, line, field):
    with pytest.raises(FormatError) as e:
        parse_function_csv(text)
    assert (e.value.line, e.value.field) == (line, field)


@pytest.mark.parametrize(
    "text, message",
    [
        # the two rows' commas balance in a total count, not row by row
        ("0\n1,2,3\n", "line 1: expected 2 cells, found 1"),
        ("x,value\n0,1\nnan,2\n3,4\n", "line 3, field 'x': abscissae must be finite"),
        ("x,value\n0,1\n\ninf,2\n3,4\n", "line 4, field 'x': abscissae must be finite"),
        ("0,1\n2,3\n1e400,2\n", "line 3, field 'x': abscissae must be finite"),
        ("1_0,1\n2,3\n4,5\n", "line 1, field 'x': bad abscissa '1_0'"),
    ],
)
def test_function_reader_names_the_only_fault(text, message):
    with pytest.raises(FormatError) as e:
        parse_function_csv(text)
    assert str(e.value) == message
    oracle = pytest.raises(FormatError, oracle_function_csv, text)
    assert str(oracle.value) == message


def test_function_reader_strips_cells_as_str_strip_does():
    f = parse_function_csv("x,value\n\x1f1\x1f,\x1f-0.0\x1f\n\xa00\u2003,\u20032\xa0\n")
    assert f.grid.points == (0.0, 1.0)
    assert f.values_array.tobytes() == np.array([2.0, 0.0]).tobytes()


def test_function_reader_reads_overflow_and_infinity_as_infinities():
    f = parse_function_csv("0,1e400\n1,-1E400\n2,Infinity\n3,-INFINITY\n4,+inf\n")
    assert f.values_array.tolist() == [math.inf, -math.inf, math.inf, -math.inf, math.inf]


def test_matrix_reader_token_rules():
    rows, cols, m = parse_matrix_csv(",a,b\nr,1e400,Infinity\ns, -inf ,-0.0\n")
    assert m.entries_array.dtype == np.float64
    assert m.entries_array.tolist() == [[math.inf, math.inf], [-math.inf, 0.0]]
    assert math.copysign(1.0, m.entries_array[1, 1]) == 1.0
    for bad in ("1_0", "nan"):
        with pytest.raises(FormatError) as e:
            parse_matrix_csv(f",a,b\nr,0,1\ns,2,{bad}\n")
        assert (e.value.line, e.value.field) == (3, "b")
        assert str(e.value).endswith(f"not an extended real: {bad!r}")


def oracle_labelled_csv(text, what, cell, nonempty):
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise FormatError(f"empty {what} file")
    (header_line, header), body = lines[0], lines[1:]
    col_labels = tuple(c.strip() for c in header.split(",")[1:])
    if nonempty and not col_labels:
        raise FormatError("header needs at least one column label", line=header_line)
    row_labels, rows = [], []
    for lineno, ln in body:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(col_labels) + 1:
            raise FormatError(f"expected {len(col_labels) + 1} cells, found {len(cells)}", line=lineno)
        row_labels.append(cells[0])
        row = []
        for label, token in zip(col_labels, cells[1:]):
            try:
                row.append(cell(token))
            except ValueError as e:
                raise FormatError(str(e), line=lineno, field=label) from None
        rows.append(row)
    if nonempty and not rows:
        raise FormatError(f"{what} has no data rows")
    return tuple(row_labels), col_labels, rows


def oracle_matrix_csv(text):
    rows, cols, cells = oracle_labelled_csv(text, "matrix", oracle_value, nonempty=True)
    return rows, cols, np.array(cells, dtype=np.float64).reshape(len(rows), len(cols))


def oracle_incidence(token):
    if token not in ("0", "1"):
        raise ValueError("incidence cells must be 0 or 1")
    return token == "1"


def oracle_context_csv(text):
    objects, attributes, cells = oracle_labelled_csv(text, "context", oracle_incidence, nonempty=False)
    for labels, what in ((objects, "object"), (attributes, "attribute")):
        if len(set(labels)) != len(labels):
            raise FormatError(f"{what} labels must be unique")
    return objects, attributes, np.array(cells, dtype=bool).reshape(len(objects), len(attributes))


def read_matrix(text):
    rows, cols, m = parse_matrix_csv(text)
    return rows, cols, m.entries_array


def read_context(text):
    ctx = parse_context_csv(text)
    return ctx.objects, ctx.attributes, ctx.incidence_array


READERS = {"matrix": (read_matrix, oracle_matrix_csv), "context": (read_context, oracle_context_csv)}
CELLS = {
    "matrix": (NUMBERS + SPECIAL[:7], SPECIAL[7:] + JUNK),
    "context": (["0", "1"], ["2", "", "x", "01", "1.0", "-0"]),
}
LABELS = ["a", "b", "c", "", "r_1", "1"]
BLANKS = st.sampled_from(["", "   ", "\t", "\xa0\u2003"])
# PAD without the \x0c that ends a line
LINE_PAD = st.sampled_from(["", " ", "\t", "\xa0", "\u2003", "\x1f"])


@st.composite
def table_file(draw, kind):
    """A labelled table, mostly well formed: blank lines before the header
    and between rows, padded labels and cells, now and then a repeated
    label, a label with a comma, a bad token, or a short or long row."""
    good, bad = CELLS[kind]

    def pick(pool, rare):
        """Mostly a token of ``pool`` padded within its line, now and then
        one of ``rare`` with any padding."""
        if draw(st.integers(0, 19)):
            return draw(LINE_PAD) + draw(st.sampled_from(pool)) + draw(LINE_PAD)
        return draw(token(rare))

    lines = draw(st.lists(BLANKS, max_size=2))
    width = draw(st.sampled_from([0, 1, 2, 2, 3, 3]))
    cols = [pick(LABELS, ["x,"]) for _ in range(width)]
    lines.append(draw(LINE_PAD) + "".join("," + c for c in cols))
    for _ in range(draw(st.sampled_from([0, 1, 2, 3, 4]))):
        if not draw(st.integers(0, 5)):
            lines.append(draw(BLANKS))
        n = width + draw(st.sampled_from([0] * 12 + [-1, 1]))
        lines.append(",".join([pick(LABELS, ["x,"]), *(pick(good, bad) for _ in range(max(n, 0)))]))
    newline = draw(st.sampled_from(NEWLINES))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def assert_table_reader_matches_the_oracle(kind, text):
    read, oracle = READERS[kind]
    try:
        want = oracle(text)
    except FormatError as e:
        with pytest.raises(FormatError) as got:
            read(text)
        assert (str(got.value), got.value.line, got.value.field) == (str(e), e.line, e.field)
        return
    rows, cols, arr = read(text)
    assert (rows, cols) == want[:2]
    assert arr.dtype == want[2].dtype and arr.shape == want[2].shape
    assert arr.tobytes() == want[2].tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(READERS)))
def test_table_readers_match_the_row_loop_oracle(data, kind):
    assert_table_reader_matches_the_oracle(kind, data.draw(table_file(kind)))


@pytest.mark.parametrize(
    "kind, text, message",
    [
        # a bad cell before a short row: the bad cell is the first fault
        ("matrix", ",a,b\nr,1,zz\ns,1\n", "line 2, field 'b': not an extended real: 'zz'"),
        ("context", ",a,b\ng,1,2\nh,1\n", "line 2, field 'b': incidence cells must be 0 or 1"),
        # a bad cell in the last row only
        ("matrix", ",a,b\nr,1,2\ns,3,4\n\nt,5,nan\n", "line 5, field 'b': not an extended real: 'nan'"),
        ("context", ",a,b\ng,1,0\nh,0,1\nk,1,1\nm,0,x\n", "line 5, field 'b': incidence cells must be 0 or 1"),
        # a header without a column label is refused before any row is read
        ("matrix", "x\nr\n", "line 1: header needs at least one column label"),
        ("matrix", "x\nr,1,2\ns\n", "line 1: header needs at least one column label"),
        ("matrix", "\n \nx\nr,1\n", "line 3: header needs at least one column label"),
        # without a column label a context row is its label alone
        ("context", "x\ng\nh,1\n", "line 3: expected 1 cells, found 2"),
        ("context", ",a\ng,1\ng,0\n", "object labels must be unique"),
    ],
)
def test_table_readers_name_the_first_fault(kind, text, message):
    with pytest.raises(FormatError) as e:
        READERS[kind][0](text)
    assert str(e.value) == message
    assert_table_reader_matches_the_oracle(kind, text)


def test_table_readers_strip_cells_as_str_strip_does():
    text = "\x1f,\x1fa\x1f,b\x1f\n\x1fr\x1f,\x1f1\x1f,\x1f-0.0\x1f\n"
    rows, cols, m = parse_matrix_csv(text)
    assert (rows, cols, m.entries_array.tolist()) == (("r",), ("a", "b"), [[1.0, 0.0]])
    ctx = parse_context_csv(text.replace("-0.0", "0"))
    assert (ctx.objects, ctx.attributes, ctx.incidence) == (("r",), ("a", "b"), ((True, False),))
    for kind in READERS:
        assert_table_reader_matches_the_oracle(kind, text)
