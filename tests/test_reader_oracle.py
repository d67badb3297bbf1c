"""The text readers against a per-row oracle, and the token rules.

The oracle is the row-at-a-time function reader that built one tagged
``ExtReal`` per value cell, with its special-cased infinity tokens, and
sorted the rows in Python, with one rule added: digit-group underscores,
which ``float`` reads (``1_0`` as 10.0), are refused.  The reader under
test must give the same grid and value bytes, or the same ``FormatError``
text, line and field.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus.core import FormatError, parse_matrix_csv
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
def function_file(draw):
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
