"""Random small files through every verb form of the CLI.

Every run must end in exit status 0, 1 or 2: no exception may escape
``cli.run`` and no warning may be raised or printed, whatever the files
hold.  A ``--json`` report must be strict JSON, without the ``Infinity``
or ``NaN`` that Python's ``json`` writes and reads by default.  Matrix
and context files come padded, with any line break and now and then a
bad token; a verb that reads only such files exits 2 naming the file,
and a bad cell or row with its line (and field).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus.cli import run

NUMBERS = ["0", "-0.0", "1", "-1", "0.5", "2", "-3", "1e308", "-1e308", "1.7e308", "5e-324", "1e400", "inf", "-inf"]
BAD = ["nan", "1_0", "abc", "", "+INF", "Infinity", "1,2"]
LABELS = ["a", "b", "c", "d", "e", "f", "g", "h"]


@st.composite
def token(draw, pool=NUMBERS, bad=BAD):
    """Mostly a token from ``pool``, now and then one from ``bad``."""
    return draw(st.sampled_from(pool if draw(st.integers(0, 15)) else bad))


@st.composite
def labels(draw, size):
    """Distinct labels, now and then with a repeat or a blank."""
    out = draw(st.lists(st.sampled_from(LABELS), min_size=size, max_size=size, unique=True))
    if out and not draw(st.integers(0, 7)):
        out[-1] = draw(st.sampled_from([out[0], ""]))
    return out


ABSCISSAE = st.lists(st.sampled_from(NUMBERS[:11]), min_size=1, max_size=6, unique=True)


@st.composite
def function_csv(draw, xs):
    """Rows on the abscissae ``xs``, now and then with one repeated."""
    if not draw(st.integers(0, 7)):
        xs = [*xs, xs[0]]
    rows = [f"{draw(token([x]))},{draw(token())}" for x in xs]
    header = ["x,value"] if draw(st.booleans()) else []
    return "\n".join(header + rows) + "\n"


# whitespace that str.strip strips (\x0c also ends a line) and the line
# breaks of str.splitlines
PAD = ["", " ", "\t", "\xa0", "\u2003", "\x1f", "\x0c"]
NEWLINES = ["\n", "\r\n", "\x0b", "\x1c", "\x85", "\u2028"]


@st.composite
def padded(draw, text):
    """``text`` with whitespace around it now and then."""
    if draw(st.integers(0, 3)):
        return text
    return draw(st.sampled_from(PAD)) + text + draw(st.sampled_from(PAD))


@st.composite
def table_csv(draw, objects, attributes, cells):
    """A labelled table: padded labels and cells, a blank line now and
    then, and any line break."""
    lines = ["," + ",".join([draw(padded(a)) for a in attributes])]
    for g in objects:
        if not draw(st.integers(0, 7)):
            lines.append(draw(st.sampled_from(PAD)))
        lines.append(",".join([draw(padded(g)), *(draw(padded(draw(cells))) for _ in attributes)]))
    newline = draw(st.sampled_from(NEWLINES))
    return newline.join(lines) + newline


@st.composite
def matrix_csv(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(table_csv(draw(labels(n)), draw(labels(m)), token()))


@st.composite
def context_text(draw):
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    objects, attributes = draw(labels(n)), draw(labels(m))
    if draw(st.booleans()):
        rows = ["".join(draw(token(["X", "."])) for _ in range(m)) for _ in range(n)]
        return "\n".join(["B", "", str(n), str(m), *objects, *attributes, *rows]) + "\n"
    return draw(table_csv(objects, attributes, token(["0", "1"], ["2", "", "x", "01", "1.0"])))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


DUAL = token(["auto", "-1:1:0.5", "-2:2:1", "0:0:1"], ["1:0:1", "-1e6:1e6:1e-6", "0:1:0", "a:b", "0:1:nan"])
TOL = token(["1e-9", "0", "0.5", "inf"], ["nan", "-1", "-inf", "x"])


@st.composite
def verb_forms(draw):
    """The twelve verb forms, each with the files it reads."""
    xs = draw(ABSCISSAE)
    f = {"f.csv": draw(function_csv(xs))}
    g = {"g.csv": draw(function_csv(xs if draw(st.booleans()) else draw(ABSCISSAE)))}
    ctx, mats = {"c.cxt": draw(context_text())}, {"a.csv": draw(matrix_csv()), "b.csv": draw(matrix_csv())}
    dual, tol = ["--dual", draw(DUAL)], ["--tol", draw(TOL)]
    json_flag = draw(st.sampled_from([[], ["--json"]]))
    return [
        (["tables"], {}),
        (["conjugate", "f.csv", *dual], f),
        (["biconjugate", "f.csv", *dual], f),
        (["hull", "f.csv"], f),
        (["distance", "f.csv", "g.csv"], f | g),
        (["check", "adjunction", "f.csv", "g.csv", *tol, *draw(st.sampled_from([[], dual])), *json_flag], f | g),
        (["check", "short", "f.csv", "g.csv", *dual, *tol, *json_flag], f | g),
        (["check", "toland-singer", "f.csv", "g.csv", *dual, *tol, "--json"], f | g),
        (["concepts", "c.cxt"], ctx),
        (["lattice", "c.cxt"], ctx),
        (["compose", "a.csv", "b.csv"], mats),
        (["plotdata", "f.csv"], f),
    ]


# the verbs whose only inputs are matrix and context files
TABLE_VERBS = {"concepts", "lattice", "compose"}
# a cell fault names its line and field, a row of the wrong width its line
CELL_FAULT = re.compile(r"not an extended real|incidence cells must be 0 or 1")
ROW_FAULT = re.compile(r"expected \d+ cells")


def test_random_files_through_every_verb_form():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        @settings(max_examples=100, deadline=None)
        @given(verb_forms())
        def check(forms):
            for argv, files in forms:
                for name, text in files.items():
                    (root / name).write_text(text)
                argv = [str(root / a) if a in files else a for a in argv]
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = run(argv)
                assert code in (0, 1, 2), (argv, code)
                assert not caught, [str(w.message) for w in caught]
                assert "warning" not in err.getvalue().lower()
                assert (code == 2) == bool(err.getvalue()), err.getvalue()
                if code == 2 and argv[0] in TABLE_VERBS:
                    message = err.getvalue()
                    assert any(f"{root / name}" in message for name in files), message
                    if CELL_FAULT.search(message):
                        assert re.search(r": line \d+, field '[^']*': ", message), message
                    if ROW_FAULT.search(message):
                        assert re.search(r": line \d+: ", message), message
                if "--json" in argv and code != 2:
                    json.loads(out.getvalue(), parse_constant=_refuse_constant)

        check()
