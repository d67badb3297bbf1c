"""The concept lattice against dense oracles, and the labelled-table CSV codec.

The oracles are the earlier dense formulations: the inclusion order
from extents as label sets, ``top`` and ``bottom`` as O(n^2) scans of
that order, and ``covers`` as the transitive reduction of the dense
order matrix.  The lattice must agree with them exactly on random
contexts, including ones without objects or without attributes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from nucleus.core import FormatError, parse_matrix_csv
from nucleus.galois import Context, enumerate_concepts, parse_context_csv, render_context_csv


def oracle_order(lat):
    extents = [set(c.extent) for c in lat.concepts]
    return tuple(tuple(a <= b for b in extents) for a in extents)


def oracle_top(lat, order):
    n = len(lat.concepts)
    return next(c for i, c in enumerate(lat.concepts) if all(order[j][i] for j in range(n)))


def oracle_bottom(lat, order):
    n = len(lat.concepts)
    return next(c for i, c in enumerate(lat.concepts) if all(order[i][j] for j in range(n)))


def oracle_covers(order):
    o = np.array(order, dtype=bool)
    strict = o & ~np.eye(len(order), dtype=bool)
    reduced = strict & ~(strict @ strict)
    return tuple((int(i), int(j)) for i, j in np.argwhere(reduced))


def random_context(rng, n, m):
    density = rng.uniform(0.2, 0.8)
    return Context(
        tuple(f"g{i}" for i in range(n)),
        tuple(f"m{j}" for j in range(m)),
        tuple(tuple(rng.random() < density for _ in range(m)) for _ in range(n)),
    )


def contexts():
    rng = random.Random(11)
    yield from (random_context(rng, n, m) for n, m in ((0, 0), (0, 3), (3, 0), (1, 1)))
    for _ in range(40):
        yield random_context(rng, rng.randint(0, 9), rng.randint(0, 9))


def test_lattice_matches_dense_oracles():
    for ctx in contexts():
        lat = enumerate_concepts(ctx)
        want = oracle_order(lat)
        assert lat.order == want
        assert lat.top == oracle_top(lat, want) and lat.bottom == oracle_bottom(lat, want)
        assert lat.top.extent == ctx.objects
        assert lat.covers() == oracle_covers(want)
        assert np.array_equal(np.array(lat.order, dtype=bool), np.array(want, dtype=bool))


def test_order_is_built_only_when_read():
    ctx = random_context(random.Random(5), 8, 6)
    lat = enumerate_concepts(ctx)
    assert "order" not in vars(lat)
    assert lat.top.extent == ctx.objects and lat.bottom == lat.concepts[0]
    lat.covers()
    assert "order" in vars(lat)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty matrix file"),
        ("\n  \n", "empty matrix file"),
        ("x\nr,1\n", "line 1: header needs at least one column label"),
        (",a\n", "matrix has no data rows"),
        (",a,b\nr,1\n", "line 2: expected 3 cells, found 2"),
        (",a,b\nr,1,zz\n", "line 2, field 'b': not an extended real: 'zz'"),
        (",a,b\n\nr,1,nan\n", "line 3, field 'b': not an extended real: 'nan'"),
    ],
)
def test_matrix_csv_messages(text, message):
    with pytest.raises(FormatError) as e:
        parse_matrix_csv(text)
    assert str(e.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty context file"),
        (",a,b\ng,1\n", "line 2: expected 3 cells, found 2"),
        (",a,b\ng,1,2\n", "line 2, field 'b': incidence cells must be 0 or 1"),
        (",a\n\n\ng,x\n", "line 4, field 'a': incidence cells must be 0 or 1"),
        (",a\ng,1\ng,0\n", "object labels must be unique"),
        (",a,a\ng,1,0\n", "attribute labels must be unique"),
    ],
)
def test_context_csv_messages(text, message):
    with pytest.raises(FormatError) as e:
        parse_context_csv(text)
    assert str(e.value) == message


def test_context_csv_without_objects_round_trips():
    ctx = Context((), ("a", "b"), ())
    assert render_context_csv(ctx) == ",a,b\n"
    assert parse_context_csv(",a,b\n") == ctx


@pytest.mark.parametrize("objects", [(), ("g1", "g2")])
def test_context_csv_refuses_a_context_without_attributes(objects):
    ctx = Context(objects, (), ((),) * len(objects))
    with pytest.raises(FormatError, match="at least one column label"):
        render_context_csv(ctx)
    # what the writer used to emit reads back as one column labelled ''
    if objects:
        with pytest.raises(FormatError, match="line 2, field '': incidence cells must be 0 or 1"):
            parse_context_csv(",\ng1,\ng2,\n")
    else:
        assert parse_context_csv(",\n") == Context((), ("",), ())
