"""Polars, concept enumeration, lattice operations and file formats."""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus import galois
from nucleus.cli import run
from nucleus.core import TRUTH, FormatError, PresheafVector, Profunctor, Side, SizeMismatchError, pull, push
from nucleus.galois import (
    Concept,
    Context,
    NotAConceptError,
    UnknownLabelError,
    close_extent,
    enumerate_concepts,
    export_dot,
    is_concept,
    lattice_join,
    lattice_meet,
    parse_context_csv,
    parse_cxt,
    polar_down,
    polar_up,
    render_context_csv,
    render_cxt,
)

WORKED = Context.from_pairs(("1", "2", "3"), ("a", "b"), [("1", "a"), ("2", "a"), ("2", "b")])
IDENT2 = Context.from_pairs(("g1", "g2"), ("m1", "m2"), [("g1", "m1"), ("g2", "m2")])
FULL = Context.from_pairs(("u", "v"), ("p", "q"), [(g, m) for g in ("u", "v") for m in ("p", "q")])


# Independent oracle: polars as literal set comprehensions over the pairs.
def naive_up(ctx, subset):
    rel = {(g, m) for g, row in zip(ctx.objects, ctx.incidence)
           for m, hit in zip(ctx.attributes, row) if hit}
    return {m for m in ctx.attributes if all((g, m) in rel for g in subset)}


def naive_down(ctx, subset):
    rel = {(g, m) for g, row in zip(ctx.objects, ctx.incidence)
           for m, hit in zip(ctx.attributes, row) if hit}
    return {g for g in ctx.objects if all((g, m) in rel for m in subset)}


def naive_concepts(ctx):
    found = set()
    for r in range(len(ctx.objects) + 1):
        for subset in itertools.combinations(ctx.objects, r):
            intent = frozenset(naive_up(ctx, subset))
            extent = frozenset(naive_down(ctx, intent))
            found.add((extent, intent))
    return found


def random_context(rng, max_objects=12, max_attributes=12):
    n = rng.randint(1, max_objects)
    m = rng.randint(1, max_attributes)
    objects = tuple(f"g{i}" for i in range(n))
    attributes = tuple(f"m{j}" for j in range(m))
    rows = tuple(tuple(rng.random() < rng.uniform(0.2, 0.8) for _ in range(m)) for _ in range(n))
    return Context(objects, attributes, rows)


def test_polar_up_examples():
    assert set(polar_up(WORKED, {"1", "2"})) == naive_up(WORKED, {"1", "2"}) == {"a"}
    assert polar_up(WORKED, ()) == ("a", "b")
    assert polar_up(IDENT2, {"g1"}) == ("m1",)


def test_polar_down_examples():
    assert set(polar_down(WORKED, {"a", "b"})) == naive_down(WORKED, {"a", "b"}) == {"2"}
    assert polar_down(WORKED, ()) == ("1", "2", "3")
    assert polar_down(IDENT2, {"m2"}) == ("g2",)


def test_polar_unknown_labels():
    # each side, on the context and its transpose
    for ctx in (WORKED, WORKED.T):
        g, m = ctx.objects[0], ctx.attributes[0]
        for call, label in (
            (lambda: polar_up(ctx, [g, "zz"]), "zz"),
            (lambda: polar_up(ctx, [m]), m),  # an attribute is no object
            (lambda: polar_down(ctx, [m, "zz"]), "zz"),
            (lambda: polar_down(ctx, [g]), g),
            (lambda: close_extent(ctx, ["zz"]), "zz"),
            (lambda: close_extent(ctx, [m]), m),
            (lambda: Context.from_pairs(ctx.objects, ctx.attributes, [(g, m), ("zz", m)]), "zz"),
            (lambda: Context.from_pairs(ctx.objects, ctx.attributes, [(g, m), (g, "zz")]), "zz"),
        ):
            with pytest.raises(UnknownLabelError) as e:
                call()
            assert str(e.value) == f"unknown label {label!r}"


def test_close_extent_examples():
    assert close_extent(WORKED, {"1"}) == ("1", "2")
    assert close_extent(WORKED, {"1", "2"}) == ("1", "2")
    assert close_extent(WORKED, set(WORKED.objects)) == WORKED.objects


def test_close_extent_is_a_closure_operator():
    rng = random.Random(3)
    for _ in range(20):
        ctx = random_context(rng, 6, 6)
        for r in range(len(ctx.objects) + 1):
            for subset in itertools.combinations(ctx.objects, r):
                closed = set(close_extent(ctx, subset))
                assert set(subset) <= closed
                assert set(close_extent(ctx, closed)) == closed


def test_polars_match_core_push_pull():
    for ctx in (WORKED, IDENT2, FULL):
        rel = ctx.to_profunctor()
        assert rel == Profunctor(ctx.incidence, TRUTH, ctx.objects, ctx.attributes)
        for r in range(len(ctx.objects) + 1):
            for subset in itertools.combinations(ctx.objects, r):
                vec = PresheafVector(tuple(g in subset for g in ctx.objects), Side.PRE, TRUTH, ctx.objects)
                pushed = push(rel, vec)
                assert pushed.values == tuple(m in set(polar_up(ctx, subset)) for m in ctx.attributes)
                assert pushed.objects == ctx.attributes
        for r in range(len(ctx.attributes) + 1):
            for subset in itertools.combinations(ctx.attributes, r):
                vec = PresheafVector(tuple(m in subset for m in ctx.attributes), Side.OPCO, TRUTH, ctx.attributes)
                pulled = pull(rel, vec)
                assert pulled.values == tuple(g in set(polar_down(ctx, subset)) for g in ctx.objects)
                assert pulled.objects == ctx.objects
    # core compares the labels: a subset of other objects is refused
    with pytest.raises(SizeMismatchError):
        push(WORKED.to_profunctor(), PresheafVector((True, False, True), Side.PRE, TRUTH, ("1", "3", "2")))
    with pytest.raises(SizeMismatchError):
        pull(WORKED.to_profunctor(), PresheafVector((True, False), Side.OPCO, TRUTH, WORKED.objects[:2]))


def test_galois_connection_exhaustive_small_contexts():
    rng = random.Random(7)
    for _ in range(25):
        ctx = random_context(rng, 4, 4)
        for rs in range(len(ctx.objects) + 1):
            for s in itertools.combinations(ctx.objects, rs):
                up = set(polar_up(ctx, s))
                for rt in range(len(ctx.attributes) + 1):
                    for t in itertools.combinations(ctx.attributes, rt):
                        lhs = set(s) <= set(polar_down(ctx, t))
                        rhs = up >= set(t)
                        assert lhs == rhs


def test_polars_antitone():
    rng = random.Random(9)
    for _ in range(20):
        ctx = random_context(rng, 6, 6)
        subs = list(itertools.chain.from_iterable(
            itertools.combinations(ctx.objects, r) for r in range(len(ctx.objects) + 1)
        ))
        for s1 in subs:
            for s2 in subs:
                if set(s1) <= set(s2):
                    assert set(polar_up(ctx, s1)) >= set(polar_up(ctx, s2))


def test_enumerate_identity_context():
    lat = enumerate_concepts(IDENT2)
    got = {(frozenset(c.extent), frozenset(c.intent)) for c in lat.concepts}
    assert got == {
        (frozenset({"g1", "g2"}), frozenset()),
        (frozenset({"g1"}), frozenset({"m1"})),
        (frozenset({"g2"}), frozenset({"m2"})),
        (frozenset(), frozenset({"m1", "m2"})),
    }
    assert len(lat) == 4


def test_enumerate_worked_context():
    lat = enumerate_concepts(WORKED)
    got = {(frozenset(c.extent), frozenset(c.intent)) for c in lat.concepts}
    assert got == {
        (frozenset({"1", "2", "3"}), frozenset()),
        (frozenset({"1", "2"}), frozenset({"a"})),
        (frozenset({"2"}), frozenset({"a", "b"})),
    }


def test_enumerate_full_relation():
    lat = enumerate_concepts(FULL)
    assert len(lat) == 1
    assert lat.concepts[0] == Concept(("u", "v"), ("p", "q"))


def test_enumeration_matches_brute_force():
    rng = random.Random(42)
    for _ in range(30):
        ctx = random_context(rng, 8, 8)
        lat = enumerate_concepts(ctx)
        got = {(frozenset(c.extent), frozenset(c.intent)) for c in lat.concepts}
        assert got == naive_concepts(ctx)
        assert len(got) == len(lat.concepts)  # no duplicates


def test_enumeration_matches_brute_force_sixteen_objects():
    # closure-stepping must stay exact well past the usual desk sizes
    rng = random.Random(99)
    ctx = Context(
        tuple(f"g{i}" for i in range(16)),
        tuple(f"m{j}" for j in range(8)),
        tuple(tuple(rng.random() < 0.55 for _ in range(8)) for _ in range(16)),
    )
    lat = enumerate_concepts(ctx)
    brute = {ctx.close_extent_mask(s) for s in range(1 << len(ctx.objects))}
    got = {ctx.object_mask(c.extent) for c in lat.concepts}
    assert got == brute and len(lat.concepts) == len(brute)


def test_single_cell_contexts():
    hit = Context(("g",), ("m",), ((True,),))
    assert [(c.extent, c.intent) for c in enumerate_concepts(hit).concepts] == [
        (("g",), ("m",))
    ]
    miss = Context(("g",), ("m",), ((False,),))
    got = {(c.extent, c.intent) for c in enumerate_concepts(miss).concepts}
    assert got == {((), ("m",)), (("g",), ())}


def test_enumeration_is_lectic_in_extents():
    rng = random.Random(43)
    for _ in range(10):
        ctx = random_context(rng, 7, 7)
        lat = enumerate_concepts(ctx)
        n = len(ctx.objects)

        def key(concept):
            idx = {g: i for i, g in enumerate(ctx.objects)}
            return sum(1 << (n - 1 - idx[g]) for g in concept.extent)

        keys = [key(c) for c in lat.concepts]
        assert keys == sorted(keys)


def test_order_matrix_and_top_bottom():
    lat = enumerate_concepts(WORKED)
    by_extent = {frozenset(c.extent): i for i, c in enumerate(lat.concepts)}
    i_small = by_extent[frozenset({"2"})]
    i_mid = by_extent[frozenset({"1", "2"})]
    i_top = by_extent[frozenset({"1", "2", "3"})]
    assert lat.leq(i_small, i_mid) and lat.leq(i_mid, i_top) and lat.leq(i_small, i_small)
    assert not lat.leq(i_top, i_small)
    assert lat.top.extent == ("1", "2", "3")
    assert lat.bottom.extent == ("2",)


def codiagonal(n):
    """The co-diagonal context on n labels: every subset is an extent."""
    labels = [str(i) for i in range(n)]
    return Context.from_pairs(labels, labels, [(g, m) for g in labels for m in labels if g != m])


def test_walk_is_refused_past_the_concept_cap(monkeypatch, tmp_path, capsys):
    assert len(enumerate_concepts(codiagonal(13))) == 8192 <= galois.MAX_CONCEPTS
    monkeypatch.setattr(galois, "MAX_CONCEPTS", 4096)
    # the table doubles with each row, so it passes 4096 at the last one
    message = "8192 concepts after 13 of 13 rows, more than the cap of 4096"
    with pytest.raises(galois.TooManyConceptsError, match=f"^{message}$"):
        enumerate_concepts(codiagonal(13))
    assert len(enumerate_concepts(codiagonal(12))) == 4096
    path = tmp_path / "codiagonal.cxt"
    path.write_text(render_cxt(codiagonal(13)))
    for verb in ("concepts", "lattice"):  # exit 2, naming the file
        assert run([verb, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_lattice_meet_join_examples():
    c_mid = Concept(("1", "2"), ("a",))
    c_small = Concept(("2",), ("a", "b"))
    assert lattice_meet(WORKED, c_mid, c_small) == c_small
    assert lattice_join(WORKED, c_small, c_mid) == c_mid
    assert lattice_meet(WORKED, c_mid, c_mid) == c_mid
    with pytest.raises(NotAConceptError):
        lattice_meet(WORKED, Concept(("1",), ("a",)), c_mid)


def test_concept_built_from_lists_is_the_enumerated_concept():
    ctx = Context(("1", "2", "3"), ("a", "b"), [[1, 0], [1, 1], [0, 1]])
    lat = enumerate_concepts(ctx)
    listed, tupled = Concept(["2"], ["a", "b"]), Concept(("2",), ("a", "b"))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert is_concept(ctx, listed) and listed in lat.concepts
    assert lat.concepts[lat.index_of(listed)] == tupled


def test_is_concept_wants_the_context_order_labels():
    lat = enumerate_concepts(WORKED)
    for fake in (
        Concept(("1", "2", "2"), ("a",)),  # a repeated object
        Concept(("2", "1"), ("a",)),  # objects out of order
        Concept(("2",), ("b", "a")),  # attributes out of order
        Concept(("1", "2"), ("a", "a")),  # a repeated attribute
        Concept(("1", "2"), ("a", "zz")),  # an unknown label
    ):
        assert not is_concept(WORKED, fake) and fake not in lat.concepts
        with pytest.raises(NotAConceptError):
            lattice_meet(WORKED, fake, lat.top)
        with pytest.raises(NotAConceptError):
            lattice_join(WORKED, lat.bottom, fake)
    assert all(is_concept(WORKED, c) for c in lat.concepts)


@st.composite
def context_and_pair(draw):
    """A small context and a pair whose labels all come from it, in any
    order and with repeats; half the time a true concept, reshuffled."""
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), min_size=n, max_size=n))
    ctx = Context(tuple(f"g{i}" for i in range(n)), tuple(f"m{j}" for j in range(m)), rows)
    if draw(st.booleans()):
        concept = draw(st.sampled_from(enumerate_concepts(ctx).concepts))
        extent, intent = draw(st.permutations(concept.extent)), draw(st.permutations(concept.intent))
    else:
        extent = draw(st.lists(st.sampled_from(ctx.objects), max_size=n + 1)) if n else []
        intent = draw(st.lists(st.sampled_from(ctx.attributes), max_size=m + 1)) if m else []
    return ctx, Concept(tuple(extent), tuple(intent))


@settings(max_examples=300, deadline=None)
@given(context_and_pair())
def test_is_concept_is_membership_in_the_enumeration(case):
    ctx, pair = case
    lat = enumerate_concepts(ctx)
    assert is_concept(ctx, pair) == (pair in lat.concepts)
    if pair in lat.concepts:
        assert lattice_meet(ctx, pair, pair) == lattice_join(ctx, pair, pair) == pair
    else:
        with pytest.raises(NotAConceptError):
            lattice_meet(ctx, pair, lat.top)


def test_meet_join_agree_with_order_matrix():
    rng = random.Random(77)
    for _ in range(12):
        ctx = random_context(rng, 7, 7)
        lat = enumerate_concepts(ctx)
        n = len(lat)
        order = [[lat.leq(i, j) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                met = lat.index_of(lattice_meet(ctx, lat.concepts[i], lat.concepts[j]))
                joined = lat.index_of(lattice_join(ctx, lat.concepts[i], lat.concepts[j]))
                lower = [k for k in range(n) if order[k][i] and order[k][j]]
                upper = [k for k in range(n) if order[i][k] and order[j][k]]
                assert met in lower and all(order[k][met] for k in lower)
                assert joined in upper and all(order[joined][k] for k in upper)


def test_is_concept():
    assert is_concept(WORKED, Concept(("1", "2"), ("a",)))
    assert not is_concept(WORKED, Concept(("1",), ("a",)))
    assert not is_concept(WORKED, Concept(("zzz",), ("a",)))


def test_export_dot_single_node():
    lat = enumerate_concepts(FULL)
    dot = export_dot(lat)
    assert dot.count("->") == 0
    assert "{u, v} / {p, q}" in dot


def test_export_dot_diamond():
    lat = enumerate_concepts(IDENT2)
    dot = export_dot(lat)
    assert dot.count("->") == 4
    assert dot.startswith("digraph")


def test_export_dot_chain():
    lat = enumerate_concepts(WORKED)
    dot = export_dot(lat)
    # 3 comparable concepts form a path with 2 cover edges
    assert dot.count("->") == 2


def test_covers_skip_transitive_edges():
    lat = enumerate_concepts(WORKED)
    pairs = lat.covers()
    by_extent = {frozenset(c.extent): i for i, c in enumerate(lat.concepts)}
    i_small = by_extent[frozenset({"2"})]
    i_top = by_extent[frozenset({"1", "2", "3"})]
    assert (i_small, i_top) not in pairs


def test_cxt_round_trip_and_parse():
    text = render_cxt(WORKED)
    assert text == "B\n\n3\n2\n1\n2\n3\na\nb\nX.\nXX\n..\n"
    again = parse_cxt(text)
    assert again == WORKED
    assert render_cxt(again) == text


def test_cxt_tolerates_blank_separators():
    text = "B\n\n2\n2\n\ng1\ng2\nm1\nm2\n\nX.\n.X\n"
    assert parse_cxt(text) == IDENT2


def test_cxt_errors():
    with pytest.raises(FormatError):
        parse_cxt("not-burmeister\n")
    with pytest.raises(FormatError) as e:
        parse_cxt("B\n\n2\n2\ng1\ng2\nm1\nm2\nX.\nX?\n")
    assert "line" in str(e.value)
    with pytest.raises(FormatError):
        parse_cxt("B\n\n2\n2\ng1\ng2\nm1\nm2\nX.\n")
    with pytest.raises(FormatError):
        parse_cxt("B\n\nx\n2\n")


def test_cxt_refuses_a_line_after_the_incidence_rows():
    with pytest.raises(FormatError) as e:
        parse_cxt("B\n\n1\n1\ng\nm\nX\n.\nX\nfoo bar\n")
    assert (str(e.value), e.value.line) == ("line 8: unexpected line after the incidence rows: '.'", 8)
    with pytest.raises(FormatError) as e:
        parse_cxt("B\n\n2\n0\ng1\ng2\n\nX\n")
    assert e.value.line == 8
    # blank trailing lines stay allowed
    assert parse_cxt("B\n\n1\n1\ng\nm\nX\n\n  \n\t\n") == Context(("g",), ("m",), [[1]])


def test_cxt_counts_are_ascii_digits_without_underscores():
    # int alone reads each of these as a count
    for text, line, what, token in (
        ("B\n\n0_1\n1\ng\nm\nX\n", 3, "object count", "0_1"),
        ("B\n\n\u0661\n1\ng\nm\nX\n", 3, "object count", "\u0661"),
        ("B\n\n1\n1_0\ng\nm\nX\n", 4, "attribute count", "1_0"),
        ("B\n\n1\n\uff11\ng\nm\nX\n", 4, "attribute count", "\uff11"),
    ):
        with pytest.raises(FormatError) as e:
            parse_cxt(text)
        assert (str(e.value), e.value.line) == (f"line {line}: expected {what}, got {token!r}", line)
    assert parse_cxt("B\n\n+1\n 1 \ng\nm\nX\n") == Context(("g",), ("m",), [[1]])


def test_context_csv_round_trip():
    text = render_context_csv(WORKED)
    assert text == ",a,b\n1,1,0\n2,1,1\n3,0,0\n"
    assert parse_context_csv(text) == WORKED
    with pytest.raises(FormatError):
        parse_context_csv(",a\ng1,2\n")


def test_degenerate_attribute_free_context():
    ctx = parse_cxt("B\n\n2\n0\ng1\ng2\n\n\n")
    assert ctx.attributes == () and ctx.objects == ("g1", "g2")
    lat = enumerate_concepts(ctx)
    assert len(lat) == 1 and lat.concepts[0].extent == ("g1", "g2")
    assert parse_cxt(render_cxt(ctx)) == ctx


def test_context_validation():
    with pytest.raises(ValueError):
        Context(("g", "g"), ("m",), ((True,), (False,)))
    for objects, attributes, rows in (
        (("g",), ("m",), ((True, False),)),
        (("g", "h"), ("m",), ((True,),)),
        ((), ("m",), ((True,),)),
        (("g", "h"), ("m", "n"), ((True, False), (True,))),  # ragged
        (("g",), ("m",), np.zeros((1, 1, 1), dtype=bool)),
        ((), ("m",), np.zeros((0, 2), dtype=bool)),
    ):
        with pytest.raises(ValueError):
            Context(objects, attributes, rows)
    with pytest.raises(UnknownLabelError):
        Context.from_pairs(("g",), ("m",), [("g", "nope")])


def test_contexts_from_every_form_are_equal_and_hash_equal():
    objects, attributes = ("1", "2", "3"), ("a", "b")
    forms = [
        WORKED,
        Context(objects, attributes, ((True, False), (True, True), (False, False))),
        Context(list(objects), list(attributes), [[1, 0], [1, 1], [0, 0]]),
        Context(objects, attributes, np.array([[1, 0], [1, 1], [0, 0]], dtype=bool)),
        Context(objects, attributes, np.array([[1, 0], [1, 1], [0, 0]])),
        parse_cxt(render_cxt(WORKED)),
        parse_context_csv(render_context_csv(WORKED)),
    ]
    assert all(ctx == WORKED and hash(ctx) == hash(WORKED) for ctx in forms)
    assert len(set(forms)) == 1
    assert WORKED != Context(objects, attributes, [[1, 0], [1, 1], [0, 1]])
    assert WORKED != Context(("1", "2", "4"), attributes, [[1, 0], [1, 1], [0, 0]])
    assert WORKED != WORKED.to_profunctor()
    empty = [Context((), ("a",), ()), Context((), ["a"], np.zeros((0, 1), dtype=bool))]
    assert empty[0] == empty[1] and hash(empty[0]) == hash(empty[1])


def test_context_holds_one_read_only_array():
    given_rows = np.array([[True, False], [False, True]])
    ctx = Context(("g1", "g2"), ("m1", "m2"), given_rows)
    given_rows[0, 0] = False  # the context took a copy
    assert ctx == IDENT2 and ctx.incidence_array.dtype == np.bool_
    with pytest.raises(ValueError):
        ctx.incidence_array[0, 0] = False
    for ctx in (parse_cxt(render_cxt(WORKED)), parse_context_csv(render_context_csv(WORKED))):
        enumerate_concepts(ctx).covers()
        assert ctx.to_profunctor() == Profunctor(ctx.incidence_array, TRUTH, ctx.objects, ctx.attributes)
        assert render_cxt(ctx) and render_context_csv(ctx)
        assert "incidence" not in vars(ctx)
        assert ctx.to_profunctor() == Profunctor(ctx.incidence, TRUTH, ctx.objects, ctx.attributes)
        assert ctx.incidence == ((True, False), (True, True), (False, False))


def test_copies_of_a_context_are_built_anew_from_its_labels_and_array():
    """A pickled, deep-copied or copied context, or its transpose, after
    reads that fill every cache, goes through the constructor: its array
    is read-only, it holds none of the caches, it pickles as small as a
    fresh context, and it is equal and enumerates the same lattice."""
    rng = np.random.default_rng(7)
    objects, attributes = tuple(f"g{i}" for i in range(200)), tuple(f"m{j}" for j in range(50))
    big = Context(objects, attributes, rng.random((200, 50)) < 0.1)
    fields = {"objects", "attributes", "incidence_array"}
    for ctx in (IDENT2, big):
        lat = enumerate_concepts(ctx)
        lat.concepts, ctx.incidence, close_extent(ctx, ctx.objects[:1]), polar_down(ctx, ctx.attributes[:1])
        assert {"_rows", "_index", "T", "incidence", "_byte_labels"} <= set(vars(ctx))
        for side in (ctx, ctx.T):
            fresh = Context(side.objects, side.attributes, side.incidence_array)
            assert len(pickle.dumps(side)) == len(pickle.dumps(fresh))
            for copied in (pickle.loads(pickle.dumps(side)), copy.deepcopy(side), copy.copy(side)):
                assert set(vars(copied)) == fields
                with pytest.raises(ValueError):
                    copied.incidence_array[0, 1] = True
                assert copied == side and hash(copied) == hash(side)
                assert enumerate_concepts(copied) == enumerate_concepts(side)
    assert [str(c) for c in enumerate_concepts(copy.deepcopy(IDENT2)).concepts] == [
        "({}, {m1, m2})", "({g2}, {m2})", "({g1}, {m1})", "({g1, g2}, {})"]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_cxt_and_csv_round_trips(n, m, data):
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), min_size=n, max_size=n))
    ctx = Context(tuple(f"g{i}" for i in range(n)), tuple(f"m{j}" for j in range(m)), rows)
    assert ctx.incidence_array.shape == (n, m)
    again = parse_cxt(render_cxt(ctx))
    assert again == ctx and hash(again) == hash(ctx) and again.incidence == ctx.incidence
    if m:  # a CSV table needs a column label
        assert parse_context_csv(render_context_csv(ctx)) == ctx


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("", "unexpected end of file while reading the format marker", None),
        ("B", "unexpected end of file while reading the name line", None),
        ("B\n\n-1\n0\n", "line 3: object count may not be negative", 3),
        ("B\n\n3\n", "unexpected end of file while reading attribute count", None),
    ],
)
def test_cxt_refusals_before_the_names(text, message, line):
    with pytest.raises(FormatError) as e:
        parse_cxt(text)
    assert (str(e.value), e.value.line) == (message, line)


@pytest.mark.parametrize(
    "rows", [[[2]], [[0.5]], [[1.0]], [[-1]], [["x"]], [[None]], np.array([[2]]), np.array([["1"]])], ids=repr
)
def test_context_cells_are_bools_or_the_integers_0_and_1(rows):
    # bool() reads each of these as a truth value
    with pytest.raises(ValueError, match="incidence cells must be truth values"):
        Context(("g",), ("m",), rows)
