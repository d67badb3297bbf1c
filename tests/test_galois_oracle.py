"""The concept lattice against dense oracles, and the labelled-table CSV codec.

The oracles are the earlier formulations: the inclusion order from
extents as label sets, ``top`` and ``bottom`` as O(n^2) scans of that
order, ``covers`` as the transitive reduction of the dense order matrix,
the NextClosure walk, the upper-neighbour covers that spent one polar
per object outside each extent, the upper-neighbour loop that found
each candidate in a table from intent to concept, and each concept's
``str`` for the text gathered from the masks.  The lattice must agree
with them exactly on random contexts, including ones without objects or
without attributes, with duplicate rows and with extents and intents that
span several machine words, and with its covers computed in blocks of one
concept.  The walk, by row intersections, must take no polar, and the
lattice builds its ``Concept`` objects only when they are read.  Concepts that keep the
masks they were enumerated with must give the meets, joins and
``is_concept`` answers of label-only copies, and a concept of another
context, or a copy, is checked by its labels.  A concept a meet or join
handed out is handed out again while it is held, and leaves the
context's map when it is let go; with the map warm, meets, joins and
closures still match the per-bit oracles.  The set-bit polar and the
byte-memo label kernels are checked against the per-bit loops they
replaced, at the byte and word boundaries, and the lectic argsort against
the sort by a Python key per concept it replaced.  Every table
writer either refuses a label or writes text its reader reads back as it
was.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus import galois
from nucleus.core import EXT_REAL, FormatError, Profunctor, parse_matrix_csv, render_matrix_csv
from nucleus.galois import (
    Concept,
    Context,
    NotAConceptError,
    close_extent,
    enumerate_concepts,
    export_dot,
    is_concept,
    lattice_join,
    lattice_meet,
    parse_context_csv,
    parse_cxt,
    render_concepts,
    render_context_csv,
    render_cxt,
)


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


def oracle_dot(lat, covers):
    """The DOT text of a Hasse diagram with the given edges."""
    lines = ["digraph concepts {", "  rankdir=BT;", "  node [shape=box];"]
    for i, c in enumerate(lat.concepts):
        label = "{%s} / {%s}" % (", ".join(c.extent), ", ".join(c.intent))
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  c{i} [label="{label}"];')
    lines.extend(f"  c{i} -> c{j};" for i, j in covers)
    return "\n".join(lines + ["}"]) + "\n"


def oracle_next_closure(ctx):
    """All closed extents in lectic order (label index 0 is most
    significant): from extent A, the next is the closure of (A below i)
    plus i, for the largest index i outside A whose closure adds nothing
    below i."""
    current = ctx.close_extent_mask(0)
    extents = [current]
    while True:
        for i in range(len(ctx.objects) - 1, -1, -1):
            if current >> i & 1:
                continue
            below = (1 << i) - 1
            candidate = ctx.close_extent_mask((current & below) | (1 << i))
            if candidate & below == current & below:
                current = candidate
                break
        else:
            return tuple(extents)
        extents.append(current)


def oracle_polar_covers(ctx, extents):
    """Lindig's upper neighbours, each candidate found by its polar: for
    each extent A with intent B, an object g outside A gives the extent
    (B & row_g)'; g stops being minimal when that extent holds another
    object still marked minimal."""
    rows = ctx._rows
    index = {e: i for i, e in enumerate(extents)}
    edges = []
    for i, extent in enumerate(extents):
        intent = ctx.polar_up_mask(extent)
        minimal = rest = (1 << len(ctx.objects)) - 1 & ~extent
        while rest:
            low = rest & -rest
            rest ^= low
            upper = ctx.T.polar_up_mask(intent & rows[low.bit_length() - 1])
            if upper & minimal & ~low:
                minimal ^= low
            else:
                edges.append((i, index[upper]))
    return tuple(sorted(edges))


def oracle_lindig_covers(lat):
    """Lindig's upper neighbours on the context's own side, each candidate
    found by intent in a table: for each concept (A, B), every object g
    outside A gives the candidate with intent B & row_g, an upper neighbour
    unless it holds another object still marked minimal beyond A, in which
    case g stops being minimal."""
    ctx, extents, intents = lat.context, lat.extent_masks, lat.intent_masks
    rows = ctx._rows
    index = {b: i for i, b in enumerate(intents)}
    full = (1 << len(ctx.objects)) - 1
    edges = []
    for i, (extent, intent) in enumerate(zip(extents, intents)):
        minimal = rest = full & ~extent
        while rest:
            low = rest & -rest
            rest ^= low
            j = index[intent & rows[low.bit_length() - 1]]
            if extents[j] & minimal & ~low:
                minimal ^= low
            else:
                edges.append((i, j))
    return tuple(sorted(edges))


def oracle_polar(ctx, mask, side):
    """The per-bit polar: every bit position up to the highest set bit."""
    n, m = len(ctx.objects), len(ctx.attributes)
    rows = [ctx.incidence, [[ctx.incidence[g][j] for g in range(n)] for j in range(m)]][side]
    width = (m, n)[side]
    out = (1 << width) - 1
    i = 0
    while mask:
        if mask & 1:
            out &= sum(1 << j for j, cell in enumerate(rows[i]) if cell)
        mask >>= 1
        i += 1
    return out


def oracle_labels(ctx, mask, side):
    return tuple(label for i, label in enumerate((ctx.objects, ctx.attributes)[side]) if mask >> i & 1)


def random_context(rng, n, m, density=None):
    density = rng.uniform(0.2, 0.8) if density is None else density
    return Context(
        tuple(f"g{i}" for i in range(n)),
        tuple(f"m{j}" for j in range(m)),
        tuple(tuple(rng.random() < density for _ in range(m)) for _ in range(n)),
    )


def wide_context():
    """90x70 at density 0.1, about 600 concepts: walked on its 70 attributes,
    so both its extents and its intents span two machine words."""
    return random_context(random.Random(89), 90, 70, 0.1)


def contexts():
    rng = random.Random(11)
    yield from (random_context(rng, n, m) for n, m in ((0, 0), (0, 3), (3, 0), (1, 1)))
    for _ in range(40):
        yield random_context(rng, rng.randint(0, 9), rng.randint(0, 9))
    yield wide_context()


def test_lattice_matches_dense_oracles():
    for ctx in contexts():
        lat = enumerate_concepts(ctx)
        want = oracle_order(lat)
        n = len(lat)
        assert tuple(tuple(lat.leq(i, j) for j in range(n)) for i in range(n)) == want
        assert lat.top == oracle_top(lat, want) and lat.bottom == oracle_bottom(lat, want)
        assert lat.top.extent == ctx.objects
        assert lat.covers() == oracle_covers(want)


def walk_contexts():
    """310 contexts: without objects and/or attributes, tall and wide ones
    of up to 300 labels a side (masks of several machine words, walked on
    either side), densities 0.05-0.95 with every fourth context's rows
    drawn with repeats, then ``wide_context``."""
    rng = random.Random(47)
    yield from (random_context(rng, n, m) for n, m in ((0, 0), (0, 4), (4, 0)))
    yield from (random_context(rng, 130, m, 0.5) for m in (5, 8))
    yield from (random_context(rng, n, m, 0.5) for n, m in ((300, 5), (5, 300), (130, 9), (9, 130)))
    for k in range(300):
        ctx = random_context(rng, rng.randint(0, 12), rng.randint(0, 10), rng.uniform(0.05, 0.95))
        if k % 4 == 0:
            rows = tuple(rng.choice(ctx.incidence) for _ in ctx.incidence)
            ctx = Context(ctx.objects, ctx.attributes, rows)
        yield ctx
    yield wide_context()


def test_walk_and_covers_match_next_closure_and_polar_covers():
    for ctx in walk_contexts():
        lat = enumerate_concepts(ctx)
        extents = oracle_next_closure(ctx)
        assert lat.extent_masks == extents
        assert [(c.extent, c.intent) for c in lat.concepts] == [
            (oracle_labels(ctx, e, 0), oracle_labels(ctx, oracle_polar(ctx, e, 0), 1)) for e in extents
        ]
        covers = oracle_polar_covers(ctx, extents)
        assert lat.covers() == covers
        assert export_dot(lat) == oracle_dot(lat, covers)


def test_covers_match_the_lindig_loop():
    for ctx in walk_contexts():
        lat = enumerate_concepts(ctx)
        assert lat.covers() == oracle_lindig_covers(lat)


def test_covers_in_blocks_of_one_concept_match_the_oracles(monkeypatch):
    """A budget of a few words puts each concept in a block of its own,
    and the edges, in order, are still the oracles'."""
    monkeypatch.setattr(galois, "COVERS_BLOCK_WORDS", 4)
    keyed = []
    keys = galois._keys
    monkeypatch.setattr(galois, "_keys", lambda packed: keyed.append(len(packed)) or keys(packed))
    rng = random.Random(97)
    shapes = ((20, 14, 0.45), (130, 9, 0.5), (9, 130, 0.5), (3, 70, 0.5), (70, 3, 0.5))
    for ctx in (wide_context(), *(random_context(rng, n, m, d) for n, m, d in shapes)):
        lat = enumerate_concepts(ctx)
        keyed.clear()
        covers = lat.covers()
        assert len(keyed) == len(lat) + 2  # the intents, sorted and not, then one block per concept
        assert covers == oracle_polar_covers(ctx, oracle_next_closure(ctx))
        assert covers == oracle_covers(oracle_order(lat)) == oracle_lindig_covers(lat)


@pytest.mark.parametrize("n, m, seed", [(30, 30, 3), (40, 20, 7), (2000, 3, 13)])
def test_walk_spends_at_most_two_closures_per_concept(monkeypatch, n, m, seed):
    """The walk takes no polar on either side: every intent arrives with
    its extent.  ``close_extent_mask``, which took the closures once, is
    counted too.  Each lattice has over 1000 concepts, or every attribute
    set as an intent."""
    ctx = random_context(random.Random(seed), n, m, 0.5)
    calls = []
    for name in ("polar_up_mask", "polar_down_mask", "close_extent_mask"):
        method = getattr(Context, name)
        monkeypatch.setattr(Context, name, lambda self, mask, method=method: calls.append(mask) or method(self, mask))
    lat = enumerate_concepts(ctx)
    assert len(lat) > min(1000, 2**m - 1) and calls == []


def test_kept_masks_agree_with_label_only_copies():
    """Meet, join and ``is_concept`` on enumerated concepts, which keep their
    masks, against copies holding the labels alone, on 200 random contexts
    of up to 7x7.  A concept of a second context with the same labels, or of
    an equal but distinct context object, is judged against the context it
    is handed to.  Meets and joins are also the concepts whose extent, or
    intent, is the intersection."""
    rng = random.Random(71)
    for _ in range(200):
        n, m = rng.randint(0, 7), rng.randint(0, 7)
        ctx, other = random_context(rng, n, m), random_context(rng, n, m)
        equal = Context(ctx.objects, ctx.attributes, ctx.incidence_array)
        kept = enumerate_concepts(ctx).concepts
        bare = [Concept(c.extent, c.intent) for c in kept]
        assert bare == list(kept) and all(c._found is None for c in bare)
        assert all(is_concept(ctx, c) and is_concept(equal, c) for c in kept + tuple(bare))
        by_extent = {frozenset(c.extent): c for c in kept}
        by_intent = {frozenset(c.intent): c for c in kept}
        for _ in range(12):
            i, j = rng.randrange(len(kept)), rng.randrange(len(kept))
            a, b = kept[i], kept[j]
            meet = lattice_meet(ctx, a, b)
            join = lattice_join(ctx, a, b)
            assert meet == by_extent[frozenset(a.extent) & frozenset(b.extent)]
            assert join == by_intent[frozenset(a.intent) & frozenset(b.intent)]
            assert meet == lattice_meet(ctx, bare[i], bare[j]) == lattice_meet(equal, a, b)
            assert join == lattice_join(ctx, bare[i], bare[j]) == lattice_join(equal, a, b)
            assert meet._found[0] is ctx and lattice_join(equal, a, b)._found[0] is equal
        for c in enumerate_concepts(other).concepts:
            assert is_concept(ctx, c) == (c in by_extent.values())
            if is_concept(ctx, c):
                assert lattice_meet(ctx, c, kept[-1]) == c == lattice_join(ctx, kept[0], c)
                continue
            with pytest.raises(NotAConceptError):
                lattice_meet(ctx, c, kept[-1])
            with pytest.raises(NotAConceptError):
                lattice_join(ctx, kept[0], c)


def test_enumerated_meets_and_joins_take_one_polar(monkeypatch):
    """A concept enumerated from this context object is read from the masks
    it kept: a meet or join takes only its result's polar.  A copy holding
    the labels alone is checked, two polars per operand."""
    ctx = random_context(random.Random(79), 7, 6, 0.5)
    kept = enumerate_concepts(ctx).concepts
    a, b = kept[len(kept) // 3], kept[2 * len(kept) // 3]
    calls = []
    method = Context.polar_up_mask
    monkeypatch.setattr(Context, "polar_up_mask", lambda self, mask: calls.append(mask) or method(self, mask))
    for op in (lattice_meet, lattice_join):
        calls.clear()
        op(ctx, a, b)
        assert len(calls) == 1
        calls.clear()
        op(ctx, Concept(a.extent, a.intent), copy.deepcopy(b))
        assert len(calls) == 5


def test_copies_and_pickles_of_a_concept_hold_the_labels_alone():
    ctx = random_context(random.Random(73), 6, 5)
    for c in enumerate_concepts(ctx).concepts:
        assert c._found[0] is ctx and b"incidence" not in pickle.dumps(c)
        copies = (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c)), dataclasses.replace(c))
        for copied in copies:
            assert copied == c and hash(copied) == hash(c) and copied._found is None
            assert (repr(copied), str(copied)) == (repr(c), str(c)) and is_concept(ctx, copied)
    assert repr(Concept(["a"], ["x", "y"])) == "Concept(extent=('a',), intent=('x', 'y'))"


def oracle_meet(ctx, e1, e2):
    extent = e1 & e2
    return oracle_labels(ctx, extent, 0), oracle_labels(ctx, oracle_polar(ctx, extent, 0), 1)


def oracle_join(ctx, i1, i2):
    intent = i1 & i2
    return oracle_labels(ctx, oracle_polar(ctx, intent, 1), 0), oracle_labels(ctx, intent, 1)


def test_a_concept_still_held_is_handed_out_again(monkeypatch):
    """While the first result of a meet or join is held, the same meet or
    join, in either order or with label-only copies of its operands, a meet
    of the result with itself and ``close_extent`` of its extent hand back
    that very object (the extent tuple, for the closure), and a repeated
    meet takes no polar.  An equal but distinct context hands out its own
    concepts."""
    ctx = wide_context()
    equal = Context(ctx.objects, ctx.attributes, ctx.incidence_array)
    kept = enumerate_concepts(ctx).concepts
    rng = random.Random(83)
    calls = []
    method = Context.polar_up_mask
    monkeypatch.setattr(Context, "polar_up_mask", lambda self, mask: calls.append(mask) or method(self, mask))
    held = []
    for _ in range(100):
        a, b = rng.choice(kept), rng.choice(kept)
        meet, join = lattice_meet(ctx, a, b), lattice_join(ctx, a, b)
        held += meet, join
        calls.clear()
        assert lattice_meet(ctx, b, a) is meet and calls == []
        assert lattice_meet(ctx, Concept(a.extent, a.intent), copy.deepcopy(b)) is meet
        assert lattice_join(ctx, b, a) is join
        assert lattice_join(ctx, Concept(a.extent, a.intent), copy.deepcopy(b)) is join
        assert lattice_meet(ctx, meet, meet) is meet and lattice_meet(ctx, join, join) is join
        assert close_extent(ctx, meet.extent) is meet.extent and close_extent(ctx, join.extent) is join.extent
        for op, mine in ((lattice_meet, meet), (lattice_join, join)):
            theirs = op(equal, a, b)
            assert theirs == mine and theirs is not mine and theirs._found[0] is equal
            assert op(equal, a, b) is theirs
    assert all(c._found[0] is ctx for c in held)


def test_handed_concepts_go_with_their_last_reference():
    """The map holds a concept only while a caller does: after ``del`` and a
    collection it is empty."""
    ctx = wide_context()
    kept = enumerate_concepts(ctx).concepts
    rng = random.Random(89)
    held = [op(ctx, rng.choice(kept), rng.choice(kept)) for _ in range(200) for op in (lattice_meet, lattice_join)]
    assert len(ctx._handed) == len({c.extent for c in held}) > 1
    del held
    gc.collect()
    assert len(ctx._handed) == 0


def test_ten_thousand_dropped_meets_leave_the_map_empty():
    """10,000 meets of random pairs of the wide context's concepts, each
    result dropped at once, leave nothing in the map, and the loop's
    traced peak stays under 64 KB (about 11 KB measured): a map holding
    its 203 distinct meets would peak near 115 KB.  The lattice's
    ``concepts`` decoded every extent and intent first, so the label memo
    gains nothing."""
    ctx = wide_context()
    kept = enumerate_concepts(ctx).concepts
    rng = random.Random(97)
    pairs = [(rng.choice(kept), rng.choice(kept)) for _ in range(10_000)]
    tracemalloc.start()
    try:
        for a, b in pairs:
            lattice_meet(ctx, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ctx._handed) == 0
    assert peak < 64 * 1024, peak


def test_copies_of_a_context_leave_the_handed_concepts_behind():
    """A pickled, deep-copied or copied context, made while its map holds
    concepts, holds no map of its own until it hands out a concept, which
    is then its own."""
    ctx = random_context(random.Random(101), 8, 7, 0.5)
    kept = enumerate_concepts(ctx).concepts
    held = {lattice_meet(ctx, a, b) for a in kept for b in kept}
    assert len(ctx._handed) == len(held) > 1
    for side in (ctx, ctx.T):
        for copied in (pickle.loads(pickle.dumps(side)), copy.deepcopy(side), copy.copy(side)):
            assert "_handed" not in vars(copied)
            top = enumerate_concepts(copied).top
            assert lattice_meet(copied, top, top)._found[0] is copied
            if side is ctx:
                again = lattice_meet(copied, kept[-1], kept[-1])
                assert again in held and again._found[0] is copied
    assert len(ctx._handed) == len(held)


def test_meets_joins_and_closures_with_the_map_warm_match_the_oracles():
    """On the walk's contexts, for 12 random pairs of enumerated concepts
    each, with every result held: the meet and the join, again in the other
    order, then the meet of the join with one operand and the join of the
    meet with the other, operands the map handed out, are the concepts the
    per-bit oracles give.  ``close_extent`` of each held extent is that
    extent, and of random subsets the oracle's closure."""
    rng = random.Random(103)
    for ctx in walk_contexts():
        lat = enumerate_concepts(ctx)
        masks = list(zip(lat.extent_masks, lat.intent_masks))
        held = []
        for _ in range(12):
            i, j = rng.randrange(len(lat)), rng.randrange(len(lat))
            (ea, ia), (eb, ib) = masks[i], masks[j]
            a, b = lat.concepts[i], lat.concepts[j]
            want_meet, want_join = oracle_meet(ctx, ea, eb), oracle_join(ctx, ia, ib)
            for x, y in ((a, b), (b, a)):
                held += lattice_meet(ctx, x, y), lattice_join(ctx, x, y)
                assert (held[-2].extent, held[-2].intent) == want_meet
                assert (held[-1].extent, held[-1].intent) == want_join
            meet, join = held[-2], held[-1]
            join_extent = oracle_polar(ctx, ia & ib, 1)
            held += lattice_meet(ctx, join, a), lattice_join(ctx, meet, b)
            assert (held[-2].extent, held[-2].intent) == oracle_meet(ctx, join_extent, ea)
            assert (held[-1].extent, held[-1].intent) == oracle_join(ctx, oracle_polar(ctx, ea & eb, 0), ib)
        for c in held:
            assert close_extent(ctx, c.extent) == c.extent
        for _ in range(12):
            subset = rng.getrandbits(len(ctx.objects)) if ctx.objects else 0
            closed = oracle_polar(ctx, oracle_polar(ctx, subset, 0), 1)
            assert close_extent(ctx, oracle_labels(ctx, subset, 0)) == oracle_labels(ctx, closed, 0)


def test_index_of_reads_the_extent_mask():
    """On a 24x14 context of 182 concepts, ``index_of`` is ``concepts.index``
    for every enumerated concept, a label-built copy of it, the same
    concept enumerated from an equal context and the one a meet hands
    out; a pair that is not a concept, or names an unknown label, is a
    ValueError."""
    ctx = random_context(random.Random(1), 24, 14, 0.35)
    lat = enumerate_concepts(ctx)
    assert 150 <= len(lat) <= 400
    equal = enumerate_concepts(Context(ctx.objects, ctx.attributes, ctx.incidence_array)).concepts
    for k, c in enumerate(lat.concepts):
        for same in (c, Concept(c.extent, c.intent), equal[k], lattice_meet(ctx, c, c)):
            assert lat.index_of(same) == lat.concepts.index(same) == k
    for stranger in (Concept(lat.top.extent, lat.bottom.intent), Concept(("zz",), ctx.attributes)):
        with pytest.raises(ValueError):
            lat.index_of(stranger)


def test_transpose_swaps_the_labels_and_the_incidence():
    rng = random.Random(59)
    for n, m in ((0, 0), (0, 3), (3, 0), (1, 1), (4, 7), (70, 3)):
        ctx = random_context(rng, n, m)
        cells = [[ctx.incidence[g][j] for g in range(n)] for j in range(m)]
        assert ctx.T == Context(ctx.attributes, ctx.objects, cells)
        assert ctx.T.T == ctx and ctx.T is ctx.T
        dual = enumerate_concepts(ctx.T).concepts
        assert {Concept(c.intent, c.extent) for c in dual} == set(enumerate_concepts(ctx).concepts)


def test_the_transpose_of_the_transpose_is_the_context():
    """``T`` is built once per pair: the transposed context's ``T`` is the
    context itself, and its polar up is the context's polar down."""
    ctx = random_context(random.Random(61), 6, 4)
    assert ctx.T.T is ctx and ctx.T.T.T is ctx.T
    for mask in range(1 << 4):
        assert ctx.polar_down_mask(mask) == ctx.T.polar_up_mask(mask)


def test_three_thousand_objects_match_the_oracles():
    ctx = random_context(random.Random(53), 3000, 2, 0.5)
    lat = enumerate_concepts(ctx)
    assert lat.extent_masks == oracle_next_closure(ctx) and len(lat) == 4
    assert lat.covers() == oracle_polar_covers(ctx, lat.extent_masks)


def test_order_is_built_only_when_read():
    # no order table and no Concept objects: the length, each leq, the
    # covers and both text forms read the masks, and nothing is kept
    ctx = random_context(random.Random(5), 8, 6)
    lat = enumerate_concepts(ctx)
    assert all(lat.leq(0, j) and lat.leq(j, len(lat) - 1) for j in range(len(lat)))
    lat.covers()
    export_dot(lat)
    render_concepts(lat)
    assert "concepts" not in vars(lat) and set(vars(lat)) == {f.name for f in dataclasses.fields(lat)}
    # read, the view is the tuple of concepts that was built eagerly, kept
    built = tuple(Concept(oracle_labels(ctx, e, 0), oracle_labels(ctx, oracle_polar(ctx, e, 0), 1))
                  for e in oracle_next_closure(ctx))
    assert lat.concepts == built and lat.concepts is lat.concepts and "concepts" in vars(lat)
    assert lat.top.extent == ctx.objects and lat.bottom == lat.concepts[0]


def test_lattices_are_equal_iff_their_concepts_are():
    """One incidence under two label sets gives unequal lattices with equal
    masks; a context enumerated twice, or an equal copy of it, gives equal
    lattices with equal hashes, whether or not their concepts were read."""
    rng = random.Random(83)
    ctx = random_context(rng, 7, 5)
    objects = Context(tuple(f"h{i}" for i in range(7)), ctx.attributes, ctx.incidence_array)
    attributes = Context(ctx.objects, tuple(f"n{j}" for j in range(5)), ctx.incidence_array)
    lat = enumerate_concepts(ctx)
    for other in (objects, attributes):
        relabelled = enumerate_concepts(other)
        assert relabelled.extent_masks == lat.extent_masks and relabelled.intent_masks == lat.intent_masks
        assert relabelled != lat and relabelled.concepts != lat.concepts
    twice = enumerate_concepts(ctx)
    copied = enumerate_concepts(Context(ctx.objects, ctx.attributes, ctx.incidence_array))
    assert twice == lat == copied and hash(twice) == hash(lat) == hash(copied)
    assert twice.concepts == lat.concepts and twice == lat and hash(twice) == hash(lat)
    assert lat != lat.concepts and lat != ctx
    for _ in range(100):  # same labels and shape, incidences drawn apart
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        a, b = (enumerate_concepts(random_context(rng, n, m)) for _ in range(2))
        assert (a == b) == (a.concepts == b.concepts) and (a != b or hash(a) == hash(b))


def large_contexts():
    """Lattices of 150-400 concepts, one with more than 64 objects (masks
    of several machine words), and the object-free and attribute-free
    contexts."""
    rng = random.Random(29)
    for n, m, density in ((20, 14, 0.45), (24, 12, 0.5), (30, 10, 0.6), (130, 9, 0.5)):
        yield random_context(rng, n, m, density)
    yield random_context(rng, 0, 5)
    yield random_context(rng, 5, 0)


def test_covers_match_the_dense_oracle_on_large_contexts():
    sizes = []
    for ctx in large_contexts():
        lat = enumerate_concepts(ctx)
        want = oracle_covers(oracle_order(lat))
        assert lat.covers() == want
        assert export_dot(lat) == oracle_dot(lat, want)
        sizes.append((len(ctx.objects), len(lat)))
    assert all(150 <= c <= 400 for _, c in sizes[:4]) and sizes[3][0] > 64
    assert sizes[4:] == [(0, 1), (5, 1)]


def quoted_context():
    """Labels with the quote and the backslash that DOT escapes."""
    return Context(('say "hi"', "back\\slash", "g"), ("m", 'q"'), ((1, 0), (1, 1), (0, 1)))


def test_export_dot_matches_the_oracle_on_every_context():
    for ctx in (quoted_context(), *contexts()):
        lat = enumerate_concepts(ctx)
        assert export_dot(lat) == oracle_dot(lat, oracle_covers(oracle_order(lat)))


@pytest.mark.parametrize("block_words", [galois.COVERS_BLOCK_WORDS, 4], ids=["whole", "one-concept-blocks"])
def test_render_concepts_matches_its_oracle(monkeypatch, block_words):
    """Each concept's ``str`` a line, gathered from the masks whole or a
    concept a block, on contexts with a side wider than 64 labels, quoted
    labels and no objects or no attributes; DOT's node text likewise."""
    monkeypatch.setattr(galois, "COVERS_BLOCK_WORDS", block_words)
    shapes = set()
    for ctx in (quoted_context(), *contexts(), *large_contexts()):
        lat = enumerate_concepts(ctx)
        assert render_concepts(lat) == "".join(f"{c}\n" for c in lat.concepts)
        if block_words == 4:
            assert export_dot(lat) == oracle_dot(lat, lat.covers())
        shapes.add((len(ctx.objects) > 64 or len(ctx.attributes) > 64, bool(ctx.objects), bool(ctx.attributes)))
    assert {(True, True, True), (False, False, True), (False, True, False), (False, False, False)} <= shapes


def test_set_bit_kernels_match_the_per_bit_loops():
    rng = random.Random(31)
    for n, m in ((0, 0), (1, 1), (3, 70), (70, 3), (65, 64), (130, 129)):
        ctx = random_context(rng, n, m)
        for side, width in ((0, n), (1, m)):
            full = (1 << width) - 1
            masks = {0, full}
            if width:
                top = 1 << width - 1
                masks |= {1, top, 1 | top, full ^ 1, full ^ top}
                masks |= {rng.getrandbits(width) for _ in range(20)}
            for mask in masks:
                assert (ctx, ctx.T)[side].polar_up_mask(mask) == oracle_polar(ctx, mask, side)
                assert (ctx, ctx.T)[side].object_labels(mask) == oracle_labels(ctx, mask, side)
                # bits past the last label name nothing
                stray = mask | 1 << width + 3
                assert (ctx, ctx.T)[side].object_labels(stray) == oracle_labels(ctx, stray, side)


def byte_masks(rng, width):
    """Masks of one side: no label and every label, one label and every
    label but one at the byte boundaries, one byte value at every byte,
    random ones, the same with bits past the last label (inside the last
    byte and past it) and negative ones."""
    full, nbytes = (1 << width) - 1, (width + 7) // 8
    masks = {0, full}
    masks |= {int.from_bytes(bytes([b]) * nbytes, "little") for b in (0x01, 0x80, 0xA5, 0xFF)}
    masks |= {bit for i in (0, 7, 8, 9, 63, 64, 65, width - 1) if 0 <= i < width for bit in (1 << i, full ^ 1 << i)}
    masks |= {rng.getrandbits(width) for _ in range(20)} if width else set()
    stray = {m | 1 << width for m in masks} | {m | 1 << 8 * nbytes + 3 for m in masks}
    negative = {~m for m in masks} | {-m for m in masks} | {-1 << width, -(1 << 200)}
    return sorted(masks | stray | negative)


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65, 130])
def test_labels_decode_by_the_byte_as_the_per_bit_loop(width):
    """Each mask decoded on a cold memo and again on the warm one, then all
    of them on one memo and every byte value at every byte, on both sides
    of a context of this many objects and one of this many attributes: the
    memo is a dict per byte of a mask, each with at most 256 byte values."""
    rng = random.Random(width)
    for ctx in (random_context(rng, width, 9), random_context(rng, 9, width)):
        for side, labels in ((0, ctx.objects), (1, ctx.attributes)):
            kernel, nbytes = (ctx, ctx.T)[side], (len(labels) + 7) // 8
            masks = byte_masks(rng, len(labels))
            for mask in masks:
                vars(kernel).pop("_byte_labels", None)
                want = oracle_labels(ctx, mask, side)
                assert kernel.object_labels(mask) == want and kernel.object_labels(mask) == want
            vars(kernel).pop("_byte_labels")
            every_byte = [b << 8 * k for k in range(nbytes) for b in range(256)]
            for mask in [*masks, *every_byte, *masks]:
                assert kernel.object_labels(mask) == oracle_labels(ctx, mask, side)
            memo = kernel._byte_labels
            assert len(memo) == nbytes and all(len(position) <= 256 for position in memo)


def oracle_lectic(pairs, n):
    """The earlier sort of the walk's (extent, intent) pairs: by each
    extent's n bits as little-endian bytes, each byte bit-reversed."""
    reversed_bits = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
    nbytes = (n + 7) // 8
    return sorted(pairs, key=lambda c: c[0].to_bytes(nbytes, "little").translate(reversed_bits))


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
def test_lectic_argsort_matches_the_bit_reversed_byte_key(n):
    """Tall contexts (5 attributes, walked on ``ctx.T`` past 5 objects) and
    wide ones (n + 4 attributes, walked on ``ctx``), extents of up to three
    machine words."""
    rng = random.Random(n)
    for m, density in ((5, 0.5), (n + 4, 0.1)):
        ctx = random_context(rng, n, m, density)
        extents, intents = galois._lectic_closed_extents(ctx)
        pairs = list(zip(extents, intents))
        assert pairs == oracle_lectic(rng.sample(pairs, len(pairs)), n)
        assert extents == enumerate_concepts(ctx).extent_masks and len(set(extents)) == len(extents)


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


# labels each reader would change or refuse, beside ones every writer must write
UNREADABLE = ["", " a", "a\nb", "a\x85b", "a,b"]
PLAIN = ["a", "b", "c d"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(UNREADABLE + PLAIN), max_size=3, unique=True),
    st.lists(st.sampled_from(UNREADABLE + PLAIN), max_size=3, unique=True),
    st.data(),
)
def test_writers_refuse_the_labels_their_readers_would_change(objects, attributes, data):
    n, m = len(objects), len(attributes)
    plain = set(objects + attributes) <= set(PLAIN)
    incidence = np.array(data.draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)), dtype=bool)
    ctx = Context(objects, attributes, incidence.reshape(n, m))
    written = []
    for write, read in ((render_cxt, parse_cxt), (render_context_csv, parse_context_csv)):
        try:
            text = write(ctx)
        except FormatError:
            assert not plain or (write is render_context_csv and not m)
            continue
        assert read(text) == ctx
        written.append(write)
    if n and m:
        values = data.draw(st.lists(st.sampled_from([0.0, -1.5, 1e308, np.inf, -np.inf]), min_size=n * m, max_size=n * m))
        matrix = Profunctor(np.array(values).reshape(n, m), EXT_REAL, tuple(objects), tuple(attributes))
        try:
            text = render_matrix_csv(matrix)
        except FormatError:
            assert not plain
        else:
            assert parse_matrix_csv(text) == (tuple(objects), tuple(attributes), matrix)
            assert render_context_csv in written
