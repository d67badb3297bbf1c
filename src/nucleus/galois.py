"""Concept lattices from a binary relation between two label sets.

The polars of the relation form a Galois connection between subsets of
objects and subsets of attributes; the pairs fixed by both closures are
the concepts.  A context holds the relation as one read-only bool array
in core's TRUTH encoding, which ``to_profunctor`` wraps.  Subsets are
bitmask integers, and one polar kernel serves both sides (0 the objects,
1 the attributes) from the array's rows and columns packed into masks,
walking only the set bits.  FCbO enumerates every concept once, keeping
the intents found so far in a table, so a candidate already generated
costs one lookup, not a closure.  A lattice keeps the concepts with
their extent masks and the context, builds the inclusion order only when
read, and takes its covers from each concept's upper neighbours (Lindig,
"Fast Concept Analysis", 2000), found by intent in a table as well.
Meets intersect extents, joins close the union.  A context's CSV form is
core's labelled table with 0/1 cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .core import TRUTH, FormatError, Profunctor, parse_labelled_csv, render_labelled_csv

__all__ = [
    "UnknownLabelError",
    "NotAConceptError",
    "Context",
    "Concept",
    "ConceptLattice",
    "polar_up",
    "polar_down",
    "close_extent",
    "is_concept",
    "enumerate_concepts",
    "lattice_meet",
    "lattice_join",
    "export_dot",
    "parse_cxt",
    "render_cxt",
    "parse_context_csv",
    "render_context_csv",
]


class UnknownLabelError(ValueError):
    """A subset mentions a label the context does not have."""


class NotAConceptError(ValueError):
    """An (extent, intent) pair that is not closed under the polars."""


@dataclass(frozen=True, eq=False)
class Context:
    """Objects, attributes and their incidence as one read-only bool array in
    TRUTH's encoding, a row per object, given as such or as rows of truth
    values (0/1 included).  ``incidence`` is its tuple view, built when read;
    the polars read its rows and columns packed once into bitmask integers."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence_array: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("object labels must be unique")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("attribute labels must be unique")
        shape = (len(self.objects), len(self.attributes))
        grid = np.array(self.incidence_array, dtype=bool)
        if grid.shape == (0,):  # no rows, so no width to read
            grid = grid.reshape(0, shape[1])
        if grid.shape != shape:
            raise ValueError("incidence must have one row per object and one column per attribute")
        grid.setflags(write=False)
        object.__setattr__(self, "incidence_array", grid)

    @cached_property
    def incidence(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(map(tuple, self.incidence_array.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Context):
            return False
        same_labels = (self.objects, self.attributes) == (other.objects, other.attributes)
        return same_labels and np.array_equal(self.incidence_array, other.incidence_array)

    def __hash__(self) -> int:
        return hash((self.objects, self.attributes, self.incidence_array.tobytes()))

    @classmethod
    def from_pairs(
        cls,
        objects: Sequence[str],
        attributes: Sequence[str],
        pairs: Iterable[tuple[str, str]],
    ) -> "Context":
        blank = cls(objects, attributes, np.zeros((len(objects), len(attributes)), dtype=bool))
        grid = blank.incidence_array.copy()
        for g, m in pairs:
            grid[blank._position(g, 0), blank._position(m, 1)] = True
        return cls(blank.objects, blank.attributes, grid)

    @cached_property
    def _index(self) -> tuple[dict[str, int], dict[str, int]]:
        return tuple({label: i for i, label in enumerate(side)} for side in (self.objects, self.attributes))

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # side 0: per object, the mask of its attributes; side 1: per attribute, its objects
        grid = self.incidence_array
        packed = (np.packbits(g, axis=1, bitorder="little") for g in (grid, grid.T))
        return tuple(tuple(int.from_bytes(row.tobytes(), "little") for row in side) for side in packed)

    def _position(self, label: str, side: int) -> int:
        i = self._index[side].get(label)
        if i is None:
            raise UnknownLabelError(f"unknown {('object', 'attribute')[side]} {label!r}")
        return i

    def _mask_of(self, labels: Iterable[str], side: int) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self._position(label, side)
        return mask

    def _labels_of(self, mask: int, side: int) -> tuple[str, ...]:
        # set bits only, lowest first; bits past the last label are ignored
        labels = (self.objects, self.attributes)[side]
        mask &= (1 << len(labels)) - 1
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def _polar(self, mask: int, side: int) -> int:
        """The members of the other side related to every member of ``mask``."""
        rows = self._masks[side]
        out = (1 << len(self._masks[1 - side])) - 1
        while mask:
            low = mask & -mask
            out &= rows[low.bit_length() - 1]
            mask ^= low
        return out

    def object_mask(self, labels: Iterable[str]) -> int:
        return self._mask_of(labels, 0)

    def attribute_mask(self, labels: Iterable[str]) -> int:
        return self._mask_of(labels, 1)

    def object_labels(self, mask: int) -> tuple[str, ...]:
        return self._labels_of(mask, 0)

    def attribute_labels(self, mask: int) -> tuple[str, ...]:
        return self._labels_of(mask, 1)

    def polar_up_mask(self, object_mask: int) -> int:
        return self._polar(object_mask, 0)

    def polar_down_mask(self, attribute_mask: int) -> int:
        return self._polar(attribute_mask, 1)

    def close_extent_mask(self, object_mask: int) -> int:
        return self._polar(self._polar(object_mask, 0), 1)

    def to_profunctor(self):
        """The incidence relation as a truth-valued profunctor, for use with
        the generic push/pull machinery."""
        return Profunctor(self.incidence_array, TRUTH)


@dataclass(frozen=True)
class Concept:
    """A closed pair: each side is exactly the polar of the other.
    Labels are kept in context order, so rendering is deterministic."""

    extent: tuple[str, ...]
    intent: tuple[str, ...]

    def __str__(self) -> str:
        return "({%s}, {%s})" % (", ".join(self.extent), ", ".join(self.intent))


def polar_up(ctx: Context, objects: Iterable[str]) -> tuple[str, ...]:
    """Attributes shared by every object in the subset; all of them for the
    empty subset."""
    return ctx.attribute_labels(ctx.polar_up_mask(ctx.object_mask(objects)))


def polar_down(ctx: Context, attributes: Iterable[str]) -> tuple[str, ...]:
    """Objects carrying every attribute in the subset."""
    return ctx.object_labels(ctx.polar_down_mask(ctx.attribute_mask(attributes)))


def close_extent(ctx: Context, objects: Iterable[str]) -> tuple[str, ...]:
    """Smallest extent containing the subset: polar_down of polar_up."""
    return ctx.object_labels(ctx.close_extent_mask(ctx.object_mask(objects)))


def _concept_from_extent_mask(ctx: Context, extent_mask: int) -> Concept:
    return Concept(
        extent=ctx.object_labels(extent_mask),
        intent=ctx.attribute_labels(ctx.polar_up_mask(extent_mask)),
    )


def is_concept(ctx: Context, concept: Concept) -> bool:
    try:
        _extent_mask(ctx, concept)
    except NotAConceptError:
        return False
    return True


def _lectic_closed_extents(ctx: Context) -> list[tuple[int, int]]:
    """Every concept as (extent mask, intent mask), in lectic order of the
    extents (label index 0 is most significant).

    FCbO (Outrata and Vychodil, 2012) over the objects, on a stack: a node
    (A, B, start) tries each object j >= start outside A and keeps the
    closure of A + j when it adds nothing below j.  Children inherit the
    closures that failed that test, and skip j while the failed closure
    for j adds something below j outside their A.  A table from the
    intents found so far to their extents answers the candidate intent
    B & row_j: a hit was generated elsewhere, so it is not canonical here.
    Only a new intent costs a closure, about 1.2 per concept on random
    contexts; children run in ascending j, as FCbO recurses, which fills
    the table before most lookups.  Sorting by the bit-reversed extent
    gives the order.
    """
    n = len(ctx.objects)
    rows = ctx._masks[0]
    bottom = ctx.close_extent_mask(0)
    all_attributes = (1 << len(ctx.attributes)) - 1
    found = {all_attributes: bottom}
    stack = [(bottom, all_attributes, 0, [0] * n)]
    while stack:
        extent, intent, start, inherited = stack.pop()
        failed = inherited.copy()
        children = []
        for j in range(start, n):
            below = (1 << j) - 1
            if extent >> j & 1 or failed[j] & below & ~extent:
                continue
            candidate = intent & rows[j]
            closed = found.get(candidate)
            if closed is None:
                closed = ctx.close_extent_mask(extent | 1 << j)
                if closed & below == extent & below:
                    found[candidate] = closed
                    children.append((closed, candidate, j + 1, failed))
                    continue
            failed[j] = closed
        stack.extend(reversed(children))
    return sorted(((e, b) for b, e in found.items()), key=lambda c: f"{c[0]:0{n}b}"[::-1])


@dataclass(frozen=True)
class ConceptLattice:
    """All concepts of a context in lectic order, with the extent bitmask of
    each: the first is the bottom, the closure of the empty set, and the
    last is the top, whose extent holds every object.  The context they
    were enumerated from is kept for ``covers``."""

    concepts: tuple[Concept, ...]
    extent_masks: tuple[int, ...]
    context: Context = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.concepts)

    def index_of(self, concept: Concept) -> int:
        return self.concepts.index(concept)

    @cached_property
    def order(self) -> tuple[tuple[bool, ...], ...]:
        """``order[i][j]``: concept i <= concept j, by extent inclusion."""
        masks = self.extent_masks
        return tuple(tuple(a & b == a for b in masks) for a in masks)

    @property
    def top(self) -> Concept:
        return self.concepts[-1]

    @property
    def bottom(self) -> Concept:
        return self.concepts[0]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) with concept j covering concept i, sorted.

        Lindig's upper neighbours: for each concept (A, B), every object g
        outside A gives the candidate (A + g)'' with intent B & row_g.
        Intents are closed under intersection, so that intent is already a
        concept's, and a table from intent to index finds it with no polar.
        The candidate is an upper neighbour unless it holds another object
        still marked minimal beyond A, in which case g stops being minimal.
        One polar per concept, O(n |G|) word operations, O(n + edges) memory."""
        ctx = self.context
        rows = ctx._masks[0]
        extents = self.extent_masks
        intents = [ctx._polar(extent, 0) for extent in extents]
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
        edges.sort()
        return tuple(edges)


def enumerate_concepts(ctx: Context) -> ConceptLattice:
    """Complete concept set in lectic order of the extents."""
    pairs = _lectic_closed_extents(ctx)
    concepts = tuple(Concept(ctx.object_labels(e), ctx.attribute_labels(b)) for e, b in pairs)
    return ConceptLattice(concepts, tuple(e for e, _ in pairs), ctx)


def _extent_mask(ctx: Context, concept: Concept) -> int:
    """The extent mask of a concept of the context: each side's labels known,
    in context order without repeats, and each side the other's polar."""
    masks = [0, 0]
    for side, labels in enumerate((concept.extent, concept.intent)):
        index = ctx._index[side]
        for label in labels:
            i = index.get(label, -1)
            if i < 0 or masks[side] >> i:  # unknown, or not after every label before it
                raise NotAConceptError(f"not a concept of this context: {concept}")
            masks[side] |= 1 << i
    extent, intent = masks
    if ctx.polar_up_mask(extent) != intent or ctx.polar_down_mask(intent) != extent:
        raise NotAConceptError(f"not a concept of this context: {concept}")
    return extent


def lattice_meet(ctx: Context, c1: Concept, c2: Concept) -> Concept:
    """Greatest common subconcept: intersect extents (already closed)."""
    return _concept_from_extent_mask(ctx, _extent_mask(ctx, c1) & _extent_mask(ctx, c2))


def lattice_join(ctx: Context, c1: Concept, c2: Concept) -> Concept:
    """Least common superconcept: close the union of extents; the intent is
    the intersection of intents."""
    union = _extent_mask(ctx, c1) | _extent_mask(ctx, c2)
    return _concept_from_extent_mask(ctx, ctx.close_extent_mask(union))


def export_dot(lattice: ConceptLattice) -> str:
    """GraphViz source for the Hasse diagram, edges pointing up the order."""
    lines = ["digraph concepts {", "  rankdir=BT;", "  node [shape=box];"]
    for i, c in enumerate(lattice.concepts):
        label = "{%s} / {%s}" % (", ".join(c.extent), ", ".join(c.intent))
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in lattice.covers():
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Burmeister .cxt: "B", a name line (may be blank), the two counts, object
# names, attribute names, then one X/. row per object.  Blank separator
# lines are tolerated when parsing; rendering never emits them.

def parse_cxt(text: str) -> Context:
    lines = text.splitlines()
    marked = next((n for n, raw in enumerate(lines) if raw.strip()), None)
    if marked is None:
        raise FormatError("unexpected end of file while reading the format marker")
    if lines[marked].strip() != "B":
        raise FormatError("expected Burmeister marker 'B'", line=marked + 1)
    if marked + 1 == len(lines):
        raise FormatError("unexpected end of file while reading the name line")
    # the lines after the name line that are not blank, stripped, with their numbers
    body = [(n, ln) for n, ln in enumerate(map(str.strip, lines[marked + 2:]), start=marked + 3) if ln]

    whats = ("object count", "attribute count")
    counts = []
    for what, (lineno, ln) in zip(whats, body):
        try:
            counts.append(int(ln))
        except ValueError:
            raise FormatError(f"expected {what}, got {lines[lineno - 1]!r}", line=lineno) from None
        if counts[-1] < 0:
            raise FormatError(f"{what} may not be negative", line=lineno)
    if len(counts) < 2:
        raise FormatError(f"unexpected end of file while reading {whats[len(counts)]}")
    n_obj, n_attr = counts

    # without attributes the incidence rows are empty lines, indistinguishable
    # from separators, so none are read
    n_rows, end = n_obj if n_attr else 0, 2 + n_obj + n_attr
    names, rows, rest = [ln for _, ln in body[2:end]], body[end:end + n_rows], body[end + n_rows:]
    for lineno, row in rows:
        if len(row) != n_attr:
            raise FormatError(f"incidence row has {len(row)} cells, expected {n_attr}", line=lineno)
        if bad := row.translate(_CXT_CELLS):
            raise FormatError(f"incidence cells must be 'X' or '.', got {bad[0]!r}", line=lineno)
    if len(names) < n_obj + n_attr or len(rows) < n_rows:
        what = ("an object name" if len(names) < n_obj
                else "an attribute name" if len(names) < end - 2 else "an incidence row")
        raise FormatError(f"unexpected end of file while reading {what}")
    cells = np.frombuffer("".join(row for _, row in rows).encode(), dtype=np.uint8).reshape(n_obj, n_attr)
    try:
        ctx = Context(names[:n_obj], names[n_obj:], cells != ord("."))
    except ValueError as e:
        raise FormatError(str(e)) from None
    if rest:
        raise FormatError(f"unexpected line after the incidence rows: {rest[0][1]!r}", line=rest[0][0])
    return ctx


_CXT_CELLS = str.maketrans("", "", "Xx.")


def render_cxt(ctx: Context) -> str:
    out = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes))]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    out.extend(map("".join, np.where(ctx.incidence_array, "X", ".").tolist()))
    return "\n".join(out) + "\n"


def _incidence_cell(token: str) -> bool:
    if token not in ("0", "1"):
        raise ValueError("incidence cells must be 0 or 1")
    return token == "1"


def parse_context_csv(text: str) -> Context:
    """0/1 matrix with a header of attribute labels and a leading label column."""
    objects, attributes, rows = parse_labelled_csv(text, "context", _incidence_cell, nonempty=False)
    try:
        return Context(objects, attributes, rows)
    except ValueError as e:
        raise FormatError(str(e)) from None


def render_context_csv(ctx: Context) -> str:
    rows = np.where(ctx.incidence_array, "1", "0").tolist()
    return render_labelled_csv(ctx.objects, ctx.attributes, rows)
