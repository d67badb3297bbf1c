"""Concept lattices from a binary relation between two label sets.

The polars of the relation form a Galois connection between subsets of
objects and subsets of attributes; the pairs fixed by both closures are
the concepts.  A context holds the relation as one read-only bool array
in core's TRUTH encoding, which ``to_profunctor`` wraps with its labels.
Subsets are bitmask integers.  Every kernel reads the objects (label
positions, each object's attributes packed once into a mask, the polar
walking a mask's set bits); the attributes are the objects of ``T``, the
transposed context, whose ``T`` is the context again and whose concepts
are the same pairs with the sides swapped and the order reversed.
The lattice is walked on the smaller side, intersecting every intent
found so far with one row at a time, so each intent arrives with its
extent and no polar is taken; a walk past MAX_CONCEPTS is refused.  A
lattice keeps the concepts with their extent and intent masks and the
context.  The order is inclusion of the extent masks, and the covers are
each concept's upper neighbours (Lindig, "Fast Concept Analysis", 2000),
found by intent in a table.  Meets intersect extents, joins intersect
intents; a concept galois built keeps its masks, which its own context
reads back unchecked.  A context's CSV form is core's labelled table
with 0/1 cells, read in whole columns.
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
    "TooManyConceptsError",
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

# Most concepts the walk's table may hold after a row, which at most doubles it.
MAX_CONCEPTS = 1 << 19


class UnknownLabelError(ValueError):
    """A subset mentions a label the context does not have."""


class NotAConceptError(ValueError):
    """An (extent, intent) pair that is not closed under the polars."""


class TooManyConceptsError(ValueError):
    """A context with more than MAX_CONCEPTS concepts."""


@dataclass(frozen=True, eq=False)
class Context:
    """Objects, attributes and their incidence as one read-only bool array in
    TRUTH's encoding, a row per object, given as such or as rows of truth
    values, bools or the integers 0 and 1.  ``incidence`` is its tuple view,
    built when read; the kernels read its rows, packed once into masks, and
    ``T`` its columns."""

    objects: tuple[str, ...]
    attributes: tuple[str, ...]
    incidence_array: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "attributes", tuple(self.attributes))
        for what, labels in (("object", self.objects), ("attribute", self.attributes)):
            if len(set(labels)) != len(labels):
                raise ValueError(f"{what} labels must be unique")
        shape = (len(self.objects), len(self.attributes))
        cells = np.array(self.incidence_array)
        # bool() would read any number, text or None as a truth value
        if cells.size and not (cells.dtype == bool or cells.dtype.kind in "iu" and np.isin(cells, (0, 1)).all()):
            raise ValueError("incidence cells must be truth values: bools or the integers 0 and 1")
        grid = cells.astype(bool, copy=False)
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
    def from_pairs(cls, objects: Sequence[str], attributes: Sequence[str], pairs: Iterable[tuple[str, str]]) -> "Context":
        blank = cls(objects, attributes, np.zeros((len(objects), len(attributes)), dtype=bool))
        grid = blank.incidence_array.copy()
        for g, m in pairs:
            grid[blank._position(g), blank.T._position(m)] = True
        return cls(blank.objects, blank.attributes, grid)

    @cached_property
    def T(self) -> "Context":
        """The transposed context: the attributes as objects, the objects as
        attributes, the array transposed, and this context as its ``T``."""
        transposed = Context(self.attributes, self.objects, self.incidence_array.T)
        transposed.__dict__["T"] = self
        return transposed

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.objects)}

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        # per object, the mask of its attributes
        packed = np.packbits(self.incidence_array, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)

    def _position(self, label: str) -> int:
        i = self._index.get(label)
        if i is None:
            raise UnknownLabelError(f"unknown label {label!r}")
        return i

    def object_mask(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self._position(label)
        return mask

    def object_labels(self, mask: int) -> tuple[str, ...]:
        # set bits only, lowest first; bits past the last object are ignored
        labels = self.objects
        mask &= (1 << len(labels)) - 1
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def polar_up_mask(self, object_mask: int) -> int:
        rows = self._rows
        out = (1 << len(self.attributes)) - 1
        while object_mask:
            low = object_mask & -object_mask
            out &= rows[low.bit_length() - 1]
            object_mask ^= low
        return out

    def polar_down_mask(self, attribute_mask: int) -> int:
        return self.T.polar_up_mask(attribute_mask)

    def close_extent_mask(self, object_mask: int) -> int:
        return self.T.polar_up_mask(self.polar_up_mask(object_mask))

    def to_profunctor(self):
        """The incidence relation as a truth-valued profunctor from the
        objects to the attributes, for core's push and pull."""
        return Profunctor(self.incidence_array, TRUTH, self.objects, self.attributes)


@dataclass(frozen=True)
class Concept:
    """A closed pair: each side is exactly the polar of the other.  Labels
    are kept as tuples in context order: rendering is deterministic.  One
    that galois built keeps its context and masks; a copy keeps the labels."""

    extent: tuple[str, ...]
    intent: tuple[str, ...]
    _found: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "extent", tuple(self.extent))
        object.__setattr__(self, "intent", tuple(self.intent))

    def __reduce__(self):
        return Concept, (self.extent, self.intent)

    def __str__(self) -> str:
        return "({%s}, {%s})" % (", ".join(self.extent), ", ".join(self.intent))


def polar_up(ctx: Context, objects: Iterable[str]) -> tuple[str, ...]:
    """Attributes shared by every object in the subset; all of them for the
    empty subset."""
    return ctx.T.object_labels(ctx.polar_up_mask(ctx.object_mask(objects)))


def polar_down(ctx: Context, attributes: Iterable[str]) -> tuple[str, ...]:
    """Objects carrying every attribute in the subset: polar_up on ``ctx.T``."""
    return polar_up(ctx.T, attributes)


def close_extent(ctx: Context, objects: Iterable[str]) -> tuple[str, ...]:
    """Smallest extent containing the subset: polar_down of polar_up."""
    return ctx.object_labels(ctx.close_extent_mask(ctx.object_mask(objects)))


def is_concept(ctx: Context, concept: Concept) -> bool:
    try:
        _masks_of(ctx, concept)
    except NotAConceptError:
        return False
    return True


def _transposed(ctx: Context) -> bool:
    """Whether the walk and the covers run on ``ctx.T``: the side with fewer
    labels bounds both loops, and the lattice is self-dual."""
    return len(ctx.attributes) < len(ctx.objects)


def _lectic_closed_extents(ctx: Context) -> list[tuple[int, int]]:
    """Every concept as (extent mask, intent mask), in lectic order of the
    extents (label index 0 is most significant).

    Row intersections (Norris, 1978) over the objects of the context
    walked, ``ctx`` or ``ctx.T``, with no polar: ``found`` maps each intent
    of the rows read so far to its extent among them, starting from all
    attributes with the empty extent.  Row k (object bit ``1 << k``) sends
    each (t, e) to t & row_k, whose extent gains e and k.  That gives the
    extent of s = t & row_k in rows 0..k: the closure c of s in the earlier
    rows lies inside every source t, so c & row_k is s.  So c is a source
    itself, and its extent holds every other source's.  An intent inside
    row_k is its own source and so gains k.  A table past MAX_CONCEPTS after
    a row is refused.  On ``ctx.T`` each pair is swapped back.  Sorting by
    the extent's little-endian bytes, each bit-reversed, gives the order:
    the key compares label 0 first.
    """
    transposed = _transposed(ctx)
    walked = ctx.T if transposed else ctx
    found = {(1 << len(walked.attributes)) - 1: 0}
    get = found.get
    for k, row in enumerate(walked._rows):
        bit = 1 << k
        for intent, extent in list(found.items()):
            intent &= row
            found[intent] = get(intent, 0) | extent | bit
        if len(found) > MAX_CONCEPTS:
            walked_rows = f"{k + 1} of {len(walked.objects)} rows"
            raise TooManyConceptsError(f"{len(found)} concepts after {walked_rows}, more than the cap of {MAX_CONCEPTS}")
    pairs = found.items() if transposed else ((e, b) for b, e in found.items())
    nbytes = (len(ctx.objects) + 7) // 8
    return sorted(pairs, key=lambda c: c[0].to_bytes(nbytes, "little").translate(_REVERSED_BITS))


_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _upper_neighbours(ctx: Context, extents: Sequence[int], intents: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (i, j) with concept j covering concept i, by Lindig's upper
    neighbours: for each concept (A, B), every object g outside A gives the
    candidate (A + g)'' with intent B & row_g.  Intents are closed under
    intersection, so that intent is already a concept's, and a table from
    intent to index finds it with no polar.  The candidate is an upper
    neighbour unless it holds another object still marked minimal beyond
    A, in which case g stops being minimal.  O(n |G|) word operations."""
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
    return edges


@dataclass(frozen=True)
class ConceptLattice:
    """All concepts of a context in lectic order, with the extent and intent
    bitmasks of each: the first is the bottom, the closure of the empty
    set, and the last is the top, whose extent holds every object.  The
    context they were enumerated from is kept for ``covers``."""

    concepts: tuple[Concept, ...]
    extent_masks: tuple[int, ...]
    context: Context = field(repr=False, compare=False)
    intent_masks: tuple[int, ...] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.concepts)

    def index_of(self, concept: Concept) -> int:
        return self.concepts.index(concept)

    def leq(self, i: int, j: int) -> bool:
        """Concept i <= concept j: extent i lies inside extent j."""
        return self.extent_masks[i] & ~self.extent_masks[j] == 0

    @property
    def top(self) -> Concept:
        return self.concepts[-1]

    @property
    def bottom(self) -> Concept:
        return self.concepts[0]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) with concept j covering concept i, sorted: the upper
        neighbours on the side the concepts were walked on.  On ``ctx.T``
        the order is reversed, so its edge (i, j) is the edge (j, i) here.
        No polar, O(n min(|G|, |M|)) word operations, O(n + edges) memory."""
        ctx = self.context
        if _transposed(ctx):
            edges = [(j, i) for i, j in _upper_neighbours(ctx.T, self.intent_masks, self.extent_masks)]
        else:
            edges = _upper_neighbours(ctx, self.extent_masks, self.intent_masks)
        edges.sort()
        return tuple(edges)


def _concept(ctx: Context, extent: int, intent: int) -> Concept:
    """The concept of ``ctx`` with these masks, keeping them: a Context is
    frozen, so the pair stays closed in it."""
    concept = Concept(ctx.object_labels(extent), ctx.T.object_labels(intent))
    object.__setattr__(concept, "_found", (ctx, extent, intent))
    return concept


def enumerate_concepts(ctx: Context) -> ConceptLattice:
    """Complete concept set in lectic order of the extents."""
    pairs = _lectic_closed_extents(ctx)
    concepts = tuple(_concept(ctx, e, b) for e, b in pairs)
    extents, intents = zip(*pairs)  # there is always a bottom concept
    return ConceptLattice(concepts, extents, ctx, intents)


def _masks_of(ctx: Context, concept: Concept) -> tuple[int, int]:
    """The extent and intent masks of a concept of the context: those it
    kept when galois built it from this very context, else each side's
    labels known, in context order without repeats, and each side the
    other's polar."""
    found = concept._found
    if found is not None and found[0] is ctx:
        return found[1], found[2]
    masks = []
    for index, labels in ((ctx._index, concept.extent), (ctx.T._index, concept.intent)):
        mask = 0
        for label in labels:
            i = index.get(label, -1)
            if i < 0 or mask >> i:  # unknown, or not after every label before it
                raise NotAConceptError(f"not a concept of this context: {concept}")
            mask |= 1 << i
        masks.append(mask)
    extent, intent = masks
    if ctx.polar_up_mask(extent) != intent or ctx.polar_down_mask(intent) != extent:
        raise NotAConceptError(f"not a concept of this context: {concept}")
    return extent, intent


def lattice_meet(ctx: Context, c1: Concept, c2: Concept) -> Concept:
    """Greatest common subconcept: intersect extents (already closed); the
    intent is the polar of the intersection."""
    extent = _masks_of(ctx, c1)[0] & _masks_of(ctx, c2)[0]
    return _concept(ctx, extent, ctx.polar_up_mask(extent))


def lattice_join(ctx: Context, c1: Concept, c2: Concept) -> Concept:
    """Least common superconcept: intersect intents (already closed); the
    extent is the polar of the intersection."""
    intent = _masks_of(ctx, c1)[1] & _masks_of(ctx, c2)[1]
    return _concept(ctx, ctx.polar_down_mask(intent), intent)


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
            if "_" in ln or not ln.isascii():  # int reads 0_1 and non-ASCII digits
                raise ValueError
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
    for lab in (*ctx.objects, *ctx.attributes):
        if not lab or lab != lab.strip() or len(lab.splitlines()) > 1:
            raise FormatError(f"label {lab!r} has no .cxt form: a name is one non-empty line, not padded")
    out = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes))]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    out.extend(map("".join, np.where(ctx.incidence_array, "X", ".").tolist()))
    return "\n".join(out) + "\n"


def _incidence_cell(token: str) -> None:
    if token not in ("0", "1"):
        raise ValueError("incidence cells must be 0 or 1")


def parse_context_csv(text: str) -> Context:
    """0/1 matrix with a header of attribute labels and a leading label column."""
    return parse_labelled_csv(text, "context", _incidence_cell, _read_context)


def _read_context(header, labels, cells, numbers) -> Context:
    if not {"0", "1"}.issuperset(cells):
        raise ValueError("incidence cells must be 0 or 1")
    # each cell is one character, so the joined text has one byte per cell
    grid = np.frombuffer("".join(cells).encode(), dtype=np.uint8) == ord("1")
    try:
        return Context(labels, header[1:], grid.reshape(len(labels), len(header) - 1))
    except ValueError as e:
        raise FormatError(str(e)) from None


def render_context_csv(ctx: Context) -> str:
    rows = np.where(ctx.incidence_array, "1", "0").tolist()
    return render_labelled_csv(ctx.objects, ctx.attributes, rows)
