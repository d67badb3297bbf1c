"""Concept lattices from a binary relation between two label sets.

The polars of the relation form a Galois connection between subsets of
objects and subsets of attributes; the pairs fixed by both closures are
the concepts.  A context holds the relation as one read-only bool array
in core's TRUTH encoding, which ``to_profunctor`` wraps with its labels.
Subsets are bitmask integers.  Every kernel reads the objects (label
positions, each object's attributes packed once into a mask, the polar
walking a mask's set bits, and a mask's labels read off its set bits);
the attributes are the objects of ``T``, the transposed context, whose
``T`` is the context again and whose concepts are the same pairs with
the sides swapped and the order reversed.  A copy or a pickle of a
context is built anew from its labels and array, with no cache.
The lattice is walked on the smaller side, intersecting every intent
found so far with one row at a time, so each intent arrives with its
extent and no polar is taken; a walk past MAX_CONCEPTS is refused.  One
argsort of the extents' bit-reversed bytes puts them in lectic order.  A
lattice is the walk's extent and intent masks and the context; its
``Concept`` objects are a view built when read, and its text forms
gather the labels from all the masks unpacked at once.  The order is
inclusion of the extent masks.  The covers are each concept's upper
neighbours (Lindig, "Fast Concept Analysis", 2000), found in one array
pass over the masks packed into 64-bit words: concept j covers concept
i iff every object of extent j outside extent i leads from i to j.
Meets intersect extents, joins intersect intents; a concept galois built
keeps its masks, which its own context reads back unchecked.  A context
keeps weakly, by extent mask, each concept a meet or join of it handed
out: while a caller holds one, a meet or join reaching that extent
returns it and ``close_extent`` its extent, with no label decoded.  The
map holds only what callers hold, and a concept refers to its context
but not back, so it needs no bound.  A context's CSV form is core's
labelled table with 0/1 cells, read in whole columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence
from weakref import WeakValueDictionary

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
    "render_concepts",
    "parse_cxt",
    "render_cxt",
    "parse_context_csv",
    "render_context_csv",
]

# Most concepts the walk's table may hold after a row, which at most doubles it.
MAX_CONCEPTS = 1 << 19
# Most 64-bit words one block of the covers pass holds per candidate array:
# a block of concepts takes (intent words + 4) words per object outside them.
# A block of the concept text holds as many cells, one per label and concept.
COVERS_BLOCK_WORDS = 1 << 18


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

    def __reduce__(self):
        # through the constructor: a copy's array is read-only and no cache travels
        return Context, (self.objects, self.attributes, self.incidence_array)

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

    @cached_property
    def _handed(self) -> WeakValueDictionary[int, Concept]:
        # extent mask to the concept a meet or join of this context handed
        # out, for as long as a caller holds it
        return WeakValueDictionary()

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
        objects to the attributes, for core's push and pull: the checked,
        read-only array as it is (the constructor refuses an empty one)."""
        make = Profunctor._of if self.incidence_array.size else Profunctor
        return make(self.incidence_array, TRUTH, self.objects, self.attributes)


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
        return _CONCEPT_TEXT % (", ".join(self.extent), ", ".join(self.intent))


_CONCEPT_TEXT = "({%s}, {%s})"


def polar_up(ctx: Context, objects: Iterable[str]) -> tuple[str, ...]:
    """Attributes shared by every object in the subset; all of them for the
    empty subset."""
    return ctx.T.object_labels(ctx.polar_up_mask(ctx.object_mask(objects)))


def polar_down(ctx: Context, attributes: Iterable[str]) -> tuple[str, ...]:
    """Objects carrying every attribute in the subset: polar_up on ``ctx.T``."""
    return polar_up(ctx.T, attributes)


def close_extent(ctx: Context, objects: Iterable[str]) -> tuple[str, ...]:
    """Smallest extent containing the subset: polar_down of polar_up, the
    labels of a concept still handed out if one has that extent."""
    extent = ctx.close_extent_mask(ctx.object_mask(objects))
    concept = ctx._handed.get(extent)
    return ctx.object_labels(extent) if concept is None else concept.extent


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


def _lectic_closed_extents(ctx: Context) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The extent masks and the intent masks of every concept, in lectic
    order of the extents (label index 0 is most significant).

    Row intersections (Norris, 1978) over the objects of the context
    walked, ``ctx`` or ``ctx.T``, with no polar: ``found`` maps each intent
    of the rows read so far to its extent among them, starting from all
    attributes with the empty extent.  Row k (object bit ``1 << k``) sends
    each (t, e) to t & row_k, whose extent gains e and k.  That gives the
    extent of s = t & row_k in rows 0..k: the closure c of s in the earlier
    rows lies inside every source t, so c & row_k is s.  So c is a source
    itself, and its extent holds every other source's.  An intent inside
    row_k is its own source and so gains k.  A table past MAX_CONCEPTS after
    a row is refused.  On ``ctx.T`` the two sides are swapped back.  One
    argsort gives the order: its key is each extent packed into words, its
    little-endian bytes bit-reversed through a table and compared as one
    fixed-width byte string, so label 0 is compared first.
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
    extents, intents = list(found.values()), list(found)
    if transposed:
        extents, intents = intents, extents
    words = -(-len(ctx.objects) // 64) or 1  # a context without objects still packs a word
    keys = _REVERSED_BITS[_packed(extents, words).view(np.uint8)].view(f"S{8 * words}")[:, 0]
    order = np.argsort(keys).tolist()
    return tuple([extents[k] for k in order]), tuple([intents[k] for k in order])


# each byte value with its bits in reverse order
_REVERSED_BITS = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)


def _packed(masks: Sequence[int], words: int) -> np.ndarray:
    """Masks as rows of ``words`` little-endian 64-bit words, packed in
    chunks of at most COVERS_BLOCK_WORDS words, or read as one column of
    words when one word holds them."""
    if words == 1:
        return np.fromiter(masks, "<u8", len(masks)).reshape(-1, 1)
    out = np.empty((len(masks), words), "<u8")
    nbytes, step = 8 * words, max(1, COVERS_BLOCK_WORDS // words)
    for lo in range(0, len(masks), step):
        chunk = b"".join(m.to_bytes(nbytes, "little") for m in masks[lo:lo + step])
        out[lo:lo + step] = np.frombuffer(chunk, "<u8").reshape(-1, words)
    return out


def _keys(packed: np.ndarray) -> np.ndarray:
    """One sortable key per row of words: the word itself when there is
    one, else the row's bytes as one fixed-width string."""
    words = packed.shape[1]
    return packed[:, 0] if words == 1 else packed.view(f"S{8 * words}")[:, 0]


def _upper_neighbours(ctx: Context, extents: Sequence[int], intents: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), sorted, of concept j covering concept i, by
    Lindig's upper neighbours in one array pass.  For each concept (A, B)
    and each object g outside A, the candidate (A + g)'' has intent
    B & row_g, which is a concept's, since intents are closed under
    intersection: one ``searchsorted`` finds it among the sorted intents.
    j covers i iff every object of extent j outside A leads to j: each
    such g leads to a concept between i and j, and a concept k strictly
    between would hold such a g, whose candidate lies inside k.  Every g
    leading to j lies in extent j outside A, so the test is a count:
    |extent j| - |A| objects.  Candidates go in blocks of concepts of at
    most COVERS_BLOCK_WORDS words; the whole-lattice arrays are the packed
    intents and three indices per concept."""
    n, width = len(extents), len(ctx.objects)
    words = -(-len(ctx.attributes) // 64)
    order = np.argsort(_keys(_packed(intents, words)))
    intents = _packed([intents[k] for k in order.tolist()], words)  # sorted, packed once more: one copy held
    keys = _keys(intents)
    rank = np.empty(n, np.intp)
    rank[order] = np.arange(n)
    rows = _packed(ctx._rows, words)
    sizes = np.fromiter(map(int.bit_count, extents), np.int64, n)
    nbytes = (width + 7) // 8
    step = max(1, COVERS_BLOCK_WORDS // (width * (words + 4)))
    heads, tails = [], []
    for lo in range(0, n, step):
        block = extents[lo:lo + step]
        packed = np.frombuffer(b"".join(e.to_bytes(nbytes, "little") for e in block), np.uint8)
        inside = np.unpackbits(packed.reshape(len(block), nbytes), axis=1, count=width, bitorder="little")
        i, g = np.nonzero(inside == 0)
        i += lo
        candidates = intents[rank[i]]
        candidates &= rows[g]
        j = order[np.searchsorted(keys, _keys(candidates))]
        pairs, counts = np.unique(i * np.int64(n) + j, return_counts=True)
        i, j = np.divmod(pairs, n)
        kept = counts == sizes[j] - sizes[i]
        heads.append(i[kept])
        tails.append(j[kept])
    return np.concatenate(heads), np.concatenate(tails)


@dataclass(frozen=True, eq=False)
class ConceptLattice:
    """All concepts of a context in lectic order, as the extent and intent
    bitmasks of each and the context they were enumerated from: the first
    is the bottom, the closure of the empty set, and the last is the top,
    whose extent holds every object.  ``concepts`` is their ``Concept``
    view, built when read; the length, the order, the covers and the text
    forms read the masks alone.  Two lattices are equal iff their concepts
    are: the top names every object and the bottom every attribute, so
    that is equal labels and equal masks."""

    extent_masks: tuple[int, ...]
    intent_masks: tuple[int, ...] = field(repr=False)
    context: Context = field(repr=False)

    @cached_property
    def concepts(self) -> tuple[Concept, ...]:
        ctx = self.context
        return tuple(_concept(ctx, e, b) for e, b in zip(self.extent_masks, self.intent_masks))

    def _key(self) -> tuple:
        ctx = self.context
        return ctx.objects, ctx.attributes, self.extent_masks, self.intent_masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConceptLattice):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.extent_masks)

    def index_of(self, concept: Concept) -> int:
        """The concept's position, found by its extent mask; a pair that is
        not a concept of the context raises NotAConceptError."""
        return self.extent_masks.index(_masks_of(self.context, concept)[0])

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
        No polar, O(n min(|G|, |M|)) word operations on intents of
        max(|G|, |M|) bits, in blocks."""
        ctx = self.context
        n = len(self)
        if n == 1:  # no edge, and the walked side may have no labels
            return ()
        if _transposed(ctx):
            tails, heads = _upper_neighbours(ctx.T, self.intent_masks, self.extent_masks)
            pairs = np.sort(heads * np.int64(n) + tails)
            heads, tails = np.divmod(pairs, n)
        else:
            heads, tails = _upper_neighbours(ctx, self.extent_masks, self.intent_masks)
        return tuple(zip(heads.tolist(), tails.tolist()))


def _concept(ctx: Context, extent: int, intent: int) -> Concept:
    """The concept of ``ctx`` with these masks, keeping them, its three
    fields filled at once: a Context is frozen, so the pair stays closed in
    it."""
    concept = object.__new__(Concept)
    concept.__dict__.update(extent=ctx.object_labels(extent), intent=ctx.T.object_labels(intent),
                            _found=(ctx, extent, intent))
    return concept


def enumerate_concepts(ctx: Context) -> ConceptLattice:
    """Complete concept set in lectic order of the extents."""
    return ConceptLattice(*_lectic_closed_extents(ctx), ctx)


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
    intent is the polar of the intersection, taken only when no concept
    with that extent is still handed out."""
    extent = _masks_of(ctx, c1)[0] & _masks_of(ctx, c2)[0]
    concept = ctx._handed.get(extent)
    if concept is None:
        concept = ctx._handed[extent] = _concept(ctx, extent, ctx.polar_up_mask(extent))
    return concept


def lattice_join(ctx: Context, c1: Concept, c2: Concept) -> Concept:
    """Least common superconcept: intersect intents (already closed); the
    extent is the polar of the intersection, and the concept still handed
    out with that extent is returned if there is one."""
    intent = _masks_of(ctx, c1)[1] & _masks_of(ctx, c2)[1]
    extent = ctx.polar_down_mask(intent)
    concept = ctx._handed.get(extent)
    if concept is None:
        concept = ctx._handed[extent] = _concept(ctx, extent, intent)
    return concept


def _bits(masks: Sequence[int], width: int) -> np.ndarray:
    """Masks as rows of ``width`` bools, bit k in column k."""
    words = -(-width // 64) or 1  # a side without labels still packs a word per mask
    return np.unpackbits(_packed(masks, words).view(np.uint8), axis=1, count=width, bitorder="little").view(bool)


def _concept_lines(lattice: ConceptLattice, heads: Sequence[str], mid: str, tail: str, escape=None) -> str:
    """Each concept's text in lectic order: its head, its extent labels,
    ``mid``, its intent labels and ``tail``, each side's labels passed
    through ``escape`` if given and comma-separated.  The masks are
    unpacked into a row of cells per concept (head, objects, mid,
    attributes, tail), and the texts of the set cells, a label after
    another label with a leading ", ", are gathered into one join, in
    blocks of at most COVERS_BLOCK_WORDS cells."""
    ctx = lattice.context
    objects, attributes = ctx.objects, ctx.attributes
    if escape is not None:
        objects, attributes = tuple(map(escape, objects)), tuple(map(escape, attributes))
    g, width = len(objects), len(objects) + len(attributes) + 3
    plain = np.array(["", *objects, mid, *attributes, tail], dtype=object)
    comma = np.array(["", *(", " + a for a in objects), mid, *(", " + a for a in attributes), tail], dtype=object)
    label = np.ones(width, bool)
    label[[0, g + 1, -1]] = False
    step = max(1, COVERS_BLOCK_WORDS // width)
    out = []
    for lo in range(0, len(lattice), step):
        extents, intents = lattice.extent_masks[lo:lo + step], lattice.intent_masks[lo:lo + step]
        cells = np.ones((len(extents), width), bool)
        cells[:, 1:g + 1] = _bits(extents, g)
        cells[:, g + 2:-1] = _bits(intents, len(attributes))
        col = np.flatnonzero(cells) % width
        after_label = np.zeros(len(col), bool)
        after_label[1:] = label[col[:-1]]
        texts = np.where(after_label, comma[col], plain[col])
        texts[col == 0] = heads[lo:lo + step]
        out.append("".join(texts.tolist()))
    return "".join(out)


def render_concepts(lattice: ConceptLattice) -> str:
    """One concept a line, as ``str`` writes it, in lectic order."""
    head, mid, tail = _CONCEPT_TEXT.split("%s")
    return _concept_lines(lattice, [head] * len(lattice), mid, tail + "\n")


def _dot_escaped(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(lattice: ConceptLattice) -> str:
    """GraphViz source for the Hasse diagram, edges pointing up the order."""
    heads = [f'  c{i} [label="{{' for i in range(len(lattice))]
    nodes = _concept_lines(lattice, heads, "} / {", '}"];\n', _dot_escaped)
    edges = "".join([f"  c{i} -> c{j};\n" for i, j in lattice.covers()])
    return "digraph concepts {\n  rankdir=BT;\n  node [shape=box];\n" + nodes + edges + "}\n"


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
