"""Quantales as array operations, finite profunctors and the push/pull adjunction.

A quantale bundles the order, lattice folds, tensor and residuation of
one carrier as operations on an array encoding: truth values as bool
(tensor = conjunction, residuation = implication), or the extended reals
as float64 with IEEE infinities for the infinite tags, ordered by >= (join
is infimum, meet is supremum, the tensor is saturating addition and
residuation is the subtraction table from :mod:`nucleus.extreal`).

A profunctor, a finite matrix of quantale values between two object
sets, induces the adjoint pair ``push``/``pull`` between PRE and OPCO
vectors: one kernel, :func:`adjoint_arrays`.  Their composites are
closure operators; limits and colimits of fixed pairs are computed
pointwise and re-closed on the side the pointwise formula can leave.
Profunctors and vectors hold one encoded array each; the scalar views
``entries`` and ``values`` are built only when read, and each object set
may carry an index, labels or a grid: core alone decides whether two
operands share objects, sizes first, then indices, where None
(positional) agrees with any, and results carry the index on.  Matrix,
context and function files are one labelled-table CSV, read in whole
columns by :func:`parse_labelled_csv`, whose one row walk names the
first fault of a file it refuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress, count, repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from . import extreal as ext
from .extreal import ExtReal

__all__ = [
    "Side",
    "LimitKind",
    "SizeMismatchError",
    "NotFixedError",
    "FormatError",
    "Quantale",
    "TRUTH",
    "EXT_REAL",
    "Profunctor",
    "PresheafVector",
    "identity_profunctor",
    "adjoint_arrays",
    "push",
    "pull",
    "closure",
    "is_fixed",
    "hom_distance",
    "adjunction_gap",
    "compose_profunctors",
    "pointwise_meet",
    "pointwise_join",
    "tensor_each",
    "residuate_each",
    "nucleus_limit",
    "underlying_preorder",
    "check_rspace_axioms",
    "RSpaceReport",
    "parse_labelled_csv",
    "render_labelled_csv",
    "parse_matrix_csv",
    "render_matrix_csv",
]


class Side(Enum):
    PRE = "pre"
    OPCO = "opco"


class LimitKind(Enum):
    PRODUCT = "product"
    COPRODUCT = "coproduct"
    TENSOR = "tensor"
    COTENSOR = "cotensor"


class SizeMismatchError(ValueError):
    """Operands indexed by object sets of incompatible sizes."""


class NotFixedError(ValueError):
    """A pair handed to nucleus_limit is not a fixed pair of the adjunction."""


class FormatError(ValueError):
    """Malformed text input; carries the offending line and field."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field {field!r}")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


@dataclass(frozen=True, eq=False, repr=False)
class Quantale:
    """One complete commutative quantale as operations on its array encoding.

    ``join`` and ``meet`` are numpy ufuncs (``meet.reduce`` folds an axis);
    ``tensor``, ``residuate`` (``residuate(b, c)`` is the largest a with
    a (x) b <= c) and ``approx_equal`` act on whole arrays.  ``leq``,
    ``unit``, ``bottom`` and ``top`` are scalars.
    """

    name: str
    scalar_type: type
    dtype: type
    encode_cell: Callable
    decode: Callable[[np.ndarray], tuple]
    leq: Callable[[object, object], bool]
    join: np.ufunc
    meet: np.ufunc
    tensor: Callable[[np.ndarray, np.ndarray], np.ndarray]
    residuate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    approx_equal: Callable[[np.ndarray, np.ndarray, float], bool]
    unit: object
    bottom: object
    top: object
    default_fixed_tol: float

    def encode(self, cells, ndim: int = 1) -> np.ndarray:
        """A fresh read-only array from an array of this encoding or from a
        sequence of scalars (rows of scalars for ``ndim`` 2).  A cell of
        another type is a TypeError; ragged rows are a ValueError."""
        if isinstance(cells, np.ndarray):
            if cells.dtype != self.dtype or cells.ndim != ndim:
                raise TypeError(f"{self.name} quantale needs a {ndim}-d {np.dtype(self.dtype)} array")
            arr = cells.copy()
        else:
            rows = [tuple(row) for row in cells] if ndim == 2 else [tuple(cells)]
            width = len(rows[0]) if rows else 0
            if any(len(row) != width for row in rows):
                raise ValueError("matrix rows must all have the same length")
            flat = [c for row in rows for c in row]
            for kind in set(map(type, flat)):
                if not issubclass(kind, self.scalar_type):
                    raise TypeError(f"{self.name} quantale needs {self.scalar_type.__name__} values, got {kind.__name__}")
            arr = np.fromiter(map(self.encode_cell, flat), self.dtype, len(flat))
            arr = arr.reshape(len(rows), width) if ndim == 2 else arr
        if arr.dtype.kind == "f":
            if np.isnan(arr).any():
                raise ValueError("NaN has no extended-real meaning")
            arr += 0.0  # canonicalize negative zeros
        arr.setflags(write=False)
        return arr

    def __repr__(self) -> str:
        return f"<quantale {self.name}>"

    def __reduce__(self) -> str:
        # pickle and deepcopy keep the one instance that equality asks ``is`` of
        return next((k for k, v in globals().items() if v is self), self.name)


TRUTH = Quantale(
    name="truth", scalar_type=bool, dtype=np.bool_, default_fixed_tol=0.0,
    unit=True, bottom=False, top=True, leq=lambda a, b: (not a) or b,
    join=np.logical_or, meet=np.logical_and, tensor=np.logical_and, residuate=lambda b, c: ~b | c,
    encode_cell=bool, decode=lambda a: tuple(a.tolist()),
    approx_equal=lambda x, y, tol: np.array_equal(x, y),
)

# The extreal array helpers are looked up at call time, so that wrappers
# installed on the module see every call.
EXT_REAL = Quantale(
    name="extreal", scalar_type=ExtReal, dtype=np.float64, default_fixed_tol=1e-9,
    unit=ext.ZERO, bottom=ext.POS_INF, top=ext.NEG_INF, leq=lambda a, b: a >= b,
    join=np.minimum, meet=np.maximum,
    tensor=lambda x, y: ext.add_arrays(x, y), residuate=lambda b, c: ext.sub_arrays(c, b),
    encode_cell=ExtReal.to_float, decode=lambda a: ext.from_array(a),
    approx_equal=lambda x, y, tol: ext.approx_equal_arrays(x, y, tol),
)


@dataclass(frozen=True, eq=False)
class Profunctor:
    """Total matrix of quantale values between two finite object sets and
    their indices, held as one encoded array (as such or as rows of scalars)."""

    entries_array: np.ndarray
    quantale: Quantale
    domain: object = None
    codomain: object = None

    def __post_init__(self) -> None:
        arr = self.quantale.encode(self.entries_array, ndim=2)
        if not arr.size:
            raise ValueError("profunctor needs at least one row and one column")
        _index_fits(self.domain, arr.shape[0], "domain", "rows")
        _index_fits(self.codomain, arr.shape[1], "codomain", "columns")
        object.__setattr__(self, "entries_array", arr)

    def __reduce__(self):
        # through the constructor, so a copy's array is read-only too
        return type(self), (self.entries_array, self.quantale, self.domain, self.codomain)

    @cached_property
    def entries(self) -> tuple[tuple[object, ...], ...]:
        return tuple(map(self.quantale.decode, self.entries_array))

    @property
    def domain_size(self) -> int:
        return self.entries_array.shape[0]

    @property
    def codomain_size(self) -> int:
        return self.entries_array.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Profunctor)
            and self.quantale is other.quantale
            and (self.domain, self.codomain) == (other.domain, other.codomain)
            and np.array_equal(self.entries_array, other.entries_array)
        )


@dataclass(frozen=True, eq=False)
class PresheafVector:
    """One quantale value per object, held as one encoded array (given as
    such or as a sequence of scalars), and the objects' index.  PRE vectors
    live over the domain of a profunctor, OPCO vectors over its codomain."""

    values_array: np.ndarray
    side: Side
    quantale: Quantale
    objects: object = None
    mismatch = None  # a subclass's text for a mismatch with another vector

    def __post_init__(self) -> None:
        arr = self.quantale.encode(self.values_array)
        if not arr.size:
            raise ValueError("presheaf vector must be non-empty")
        _index_fits(self.objects, len(arr), "object", "values")
        object.__setattr__(self, "values_array", arr)

    def __reduce__(self):
        # through the constructor, so a copy's array is read-only too
        return type(self), (self.values_array, self.side, self.quantale, self.objects)

    @cached_property
    def values(self) -> tuple[object, ...]:
        return self.quantale.decode(self.values_array)

    def __len__(self) -> int:
        return len(self.values_array)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PresheafVector)
            and self.side is other.side
            and self.quantale is other.quantale
            and self.objects == other.objects
            and np.array_equal(self.values_array, other.values_array)
        )


def _index_fits(index, size: int, what: str, cells: str) -> None:
    """An index, unless None (positional), names one object per row or cell."""
    if index is not None and len(index) != size:
        raise SizeMismatchError(f"{what} index has {len(index)} objects for {size} {cells}")


def identity_profunctor(n: int, quantale: Quantale) -> Profunctor:
    """Unit on the diagonal, bottom elsewhere; the unit of composition."""
    unit, bottom = quantale.encode((quantale.unit, quantale.bottom))
    return Profunctor(np.where(np.eye(n, dtype=bool), unit, bottom), quantale)


def adjoint_arrays(q: Quantale, matrix: np.ndarray, vector: np.ndarray, axis: int) -> np.ndarray:
    """One side of the adjunction on encoded arrays: the meet along ``axis``
    of residuate(vector, matrix), the vector laid along that axis.  Axis 0
    is ``push``, axis 1 is ``pull``."""
    laid = vector[:, np.newaxis] if axis == 0 else vector
    return q.meet.reduce(q.residuate(laid, matrix), axis=axis)


def _same_objects(a, b, message: str | None = None, *labels):
    """The index of two operands of one size, None (positional) agreeing with
    any; indices that differ are a SizeMismatchError reading ``message``, by
    default the vectors' one, formatted with ``labels`` as lists."""
    if not (a is None or b is None or a is b or a == b):
        raise SizeMismatchError((message or "vectors index different objects").format(*map(list, labels)))
    return b if a is None else a


def _adjoint(profunctor: Profunctor, vector: PresheafVector, axis: int) -> PresheafVector:
    verb, side, other = (("push", Side.PRE, Side.OPCO), ("pull", Side.OPCO, Side.PRE))[axis]
    if vector.side is not side:
        raise ValueError(f"{verb} needs a vector on the {side.value} side")
    if vector.quantale is not profunctor.quantale:
        raise ValueError("vector and profunctor use different quantales")
    size = profunctor.entries_array.shape[axis]
    if len(vector) != size:
        raise SizeMismatchError(f"{verb}: vector of length {len(vector)} against {size} objects")
    q, objects = profunctor.quantale, (profunctor.domain, profunctor.codomain)
    _same_objects(objects[axis], vector.objects, "vector and profunctor index different objects")
    values = adjoint_arrays(q, profunctor.entries_array, vector.values_array, axis)
    return PresheafVector(values, other, q, objects[1 - axis])


def push(profunctor: Profunctor, pre: PresheafVector) -> PresheafVector:
    """Adjoint image of a PRE vector: out(b) = meet_a [P(a), M(a,b)].

    Over the extended reals this is sup_a { M(a,b) - P(a) } with the
    difference grouped exactly that way; over truth it reads
    "b is related to everything P contains".
    """
    return _adjoint(profunctor, pre, 0)


def pull(profunctor: Profunctor, opco: PresheafVector) -> PresheafVector:
    """Adjoint preimage of an OPCO vector: out(a) = meet_b [Q(b), M(a,b)]."""
    return _adjoint(profunctor, opco, 1)


def closure(profunctor: Profunctor, vector: PresheafVector) -> PresheafVector:
    """Round trip through the adjunction; idempotent on either side."""
    if vector.side is Side.PRE:
        return pull(profunctor, push(profunctor, vector))
    return push(profunctor, pull(profunctor, vector))


def _vectors_approx_equal(a: PresheafVector, b: PresheafVector, tol: float) -> bool:
    same_shape = a.side is b.side and len(a) == len(b)
    return same_shape and a.quantale.approx_equal(a.values_array, b.values_array, tol)


def is_fixed(profunctor: Profunctor, vector: PresheafVector, tol: float | None = None) -> bool:
    """Whether the vector is a fixed point of its closure operator.

    Infinite tags must match exactly; finite coordinates may differ by
    ``tol`` (default 0 for truth, 1e-9 for extended reals).
    """
    tol = ext._check_tol(profunctor.quantale.default_fixed_tol if tol is None else tol)
    return _vectors_approx_equal(closure(profunctor, vector), vector, tol)


def hom_distance(f1: PresheafVector, f2: PresheafVector):
    """Enriched hom between two vectors of one family (side, quantale,
    length and objects, as the pointwise folds check them).

    PRE side: meet_x [F1(x), F2(x)], the maximal climb from F1 to F2
    over the extended reals, subset inclusion over truth.  OPCO side is
    the reverse, the maximal fall.
    """
    side, q, _, (b, c) = _family((f1, f2))
    b, c = (b, c) if side is Side.PRE else (c, b)
    return q.decode(q.meet.reduce(q.residuate(b, c), keepdims=True))[0]


def adjunction_gap(profunctor: Profunctor, pre: PresheafVector, opco: PresheafVector):
    """The two homs that the adjunction equates:
    (hom(push M P, Q) on OPCO, hom(P, pull M Q) on PRE)."""
    lhs = hom_distance(push(profunctor, pre), opco)
    rhs = hom_distance(pre, pull(profunctor, opco))
    return lhs, rhs


def compose_profunctors(first: Profunctor, second: Profunctor) -> Profunctor:
    """Relational composite: out(a,c) = join_b first(a,b) (x) second(b,c).

    Over the extended reals this is the min-plus matrix product; over
    truth it is composition of relations.  Built one output row at a
    time, so the temporary holds one mid x width block.
    """
    if first.quantale is not second.quantale:
        raise ValueError("profunctors use different quantales")
    if first.codomain_size != second.domain_size:
        raise SizeMismatchError(f"inner sizes differ: {first.codomain_size} vs {second.domain_size}")
    inner = (first.codomain, second.domain)
    _same_objects(*inner, "inner labels differ: columns {} vs rows {}", *inner)
    q = first.quantale
    right = second.entries_array
    out = np.empty((first.domain_size, second.codomain_size), dtype=q.dtype)
    for a, row in enumerate(first.entries_array):
        out[a] = q.join.reduce(q.tensor(row[:, np.newaxis], right), axis=0)
    return Profunctor(out, q, first.domain, second.codomain)


def _family(vectors: Sequence[PresheafVector]) -> tuple[Side, Quantale, object, list[np.ndarray]]:
    """The shared side, quantale and objects of the vectors, and their arrays."""
    if not vectors:
        raise ValueError("an empty family of vectors has no side, quantale or length")
    head = vectors[0]
    objects, arrays = head.objects, [head.values_array]
    for v in vectors[1:]:
        if v.side is not head.side:
            raise ValueError("vectors must share a side")
        if v.quantale is not head.quantale:
            raise ValueError("vectors must share a quantale")
        if len(v.values_array) != len(arrays[0]):
            raise SizeMismatchError(head.mismatch or "vectors must share a length")
        objects = _same_objects(objects, v.objects, head.mismatch)
        arrays.append(v.values_array)
    return head.side, head.quantale, objects, arrays


def pointwise_meet(vectors: Sequence[PresheafVector]) -> PresheafVector:
    side, q, objects, arrays = _family(vectors)
    return PresheafVector(q.meet.reduce(arrays, axis=0), side, q, objects)


def pointwise_join(vectors: Sequence[PresheafVector]) -> PresheafVector:
    side, q, objects, arrays = _family(vectors)
    return PresheafVector(q.join.reduce(arrays, axis=0), side, q, objects)


def tensor_each(scalar, vector: PresheafVector) -> PresheafVector:
    q = vector.quantale
    return PresheafVector(q.tensor(q.encode((scalar,)), vector.values_array), vector.side, q, vector.objects)


def residuate_each(scalar, vector: PresheafVector) -> PresheafVector:
    q = vector.quantale
    return PresheafVector(q.residuate(q.encode((scalar,)), vector.values_array), vector.side, q, vector.objects)


def _check_fixed_pair(profunctor: Profunctor, pair, tol: float) -> None:
    p, q_vec = pair
    pushed, pulled = push(profunctor, p), pull(profunctor, q_vec)  # each checks its vector's objects
    if not (_vectors_approx_equal(pushed, q_vec, tol) and _vectors_approx_equal(pulled, p, tol)):
        raise NotFixedError("input pair is not fixed by the adjunction")


def nucleus_limit(
    profunctor: Profunctor,
    kind: LimitKind,
    pairs: Sequence[tuple[PresheafVector, PresheafVector]] = (),
    scalar=None,
    tol: float | None = None,
) -> tuple[PresheafVector, PresheafVector]:
    """Limit or colimit of fixed pairs, staying inside the fixed set.

    Limits (PRODUCT, COTENSOR) are computed pointwise on the PRE side
    and the OPCO partner is re-closed; colimits (COPRODUCT, TENSOR) are
    pointwise on the OPCO side with the PRE partner re-closed.  Inputs
    must be fixed pairs; the output is again a fixed pair.
    """
    q = profunctor.quantale
    tol = ext._check_tol(q.default_fixed_tol if tol is None else tol)
    for pair in pairs:
        _check_fixed_pair(profunctor, pair, tol)

    na, nb, dom, cod = profunctor.domain_size, profunctor.codomain_size, profunctor.domain, profunctor.codomain
    pres = [p for p, _ in pairs]
    opcos = [qv for _, qv in pairs]

    if kind is LimitKind.PRODUCT:
        p_out = pointwise_meet(pres) if pres else PresheafVector((q.top,) * na, Side.PRE, q, dom)
        q_join = pointwise_join(opcos) if opcos else PresheafVector((q.bottom,) * nb, Side.OPCO, q, cod)
        return p_out, closure(profunctor, q_join)

    if kind is LimitKind.COPRODUCT:
        p_join = pointwise_join(pres) if pres else PresheafVector((q.bottom,) * na, Side.PRE, q, dom)
        q_out = pointwise_meet(opcos) if opcos else PresheafVector((q.top,) * nb, Side.OPCO, q, cod)
        return closure(profunctor, p_join), q_out

    if kind in (LimitKind.TENSOR, LimitKind.COTENSOR):
        if scalar is None or len(pairs) != 1:
            raise ValueError(f"{kind.value} needs a scalar and exactly one pair")
        p, q_vec = pairs[0]
        if kind is LimitKind.TENSOR:
            return closure(profunctor, tensor_each(scalar, p)), residuate_each(scalar, q_vec)
        return residuate_each(scalar, p), closure(profunctor, tensor_each(scalar, q_vec))

    raise ValueError(f"unknown limit kind: {kind!r}")


def _distance_array(d: Sequence[Sequence[ExtReal]]) -> np.ndarray:
    arr = EXT_REAL.encode(d, ndim=2)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("distance matrix must be square")
    return arr


def underlying_preorder(d: Sequence[Sequence[ExtReal]]) -> tuple[tuple[bool, ...], ...]:
    """Relation induced by a distance matrix: i relates to j iff 0 >= d(i,j)."""
    return tuple(map(tuple, (_distance_array(d) <= 0.0).tolist()))


@dataclass(frozen=True)
class RSpaceReport:
    """Outcome of the generalized-metric axiom check."""

    ok: bool
    diagonal_violations: tuple[tuple[int, ExtReal], ...]
    triangle_violations: tuple[tuple[int, int, int], ...]

    def summary(self) -> str:
        if self.ok:
            return "ok: triangle inequality holds and every self-distance is 0 or -inf"
        lines = []
        for i, v in self.diagonal_violations:
            lines.append(f"self-distance at index {i} is {v}, expected 0 or -inf")
        for i, j, k in self.triangle_violations:
            lines.append(f"triangle fails on ({i}, {j}, {k}): d({i},{j}) + d({j},{k}) < d({i},{k})")
        return "\n".join(lines)


def check_rspace_axioms(d: Sequence[Sequence[ExtReal]]) -> RSpaceReport:
    """Verify d(x,y) + d(y,z) >= d(x,z) and d(x,x) in {0, -inf}.

    Triangle violations are listed in lexicographic order; the check runs
    one x at a time, so the temporary holds n x n cells.
    """
    arr = _distance_array(d)
    self_dist = np.diagonal(arr)
    bad = np.flatnonzero((self_dist != 0.0) & (self_dist != -np.inf)).tolist()
    diag = tuple(zip(bad, ext.from_array(self_dist[bad])))
    tri = []
    for i, row in enumerate(arr):
        hits = np.argwhere(ext.add_arrays(row[:, np.newaxis], arr) < row)
        tri.extend((i, j, k) for j, k in hits.tolist())
    return RSpaceReport(ok=not diag and not tri, diagonal_violations=diag, triangle_violations=tuple(tri))


# ---------------------------------------------------------------------------
# Labelled-table CSV, the text of matrices, contexts (nucleus.galois) and
# function files (nucleus.legendre): a header row, then labelled rows.

def parse_labelled_csv(
    text: str, what: str, cell: Callable, read: Callable, label: Callable = str,
    header: tuple[str, ...] | None = None, nonempty: bool = False,
):
    """``read(header, labels, cells, numbers)``: the field names, the row
    labels, the other cells row by row and a function listing each row's
    line, with lines split by ``str.splitlines``, lines and cells stripped
    by ``str.strip`` and blank lines skipped.  A given ``header`` is the
    fields, and a first line spelling it (any case, spaces ignored) is
    skipped.  With ``nonempty`` a table needs a column label and a row.  A
    row of the wrong width, or a plain ValueError from ``read``, starts one
    walk raising the first fault in file order at its line and field, by
    the width, ``label`` and ``cell``; a ``FormatError`` passes as it is."""
    lines = list(map(str.strip, text.splitlines()))
    rows = list(compress(lines, lines))
    if header is None:
        if not rows:
            raise FormatError(f"empty {what} file")
        header = tuple(map(str.strip, rows[0].split(",")))
        if nonempty and len(header) < 2:
            raise FormatError("header needs at least one column label", line=lines.index(rows[0]) + 1)
        skip = 1
    else:
        skip = int(bool(rows) and rows[0].lower().replace(" ", "") == ",".join(header))
    del rows[:skip]
    if nonempty and not rows:
        raise FormatError(f"{what} has no data rows")

    def numbers() -> list[int]:
        return list(compress(count(1), lines))[skip:]

    width = len(header)
    try:
        # a count per row: a short row and a long row would balance in a total
        if list(map(str.count, rows, repeat(","))).count(width - 1) != len(rows):
            raise ValueError("rows of the wrong width")
        cells = list(map(str.strip, ",".join(rows).split(","))) if rows else []
        labels = cells[::width]
        del cells[::width]
        return read(header, labels, cells, numbers)
    except FormatError:
        raise
    except ValueError:
        for lineno, row in zip(numbers(), rows):
            tokens = [c.strip() for c in row.split(",")]
            if len(tokens) != width:
                raise FormatError(f"expected {width} cells, found {len(tokens)}", line=lineno) from None
            for i, (field, token) in enumerate(zip(header, tokens)):
                try:
                    (cell if i else label)(token)
                except ValueError as e:
                    raise FormatError(str(e), line=lineno, field=field) from None
        raise


def render_labelled_csv(row_labels: Sequence[str], col_labels: Sequence[str], rows: Iterable) -> str:
    """The table whose rows are the given iterables of cell text.  A label
    with a comma, a line break or whitespace at either end, or a table
    without columns, has no CSV form: the reader would not read it back."""
    for lab in (*row_labels, *col_labels):
        if "," in lab or lab != lab.strip() or len(lab.splitlines()) > 1:
            raise FormatError(f"label {lab!r} has no CSV form: a comma, a line break or whitespace at an end")
    if not col_labels:
        raise FormatError("a CSV table needs at least one column label")
    out = ["," + ",".join(col_labels)]
    out.extend(lab + "," + ",".join(cells) for lab, cells in zip(row_labels, rows))
    return "\n".join(out) + "\n"


def parse_matrix_csv(text: str) -> tuple[tuple[str, ...], tuple[str, ...], Profunctor]:
    """Row labels, column labels and matrix, indexed by them, of a table of extended reals."""
    return parse_labelled_csv(text, "matrix", ext.parse, _read_matrix, nonempty=True)


def _read_matrix(header, labels, cells, numbers):
    values = np.array(list(map(float, cells)))
    # float reads the digit-group underscore in 1_0 as 10, and reads nan
    if "_" in "".join(cells) or np.isnan(values).any():
        raise ValueError("a value cell is not an extended real")
    matrix = Profunctor(values.reshape(len(labels), len(header) - 1), EXT_REAL, tuple(labels), header[1:])
    return matrix.domain, matrix.codomain, matrix


def render_matrix_csv(profunctor: Profunctor) -> str:
    """The table of an extended-real matrix under its own row and column
    labels, its ``domain`` and ``codomain``; one without text labels has none."""
    index = (profunctor.domain, profunctor.codomain)
    if any(labels is None for labels in index):
        raise ValueError("a matrix without row and column labels has no CSV form")
    if not all(isinstance(labels, Sequence) and all(isinstance(lab, str) for lab in labels) for labels in index):
        raise ValueError("a matrix whose labels are not text has no CSV form")
    rows = (map(ext.render_float, row) for row in profunctor.entries_array.tolist())
    return render_labelled_csv(*index, rows)
