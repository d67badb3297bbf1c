"""Exact arithmetic on the extended real line [-inf, +inf].

The infinities follow saturation rules that keep every operation total:
``+inf`` dominates addition, so ``(+inf) + (-inf) = +inf``, while
subtracting ``+inf`` always yields ``-inf``, so ``(+inf) - (+inf) = -inf``.
(Subtraction here is the residuation of addition, ``c - b = inf {a : a + b >= c}``,
which is why it is not the mirror image of addition.)  A value is one
float64 cell in which IEEE ``+inf`` and ``-inf`` stand for the two
infinities; NaN is never a value.  IEEE arithmetic on cells agrees with
the tables everywhere except the two corners where it gives NaN, which
are patched, and overflow of finite arithmetic saturates to the matching
infinity.  ``ExtReal`` is a view of one cell for the API and the text
forms; the kernels work on arrays of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from operator import attrgetter
from typing import Iterable

import numpy as np

__all__ = [
    "Tag",
    "ExtReal",
    "NEG_INF",
    "POS_INF",
    "ZERO",
    "finite",
    "from_float",
    "add",
    "sub",
    "compare",
    "fold_inf",
    "fold_sup",
    "approx_equal",
    "geq_within",
    "render",
    "render_float",
    "parse",
    "to_array",
    "from_array",
    "add_arrays",
    "sub_arrays",
    "approx_equal_arrays",
]


class Tag(IntEnum):
    NEG_INF = -1
    FINITE = 0
    POS_INF = 1


@dataclass(frozen=True, order=True, slots=True, init=False, repr=False)
class ExtReal:
    """Extended real, held as its float64 cell; ``tag`` and ``value`` are
    views of the cell, so the order, equality and hash are the cell's."""

    _cell: float

    def __init__(self, tag: Tag, value: float = 0.0) -> None:
        tag = Tag(tag)
        if tag is Tag.FINITE:
            cell = float(value)
            if not math.isfinite(cell):
                raise ValueError(f"finite value required, got {cell!r}")
        else:
            cell = tag * math.inf
        object.__setattr__(self, "_cell", cell)

    @property
    def tag(self) -> Tag:
        c = self._cell
        return Tag.FINITE if math.isfinite(c) else Tag.POS_INF if c > 0 else Tag.NEG_INF

    @property
    def value(self) -> float:
        c = self._cell
        return c if math.isfinite(c) else 0.0

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self._cell)

    def to_float(self) -> float:
        return self._cell

    def __repr__(self) -> str:
        return f"ExtReal({render(self)})"

    def __str__(self) -> str:
        return render(self)


# the slot's own setter, which the frozen dataclass's __setattr__ would refuse
_set_cell = ExtReal._cell.__set__

NEG_INF = ExtReal(Tag.NEG_INF)
POS_INF = ExtReal(Tag.POS_INF)
ZERO = ExtReal(Tag.FINITE, 0.0)


def finite(x: float) -> ExtReal:
    """Wrap a real number, saturating IEEE infinities to the tags."""
    return from_float(float(x))


def from_float(x: float) -> ExtReal:
    if math.isnan(x):
        raise ValueError("NaN has no extended-real meaning")
    out = object.__new__(ExtReal)
    # canonical zero keeps fold results and rendering deterministic
    _set_cell(out, float(x) + 0.0)
    return out


def add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Saturating addition: +inf wins over -inf."""
    s = a._cell + b._cell
    return from_float(math.inf if s != s else s)


def sub(c: ExtReal, b: ExtReal) -> ExtReal:
    """Residuated subtraction ``c - b``, total on the whole line.

    Subtracting +inf gives -inf regardless of ``c``; subtracting -inf
    gives +inf unless ``c`` is itself -inf.
    """
    d = c._cell - b._cell
    return from_float(-math.inf if d != d else d)


def compare(a: ExtReal, b: ExtReal) -> int:
    """-1, 0 or 1 under the total order -inf < finite < +inf."""
    if a == b:
        return 0
    return -1 if a < b else 1


def fold_inf(xs: Iterable[ExtReal]) -> ExtReal:
    """Minimum of a finite collection; empty collections give +inf."""
    return min(xs, default=POS_INF)


def fold_sup(xs: Iterable[ExtReal]) -> ExtReal:
    """Maximum of a finite collection; empty collections give -inf."""
    return max(xs, default=NEG_INF)


def approx_equal(a: ExtReal, b: ExtReal, tol: float) -> bool:
    """Equality with absolute tolerance on finite values; tags are exact."""
    x, y = a._cell, b._cell
    if math.isfinite(x) and math.isfinite(y):
        return abs(x - y) <= tol
    return x == y


def geq_within(a: ExtReal, b: ExtReal, tol: float) -> bool:
    """a >= b, allowing ``tol`` of slack between finite values."""
    x, y = a._cell, b._cell
    if math.isfinite(x) and math.isfinite(y):
        return x >= y - tol
    return x >= y


def _check_tol(tol: float) -> float:
    """``tol`` when it is a usable tolerance, ``>= 0`` with ``inf`` allowed;
    a negative or NaN tolerance is a ValueError."""
    if not tol >= 0:
        raise ValueError("tolerance must be nonnegative")
    return tol


def render(x: ExtReal) -> str:
    """Shortest round-trip text: ``inf``, ``-inf`` or a decimal literal."""
    return render_float(x._cell)


# Text of one encoded cell: float repr spells the infinities ``inf`` and
# ``-inf``.  The builtin itself, so that a table's writer maps it over its
# cells with no Python frame per cell.
render_float = float.__repr__


def _real(token: str) -> float:
    """``float(token)``, refusing the digit-group underscores that ``float``
    would read (``1_0`` as 10.0) with a ValueError."""
    if "_" in token:
        raise ValueError(f"digit-group underscore in {token!r}")
    return float(token)


def parse(token: str) -> ExtReal:
    """The value a token spells, read as Python's ``float`` reads it: any
    case and surrounding whitespace, ``inf``, ``+inf``, ``-inf`` and
    ``infinity``, and literals beyond the float range (``1e400``) as the
    matching infinity.  NaN and digit-group underscores are refused."""
    try:
        v = _real(token)
        if v != v:
            raise ValueError
    except ValueError:
        raise ValueError(f"not an extended real: {token!r}") from None
    # from_float's body, inlined: this runs once per value cell of a file
    out = object.__new__(ExtReal)
    _set_cell(out, v + 0.0)
    return out


# ---------------------------------------------------------------------------
# Array bridge: vectors of values are float64 arrays of their cells.

def to_array(values: Iterable[ExtReal]) -> np.ndarray:
    return np.array(list(map(attrgetter("_cell"), values)), dtype=np.float64)


def from_array(arr: np.ndarray) -> tuple[ExtReal, ...]:
    return tuple(map(from_float, np.asarray(arr, dtype=np.float64).ravel().tolist()))


def add_arrays(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # IEEE gives NaN only for (+inf) + (-inf), where the table says +inf;
    # finite overflow is the documented saturation to +/-inf.
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.asarray(x, dtype=np.float64) + np.asarray(y, dtype=np.float64)
    return np.where(np.isnan(out), np.inf, out)


def sub_arrays(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    # IEEE gives NaN only for inf - inf of equal sign, where the table says -inf.
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.asarray(c, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return np.where(np.isnan(out), -np.inf, out)


def approx_equal_arrays(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """``approx_equal`` at every position of two encoded arrays of one shape:
    infinite tags match exactly, finite values within ``tol``."""
    with np.errstate(invalid="ignore", over="ignore"):
        near = np.isfinite(x) & np.isfinite(y) & (np.abs(x - y) <= tol)
    return bool(np.all((x == y) | near))
