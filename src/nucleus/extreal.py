"""Exact arithmetic on the extended real line [-inf, +inf].

The infinities follow saturation rules that keep every operation total:
``+inf`` dominates addition, so ``(+inf) + (-inf) = +inf``, while
subtracting ``+inf`` always yields ``-inf``, so ``(+inf) - (+inf) = -inf``.
(Subtraction here is the residuation of addition, ``c - b = inf {a : a + b >= c}``,
which is why it is not the mirror image of addition.)  IEEE-754 would
produce NaN in those corners, so values are kept as a tag plus a finite
payload and never as raw floats.  Finite payloads are ordinary doubles;
overflow of finite arithmetic saturates to the matching infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
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


@dataclass(frozen=True, order=True, slots=True)
class ExtReal:
    """Tagged extended real.  The (tag, value) field order makes the
    dataclass ordering coincide with the numeric total order."""

    tag: Tag
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.tag is Tag.FINITE:
            v = float(self.value)
            if not math.isfinite(v):
                raise ValueError(f"finite value required, got {v!r}")
            object.__setattr__(self, "value", v)
        else:
            object.__setattr__(self, "value", 0.0)

    @property
    def is_finite(self) -> bool:
        return self.tag is Tag.FINITE

    def to_float(self) -> float:
        # infinite tags are +/-1, FINITE is 0: no Enum lookups in this per-cell call
        return self.tag * math.inf if self.tag else self.value

    def __repr__(self) -> str:
        return f"ExtReal({render(self)})"

    def __str__(self) -> str:
        return render(self)


NEG_INF = ExtReal(Tag.NEG_INF)
POS_INF = ExtReal(Tag.POS_INF)
ZERO = ExtReal(Tag.FINITE, 0.0)


def finite(x: float) -> ExtReal:
    """Wrap a real number, saturating IEEE infinities to the tags."""
    return from_float(float(x))


def from_float(x: float) -> ExtReal:
    if math.isnan(x):
        raise ValueError("NaN has no extended-real meaning")
    if x == math.inf:
        return POS_INF
    if x == -math.inf:
        return NEG_INF
    # canonical zero keeps fold results and rendering deterministic
    return ExtReal(Tag.FINITE, x if x else 0.0)


def add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Saturating addition: +inf wins over -inf."""
    if a.tag is Tag.POS_INF or b.tag is Tag.POS_INF:
        return POS_INF
    if a.tag is Tag.NEG_INF or b.tag is Tag.NEG_INF:
        return NEG_INF
    return finite(a.value + b.value)


def sub(c: ExtReal, b: ExtReal) -> ExtReal:
    """Residuated subtraction ``c - b``, total on the whole line.

    Subtracting +inf gives -inf regardless of ``c``; subtracting -inf
    gives +inf unless ``c`` is itself -inf.
    """
    if b.tag is Tag.POS_INF:
        return NEG_INF
    if b.tag is Tag.NEG_INF:
        return NEG_INF if c.tag is Tag.NEG_INF else POS_INF
    if c.tag is not Tag.FINITE:
        return c
    return finite(c.value - b.value)


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
    if a.tag is not b.tag:
        return False
    if a.tag is not Tag.FINITE:
        return True
    return abs(a.value - b.value) <= tol


def geq_within(a: ExtReal, b: ExtReal, tol: float) -> bool:
    """a >= b, allowing ``tol`` of slack between finite values."""
    if a.tag is Tag.POS_INF or b.tag is Tag.NEG_INF:
        return True
    if a.tag is Tag.NEG_INF or b.tag is Tag.POS_INF:
        return False
    return a.value >= b.value - tol


def render(x: ExtReal) -> str:
    """Shortest round-trip text: ``inf``, ``-inf`` or a decimal literal."""
    return render_float(x.to_float())


def render_float(v: float) -> str:
    """Text of one encoded cell; float repr spells the infinities ``inf`` and ``-inf``."""
    return float.__repr__(v)


def parse(token: str) -> ExtReal:
    t = token.strip().lower()
    if t in ("inf", "+inf"):
        return POS_INF
    if t == "-inf":
        return NEG_INF
    try:
        v = float(t)
    except ValueError:
        raise ValueError(f"not an extended real: {token!r}") from None
    if math.isnan(v):
        raise ValueError(f"not an extended real: {token!r}")
    return from_float(v)


# ---------------------------------------------------------------------------
# Array bridge.  Vectors of ExtReal are encoded as float64 arrays in which
# IEEE +/-inf stand for the infinite tags; NaN never appears in a valid
# encoding.  On such arrays IEEE arithmetic agrees with the saturation
# tables everywhere except the two NaN corners, which get patched.

def to_array(values: Iterable[ExtReal]) -> np.ndarray:
    return np.array([v.to_float() for v in values], dtype=np.float64)


def from_array(arr: np.ndarray) -> tuple[ExtReal, ...]:
    a = np.asarray(arr, dtype=np.float64)
    if np.isnan(a).any():
        raise ValueError("NaN has no extended-real meaning")
    return tuple(from_float(float(v)) for v in a.ravel())


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
