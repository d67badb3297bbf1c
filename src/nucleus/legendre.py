"""Discrete conjugation calculus on sampled extended-real functions.

A sampled function is a finite strictly increasing grid of abscissae
with one extended-real value per point; it stands for the function that
equals its samples on the grid and +inf elsewhere.  The conjugate of a
primal function against a grid of slopes is the brute-force supremum
``max_x (k*x - f(x))`` with the subtraction taken from the saturating
tables, and the reverse transform mirrors it.  Conjugating twice gives
the largest convex minorant representable on the chosen slope grid; an
independent geometric lower-hull routine is provided as a cross-check,
along with the asymmetric climb/fall distances, the duality identities
as checkable reports, and the two scalar actions that make convex
functions a module over (min, +).

The transforms are push and pull over the pairing M(x, k) = k*x: both
run :func:`nucleus.core.adjoint_arrays` on the raw pairing array.  All
heavy operations run on float64 arrays in which IEEE infinities encode
the infinite tags (see :mod:`nucleus.extreal`); results are
bit-identical to the scalar table arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from . import extreal as ext
from .core import EXT_REAL, FormatError, LimitKind, SizeMismatchError, adjoint_arrays
from .extreal import ExtReal

__all__ = [
    "Space",
    "Relation",
    "CheckStatus",
    "Grid",
    "SampledFunction",
    "DualityReport",
    "conjugate",
    "reverse_conjugate",
    "biconjugate",
    "climb_distance",
    "fall_distance",
    "check_lf_adjunction",
    "check_short",
    "check_toland_singer",
    "convex_hull_oracle",
    "default_dual_grid",
    "pointwise_sup",
    "pointwise_inf",
    "cvx_combine",
    "cvx_scale",
    "parse_function_csv",
    "render_function_csv",
]

DEFAULT_TOL = 1e-9


class Space(Enum):
    PRIMAL = "primal"
    DUAL = "dual"


class Relation(Enum):
    EQUAL = "EQUAL"
    GEQ = "GEQ"


class CheckStatus(Enum):
    OK = "OK"
    HYPOTHESIS_NOT_MET = "HYPOTHESIS_NOT_MET"


@dataclass(frozen=True)
class Grid:
    """Strictly increasing finite abscissae."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("grid needs at least one point")
        for p in pts:
            if not math.isfinite(p):
                raise ValueError("grid points must be finite")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float) -> "Grid":
        """Points lo, lo+step, ... up to hi; hi itself is included when the
        step divides the range (up to float noise), never overshot."""
        if hi < lo:
            raise ValueError("range end below start")
        if lo == hi:
            return cls((float(lo),))
        if step <= 0:
            raise ValueError("step must be positive")
        q = (hi - lo) / step
        count = round(q) if abs(q - round(q)) <= 1e-6 else math.floor(q)
        return cls(tuple(lo + i * step for i in range(count + 1)))

    @cached_property
    def as_array(self) -> np.ndarray:
        arr = np.array(self.points, dtype=np.float64)
        arr.setflags(write=False)
        return arr

    def __len__(self) -> int:
        return len(self.points)


class SampledFunction:
    """Grid plus one extended-real value per point.

    Values are held as a float64 array (infinities encode the tags);
    the ExtReal tuple view is materialized lazily so that transform
    pipelines never build per-cell objects.
    """

    __slots__ = ("grid", "space", "_array", "_values")

    def __init__(self, grid: Grid, values, space: Space):
        if not isinstance(values, np.ndarray):
            values = [v.to_float() if isinstance(v, ExtReal) else float(v) for v in values]
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or len(arr) != len(grid):
            raise ValueError("need exactly one value per grid point")
        self.grid = grid
        self.space = space
        self._array = EXT_REAL.encode(arr)
        self._values: tuple[ExtReal, ...] | None = None

    @property
    def values(self) -> tuple[ExtReal, ...]:
        if self._values is None:
            self._values = ext.from_array(self._array)
        return self._values

    @property
    def values_array(self) -> np.ndarray:
        return self._array

    def value_at(self, index: int) -> ExtReal:
        return ext.from_float(float(self._array[index]))

    def __len__(self) -> int:
        return len(self.grid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledFunction):
            return NotImplemented
        return (
            self.space is other.space
            and self.grid == other.grid
            and np.array_equal(self._array, other._array)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SampledFunction({self.space.value}, {len(self)} points)"


@dataclass(frozen=True)
class DualityReport:
    """Two sides of a duality identity and whether it held."""

    lhs: ExtReal
    rhs: ExtReal
    relation: Relation
    holds: bool
    tolerance: float
    status: CheckStatus = CheckStatus.OK

    def render_text(self) -> str:
        return "\n".join(
            [
                f"lhs {ext.render(self.lhs)}",
                f"rhs {ext.render(self.rhs)}",
                f"relation {self.relation.value}",
                f"holds {'true' if self.holds else 'false'}",
                f"tolerance {self.tolerance!r}",
                f"status {self.status.value}",
            ]
        )

    def to_json_dict(self) -> dict:
        return {
            "lhs": ext.render(self.lhs),
            "rhs": ext.render(self.rhs),
            "relation": self.relation.value,
            "holds": self.holds,
            "tolerance": self.tolerance,
            "status": self.status.value,
        }


def _require_space(f: SampledFunction, space: Space, what: str) -> None:
    if f.space is not space:
        raise ValueError(f"{what} must be a {space.value} function")


def _require_same_grid(a: SampledFunction, b: SampledFunction) -> None:
    if a.grid != b.grid:
        raise SizeMismatchError("functions live on different grids")


def _pairing(xs: Grid, ks: Grid) -> np.ndarray:
    """M(x, k) = k*x, points by slopes; products beyond the float range saturate."""
    with np.errstate(over="ignore"):
        return np.multiply.outer(xs.as_array, ks.as_array)


def conjugate(f: SampledFunction, dual: Grid) -> SampledFunction:
    """Slope transform, the push along the pairing: at k, max over x of k*x - f(x)."""
    _require_space(f, Space.PRIMAL, "conjugate input")
    vals = adjoint_arrays(EXT_REAL, _pairing(f.grid, dual), f.values_array, axis=0)
    return SampledFunction(dual, vals, Space.DUAL)


def reverse_conjugate(g: SampledFunction, primal: Grid) -> SampledFunction:
    """Mirror transform, the pull along the pairing: at x, max over k of k*x - g(k)."""
    _require_space(g, Space.DUAL, "reverse_conjugate input")
    vals = adjoint_arrays(EXT_REAL, _pairing(primal, g.grid), g.values_array, axis=1)
    return SampledFunction(primal, vals, Space.PRIMAL)


def biconjugate(f: SampledFunction, dual: Grid) -> SampledFunction:
    """Conjugate twice through the given slope grid.

    Never exceeds ``f``, is idempotent for a fixed slope grid, and with
    slopes covering every pairwise difference quotient of the finite
    points it equals the geometric lower hull on the grid.
    """
    return reverse_conjugate(conjugate(f, dual), f.grid)


def climb_distance(f1: SampledFunction, f2: SampledFunction) -> ExtReal:
    """Largest climb from f1 up to f2: max over the grid of f2(x) - f1(x)."""
    _require_space(f1, Space.PRIMAL, "climb_distance input")
    _require_space(f2, Space.PRIMAL, "climb_distance input")
    _require_same_grid(f1, f2)
    diff = ext.sub_arrays(f2.values_array, f1.values_array)
    return ext.from_float(float(diff.max()))


def fall_distance(g1: SampledFunction, g2: SampledFunction) -> ExtReal:
    """Largest fall from g1 down to g2: max over slopes of g1(k) - g2(k)."""
    _require_space(g1, Space.DUAL, "fall_distance input")
    _require_space(g2, Space.DUAL, "fall_distance input")
    _require_same_grid(g1, g2)
    diff = ext.sub_arrays(g1.values_array, g2.values_array)
    return ext.from_float(float(diff.max()))


def check_lf_adjunction(
    f: SampledFunction,
    g: SampledFunction,
    dual: Grid | None = None,
    tol: float = DEFAULT_TOL,
) -> DualityReport:
    """The transform adjunction: fall(conj f, g) equals climb(f, rev g)."""
    _require_space(f, Space.PRIMAL, "adjunction check")
    _require_space(g, Space.DUAL, "adjunction check")
    if dual is not None and dual != g.grid:
        raise SizeMismatchError("dual grid does not match the dual function's grid")
    lhs = fall_distance(conjugate(f, g.grid), g)
    rhs = climb_distance(f, reverse_conjugate(g, f.grid))
    return DualityReport(
        lhs=lhs,
        rhs=rhs,
        relation=Relation.EQUAL,
        holds=ext.approx_equal(lhs, rhs, tol),
        tolerance=tol,
    )


def check_short(
    f1: SampledFunction,
    f2: SampledFunction,
    dual: Grid,
    tol: float = DEFAULT_TOL,
) -> DualityReport:
    """Conjugation never increases distance: climb(f1,f2) >= fall(conj f1, conj f2)."""
    _require_space(f1, Space.PRIMAL, "shortness check")
    _require_space(f2, Space.PRIMAL, "shortness check")
    _require_same_grid(f1, f2)
    lhs = climb_distance(f1, f2)
    rhs = fall_distance(conjugate(f1, dual), conjugate(f2, dual))
    return DualityReport(
        lhs=lhs,
        rhs=rhs,
        relation=Relation.GEQ,
        holds=ext.geq_within(lhs, rhs, tol),
        tolerance=tol,
    )


def check_toland_singer(
    f1: SampledFunction,
    f2: SampledFunction,
    dual: Grid,
    tol: float = DEFAULT_TOL,
) -> DualityReport:
    """Distance preservation: climb(f1,f2) = fall(conj f1, conj f2).

    Requires f2 to be stable under biconjugation through the given
    slope grid; when it is not, the report carries HYPOTHESIS_NOT_MET
    so the failure is not mistaken for a duality violation.
    """
    _require_space(f1, Space.PRIMAL, "duality check")
    _require_space(f2, Space.PRIMAL, "duality check")
    _require_same_grid(f1, f2)
    lhs = climb_distance(f1, f2)
    rhs = fall_distance(conjugate(f1, dual), conjugate(f2, dual))
    hull2 = biconjugate(f2, dual)
    hypothesis_ok = ext.approx_equal_arrays(hull2.values_array, f2.values_array, tol)
    status = CheckStatus.OK if hypothesis_ok else CheckStatus.HYPOTHESIS_NOT_MET
    holds = hypothesis_ok and ext.approx_equal(lhs, rhs, tol)
    return DualityReport(
        lhs=lhs, rhs=rhs, relation=Relation.EQUAL, holds=holds, tolerance=tol, status=status
    )


def convex_hull_oracle(f: SampledFunction) -> SampledFunction:
    """Lower convex hull of the finite sample points, evaluated on the grid.

    Built geometrically from the epigraph points with a monotone-chain
    scan, independent of the transforms.  Points valued +inf take no
    part in the hull and stay +inf outside the finite points' span; any
    -inf sample collapses the hull to -inf everywhere.
    """
    _require_space(f, Space.PRIMAL, "hull input")
    vals = f.values_array
    if np.any(vals == -np.inf):
        return SampledFunction(f.grid, np.full(len(f), -np.inf), Space.PRIMAL)
    finite = np.isfinite(vals)
    if not finite.any():
        return SampledFunction(f.grid, vals, Space.PRIMAL)
    xs = f.grid.as_array[finite]
    ys = vals[finite]
    hull_x, hull_y = _lower_hull(xs, ys)
    out = np.full(len(f), np.inf)
    grid = f.grid.as_array
    span = (grid >= xs[0]) & (grid <= xs[-1])
    out[span] = np.interp(grid[span], hull_x, hull_y)
    return SampledFunction(f.grid, out, Space.PRIMAL)


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monotone chain over points already sorted by x; keeps the vertices of
    the lower boundary (counterclockwise turns only)."""
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(xs, ys):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (y - hy[-2]) - (hy[-1] - hy[-2]) * (x - hx[-2])
            if cross <= 0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(float(x))
        hy.append(float(y))
    return np.array(hx), np.array(hy)


def default_dual_grid(f: SampledFunction) -> Grid:
    """Every pairwise difference quotient of the finite sample points.

    Conjugating twice through this grid reproduces the geometric lower
    hull exactly at grid points the hull reaches; a function with fewer
    than two finite points gets the single slope 0.
    """
    _require_space(f, Space.PRIMAL, "dual grid construction")
    vals = f.values_array
    finite = np.isfinite(vals)
    if finite.sum() < 2:
        return Grid((0.0,))
    xs = f.grid.as_array[finite]
    ys = vals[finite]
    i, j = np.triu_indices(len(xs), k=1)
    slopes = (ys[j] - ys[i]) / (xs[j] - xs[i])
    return Grid(tuple(np.unique(slopes)))


def pointwise_sup(
    fs: Sequence[SampledFunction], grid: Grid | None = None, space: Space = Space.PRIMAL
) -> SampledFunction:
    """Pointwise maximum; the empty family is constant -inf."""
    grid = _family_grid(fs, grid, space)
    if not fs:
        return SampledFunction(grid, np.full(len(grid), -np.inf), space)
    return SampledFunction(grid, np.max([f.values_array for f in fs], axis=0), space)


def pointwise_inf(
    fs: Sequence[SampledFunction], grid: Grid | None = None, space: Space = Space.PRIMAL
) -> SampledFunction:
    """Pointwise minimum; the empty family is constant +inf."""
    grid = _family_grid(fs, grid, space)
    if not fs:
        return SampledFunction(grid, np.full(len(grid), np.inf), space)
    return SampledFunction(grid, np.min([f.values_array for f in fs], axis=0), space)


def _family_grid(fs: Sequence[SampledFunction], grid: Grid | None, space: Space) -> Grid:
    for f in fs:
        _require_space(f, space, "family member")
        if grid is None:
            grid = f.grid
        elif f.grid != grid:
            raise SizeMismatchError("functions live on different grids")
    if grid is None:
        raise ValueError("an empty family needs an explicit grid")
    return grid


def cvx_combine(
    kind: LimitKind,
    fs: Sequence[SampledFunction],
    dual: Grid | None = None,
    grid: Grid | None = None,
) -> SampledFunction:
    """Lattice operations on the convex side.

    PRODUCT is the pointwise maximum, which preserves convexity as is;
    COPRODUCT is the biconjugate of the pointwise minimum through the
    given slope grid, the representable convex envelope of the family.
    """
    if kind is LimitKind.PRODUCT:
        return pointwise_sup(fs, grid)
    if kind is LimitKind.COPRODUCT:
        if dual is None:
            raise ValueError("coproduct needs a dual grid")
        return biconjugate(pointwise_inf(fs, grid), dual)
    raise ValueError(f"cvx_combine handles PRODUCT and COPRODUCT, got {kind!r}")


def cvx_scale(kind: LimitKind, a: ExtReal, f: SampledFunction) -> SampledFunction:
    """Scalar actions: TENSOR shifts up by a, COTENSOR subtracts a with the
    residuated table (so subtracting +inf floors at -inf)."""
    _require_space(f, Space.PRIMAL, "scale input")
    scalar = np.float64(a.to_float())
    if kind is LimitKind.TENSOR:
        return SampledFunction(f.grid, ext.add_arrays(f.values_array, scalar), Space.PRIMAL)
    if kind is LimitKind.COTENSOR:
        return SampledFunction(f.grid, ext.sub_arrays(f.values_array, scalar), Space.PRIMAL)
    raise ValueError(f"cvx_scale handles TENSOR and COTENSOR, got {kind!r}")


# ---------------------------------------------------------------------------
# Function CSV: two columns "x,value"; the header line is optional on
# input and always written.  Rows are sorted on load; duplicate
# abscissae are rejected.

def parse_function_csv(text: str, space: Space = Space.PRIMAL) -> SampledFunction:
    rows: list[tuple[float, ExtReal, int]] = []
    seen_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not seen_content:
            seen_content = True
            if line.lower().replace(" ", "") == "x,value":
                continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise FormatError(f"expected 2 cells, found {len(cells)}", line=lineno)
        try:
            x = float(cells[0])
        except ValueError:
            raise FormatError(f"bad abscissa {cells[0]!r}", line=lineno, field="x") from None
        if not math.isfinite(x):
            raise FormatError("abscissae must be finite", line=lineno, field="x")
        try:
            v = ext.parse(cells[1])
        except ValueError as e:
            raise FormatError(str(e), line=lineno, field="value") from None
        rows.append((x, v, lineno))
    if not rows:
        raise FormatError("function file has no samples")
    rows.sort(key=lambda r: r[0])
    for (x1, _, _), (x2, _, ln) in zip(rows, rows[1:]):
        if x1 == x2:
            raise FormatError(f"duplicate abscissa {x2!r}", line=ln, field="x")
    grid = Grid(tuple(x for x, _, _ in rows))
    return SampledFunction(grid, tuple(v for _, v, _ in rows), space)


def render_function_csv(f: SampledFunction) -> str:
    out = ["x,value"]
    for x, v in zip(f.grid.points, f.values):
        out.append(f"{x!r},{ext.render(v)}")
    return "\n".join(out) + "\n"
