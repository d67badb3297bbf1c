"""Discrete conjugation calculus on sampled extended-real functions.

A sampled function is a finite strictly increasing grid of abscissae
with one extended-real value per point; it stands for the function that
equals its samples on the grid and +inf elsewhere.  It is core's
``EXT_REAL`` vector, a :class:`~nucleus.core.PresheafVector` whose
objects are its grid, on the side its ``Space`` names: PRE when primal,
OPCO when dual.  All but the transforms is core's, called on the
function itself, and core alone refuses functions on other grids.  The
source paper's R-bar-structure on function spaces, a distance that is
asymmetric and can be negative, is :func:`~nucleus.core.hom_distance`:
``climb_distance`` on PRE, ``fall_distance`` on OPCO.  Its two tropical
module structures are ``cvx_scale``, :func:`~nucleus.core.tensor_each`
and :func:`~nucleus.core.residuate_each`; ``pointwise_sup`` and
``pointwise_inf`` are :func:`~nucleus.core.pointwise_meet` and
:func:`~nucleus.core.pointwise_join`.  A function file is core's
labelled table with the fields ``x,value``.

The conjugate against a grid of slopes is ``max_x (k*x - f(x))`` with
the subtraction taken from the saturating tables, and the reverse
transform mirrors it.  Conjugating twice gives the largest convex
minorant representable on the slope grid; ``convex_hull_oracle``
evaluates the samples' lower convex hull on the transforms' hull kernel,
by the share of each edge's run; the duality identities are checkable
reports.

The transforms are push and pull over the pairing M(x, k) = k*x, and
both run one kernel with the roles of points and slopes swapped: the
linear-time Legendre transform (Lucet, Numer. Algorithms 16, 1997).  It
applies the tag rules, takes the lower hull of the finite samples in
whole-array passes, binary-searches each slope among the hull's edge
slopes and evaluates ``k*x - f(x)`` at the vertex found and its two
neighbours.  The hull kernel scales each axis by a power of two into
[2**507, 2**508), and takes exact turns where that rounds off a low bit
or a sample lies below its float hull by more than rounding.  N points
against K slopes cost O((N + K) log N) time and O(N + K) memory, against
O(N*K) for both in the brute force of :func:`nucleus.core.adjoint_arrays`
on the whole pairing.  Infinite tags match the brute force exactly; a
finite value that the brute force attains only at a near-tie may differ
from it by rounding, within ``1e-12`` times the scale
``max|k| * max|x| + max|f(x)|`` of the inputs (``TRANSFORM_RTOL``).
Inputs where ``max|k| * max|x|`` or the spread of the finite values
times the spread of their abscissae leaves the float range go to the
brute force, in blocks, and come out bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from . import core
from . import extreal as ext
from .core import EXT_REAL, FormatError, LimitKind, adjoint_arrays
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

# The extended reals' fixedness tolerance, the default of every check.
DEFAULT_TOL = EXT_REAL.default_fixed_tol
# Finite transform values agree with the brute force within this multiple
# of max|k| * max|x| + max|f(x)| (see the module docstring).
TRANSFORM_RTOL = 1e-12
# Largest slope grid Grid.from_range builds, 32 MB as an array, and most
# sample pairs default_dual_grid takes quotients of.
MAX_GRID_POINTS = 1 << 22
# Largest pairing block the brute-force transform materialises.
_BLOCK_CELLS = 1 << 20


class Space(Enum):
    PRIMAL = core.Side.PRE
    DUAL = core.Side.OPCO


class Relation(Enum):
    EQUAL = "EQUAL"
    GEQ = "GEQ"


class CheckStatus(Enum):
    OK = "OK"
    HYPOTHESIS_NOT_MET = "HYPOTHESIS_NOT_MET"


def _refuse_text(cells: list | np.ndarray, what: str) -> None:
    """Text among the cells, numpy's string arrays included, is a TypeError,
    as core's encoding refuses a scalar of the wrong type: float would read
    ``'1_0'`` as 10, a rule other than the file token rule."""
    if isinstance(cells, np.ndarray):
        cells = cells.flat if cells.dtype.kind in "OSU" else ()
    if isinstance(cells, (str, bytes)) or any(isinstance(c, (str, bytes)) for c in cells):
        raise TypeError(f"{what} must be numbers, not text")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Grid:
    """Strictly increasing finite abscissae, from a sequence or an array of
    numbers; text is refused.

    ``as_array`` is the read-only array the points were checked on;
    ``points`` is its tuple view, built when first read.
    """

    def __init__(self, points: Sequence[float] | np.ndarray) -> None:
        self.__post_init__(points)  # the checks, under the name perfbench's tracer wraps

    def __post_init__(self, points) -> None:
        arr = np.array(points)
        _refuse_text(arr, "grid points")
        arr = arr.astype(np.float64, copy=False)
        if arr.ndim != 1:
            raise ValueError("grid points must form one sequence")
        if not arr.size:
            raise ValueError("grid needs at least one point")
        if not np.isfinite(arr).all():
            raise ValueError("grid points must be finite")
        if (arr[1:] <= arr[:-1]).any():
            raise ValueError("grid points must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "as_array", arr)

    @cached_property
    def points(self) -> tuple[float, ...]:
        return tuple(self.as_array.tolist())

    @classmethod
    def from_range(cls, lo: float, hi: float, step: float) -> "Grid":
        """Points lo + i*step for i = 0, ..., count, where count is
        (hi - lo)/step rounded to the nearest integer when within 1e-6 of it,
        and rounded down otherwise.  So hi is included when the step divides
        the range up to float noise, and the last point, lo + count*step, can
        pass hi by rounding: (0, 0.3, 0.1) ends at 0.30000000000000004.  A
        range of more than MAX_GRID_POINTS points is refused before it is
        built."""
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
            raise ValueError("range bounds and step must be finite")
        if hi < lo:
            raise ValueError("range end below start")
        if lo == hi:
            return cls((float(lo),))
        if step <= 0:
            raise ValueError("step must be positive")
        q = (hi - lo) / step
        if not q < MAX_GRID_POINTS:
            raise ValueError(f"range has about {q:.3g} points, more than {MAX_GRID_POINTS}")
        count = round(q) if abs(q - round(q)) <= 1e-6 else math.floor(q)
        return cls(lo + np.arange(count + 1) * step)

    def __len__(self) -> int:
        return len(self.as_array)

    def __reduce__(self):
        return Grid, (self.as_array,)

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and np.array_equal(self.as_array, other.as_array)

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.as_array + 0.0).tobytes())

    def __repr__(self) -> str:
        return f"Grid(points={self.points!r})"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SampledFunction(core.PresheafVector):
    """Grid plus one extended-real value per point: core's EXT_REAL vector
    whose objects are the grid, on the side its space names,
    ``Space(f.side)``.  Values are an array or a sequence of numbers and
    ExtReals; text is refused.  The ExtReal tuple view is built only when
    read, so transform pipelines never build per-cell objects.  Equal, by
    core's equality, to a function on an equal grid with equal cells, never
    to a positional vector; unhashable.
    """

    mismatch = "functions live on different grids"
    grid = property(lambda self: self.objects)

    def __init__(self, grid: Grid, values, space: Space):
        values = values if isinstance(values, (np.ndarray, str, bytes)) else list(values)
        _refuse_text(values, "function values")
        if isinstance(values, list):
            values = [v.to_float() if isinstance(v, ExtReal) else float(v) for v in values]
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or len(arr) != len(grid):
            raise ValueError("need exactly one value per grid point")
        super().__init__(arr, space.value, EXT_REAL, grid)

    @property
    def space(self) -> Space:
        return Space(self.side)

    def __reduce__(self):
        return SampledFunction, (self.grid, self.values_array, self.space)

    def value_at(self, index: int) -> ExtReal:
        return ext.from_float(float(self.values_array[index]))

    def __repr__(self) -> str:
        return f"SampledFunction({self.space.name.lower()}, {len(self)} points)"


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
        """One ``key value`` line per JSON key, in order; ``holds`` as ``true``/``false``."""
        return "\n".join(
            f"{key} {str(v).lower() if isinstance(v, bool) else v}" for key, v in self.to_json_dict().items()
        )

    def to_json_dict(self) -> dict:
        return {
            "lhs": ext.render(self.lhs),
            "rhs": ext.render(self.rhs),
            "relation": self.relation.value,
            "holds": self.holds,
            # JSON has no infinity: an infinite tolerance is spelt as lhs and rhs spell one
            "tolerance": self.tolerance if math.isfinite(self.tolerance) else ext.render_float(self.tolerance),
            "status": self.status.value,
        }


def _require_space(f: SampledFunction, space: Space, what: str) -> None:
    if f.space is not space:
        raise ValueError(f"{what} must be a {space.name.lower()} function")


def _require_pair(a: SampledFunction, b: SampledFunction, space: Space, what: str) -> None:
    _require_space(a, space, what)
    _require_space(b, space, what)


def conjugate(f: SampledFunction, dual: Grid) -> SampledFunction:
    """Slope transform, the push along the pairing: at k, max over x of k*x - f(x)."""
    _require_space(f, Space.PRIMAL, "conjugate input")
    vals = _transform(f.grid.as_array, f.values_array, dual.as_array)
    return SampledFunction(dual, vals, Space.DUAL)


def reverse_conjugate(g: SampledFunction, primal: Grid) -> SampledFunction:
    """Mirror transform, the pull along the pairing: at x, max over k of k*x - g(k)."""
    _require_space(g, Space.DUAL, "reverse_conjugate input")
    vals = _transform(g.grid.as_array, g.values_array, primal.as_array)
    return SampledFunction(primal, vals, Space.PRIMAL)


def _transform(points: np.ndarray, values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """At each query q, max over i of q*points[i] - values[i] with the
    saturating subtraction; points and queries strictly increasing.

    The linear-time Legendre transform: only the lower hull of the finite
    samples can attain the maximum, and the vertex attaining it at q is the
    one whose incoming and outgoing edge slopes bracket q.
    """
    reach = max(-float(points[0]), float(points[-1])) * max(-float(queries[0]), float(queries[-1]))
    finite = np.isfinite(values)
    px, pv = points[finite], values[finite]
    spread_x = float(px[-1]) - float(px[0]) if len(px) else 0.0
    spread_v = float(pv.max()) - float(pv.min()) if len(pv) else 0.0
    # Python floats overflow to inf without a warning; this keeps the
    # differences below finite, and an edge's slope that overflows saturates
    if not (reach < math.inf and max(spread_x, 1.0) * max(spread_v, 1.0) < 2.0**1021):
        return _brute_transform(points, values, queries)
    # every product q*p is finite from here on: q*p - (-inf) = +inf, and no difference is NaN
    if (values == -np.inf).any():
        return np.full(len(queries), np.inf)
    if not len(px):
        return np.full(len(queries), -np.inf)
    vertices = _hull_vertices(px, pv)
    hx, hv = px[vertices], pv[vertices]
    with np.errstate(over="ignore"):
        found = np.searchsorted(np.maximum.accumulate(np.diff(hv) / np.diff(hx)), queries)
        out = queries * hx[found] - hv[found]
        for at in (np.maximum(found - 1, 0), np.minimum(found + 1, len(hx) - 1)):
            np.maximum(out, queries * hx[at] - hv[at], out=out)
    return out


def _brute_transform(points: np.ndarray, values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The transform as the push of :func:`nucleus.core.adjoint_arrays` along
    the whole pairing, in blocks of queries; products beyond the float range
    saturate."""
    step = max(1, _BLOCK_CELLS // len(points))
    blocks = []
    for s in range(0, len(queries), step):
        with np.errstate(over="ignore"):
            pairing = np.multiply.outer(points, queries[s : s + step])
        blocks.append(adjoint_arrays(EXT_REAL, pairing, values, axis=0))
    return np.concatenate(blocks)


# A peeling pass over n points costs about as much as 32 + n/32 steps of the
# monotone chain (numpy 2.4, x86-64); a pass that drops fewer points than
# that has not paid for itself.
_PASS_FIXED_COST = 32
_PASS_POINT_COST = 1 / 32
# Rounded turns leave samples at most 6 * 2**-53 * max|y| below the float hull
# (measured on near-collinear inputs); one lower than this shows a lost vertex.
_HULL_SLACK = 32 * 2.0**-53


def _hull_vertices(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower hull's vertices, for any finite floats sorted by x.

    Each axis is scaled by :func:`_scale_exponent`, so that turns neither
    overflow nor underflow to a false zero.  Each pass drops, all at once,
    every point on or above the chord of its two neighbours; no hull vertex
    ever does.  Once a pass drops too few points to pay for itself (a long
    convex run eaten one point per pass from a far vertex), a monotone chain
    finishes the survivors.  A turn rounded to zero can drop a vertex in the
    same pass as a neighbour only it kept off the hull, which leaves a sample
    below the hull by more than rounding.  There, and where scaling rounds
    off a low bit, the chain takes the hull on exact integer coordinates.
    """
    ex, ey = _scale_exponent(x), _scale_exponent(y)
    px, py = np.ldexp(x, ex), np.ldexp(y, ey)
    keep = np.arange(len(x))
    if np.array_equal(np.ldexp(px, -ex), x) and np.array_equal(np.ldexp(py, -ey), y):
        while len(keep) > 2:
            hx, hy = px[keep], py[keep]
            ax, ay = hx[:-2], hy[:-2]
            turn = (hx[1:-1] - ax) * (hy[2:] - ay) - (hy[1:-1] - ay) * (hx[2:] - ax)
            vertex = turn > 0
            dropped = len(vertex) - int(np.count_nonzero(vertex))
            if not dropped:
                break
            keep = keep[np.concatenate(([True], vertex, [True]))]
            if dropped < _PASS_FIXED_COST + len(keep) * _PASS_POINT_COST:
                keep = _monotone_chain(px, py, keep)
                break
        if (_on_polyline(px[keep], py[keep], px) - py <= _HULL_SLACK * np.abs(py).max()).all():
            return keep
    return _monotone_chain(_exact_units(x), _exact_units(y), np.arange(len(x)))


def _scale_exponent(coords: np.ndarray) -> int:
    """The power of two that brings the largest |coordinate| into [2**507, 2**508)."""
    return 508 - math.frexp(float(np.abs(coords).max()))[1]


def _on_polyline(hx: np.ndarray, hy: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The polyline through the vertices (hx, hy) at increasing abscissae in
    [hx[0], hx[-1]]: on each edge, the left vertex's value plus the rise times
    the share of the run, (x - x0) / run, with a run or a rise that overflows
    taken on halves.  At a vertex the share is 0: the value is its own."""
    # each vertex's edge takes the abscissae from it up to the next vertex
    counts = np.diff(np.searchsorted(at, hx), append=len(at))
    ends = np.array([hx, hy])
    nxt = np.append(ends[:, 1:], [[np.inf], [hy[-1]]], axis=1)  # a flat edge after the last vertex
    with np.errstate(over="ignore"):  # an edge's axis whose run or rise overflows is halved
        half = np.where(np.isfinite(nxt - ends), 1.0, 0.5)
    lo = ends * half
    c, v, x0, y0, run, rise = np.repeat(np.concatenate([half, lo, nxt * half - lo]), counts, axis=1)
    return (y0 + (at * c - x0) / run * rise) / v


def _monotone_chain(x: np.ndarray, y: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The points of ``keep`` that Andrew's monotone chain keeps as vertices."""
    xs, ys = x[keep].tolist(), y[keep].tolist()
    chain: list[int] = []
    for i, (px, py) in enumerate(zip(xs, ys)):
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            if (xs[b] - xs[a]) * (py - ys[a]) - (ys[b] - ys[a]) * (px - xs[a]) > 0:
                break
            chain.pop()
        chain.append(i)
    return keep[chain]


def biconjugate(f: SampledFunction, dual: Grid) -> SampledFunction:
    """Conjugate twice through the given slope grid.

    Exceeds ``f`` only by rounding, within ``TRANSFORM_RTOL`` times the
    first transform's scale; is idempotent for a fixed slope grid, and with
    slopes covering every pairwise difference quotient of the finite
    points it equals the geometric lower hull on the grid.
    """
    return reverse_conjugate(conjugate(f, dual), f.grid)


def climb_distance(f1: SampledFunction, f2: SampledFunction) -> ExtReal:
    """Largest climb from f1 up to f2: max over the grid of f2(x) - f1(x)."""
    _require_pair(f1, f2, Space.PRIMAL, "climb_distance input")
    return core.hom_distance(f1, f2)


def fall_distance(g1: SampledFunction, g2: SampledFunction) -> ExtReal:
    """Largest fall from g1 down to g2: max over slopes of g1(k) - g2(k)."""
    _require_pair(g1, g2, Space.DUAL, "fall_distance input")
    return core.hom_distance(g1, g2)


def check_lf_adjunction(f: SampledFunction, g: SampledFunction, tol: float = DEFAULT_TOL) -> DualityReport:
    """The transform adjunction: fall(conj f, g) equals climb(f, rev g),
    on the slopes of g's own grid."""
    ext._check_tol(tol)
    _require_space(f, Space.PRIMAL, "adjunction check")
    _require_space(g, Space.DUAL, "adjunction check")
    lhs = fall_distance(conjugate(f, g.grid), g)
    rhs = climb_distance(f, reverse_conjugate(g, f.grid))
    holds = ext.approx_equal(lhs, rhs, tol)
    return DualityReport(lhs=lhs, rhs=rhs, relation=Relation.EQUAL, holds=holds, tolerance=tol)


def check_short(
    f1: SampledFunction,
    f2: SampledFunction,
    dual: Grid,
    tol: float = DEFAULT_TOL,
) -> DualityReport:
    """Conjugation never increases distance: climb(f1,f2) >= fall(conj f1, conj f2)."""
    lhs, rhs, _ = _climb_and_fall(f1, f2, dual, tol, "shortness check")
    holds = ext.geq_within(lhs, rhs, tol)
    return DualityReport(lhs=lhs, rhs=rhs, relation=Relation.GEQ, holds=holds, tolerance=tol)


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
    lhs, rhs, conj2 = _climb_and_fall(f1, f2, dual, tol, "duality check")
    hull2 = reverse_conjugate(conj2, f2.grid)  # the biconjugate of f2
    hypothesis_ok = ext.approx_equal_arrays(hull2.values_array, f2.values_array, tol)
    status = CheckStatus.OK if hypothesis_ok else CheckStatus.HYPOTHESIS_NOT_MET
    holds = hypothesis_ok and ext.approx_equal(lhs, rhs, tol)
    return DualityReport(
        lhs=lhs, rhs=rhs, relation=Relation.EQUAL, holds=holds, tolerance=tol, status=status
    )


def _climb_and_fall(
    f1: SampledFunction, f2: SampledFunction, dual: Grid, tol: float, what: str
) -> tuple[ExtReal, ExtReal, SampledFunction]:
    """climb(f1, f2) and fall(conj f1, conj f2), the two sides that shortness
    and Toland-Singer compare, the climb first, refusing other grids before
    any transform, and conj f2, which Toland-Singer's hypothesis conjugates back."""
    ext._check_tol(tol)
    _require_pair(f1, f2, Space.PRIMAL, what)
    climb, conj1, conj2 = climb_distance(f1, f2), conjugate(f1, dual), conjugate(f2, dual)
    return climb, fall_distance(conj1, conj2), conj2


def convex_hull_oracle(f: SampledFunction) -> SampledFunction:
    """Lower convex hull of the finite sample points, evaluated on the grid.

    Its vertices come from :func:`_hull_vertices`, the transforms' kernel,
    which scales the samples itself, and :func:`_on_polyline` reads the
    grid on them, each vertex as its own sample.  Points valued +inf take no
    part in the hull and stay +inf outside the finite points' span; any -inf
    sample collapses the hull to -inf everywhere.  The name, which the CLI
    and perfbench's tracer look up, is kept from when its own monotone chain
    made it an oracle; ``tests/hull_oracle.py`` now holds that chain, exact.
    """
    _require_space(f, Space.PRIMAL, "hull input")
    vals = f.values_array
    if np.any(vals == -np.inf):
        return SampledFunction(f.grid, np.full(len(f), -np.inf), Space.PRIMAL)
    finite = np.isfinite(vals)
    if not finite.any():
        return SampledFunction(f.grid, vals, Space.PRIMAL)
    grid = f.grid.as_array
    xs, ys = grid[finite], vals[finite]
    vertices = _hull_vertices(xs, ys)
    span = (grid >= xs[0]) & (grid <= xs[-1])
    out = np.full(len(f), np.inf)
    out[span] = _on_polyline(xs[vertices], ys[vertices], grid[span])
    return SampledFunction(f.grid, out, Space.PRIMAL)


def _exact_units(coords: np.ndarray) -> np.ndarray:
    """Finite floats as Python ints, in units of the largest power of two
    that divides them all."""
    units = [n << (1075 - d.bit_length()) for n, d in map(float.as_integer_ratio, coords.tolist())]
    low = min(((u & -u).bit_length() for u in units if u), default=1) - 1
    return np.array([u >> low for u in units], dtype=object)


def default_dual_grid(f: SampledFunction) -> Grid:
    """Every pairwise difference quotient of the finite sample points.

    Conjugating twice through this grid reproduces the geometric lower
    hull exactly at grid points the hull reaches; a function with fewer
    than two finite points gets the single slope 0.  More than
    MAX_GRID_POINTS pairs, refused before any is built, or a quotient
    beyond the float range is a ValueError.
    """
    _require_space(f, Space.PRIMAL, "dual grid construction")
    vals = f.values_array
    finite = np.isfinite(vals)
    n = int(finite.sum())
    if n < 2:
        return Grid((0.0,))
    pairs = n * (n - 1) // 2
    if pairs > MAX_GRID_POINTS:
        raise ValueError(
            f"{n} finite samples give {pairs} difference quotients, more than {MAX_GRID_POINTS}"
        )
    xs = f.grid.as_array[finite]
    ys = vals[finite]
    i, j = np.triu_indices(n, k=1)
    with np.errstate(over="ignore", invalid="ignore"):
        slopes = (ys[j] - ys[i]) / (xs[j] - xs[i])
    if not np.isfinite(slopes).all():
        raise ValueError("difference quotients of the samples leave the float range")
    return Grid(np.unique(slopes))


def pointwise_sup(fs: Sequence[SampledFunction], grid: Grid | None = None) -> SampledFunction:
    """Pointwise maximum of primal functions; the empty family is constant -inf."""
    return _pointwise(core.pointwise_meet, EXT_REAL.top, fs, grid)


def pointwise_inf(fs: Sequence[SampledFunction], grid: Grid | None = None) -> SampledFunction:
    """Pointwise minimum of primal functions; the empty family is constant +inf."""
    return _pointwise(core.pointwise_join, EXT_REAL.bottom, fs, grid)


def _pointwise(fold, empty: ExtReal, fs: Sequence[SampledFunction], grid: Grid | None) -> SampledFunction:
    for f in fs:
        _require_space(f, Space.PRIMAL, "family member")
    if grid is not None:  # the fold's unit on the grid, which core matches with the family's
        fs = [*fs, SampledFunction(grid, np.full(len(grid), empty.to_float()), Space.PRIMAL)]
    if not fs:
        raise ValueError("an empty family needs an explicit grid")
    out = fold(fs)
    return SampledFunction(out.objects, out.values_array, Space.PRIMAL)


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
    actions = {LimitKind.TENSOR: core.tensor_each, LimitKind.COTENSOR: core.residuate_each}
    if kind not in actions:
        raise ValueError(f"cvx_scale handles TENSOR and COTENSOR, got {kind!r}")
    return SampledFunction(f.grid, actions[kind](a, f).values_array, Space.PRIMAL)


# ---------------------------------------------------------------------------
# Function CSV: the header line "x,value" is optional on input, always written.

def parse_function_csv(text: str, space: Space = Space.PRIMAL) -> SampledFunction:
    """The function a two-column ``x,value`` file spells, its rows sorted
    by abscissa, as :func:`~nucleus.core.parse_labelled_csv` reads the
    table, a first line reading ``x,value`` being a header.  A cell is read
    by the token rule of :func:`~nucleus.extreal.parse`: Python's ``float``,
    digit-group underscores and NaN refused, and an abscissa must be finite
    and unique.  A malformed file raises the ``FormatError`` of its first
    fault in file order, with the line (counting blank lines) and field; a
    file without rows has no line, and the smallest repeated abscissa is
    reported at its second line.
    """
    xs, vs = core.parse_labelled_csv(text, "function", ext.parse, _read_function, _abscissa, ("x", "value"))
    return SampledFunction(Grid(xs), vs, space)


def _abscissa(token: str) -> None:
    try:
        x = ext._real(token)
    except ValueError:
        raise ValueError(f"bad abscissa {token!r}") from None
    if not math.isfinite(x):
        raise ValueError("abscissae must be finite")


def _read_function(header, labels, cells, numbers) -> tuple[np.ndarray, np.ndarray]:
    if not labels:
        raise FormatError("function file has no samples")
    xs = np.array(list(map(float, labels)))
    vs = ext.to_array(map(ext.parse, cells))
    # float reads the digit-group underscore in 1_0 as 10
    if "_" in "".join(labels) or not np.isfinite(xs).all():
        raise ValueError("an abscissa is not a finite number")
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    repeats = np.flatnonzero(xs[1:] == xs[:-1]) + 1
    if len(repeats):
        at = repeats[0]
        raise FormatError(f"duplicate abscissa {xs[at].item()!r}", line=numbers()[order[at]], field=header[0])
    return xs, vs[order]


def render_function_csv(f: SampledFunction) -> str:
    """The ``x,value`` text of ``f``, header included, one row per sample
    in grid order: each cell as its shortest round-trip ``repr``, ``inf``
    and ``-inf`` for the infinities, so that the token rule of
    :func:`parse_function_csv` reads back an equal function.  An abscissa
    keeps the sign of its zero; a value is canonical, as core's encoding
    stores it, so a value of ``-0.0`` is written ``0.0``."""
    rows = zip(f.grid.as_array.tolist(), f.values_array.tolist())
    return "x,value\n" + "".join([f"{x!r},{v!r}\n" for x, v in rows])
