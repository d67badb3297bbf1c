"""Discrete conjugation calculus on sampled extended-real functions.

A sampled function is a finite strictly increasing grid of abscissae
with one extended-real value per point; it stands for the function that
equals its samples on the grid and +inf elsewhere.  It is core's
``EXT_REAL`` vector on the grid, on the PRE side when primal and the
OPCO side when dual, and all but the transforms is core's on it.  The
source paper's R-bar-structure on function spaces, a distance that is
asymmetric and can be negative, is :func:`~nucleus.core.hom_distance`:
``climb_distance`` on PRE, ``fall_distance`` on OPCO.  Its two tropical
module structures are ``cvx_scale``, :func:`~nucleus.core.tensor_each`
and :func:`~nucleus.core.residuate_each`; ``pointwise_sup`` and
``pointwise_inf`` are :func:`~nucleus.core.pointwise_meet` and
:func:`~nucleus.core.pointwise_join`.

The conjugate against a grid of slopes is ``max_x (k*x - f(x))`` with
the subtraction taken from the saturating tables, and the reverse
transform mirrors it.  Conjugating twice gives the largest convex
minorant representable on the slope grid; a geometric lower hull
cross-checks it, and the duality identities are checkable reports.

The transforms are push and pull over the pairing M(x, k) = k*x, and
both run one kernel with the roles of points and slopes swapped: the
linear-time Legendre transform (Lucet, Numer. Algorithms 16, 1997).  It
applies the tag rules, takes the lower hull of the finite samples in
whole-array passes, binary-searches each slope among the hull's edge
slopes and evaluates ``k*x - f(x)`` at the vertex found, its two
neighbours and the two end vertices.  N points against K slopes cost
O((N + K) log N) time and O(N + K) memory, against O(N*K) for both in
the brute force of :func:`nucleus.core.adjoint_arrays` on the whole
pairing.  Infinite tags match the brute force exactly; a finite value
that the brute force attains only at a near-tie may differ from it by
rounding, within ``1e-12`` times the scale ``max|k| * max|x| +
max|f(x)|`` of the inputs (``TRANSFORM_RTOL``).  Inputs where
``max|k| * max|x|`` or the spread of the finite values times the spread
of their abscissae leaves the float range go to the brute force, in
blocks, and come out bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter
from typing import NoReturn, Sequence

import numpy as np

from . import core
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
    PRIMAL = "primal"
    DUAL = "dual"


class Relation(Enum):
    EQUAL = "EQUAL"
    GEQ = "GEQ"


class CheckStatus(Enum):
    OK = "OK"
    HYPOTHESIS_NOT_MET = "HYPOTHESIS_NOT_MET"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Grid:
    """Strictly increasing finite abscissae, from any sequence or float64 array.

    ``as_array`` is the read-only array the points were checked on;
    ``points`` is its tuple view, built when first read.
    """

    def __init__(self, points: Sequence[float] | np.ndarray) -> None:
        self.__post_init__(points)  # the checks, under the name perfbench's tracer wraps

    def __post_init__(self, points) -> None:
        arr = np.array(points, dtype=np.float64)
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
        """Points lo, lo+step, ... up to hi; hi itself is included when the
        step divides the range (up to float noise), never overshot.  A range
        of more than MAX_GRID_POINTS points is refused before it is built."""
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

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and np.array_equal(self.as_array, other.as_array)

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.as_array + 0.0).tobytes())

    def __repr__(self) -> str:
        return f"Grid(points={self.points!r})"


class SampledFunction:
    """Grid plus one extended-real value per point: core's EXT_REAL vector
    on the grid, on the PRE side for a primal function and the OPCO side
    for a dual one.  The ExtReal tuple view is built only when read, so
    transform pipelines never build per-cell objects.
    """

    __slots__ = ("grid", "space", "_vector")

    def __init__(self, grid: Grid, values, space: Space):
        if not isinstance(values, np.ndarray):
            values = [v.to_float() if isinstance(v, ExtReal) else float(v) for v in values]
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or len(arr) != len(grid):
            raise ValueError("need exactly one value per grid point")
        self.grid = grid
        self.space = space
        side = core.Side.PRE if space is Space.PRIMAL else core.Side.OPCO
        self._vector = core.PresheafVector(arr, side, EXT_REAL)

    @property
    def values(self) -> tuple[ExtReal, ...]:
        return self._vector.values

    @property
    def values_array(self) -> np.ndarray:
        return self._vector.values_array

    def value_at(self, index: int) -> ExtReal:
        return ext.from_float(float(self.values_array[index]))

    def __len__(self) -> int:
        return len(self.grid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledFunction):
            return NotImplemented
        return self.grid == other.grid and self._vector == other._vector

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
        raise ValueError(f"{what} must be a {space.value} function")


def _require_pair(a: SampledFunction, b: SampledFunction, space: Space, what: str) -> None:
    _require_space(a, space, what)
    _require_space(b, space, what)
    if a.grid != b.grid:
        raise SizeMismatchError("functions live on different grids")


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
    # Python floats overflow to inf without a warning; the hull's turns stay
    # below 2 * max(spread_x, 1) * max(spread_v, 1)
    if not (reach < math.inf and max(spread_x, 1.0) * max(spread_v, 1.0) < 2.0**1021):
        return _brute_transform(points, values, queries)
    # every product q*p is finite from here on, so q*p - (-inf) = +inf
    if (values == -np.inf).any():
        return np.full(len(queries), np.inf)
    if not len(px):
        return np.full(len(queries), -np.inf)
    # a spread below 1 is scaled up by a power of two, so that products of
    # small differences do not underflow to a false collinearity
    vertices = _hull_vertices(np.ldexp(px, _unit_exponent(spread_x)), np.ldexp(pv, _unit_exponent(spread_v)))
    hx, hv = px[vertices], pv[vertices]
    with np.errstate(over="ignore"):
        edges = np.maximum.accumulate(np.diff(hv) / np.diff(hx))
    found = np.searchsorted(edges, queries)
    last = len(hx) - 1
    out = np.full(len(queries), -np.inf)
    # searchsorted returns 0..last, a vertex; its neighbours are clipped to the ends
    for at in (np.maximum(found - 1, 0), found, np.minimum(found + 1, last), 0, last):
        np.maximum(out, ext.sub_arrays(queries * hx[at], hv[at]), out=out)
    return out


def _unit_exponent(spread: float) -> int:
    """The power of two that brings a spread in (0, 1) into [0.5, 1); 0 otherwise."""
    return -math.frexp(spread)[1] if 0 < spread < 1 else 0


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


def _hull_vertices(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower hull's vertices, for points sorted by x.

    Each pass drops, all at once, every point that lies on or above the
    chord of its two neighbours; no hull vertex ever does.  Once a pass
    drops too few points to pay for itself (a long convex run being eaten
    one point per pass from a far vertex), a monotone chain finishes the
    survivors; it is written out here so that the hull oracle's own chain
    stays independent of the kernel.
    """
    keep = np.arange(len(x))
    while len(keep) > 2:
        hx, hy = x[keep], y[keep]
        ax, ay = hx[:-2], hy[:-2]
        turn = (hx[1:-1] - ax) * (hy[2:] - ay) - (hy[1:-1] - ay) * (hx[2:] - ax)
        vertex = turn > 0
        dropped = len(vertex) - int(np.count_nonzero(vertex))
        if not dropped:
            return keep
        keep = keep[np.concatenate(([True], vertex, [True]))]
        if dropped < _PASS_FIXED_COST + len(keep) * _PASS_POINT_COST:
            break
    else:
        return keep
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

    Never exceeds ``f``, is idempotent for a fixed slope grid, and with
    slopes covering every pairwise difference quotient of the finite
    points it equals the geometric lower hull on the grid.
    """
    return reverse_conjugate(conjugate(f, dual), f.grid)


def climb_distance(f1: SampledFunction, f2: SampledFunction) -> ExtReal:
    """Largest climb from f1 up to f2: max over the grid of f2(x) - f1(x)."""
    _require_pair(f1, f2, Space.PRIMAL, "climb_distance input")
    return core.hom_distance(f1._vector, f2._vector)


def fall_distance(g1: SampledFunction, g2: SampledFunction) -> ExtReal:
    """Largest fall from g1 down to g2: max over slopes of g1(k) - g2(k)."""
    _require_pair(g1, g2, Space.DUAL, "fall_distance input")
    return core.hom_distance(g1._vector, g2._vector)


def check_lf_adjunction(
    f: SampledFunction,
    g: SampledFunction,
    dual: Grid | None = None,
    tol: float = DEFAULT_TOL,
) -> DualityReport:
    """The transform adjunction: fall(conj f, g) equals climb(f, rev g)."""
    ext._check_tol(tol)
    _require_space(f, Space.PRIMAL, "adjunction check")
    _require_space(g, Space.DUAL, "adjunction check")
    if dual is not None and dual != g.grid:
        raise SizeMismatchError("dual grid does not match the dual function's grid")
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
    lhs, rhs = _climb_and_fall(f1, f2, dual, tol, "shortness check")
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
    lhs, rhs = _climb_and_fall(f1, f2, dual, tol, "duality check")
    hull2 = biconjugate(f2, dual)
    hypothesis_ok = ext.approx_equal_arrays(hull2.values_array, f2.values_array, tol)
    status = CheckStatus.OK if hypothesis_ok else CheckStatus.HYPOTHESIS_NOT_MET
    holds = hypothesis_ok and ext.approx_equal(lhs, rhs, tol)
    return DualityReport(
        lhs=lhs, rhs=rhs, relation=Relation.EQUAL, holds=holds, tolerance=tol, status=status
    )


def _climb_and_fall(
    f1: SampledFunction, f2: SampledFunction, dual: Grid, tol: float, what: str
) -> tuple[ExtReal, ExtReal]:
    """climb(f1, f2) and fall(conj f1, conj f2), the two sides that shortness
    and Toland-Singer compare, once the tolerance and the pair are checked."""
    ext._check_tol(tol)
    _require_pair(f1, f2, Space.PRIMAL, what)
    return climb_distance(f1, f2), fall_distance(conjugate(f1, dual), conjugate(f2, dual))


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
    # interpolate where differences cannot overflow, as the chain does
    ex, ey = _shrink_exponent(xs), _shrink_exponent(ys)
    scaled = np.interp(np.ldexp(grid[span], -ex), np.ldexp(hull_x, -ex), np.ldexp(hull_y, -ey))
    out[span] = np.ldexp(scaled, ey)
    return SampledFunction(f.grid, out, Space.PRIMAL)


def _shrink_exponent(coords: np.ndarray) -> int:
    """The power of two that brings every coordinate to at most 2**509 in
    magnitude, so that differences and their products stay finite; 0 when
    they already are."""
    return max(0, math.frexp(float(np.abs(coords).max()))[1] - 509)


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monotone chain over points already sorted by x; keeps the vertices of
    the lower boundary (counterclockwise turns only).  Turns are taken on the
    coordinates scaled down by powers of two, so none overflows."""
    sx = np.ldexp(xs, -_shrink_exponent(xs)).tolist()
    sy = np.ldexp(ys, -_shrink_exponent(ys)).tolist()
    chain: list[int] = []
    for i, (x, y) in enumerate(zip(sx, sy)):
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            cross = (sx[b] - sx[a]) * (y - sy[a]) - (sy[b] - sy[a]) * (x - sx[a])
            if cross <= 0:
                chain.pop()
            else:
                break
        chain.append(i)
    return xs[chain], ys[chain]


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
        if grid is None:
            grid = f.grid
        elif f.grid != grid:
            raise SizeMismatchError("functions live on different grids")
    if grid is None:
        raise ValueError("an empty family needs an explicit grid")
    if not fs:
        return SampledFunction(grid, np.full(len(grid), empty.to_float()), Space.PRIMAL)
    return SampledFunction(grid, fold([f._vector for f in fs]).values_array, Space.PRIMAL)


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
    return SampledFunction(f.grid, actions[kind](a, f._vector).values_array, Space.PRIMAL)


# ---------------------------------------------------------------------------
# Function CSV: two columns "x,value"; the header line is optional on
# input and always written.  Rows are sorted on load; duplicate
# abscissae are rejected.

def parse_function_csv(text: str, space: Space = Space.PRIMAL) -> SampledFunction:
    """The function a two-column ``x,value`` file spells, its rows sorted
    by abscissa.  Lines are split as ``str.splitlines`` splits them and
    cells stripped as ``str.strip`` strips them; blank lines are skipped,
    and a first line reading ``x,value`` (any case, spaces ignored) is a
    header.  A cell is read by the token rule of :func:`~nucleus.extreal.parse`:
    Python's ``float``, digit-group underscores and NaN refused, and an
    abscissa must be finite and unique.  A malformed file raises the
    ``FormatError`` of its first fault in file order, with the line
    (counting blank lines) and field; a file without rows has no line,
    and the smallest repeated abscissa is reported at its second line.

    The file is read in whole-column passes; only a file it refuses is
    read again row by row, to name the fault.
    """
    lines = list(map(str.strip, text.splitlines()))
    rows = list(compress(lines, lines))
    if rows and rows[0].lower().replace(" ", "") == "x,value":
        del rows[0]
    joined = ",".join(rows)
    # a count per row: a 1-cell row and a 3-cell row would balance in a total
    if not rows or "_" in joined or list(map(str.count, rows, repeat(","))).count(1) != len(rows):
        _raise_first_fault(text)
    cells = list(map(str.strip, joined.split(",")))
    try:
        xs = np.array(list(map(float, cells[0::2])))
        vs = ext.to_array(map(ext.parse, cells[1::2]))
    except ValueError:
        _raise_first_fault(text)
    order = np.argsort(xs, kind="stable")
    xs, vs = xs[order], vs[order]
    if not np.isfinite(xs).all() or (xs[1:] == xs[:-1]).any():
        _raise_first_fault(text)
    return SampledFunction(Grid(xs), vs, space)


def _raise_first_fault(text: str) -> NoReturn:
    """Raise the first ``FormatError`` of a file that
    :func:`parse_function_csv` refused, reading it one row at a time."""
    rows: list[tuple[float, int]] = []
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
            x = ext._real(cells[0])
        except ValueError:
            raise FormatError(f"bad abscissa {cells[0]!r}", line=lineno, field="x") from None
        if not math.isfinite(x):
            raise FormatError("abscissae must be finite", line=lineno, field="x")
        try:
            ext.parse(cells[1])
        except ValueError as e:
            raise FormatError(str(e), line=lineno, field="value") from None
        rows.append((x, lineno))
    if not rows:
        raise FormatError("function file has no samples")
    rows.sort(key=itemgetter(0))
    # every other fault is raised above, so the refused file repeats an abscissa
    x2, ln = next((x2, ln) for (x1, _), (x2, ln) in zip(rows, rows[1:]) if x1 == x2)
    raise FormatError(f"duplicate abscissa {x2!r}", line=ln, field="x")


def render_function_csv(f: SampledFunction) -> str:
    """The ``x,value`` text of ``f``, header included, one row per sample
    in grid order: each cell as its shortest round-trip ``repr``, ``inf``
    and ``-inf`` for the infinities and ``-0.0`` kept, so that the token
    rule of :func:`parse_function_csv` reads back an equal function."""
    rows = zip(f.grid.as_array.tolist(), f.values_array.tolist())
    return "x,value\n" + "".join([f"{x!r},{v!r}\n" for x, v in rows])
