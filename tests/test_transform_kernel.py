"""The linear-time Legendre transform against the brute-force and exact
oracles, the ``hull`` verb against the exact hull oracle, and the paper's
two tropical module structures under conjugation.

The brute-force oracle is the push and pull of ``core.adjoint_arrays`` on
the whole pairing k*x, which is how the transforms were computed before
the kernel; it saturates each product, so it is the oracle only where no
product k*x leaves the float range.  There infinite tags must match it
exactly, and finite values agree within ``TRANSFORM_RTOL`` times the scale
``max|k| * max|x| + max|f(x)|`` (finite values only).  Elsewhere the
oracle is ``hull_oracle.exact_transform``, which takes each product
exactly: infinite tags must match, and finite values agree within
``TRANSFORM_RTOL`` times each slope's own scale ``|k| * max|x| +
max|f(x)|``.  Conjugation turns a shift up by a into a shift down by a,
and the pointwise infimum of a family into the pointwise supremum of the
conjugates, within the same bound, on inputs that stay inside the float
range.  The ``hull`` verb must give the exact hull's infinite tags, and
finite values within ``HULL_RTOL`` times the largest finite |f(x)|, or
the spacing of floats below the normal range where that is larger; each
vertex of the hull keeps its own sample, bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nucleus import extreal as ext
from nucleus import legendre
from nucleus.cli import run
from nucleus.core import EXT_REAL, LimitKind, adjoint_arrays, pointwise_meet, residuate_each
from nucleus.legendre import (
    TRANSFORM_RTOL,
    Grid,
    SampledFunction,
    Space,
    biconjugate,
    conjugate,
    convex_hull_oracle,
    cvx_scale,
    default_dual_grid,
    parse_function_csv,
    pointwise_inf,
    render_function_csv,
    reverse_conjugate,
)

from hull_oracle import exact_hull, exact_transform, transform_bounds

EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7e308, -1.7e308]
LATTICE = [i / 4 for i in range(-40, 41)]
COORD = st.one_of(st.sampled_from(EDGE), st.sampled_from(LATTICE))
VALUE = st.one_of(st.sampled_from([math.inf, -math.inf]), COORD)
# mixed scales and subnormals, but no shift or transform leaves the float range
MODULE_COORD = st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, 1e6, -1e6, 1e-6]), st.sampled_from(LATTICE))
MODULE_VALUE = st.one_of(st.sampled_from([math.inf, -math.inf]), MODULE_COORD)
# The hull verb's finite values lie within this multiple of max|f(x)| of the
# exact hull's; 20,000 draws of each strategy below measured at most 8.3e-16.
HULL_RTOL = 4e-15


def pairing(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.multiply.outer(points, queries)


def brute(points, values, queries) -> np.ndarray:
    return adjoint_arrays(EXT_REAL, pairing(points, queries), values, axis=0)


def brute_biconjugate(f: SampledFunction, dual: Grid) -> np.ndarray:
    x, k = f.grid.as_array, dual.as_array
    return brute(k, brute(x, f.values_array, k), x)


def reach(points, queries) -> float:
    """max|p| * max|q| of two sorted arrays, in Python floats (which overflow
    to inf without a warning)."""
    return max(-float(points[0]), float(points[-1])) * max(-float(queries[0]), float(queries[-1]))


def scale(points, values, queries) -> float:
    fin = np.isfinite(values)
    return reach(points, queries) + (float(np.abs(values[fin]).max()) if fin.any() else 0.0)


def assert_within(got, want, bound):
    """Infinite tags equal, finite values within the bound."""
    assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    both = np.isfinite(want)
    assert np.all(np.abs(got[both] - want[both]) <= np.broadcast_to(bound, want.shape)[both])


def assert_agrees(got, points, values, queries):
    """As the brute force where no product k*x leaves the float range, and
    as the exact transform, within each query's own scale, where one does."""
    if reach(points, queries) < math.inf:
        want = brute(points, values, queries)
        assert_within(got, want, TRANSFORM_RTOL * scale(points, values, queries))
    else:
        want = exact_transform(points, values, queries)
        assert_within(got, want, transform_bounds(points, values, queries, TRANSFORM_RTOL))


def values_on(draw, xs, value=VALUE):
    """One value per abscissa; some or all of them lie on one lattice line,
    so that collinear points tie."""
    slope, icept = draw(st.sampled_from(LATTICE)), draw(st.sampled_from(LATTICE))
    on_line = draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
    return [
        slope * x + icept if keep and math.isfinite(slope * x + icept) else draw(value)
        for x, keep in zip(xs, on_line)
    ]


@st.composite
def sampled(draw, space: Space, coord=COORD, value=VALUE):
    """Up to 40 samples from the coordinate pool, by default the edge and
    lattice pools."""
    xs = sorted(draw(st.lists(coord, min_size=1, max_size=40, unique=True)))
    return SampledFunction(Grid(xs), values_on(draw, xs, value), space)


@st.composite
def near_lines(draw):
    """Up to 40 samples of a lattice line, each moved by a few units of
    1e-15 of its size, so that the hull's turns are near ties."""
    xs = sorted(draw(st.lists(st.sampled_from(LATTICE), min_size=1, max_size=40, unique=True)))
    slope, icept = draw(st.sampled_from(LATTICE)), draw(st.sampled_from(LATTICE))
    noise = draw(st.lists(st.integers(-4, 4), min_size=len(xs), max_size=len(xs)))
    vals = [slope * x + icept for x in xs]
    return SampledFunction(Grid(xs), [v + k * 1e-15 * (1 + abs(v)) for v, k in zip(vals, noise)], Space.PRIMAL)


@st.composite
def grids(draw, coord=COORD):
    return Grid(sorted(draw(st.lists(coord, min_size=1, max_size=40, unique=True))))


@st.composite
def families(draw):
    """One to four primal functions on one grid, from the module pools."""
    head = draw(sampled(Space.PRIMAL, MODULE_COORD, MODULE_VALUE))
    xs = head.grid.as_array.tolist()
    rest = [values_on(draw, xs, MODULE_VALUE) for _ in range(draw(st.integers(0, 3)))]
    return [head, *(SampledFunction(head.grid, vals, Space.PRIMAL) for vals in rest)]


@settings(max_examples=400, deadline=None)
@given(st.one_of(sampled(Space.PRIMAL), near_lines()), grids())
def test_conjugate_matches_the_brute_force(f, dual):
    got = conjugate(f, dual).values_array
    assert_agrees(got, f.grid.as_array, f.values_array, dual.as_array)


@settings(max_examples=400, deadline=None)
@given(sampled(Space.DUAL), grids())
def test_reverse_conjugate_matches_the_brute_force(g, primal):
    got = reverse_conjugate(g, primal).values_array
    assert_agrees(got, g.grid.as_array, g.values_array, primal.as_array)


def test_shapes_that_stall_the_peeling_passes():
    # a long convex run eaten one point per pass from a far vertex: a deep
    # well at the end, a cubic's tangent from its left end, many troughs
    x = np.linspace(-3.0, 3.0, 3001)
    drop = x**2
    drop[-1] = -100.0
    slopes = np.linspace(-60.0, 60.0, 241)
    for vals in (drop, x**3, np.sin(20 * x), np.abs(x) + 1e-3 * np.cos(300 * x)):
        f = SampledFunction(Grid(x), vals, Space.PRIMAL)
        dual = Grid(slopes)
        assert_agrees(conjugate(f, dual).values_array, x, f.values_array, slopes)
        g = conjugate(f, dual)
        assert_agrees(reverse_conjugate(g, f.grid).values_array, slopes, g.values_array, x)


def test_transform_memory_is_linear():
    # the whole 4000 x 4000 pairing would take 128 MB per temporary, at
    # values near the float range as at scale 1
    x = np.linspace(-5.0, 5.0, 4000)
    dual = Grid(np.linspace(-9.0, 9.0, 4000))
    for size in (1.0, 1e306):
        f = SampledFunction(Grid(x), (np.cos(3 * x) + x**2) * size, Space.PRIMAL)
        tracemalloc.start()
        try:
            conjugate(f, dual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


def test_envelope_against_hull_oracle_and_brute_force():
    # criterion 6's comparison with the brute-force biconjugate as a third
    # leg, so that the kernel's hull never vouches for itself
    rng = random.Random(616)
    for i in range(40):
        n = 150 if i < 3 else rng.randint(2, 150)
        xs = sorted(rng.sample(range(-200, 201), n))
        grid = Grid(tuple(x * 0.05 for x in xs))
        f = SampledFunction(grid, [rng.randint(-40, 40) * 0.25 for _ in range(n)], Space.PRIMAL)
        dual = default_dual_grid(f)
        envelope = biconjugate(f, dual).values_array
        assert np.max(np.abs(envelope - exact_hull(f))) <= 1e-9
        # the reverse pass works on conjugate values up to max|k| * max|x| + max|f|
        bound = 2 * TRANSFORM_RTOL * scale(grid.as_array, f.values_array, dual.as_array)
        assert np.max(np.abs(envelope - brute_biconjugate(f, dual))) <= bound


def test_subnormal_turns_are_not_collinear():
    # products of differences of 5e-324 underflow to 0 unless the kernel
    # scales them up; the middle point is a vertex and attains the maximum
    f = SampledFunction(Grid((-5e-324, 0.0, 5e-324)), [0.0, -5e-324, 0.0], Space.PRIMAL)
    assert conjugate(f, Grid((0.0,))).values_array.tolist() == [5e-324]
    g = SampledFunction(Grid((-5e-324, 0.0, 5e-324)), [0.0, -5e-324, 0.0], Space.DUAL)
    assert reverse_conjugate(g, Grid((0.0,))).values_array.tolist() == [5e-324]


def test_slopes_that_underflow_tie_every_vertex_between_them():
    # both edges' slopes, about -1e-330, round to -0.0, which equals the
    # query 0; the maximum, 0, is at the last vertex, two past the first
    for space, transform in ((Space.PRIMAL, conjugate), (Space.DUAL, reverse_conjugate)):
        f = SampledFunction(Grid((0.0, 1e300, 2e300)), [2e-30, 0.9e-30, 0.0], space)
        assert transform(f, Grid((0.0,))).values_array.tolist() == [0.0]


@settings(max_examples=400, deadline=None)
@given(sampled(Space.PRIMAL, MODULE_COORD, MODULE_VALUE), grids(MODULE_COORD), MODULE_VALUE)
def test_conjugating_a_shift_up_by_a_shifts_down_by_a(f, dual, a):
    shifted = cvx_scale(LimitKind.TENSOR, ext.from_float(a), f)
    got = conjugate(shifted, dual).values_array
    want = residuate_each(ext.from_float(a), conjugate(f, dual)).values_array
    values = np.concatenate([f.values_array, shifted.values_array])
    assert_within(got, want, TRANSFORM_RTOL * scale(f.grid.as_array, values, dual.as_array))


@settings(max_examples=400, deadline=None)
@given(families(), grids(MODULE_COORD))
def test_conjugating_an_infimum_gives_the_supremum_of_the_conjugates(fs, dual):
    got = conjugate(pointwise_inf(fs), dual).values_array
    want = pointwise_meet([conjugate(f, dual) for f in fs]).values_array
    values = np.concatenate([f.values_array for f in fs])
    assert_within(got, want, TRANSFORM_RTOL * scale(fs[0].grid.as_array, values, dual.as_array))


def primal(xs, vals):
    return SampledFunction(Grid(xs), vals, Space.PRIMAL)


def assert_hull_verb_exact(f: SampledFunction, path: str) -> None:
    """The ``hull`` verb on f, written to path, gives the exact hull within
    HULL_RTOL times the largest finite |f(x)|, or 5e-324."""
    Path(path).write_text(render_function_csv(f))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["hull", path]) == 0
    got = parse_function_csv(out.getvalue())
    assert got.grid == f.grid
    finite = f.values_array[np.isfinite(f.values_array)]
    scale = float(np.abs(finite).max()) if len(finite) else 0.0
    assert_within(got.values_array, exact_hull(f), max(HULL_RTOL * scale, 5e-324))


def test_hull_verb_matches_the_exact_hull():
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "f.csv")

        @settings(max_examples=600, deadline=None)
        @given(st.one_of(sampled(Space.PRIMAL), near_lines()))
        # a slope that overflows, a run that overflows, turns that underflow,
        # and abscissae that a scale-down would merge
        @example(primal([-5e-324, 0.0, 5e-324], [1e308, 1e308, -1e308]))
        @example(primal([-1.7e308, 0.0, 1.7e308], [0.0, 5.0, 1.0]))
        @example(primal([-1e-200, 0.0, 1e-200], [0.0, -1e-200, 0.0]))
        @example(primal([-5e-324, 0.0, 1.7e308], [-1.75, -10.0, -9.0]))
        @example(primal([-5e-324, 0.0, 5e-324, 5.5, 6.5, 1.7e308], [6.5, 0.0, 0.0, -27.875, 0.0, -2.75]))
        # subnormal and huge abscissae together, which no scaling of the x axis
        # keeps exact: a hull that scaled each axis only where that is lossless
        # was 0.63, 0.83 and 0.58 times max|f| off on these
        @example(primal([-1.7e308, -4.25, -5e-324, 5.0, 1e308], [-7.75, -7.25, -5.75, -2.5, 0.75]))
        @example(primal([-1e308, -9.0, -5e-324, 1e-200, 3.5, 1e308], [-10.0, -4.75, -9.75, -5e-324, 8.75, 7.0]))
        @example(
            primal(
                [-1.7e308, -9.25, -6.75, -6.25, -5.0, -2.25, -2.0, -1.0, 0.0, 2.75],
                [1.5, 7.0, -4.75, -2.5, -4.75, 1e-200, -2.75, -1.7e308, -0.75, 1e308],
            )
        )
        def check(f):
            assert_hull_verb_exact(f, path)

        check()


# The sweep's pools: the edge and lattice pools, and magnitudes between them.
SWEEP_POOLS = (EDGE, LATTICE, [1e-200, -1e-200, 1e6, -1e6, 1e-6, 3e150, -2.5e200])
# 20,000 inputs measured the hull verb at most 2.7e-16 * max|f| off the
# exact hull, and the transforms at most 2.1e-16 times each query's scale
# off the exact transform, or one step of 5e-324 where a product is subnormal.
SWEEP_INPUTS = 1000


def sweep_function(rng: random.Random, space: Space) -> SampledFunction:
    """1-12 distinct abscissae, each drawn from one of the sweep's pools; a
    value is +inf or -inf one time in five, a pool coordinate otherwise."""
    xs = sorted({rng.choice(rng.choice(SWEEP_POOLS)) for _ in range(rng.randint(1, 12))})
    vals = [rng.choice([math.inf, -math.inf]) if rng.random() < 0.2 else rng.choice(rng.choice(SWEEP_POOLS)) for _ in xs]
    return SampledFunction(Grid(xs), vals, space)


def test_sweep_against_the_exact_hull_and_transform():
    # The transforms within TRANSFORM_RTOL times each query's scale, or 5e-324.
    rng = random.Random(22)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "f.csv")
        for _ in range(SWEEP_INPUTS):
            f, g = sweep_function(rng, Space.PRIMAL), sweep_function(rng, Space.DUAL)
            assert_hull_verb_exact(f, path)
            for h, queries, got in ((f, g.grid, conjugate(f, g.grid)), (g, f.grid, reverse_conjugate(g, f.grid))):
                points, values, qs = h.grid.as_array, h.values_array, queries.as_array
                want = exact_transform(points, values, qs)
                bound = transform_bounds(points, values, qs, TRANSFORM_RTOL)
                assert_within(got.values_array, want, bound)


def test_the_bench_shapes_stay_on_the_vectorised_path(monkeypatch):
    # The exact retake runs the chain on Python ints, orders of magnitude
    # slower; none of these shapes needs it.  A 2,720-row regular grid with
    # the bench's slope grid, the auto envelope of a 175-row irregular grid,
    # lattice lines moved by 1e-15, and the subnormal three-point function.
    def refuse(coords):
        raise AssertionError("exact retake")

    monkeypatch.setattr(legendre, "_exact_units", refuse)
    x = -5.0 + np.arange(2720) * (10.0 / 2719)
    cases = [(primal(x, 0.4 * x**2 + np.cos(2.5 * x)), Grid.from_range(-3.225, 3.225, 0.05))]
    rng = np.random.default_rng(175)
    x = np.sort(rng.choice(8001, size=175, replace=False)) * 0.00125 - 5.0
    auto = [primal(x, 0.6 * x**2 + 1.2 * np.sin(2.5 * x + 1.0) + rng.normal(0.0, 0.1, 175))]
    lines = random.Random(15)
    for _ in range(20):
        xs = sorted(lines.sample(LATTICE, lines.randint(3, 40)))
        slope, icept = lines.choice(LATTICE), lines.choice(LATTICE)
        line = [slope * p + icept for p in xs]
        auto.append(primal(xs, [v + lines.randint(-4, 4) * 1e-15 * (1 + abs(v)) for v in line]))
    auto.append(primal([-5e-324, 0.0, 5e-324], [0.0, -5e-324, 0.0]))
    for f, dual in cases + [(f, default_dual_grid(f)) for f in auto]:
        conjugate(f, dual)
        biconjugate(f, dual)
        convex_hull_oracle(f)


def test_a_vertex_beside_a_rounded_turn_is_kept():
    # (-5e-324, -2) is a vertex, but its turn against (-0.75, 3.0625) and
    # (0, -2) rounds to 0; (0, -2) lies just above the chord from it to
    # (1.75, -8.75).  Dropped in one pass, the two took the hull 3 above
    # the samples at x = 0, and the conjugate at k = -5 to 0 instead of 2.
    xs = [-2.75, -0.75, -5e-324, 0.0, 1.75, 3.25, 10.0]
    f = SampledFunction(Grid(xs), [16.5625, 3.0625, -2.0, -2.0, -8.75, -6.0, 8.5], Space.PRIMAL)
    assert convex_hull_oracle(f).values_array.tolist() == exact_hull(f).tolist()
    assert exact_hull(f)[2:4].tolist() == [-2.0, -2.0]
    dual = Grid((-5.0,))
    assert conjugate(f, dual).values_array.tolist() == brute(f.grid.as_array, f.values_array, dual.as_array).tolist()
    assert conjugate(f, dual).values_array.tolist() == [2.0]


def test_a_steep_short_edge_stays_on_the_float_path(monkeypatch):
    # The edge from (0, 1) to (1e-320, 0) is so steep that its slope
    # overflows on the kernel's scaled coordinates, and the sample at 5e-321
    # lies above it.  Its share of the run stays in [0, 1], so the kernel's
    # check of its float hull holds and nothing is retaken on exact ints.
    calls = []
    exact_units = legendre._exact_units
    monkeypatch.setattr(legendre, "_exact_units", lambda coords: calls.append(len(coords)) or exact_units(coords))
    run = np.arange(1.0, 51.0)
    f = primal(np.concatenate([[0.0, 5e-321, 1e-320], run]), np.concatenate([[1.0, 1.0, 0.0], (run - 26.5) ** 2 / 53]))
    with tempfile.TemporaryDirectory() as tmp:
        assert_hull_verb_exact(f, str(Path(tmp) / "f.csv"))
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(st.one_of(sampled(Space.PRIMAL), near_lines()))
# the first vertex and the last, each a tiny value at the end of a rise of
# about 1, which the rise times a share of 1 would round off; a lone finite
# sample; and a tiny vertex between values near 1e308
@example(primal([0.0, 1.0, 2.0], [1e-20, 1.0, 3.0]))
@example(primal([0.0, 1.0, 2.0], [3.0, 1.0, 1e-20]))
@example(primal([-1.0, 0.0, 1.0], [math.inf, 1e-300, math.inf]))
@example(primal([0.0, 1.0, 2.0], [1e308, 5e-324, 1.7e308]))
def test_hull_vertices_keep_their_own_samples(f):
    vals = f.values_array
    finite = np.flatnonzero(np.isfinite(vals))
    if (vals == -np.inf).any() or not len(finite):
        return
    vertices = finite[legendre._hull_vertices(f.grid.as_array[finite], vals[finite])]
    got = convex_hull_oracle(f).values_array[vertices]
    assert np.array_equal(got.view(np.uint64), vals[vertices].view(np.uint64))
