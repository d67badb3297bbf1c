"""The linear-time Legendre transform against the brute-force oracle, and
the paper's two tropical module structures under conjugation.

The oracle is the push and pull of ``core.adjoint_arrays`` on the whole
pairing k*x, which is how the transforms were computed before the kernel.
Infinite tags must match exactly.  Finite values must agree within
``TRANSFORM_RTOL`` times the scale ``max|k| * max|x| + max|f(x)|`` (finite
values only), and bit for bit on inputs the kernel hands to the brute
force: where ``max|k| * max|x|`` or the spread of the finite values times
the spread of their abscissae leaves the float range.  Conjugation turns
a shift up by a into a shift down by a, and the pointwise infimum of a
family into the pointwise supremum of the conjugates, within the same
bound, on inputs that stay inside the float range.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nucleus import extreal as ext
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
    pointwise_inf,
    reverse_conjugate,
)

EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7e308, -1.7e308]
LATTICE = [i / 4 for i in range(-40, 41)]
COORD = st.one_of(st.sampled_from(EDGE), st.sampled_from(LATTICE))
VALUE = st.one_of(st.sampled_from([math.inf, -math.inf]), COORD)
# mixed scales and subnormals, but no shift or transform leaves the float range
MODULE_COORD = st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, 1e6, -1e6, 1e-6]), st.sampled_from(LATTICE))
MODULE_VALUE = st.one_of(st.sampled_from([math.inf, -math.inf]), MODULE_COORD)


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


def handed_to_brute_force(points, values, queries) -> bool:
    fin = np.isfinite(values)
    px, pv = points[fin], values[fin]
    sx = float(px[-1]) - float(px[0]) if fin.any() else 0.0
    sv = float(pv.max()) - float(pv.min()) if fin.any() else 0.0
    return not (reach(points, queries) < math.inf and max(sx, 1.0) * max(sv, 1.0) < 2.0**1021)


def scale(points, values, queries) -> float:
    fin = np.isfinite(values)
    return reach(points, queries) + (float(np.abs(values[fin]).max()) if fin.any() else 0.0)


def assert_within(got, want, bound):
    """Infinite tags equal, finite values within the bound."""
    assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    both = np.isfinite(want)
    assert np.all(np.abs(got[both] - want[both]) <= bound)


def assert_agrees(got, points, values, queries):
    want = brute(points, values, queries) + 0.0  # sampled functions hold zero as +0.0
    if handed_to_brute_force(points, values, queries):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        return
    assert_within(got, want, TRANSFORM_RTOL * scale(points, values, queries))


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
@given(sampled(Space.PRIMAL), grids())
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
    # the whole 4000 x 4000 pairing would take 128 MB per temporary
    x = np.linspace(-5.0, 5.0, 4000)
    f = SampledFunction(Grid(x), np.cos(3 * x) + x**2, Space.PRIMAL)
    dual = Grid(np.linspace(-9.0, 9.0, 4000))
    tracemalloc.start()
    try:
        conjugate(f, dual)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_envelope_against_hull_oracle_and_brute_force():
    # criterion 6's comparison with the brute-force biconjugate as a third
    # leg, so that the kernel's hull and the oracle's chain never vouch for
    # each other alone
    rng = random.Random(616)
    for i in range(40):
        n = 150 if i < 3 else rng.randint(2, 150)
        xs = sorted(rng.sample(range(-200, 201), n))
        grid = Grid(tuple(x * 0.05 for x in xs))
        f = SampledFunction(grid, [rng.randint(-40, 40) * 0.25 for _ in range(n)], Space.PRIMAL)
        dual = default_dual_grid(f)
        envelope = biconjugate(f, dual).values_array
        assert np.max(np.abs(envelope - convex_hull_oracle(f).values_array)) <= 1e-9
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
