"""Acceptance criteria, one test per criterion.

Each test prints a ``criterion N ... PASS`` line on success (visible
with ``pytest -s``); tolerances and budgets are asserted inline.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

from nucleus import extreal as ext
from nucleus.core import (
    EXT_REAL,
    Profunctor,
    compose_profunctors,
    identity_profunctor,
)
from nucleus.extreal import NEG_INF, POS_INF, ZERO
from nucleus.galois import Context, enumerate_concepts
from nucleus.legendre import (
    CheckStatus,
    Grid,
    LimitKind,
    SampledFunction,
    Space,
    biconjugate,
    check_lf_adjunction,
    check_toland_singer,
    climb_distance,
    conjugate,
    cvx_scale,
    default_dual_grid,
    fall_distance,
    pointwise_inf,
    pointwise_sup,
)

from hull_oracle import exact_hull

fin = ext.finite


def sample(grid, fn):
    return SampledFunction(grid, [fn(x) for x in grid.points], Space.PRIMAL)


def lattice_function(rng, grid, inf_share=0.0):
    vals = []
    for _ in grid.points:
        r = rng.random()
        if r < inf_share / 2:
            vals.append(NEG_INF)
        elif r < inf_share:
            vals.append(POS_INF)
        else:
            vals.append(fin(rng.randint(-40, 40) / 4.0))
    return SampledFunction(grid, vals, Space.PRIMAL)


def test_criterion_01_arithmetic_tables():
    n, p = NEG_INF, POS_INF
    s, t = fin(5.0), fin(3.0)
    add_cells = [
        (n, n, n), (n, t, n), (n, p, p),
        (s, n, n), (s, t, fin(8.0)), (s, p, p),
        (p, n, p), (p, t, p), (p, p, p),
    ]
    sub_cells = [
        (n, n, n), (n, t, n), (n, p, n),
        (s, n, p), (s, t, fin(2.0)), (s, p, n),
        (p, n, p), (p, t, p), (p, p, n),
    ]
    start = time.perf_counter()
    results = [ext.add(a, b) for a, b, _ in add_cells] + [
        ext.sub(a, b) for a, b, _ in sub_cells
    ]
    elapsed = time.perf_counter() - start
    for got, (_, _, want) in zip(results, add_cells + sub_cells):
        assert got == want
    assert ext.add(POS_INF, NEG_INF) == POS_INF
    assert ext.sub(POS_INF, POS_INF) == NEG_INF
    assert elapsed < 1e-3
    print(f"criterion 1 (arithmetic tables, 18 cells, {elapsed * 1e6:.0f} us): PASS")


def test_criterion_02_residuation_adjunction():
    alphabet = (NEG_INF, fin(-1.0), ZERO, fin(1.0), POS_INF)
    triples = list(itertools.product(alphabet, repeat=3))
    start = time.perf_counter()
    ok = all(
        (ext.add(a, b) >= c) == (a >= ext.sub(c, b)) for a, b, c in triples
    )
    elapsed = time.perf_counter() - start
    assert ok and len(triples) == 125
    assert elapsed < 1e-3
    print(f"criterion 2 (adjunction, 125 triples, {elapsed * 1e6:.0f} us): PASS")


def test_criterion_03_figure_reproduction():
    grid = Grid.from_range(-4.0, 6.0, 0.01)
    dual = Grid.from_range(-1.0, 1.0, 0.01)
    assert len(grid) == 1001 and len(dual) == 201
    f1 = sample(grid, abs)
    f2 = sample(grid, lambda x: abs(x - 2.0) - 1.0)
    start = time.perf_counter()
    d12 = climb_distance(f1, f2)
    d21 = climb_distance(f2, f1)
    g1 = conjugate(f1, dual)
    g2 = conjugate(f2, dual)
    e12 = fall_distance(g1, g2)
    e21 = fall_distance(g2, g1)
    elapsed = time.perf_counter() - start
    assert abs(d12.value - 1.0) <= 1e-9
    assert abs(d21.value - 3.0) <= 1e-9
    assert np.max(np.abs(g1.values_array)) <= 0.02
    closed_form = 2.0 * dual.as_array + 1.0
    assert np.max(np.abs(g2.values_array - closed_form)) <= 0.02
    assert abs(e12.value - 1.0) <= 0.02
    assert abs(e21.value - 3.0) <= 0.02
    assert elapsed < 5.0
    print(
        "criterion 3 (figure values: climbs "
        f"{d12.value:g}/{d21.value:g}, falls {e12.value:g}/{e21.value:g}, "
        f"{elapsed:.2f} s): PASS"
    )


GRID4 = Grid.from_range(-5.0, 5.0, 0.05)
DUAL4 = Grid.from_range(-2.0, 2.0, 0.05)


def random_convex_pwa(rng):
    pieces = rng.randint(1, 5)
    slopes = rng.sample(DUAL4.points, pieces)
    intercepts = [rng.randint(-20, 20) / 4.0 for _ in range(pieces)]
    x = GRID4.as_array
    vals = np.max([s * x + b for s, b in zip(slopes, intercepts)], axis=0)
    return SampledFunction(GRID4, vals, Space.PRIMAL)


def test_criterion_04_toland_singer():
    rng = random.Random(404)
    for _ in range(100):
        f1 = random_convex_pwa(rng)
        f2 = random_convex_pwa(rng)
        lhs = climb_distance(f1, f2)
        rhs = fall_distance(conjugate(f1, DUAL4), conjugate(f2, DUAL4))
        assert abs(lhs.value - rhs.value) <= 1e-9
        report = check_toland_singer(f1, f2, DUAL4)
        assert report.status is CheckStatus.OK and report.holds
    for _ in range(100):
        f1 = lattice_function(rng, GRID4)
        f2 = random_convex_pwa(rng)
        lhs = climb_distance(f1, f2)
        rhs = fall_distance(conjugate(f1, DUAL4), conjugate(f2, DUAL4))
        assert abs(lhs.value - rhs.value) <= 1e-9
    print("criterion 4 (distance preservation, 100 convex + 100 non-convex pairs): PASS")


def test_criterion_05_adjunction_identity():
    rng = random.Random(505)
    for _ in range(500):
        n, m = rng.randint(1, 12), rng.randint(1, 12)
        grid = Grid(tuple(sorted(rng.sample(range(-30, 31), n))))
        dualg = Grid(tuple(sorted(rng.sample(range(-20, 21), m))))
        f = lattice_function(rng, grid, inf_share=0.25)
        g = SampledFunction(
            dualg, lattice_function(rng, dualg, inf_share=0.25).values, Space.DUAL
        )
        report = check_lf_adjunction(f, g, tol=1e-12)
        assert report.lhs.tag == report.rhs.tag
        if report.lhs.is_finite:
            assert abs(report.lhs.value - report.rhs.value) <= 1e-12
        assert report.holds
    print("criterion 5 (adjunction identity, 500 mixed-infinity pairs): PASS")


@pytest.fixture(scope="module")
def hull_corpus():
    rng = random.Random(606)
    corpus = []
    for i in range(200):
        n = 201 if i < 5 else rng.randint(2, 201)
        xs = sorted(rng.sample(range(-200, 201), n))
        grid = Grid(tuple(x * 0.05 for x in xs))
        vals = [rng.randint(-40, 40) * 0.25 for _ in range(n)]
        corpus.append(SampledFunction(grid, vals, Space.PRIMAL))
    return corpus


def test_criterion_06_hull_oracle_equivalence(hull_corpus):
    start = time.perf_counter()
    worst = 0.0
    for f in hull_corpus:
        envelope = biconjugate(f, default_dual_grid(f))
        worst = max(worst, float(np.max(np.abs(envelope.values_array - exact_hull(f)))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(
        f"criterion 6 (envelope vs exact hull oracle, 200 functions, worst gap "
        f"{worst:.2e}, {elapsed:.2f} s): PASS"
    )


def test_criterion_07_closure_laws(hull_corpus):
    for f in hull_corpus:
        dual = default_dual_grid(f)
        once = biconjugate(f, dual)
        assert np.isfinite(once.values_array).all()  # finite input keeps finite tags
        assert np.all(once.values_array <= f.values_array + 1e-9)
        twice = biconjugate(once, dual)
        assert np.max(np.abs(twice.values_array - once.values_array)) <= 1e-9
    print("criterion 7 (closure laws on the same corpus): PASS")


@pytest.fixture(scope="module")
def random_contexts():
    rng = random.Random(808)
    out = []
    for i in range(50):
        if i < 20:
            n = m = 12
        else:
            n, m = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.uniform(0.2, 0.8)
        rows = tuple(
            tuple(rng.random() < density for _ in range(m)) for _ in range(n)
        )
        out.append(Context(
            tuple(f"g{i}" for i in range(n)),
            tuple(f"m{j}" for j in range(m)),
            rows,
        ))
    return out


def brute_force_extent_set(ctx):
    n = len(ctx.objects)
    return {ctx.close_extent_mask(s) for s in range(1 << n)}


def test_criterion_08_concept_enumeration(random_contexts):
    ident = Context.from_pairs(
        ("g1", "g2"), ("m1", "m2"), [("g1", "m1"), ("g2", "m2")]
    )
    assert len(enumerate_concepts(ident)) == 4
    worked = Context.from_pairs(
        ("1", "2", "3"), ("a", "b"), [("1", "a"), ("2", "a"), ("2", "b")]
    )
    assert len(enumerate_concepts(worked)) == 3

    start = time.perf_counter()
    lattices = [enumerate_concepts(ctx) for ctx in random_contexts]
    elapsed = time.perf_counter() - start
    total = 0
    for ctx, lat in zip(random_contexts, lattices):
        got = {ctx.object_mask(c.extent) for c in lat.concepts}
        assert len(got) == len(lat.concepts)
        assert got == brute_force_extent_set(ctx)
        total += len(got)
    assert elapsed < 2.0
    print(
        f"criterion 8 (enumeration vs brute force, 50 contexts, {total} concepts, "
        f"{elapsed:.2f} s): PASS"
    )


def test_criterion_09_lattice_formulas(random_contexts):
    for ctx in random_contexts:
        lat = enumerate_concepts(ctx)
        n = len(lat)
        masks = np.array([ctx.object_mask(c.extent) for c in lat.concepts], dtype=np.int64)
        index_of = np.full(1 << len(ctx.objects), -1, dtype=np.int64)
        index_of[masks] = np.arange(n)

        meet_idx = index_of[masks[:, None] & masks[None, :]]
        assert (meet_idx >= 0).all()  # intersections of extents are extents
        unions = masks[:, None] | masks[None, :]
        join_lut = np.full(1 << len(ctx.objects), -1, dtype=np.int64)
        for u in np.unique(unions):
            join_lut[u] = index_of[ctx.close_extent_mask(int(u))]
        join_idx = join_lut[unions]
        assert (join_idx >= 0).all()

        order = np.array([[lat.leq(i, j) for j in range(n)] for i in range(n)], dtype=bool)
        assert np.array_equal(order, (masks[:, None] & ~masks[None, :]) == 0)  # extent inclusion
        rows = np.arange(n)[:, None]
        cols = np.arange(n)[None, :]
        # the formula results are common lower/upper bounds...
        assert order[meet_idx, rows].all() and order[meet_idx, cols].all()
        assert order[rows, join_idx].all() and order[cols, join_idx].all()
        # ...and they exhaust all bounds, so they are the order inf/sup:
        # everything below the meet is a common lower bound, hence equality
        # of counts pins the meet as the greatest lower bound.
        counts = order.astype(np.int64)
        lower_counts = counts.T @ counts
        below_sizes = counts.sum(axis=0)
        assert (lower_counts == below_sizes[meet_idx]).all()
        upper_counts = counts @ counts.T
        above_sizes = counts.sum(axis=1)
        assert (upper_counts == above_sizes[join_idx]).all()
    print("criterion 9 (lattice meet/join match order-matrix inf/sup): PASS")


def test_criterion_10_tropical_laws():
    rng = random.Random(1010)
    grid = Grid(tuple(float(i) for i in range(-4, 5)))
    scalar_pool = [NEG_INF, POS_INF] + [fin(v / 4.0) for v in range(-16, 17)]
    for _ in range(100):
        f = lattice_function(rng, grid, inf_share=0.25)
        a, b = rng.choice(scalar_pool), rng.choice(scalar_pool)
        # (join, shift-up) module structure
        assert cvx_scale(LimitKind.TENSOR, ext.add(a, b), f) == cvx_scale(
            LimitKind.TENSOR, a, cvx_scale(LimitKind.TENSOR, b, f)
        )
        assert cvx_scale(LimitKind.TENSOR, ZERO, f) == f
        assert cvx_scale(LimitKind.TENSOR, ext.fold_inf([a, b]), f) == pointwise_inf(
            [cvx_scale(LimitKind.TENSOR, a, f), cvx_scale(LimitKind.TENSOR, b, f)]
        )
        # (meet, shift-down) module structure
        assert cvx_scale(LimitKind.COTENSOR, ext.add(a, b), f) == cvx_scale(
            LimitKind.COTENSOR, a, cvx_scale(LimitKind.COTENSOR, b, f)
        )
        assert cvx_scale(LimitKind.COTENSOR, ZERO, f) == f
        assert cvx_scale(LimitKind.COTENSOR, ext.fold_inf([a, b]), f) == pointwise_sup(
            [cvx_scale(LimitKind.COTENSOR, a, f), cvx_scale(LimitKind.COTENSOR, b, f)]
        )

    entry_pool = [NEG_INF, POS_INF] + [fin(float(v)) for v in range(-5, 6)]

    def rand_matrix():
        return Profunctor(
            tuple(tuple(rng.choice(entry_pool) for _ in range(4)) for _ in range(4)),
            EXT_REAL,
        )

    ident = identity_profunctor(4, EXT_REAL)
    for _ in range(60):
        a, b, c = rand_matrix(), rand_matrix(), rand_matrix()
        left = compose_profunctors(compose_profunctors(a, b), c)
        right = compose_profunctors(a, compose_profunctors(b, c))
        assert left.entries == right.entries
        assert compose_profunctors(a, ident).entries == a.entries
        assert compose_profunctors(ident, a).entries == a.entries
    print("criterion 10 (tropical module laws and min-plus composition): PASS")
