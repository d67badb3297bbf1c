"""The array core against a per-cell scalar oracle, and its boundary cases.

The oracle is the scalar formulation of push, pull, hom, compose, the
pointwise and scalar-action helpers and the r-space checks: one
``ExtReal`` or ``bool`` at a time, through ``ext.add``/``ext.sub`` and
the folds.  The array core must agree with it bit for bit: equal scalar
views, and encoded arrays equal as bit patterns, so the sign of zero
counts too.
"""

from __future__ import annotations

import math
import random
import warnings
from collections import namedtuple

import numpy as np
import pytest

from nucleus import core
from nucleus import extreal as ext
from nucleus.core import (
    EXT_REAL,
    TRUTH,
    LimitKind,
    PresheafVector,
    Profunctor,
    Side,
    check_rspace_axioms,
    closure,
    compose_profunctors,
    hom_distance,
    is_fixed,
    nucleus_limit,
    pointwise_join,
    pointwise_meet,
    pull,
    push,
    residuate_each,
    tensor_each,
    underlying_preorder,
)
from nucleus.extreal import NEG_INF, POS_INF, ZERO, ExtReal
from nucleus.galois import Context
from nucleus.legendre import (
    TRANSFORM_RTOL,
    Grid,
    SampledFunction,
    Space,
    climb_distance,
    conjugate,
    cvx_scale,
    fall_distance,
    pointwise_inf,
    pointwise_sup,
    reverse_conjugate,
)

from hull_oracle import exact_transform, transform_bounds

fin = ext.finite

# ---------------------------------------------------------------------------
# Scalar oracle

Scalar = namedtuple("Scalar", "join meet tensor residuate")
SCALAR = {
    TRUTH: Scalar(any, all, lambda a, b: a and b, lambda b, c: (not b) or c),
    EXT_REAL: Scalar(ext.fold_inf, ext.fold_sup, ext.add, lambda b, c: ext.sub(c, b)),
}


def oracle_push(q, m, p):
    s = SCALAR[q]
    return tuple(
        s.meet(s.residuate(p[a], m[a][b]) for a in range(len(m))) for b in range(len(m[0]))
    )


def oracle_pull(q, m, v):
    s = SCALAR[q]
    return tuple(
        s.meet(s.residuate(v[b], m[a][b]) for b in range(len(m[0]))) for a in range(len(m))
    )


def oracle_hom(q, side, f1, f2):
    s = SCALAR[q]
    if side is Side.PRE:
        return s.meet(s.residuate(a, b) for a, b in zip(f1, f2))
    return s.meet(s.residuate(b, a) for a, b in zip(f1, f2))


def oracle_compose(q, first, second):
    s = SCALAR[q]
    return tuple(
        tuple(
            s.join(s.tensor(first[a][b], second[b][c]) for b in range(len(second)))
            for c in range(len(second[0]))
        )
        for a in range(len(first))
    )


def oracle_rspace(d):
    n = len(d)
    diag = tuple((i, d[i][i]) for i in range(n) if d[i][i] not in (ZERO, NEG_INF))
    tri = tuple(
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if ext.compare(ext.add(d[i][j], d[j][k]), d[i][k]) < 0
    )
    return diag, tri


def oracle_preorder(d):
    return tuple(tuple(ZERO >= cell for cell in row) for row in d)


# ---------------------------------------------------------------------------
# Comparison and inputs

def bits(arr):
    arr = np.asarray(arr)
    return arr.view(np.uint64) if arr.dtype == np.float64 else arr


def assert_matches(got_view, got_array, want, q):
    """Scalar views equal, and the encoded array bit-identical to the
    encoding of the oracle's scalars."""
    assert got_view == want
    flat = np.ravel(np.array(want, dtype=object))
    expected = q.encode(list(flat)).reshape(got_array.shape)
    assert np.array_equal(bits(got_array), bits(expected))


EXTREME = [
    NEG_INF, POS_INF, ZERO,
    fin(1e308), fin(-1e308), fin(5e-324), fin(-5e-324),
    fin(1.5), fin(-2.0), fin(1.7976931348623157e308),
]


def cell(rng, q):
    return rng.choice(EXTREME) if q is EXT_REAL else rng.random() < 0.5


def matrix(rng, q, rows, cols):
    return tuple(tuple(cell(rng, q) for _ in range(cols)) for _ in range(rows))


def vector(rng, q, n):
    return tuple(cell(rng, q) for _ in range(n))


# EXTREME's cells with both signs, -0.0 among them: a SampledFunction
# reads raw floats, so it meets the negative zero that no ExtReal holds.
SIGNED = [c for v in EXTREME for c in (v.to_float(), -v.to_float())]


def sampled(rng, n, space=Space.PRIMAL):
    """A function of SIGNED cells on the grid 0..n-1, and the scalars the oracle reads."""
    cells = [rng.choice(SIGNED) for _ in range(n)]
    return SampledFunction(Grid(range(n)), cells, space), tuple(map(ext.from_float, cells))


QUANTALES = pytest.mark.parametrize("q", [TRUTH, EXT_REAL], ids=["truth", "extreal"])


# ---------------------------------------------------------------------------
# Differential tests

@QUANTALES
def test_push_pull_match_oracle(q):
    rng = random.Random(31)
    for _ in range(400):
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        m = matrix(rng, q, na, nb)
        prof = Profunctor(m, q)
        p, v = vector(rng, q, na), vector(rng, q, nb)
        pushed = push(prof, PresheafVector(p, Side.PRE, q))
        assert_matches(pushed.values, pushed.values_array, oracle_push(q, m, p), q)
        pulled = pull(prof, PresheafVector(v, Side.OPCO, q))
        assert_matches(pulled.values, pulled.values_array, oracle_pull(q, m, v), q)


@QUANTALES
def test_hom_distance_matches_oracle(q):
    rng = random.Random(37)
    convex = random.Random(38)  # its own stream, so the draws above stay as they were
    for _ in range(400):
        n = rng.randint(1, 5)
        side = rng.choice(list(Side))
        f1, f2 = vector(rng, q, n), vector(rng, q, n)
        got = hom_distance(PresheafVector(f1, side, q), PresheafVector(f2, side, q))
        want = oracle_hom(q, side, f1, f2)
        assert type(got) is type(want) and got == want
        if q is EXT_REAL and got.is_finite:
            assert math.copysign(1.0, got.value) == math.copysign(1.0, want.value)
        if q is EXT_REAL:
            # climb and fall are the homs on the PRE and OPCO sides
            for space, side, distance in (
                (Space.PRIMAL, Side.PRE, climb_distance), (Space.DUAL, Side.OPCO, fall_distance)
            ):
                (g1, s1), (g2, s2) = sampled(convex, n, space), sampled(convex, n, space)
                got, want = distance(g1, g2), oracle_hom(q, side, s1, s2)
                assert type(got) is ExtReal and got == want
                assert math.copysign(1.0, got.to_float()) == math.copysign(1.0, want.to_float())


@QUANTALES
def test_compose_matches_oracle(q):
    rng = random.Random(41)
    for _ in range(300):
        na, nb, nc = (rng.randint(1, 5) for _ in range(3))
        first, second = matrix(rng, q, na, nb), matrix(rng, q, nb, nc)
        got = compose_profunctors(Profunctor(first, q), Profunctor(second, q))
        assert_matches(got.entries, got.entries_array, oracle_compose(q, first, second), q)


@QUANTALES
def test_pointwise_and_scalar_actions_match_oracle(q):
    s = SCALAR[q]
    rng = random.Random(43)
    convex = random.Random(44)  # its own stream, so the draws above stay as they were
    for _ in range(300):
        n = rng.randint(1, 5)
        side = rng.choice(list(Side))
        rows = [vector(rng, q, n) for _ in range(rng.randint(1, 4))]
        vecs = [PresheafVector(r, side, q) for r in rows]
        for op, fold in ((pointwise_meet, s.meet), (pointwise_join, s.join)):
            got = op(vecs)
            want = tuple(fold(r[i] for r in rows) for i in range(n))
            assert_matches(got.values, got.values_array, want, q)
        a = cell(rng, q)
        got = tensor_each(a, vecs[0])
        assert_matches(got.values, got.values_array, tuple(s.tensor(a, v) for v in rows[0]), q)
        got = residuate_each(a, vecs[0])
        assert_matches(got.values, got.values_array, tuple(s.residuate(a, v) for v in rows[0]), q)
        if q is EXT_REAL:
            # sup and inf of sampled functions are the meet and join; the
            # tropical actions are the tensor and the residuation
            family = [sampled(convex, n) for _ in range(convex.randint(1, 4))]
            fs, cells = [f for f, _ in family], [c for _, c in family]
            for op, fold in ((pointwise_sup, s.meet), (pointwise_inf, s.join)):
                got = op(fs)
                assert_matches(got.values, got.values_array, tuple(fold(c[i] for c in cells) for i in range(n)), q)
                got = op([], fs[0].grid)
                assert_matches(got.values, got.values_array, (fold(()),) * n, q)
            a = ext.from_float(convex.choice(SIGNED))
            for kind, act in ((LimitKind.TENSOR, s.tensor), (LimitKind.COTENSOR, s.residuate)):
                got = cvx_scale(kind, a, fs[0])
                assert_matches(got.values, got.values_array, tuple(act(a, v) for v in cells[0]), q)


def test_rspace_checks_match_oracle():
    rng = random.Random(47)
    for _ in range(400):
        n = rng.randint(1, 5)
        d = matrix(rng, EXT_REAL, n, n)
        report = check_rspace_axioms(d)
        diag, tri = oracle_rspace(d)
        # the triangle violations stay in lexicographic order
        assert report.diagonal_violations == diag
        assert report.triangle_violations == tri
        assert report.ok is (not diag and not tri)
        assert all(type(i) is int for t in report.triangle_violations for i in t)
        assert all(type(i) is int and isinstance(v, ext.ExtReal) for i, v in report.diagonal_violations)
        assert underlying_preorder(d) == oracle_preorder(d)


def test_transforms_match_oracle_beyond_the_float_range():
    # products k*x leave the float range; the exact transform takes them
    # whole: infinite tags exactly, finite values within TRANSFORM_RTOL
    # times each query's scale, or 5e-324
    rng = random.Random(53)
    coords = [-1.7e308, -1e308, -2.0, -5e-324, 0.0, 5e-324, 1.5, 1e308, 1.7e308]
    for _ in range(200):
        xs = Grid(tuple(sorted(rng.sample(coords, rng.randint(1, 5)))))
        ks = Grid(tuple(sorted(rng.sample(coords, rng.randint(1, 5)))))
        sides = ((xs, ks, Space.PRIMAL, conjugate), (ks, xs, Space.DUAL, reverse_conjugate))
        for points, queries, space, transform in sides:
            f = np.array([v.to_float() for v in vector(rng, EXT_REAL, len(points))])
            got = transform(SampledFunction(points, f, space), queries).values_array
            p, q = points.as_array, queries.as_array
            want = exact_transform(p, f, q)
            assert np.array_equal(np.isposinf(got), np.isposinf(want))
            assert np.array_equal(np.isneginf(got), np.isneginf(want))
            both = np.isfinite(want)
            assert np.all(np.abs(got[both] - want[both]) <= transform_bounds(p, f, q, TRANSFORM_RTOL)[both])


@QUANTALES
def test_compose_in_row_blocks_matches_oracle(q, monkeypatch):
    """A cell budget of a few rows splits each product into several blocks
    of rows and a ragged last one; a cell whose every term is
    +inf (x) -inf saturates to +inf whichever block holds it."""
    rng = random.Random(59)
    for _ in range(60):
        na, nb, nc = rng.randint(5, 9), rng.randint(1, 4), rng.randint(1, 4)
        step = rng.choice([k for k in range(2, na) if na % k])  # rows a block, the last block shorter
        monkeypatch.setattr(core, "COMPOSE_BLOCK_CELLS", step * nb * nc + rng.randrange(nb * nc))
        first, second = matrix(rng, q, na, nb), matrix(rng, q, nb, nc)
        if q is EXT_REAL:
            a = rng.randrange(na)
            first = first[:a] + ((POS_INF,) * nb,) + first[a + 1:]
            second = second[:-1] + ((NEG_INF,) * nc,)
            second = tuple(((NEG_INF,) + row[1:]) for row in second)
        got = compose_profunctors(Profunctor(first, q), Profunctor(second, q))
        assert_matches(got.entries, got.entries_array, oracle_compose(q, first, second), q)
        if q is EXT_REAL:
            assert got.entries[a][0] == POS_INF


# Cells whose sums and differences are exact, so that closures are fixed pairs.
EXACT = [NEG_INF, POS_INF, ZERO, fin(1.5), fin(-2.0), fin(3.0)]


def _fixed_pairs(rng, prof, count):
    q = prof.quantale
    pairs = []
    for _ in range(count):
        values = [rng.choice(EXACT) if q is EXT_REAL else rng.random() < 0.5 for _ in range(prof.domain_size)]
        p = closure(prof, PresheafVector(values, Side.PRE, q))
        pairs.append((p, push(prof, p)))
    return pairs


def _limit(kind):
    def run(rng, prof, pre, opco, scalar):
        pairs = _fixed_pairs(rng, prof, 1 if kind in (LimitKind.TENSOR, LimitKind.COTENSOR) else 3)
        ins = [v for pair in pairs for v in pair]
        return ins, nucleus_limit(prof, kind, pairs, scalar if len(pairs) == 1 else None)
    return run


def _composed(rng, m):
    q = m.quantale
    before, after = (Profunctor(matrix(rng, q, *shape), q) for shape in ((2, m.domain_size), (m.codomain_size, 3)))
    return [before, m, after], [compose_profunctors(before, m), compose_profunctors(m, after)]


# Each core operation whose result wraps the array its kernel computed:
# (inputs it read, results) from a profunctor, a PRE and an OPCO vector
# and a scalar.
WRAPPED = {
    "push": lambda rng, m, p, v, a: ([m, p], [push(m, p)]),
    "pull": lambda rng, m, p, v, a: ([m, v], [pull(m, v)]),
    "closure": lambda rng, m, p, v, a: ([m, p, v], [closure(m, p), closure(m, v)]),
    "pointwise_meet": lambda rng, m, p, v, a: ([p], [pointwise_meet([p]), pointwise_meet([p, closure(m, p)])]),
    "pointwise_join": lambda rng, m, p, v, a: ([p], [pointwise_join([p]), pointwise_join([p, closure(m, p)])]),
    "tensor_each": lambda rng, m, p, v, a: ([p], [tensor_each(a, p)]),
    "residuate_each": lambda rng, m, p, v, a: ([p], [residuate_each(a, p)]),
    "compose": lambda rng, m, p, v, a: _composed(rng, m),
    **{f"limit_{kind.value}": _limit(kind) for kind in LimitKind},
}


@pytest.mark.parametrize("op", WRAPPED)
@QUANTALES
def test_core_results_are_read_only_fresh_and_canonical(q, op):
    """What core computes is kept as it is, without a second encode: each
    result's array is read-only, shares no memory with an input, and is
    bit for bit the encoding of its own scalar view."""
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 5)
        cells = EXACT if op.startswith("limit") else EXTREME
        m = Profunctor([[rng.choice(cells) if q is EXT_REAL else rng.random() < 0.5 for _ in range(n)]
                        for _ in range(rng.randint(1, 5))], q)
        p = PresheafVector(vector(rng, q, m.domain_size), Side.PRE, q)
        v = PresheafVector(vector(rng, q, n), Side.OPCO, q)
        inputs, results = WRAPPED[op](rng, m, p, v, cell(rng, q))
        arrays = [getattr(x, "entries_array", getattr(x, "values_array", None)) for x in inputs]
        for r in results:
            if isinstance(r, Profunctor):
                arr, want = r.entries_array, q.encode(r.entries, ndim=2)
            else:
                arr, want = r.values_array, q.encode(r.values)
            assert not arr.flags.writeable
            assert not any(np.shares_memory(arr, x) for x in arrays)
            assert arr.dtype == want.dtype and np.array_equal(bits(arr), bits(want))


def test_to_profunctor_shares_the_contexts_read_only_array():
    rng = random.Random(67)
    for n, m in ((1, 1), (3, 70), (70, 3), (6, 6)):
        ctx = Context([f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], np.array(
            [[rng.random() < 0.5 for _ in range(m)] for _ in range(n)]))
        for c in (ctx, ctx.T):
            prof = c.to_profunctor()
            assert prof.entries_array is c.incidence_array and not prof.entries_array.flags.writeable
            assert (prof.domain, prof.codomain) == (c.objects, c.attributes)
            assert prof == Profunctor(c.incidence, TRUTH, c.objects, c.attributes)
            assert np.array_equal(prof.entries_array, TRUTH.encode(prof.entries, ndim=2))
    for empty in (Context((), ("a",), ()), Context(("g",), (), ((),))):
        with pytest.raises(ValueError, match="at least one row and one column"):
            empty.to_profunctor()


def test_compose_at_the_float_range_is_silent():
    first = Profunctor(((fin(1e308), fin(-1e308)),), EXT_REAL)
    second = Profunctor(((fin(1e308),), (fin(-1e308),)), EXT_REAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compose_profunctors(first, second)
    # 1e308 + 1e308 saturates to +inf, -1e308 - 1e308 to -inf; join is min
    assert got.entries == ((NEG_INF,),)
    assert got.entries == oracle_compose(EXT_REAL, first.entries, second.entries)


# ---------------------------------------------------------------------------
# Boundary cases

def test_wrong_scalar_type_is_a_type_error():
    with pytest.raises(TypeError):
        Profunctor(((1.5,),), EXT_REAL)
    with pytest.raises(TypeError):
        PresheafVector((ZERO, 0.0), Side.PRE, EXT_REAL)
    with pytest.raises(TypeError):
        Profunctor(((True, 1),), TRUTH)
    with pytest.raises(TypeError):
        PresheafVector((1,), Side.OPCO, TRUTH)
    with pytest.raises(TypeError):
        Profunctor(np.zeros((1, 1)), TRUTH)
    with pytest.raises(TypeError):
        tensor_each(1.0, PresheafVector((ZERO,), Side.PRE, EXT_REAL))
    with pytest.raises(TypeError):
        check_rspace_axioms(((0.0,),))


def test_ragged_or_empty_matrices_are_value_errors():
    for bad in ((), ((),), ((ZERO,), (ZERO, ZERO))):
        with pytest.raises(ValueError):
            Profunctor(bad, EXT_REAL)
    with pytest.raises(ValueError):
        PresheafVector((), Side.PRE, TRUTH)
    with pytest.raises(ValueError):
        check_rspace_axioms(((ZERO, ZERO), (ZERO,)))
    with pytest.raises(ValueError):
        underlying_preorder(((ZERO,), (ZERO, ZERO)))


def test_empty_families_are_value_errors():
    for fold in (pointwise_meet, pointwise_join):
        with pytest.raises(ValueError, match="empty family"):
            fold([])


def test_empty_distance_matrix():
    report = check_rspace_axioms(())
    assert report.ok and report.diagonal_violations == () and report.triangle_violations == ()
    assert underlying_preorder(()) == ()


def test_infinite_tolerance_still_matches_tags():
    # closure of (0, +inf) is (0, 0): a finite value against +inf
    m = Profunctor(((ZERO,), (ZERO,)), EXT_REAL)
    p = PresheafVector((ZERO, POS_INF), Side.PRE, EXT_REAL)
    assert not is_fixed(m, p, tol=math.inf)
    assert is_fixed(m, PresheafVector((ZERO, fin(3.0)), Side.PRE, EXT_REAL), tol=math.inf)
    inf, big = np.array([np.inf]), np.array([1e308])
    assert not ext.approx_equal_arrays(inf, np.array([1.0]), math.inf)
    assert not ext.approx_equal_arrays(big, -big, 1e-9)
    assert ext.approx_equal_arrays(big, -big, math.inf)
    assert ext.approx_equal_arrays(-inf, -inf, 0.0)


def test_encoded_arrays_are_canonical_read_only_copies():
    raw = np.array([-0.0, 1.0])
    v = PresheafVector(raw, Side.PRE, EXT_REAL)
    raw[1] = 5.0
    assert v.values == (ZERO, fin(1.0))
    assert not np.signbit(v.values_array).any()
    assert not v.values_array.flags.writeable
    with pytest.raises(ValueError):
        PresheafVector(np.array([np.nan]), Side.PRE, EXT_REAL)
