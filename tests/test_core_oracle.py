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

from nucleus import extreal as ext
from nucleus.core import (
    EXT_REAL,
    TRUTH,
    LimitKind,
    PresheafVector,
    Profunctor,
    Side,
    check_rspace_axioms,
    compose_profunctors,
    hom_distance,
    is_fixed,
    pointwise_join,
    pointwise_meet,
    pull,
    push,
    residuate_each,
    tensor_each,
    underlying_preorder,
)
from nucleus.extreal import NEG_INF, POS_INF, ZERO, ExtReal
from nucleus.legendre import (
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
    # products k*x overflow to +/-inf, as the scalar table saturates them
    rng = random.Random(53)
    coords = [-1.7e308, -1e308, -2.0, -5e-324, 0.0, 5e-324, 1.5, 1e308, 1.7e308]
    for _ in range(200):
        xs = Grid(tuple(sorted(rng.sample(coords, rng.randint(1, 5)))))
        ks = Grid(tuple(sorted(rng.sample(coords, rng.randint(1, 5)))))
        pairing = tuple(tuple(fin(x * k) for k in ks.points) for x in xs.points)
        f = vector(rng, EXT_REAL, len(xs))
        got = conjugate(SampledFunction(xs, f, Space.PRIMAL), ks)
        assert_matches(got.values, got.values_array, oracle_push(EXT_REAL, pairing, f), EXT_REAL)
        g = vector(rng, EXT_REAL, len(ks))
        got = reverse_conjugate(SampledFunction(ks, g, Space.DUAL), xs)
        assert_matches(got.values, got.values_array, oracle_pull(EXT_REAL, pairing, g), EXT_REAL)


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
