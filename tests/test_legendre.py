"""Transforms, distances, duality reports, hull oracle and tropical actions."""

from __future__ import annotations

import copy
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from nucleus import extreal as ext
from nucleus import legendre
from nucleus.core import (
    EXT_REAL,
    FormatError,
    LimitKind,
    PresheafVector,
    Side,
    SizeMismatchError,
    hom_distance,
    pointwise_meet,
)
from nucleus.extreal import NEG_INF, POS_INF, ZERO
from nucleus.legendre import (
    CheckStatus,
    Grid,
    Relation,
    SampledFunction,
    Space,
    biconjugate,
    check_lf_adjunction,
    check_short,
    check_toland_singer,
    climb_distance,
    conjugate,
    convex_hull_oracle,
    cvx_combine,
    cvx_scale,
    default_dual_grid,
    fall_distance,
    parse_function_csv,
    pointwise_inf,
    pointwise_sup,
    render_function_csv,
    reverse_conjugate,
)

fin = ext.finite


def primal(xs, vals):
    return SampledFunction(Grid(tuple(xs)), vals, Space.PRIMAL)


def dual_fn(ks, vals):
    return SampledFunction(Grid(tuple(ks)), vals, Space.DUAL)


def sample(grid, fn, space=Space.PRIMAL):
    return SampledFunction(grid, [fn(x) for x in grid.points], space)


# Scalar reference transform: the normative brute-force loop, written
# with the kernel operations only.
def ref_conjugate_values(f, dual):
    out = []
    for k in dual.points:
        terms = [
            ext.sub(ext.finite(k * x), v) for x, v in zip(f.grid.points, f.values)
        ]
        out.append(ext.fold_sup(terms))
    return tuple(out)


# Independent hull oracle: the lower hull value at x0 is the least value
# over all chords between finite sample points that straddle x0.
def chord_hull_values(f):
    if any(v.tag is ext.Tag.NEG_INF for v in f.values):
        return tuple(NEG_INF for _ in f.values)
    pts = [(x, v.value) for x, v in zip(f.grid.points, f.values) if v.is_finite]
    out = []
    for x0 in f.grid.points:
        best = math.inf
        for xi, vi in pts:
            for xj, vj in pts:
                if xi <= x0 <= xj:
                    if xi == xj:
                        cand = vi
                    else:
                        lam = (x0 - xi) / (xj - xi)
                        cand = vi + lam * (vj - vi)
                    best = min(best, cand)
        out.append(ext.finite(best) if math.isfinite(best) else POS_INF)
    return tuple(out)


def random_lattice_function(rng, grid, inf_share=0.0):
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


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(())
    with pytest.raises(ValueError):
        Grid((0.0, 0.0))
    with pytest.raises(ValueError):
        Grid((1.0, 0.0))
    with pytest.raises(ValueError):
        Grid((0.0, math.inf))
    assert Grid.from_range(0.0, 0.0, 1.0).points == (0.0,)
    assert Grid.from_range(-1.0, 1.0, 0.5).points == (-1.0, -0.5, 0.0, 0.5, 1.0)
    assert Grid.from_range(0.0, 2.7, 1.0).points == (0.0, 1.0, 2.0)
    assert len(Grid.from_range(-1.0, 1.0, 0.01)) == 201
    with pytest.raises(ValueError):
        Grid.from_range(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        Grid.from_range(0.0, 1.0, 0.0)


def test_sampled_function_basics():
    f = primal([0.0, 1.0], [ZERO, POS_INF])
    assert f.values == (ZERO, POS_INF)
    assert list(f.values_array) == [0.0, math.inf]
    assert f == primal([0.0, 1.0], [0.0, math.inf])
    with pytest.raises(ValueError):
        primal([0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        primal([0.0], [float("nan")])


def test_conjugate_examples():
    f = primal([-2.0, -1.0, 0.0, 1.0, 2.0], [4.0, 1.0, 0.0, 1.0, 4.0])
    got = conjugate(f, Grid((2.0,)))
    # brute-force max of {-8, -3, 0, 1, 0}
    assert got.values == (fin(1.0),)
    assert got.space is Space.DUAL
    const_inf = primal([0.0, 1.0], [POS_INF, POS_INF])
    assert conjugate(const_inf, Grid((0.0,))).values == (NEG_INF,)


def test_conjugate_matches_scalar_reference():
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randint(1, 9)
        xs = sorted(rng.sample(range(-12, 13), n))
        grid = Grid(tuple(x / 2.0 for x in xs))
        f = random_lattice_function(rng, grid, inf_share=0.3)
        ks = sorted(rng.sample(range(-8, 9), rng.randint(1, 7)))
        dual = Grid(tuple(k / 2.0 for k in ks))
        assert conjugate(f, dual).values == ref_conjugate_values(f, dual)


def test_reverse_conjugate_examples():
    g = dual_fn([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    assert reverse_conjugate(g, Grid((2.0,))).values == (fin(2.0),)
    got = reverse_conjugate(g, Grid((-1.0, 0.0, 1.0)))
    assert got.values == (fin(1.0), ZERO, fin(1.0))
    single = dual_fn([0.0], [0.0])
    assert reverse_conjugate(single, Grid((-3.0, 5.0))).values == (ZERO, ZERO)


def test_space_checks():
    f = primal([0.0], [0.0])
    g = dual_fn([0.0], [0.0])
    with pytest.raises(ValueError):
        conjugate(g, Grid((0.0,)))
    with pytest.raises(ValueError):
        reverse_conjugate(f, Grid((0.0,)))
    with pytest.raises(ValueError):
        climb_distance(f, g)


def test_biconjugate_spike_and_fixed_point():
    spike = primal([-1.0, 0.0, 1.0], [0.0, 3.0, 0.0])
    dual = Grid((-1.0, -0.5, 0.0, 0.5, 1.0))
    assert biconjugate(spike, dual).values == (ZERO, ZERO, ZERO)
    vee = primal([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    assert biconjugate(vee, dual) == vee
    const_inf = primal([-1.0, 1.0], [POS_INF, POS_INF])
    got = biconjugate(const_inf, dual)
    assert got.values == (POS_INF, POS_INF)


def test_biconjugate_idempotent_below_monotone():
    rng = random.Random(55)
    grid = Grid(tuple(i / 2.0 for i in range(-6, 7)))
    for _ in range(40):
        f = random_lattice_function(rng, grid)
        dual = default_dual_grid(f)
        once = biconjugate(f, dual)
        twice = biconjugate(once, dual)
        assert np.all(once.values_array <= f.values_array + 1e-9)
        assert np.allclose(once.values_array, twice.values_array, atol=1e-9)
        # monotone: lifting f pointwise can only lift the envelope
        lifted = SampledFunction(grid, f.values_array + rng.randint(0, 4), Space.PRIMAL)
        assert np.all(
            biconjugate(lifted, dual).values_array >= once.values_array - 1e-9
        )


FIG_GRID = Grid.from_range(-4.0, 6.0, 0.5)
FIG_DUAL = Grid.from_range(-1.0, 1.0, 0.25)
F1 = sample(FIG_GRID, abs)
F2 = sample(FIG_GRID, lambda x: abs(x - 2.0) - 1.0)


def test_climb_distance_worked_pair():
    assert climb_distance(F1, F2) == fin(1.0)
    assert climb_distance(F2, F1) == fin(3.0)


def test_distance_of_function_to_itself():
    assert climb_distance(F1, F1) == ZERO
    top = primal([0.0, 1.0], [POS_INF, POS_INF])
    assert climb_distance(top, top) == NEG_INF
    g = dual_fn([0.0, 1.0], [2.0, 0.0])
    assert fall_distance(g, g) == ZERO


def test_fall_distance_between_conjugates():
    g1 = conjugate(F1, FIG_DUAL)
    g2 = conjugate(F2, FIG_DUAL)
    assert max(abs(v.value) for v in g1.values) == 0.0
    assert all(
        v == fin(2.0 * k + 1.0) for k, v in zip(FIG_DUAL.points, g2.values)
    )
    assert fall_distance(g1, g2) == fin(1.0)
    assert fall_distance(g2, g1) == fin(3.0)


def test_distance_grid_mismatch():
    with pytest.raises(SizeMismatchError):
        climb_distance(F1, sample(Grid((0.0, 1.0)), abs))


def test_check_lf_adjunction_examples():
    f = primal([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    g = dual_fn([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    report = check_lf_adjunction(f, g)
    assert report.holds and report.lhs == ZERO and report.rhs == ZERO
    assert report.relation is Relation.EQUAL

    top = primal([-1.0, 0.0, 1.0], [POS_INF, POS_INF, POS_INF])
    report = check_lf_adjunction(top, g)
    assert report.holds and report.lhs == NEG_INF and report.rhs == NEG_INF

    # unit of the adjunction: g = conjugate(f) gives the distance to the envelope
    report = check_lf_adjunction(F2, conjugate(F2, FIG_DUAL))
    assert report.holds
    assert ext.compare(report.lhs, ZERO) <= 0


def test_check_lf_adjunction_random_mixed():
    rng = random.Random(7)
    for _ in range(100):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        grid = Grid(tuple(sorted(rng.sample(range(-10, 11), n))))
        dual = Grid(tuple(sorted(rng.sample(range(-6, 7), m))))
        f = random_lattice_function(rng, grid, inf_share=0.25)
        g = SampledFunction(
            dual,
            random_lattice_function(rng, dual, inf_share=0.25).values,
            Space.DUAL,
        )
        report = check_lf_adjunction(f, g, tol=1e-12)
        assert report.lhs.tag == report.rhs.tag
        assert report.holds


def test_check_short_examples():
    sq1 = sample(FIG_GRID, lambda x: x * x)
    sq2 = sample(FIG_GRID, lambda x: x * x + 5.0)
    report = check_short(sq1, sq2, FIG_DUAL)
    assert report.holds and report.relation is Relation.GEQ
    assert report.lhs == fin(5.0) and report.rhs == fin(5.0)
    report = check_short(F1, F1, FIG_DUAL)
    assert report.holds and report.lhs == ZERO and report.rhs == ZERO
    top = primal([0.0], [POS_INF])
    report = check_short(top, top, Grid((0.0,)))
    assert report.holds and report.lhs == NEG_INF and report.rhs == NEG_INF


def test_check_short_always_holds_on_random_input():
    rng = random.Random(31)
    grid = Grid(tuple(i / 2.0 for i in range(-8, 9)))
    dual = Grid(tuple(i / 4.0 for i in range(-8, 9)))
    for _ in range(80):
        f1 = random_lattice_function(rng, grid, inf_share=0.2)
        f2 = random_lattice_function(rng, grid, inf_share=0.2)
        assert check_short(f1, f2, dual).holds


def test_check_toland_singer_worked_pair():
    report = check_toland_singer(F1, F2, FIG_DUAL)
    assert report.status is CheckStatus.OK
    assert report.holds and report.lhs == fin(1.0) and report.rhs == fin(1.0)
    report = check_toland_singer(F2, F1, FIG_DUAL)
    assert report.holds and report.lhs == fin(3.0) and report.rhs == fin(3.0)


def test_check_toland_singer_nonconvex_first_argument():
    spike = primal([-1.0, 0.0, 1.0], [0.0, 3.0, 0.0])
    vee = primal([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    report = check_toland_singer(spike, vee, Grid((-1.0, 0.0, 1.0)))
    assert report.status is CheckStatus.OK
    assert report.holds and report.lhs == fin(1.0) and report.rhs == fin(1.0)
    report = check_toland_singer(vee, vee, Grid((-1.0, 0.0, 1.0)))
    assert report.holds and report.lhs == ZERO and report.rhs == ZERO


def test_check_toland_singer_hypothesis_not_met():
    spike = primal([-1.0, 0.0, 1.0], [0.0, 3.0, 0.0])
    vee = primal([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    report = check_toland_singer(vee, spike, Grid((-1.0, 0.0, 1.0)))
    assert report.status is CheckStatus.HYPOTHESIS_NOT_MET
    assert not report.holds
    assert "HYPOTHESIS_NOT_MET" in report.render_text()
    assert report.to_json_dict()["status"] == "HYPOTHESIS_NOT_MET"


def test_duality_report_rendering():
    report = check_short(F1, F2, FIG_DUAL)
    text = report.render_text()
    for key in ("lhs", "rhs", "relation", "holds", "tolerance", "status"):
        assert key in text
    d = report.to_json_dict()
    assert d["relation"] == "GEQ" and d["holds"] is True


def test_convex_hull_oracle_examples():
    spike = primal([-1.0, 0.0, 1.0], [0.0, 3.0, 0.0])
    assert convex_hull_oracle(spike).values == (ZERO, ZERO, ZERO)
    sq = sample(Grid.from_range(-2.0, 2.0, 0.5), lambda x: x * x)
    assert convex_hull_oracle(sq) == sq
    w = sample(Grid.from_range(-1.0, 3.0, 0.5), lambda x: min(abs(x), abs(x - 2.0)))
    hull = convex_hull_oracle(w)
    assert hull.values == chord_hull_values(w)
    assert hull.value_at(4) == ZERO  # x = 1 sits on the flat bottom


def test_convex_hull_oracle_infinities():
    f = primal([-1.0, 0.0, 1.0], [POS_INF, 2.0, NEG_INF])
    assert convex_hull_oracle(f).values == (NEG_INF, NEG_INF, NEG_INF)
    edge = primal([-1.0, 0.0, 1.0, 2.0], [POS_INF, 1.0, 1.0, POS_INF])
    assert convex_hull_oracle(edge).values == (POS_INF, fin(1.0), fin(1.0), POS_INF)
    all_inf = primal([0.0, 1.0], [POS_INF, POS_INF])
    assert convex_hull_oracle(all_inf).values == (POS_INF, POS_INF)
    lonely = primal([-1.0, 0.0, 1.0], [POS_INF, 5.0, POS_INF])
    assert convex_hull_oracle(lonely).values == (POS_INF, fin(5.0), POS_INF)


def test_convex_hull_oracle_matches_chords_randomly():
    rng = random.Random(202)
    for _ in range(40):
        n = rng.randint(1, 12)
        xs = sorted(rng.sample(range(-15, 16), n))
        grid = Grid(tuple(x / 2.0 for x in xs))
        f = random_lattice_function(rng, grid, inf_share=0.2)
        got = convex_hull_oracle(f).values
        want = chord_hull_values(f)
        for a, b in zip(got, want):
            assert a.tag == b.tag
            if a.is_finite:
                assert abs(a.value - b.value) <= 1e-9


def test_default_dual_grid_examples():
    spike = primal([-1.0, 0.0, 1.0], [0.0, 3.0, 0.0])
    assert default_dual_grid(spike).points == (-3.0, 0.0, 3.0)
    affine = primal([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert default_dual_grid(affine).points == (1.0,)
    lonely = primal([-1.0, 0.0, 1.0], [POS_INF, 5.0, POS_INF])
    assert default_dual_grid(lonely).points == (0.0,)


def test_biconjugate_with_quotient_grid_equals_hull():
    rng = random.Random(303)
    for _ in range(40):
        n = rng.randint(2, 20)
        xs = sorted(rng.sample(range(-30, 31), n))
        grid = Grid(tuple(x / 2.0 for x in xs))
        f = random_lattice_function(rng, grid)
        envelope = biconjugate(f, default_dual_grid(f))
        hull = convex_hull_oracle(f)
        assert np.allclose(envelope.values_array, hull.values_array, atol=1e-9)


def test_preorder_refinement():
    rng = random.Random(404)
    grid = Grid(tuple(float(i) for i in range(-3, 4)))
    for _ in range(200):
        f1 = random_lattice_function(rng, grid, inf_share=0.3)
        f2 = random_lattice_function(rng, grid, inf_share=0.3)
        dominates = all(
            ext.compare(a, b) >= 0 for a, b in zip(f1.values, f2.values)
        )
        assert (ext.compare(ZERO, climb_distance(f1, f2)) >= 0) == dominates


def test_pointwise_helpers_and_cvx_combine():
    vee = sample(Grid.from_range(-1.0, 3.0, 0.5), abs)
    shifted = sample(vee.grid, lambda x: abs(x - 2.0))
    prod = cvx_combine(LimitKind.PRODUCT, [vee, shifted])
    assert prod.value_at(4) == fin(1.0)  # max(|1|, |1-2|) at x = 1
    assert prod == pointwise_sup([vee, shifted])
    dual = default_dual_grid(pointwise_inf([vee, shifted]))
    co = cvx_combine(LimitKind.COPRODUCT, [vee, shifted], dual=dual)
    assert co.value_at(4) == ZERO
    assert co.values == convex_hull_oracle(pointwise_inf([vee, shifted])).values
    with pytest.raises(ValueError):
        cvx_combine(LimitKind.COPRODUCT, [vee, shifted])
    with pytest.raises(ValueError):
        cvx_combine(LimitKind.TENSOR, [vee])
    with pytest.raises(SizeMismatchError):
        pointwise_sup([vee, sample(Grid((0.0,)), abs)])


def test_empty_family_conventions():
    grid = Grid((-1.0, 0.0, 1.0))
    empty_prod = cvx_combine(LimitKind.PRODUCT, [], grid=grid)
    assert empty_prod.values == (NEG_INF, NEG_INF, NEG_INF)
    empty_co = cvx_combine(LimitKind.COPRODUCT, [], dual=Grid((0.0,)), grid=grid)
    assert empty_co.values == (POS_INF, POS_INF, POS_INF)
    with pytest.raises(ValueError):
        pointwise_sup([])


def test_cvx_scale_examples():
    sq = sample(Grid.from_range(-2.0, 2.0, 1.0), lambda x: x * x)
    up = cvx_scale(LimitKind.TENSOR, fin(2.0), sq)
    assert up.value_at(2) == fin(2.0)
    down = cvx_scale(LimitKind.COTENSOR, fin(2.0), sq)
    assert down.value_at(2) == fin(-2.0)
    floor = cvx_scale(LimitKind.COTENSOR, POS_INF, sq)
    assert floor.values == (NEG_INF,) * 5
    roof = cvx_scale(LimitKind.TENSOR, POS_INF, sq)
    assert roof.values == (POS_INF,) * 5
    with pytest.raises(ValueError):
        cvx_scale(LimitKind.PRODUCT, ZERO, sq)


def test_tropical_module_laws_small():
    rng = random.Random(505)
    grid = Grid(tuple(float(i) for i in range(-2, 3)))
    pool = [NEG_INF, POS_INF] + [fin(v / 4.0) for v in range(-12, 13)]
    for _ in range(60):
        f = random_lattice_function(rng, grid, inf_share=0.25)
        a, b = rng.choice(pool), rng.choice(pool)
        scaled_twice = cvx_scale(
            LimitKind.TENSOR, a, cvx_scale(LimitKind.TENSOR, b, f)
        )
        assert cvx_scale(LimitKind.TENSOR, ext.add(a, b), f) == scaled_twice
        assert cvx_scale(LimitKind.TENSOR, ZERO, f) == f
        lhs = cvx_scale(LimitKind.TENSOR, ext.fold_inf([a, b]), f)
        rhs = pointwise_inf(
            [cvx_scale(LimitKind.TENSOR, a, f), cvx_scale(LimitKind.TENSOR, b, f)]
        )
        assert lhs == rhs
        co_twice = cvx_scale(
            LimitKind.COTENSOR, a, cvx_scale(LimitKind.COTENSOR, b, f)
        )
        assert cvx_scale(LimitKind.COTENSOR, ext.add(a, b), f) == co_twice
        assert cvx_scale(LimitKind.COTENSOR, ZERO, f) == f
        lhs = cvx_scale(LimitKind.COTENSOR, ext.fold_inf([a, b]), f)
        rhs = pointwise_sup(
            [cvx_scale(LimitKind.COTENSOR, a, f), cvx_scale(LimitKind.COTENSOR, b, f)]
        )
        assert lhs == rhs


def test_transforms_are_the_generic_adjunction_over_the_pairing():
    from nucleus.core import EXT_REAL, PresheafVector, Profunctor, Side, closure, pull, push

    rng = random.Random(909)
    for _ in range(30):
        grid = Grid(tuple(sorted(rng.sample(range(-8, 9), rng.randint(1, 5)))))
        dual = Grid(tuple(sorted(rng.sample(range(-6, 7), rng.randint(1, 5)))))
        f = random_lattice_function(rng, grid, inf_share=0.3)
        pairing = Profunctor(
            tuple(tuple(fin(x * k) for k in dual.points) for x in grid.points),
            EXT_REAL,
        )
        p = PresheafVector(f.values, Side.PRE, EXT_REAL)
        assert push(pairing, p).values == conjugate(f, dual).values
        q = PresheafVector(
            SampledFunction(dual, random_lattice_function(rng, dual, 0.3).values, Space.DUAL).values,
            Side.OPCO,
            EXT_REAL,
        )
        g = SampledFunction(dual, q.values, Space.DUAL)
        assert pull(pairing, q).values == reverse_conjugate(g, grid).values
        assert closure(pairing, p).values == biconjugate(f, dual).values


def test_function_csv_round_trip():
    f = primal([-1.0, 0.5, 2.0], [POS_INF, fin(0.1), NEG_INF])
    text = render_function_csv(f)
    assert text == "x,value\n-1.0,inf\n0.5,0.1\n2.0,-inf\n"
    assert parse_function_csv(text) == f
    assert render_function_csv(parse_function_csv(text)) == text


def test_function_csv_sorts_and_accepts_headerless():
    f = parse_function_csv("2.0,4.0\n0.0,0.0\n1.0,1.0\n")
    assert f.grid.points == (0.0, 1.0, 2.0)
    assert f.values == (ZERO, fin(1.0), fin(4.0))


def test_function_csv_errors():
    with pytest.raises(FormatError) as e:
        parse_function_csv("x,value\n1.0,0.0\n1.0,3.0\n")
    assert "duplicate" in str(e.value) and "line 3" in str(e.value)
    with pytest.raises(FormatError) as e:
        parse_function_csv("x,value\n1.0,zzz\n")
    assert "field 'value'" in str(e.value)
    with pytest.raises(FormatError):
        parse_function_csv("x,value\ninf,1.0\n")
    with pytest.raises(FormatError):
        parse_function_csv("")
    with pytest.raises(FormatError):
        parse_function_csv("1.0,2.0,3.0\n")


def test_grid_from_an_array():
    arr = np.array([-1.0, 0.5, 2.0])
    grid = Grid(arr)
    arr[0] = 9.0
    assert grid == Grid((-1.0, 0.5, 2.0))
    assert grid.points == (-1.0, 0.5, 2.0)
    assert all(type(p) is float for p in grid.points)
    assert not grid.as_array.flags.writeable
    assert hash(grid) == hash(Grid((-1.0, 0.5, 2.0)))
    for bad in (np.array([[0.0, 1.0]]), np.array([0.0, np.nan]), np.array([1.0, 1.0]), np.array([])):
        with pytest.raises(ValueError):
            Grid(bad)
    # the same points as lo + i*step in Python floats
    assert Grid.from_range(-0.3, 0.7, 0.1).points == tuple(-0.3 + i * 0.1 for i in range(11))
    for lo, hi, step in ((0.0, 1e6, 1e-6), (math.nan, 1.0, 1.0), (0.0, math.inf, 1.0)):
        with pytest.raises(ValueError):
            Grid.from_range(lo, hi, step)


def test_default_dual_grid_beyond_the_float_range():
    f = primal([0.0, 1e-10, 1.0], [-1e308, 1e308, 0.0])
    with pytest.raises(ValueError, match="float range"):
        default_dual_grid(f)


def _all_quotients(f):
    """The auto grid as built before the pair cap: every quotient, deduplicated."""
    finite = np.isfinite(f.values_array)
    xs, ys = f.grid.as_array[finite], f.values_array[finite]
    i, j = np.triu_indices(len(xs), k=1)
    return np.unique((ys[j] - ys[i]) / (xs[j] - xs[i]))


def test_default_dual_grid_below_the_pair_cap_is_unchanged():
    rng = np.random.default_rng(4)
    for n in (2, 3, 17, 200):
        xs = np.sort(rng.choice(np.arange(-500, 500) / 4, size=n, replace=False))
        vals = np.where(rng.random(n) < 0.2, np.inf, rng.normal(size=n) * 10)
        vals[:2] = (0.0, 1.5)
        f = primal(xs, vals)
        got = default_dual_grid(f).as_array
        assert got.tobytes() == _all_quotients(f).tobytes()


def test_default_dual_grid_refuses_pairs_over_the_cap(monkeypatch):
    # infinite samples do not count: 5 finite samples are 10 pairs, 6 are 15
    monkeypatch.setattr(legendre, "MAX_GRID_POINTS", 10)
    five = primal(range(7), [0.0, 1.0, np.inf, 4.0, 9.0, 16.0, np.inf])
    assert default_dual_grid(five).as_array.tobytes() == _all_quotients(five).tobytes()
    with pytest.raises(ValueError, match="^6 finite samples give 15 difference quotients, more than 10$"):
        default_dual_grid(primal(range(6), [float(x * x) for x in range(6)]))


def test_default_dual_grid_refuses_before_allocating():
    # 4000 samples are about 8M pairs: the quotients alone would take 64 MB
    n = 4000
    f = primal(np.arange(n) / n, np.sin(np.arange(n)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than"):
            default_dual_grid(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grid_holds_no_tuple_until_points_is_read():
    grid = Grid(np.linspace(-1.0, 1.0, 1001))
    assert "points" not in vars(grid)
    conjugate(SampledFunction(grid, np.abs(grid.as_array), Space.PRIMAL), grid)
    render_function_csv(SampledFunction(grid, np.zeros(len(grid)), Space.PRIMAL))
    assert len(grid) == 1001 and "points" not in vars(grid)
    assert grid.points[500] == 0.0 and "points" in vars(grid)


def test_grid_equality_and_hash_across_negative_zero():
    neg, pos = Grid((-1.0, -0.0)), Grid((-1.0, 0.0))
    assert neg == pos and hash(neg) == hash(pos) and len({neg, pos}) == 1
    assert neg != Grid((-1.0, 0.5)) and neg != (-1.0, 0.0)
    assert math.copysign(1.0, neg.as_array[1]) == -1.0 and repr(neg) == "Grid(points=(-1.0, -0.0))"
    f = SampledFunction(neg, [fin(1.0), fin(2.0)], Space.PRIMAL)
    assert render_function_csv(f) == "x,value\n-1.0,1.0\n-0.0,2.0\n"


def test_grid_is_immutable():
    grid = Grid((0.0, 1.0))
    grid.points
    for name in ("as_array", "points"):
        with pytest.raises(AttributeError):
            setattr(grid, name, np.array([5.0]))
    assert grid.points == (0.0, 1.0) and grid.as_array.tolist() == [0.0, 1.0]


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_duality_checks_refuse_a_negative_or_nan_tolerance(tol):
    # a NaN or negative tolerance used to compare false, a violation that is not there
    f = sample(Grid.from_range(-1.0, 1.0, 0.5), abs)
    g = reverse_conjugate(conjugate(f, FIG_DUAL), f.grid)
    for check, args in (
        (check_lf_adjunction, (f, conjugate(f, FIG_DUAL))),
        (check_short, (f, g, FIG_DUAL)),
        (check_toland_singer, (f, g, FIG_DUAL)),
    ):
        with pytest.raises(ValueError, match="nonnegative"):
            check(*args, tol=tol)
        report = check(*args, tol=math.inf)
        assert report.holds and report.render_text().endswith("holds true\ntolerance inf\nstatus OK")


def test_duality_report_text_is_its_json_keys():
    spike = primal([-1.0, 0.0, 1.0], [0.0, 3.0, 0.0])
    vee = primal([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    report = check_toland_singer(vee, spike, Grid((-1.0, 0.0, 1.0)))
    assert report.render_text() == (
        "lhs 3.0\nrhs 0.0\nrelation EQUAL\nholds false\ntolerance 1e-09\nstatus HYPOTHESIS_NOT_MET"
    )


def test_a_function_is_no_plain_vector():
    f = primal([0.0, 1.0], [1.0, 2.0])
    v = PresheafVector(f.values_array, Side.PRE, EXT_REAL)
    assert repr(f) == "SampledFunction(primal, 2 points)"
    assert repr(dual_fn([0.0], [0.0])) == "SampledFunction(dual, 1 points)"
    assert not f == v and not v == f and f != v and v != f
    # a positional vector agrees with the function's grid in core's kernels
    assert hom_distance(v, f) == ZERO and hom_distance(f, v) == ZERO
    met = pointwise_meet([v, f])
    assert met.objects is f.grid and met.values == f.values
    with pytest.raises(TypeError):
        hash(f)
    with pytest.raises(ValueError, match="^conjugate input must be a primal function$"):
        conjugate(dual_fn([0.0], [0.0]), f.grid)


def test_a_function_is_core_vector_on_the_side_its_space_names():
    f, g = primal([0.0, 1.0], [1.0, 2.0]), dual_fn([0.0, 1.0], [1.0, 2.0])
    assert isinstance(f, PresheafVector) and f.side is Side.PRE and g.side is Side.OPCO
    assert f.space is Space(f.side) is Space.PRIMAL and g.space is Space(g.side) is Space.DUAL
    h = primal([0.0, 1.0], [4.0, 2.0])
    assert hom_distance(f, h) == climb_distance(f, h) == fin(3.0)
    assert f != g and f != primal([0.0, 2.0], [1.0, 2.0])


TEXT_CELLS = [["1_0"], "12", b"12", np.array(["0", "1"]), [b"1"], np.array(["1"], dtype=object)]


@pytest.mark.parametrize("cells", TEXT_CELLS, ids=repr)
def test_grids_and_functions_refuse_text(cells):
    # each used to be read as numbers, by float or cell by cell, not by the file token rule
    with pytest.raises(TypeError, match="grid points must be numbers, not text"):
        Grid(cells)
    with pytest.raises(TypeError, match="function values must be numbers, not text"):
        SampledFunction(Grid(range(len(cells))), cells, Space.PRIMAL)


def test_toland_singer_conjugates_each_function_once(monkeypatch):
    calls = []

    def counted(f, dual):
        calls.append(f)
        return conjugate(f, dual)

    monkeypatch.setattr(legendre, "conjugate", counted)
    spike = primal([-1.0, 0.0, 1.0], [0.0, 3.0, 0.0])
    vee = primal([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    assert check_toland_singer(spike, vee, Grid((-1.0, 0.0, 1.0))).holds
    assert calls == [spike, vee]


def test_core_refuses_functions_on_different_grids(monkeypatch):
    f, h = primal([0.0, 1.0], [0.0, 1.0]), primal([5.0, 6.0], [0.0, 1.0])
    calls = [
        lambda: hom_distance(f, h),
        lambda: pointwise_meet([f, h]),
        lambda: climb_distance(f, h),
        lambda: fall_distance(dual_fn([0.0, 1.0], [0.0, 0.0]), dual_fn([0.0, 2.0], [0.0, 0.0])),
        lambda: pointwise_sup([f, h]),
        lambda: pointwise_inf([f], Grid((5.0, 6.0))),
        lambda: climb_distance(f, primal([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])),
    ]
    for call in calls:
        with pytest.raises(SizeMismatchError, match="^functions live on different grids$"):
            call()
    transforms = []
    monkeypatch.setattr(legendre, "conjugate", lambda g, dual: transforms.append(g))
    for check in (check_short, check_toland_singer):
        with pytest.raises(SizeMismatchError, match="^functions live on different grids$"):
            check(f, h, Grid((0.0, 1.0)))
    assert transforms == []  # refused before any transform


def test_a_function_has_no_grid_of_its_own():
    f = primal([0.0, 1.0], [1.0, 2.0])
    assert f.grid is f.objects
    assert pointwise_sup([f]).grid == f.grid and cvx_scale(LimitKind.TENSOR, fin(1.0), f).grid is f.grid
    with pytest.raises(AttributeError):
        f.grid = Grid((0.0, 1.0))


def test_grid_copies_and_pickles_stay_read_only():
    grid = Grid((-0.0, 1.0, 2.5))
    for g in (copy.copy(grid), copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
        assert g == grid and math.copysign(1.0, g.points[0]) == -1.0
        assert not g.as_array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g.as_array[0] = 5.0


def test_functions_copy_and_pickle_equal():
    for f in (primal([0.0, 1.0, 2.0], [1.0, math.inf, -2.5]), dual_fn([-1.0], [-math.inf])):
        for g in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g == f and type(g) is SampledFunction and g.grid == f.grid and g.quantale is EXT_REAL
            for arr in (g.values_array, g.grid.as_array):
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
    f, h = primal([0.0, 1.0], [1.0, 2.0]), primal([0.0, 1.0], [1.0, 5.0])
    assert climb_distance(copy.deepcopy(f), h) == climb_distance(pickle.loads(pickle.dumps(f)), h) == fin(3.0)
