"""Push/pull adjunction, closures, composition and fixed-pair limits."""

from __future__ import annotations

import copy
import itertools
import pickle
import random
import re

import numpy as np
import pytest

from nucleus import extreal as ext
from nucleus.core import (
    EXT_REAL,
    TRUTH,
    FormatError,
    LimitKind,
    NotFixedError,
    PresheafVector,
    Profunctor,
    Side,
    SizeMismatchError,
    adjunction_gap,
    check_rspace_axioms,
    closure,
    compose_profunctors,
    hom_distance,
    identity_profunctor,
    is_fixed,
    nucleus_limit,
    parse_matrix_csv,
    pointwise_join,
    pointwise_meet,
    pull,
    push,
    render_matrix_csv,
    tensor_each,
    underlying_preorder,
)
from nucleus.extreal import NEG_INF, POS_INF, ZERO
from nucleus.legendre import Grid

fin = ext.finite


def pre(vals, q=TRUTH):
    return PresheafVector(tuple(vals), Side.PRE, q)


def opco(vals, q=TRUTH):
    return PresheafVector(tuple(vals), Side.OPCO, q)


def chi(universe, members):
    return tuple(u in members for u in universe)


# The worked relation: objects 1,2,3 against attributes a,b with
# pairs (1,a), (2,a), (2,b).
G = ("1", "2", "3")
M_SET = ("a", "b")
REL = {("1", "a"), ("2", "a"), ("2", "b")}
M_TRUTH = Profunctor(
    tuple(tuple((g, m) in REL for m in M_SET) for g in G), TRUTH
)


def naive_push(relation, universe_g, universe_m, subset_g):
    # independent forall-scan oracle
    return {m for m in universe_m if all((g, m) in relation for g in subset_g)}


def naive_pull(relation, universe_g, universe_m, subset_m):
    return {g for g in universe_g if all((g, m) in relation for m in subset_m)}


def pairing_profunctor(xs, ks):
    return Profunctor(
        tuple(tuple(fin(x * k) for k in ks) for x in xs), EXT_REAL
    )


def test_push_truth_worked_example():
    expected = naive_push(REL, G, M_SET, {"1"})
    assert expected == {"a"}
    got = push(M_TRUTH, pre(chi(G, {"1"})))
    assert got.values == chi(M_SET, expected)
    assert got.side is Side.OPCO


def test_push_extreal_examples():
    one_by_one = Profunctor(((ZERO,),), EXT_REAL)
    assert push(one_by_one, pre((fin(5),), EXT_REAL)).values == (fin(-5),)
    m = pairing_profunctor([-1.0, 0.0, 1.0], [0.0])
    got = push(m, pre((fin(1), fin(0), fin(1)), EXT_REAL))
    assert got.values == (ZERO,)


def test_pull_truth_worked_example():
    expected = naive_pull(REL, G, M_SET, {"a"})
    assert expected == {"1", "2"}
    got = pull(M_TRUTH, opco(chi(M_SET, {"a"})))
    assert got.values == chi(G, expected)


def test_pull_extreal_examples():
    one_by_one = Profunctor(((ZERO,),), EXT_REAL)
    assert pull(one_by_one, opco((fin(-3),), EXT_REAL)).values == (fin(3),)
    m = pairing_profunctor([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    got = pull(m, opco((ZERO, ZERO, ZERO), EXT_REAL))
    assert got.values == (fin(1), fin(0), fin(1))


def test_push_pull_size_errors():
    with pytest.raises(SizeMismatchError):
        push(M_TRUTH, pre((True, False)))
    with pytest.raises(SizeMismatchError):
        pull(M_TRUTH, opco((True, False, True)))
    with pytest.raises(ValueError):
        push(M_TRUTH, opco((True, False)))


def test_closure_truth_worked_example():
    got = closure(M_TRUTH, pre(chi(G, {"1"})))
    assert got.values == chi(G, {"1", "2"})


def test_closure_extreal_spike():
    m = pairing_profunctor([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    spike = pre((fin(0), fin(3), fin(0)), EXT_REAL)
    assert closure(m, spike).values == (ZERO, ZERO, ZERO)


def test_closure_idempotent_and_extensive():
    rng = random.Random(5)
    for _ in range(60):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        m = Profunctor(
            tuple(tuple(rng.random() < 0.5 for _ in range(nb)) for _ in range(na)),
            TRUTH,
        )
        f = pre(tuple(rng.random() < 0.5 for _ in range(na)))
        once = closure(m, f)
        assert closure(m, once) == once
        # extensive in the underlying order of the PRE side
        assert all(TRUTH.leq(a, b) for a, b in zip(f.values, once.values))
    m = pairing_profunctor([-1.0, 0.5, 2.0], [-1.0, 0.0, 1.0])
    for _ in range(60):
        f = pre(tuple(fin(rng.randint(-4, 4)) for _ in range(3)), EXT_REAL)
        once = closure(m, f)
        assert closure(m, once) == once
        # on both sides the closed vector sits below the original in the
        # quantale order, i.e. leq(original, closed) pointwise
        assert all(EXT_REAL.leq(a, b) for a, b in zip(f.values, once.values))
        g = opco(tuple(fin(rng.randint(-4, 4)) for _ in range(3)), EXT_REAL)
        once_g = closure(m, g)
        assert closure(m, once_g) == once_g
        assert all(EXT_REAL.leq(a, b) for a, b in zip(g.values, once_g.values))


def test_is_fixed():
    m = pairing_profunctor([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    spike = pre((fin(0), fin(3), fin(0)), EXT_REAL)
    assert not is_fixed(m, spike)
    assert is_fixed(m, closure(m, spike), tol=0.0)
    ident = identity_profunctor(2, TRUTH)
    assert is_fixed(ident, pre((True, False)))
    with pytest.raises(ValueError):
        is_fixed(m, spike, tol=-1.0)


def test_hom_distance_examples():
    f = pre((fin(1), fin(2)), EXT_REAL)
    assert hom_distance(f, f) == ZERO
    top = pre((POS_INF, POS_INF), EXT_REAL)
    assert hom_distance(top, top) == NEG_INF
    assert hom_distance(pre(chi(G, {"1"})), pre(chi(G, {"1", "2"}))) is True
    assert hom_distance(pre(chi(G, {"1", "3"})), pre(chi(G, {"1", "2"}))) is False
    # OPCO reverses: distance is the maximal fall
    g1 = opco((fin(3), fin(0)), EXT_REAL)
    g2 = opco((fin(1), fin(0)), EXT_REAL)
    assert hom_distance(g1, g2) == fin(2)
    with pytest.raises(SizeMismatchError):
        hom_distance(f, pre((fin(1),), EXT_REAL))
    with pytest.raises(ValueError):
        hom_distance(f, opco((fin(1), fin(2)), EXT_REAL))


def test_adjunction_gap_examples():
    m = pairing_profunctor([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    lhs, rhs = adjunction_gap(m, pre((fin(1), fin(0), fin(1)), EXT_REAL), opco((ZERO,) * 3, EXT_REAL))
    assert lhs == ZERO and rhs == ZERO
    lhs, rhs = adjunction_gap(m, pre((POS_INF,) * 3, EXT_REAL), opco((ZERO,) * 3, EXT_REAL))
    assert lhs == NEG_INF and rhs == NEG_INF


def test_adjunction_gap_property_truth_exhaustive():
    rng = random.Random(11)
    for na, nb in [(1, 1), (2, 2), (2, 3), (4, 4)]:
        for _ in range(6):
            m = Profunctor(
                tuple(tuple(rng.random() < 0.5 for _ in range(nb)) for _ in range(na)),
                TRUTH,
            )
            for pbits in itertools.product((False, True), repeat=na):
                for qbits in itertools.product((False, True), repeat=nb):
                    p, q = pre(pbits), opco(qbits)
                    lhs, rhs = adjunction_gap(m, p, q)
                    assert lhs == rhs
                    # the underlying Galois connection
                    pushed, pulled = push(m, p), pull(m, q)
                    le_opco = all(TRUTH.leq(b, a) for a, b in zip(pushed.values, q.values))
                    le_pre = all(TRUTH.leq(a, b) for a, b in zip(p.values, pulled.values))
                    assert le_opco == le_pre


def test_adjunction_gap_property_extreal_sampled():
    rng = random.Random(13)
    pool = [NEG_INF, POS_INF] + [fin(v) for v in (-3.0, -1.5, 0.0, 0.25, 2.0)]
    for _ in range(300):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        m = Profunctor(
            tuple(tuple(rng.choice(pool) for _ in range(nb)) for _ in range(na)),
            EXT_REAL,
        )
        p = pre(tuple(rng.choice(pool) for _ in range(na)), EXT_REAL)
        q = opco(tuple(rng.choice(pool) for _ in range(nb)), EXT_REAL)
        lhs, rhs = adjunction_gap(m, p, q)
        assert lhs.tag == rhs.tag
        if lhs.is_finite:
            assert abs(lhs.value - rhs.value) <= 1e-12
        # the Galois-connection law the gap refines
        le_opco = EXT_REAL.leq(EXT_REAL.unit, hom_distance(push(m, p), q))
        le_pre = EXT_REAL.leq(EXT_REAL.unit, hom_distance(p, pull(m, q)))
        assert le_opco == le_pre


def test_underlying_preorder_reflexive_transitive_on_valid_metrics():
    rng = random.Random(19)
    for _ in range(80):
        n = rng.randint(1, 5)
        pts = sorted(rng.sample(range(-8, 9), n))
        # x' - x satisfies the triangle inequality with equality
        d = tuple(tuple(fin(float(b - a)) for b in pts) for a in pts)
        assert check_rspace_axioms(d).ok
        rel = underlying_preorder(d)
        for i in range(n):
            assert rel[i][i]
            for j in range(n):
                for k in range(n):
                    if rel[i][j] and rel[j][k]:
                        assert rel[i][k]


TROP = lambda rows: Profunctor(tuple(tuple(fin(v) if v not in (POS_INF, NEG_INF) else v for v in row) for row in rows), EXT_REAL)


def test_compose_min_plus_hand_product():
    first = TROP([[0, 1], [2, 0]])
    second = TROP([[0, 3], [1, 0]])
    got = compose_profunctors(first, second)
    assert got.entries == TROP([[0, 1], [1, 0]]).entries


def test_compose_unital_and_inf_row():
    first = TROP([[0, 1], [2, 0]])
    ident = identity_profunctor(2, EXT_REAL)
    assert ident.entries[0] == (ZERO, POS_INF)
    assert compose_profunctors(first, ident).entries == first.entries
    assert compose_profunctors(ident, first).entries == first.entries
    rel = Profunctor(((True, False), (False, True)), TRUTH)
    ident_t = identity_profunctor(2, TRUTH)
    assert compose_profunctors(rel, ident_t).entries == rel.entries
    # a +inf row absorbs: every path through it includes a +inf term
    inf_row = Profunctor(((POS_INF, POS_INF),), EXT_REAL)
    anything = TROP([[5, NEG_INF], [NEG_INF, -2]])
    got = compose_profunctors(inf_row, anything)
    assert got.entries == ((POS_INF, POS_INF),)


def test_compose_associative_mixed_entries():
    rng = random.Random(17)
    pool = [NEG_INF, POS_INF] + [fin(v) for v in range(-5, 6)]
    for _ in range(40):
        a = Profunctor(tuple(tuple(rng.choice(pool) for _ in range(4)) for _ in range(4)), EXT_REAL)
        b = Profunctor(tuple(tuple(rng.choice(pool) for _ in range(4)) for _ in range(4)), EXT_REAL)
        c = Profunctor(tuple(tuple(rng.choice(pool) for _ in range(4)) for _ in range(4)), EXT_REAL)
        left = compose_profunctors(compose_profunctors(a, b), c)
        right = compose_profunctors(a, compose_profunctors(b, c))
        assert left.entries == right.entries
    with pytest.raises(SizeMismatchError):
        compose_profunctors(TROP([[0, 1]]), TROP([[0, 1]]))


def fixed_pair(m, seed_values):
    p0 = pre(tuple(seed_values), m.quantale)
    q = push(m, p0)
    p = pull(m, q)
    return p, push(m, p)


def test_nucleus_limit_concept_product():
    ctx2 = Profunctor(
        tuple(tuple((g, m) in REL for m in M_SET) for g in ("1", "2")), TRUTH
    )
    pair1 = (pre(chi(("1", "2"), {"1", "2"})), opco(chi(M_SET, {"a"})))
    pair2 = (pre(chi(("1", "2"), {"2"})), opco(chi(M_SET, {"a", "b"})))
    p, q = nucleus_limit(ctx2, LimitKind.PRODUCT, [pair1, pair2])
    assert p.values == chi(("1", "2"), {"2"})
    assert q.values == chi(M_SET, {"a", "b"})


def test_nucleus_limit_extreal_product_idempotent():
    m = pairing_profunctor([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    pair = fixed_pair(m, (fin(1), fin(0), fin(1)))
    p, q = nucleus_limit(m, LimitKind.PRODUCT, [pair, pair])
    assert (p, q) == pair


def test_nucleus_limit_tensor_unit():
    m = pairing_profunctor([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    pair = fixed_pair(m, (fin(1), fin(0), fin(1)))
    p, q = nucleus_limit(m, LimitKind.TENSOR, [pair], scalar=ZERO)
    assert (p, q) == pair


def test_nucleus_limit_rejects_unfixed_pairs():
    m = pairing_profunctor([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    spike = pre((fin(0), fin(3), fin(0)), EXT_REAL)
    with pytest.raises(NotFixedError):
        nucleus_limit(m, LimitKind.PRODUCT, [(spike, push(m, spike))])
    with pytest.raises(ValueError):
        nucleus_limit(m, LimitKind.TENSOR, [], scalar=ZERO)


def test_nucleus_limit_outputs_are_fixed_pairs():
    rng = random.Random(23)
    pool = [NEG_INF, POS_INF] + [fin(v) for v in range(-4, 5)]
    for kind in LimitKind:
        for _ in range(40):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            m = Profunctor(
                tuple(tuple(rng.choice(pool) for _ in range(nb)) for _ in range(na)),
                EXT_REAL,
            )
            if kind in (LimitKind.TENSOR, LimitKind.COTENSOR):
                pairs = [fixed_pair(m, (rng.choice(pool) for _ in range(na)))]
                scalar = rng.choice(pool)
            else:
                pairs = [
                    fixed_pair(m, (rng.choice(pool) for _ in range(na)))
                    for _ in range(rng.randint(0, 3))
                ]
                scalar = None
            p, q = nucleus_limit(m, kind, pairs, scalar=scalar)
            assert push(m, p) == q
            assert pull(m, q) == p
            assert is_fixed(m, p, tol=0.0)
            assert is_fixed(m, q, tol=0.0)


def test_nucleus_limit_truth_outputs_fixed():
    rng = random.Random(29)
    for kind in LimitKind:
        for _ in range(40):
            na, nb = rng.randint(1, 4), rng.randint(1, 4)
            m = Profunctor(
                tuple(tuple(rng.random() < 0.5 for _ in range(nb)) for _ in range(na)),
                TRUTH,
            )
            if kind in (LimitKind.TENSOR, LimitKind.COTENSOR):
                pairs = [fixed_pair(m, (rng.random() < 0.5 for _ in range(na)))]
                scalar = rng.random() < 0.5
            else:
                pairs = [
                    fixed_pair(m, (rng.random() < 0.5 for _ in range(na)))
                    for _ in range(rng.randint(0, 3))
                ]
                scalar = None
            p, q = nucleus_limit(m, kind, pairs, scalar=scalar)
            assert push(m, p) == q and pull(m, q) == p


def test_underlying_preorder_examples():
    d = ((ZERO, fin(5)), (fin(-1), ZERO))
    assert underlying_preorder(d) == ((True, False), (True, True))
    zeros = ((ZERO, ZERO), (ZERO, ZERO))
    assert underlying_preorder(zeros) == ((True, True), (True, True))
    discrete = ((ZERO, POS_INF), (POS_INF, ZERO))
    assert underlying_preorder(discrete) == ((True, False), (False, True))
    with pytest.raises(ValueError):
        underlying_preorder(((ZERO, ZERO),))


def test_check_rspace_axioms():
    pts = [0.0, 1.0, 2.0]
    line = tuple(tuple(fin(b - a) for b in pts) for a in pts)
    assert check_rspace_axioms(line).ok
    bad_diag = ((fin(1), fin(0)), (fin(0), ZERO))
    rep = check_rspace_axioms(bad_diag)
    assert not rep.ok and rep.diagonal_violations[0][0] == 0
    assert "index 0" in rep.summary()
    asym = ((ZERO, ZERO), (fin(1), ZERO))
    assert check_rspace_axioms(asym).ok
    bad_tri = ((ZERO, fin(1), fin(5)), (fin(1), ZERO, fin(1)), (fin(5), fin(1), ZERO))
    rep = check_rspace_axioms(bad_tri)
    assert not rep.ok and (0, 1, 2) in rep.triangle_violations


def test_matrix_csv_round_trip():
    rows, cols, m = parse_matrix_csv(",c1,c2\nr1,0.0,inf\nr2,-inf,2.5\n")
    assert rows == ("r1", "r2") and cols == ("c1", "c2")
    assert m.entries[0][1] == POS_INF and m.entries[1][0] == NEG_INF
    assert (m.domain, m.codomain) == (rows, cols)
    text = render_matrix_csv(m)
    assert text == ",c1,c2\nr1,0.0,inf\nr2,-inf,2.5\n"
    assert parse_matrix_csv(text)[2].entries == m.entries


def test_matrix_csv_errors():
    with pytest.raises(FormatError):
        parse_matrix_csv("")
    with pytest.raises(FormatError) as e:
        parse_matrix_csv(",c1\nr1,abc\n")
    assert "line 2" in str(e.value) and "c1" in str(e.value)
    with pytest.raises(FormatError):
        parse_matrix_csv(",c1\nr1,1.0,2.0\n")


def test_is_fixed_refuses_a_nan_tolerance():
    m = pairing_profunctor([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        is_fixed(m, pre((fin(0), fin(3), fin(0)), EXT_REAL), tol=float("nan"))


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_nucleus_limit_refuses_a_negative_or_nan_tolerance(tol):
    m = pairing_profunctor([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
    pair = fixed_pair(m, (fin(1), fin(0), fin(1)))
    with pytest.raises(ValueError, match="nonnegative"):
        nucleus_limit(m, LimitKind.PRODUCT, [pair], tol=tol)
    with pytest.raises(ValueError, match="nonnegative"):
        nucleus_limit(m, LimitKind.PRODUCT, [], tol=tol)
    assert nucleus_limit(m, LimitKind.PRODUCT, [pair], tol=float("inf")) == pair


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: push(M_TRUTH, pre((ZERO, ZERO, ZERO), EXT_REAL)),
            ValueError,
            "vector and profunctor use different quantales",
        ),
        (
            lambda: pull(M_TRUTH, opco((ZERO, ZERO), EXT_REAL)),
            ValueError,
            "vector and profunctor use different quantales",
        ),
        (lambda: hom_distance(pre((True,)), pre((ZERO,), EXT_REAL)), ValueError, "vectors must share a quantale"),
        (lambda: hom_distance(pre((True,)), opco((True,))), ValueError, "vectors must share a side"),
        (lambda: hom_distance(pre((True,)), pre((True, False))), SizeMismatchError, "vectors must share a length"),
        (
            lambda: compose_profunctors(M_TRUTH, pairing_profunctor([0.0, 1.0], [0.0])),
            ValueError,
            "profunctors use different quantales",
        ),
        (lambda: pointwise_meet([pre((True,)), opco((True,))]), ValueError, "vectors must share a side"),
        (lambda: pointwise_meet([pre((True,)), pre((ZERO,), EXT_REAL)]), ValueError, "vectors must share a quantale"),
        (lambda: pointwise_join([pre((True,)), pre((True, False))]), SizeMismatchError, "vectors must share a length"),
        (lambda: nucleus_limit(M_TRUTH, "sum"), ValueError, "unknown limit kind: 'sum'"),
        (
            lambda: render_matrix_csv(Profunctor(((ZERO,),), EXT_REAL)),
            ValueError,
            "a matrix without row and column labels has no CSV form",
        ),
        (
            lambda: render_matrix_csv(Profunctor(((ZERO,),), EXT_REAL, ("r",))),
            ValueError,
            "a matrix without row and column labels has no CSV form",
        ),
        (
            lambda: render_matrix_csv(Profunctor(np.zeros((1, 2)), EXT_REAL, ("r",), Grid((0.0, 1.0)))),
            ValueError,
            "a matrix whose labels are not text has no CSV form",
        ),
        (
            lambda: render_matrix_csv(Profunctor(np.zeros((2, 1)), EXT_REAL, (1, 2.5), ("c",))),
            ValueError,
            "a matrix whose labels are not text has no CSV form",
        ),
    ],
    ids=[
        "push", "pull", "hom", "hom-side", "hom-length", "compose", "side", "quantale", "length", "kind",
        "labels", "half-labels", "grid-labels", "number-labels",
    ],
)
def test_core_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_rspace_summary_of_an_ok_report():
    summary = check_rspace_axioms(((ZERO, fin(1)), (fin(-1), ZERO))).summary()
    assert summary == "ok: triangle inequality holds and every self-distance is 0 or -inf"


# The object index: the worked relation with its labels, beside M_TRUTH,
# the same matrix positional.
M_LABELLED = Profunctor(M_TRUTH.entries_array, TRUTH, G, M_SET)


def test_core_refuses_operands_on_other_objects():
    p = PresheafVector(chi(G, {"1"}), Side.PRE, TRUTH, ("x", "y", "z"))
    with pytest.raises(SizeMismatchError, match="^vector and profunctor index different objects$"):
        push(M_LABELLED, p)
    with pytest.raises(SizeMismatchError, match="^vector and profunctor index different objects$"):
        pull(M_LABELLED, PresheafVector((True, False), Side.OPCO, TRUTH, ("b", "a")))
    with pytest.raises(SizeMismatchError):
        is_fixed(M_LABELLED, p)
    q = PresheafVector(chi(G, {"1", "2"}), Side.PRE, TRUTH, G)
    with pytest.raises(SizeMismatchError, match="^vectors index different objects$"):
        hom_distance(p, q)
    with pytest.raises(SizeMismatchError, match="^vectors index different objects$"):
        pointwise_meet([pre(chi(G, {"1"})), q, p])  # a positional head does not hide the clash
    fixed = closure(M_TRUTH, pre(chi(G, {"1"})))
    pair = (fixed, push(M_TRUTH, fixed))
    moved = (pair[0], PresheafVector(pair[1].values_array, Side.OPCO, TRUTH, ("b", "a")))
    assert nucleus_limit(M_LABELLED, LimitKind.PRODUCT, [pair])[1].objects == M_SET
    for bad in (moved, (PresheafVector(fixed.values_array, Side.PRE, TRUTH, ("x", "y", "z")), pair[1])):
        with pytest.raises(SizeMismatchError):
            nucleus_limit(M_LABELLED, LimitKind.PRODUCT, [bad])


def test_empty_limits_carry_the_matrix_labels():
    m = parse_matrix_csv(",c1,c2\nr1,0.0,inf\nr2,-inf,2.5\nr3,1,-1\n")[2]
    top_pre = PresheafVector((NEG_INF,) * 3, Side.PRE, EXT_REAL, m.domain)
    top_opco = PresheafVector((NEG_INF,) * 2, Side.OPCO, EXT_REAL, m.codomain)
    product = nucleus_limit(m, LimitKind.PRODUCT)
    coproduct = nucleus_limit(m, LimitKind.COPRODUCT)
    assert [v.objects for v in (*product, *coproduct)] == [m.domain, m.codomain] * 2
    assert product == (top_pre, push(m, top_pre))
    assert coproduct == (pull(m, top_opco), top_opco)


def test_compose_pairs_parsed_matrices_by_inner_labels():
    _, _, a = parse_matrix_csv(",x,y\na,0,1\n")
    _, _, b = parse_matrix_csv(",u\ny,5\nx,7\n")
    with pytest.raises(SizeMismatchError, match=re.escape("inner labels differ: columns ['x', 'y'] vs rows ['y', 'x']")):
        compose_profunctors(a, b)
    # sizes are compared before labels
    with pytest.raises(SizeMismatchError, match="^inner sizes differ: 2 vs 1$"):
        compose_profunctors(a, parse_matrix_csv(",u\nz,0\n")[2])
    product = compose_profunctors(a, parse_matrix_csv(",u\nx,7\ny,5\n")[2])
    assert (product.domain, product.codomain, product.entries) == (("a",), ("u",), ((fin(6),),))


def test_positional_operands_agree_with_any_index():
    # the benchmark's path: positional vectors against a parsed, labelled matrix
    p = pre(chi(G, {"1"}))
    pushed = push(M_LABELLED, p)
    assert pushed.objects == M_SET and pushed.values == push(M_TRUTH, p).values
    assert pull(M_LABELLED, opco((True, False))).objects == G
    assert is_fixed(M_LABELLED, closure(M_TRUTH, p)) and hom_distance(pushed, push(M_TRUTH, p)) is True
    labelled = PresheafVector(chi(G, {"2"}), Side.PRE, TRUTH, G)
    assert pointwise_meet([p, labelled]).objects == G and tensor_each(True, labelled).objects == G
    assert compose_profunctors(M_LABELLED, identity_profunctor(2, TRUTH)).codomain is None
    # equality reads the index: positional and labelled data differ
    assert labelled != PresheafVector(chi(G, {"2"}), Side.PRE, TRUTH) and M_LABELLED != M_TRUTH


@pytest.mark.parametrize(
    "x",
    [
        M_TRUTH,
        M_LABELLED,
        pre(chi(G, {"1"})),
        PresheafVector((fin(1), POS_INF, NEG_INF), Side.OPCO, EXT_REAL, G),
        parse_matrix_csv(",c1,c2\nr1,0.0,inf\nr2,-inf,2.5\n")[2],
    ],
    ids=["profunctor", "labelled profunctor", "vector", "labelled vector", "parsed matrix"],
)
def test_copies_and_pickles_keep_the_quantale(x):
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and y.quantale is x.quantale
        arr = y.entries_array if isinstance(y, Profunctor) else y.values_array
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


def test_an_index_must_fit_its_array():
    with pytest.raises(SizeMismatchError, match="^object index has 2 objects for 1 values$"):
        PresheafVector((True,), Side.PRE, TRUTH, ("a", "b"))
    with pytest.raises(SizeMismatchError, match="^domain index has 1 objects for 2 rows$"):
        Profunctor(np.zeros((2, 2)), EXT_REAL, ("a",), ("x", "y"))
    with pytest.raises(SizeMismatchError, match="^codomain index has 3 objects for 2 columns$"):
        Profunctor(np.zeros((2, 2)), EXT_REAL, ("a", "b"), ("x", "y", "z"))
    # None stays positional, on either side
    assert Profunctor(np.zeros((2, 3)), EXT_REAL, None, ("x", "y", "z")).domain is None
    assert Profunctor(np.zeros((2, 3)), EXT_REAL, ("a", "b")).codomain is None
    assert PresheafVector((True, False), Side.OPCO, TRUTH).objects is None


def test_quantales_pickle_as_their_module_names():
    for q in (TRUTH, EXT_REAL):
        assert pickle.loads(pickle.dumps(q)) is q and copy.deepcopy(q) is q and copy.copy(q) is q
    assert repr(EXT_REAL) == "<quantale extreal>" and TRUTH.name == "truth"
