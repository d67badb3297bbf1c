"""Kernel arithmetic: the saturation tables, order, folds and text forms."""

from __future__ import annotations

import itertools
import math
import pickle

import numpy as np
import pytest

from nucleus import extreal as ext
from nucleus.extreal import NEG_INF, POS_INF, ZERO, ExtReal, Tag

N, P = NEG_INF, POS_INF


def fin(x):
    return ext.finite(x)


ALPHABET = (N, fin(-1.0), fin(0.0), fin(1.0), P)

# Rows are the left operand, columns the right operand, finite
# representatives s=5 and t=3.
ADD_TABLE = [
    (N, N, P),
    (N, fin(8), P),
    (P, P, P),
]
SUB_TABLE = [
    (N, N, N),
    (P, fin(2), N),
    (P, P, N),
]
LEFT = [N, fin(5), P]
RIGHT = [N, fin(3), P]


def test_addition_table_all_nine_cells():
    for row, a in zip(ADD_TABLE, LEFT):
        for expected, b in zip(row, RIGHT):
            assert ext.add(a, b) == expected


def test_subtraction_table_all_nine_cells():
    for row, a in zip(SUB_TABLE, LEFT):
        for expected, b in zip(row, RIGHT):
            assert ext.sub(a, b) == expected


def test_infinity_corners():
    assert ext.add(P, N) == P
    assert ext.add(N, P) == P
    assert ext.sub(P, P) == N
    assert ext.sub(N, N) == N
    assert ext.sub(fin(7), N) == P


def test_add_unit_and_finite():
    for s in ALPHABET:
        assert ext.add(s, ZERO) == s
        assert ext.add(ZERO, s) == s
    assert ext.add(fin(3), fin(5)) == fin(8)


def test_compare_examples():
    assert ext.compare(N, fin(7)) == -1
    assert ext.compare(P, P) == 0
    assert ext.compare(ZERO, N) == 1


def test_total_order_sorting():
    xs = [P, fin(2.5), N, fin(-3.0), ZERO]
    assert sorted(xs) == [N, fin(-3.0), ZERO, fin(2.5), P]


def test_folds():
    assert ext.fold_inf([fin(3), N, fin(5)]) == N
    assert ext.fold_sup([]) == N
    assert ext.fold_inf([]) == P
    assert ext.fold_sup([fin(3), P]) == P
    assert ext.fold_inf([fin(3), fin(5)]) == fin(3)


def test_adjunction_property_exhaustive():
    # a + b >= c  iff  a >= c - b, on all 125 triples
    for a, b, c in itertools.product(ALPHABET, repeat=3):
        assert (ext.add(a, b) >= c) == (a >= ext.sub(c, b))


def test_add_distributes_over_fold_inf():
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(ALPHABET, r) for r in range(len(ALPHABET) + 1)
    ))
    for q in ALPHABET:
        for w in subsets:
            lhs = ext.add(q, ext.fold_inf(w))
            rhs = ext.fold_inf([ext.add(q, x) for x in w])
            assert lhs == rhs, (q, w)


def test_add_commutative_associative_exhaustive():
    for a, b in itertools.product(ALPHABET, repeat=2):
        assert ext.add(a, b) == ext.add(b, a)
    for a, b, c in itertools.product(ALPHABET, repeat=3):
        assert ext.add(ext.add(a, b), c) == ext.add(a, ext.add(b, c))


def test_sub_matches_defining_infimum():
    # c - b = inf { a : a + b >= c }; the infimum needs the witness c - b
    # among the candidates, so adjoin it for finite pairs.
    for c, b in itertools.product(ALPHABET, repeat=2):
        candidates = list(ALPHABET)
        if c.is_finite and b.is_finite:
            candidates.append(fin(c.value - b.value))
        feasible = [a for a in candidates if ext.add(a, b) >= c]
        assert ext.fold_inf(feasible) == ext.sub(c, b), (c, b)


def test_finite_payload_is_exact():
    assert fin(0.1 + 0.2) != fin(0.3)
    assert fin(-0.0) == fin(0.0)


def test_overflow_saturates_to_tags():
    assert ext.add(fin(1e308), fin(1e308)) == P
    assert ext.sub(fin(-1e308), fin(1e308)) == N


def test_construction_guards():
    with pytest.raises(ValueError):
        ExtReal(Tag.FINITE, float("inf"))
    with pytest.raises(ValueError):
        ext.finite(float("nan"))
    assert ExtReal(Tag.POS_INF, 42.0).value == 0.0


def test_render_parse_round_trip():
    assert ext.render(P) == "inf"
    assert ext.render(N) == "-inf"
    assert ext.render(fin(3.0)) == "3.0"
    for x in (P, N, ZERO, fin(0.1), fin(-2.75), fin(1e-17)):
        assert ext.parse(ext.render(x)) == x
    assert ext.parse("+inf") == P
    assert ext.parse(" -inf ") == N
    assert ext.parse("1e999") == P


@pytest.mark.parametrize("token", ["nan", "abc", "", "1..2"])
def test_parse_rejects_junk(token):
    with pytest.raises(ValueError):
        ext.parse(token)


def test_approx_and_geq_helpers():
    assert ext.approx_equal(fin(1.0), fin(1.0 + 5e-10), 1e-9)
    assert not ext.approx_equal(fin(1.0), fin(1.1), 1e-9)
    assert not ext.approx_equal(P, fin(1e300), 1e9)
    assert ext.approx_equal(P, P, 0.0)
    assert ext.geq_within(P, fin(1e300), 0.0)
    assert ext.geq_within(fin(1.0), fin(1.0 + 5e-10), 1e-9)
    assert not ext.geq_within(N, fin(-1e300), 1e9)
    assert ext.geq_within(N, N, 0.0)


def test_array_ops_match_scalar_tables():
    vals = [N, fin(-2.0), ZERO, fin(0.5), fin(3.0), P]
    xs = [a for a in vals for _ in vals]
    ys = [b for _ in vals for b in vals]
    ax, ay = ext.to_array(xs), ext.to_array(ys)
    added = ext.from_array(ext.add_arrays(ax, ay))
    subbed = ext.from_array(ext.sub_arrays(ax, ay))
    for got_add, got_sub, a, b in zip(added, subbed, xs, ys):
        assert got_add == ext.add(a, b)
        assert got_sub == ext.sub(a, b)


def test_array_round_trip_and_nan_rejection():
    vals = (N, fin(1.5), P)
    assert ext.from_array(ext.to_array(vals)) == vals
    with pytest.raises(ValueError):
        ext.from_array(np.array([1.0, float("nan")]))


def test_one_cell_behind_the_tag_view():
    assert ExtReal.__slots__ == ("_cell",)
    for x, tag, value in ((N, Tag.NEG_INF, 0.0), (fin(2.5), Tag.FINITE, 2.5), (P, Tag.POS_INF, 0.0)):
        assert (x.tag, x.value, x.is_finite) == (tag, value, tag is Tag.FINITE)
        assert x.tag is tag and ExtReal(x.tag, x.value) == x
    assert ExtReal(Tag.NEG_INF, 7.0).to_float() == -math.inf
    with pytest.raises(ValueError):
        ExtReal(Tag.FINITE, float("-inf"))
    with pytest.raises(ValueError):
        ext.from_float(float("nan"))


def test_negative_zero():
    neg = ExtReal(Tag.FINITE, -0.0)
    assert str(neg) == "-0.0" and repr(neg) == "ExtReal(-0.0)"
    assert math.copysign(1.0, ext.from_float(-0.0).to_float()) == 1.0
    assert ext.render(ext.from_float(-0.0)) == "0.0"
    assert neg == ZERO and hash(neg) == hash(ZERO) and len({neg, ZERO}) == 1
    assert not neg < ZERO and not ZERO < neg and neg <= ZERO and neg >= ZERO
    assert ext.compare(neg, ZERO) == 0


def test_order_equality_and_hash_follow_the_cell():
    xs = [P, fin(1e308), fin(1.0), ZERO, fin(-5e-324), N]
    assert sorted(xs) == xs[::-1]
    assert all(a > b and a >= b and b < a and b <= a and a != b for a, b in zip(xs, xs[1:]))
    assert len({*xs, *(ext.from_float(x.to_float()) for x in xs)}) == len(xs)
    assert (ZERO == 0.0) is False and ZERO.__lt__(0.0) is NotImplemented


def test_pickle_round_trip():
    for x in (N, P, ZERO, ExtReal(Tag.FINITE, -0.0), fin(-2.75), fin(5e-324)):
        y = pickle.loads(pickle.dumps(x))
        assert type(y) is ExtReal and y == x and repr(y) == repr(x)


def test_parse_reads_what_float_reads_and_refuses_underscores():
    for token, want in (("Infinity", P), ("-INFINITY", N), (" +Inf\t", P), ("1e400", P), ("-1e400", N),
                        ("-0.0", ZERO), ("1e-400", ZERO), ("\t2.5 ", fin(2.5))):
        assert ext.parse(token) == want
    for token in ("1_0", "1_000.5", "-inf_", "NaN", " -nan "):
        with pytest.raises(ValueError, match="not an extended real"):
            ext.parse(token)
