"""An exact lower hull, the test oracle for ``convex_hull_oracle`` and for
the envelope that biconjugation computes, and an exact slope transform.

Every float is a dyadic rational, so on ``fractions.Fraction`` coordinates
the monotone chain (Andrew 1979) takes every turn exactly and needs no
scaling, and each hull value is interpolated exactly and rounded once.
It follows ``convex_hull_oracle``'s tag rules: any -inf sample makes the
hull -inf everywhere, +inf samples take no part, and the grid stays +inf
outside the span of the finite samples.  The transform takes each
``k*x - f(x)`` exactly, so a product never overflows to a tag, and
rounds each maximum once, to +inf or -inf beyond the float range.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

import numpy as np


def exact_lower_hull(xs, ys) -> list[int]:
    """Indices of the lower hull's vertices, for points sorted by x, with
    collinear points dropped."""
    px, py = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    chain: list[int] = []
    for i in range(len(px)):
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            if (px[b] - px[a]) * (py[i] - py[a]) - (py[b] - py[a]) * (px[i] - px[a]) > 0:
                break
            chain.pop()
        chain.append(i)
    return chain


def exact_hull(f) -> np.ndarray:
    """The lower convex hull of a sampled function's finite samples on its
    grid, each value the exact one rounded once to the nearest float."""
    grid, vals = f.grid.as_array, f.values_array
    if (vals == -np.inf).any():
        return np.full(len(vals), -np.inf)
    finite = np.isfinite(vals)
    out = np.full(len(vals), np.inf)
    if not finite.any():
        return out
    chain = exact_lower_hull(grid[finite], vals[finite])
    hx = [Fraction(x) for x in grid[finite][chain].tolist()]
    hy = [Fraction(y) for y in vals[finite][chain].tolist()]
    for i, x in enumerate(grid.tolist()):
        q = Fraction(x)
        if not hx[0] <= q <= hx[-1]:
            continue
        j = bisect_left(hx, q)
        if hx[j] == q:
            out[i] = float(hy[j])
        else:
            out[i] = float(hy[j - 1] + (hy[j] - hy[j - 1]) * (q - hx[j - 1]) / (hx[j] - hx[j - 1]))
    return out


def exact_transform(points, values, queries) -> np.ndarray:
    """At each query q, max over i of q*points[i] - values[i], by the tag
    rules of the extended reals' subtraction on finite products: any -inf
    value makes every result +inf, +inf values take no part, and with no
    finite value left the result is -inf.  Each finite maximum is exact
    and rounded once to the nearest float, beyond the float range to the
    infinity of its sign."""
    vals = np.asarray(values, dtype=float)
    if (vals == -np.inf).any():
        return np.full(len(queries), np.inf)
    finite = np.isfinite(vals)
    pv = [(Fraction(p), Fraction(v)) for p, v in zip(np.asarray(points)[finite].tolist(), vals[finite].tolist())]
    if not pv:
        return np.full(len(queries), -np.inf)
    return np.array([_rounded(max(Fraction(q) * p - v for p, v in pv)) for q in np.asarray(queries).tolist()])


def _rounded(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:
        return float("inf") if q > 0 else float("-inf")


def transform_bounds(points, values, queries, rtol: float) -> np.ndarray:
    """Each query's bound on a finite transform value's error: rtol times
    its scale |q| * max|x| + max|f(x)| (finite values only; inf where that
    overflows), or the spacing 5e-324 of the subnormal floats if larger."""
    vals = np.asarray(values, dtype=float)
    finite = vals[np.isfinite(vals)]
    top = float(np.abs(finite).max()) if len(finite) else 0.0
    with np.errstate(over="ignore"):
        scales = np.abs(np.asarray(queries, dtype=float)) * float(np.abs(np.asarray(points)).max()) + top
    return np.maximum(rtol * scales, 5e-324)
