"""Independent reference results and output checkers for the benchmark.

Nothing here imports ``nucleus``: every expected output is computed by
the benchmark's own code, outside the timed loop, and every job output
is compared against it.  Functions are compared value by value at a
tolerance of 1e-9 (relative above magnitude 1), infinite tags exactly;
matrices from the min-plus product must match exactly; concept sets
and cover edges are compared as sets, so enumeration and edge order are
free to change.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

TOL = 1e-9
# Largest slab of cells one brute-force transform step materialises.
CHUNK_CELLS = 1 << 21


# ---------------------------------------------------------------------------
# Saturating arithmetic on float64 arrays in which IEEE infinities stand
# for the infinite tags: (+inf) + (-inf) = +inf, and subtracting an equal
# infinity gives -inf (subtraction is the residuation of addition).

def sat_add(a, b) -> np.ndarray:
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.add(a, b, dtype=np.float64)
    out = np.asarray(out)
    out[np.isnan(out)] = np.inf
    return out


def sat_sub(c, b) -> np.ndarray:
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.subtract(c, b, dtype=np.float64)
    out = np.asarray(out)
    out[np.isnan(out)] = -np.inf
    return out


def transform(points: np.ndarray, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Brute force over all N*K cells: out[k] = max_x (k*x - value(x)).

    The same formula serves the forward transform (points are abscissae)
    and the reverse one (points are slopes, slopes are abscissae).  Slabs
    of slopes keep the memory bounded by CHUNK_CELLS.
    """
    out = np.empty(len(slopes))
    step = max(1, CHUNK_CELLS // max(1, len(points)))
    for s in range(0, len(slopes), step):
        k = slopes[s : s + step]
        out[s : s + step] = sat_sub(np.multiply.outer(k, points), values[np.newaxis, :]).max(axis=1)
    return out


def auto_slopes(xs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """All pairwise difference quotients of the finite samples, sorted and
    deduplicated; a single slope 0 when fewer than two samples are finite."""
    keep = np.isfinite(values)
    x, y = xs[keep], values[keep]
    if len(x) < 2:
        return np.array([0.0])
    qs = []
    for i in range(len(x) - 1):
        qs.append((y[i + 1 :] - y[i]) / (x[i + 1 :] - x[i]))
    return np.unique(np.concatenate(qs))


def monotone_chain(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the lower convex hull of points sorted by x."""
    vx: list[float] = []
    vy: list[float] = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        while len(vx) >= 2:
            turn = (vx[-1] - vx[-2]) * (y - vy[-2]) - (vy[-1] - vy[-2]) * (x - vx[-2])
            if turn > 0:
                break
            vx.pop()
            vy.pop()
        vx.append(x)
        vy.append(y)
    return np.array(vx), np.array(vy)


def lower_hull_on_grid(xs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Lower convex hull of the finite samples evaluated on the grid: +inf
    outside the finite samples' span, -inf everywhere once any sample is -inf."""
    if np.any(values == -np.inf):
        return np.full(len(xs), -np.inf)
    keep = np.isfinite(values)
    if not keep.any():
        return values.copy()
    hx, hy = monotone_chain(xs[keep], values[keep])
    out = np.full(len(xs), np.inf)
    inside = (xs >= hx[0]) & (xs <= hx[-1])
    out[inside] = np.interp(xs[inside], hx, hy)
    return out


def climb(v1: np.ndarray, v2: np.ndarray) -> float:
    return float(sat_sub(v2, v1).max())


def tags_and_values_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Infinite tags equal; finite values within an absolute tolerance."""
    if not (np.array_equal(np.isposinf(a), np.isposinf(b)) and np.array_equal(np.isneginf(a), np.isneginf(b))):
        return False
    fin = np.isfinite(a)
    return bool(np.all(np.abs(a[fin] - b[fin]) <= tol))


def scalars_equal(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def close(got: float, want: float) -> bool:
    """Output check for one number: tags exact, finite values within TOL,
    relative above magnitude 1."""
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


def geq_within(a: float, b: float, tol: float) -> bool:
    if a == math.inf or b == -math.inf:
        return True
    if a == -math.inf or b == math.inf:
        return False
    return a >= b - tol


def _report(lhs: float, rhs: float, relation: str, holds: bool, status: str = "OK") -> dict:
    return {"check": "report", "lhs": lhs, "rhs": rhs, "relation": relation, "holds": holds,
            "status": status, "exit": 0 if holds else 1}


def adjunction_report(xs, f, ks, g, tol: float = TOL) -> dict:
    """Expected ``check adjunction``: fall(conj f, g) against climb(f, rev g)
    for f on abscissae xs and g on slopes ks."""
    lhs = float(sat_sub(transform(xs, f, ks), g).max())
    rhs = climb(f, transform(ks, g, xs))
    return _report(lhs, rhs, "EQUAL", scalars_equal(lhs, rhs, tol))


def pair_report(kind: str, xs, v1, v2, slopes, tol: float = TOL) -> dict:
    """Expected ``check short`` or ``check toland-singer`` for two functions
    on the abscissae xs, through the given slopes."""
    lhs = climb(v1, v2)
    c2 = transform(xs, v2, slopes)
    rhs = float(sat_sub(transform(xs, v1, slopes), c2).max())
    if kind == "short":
        return _report(lhs, rhs, "GEQ", geq_within(lhs, rhs, tol))
    hypothesis = tags_and_values_close(transform(slopes, c2, xs), v2, tol)
    return _report(lhs, rhs, "EQUAL", hypothesis and scalars_equal(lhs, rhs, tol),
                   "OK" if hypothesis else "HYPOTHESIS_NOT_MET")


# ---------------------------------------------------------------------------
# Concepts: NextClosure over object bitmasks, covers from upper neighbours.

def polars(rows: list[int], n_attr: int):
    """The two polar maps of a context given as one attribute bitmask per
    object: objects to shared attributes, attributes to their objects."""
    n_obj = len(rows)
    cols = [sum(1 << i for i in range(n_obj) if rows[i] >> j & 1) for j in range(n_attr)]
    all_attr, all_obj = (1 << n_attr) - 1, (1 << n_obj) - 1

    def meet(mask: int, table: list[int], full: int) -> int:
        while mask:
            low = mask & -mask
            full &= table[low.bit_length() - 1]
            mask ^= low
        return full

    return (lambda ext: meet(ext, rows, all_attr)), (lambda intent: meet(intent, cols, all_obj))


def next_closure(rows: list[int], n_attr: int) -> list[tuple[int, int]]:
    """Every concept as (extent mask, intent mask), in lectic order."""
    up, down = polars(rows, n_attr)
    n = len(rows)
    a = down(up(0))
    out = [a]
    while True:
        for i in range(n - 1, -1, -1):
            if a >> i & 1:
                continue
            below = (1 << i) - 1
            b = down(up((a & below) | 1 << i))
            if b & below == a & below:
                a = b
                out.append(a)
                break
        else:
            return [(e, up(e)) for e in out]


def count_concepts(rows: list[int], n_attr: int) -> int:
    """Number of concepts, as the size of the intersection closure of the
    object intents (cheap; used to size generated contexts)."""
    intents = {(1 << n_attr) - 1}
    for r in rows:
        intents |= {i & r for i in intents}
    return len(intents)


def upper_cover_edges(rows: list[int], n_attr: int, extents: list[int]) -> set[tuple[int, int]]:
    """Hasse edges (lower extent, upper extent): for each extent A the upper
    neighbours are the minimal closures of A plus one object outside A."""
    up, down = polars(rows, n_attr)
    n = len(rows)
    edges = set()
    for a in extents:
        cands = {down(up(a | 1 << g)) for g in range(n) if not a >> g & 1}
        for c in cands:
            if not any(d != c and d & c == d for d in cands):
                edges.add((a, c))
    return edges


def labels(mask: int, names: list[str]) -> list[str]:
    return [n for i, n in enumerate(names) if mask >> i & 1]


def concept_text(ext: list[str], intent: list[str]) -> str:
    return "({%s}, {%s})" % (", ".join(ext), ", ".join(intent))


_NODE = re.compile(r'^\s*c(\d+) \[label="\{(.*)\} / \{(.*)\}"\];$')
_EDGE = re.compile(r"^\s*c(\d+) -> c(\d+);$")


def _names(field: str) -> frozenset[str]:
    return frozenset(s for s in (p.strip() for p in field.split(",")) if s)


# ---------------------------------------------------------------------------
# Output checkers.  Each returns None when the output matches the
# reference and a short reason otherwise.

def parse_function_text(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "").lower() != "x,value":
        raise ValueError("missing x,value header")
    pts = [ln.split(",") for ln in lines[1:]]
    if any(len(p) != 2 for p in pts):
        raise ValueError("row without two cells")
    return np.array([float(p[0]) for p in pts]), np.array([float(p[1]) for p in pts])


def values_close(got: np.ndarray, want: np.ndarray) -> str | None:
    if got.shape != want.shape:
        return f"{got.size} values, expected {want.size}"
    for tag in (np.isposinf, np.isneginf, np.isnan):
        bad = np.flatnonzero(tag(got) != tag(want))
        if bad.size:
            return f"infinite tag differs at index {int(bad[0])}"
    fin = np.isfinite(want)
    err = np.abs(got[fin] - want[fin]) - TOL * np.maximum(1.0, np.abs(want[fin]))
    if err.size and err.max() > 0:
        i = int(np.flatnonzero(fin)[int(err.argmax())])
        return f"value {got[i]!r} at index {i}, expected {want[i]!r}"
    return None


def check_function(out: dict, want: dict) -> str | None:
    if out.get("rc") != 0:
        return f"exit {out.get('rc')}, expected 0"
    try:
        xs, vs = parse_function_text(out["text"])
    except (ValueError, TypeError, KeyError) as e:
        return f"unreadable function output: {e}"
    return values_close(xs, want["x"]) or values_close(vs, want["value"])


def check_report_output(out: dict, want: dict) -> str | None:
    if out.get("rc") != want["exit"]:
        return f"exit {out.get('rc')}, expected {want['exit']}"
    try:
        got = json.loads(out["text"])
        lhs, rhs = float(got["lhs"]), float(got["rhs"])
    except (ValueError, TypeError, KeyError) as e:
        return f"unreadable report: {e}"
    for key, got_value in (("lhs", lhs), ("rhs", rhs)):
        if not close(got_value, want[key]):
            return f"{key} {got_value!r}, expected {want[key]!r}"
    for key in ("relation", "holds", "status"):
        if got.get(key) != want[key]:
            return f"{key} {got.get(key)!r}, expected {want[key]!r}"
    return None


def check_distance(out: dict, want: dict) -> str | None:
    if out.get("rc") != 0:
        return f"exit {out.get('rc')}, expected 0"
    try:
        got = dict(ln.split() for ln in out["text"].splitlines() if ln.strip())
        pair = np.array([float(got["climb"]), float(got["fall"])])
    except (ValueError, TypeError, KeyError) as e:
        return f"unreadable distance output: {e}"
    return values_close(pair, np.array([want["climb"], want["fall"]]))


def check_exact_text(out: dict, want: dict) -> str | None:
    if out.get("rc") != 0:
        return f"exit {out.get('rc')}, expected 0"
    if out.get("text") != want["text"]:
        return "output text differs"
    return None


def check_matrix(out: dict, want: dict) -> str | None:
    if out.get("rc") != 0:
        return f"exit {out.get('rc')}, expected 0"
    try:
        lines = [ln.split(",") for ln in out["text"].splitlines() if ln.strip()]
        cols = lines[0][1:]
        rows = [ln[0] for ln in lines[1:]]
        vals = np.array([[float(c) for c in ln[1:]] for ln in lines[1:]])
    except (ValueError, TypeError, KeyError, IndexError) as e:
        return f"unreadable matrix: {e}"
    if rows != want["rows"] or cols != want["cols"]:
        return "labels differ"
    if vals.shape != want["value"].shape or not np.array_equal(vals, want["value"]):
        return "min-plus product differs"
    return None


def check_concepts(out: dict, want: dict) -> str | None:
    if out.get("rc") != 0:
        return f"exit {out.get('rc')}, expected 0"
    got = [ln for ln in out["text"].splitlines() if ln.strip()]
    if len(got) != len(set(got)):
        return "a concept is listed twice"
    if set(got) != want["concepts"]:
        return f"{len(got)} concepts, expected {len(want['concepts'])}; sets differ"
    return None


def check_lattice(out: dict, want: dict) -> str | None:
    if out.get("rc") != 0:
        return f"exit {out.get('rc')}, expected 0"
    nodes, edges = {}, []
    for ln in out["text"].splitlines():
        m = _NODE.match(ln)
        if m:
            nodes[m.group(1)] = (_names(m.group(2)), _names(m.group(3)))
            continue
        m = _EDGE.match(ln)
        if m:
            edges.append((m.group(1), m.group(2)))
    if set(nodes.values()) != want["nodes"] or len(nodes) != len(want["nodes"]):
        return f"{len(nodes)} nodes, expected {len(want['nodes'])}; concept sets differ"
    try:
        got = {(nodes[a][0], nodes[b][0]) for a, b in edges}
    except KeyError:
        return "edge to an undeclared node"
    if len(got) != len(edges) or got != want["edges"]:
        return f"{len(edges)} cover edges, expected {len(want['edges'])}; edge sets differ"
    return None


def check_plain(out: dict, want: dict) -> str | None:
    """Library results flattened to nested lists: floats within tolerance
    (tags exact), everything else equal."""
    return _compare_plain(out.get("value"), want["value"], "result")


def _compare_plain(got, want, where: str) -> str | None:
    if isinstance(want, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return f"{where}: {got!r}, expected {want!r}"
        return None if close(float(got), want) else f"{where}: {got!r}, expected {want!r}"
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            msg = _compare_plain(g, w, f"{where}[{i}]")
            if msg:
                return msg
        return None
    if isinstance(want, (set, frozenset)):
        got_set = {tuple(x) if isinstance(x, list) else x for x in got}
        return None if got_set == want and len(got) == len(want) else f"{where}: sets differ"
    return None if got == want else f"{where}: {got!r}, expected {want!r}"


CHECKERS = {
    "function": check_function,
    "report": check_report_output,
    "distance": check_distance,
    "text": check_exact_text,
    "matrix": check_matrix,
    "concepts": check_concepts,
    "lattice": check_lattice,
    "plain": check_plain,
}


def check(out: dict, want: dict) -> str | None:
    """None when a job's output matches its reference, else the reason."""
    if "error" in out:
        return f"raised {out['error']}"
    return CHECKERS[want["check"]](out, want)


# ---------------------------------------------------------------------------
# Truth and extended-real push/pull for library jobs.

def push(m: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """out(b) = sup_a M(a,b) - P(a)."""
    return sat_sub(m, pre[:, np.newaxis]).max(axis=0)


def pull(m: np.ndarray, opco: np.ndarray) -> np.ndarray:
    """out(a) = sup_b M(a,b) - Q(b)."""
    return sat_sub(m, opco[np.newaxis, :]).max(axis=1)


def truth_push(m: np.ndarray, pre: np.ndarray) -> np.ndarray:
    return np.all(~pre[:, np.newaxis] | m, axis=0)


def truth_pull(m: np.ndarray, opco: np.ndarray) -> np.ndarray:
    return np.all(~opco[np.newaxis, :] | m, axis=1)


def min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return sat_add(a[:, :, np.newaxis], b[np.newaxis, :, :]).min(axis=1)


def rspace_violations(d: np.ndarray) -> tuple[list, set]:
    """Diagonal entries outside {0, -inf} and triples (i, j, k) with
    d(i,j) + d(j,k) < d(i,k)."""
    diag = [[i, float(d[i, i])] for i in range(len(d)) if d[i, i] not in (0.0, -np.inf)]
    bad = sat_add(d[:, :, np.newaxis], d[np.newaxis, :, :]) < d[:, np.newaxis, :]
    return diag, {tuple(int(v) for v in t) for t in np.argwhere(bad)}
