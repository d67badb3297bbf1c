"""Seeded input generation, job lists and reference results for the two
workloads, each a mix of two job families.

``build(name, seed, workdir)`` writes the input files under ``workdir``
and returns a :class:`Plan`: the jobs the worker runs (CLI argument
lists, or library call sequences naming their input files), the
reference each job's output must match, and the facts recorded with
the result.  The same seed always gives the same files and job list.

Sizes are stratified (evenly spread over a fixed range) rather than
drawn at random, and only the values depend on the seed, so the mix of
job costs, and with it the latency percentiles, barely moves from one
seed to the next.  Each workload's job classes overlap in cost, so
neither the median nor the tail percentile sits on the boundary
between two classes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_reference as ref

WORKLOADS = ("functions", "algebra")

# Each workload runs the jobs of two families, interleaved.  Four separate
# workloads would leave each too short a run on a shared host whose speed
# swings for a minute at a time (see README.md, Steadiness).
FAMILIES = {"functions": ("envelope", "transforms"), "algebra": ("lattice", "tropical")}

WHY = {
    "functions": "--dual auto envelopes (O(N*K) broadcast, np.unique over N^2 quotients, K-point Grid) beside "
    "README-style fixed slope grids (per-cell ExtReal parse/render); galois and core idle",
    "algebra": "concepts/lattice verbs and meet/join reads (lectic walk, dense O(n^3) covers) beside min-plus "
    "compose, push/pull, limits, r-space checks (core's per-cell loops); legendre idle",
}

# Why each family is in the mix, recorded with its input facts.
FAMILY_WHY = {
    "envelope": "biconjugate and duality checks with --dual auto: the O(N*K) broadcast, np.unique over "
    "the N^2 quotients and K-point Grid validation do almost all the work; galois and core sit idle.",
    "transforms": "README-style fixed lo:hi:step slope grids: per-cell ExtReal parse and render dominate and "
    "the transform itself is small, so Python overhead added to legendre shows here.",
    "lattice": "concepts and lattice verbs plus meet/join/close_extent reads: the lectic walk, the n^2 order "
    "tuples and the dense O(n^3) covers() do all the work; the only jobs that touch galois.",
    "tropical": "min-plus compose, push/pull queries, nucleus_limit and r-space checks: the only jobs "
    "where core's per-cell Python loops dominate, mixing writes (compose) with reads (push/pull).",
}

# Tail latency is reported at one fixed percentile of a pass's jobs, each
# at its best of many repeats, so that a faster commit is not compared at
# a higher percentile than its parent.  With 57-65 distinct jobs a pass,
# p90 leaves six or seven jobs (and some hundreds of job runs) beyond it.
TAIL_PCT = 90

# Budget for the largest single allocation a job may make, estimated from
# the generated sizes before anything runs.
MEMORY_BUDGET_BYTES = 1 << 30
LIVE_TEMPORARIES = 4


@dataclass
class Plan:
    workload: str
    seed: int
    why: str
    tail_pct: int
    jobs: list[dict] = field(default_factory=list)  # what the worker runs
    wants: list[dict] = field(default_factory=list)  # reference per job
    facts: dict = field(default_factory=dict)
    largest_bytes: int = 0

    def add(self, job: dict, want: dict, cells: int, bytes_per_cell: int = 8) -> None:
        self.jobs.append(job)
        self.wants.append(want)
        self.largest_bytes = max(self.largest_bytes, cells * bytes_per_cell * LIVE_TEMPORARIES)

    def interleave(self) -> None:
        """Mix the job classes with one fixed permutation.  It is the same
        for every seed, so the order of allocations (and with it the peak
        memory) and the part of a pass that ends the loop do not vary
        with the seed."""
        order = np.random.default_rng(0).permutation(len(self.jobs))
        self.jobs = [self.jobs[i] for i in order]
        self.wants = [self.wants[i] for i in order]


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _strata(lo: float, hi: float, count: int) -> list[int]:
    """``count`` sizes spread evenly over [lo, hi], in increasing order; the
    same for every seed, so the job list only shuffles which job runs when."""
    return [round(lo + (hi - lo) * (i + 0.5) / count) for i in range(count)]


def _fmt(v: float) -> str:
    return repr(float(v))


def write_function(path: Path, xs: np.ndarray, vals: np.ndarray) -> str:
    rows = "".join(f"{_fmt(x)},{_fmt(v)}\n" for x, v in zip(xs, vals))
    path.write_text("x,value\n" + rows)
    return str(path)


def write_matrix(path: Path, rows: list[str], cols: list[str], m: np.ndarray) -> str:
    lines = ["," + ",".join(cols)]
    lines += [r + "," + ",".join(_fmt(v) for v in row) for r, row in zip(rows, m)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_context(path: Path, inc: np.ndarray) -> str:
    objs = [f"g{i}" for i in range(inc.shape[0])]
    attrs = [f"m{j}" for j in range(inc.shape[1])]
    if path.suffix == ".cxt":
        body = ["B", "", str(len(objs)), str(len(attrs)), *objs, *attrs]
        body += ["".join("X" if c else "." for c in row) for row in inc]
    else:
        body = ["," + ",".join(attrs)]
        body += [g + "," + ",".join("1" if c else "0" for c in row) for g, row in zip(objs, inc)]
    path.write_text("\n".join(body) + "\n")
    return str(path)


def _span(xs: list[int]) -> dict:
    return {"min": int(min(xs)), "max": int(max(xs)), "total": int(sum(xs))}


# ---------------------------------------------------------------------------
# envelope: irregular abscissae, --dual auto.

_LATTICE_STEP = 0.00125  # abscissae are drawn without repeats from [-5, 5] on this step


def _irregular_x(rng, n):
    idx = np.sort(rng.choice(8001, size=n, replace=False))
    return idx * _LATTICE_STEP - 5.0


def _nonconvex(rng, xs):
    a, b, w, p = rng.uniform(0.2, 1.0), rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0), rng.uniform(0, 6.3)
    return a * xs**2 + b * np.sin(w * xs + p) + rng.normal(0.0, 0.1, len(xs))


def _convex(rng, xs):
    a, s, c = rng.uniform(0.3, 1.0), rng.uniform(-2, 2), rng.uniform(-1, 1)
    return a * (xs - s) ** 2 + c * xs


def _punch(rng, vals, count, value=np.inf):
    out = vals.copy()
    out[rng.choice(np.arange(1, len(vals) - 1), size=count, replace=False)] = value
    return out


def _envelope(plan: Plan, rng, work: Path) -> None:
    n_bi, n_short, n_ts = 12, 9, 9
    ks, cells = [], []
    for i, n in enumerate(_strata(100, 175, n_bi)):
        xs = _irregular_x(rng, n)
        vals = _nonconvex(rng, xs)
        if i % 3 == 1:
            vals = _punch(rng, vals, 3)
        if i == 0:
            vals = _punch(rng, vals, 1, -np.inf)
        path = write_function(work / f"bi{i}.csv", xs, vals)
        k = len(ref.auto_slopes(xs, vals))
        ks.append(k)
        cells.append(n * k)
        plan.add(
            {"kind": "cli", "class": "biconjugate", "argv": ["biconjugate", path, "--dual", "auto"]},
            {"check": "function", "x": xs, "value": ref.lower_hull_on_grid(xs, vals)},
            n * k,
        )
    for kind, count, lo, hi in (("short", n_short, 70, 115), ("toland-singer", n_ts, 65, 110)):
        for i, n in enumerate(_strata(lo, hi, count)):
            xs = _irregular_x(rng, n)
            v1 = _nonconvex(rng, xs)
            if i % 3 == 2:
                v1 = _punch(rng, v1, 2)
            v2 = _convex(rng, xs) if (kind == "toland-singer" and i % 2 == 0) or i % 3 == 0 else _nonconvex(rng, xs)
            p1 = write_function(work / f"{kind}{i}a.csv", xs, v1)
            p2 = write_function(work / f"{kind}{i}b.csv", xs, v2)
            slopes = np.unique(np.concatenate([ref.auto_slopes(xs, v1), ref.auto_slopes(xs, v2)]))
            ks.append(len(slopes))
            cells.append(n * len(slopes))
            want = ref.pair_report(kind, xs, v1, v2, slopes)
            plan.add(
                {"kind": "cli", "class": kind, "argv": ["check", kind, p1, p2, "--dual", "auto", "--json"]},
                want,
                n * len(slopes),
            )
    plan.facts = {
        "jobs_per_pass": len(plan.jobs),
        "classes": {"biconjugate": n_bi, "check short": n_short, "check toland-singer": n_ts},
        "N": {"biconjugate": [100, 175], "check short": [70, 115], "check toland-singer": [65, 110]},
        "K": _span(ks),
        "N*K": _span(cells),
        "toland_singer_exit1": sum(1 for w in plan.wants if w.get("status") == "HYPOTHESIS_NOT_MET"),
    }


# ---------------------------------------------------------------------------
# transforms: regular grids and fixed lo:hi:step slope grids.

def slope_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The points ``lo:hi:step`` denotes: lo, lo+step, ... up to hi, with
    hi included when the step divides the range up to float noise."""
    q = (hi - lo) / step
    count = round(q) if abs(q - round(q)) <= 1e-6 else math.floor(q)
    return np.array([lo + i * step for i in range(count + 1)])


def _regular(rng, n, inf_ends: bool):
    h = 10.0 / (n - 1)
    xs = np.array([-5.0 + i * h for i in range(n)])
    vals = rng.uniform(0.2, 0.6) * xs**2 + np.cos(rng.uniform(1, 4) * xs) + rng.normal(0, 0.05, n)
    if inf_ends:
        vals[:3] = np.inf
        vals[-2:] = np.inf
    return xs, vals


def _transforms(plan: Plan, rng, work: Path) -> None:
    classes = ("conjugate", "biconjugate", "check short", "check adjunction", "distance", "hull", "plotdata")
    per_class = 5
    sizes = _strata(200, 3000, per_class)
    slope_counts = _strata(100, 400, per_class)[::-1]
    ns, ks, cells = [], [], []
    for cls in classes:
        for i, (n, k) in enumerate(zip(sizes, slope_counts)):
            tag = f"{cls.replace(' ', '_')}{i}"
            xs, v1 = _regular(rng, n, inf_ends=i % 4 == 1)
            step = 0.05
            lo = round(-step * (k - 1) / 2, 6)
            hi = round(lo + step * (k - 1), 6)
            spec = f"{lo!r}:{hi!r}:{step!r}"
            slopes = slope_grid(lo, hi, step)
            p1 = write_function(work / f"{tag}.csv", xs, v1)
            ns.append(n)
            cell = 0
            if cls == "conjugate":
                argv = ["conjugate", p1, "--dual", spec]
                want = {"check": "function", "x": slopes, "value": ref.transform(xs, v1, slopes)}
                cell = n * len(slopes)
            elif cls == "biconjugate":
                argv = ["biconjugate", p1, "--dual", spec]
                conj = ref.transform(xs, v1, slopes)
                want = {"check": "function", "x": xs, "value": ref.transform(slopes, conj, xs)}
                cell = n * len(slopes)
            elif cls == "check short":
                _, v2 = _regular(rng, n, inf_ends=False)
                p2 = write_function(work / f"{tag}b.csv", xs, v2)
                argv = ["check", "short", p1, p2, "--dual", spec, "--json"]
                want = ref.pair_report("short", xs, v1, v2, slopes)
                cell = n * len(slopes)
            elif cls == "check adjunction":
                g = rng.normal(0, 1, len(slopes)) + 0.5 * slopes**2
                p2 = write_function(work / f"{tag}g.csv", slopes, g)
                argv = ["check", "adjunction", p1, p2, "--json"]
                want = ref.adjunction_report(xs, v1, slopes, g)
                cell = n * len(slopes)
            elif cls == "distance":
                _, v2 = _regular(rng, n, inf_ends=i % 4 == 2)
                p2 = write_function(work / f"{tag}b.csv", xs, v2)
                argv = ["distance", p1, p2]
                want = {"check": "distance", "climb": ref.climb(v1, v2), "fall": ref.climb(v2, v1)}
            elif cls == "hull":
                argv = ["hull", p1]
                want = {"check": "function", "x": xs, "value": ref.lower_hull_on_grid(xs, v1)}
            else:
                argv = ["plotdata", p1]
                fin = np.isfinite(v1)
                lines = [f"{x!r}\t{v!r}" for x, v in zip(xs[fin].tolist(), v1[fin].tolist())]
                if not fin.all():
                    shown = ", ".join(f"x={x!r}" for x in xs[~fin].tolist())
                    lines.append(f"# omitted {int((~fin).sum())} infinite samples: {shown}")
                want = {"check": "text", "text": "\n".join(lines) + "\n"}
            if cell:
                ks.append(len(slopes))
                cells.append(cell)
            plan.add({"kind": "cli", "class": cls, "argv": argv}, want, max(cell, n))
    plan.facts = {
        "jobs_per_pass": len(plan.jobs),
        "classes": {c: per_class for c in classes},
        "N": _span(ns),
        "K": _span(ks),
        "N*K": _span(cells),
    }


# ---------------------------------------------------------------------------
# lattice: contexts sized by their concept count.

def _rows(inc: np.ndarray) -> list[int]:
    return [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in inc]


def sized_context(rng, n_obj: int, n_attr: int, target: int) -> np.ndarray:
    """Random incidence whose concept count is near ``target``: one random
    field, thresholded at the density found by bisection."""
    u = rng.random((n_obj, n_attr))
    lo, hi = 0.05, 0.95
    best = None
    for _ in range(14):
        d = (lo + hi) / 2
        inc = u < d
        c = ref.count_concepts(_rows(inc), n_attr)
        if best is None or abs(c - target) < abs(best[0] - target):
            best = (c, inc)
        if abs(c - target) <= 0.02 * target:
            break
        lo, hi = (d, hi) if c < target else (lo, d)
    return best[1]


def _context_reference(inc: np.ndarray, with_edges: bool):
    rows, n_attr = _rows(inc), inc.shape[1]
    objs = [f"g{i}" for i in range(inc.shape[0])]
    attrs = [f"m{j}" for j in range(n_attr)]
    concepts = ref.next_closure(rows, n_attr)
    out = {"concepts": concepts, "objs": objs, "attrs": attrs, "rows": rows}
    if with_edges:
        edges = ref.upper_cover_edges(rows, n_attr, [e for e, _ in concepts])
        out["edges"] = {
            (frozenset(ref.labels(a, objs)), frozenset(ref.labels(b, objs))) for a, b in edges
        }
    return out


def _lattice(plan: Plan, rng, work: Path) -> None:
    n_concepts, n_lattice, n_reads = 10, 10, 8
    counts = {"concepts": [], "lattice": [], "reads": []}
    edges_total = 0
    for cls, count, lo, hi in (("concepts", n_concepts, 250, 550), ("lattice", n_lattice, 120, 260)):
        for i, target in enumerate(_strata(lo, hi, count)):
            shape = (22 + i * 5 % 13, 16 + i * 3 % 7)
            inc = sized_context(rng, *shape, target)
            path = write_context(work / f"{cls}{i}{'.cxt' if i % 2 == 0 else '.csv'}", inc)
            r = _context_reference(inc, with_edges=cls == "lattice")
            objs, attrs = r["objs"], r["attrs"]
            n = len(r["concepts"])
            counts[cls].append(n)
            if cls == "concepts":
                want = {
                    "check": "concepts",
                    "concepts": {ref.concept_text(ref.labels(e, objs), ref.labels(m, attrs)) for e, m in r["concepts"]},
                }
            else:
                want = {
                    "check": "lattice",
                    "nodes": {(frozenset(ref.labels(e, objs)), frozenset(ref.labels(m, attrs))) for e, m in r["concepts"]},
                    "edges": r["edges"],
                }
                edges_total += len(r["edges"])
            plan.add({"kind": "cli", "class": cls, "argv": [cls, path]}, want, n * n)
    for i in range(n_reads):
        inc = sized_context(rng, 24 + i % 7, 16 + i * 3 % 5, 220)
        path = write_context(work / f"reads{i}.cxt", inc)
        r = _context_reference(inc, with_edges=False)
        objs, attrs, rows, n_attr = r["objs"], r["attrs"], r["rows"], inc.shape[1]
        extents = [e for e, _ in r["concepts"]]
        counts["reads"].append(len(extents))
        pairs = [rng.choice(len(extents), 2).tolist() for _ in range(150)]
        subsets = [np.flatnonzero(rng.random(len(objs)) < 0.15).tolist() for _ in range(150)]

        up, down = ref.polars(rows, n_attr)

        def concept(e):
            e = down(up(e))
            return [ref.labels(e, objs), ref.labels(up(e), attrs)]

        want_value = [
            [concept(extents[a] & extents[b]) for a, b in pairs],
            [concept(extents[a] | extents[b]) for a, b in pairs],
            [concept(sum(1 << g for g in s))[0] for s in subsets],
        ]
        plan.add(
            {
                "kind": "lib", "class": "reads", "op": "lattice_reads", "context": path,
                "pairs": [[ref.labels(extents[a], objs), ref.labels(extents[b], objs)] for a, b in pairs],
                "subsets": [[objs[g] for g in s] for s in subsets],
            },
            {"check": "plain", "value": want_value},
            len(extents) ** 2,
        )
    plan.facts = {
        "jobs_per_pass": len(plan.jobs),
        "classes": {"concepts": n_concepts, "lattice": n_lattice, "library reads": n_reads},
        "concepts_per_context": {k: _span(v) for k, v in counts.items()},
        "cover_edges": edges_total,
        "contexts": "22-34 objects x 16-22 attributes, density set for the target concept count",
    }


# ---------------------------------------------------------------------------
# tropical: labelled extended-real matrices and vectors.

def _ext_matrix(rng, n, m, pos_inf=0.04, neg_inf=0.01):
    a = np.round(rng.normal(0.0, 5.0, (n, m)), 6)
    u = rng.random((n, m))
    a[u < pos_inf] = np.inf
    a[(u >= pos_inf) & (u < pos_inf + neg_inf)] = -np.inf
    return a + 0.0


def _distance_matrix(rng, n):
    w = np.where(rng.random((n, n)) < 0.3, np.round(rng.uniform(1, 10, (n, n)), 3), np.inf)
    np.fill_diagonal(w, 0.0)
    for k in range(n):
        w = np.minimum(w, w[:, k : k + 1] + w[k : k + 1, :])
    return w


def _closure_pre(m, v):
    return ref.pull(m, ref.push(m, v))


def _closure_opco(m, v):
    return ref.push(m, ref.pull(m, v))


def _tropical(plan: Plan, rng, work: Path) -> None:
    n_compose, n_rspace, n_query, n_limit, n_truth = 8, 6, 5, 5, 5
    dims, triples = [], []
    sides = _strata(20, 32, n_compose)
    for i, n in enumerate(sides):
        m, p = sides[-1 - i], sides[(i + 3) % n_compose]
        a, b = _ext_matrix(rng, n, m), _ext_matrix(rng, m, p)
        rows, mids, cols = [f"r{j}" for j in range(n)], [f"k{j}" for j in range(m)], [f"c{j}" for j in range(p)]
        pa = write_matrix(work / f"compose{i}a.csv", rows, mids, a)
        pb = write_matrix(work / f"compose{i}b.csv", mids, cols, b)
        dims.append(f"{n}x{m}x{p}")
        plan.add(
            {"kind": "cli", "class": "compose", "argv": ["compose", pa, pb]},
            {"check": "matrix", "rows": rows, "cols": cols, "value": ref.min_plus(a, b)},
            n * m * p,
        )
    for i, n in enumerate(_strata(20, 30, n_rspace)):
        d = _distance_matrix(rng, n)
        if i % 2 == 0:  # a few entries pushed above their shortest path
            for _ in range(3):
                a, b = rng.choice(n, 2, replace=False)
                if np.isfinite(d[a, b]):
                    d[a, b] *= 1.5
        if i % 4 == 1:
            d[0, 0] = 0.5
        names = [f"p{j}" for j in range(n)]
        path = write_matrix(work / f"rspace{i}.csv", names, names, d)
        diag, tri = ref.rspace_violations(d)
        triples.append(n**3)
        plan.add(
            {"kind": "lib", "class": "rspace", "op": "rspace", "matrix": path},
            {"check": "plain", "value": [not diag and not tri, diag, tri]},
            n * n,
        )
    for i in range(n_query):
        n, m = 32 + 2 * i, 44 - 2 * i
        mat = _ext_matrix(rng, n, m, pos_inf=0.01, neg_inf=0.03)
        path = write_matrix(work / f"query{i}.csv", [f"a{j}" for j in range(n)], [f"b{j}" for j in range(m)], mat)
        pres = [np.round(rng.normal(0, 3, n), 6) + 0.0 for _ in range(2)]
        opcos = [np.round(rng.normal(0, 3, m), 6) + 0.0 for _ in range(2)]
        pres[0] = _closure_pre(mat, pres[0])  # one vector that is fixed
        value = []
        for p, q in zip(pres, opcos):
            cp = _closure_pre(mat, p)
            value.append([
                ref.push(mat, p).tolist(), ref.pull(mat, q).tolist(), cp.tolist(),
                ref.tags_and_values_close(cp, p, 1e-9),
                float(ref.sat_sub(ref.push(mat, p), q).max()), float(ref.sat_sub(ref.pull(mat, q), p).max()),
            ])
        plan.add(
            {"kind": "lib", "class": "query", "op": "ext_queries", "matrix": path,
             "pres": [v.tolist() for v in pres], "opcos": [v.tolist() for v in opcos]},
            {"check": "plain", "value": value},
            n * m,
        )
    for i in range(n_limit):
        n, m = 28 + 2 * i, 36 - 2 * i
        mat = _ext_matrix(rng, n, m, pos_inf=0.01, neg_inf=0.03)
        path = write_matrix(work / f"limit{i}.csv", [f"a{j}" for j in range(n)], [f"b{j}" for j in range(m)], mat)
        pairs = []
        for _ in range(3):
            p = _closure_pre(mat, np.round(rng.normal(0, 3, n), 6) + 0.0)
            pairs.append((p, ref.push(mat, p)))
        s = float(np.round(rng.uniform(-2, 2), 6))
        pres, opcos = np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])
        p0, q0 = pairs[0]
        value = [
            [pres.max(axis=0).tolist(), _closure_opco(mat, opcos.min(axis=0)).tolist()],
            [_closure_pre(mat, pres.min(axis=0)).tolist(), opcos.max(axis=0).tolist()],
            [_closure_pre(mat, ref.sat_add(p0, s)).tolist(), ref.sat_sub(q0, s).tolist()],
            [ref.sat_sub(p0, s).tolist(), _closure_opco(mat, ref.sat_add(q0, s)).tolist()],
        ]
        plan.add(
            {"kind": "lib", "class": "limit", "op": "limits", "matrix": path,
             "pairs": [[p.tolist(), q.tolist()] for p, q in pairs], "scalar": s},
            {"check": "plain", "value": value},
            n * m,
        )
    for i in range(n_truth):
        n, m = 30 + 2 * i, 32 - i
        inc = rng.random((n, m)) < 0.6
        path = write_context(work / f"truth{i}.cxt", inc)
        pres = [rng.random(n) < 0.1 for _ in range(40)]
        opcos = [rng.random(m) < 0.15 for _ in range(40)]
        value = [
            [ref.truth_push(inc, p).tolist(), ref.truth_pull(inc, q).tolist(),
             ref.truth_pull(inc, ref.truth_push(inc, p)).tolist()]
            for p, q in zip(pres, opcos)
        ]
        plan.add(
            {"kind": "lib", "class": "truth", "op": "truth_queries", "context": path,
             "pres": [v.tolist() for v in pres], "opcos": [v.tolist() for v in opcos]},
            {"check": "plain", "value": value},
            n * m,
        )
    plan.facts = {
        "jobs_per_pass": len(plan.jobs),
        "classes": {"compose": n_compose, "check_rspace_axioms": n_rspace, "push/pull queries": n_query,
                    "nucleus_limit": n_limit, "truth push/pull": n_truth},
        "compose_dims": dims,
        "rspace_triples": _span(triples),
        "infinite_entries": "compose ~4% +inf, ~1% -inf; query/limit ~1% +inf, ~3% -inf",
    }


_GENERATORS = {"envelope": _envelope, "transforms": _transforms, "lattice": _lattice, "tropical": _tropical}


def build(name: str, seed: int, workdir: Path) -> Plan:
    """Write the inputs for one run under ``workdir`` and return its plan."""
    if name not in FAMILIES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    plan = Plan(workload=name, seed=seed, why=WHY[name], tail_pct=TAIL_PCT)
    for family in FAMILIES[name]:
        part = Plan(workload=family, seed=seed, why=FAMILY_WHY[family], tail_pct=TAIL_PCT)
        sub = workdir / family
        sub.mkdir(parents=True, exist_ok=True)
        _GENERATORS[family](part, _rng(family, seed), sub)
        for job in part.jobs:
            job["class"] = f"{family}/{job['class']}"
        plan.jobs += part.jobs
        plan.wants += part.wants
        plan.largest_bytes = max(plan.largest_bytes, part.largest_bytes)
        plan.facts[family] = dict(part.facts, why=part.why)
    plan.interleave()
    return plan
